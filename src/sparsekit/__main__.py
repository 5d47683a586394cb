"""`python -m sparsekit` runs the `sparsekit` command line; importing it runs nothing."""
from .cli import main
if __name__ == "__main__":
    raise SystemExit(main())
