from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from sparsekit.cli import ALGOS, main, parse_bench_config, run_bench
from sparsekit.graph import EdgeSet, Graph

REPO = Path(__file__).resolve().parent.parent


def cli(*args: str, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "sparsekit.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd or REPO,
    )


def test_generate_is_byte_reproducible(tmp_path):
    a = cli("generate", "--kind", "gnp", "--n", "10", "--p", "0.5", "--seed", "7", "-o", str(tmp_path / "a"))
    b = cli("generate", "--kind", "gnp", "--n", "10", "--p", "0.5", "--seed", "7", "-o", str(tmp_path / "b"))
    assert a.returncode == b.returncode == 0
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_generate_cycle_five_edges(tmp_path):
    out = tmp_path / "c.txt"
    assert cli("generate", "--kind", "cycle", "--n", "5", "-o", str(out)).returncode == 0
    g = Graph.read(out)
    assert g.n == 5 and g.m == 5


def test_generate_k_connected(tmp_path):
    from sparsekit.certificates import edge_connectivity

    out = tmp_path / "k.txt"
    r = cli("generate", "--kind", "k-connected-random", "--n", "50", "--k", "4", "--seed", "3", "-o", str(out))
    assert r.returncode == 0
    assert edge_connectivity(Graph.read(out)) >= 4


def test_spanner_end_to_end(tmp_path):
    gpath = tmp_path / "g.txt"
    cli("generate", "--kind", "gnp", "--n", "24", "--p", "0.3", "--seed", "5", "--weighted", "-o", str(gpath))
    espath = tmp_path / "spanner.txt"
    jpath = tmp_path / "report.json"
    r = cli(
        "spanner", "-i", str(gpath), "--algo", "bs", "--k", "3", "--seed", "1",
        "--verify", "--simulate", "-o", str(espath), "--json", str(jpath),
    )
    assert r.returncode == 0
    report = json.loads(jpath.read_text())
    assert report["stretch_ok"] and report["distributed_matches"]
    assert report["rounds"] <= 3
    g = Graph.read(gpath)
    es = EdgeSet.read(g, espath)
    assert len(es) == report["edges"]


def test_spanner_ultra_and_ldc(tmp_path):
    gpath = tmp_path / "g.txt"
    cli("generate", "--kind", "gnp", "--n", "40", "--p", "0.15", "--seed", "9", "-o", str(gpath))
    for algo in ("ultra", "ldc", "bs-det", "linear-det"):
        r = cli("spanner", "-i", str(gpath), "--algo", algo, "--k", "2", "--t", "4", "--verify")
        assert r.returncode == 0, (algo, r.stdout, r.stderr)
        report = json.loads(r.stdout)
        assert report["edges"] >= 1


def test_spanner_simulate_rejected_for_non_bs(tmp_path):
    gpath = tmp_path / "g.txt"
    cli("generate", "--kind", "cycle", "--n", "6", "-o", str(gpath))
    r = cli("spanner", "-i", str(gpath), "--algo", "ultra", "--simulate")
    assert r.returncode == 2
    assert "simulate" in r.stderr


def test_verification_failure_sets_exit_code(tmp_path):
    # a disconnected graph cannot be fully spanned: measured stretch inf
    gpath = tmp_path / "g.txt"
    Graph(4, [(0, 1, 1), (2, 3, 1)], weighted=False).write(gpath)
    r = cli("spanner", "-i", str(gpath), "--algo", "bs", "--k", "2", "--verify")
    assert r.returncode == 0  # spanner of a disconnected graph still verifies edge-wise
    report = json.loads(r.stdout)
    assert report["stretch_ok"]


def test_certificate_cmd(tmp_path):
    gpath = tmp_path / "g.txt"
    cli("generate", "--kind", "k-connected-random", "--n", "16", "--k", "3", "--seed", "2", "-o", str(gpath))
    r = cli("certificate", "-i", str(gpath), "--k", "3", "--eps", "0.25", "--verify", "--json", "-")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["verify_ok"] and report["verify_mode"] == "cuts"
    assert report["edges"] <= report["edge_cap"]


def test_certificate_large_variant(tmp_path):
    gpath = tmp_path / "g.txt"
    cli("generate", "--kind", "k-connected-random", "--n", "40", "--k", "5", "--seed", "4", "-o", str(gpath))
    r = cli("certificate", "-i", str(gpath), "--k", "5", "--eps", "0.4", "--variant", "large", "--verify")
    assert r.returncode == 0


def test_bench_baseline_regenerates_byte_identically(tmp_path):
    cfg = REPO / "bench" / "baseline.cfg"
    baseline = REPO / "bench" / "baseline.csv"
    out = tmp_path / "regen.csv"
    r = cli("bench", "--config", str(cfg), "--csv", str(out))
    assert r.returncode == 0
    assert out.read_bytes() == baseline.read_bytes()


def test_bench_runs_in_process(tmp_path):
    cfg = parse_bench_config("algos=bs\nns=16\nks=2\nseeds=1,2\np=0.3\n")
    table = run_bench(cfg)
    lines = table.strip().splitlines()
    assert lines[0].startswith("algo,")
    assert all(row.endswith(",1") for row in lines[1:])


def test_main_returns_error_code_on_bad_input(tmp_path):
    assert main(["spanner", "-i", str(tmp_path / "nope.txt"), "--algo", "bs"]) == 2
    with pytest.raises(SystemExit):  # unknown algo is rejected by argparse
        main(["spanner", "-i", "x", "--algo", "nope"])


@pytest.mark.parametrize("variant", ["small", "large"])
def test_certificate_cmd_on_empty_graph(tmp_path, variant):
    gpath = tmp_path / "g.txt"
    Graph(0, [], weighted=False).write(gpath)
    r = cli("certificate", "-i", str(gpath), "--k", "2", "--variant", variant, "--verify", "--json", "-")
    assert r.returncode == 0, r.stderr  # every requested verification passed
    assert "Traceback" not in r.stderr
    report = json.loads(r.stdout)
    assert report["n"] == 0 and report["edges"] == 0
    assert report["verify_ok"] and report["verify_detail"] == {"cuts_checked": "0"}


@pytest.mark.parametrize(
    "text", ["3 1 weighted\n0 1 x\n", "3 1 weighted\n0 1 1.5\n", "3 two weighted\n0 1 1\n"]
)
def test_malformed_graph_file_exits_2(tmp_path, capsys, text):
    gpath = tmp_path / "g.txt"
    gpath.write_text(text)
    assert main(["spanner", "-i", str(gpath), "--algo", "bs"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("line, key", [("ns=abc", "ns"), ("p=x", "p"), ("seeds=", "seeds")])
def test_malformed_bench_config_exits_2(tmp_path, capsys, line, key):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(f"algos=bs\nks=2\n{line}\n")
    assert main(["bench", "--config", str(cfg), "--csv", str(tmp_path / "out.csv")]) == 2
    assert f" {key}=" in capsys.readouterr().err


@pytest.mark.parametrize("variant", ["small", "large"])
@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_certificate_non_finite_eps_exits_2(tmp_path, capsys, variant, eps):
    gpath = tmp_path / "g.txt"
    Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], weighted=False).write(gpath)
    assert main(["certificate", "-i", str(gpath), "--k", "2", "--eps", eps, "--variant", variant]) == 2
    assert "eps must be finite" in capsys.readouterr().err


DEGENERATE_CERTIFICATE_INPUTS = {
    "n0": (Graph(0, [], weighted=False), "cuts", {"cuts_checked": "0"}),
    "n1": (Graph(1, [], weighted=False), "cuts", {"cuts_checked": "0"}),
    "n2-no-edges": (Graph(2, [], weighted=False), "cuts", {"cuts_checked": "1"}),
    "n2-one-edge": (Graph(2, [(0, 1)], weighted=False), "cuts", {"cuts_checked": "1"}),
    "n4-disconnected": (Graph(4, [(0, 1), (2, 3)], weighted=False), "cuts", {"cuts_checked": "7"}),
    "n20-no-edges": (Graph(20, [], weighted=False), "mincut", {"lambda_g": "0", "lambda_h": "0"}),
    "n20-zero-weights": (
        Graph(20, [(i, (i + 1) % 20, 0) for i in range(20)] + [(0, 10, 0)]),
        "mincut",
        {"lambda_g": "2", "lambda_h": "2"},
    ),
    "n20-disconnected": (
        Graph(20, [(i, i + 1) for i in range(9)] + [(i, i + 1) for i in range(10, 19)] + [(0, 9), (10, 19)],
              weighted=False),
        "mincut",
        {"lambda_g": "0", "lambda_h": "0"},
    ),
}


@pytest.mark.parametrize("variant", ["small", "large"])
@pytest.mark.parametrize("name", sorted(DEGENERATE_CERTIFICATE_INPUTS))
def test_certificate_verify_on_degenerate_inputs(tmp_path, capsys, variant, name):
    graph, mode, detail = DEGENERATE_CERTIFICATE_INPUTS[name]
    gpath = tmp_path / "g.txt"
    graph.write(gpath)
    code = main(["certificate", "-i", str(gpath), "--k", "2", "--variant", variant, "--verify", "--json", "-"])
    out, err = capsys.readouterr()
    assert code == 0 and "Traceback" not in err
    report = json.loads(out)
    assert report["verify_ok"] and report["verify_mode"] == mode and report["verify_detail"] == detail


DEGENERATE_SPANNER_INPUTS = {
    "n0": Graph(0, [], weighted=False),
    "n1": Graph(1, [], weighted=False),
    "n2-no-edges": Graph(2, [], weighted=False),
    "n2-one-edge": Graph(2, [(0, 1)], weighted=False),
    "n2-zero-weight": Graph(2, [(0, 1, 0)]),
    "n6-no-edges": Graph(6, [], weighted=False),
    "n7-disconnected": Graph(7, [(0, 1), (1, 2), (2, 0), (4, 5)], weighted=False),
    "n7-disconnected-weighted": Graph(7, [(0, 1, 3), (1, 2, 1), (2, 0, 5), (4, 5, 2)]),
    "n6-zero-weights": Graph(6, [(i, (i + 1) % 6, 0) for i in range(6)] + [(0, 3, 0), (1, 4, 2)]),
}


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("name", sorted(DEGENERATE_SPANNER_INPUTS))
def test_spanner_cmd_on_degenerate_inputs(tmp_path, capsys, algo, name):
    # Exit 2 exactly for the two rejected requests (--simulate on a
    # non-"bs" algorithm, ldc on non-uniform weights); every other run
    # builds, verifies and simulates with exit 0.
    graph = DEGENERATE_SPANNER_INPUTS[name]
    gpath = tmp_path / "g.txt"
    graph.write(gpath)
    uniform = len({e.w for e in graph.edges}) <= 1
    for flags in ([], ["--verify"], ["--simulate"], ["--verify", "--simulate"]):
        for k, t in ((1, 1), (3, 4)):
            argv = ["spanner", "-i", str(gpath), "--algo", algo, "--k", str(k), "--t", str(t), *flags]
            code = main([*argv, "--json", "-"])
            out, err = capsys.readouterr()
            rejected = ("--simulate" in flags and algo != "bs") or (algo == "ldc" and not uniform)
            assert code == (2 if rejected else 0), (argv, err)
            if rejected:
                assert err.startswith("error: ") and not out
                continue
            report = json.loads(out)
            assert (report["n"], report["m"]) == (graph.n, graph.m) and report["edges"] <= graph.m
            if "--simulate" in flags:
                assert report["distributed_matches"]
