from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from sparsekit.baswana_sen import spanner
from sparsekit.cli import ALGOS, main, parse_bench_config, run_bench
from sparsekit.graph import EdgeSet, Graph

from conftest import SUBPROCESS_ENV

REPO = Path(__file__).resolve().parent.parent


def cli(*args: str, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "sparsekit.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd or REPO,
        env=SUBPROCESS_ENV,
        timeout=120,
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


def test_spanner_cmd_at_huge_k(tmp_path, capsys):
    # At k = 10^8 the sampling probability rounds to 1: the seeded and the
    # derandomized run skip their sampled iterations, which would change
    # nothing, and return spanner(g, 1) at once.
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    gpath, espath = tmp_path / "c4.txt", tmp_path / "es.txt"
    g.write(gpath)
    for algo in ("bs", "bs-det"):
        t0 = time.perf_counter()
        argv = ["spanner", "-i", str(gpath), "--algo", algo, "--k", "100000000", "-o", str(espath), "--json", "-"]
        assert main(argv) == 0
        assert time.perf_counter() - t0 < 1, algo
        assert EdgeSet.read(g, espath).ids == spanner(g, 1).ids, algo
    assert capsys.readouterr().err == ""


def test_spanner_simulate_at_large_k(tmp_path, capsys):
    # The simulation's round cap is the program's own bound: k - 1 rounds,
    # or none where p = 1 and no sampled iteration runs.
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    gpath = tmp_path / "c4.txt"
    g.write(gpath)
    for k, rounds in (("50", 49), ("100000000", 0)):
        t0 = time.perf_counter()
        assert main(["spanner", "-i", str(gpath), "--algo", "bs", "--k", k, "--simulate", "--json", "-"]) == 0
        assert time.perf_counter() - t0 < 1, k
        report = json.loads(capsys.readouterr().out)
        assert report["distributed_matches"] and report["rounds"] == rounds


def test_certificate_large_variant_at_k2(tmp_path, capsys):
    # One part builds a k-certificate, which meets the n*k*(1+eps) cap.
    gpath = tmp_path / "g.txt"
    assert main(["generate", "--kind", "gnp", "--n", "30", "--p", "0.3", "--seed", "1", "-o", str(gpath)]) == 0
    assert main(["certificate", "-i", str(gpath), "--variant", "large", "--k", "2", "--verify", "--json", "-"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verify_ok"] and report["edges"] <= report["edge_cap"]


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spanner", "--algo", "bs", "--seed", str(2**127)], "seed must be an int with "),
        (["certificate", "--variant", "large", "--k", "2", "--seed", str(2**127)], "seed must be an int with "),
        (["spanner", "--algo", "bs", "--simulate", "--max-rounds", "-1"], "max_rounds must be an int with 0 <= "),
    ],
)
def test_out_of_range_parameter_exits_2_with_one_line(tmp_path, capsys, argv, message):
    gpath = tmp_path / "g.txt"
    Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], weighted=False).write(gpath)
    assert main([argv[0], "-i", str(gpath), *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: " + message) and err.count("\n") == 1 and not out


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


@pytest.mark.parametrize(
    "line, key",
    [("ns=abc", "ns"), ("p=x", "p"), ("seeds=", "seeds"), ("seed=7", "seed"), ("weighted=yes", "weighted"),
     ("ks=3", "ks")],
)
def test_malformed_bench_config_exits_2(tmp_path, capsys, line, key):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(f"algos=bs\nks=2\n{line}\n")
    assert main(["bench", "--config", str(cfg), "--csv", str(tmp_path / "out.csv")]) == 2
    assert f" {key}=" in capsys.readouterr().err



@pytest.mark.parametrize(
    "argv",
    [["spanner", "--algo", "bs", "-i"], ["certificate", "--k", "2", "-i"], ["bench", "--csv", "out.csv", "--config"]],
    ids=["spanner", "certificate", "bench"],
)
def test_undecodable_input_file_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "latin1.txt"
    path.write_bytes("3 1 unweighted\n0 1\n# na\xefve\n".encode("latin-1"))
    assert main([*argv, str(path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1 and "UTF-8" in err and not out


@pytest.mark.parametrize(
    "argv", [["spanner", "--algo", "ultra", "--verify"], ["certificate", "--k", "2"]], ids=["spanner", "certificate"]
)
def test_dash_output_is_stdout(tmp_path, monkeypatch, capsys, argv):
    # The edge list comes first and the JSON report last, as with any other path.
    monkeypatch.chdir(tmp_path)
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)], weighted=False)
    g.write("g.txt")
    assert main([*argv, "-i", "g.txt", "-o", "-", "--json", "-"]) == 0
    *edge_lines, last = capsys.readouterr().out.splitlines()
    ids = [int(x) for x in edge_lines]
    assert ids == sorted(ids) and len(ids) == json.loads(last)["edges"] > 0
    assert not (tmp_path / "-").exists()


def test_run_bench_measures_stretch_once_per_row_and_seed(monkeypatch):
    # The benchmark times cli.measure_stretch as the bench table's only oracle.
    import sparsekit.cli as cli_module

    calls = []
    measure = cli_module.measure_stretch
    monkeypatch.setattr(cli_module, "measure_stretch", lambda *a: calls.append(a) or measure(*a))
    table = run_bench(parse_bench_config("algos=bs,linear,ultra,ldc\nns=16,20\nks=2,3\nts=4\nseeds=1,2,3\n"))
    rows = table.strip().splitlines()[1:]
    assert len(rows) == 2 * (2 + 1 + 1 + 1) and all(row.endswith(",1") for row in rows)
    assert len(calls) == len(rows) * 3


@pytest.mark.parametrize("variant", ["small", "large"])
@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_certificate_non_finite_eps_exits_2(tmp_path, capsys, variant, eps):
    gpath = tmp_path / "g.txt"
    Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], weighted=False).write(gpath)
    assert main(["certificate", "-i", str(gpath), "--k", "2", "--eps", eps, "--variant", variant]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: eps must be a rational with 0 < eps") and err.endswith(f", got {eps}\n")


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


# The --json reports of `spanner --verify` and `certificate --verify` on one
# fixed graph, pinned so that no change to the CLI's plumbing changes a report:
# gnp(48, 0.5, seed 3), weighted except for ldc (which needs uniform weights)
# and the certificates; k = 3, t = 4, seed 1.
PINNED_REPORTS = {
    "bs": {"algo": "bs", "distributed_matches": True, "edges": 365, "m": 618, "measured_stretch": "29/26",
           "message_bits": 8, "n": 48, "rounds": 2, "stretch_bound": "5", "stretch_ok": True, "worst_edge": 314},
    "bs-det": {"algo": "bs-det", "edges": 618, "m": 618, "measured_stretch": "1", "n": 48, "stretch_bound": "5",
               "stretch_ok": True, "worst_edge": 3},
    "linear": {"algo": "linear", "edges": 618, "m": 618, "measured_stretch": "1", "n": 48, "worst_edge": 3},
    "linear-det": {"algo": "linear-det", "edges": 618, "m": 618, "measured_stretch": "1", "n": 48, "worst_edge": 3},
    "ultra": {"algo": "ultra", "edges": 57, "m": 618, "measured_stretch": "25/7", "n": 48, "worst_edge": 469},
    "ldc": {"algo": "ldc", "edges": 47, "m": 574, "measured_stretch": "4", "n": 48, "stretch_bound": "1041",
            "stretch_ok": True, "worst_edge": 40},
    "small": {"edge_cap": 120, "edges": 100, "eps": 0.25, "k": 2, "m": 574, "n": 48, "variant": "small",
              "verify_detail": {"lambda_g": "17", "lambda_h": "2"}, "verify_mode": "mincut", "verify_ok": True},
    "large": {"edge_cap": 120, "edges": 93, "eps": 0.25, "k": 2, "m": 574, "n": 48, "variant": "large",
              "verify_detail": {"lambda_g": "17", "lambda_h": "2"}, "verify_mode": "mincut", "verify_ok": True},
}


@pytest.mark.parametrize("name", [*ALGOS, "small", "large"])
def test_verify_report_is_pinned(tmp_path, capsys, name):
    gpath = tmp_path / "g.txt"
    weighted = ["--weighted"] if name in ALGOS and name != "ldc" else []
    assert main(["generate", "--kind", "gnp", "--n", "48", "--p", "0.5", "--seed", "3", "-o", str(gpath), *weighted]) == 0
    if name in ALGOS:
        argv = ["spanner", "--algo", name, "--k", "3", "--t", "4", *(["--simulate"] if name == "bs" else [])]
    else:
        argv = ["certificate", "--variant", name, "--k", "2"]
    assert main([*argv, "-i", str(gpath), "--seed", "1", "--verify", "--json", "-"]) == 0
    assert json.loads(capsys.readouterr().out) == PINNED_REPORTS[name]
