import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from ybx import cli, invariants
from ybx.core import RMap, rmap_to_dict
from ybx.fixtures import SOL_SWAP2, SOL_Z2
from ybx.invariants import Discrepancy
from ybx.monoid import GrowthReport


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    # the child imports ybx from this checkout, installed or not
    full_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, full_env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "ybx.cli", *args],
                          capture_output=True, text=True, env=full_env)


def write_solution(tmp_path, s, name="sol.json"):
    path = tmp_path / name
    path.write_text(json.dumps(rmap_to_dict(RMap(s.n, s.lam, s.rho))))
    return str(path)


def test_verify_valid(tmp_path):
    r = run_cli("verify", write_solution(tmp_path, SOL_Z2))
    assert r.returncode == 0
    assert json.loads(r.stdout)["ok"]


def test_verify_invalid(tmp_path):
    data = rmap_to_dict(RMap(SOL_SWAP2.n, SOL_SWAP2.lam, SOL_SWAP2.rho))
    data["rho"] = [[1 - y for y in range(2)] for _ in range(2)]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    r = run_cli("verify", str(path))
    assert r.returncode == 1
    report = json.loads(r.stdout)
    assert not report["idempotent"]
    assert report["first_counterexample"] is not None


def test_verify_missing_file():
    r = run_cli("verify", "/nonexistent/nowhere.json")
    assert r.returncode == 2


@pytest.mark.parametrize("data", [
    {"n": 2, "lambda": [[False, True], [False, True]]},
    {"n": True, "lambda": [[0]]},
], ids=["entries", "n"])
def test_verify_rejects_bool_points(tmp_path, data):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(data))
    r = run_cli("verify", str(path))
    assert r.returncode == 2
    assert "error" in json.loads(r.stderr)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("argv", [
    ("verify", "FILE"),
    ("analyze", "FILE"),
    ("groebner", "FILE"),
    ("construct", "--type", "descriptor", "--params", "FILE"),
], ids=["verify", "analyze", "groebner", "construct-descriptor"])
def test_point_count_must_be_positive(tmp_path, capsys, argv, n):
    data = ({"n": n, "op": [], "q": [], "phi": []} if "construct" in argv
            else {"n": n, "lambda": []})
    path = tmp_path / "n.json"
    path.write_text(json.dumps(data))
    code = cli.main([str(path) if a == "FILE" else a for a in argv])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "n must be a positive integer"}


def test_verify_parse_error(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{ not json")
    r = run_cli("verify", str(path))
    assert r.returncode == 2


def test_analyze_swap2(tmp_path):
    r = run_cli("analyze", write_solution(tmp_path, SOL_SWAP2))
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["diagonal"] == [0, 1] and rep["d"] == 2
    assert rep["semigroup"]["op"] == [[0, 1], [0, 1]]
    assert rep["algebra"]["right_noetherian"]["value"] is False
    assert rep["cancellative"]["value"] is False
    assert rep["discrepancies"] == []


def test_analyze_z2(tmp_path):
    r = run_cli("analyze", write_solution(tmp_path, SOL_Z2), "--center", "2")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["diagonal"] == [0]
    assert rep["cancellative"]["value"] is True
    assert rep["center"]["dimension"] > 0
    assert rep["latin"] is True


def test_analyze_invalid(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "lambda": [[1, 0], [1, 0]],
                                "rho": [[1, 1], [1, 1]]}))
    r = run_cli("analyze", str(path))
    assert r.returncode == 1


def test_enumerate_n2():
    r = run_cli("enumerate", "-n", "2")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert len(lines) == 5
    summary = json.loads(lines[-1])
    assert summary["count"] == 4
    assert summary["by_diagonal_size"] == {"1": 1, "2": 2}


def test_enumerate_up_to_iso():
    r = run_cli("enumerate", "-n", "2", "--up-to-iso")
    lines = r.stdout.strip().splitlines()
    assert len(lines) == 4
    assert json.loads(lines[-1])["count"] == 3


def test_enumerate_n1():
    r = run_cli("enumerate", "-n", "1")
    lines = r.stdout.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0]) == {"n": 1, "lambda": [[0]], "rho": [[0]]}


def test_enumerate_deterministic_across_jobs():
    r1 = run_cli("enumerate", "-n", "3", "--jobs", "1")
    r2 = run_cli("enumerate", "-n", "3", "--jobs", "3")
    assert r1.stdout == r2.stdout
    assert r1.returncode == r2.returncode == 0


def test_enumerate_budget_exceeded():
    r = run_cli("enumerate", "-n", "4", "--budget", "0")
    assert r.returncode == 4
    summary = json.loads(r.stdout.strip().splitlines()[-1])
    assert summary["incomplete"] is True


def test_enumerate_budget_env():
    r = run_cli("enumerate", "-n", "4", env={"YBX_BUDGET_SECS": "0"})
    assert r.returncode == 4


@pytest.mark.parametrize("argv, digest", [
    (("-n", "4"),
     "f22f3c23965d9d312185c26acd78633ad9465523d6b5df467a45fd67ccdc4b21"),
    (("-n", "5"),
     "38b5fed2a50d8f3cd47be2d705686021180d0e91506db0085d5357648537b674"),
    (("-n", "5", "--up-to-iso"),
     "b49eb54f5db02891a47d269ee7ee1b02ea0073e12c37d553fa2859a06f40959d"),
], ids=["n4", "n5", "n5-iso"])
def test_enumerate_stdout_pinned(argv, digest):
    # digests of the stdout of a row search that composed permutation
    # tuples directly, independent of the id tables and bitmasks
    r = run_cli("enumerate", *argv)
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


def test_enumerate_n6_stdout_pinned(capsys):
    # digest of the stdout of the code that printed each table through
    # _emit(rmap_to_dict(s)); in-process, as the run takes about a second
    assert cli.main(["enumerate", "-n", "6"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
        "4f5c71aa37bfd83cad6af1b61c63bf985551af646002000d861a007e83ffa605"


def test_enumerate_budget_env_not_a_number():
    r = run_cli("enumerate", "-n", "2", env={"YBX_BUDGET_SECS": "abc"})
    assert r.returncode == 2
    assert "error" in json.loads(r.stderr)


@pytest.mark.parametrize("argv, env", [
    (("--budget", "-1"), None),
    (("--budget", "nan"), None),
    ((), "nan"),
], ids=["negative", "nan", "env-nan"])
def test_enumerate_budget_must_be_a_nonnegative_number(monkeypatch, capsys,
                                                       argv, env):
    monkeypatch.delenv("YBX_BUDGET_SECS", raising=False)
    if env is not None:
        monkeypatch.setenv("YBX_BUDGET_SECS", env)
    assert cli.main(["enumerate", "-n", "2", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "budget" in json.loads(err)["error"]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_enumerate_jobs_must_be_positive(jobs):
    r = run_cli("enumerate", "-n", "2", "--jobs", jobs)
    assert r.returncode == 2
    assert "error" in json.loads(r.stderr)


def test_enumerate_size_refusal():
    r = run_cli("enumerate", "-n", "8")
    assert r.returncode == 2


def test_construct_perm_round_trip(tmp_path):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"images": [1, 0]}))
    r = run_cli("construct", "--type", "perm", "--params", str(params))
    assert r.returncode == 0
    out = tmp_path / "sol.json"
    out.write_text(r.stdout)
    assert json.loads(r.stdout)["lambda"] == [[1, 0], [1, 0]]
    assert run_cli("verify", str(out)).returncode == 0


def test_construct_group_aut(tmp_path):
    params = tmp_path / "p.json"
    params.write_text(json.dumps(
        {"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "phi": [0, 2, 1]}))
    r = run_cli("construct", "--type", "group-aut", "--params", str(params))
    assert r.returncode == 0
    out = tmp_path / "sol.json"
    out.write_text(r.stdout)
    assert run_cli("verify", str(out)).returncode == 0


@pytest.mark.parametrize("table, phi", [
    ([[0, 1, 2], [1, 2, 0], [2, 0, 1]], [0]),
    ([[0, 1], [1, 0]], [0, 1, 2]),
], ids=["short", "long"])
def test_construct_group_aut_phi_length(tmp_path, table, phi):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"table": table, "phi": phi}))
    r = run_cli("construct", "--type", "group-aut", "--params", str(params))
    assert r.returncode == 2
    assert r.stdout == ""
    assert json.loads(r.stderr) == {
        "error": "phi must be a permutation of the group"}


def test_construct_bad_params(tmp_path):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"table": [[0, 1], [1, 0]], "phi": [1, 0]}))
    r = run_cli("construct", "--type", "group-aut", "--params", str(params))
    assert r.returncode == 2


REES_PARAMS = {"group": [[0]], "ncols": 4, "A": [0, 1],
               "t": {"2": 0, "3": 1}, "f": [0], "psi": [0, 1, 2, 3]}

# phi = (0, 0, 2) for every x: one map, not a bijection, so fineq1 fails
# at (0, 2, 2) and the all-phi automorphism condition at (2, 2)
FINEQ_FAILING = {"n": 3, "op": [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
                 "q": [0, 0, 0], "phi": [[0, 0, 2]] * 3}


def test_construct_rees_example_discrepancy(tmp_path):
    params = tmp_path / "p.json"
    params.write_text(json.dumps(REES_PARAMS))
    r = run_cli("construct", "--type", "rees-example", "--params", str(params))
    assert r.returncode == 3
    out = json.loads(r.stdout)
    assert out["fineq"]["ok"] is True
    assert out["verification"]["ok"] is False


@pytest.mark.parametrize("kind, params, code, digest", [
    ("descriptor",
     {"n": 2, "op": [[0, 1], [1, 0]], "q": [0, 0], "phi": [[0, 1], [0, 1]]},
     0, "dac77fc191852a5df81bf7dffcfddfd8bf85ef2867378171ca2da2c19c112fd6"),
    ("descriptor",
     {"n": 2, "op": [[0, 1], [0, 1]], "q": [1, 0], "phi": [[1, 0], [1, 0]]},
     0, "347e560a339a38a2e85282a67b8031f2092b5d92c2cc1303eb03b0fe0f11a887"),
    ("descriptor", FINEQ_FAILING,
     1, "09f1b8bf56ead30742bc8c048ac3455364ba76bf4d8e371f0d0182e2735adeb4"),
    ("descriptor",
     {"n": 3, "op": [[2, 0, 1]] * 3, "q": [1, 0, 2],
      "phi": [[0, 1, 2], [0, 2, 1], [0, 2, 1]]},
     1, "c0eb874a37b22d1108e59870873ae2313b74f2a25bdd5292fb2614da4d2d83f6"),
    ("rees-example", REES_PARAMS,
     3, "b471bae58d5ed15b15f02c24a1b36c5ad35932999a938d90c76acebffcabd913"),
    ("group-aut",
     {"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "phi": [0, 2, 1]},
     0, "cc1f3894232241d649c35e90cc5cc96acb7a8b683e6ec14987e50c6c90b07e90"),
], ids=["descriptor-z2", "descriptor-swap2", "descriptor-fineq-fails",
        "descriptor-repeated-rows", "rees-example", "group-aut-z3"])
def test_construct_stdout_pinned(tmp_path, kind, params, code, digest):
    # the first two descriptors are those of SOL_Z2 and SOL_SWAP2; digests
    # of the stdout of the code that rebuilt the semigroup rows per
    # section, for descriptor-fineq-fails of hand-written JSON methods on
    # each report type, and for descriptor-repeated-rows (three equal op
    # rows, fineq1 failing first at x = 1, whose phi differs from x = 0's)
    # of the scans that ran every row
    path = tmp_path / "p.json"
    path.write_text(json.dumps(params))
    r = run_cli("construct", "--type", kind, "--params", str(path))
    assert r.returncode == code
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


def test_construct_descriptor(tmp_path):
    from ybx.invariants import descriptor
    params = tmp_path / "p.json"
    params.write_text(json.dumps(asdict(descriptor(SOL_Z2))))
    r = run_cli("construct", "--type", "descriptor", "--params", str(params))
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["verification"]["ok"] and out["fineq"]["ok"]
    assert out["candidate"]["lambda"] == [[0, 1], [1, 0]]


def test_groebner_constant():
    r = run_cli("groebner", "--constant-lambda", "3", "--max-deg", "4")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["confluent"] and out["normal_word_counts"] == [3, 3, 3, 3]


def test_groebner_constant_n1():
    r = run_cli("groebner", "--constant-lambda", "1")
    out = json.loads(r.stdout)
    assert out["system"]["rules"] == []


def test_groebner_solution(tmp_path):
    r = run_cli("groebner", write_solution(tmp_path, SOL_Z2), "--max-deg", "5")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["completion"]["confluent"]
    assert out["counts_match_growth"] is True
    assert out["normal_word_counts"] == [2, 2, 2, 2, 2]


@pytest.mark.parametrize("pretty, digest", [
    (False, "1775be8b6652ac49aefbf6ec391a169dca1925d347a932106e438540ef831057"),
    (True, "b3d1c15820988da49b846584733718980fb41303e4bb974f42f2ccdb7d977846"),
], ids=["compact", "pretty"])
def test_emit_non_confluent_completion_pinned(capsys, pretty, digest):
    # no census solution with n <= 5 is non-confluent, so the report is
    # built by hand; digests of hand-written per-report JSON methods
    from ybx.groebner import CompletionReport, RewriteSystem, Rule, check_overlaps
    rs = RewriteSystem(3, (Rule((1, 1), (0, 0)), Rule((2, 1), (1, 0))))
    unresolved = tuple(check_overlaps(rs))
    assert len(unresolved) == 2
    report = CompletionReport(False, unresolved, 2, "not quadratically confluent")
    cli._emit({"system": rs.to_json(), "completion": report}, pretty)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_output_determinism(tmp_path):
    path = write_solution(tmp_path, SOL_SWAP2)
    a = run_cli("analyze", path)
    b = run_cli("analyze", path)
    assert a.stdout == b.stdout


def _family_rows(family, n):
    """Z_n with x -> -x, or constant rows of the n-cycle or the identity."""
    if family == "zn-neg":
        return [tuple((x - y) % n for y in range(n)) for x in range(n)]
    if family == "cycle":
        return [tuple((y + 1) % n for y in range(n))] * n
    return [tuple(range(n))] * n


@pytest.mark.parametrize("family, command, digest", [
    ("zn-neg", "analyze",
     "d5bd31df9a2c3870016c6e6b0090fca3e6b37dbfd952f58cda65bc5e41d0b340"),
    ("zn-neg", "groebner",
     "046f00d278165c72cecd490463822248eb0f4c84721b3df2ea55674c171525fe"),
    ("cycle", "analyze",
     "4c05d434bd730ddfec6acbc263b71dfe370c3de0b49dd3f65c820cffe8b62f17"),
    ("cycle", "groebner",
     "53ea097d364985b94900478f7103e47c47538ffc782d8195339f15e0e271fc7b"),
    ("identity", "analyze",
     "d888e986c84cae2b2eb067f6343a1631c586631ec592f8dcc842042c8ac2aa4c"),
    ("identity", "groebner",
     "53ea097d364985b94900478f7103e47c47538ffc782d8195339f15e0e271fc7b"),
], ids=["zn-neg-analyze", "zn-neg-groebner", "cycle-analyze",
        "cycle-groebner", "identity-analyze", "identity-groebner"])
def test_structure_stdout_pinned(tmp_path, family, command, digest):
    # digests of the stdout at n = 16 of the all-words growth oracle, the
    # per-call rule map and the all-pairs overlap scan
    from ybx.core import dump_solution, solution_from_lambda
    path = str(tmp_path / f"{family}.json")
    dump_solution(solution_from_lambda(_family_rows(family, 16)), path)
    extra = ("--max-deg", "3") if command == "groebner" else ()
    r = run_cli(command, path, *extra)
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("family, command, digest", [
    ("zn-neg", "groebner",
     "5935a24c38075bd88ad034a4e1e35fc0fe066242f123129f5c2f0ed6bab6460d"),
    ("zn-neg", "analyze",
     "c27f39427642950c394267b3c73152344e643f2df8fd22d122de01ef4aea0919"),
    ("cycle", "groebner",
     "8cdf59c50391bfa0a1b9a2aed99b541d9fedd66a2701aa7db9606ecc9da5e07f"),
    ("cycle", "analyze",
     "0359bb201c5e774d5976b40d9aecaec59330ee849fe24c301136c9c7b8705a47"),
    ("identity", "groebner",
     "8cdf59c50391bfa0a1b9a2aed99b541d9fedd66a2701aa7db9606ecc9da5e07f"),
    ("identity", "analyze",
     "0f58e102d8e9a6d3a5c26cdf7becbfe16551f66d309a432ae833215663d3117b"),
], ids=["zn-neg-groebner", "zn-neg-analyze", "cycle-groebner",
        "cycle-analyze", "identity-groebner", "identity-analyze"])
def test_structure_stdout_pinned_at_longer_words(tmp_path, family, command,
                                                 digest):
    # digests at n = 16 of groebner at its default --max-deg 8 and of
    # analyze --max-len 8, from the growth oracle that built a class table
    # for every length
    from ybx.core import dump_solution, solution_from_lambda
    path = str(tmp_path / f"{family}.json")
    dump_solution(solution_from_lambda(_family_rows(family, 16)), path)
    extra = ("--max-len", "8") if command == "analyze" else ()
    r = run_cli(command, path, *extra)
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("family, command, digest", [
    ("zn-neg", "analyze",
     "3cbf301c595a27e22542e5b42119fb11399a90ec8359b3fc11c3484080e5b077"),
    ("zn-neg", "groebner",
     "b421664f01fd2504d7c8845d2e2ab4eb85f690df84ba7161e208bed35abf8b87"),
    ("cycle", "analyze",
     "ae1d799d78cf31beddda539938391d833a3c06130a2a1ee0d735a185f7bf2fac"),
    ("cycle", "groebner",
     "6db5fab0865725b55dd98288905b30a3dfb2a70f1a91d6190db66c436eb18ac9"),
    ("identity", "analyze",
     "80c742069187f9a5888f8429cfdaaee5e8cf85baa1f51cbf75ea67d2c6f045ec"),
    ("identity", "groebner",
     "6db5fab0865725b55dd98288905b30a3dfb2a70f1a91d6190db66c436eb18ac9"),
], ids=["zn-neg-analyze", "zn-neg-groebner", "cycle-analyze",
        "cycle-groebner", "identity-analyze", "identity-groebner"])
def test_structure_stdout_pinned_n8(tmp_path, family, command, digest):
    # digests of the stdout at n = 8 of the point-by-point scans
    from ybx.core import dump_solution, solution_from_lambda
    path = str(tmp_path / f"{family}.json")
    dump_solution(solution_from_lambda(_family_rows(family, 8)), path)
    extra = ("--max-deg", "3") if command == "groebner" else ()
    r = run_cli(command, path, *extra)
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("family, command, digest", [
    ("zn-neg", "analyze",
     "7bd6dd0c3e6e676d06dab39ed3235c5bdf633b42a4cfab33d8c3a9153b9a26d2"),
    ("zn-neg", "groebner",
     "2387270954f8d75a9e1137e8a598f7c0fcc301e0003c64c38c3a54ccc2a6be4a"),
    ("cycle", "analyze",
     "84f86a77f024c57cb17e6cdfd6277f923060347163b78dbaea9f5727313ade34"),
    ("cycle", "groebner",
     "c32f79beaa68bc60f1d5b95a9a303fd6c64a16b0f5524160dc4a67847b21d571"),
    ("identity", "analyze",
     "bebeb131a1c850604abf990e211b16d4dee03d70cba1eaaeba3330b7d8e5175e"),
    ("identity", "groebner",
     "c32f79beaa68bc60f1d5b95a9a303fd6c64a16b0f5524160dc4a67847b21d571"),
    ("census4-diagonal-2", "analyze",
     "0e64e3ed6cf53bdb4ee2b191cf428570c425b74cf2653be7b6f1dde18b1ac6e4"),
], ids=["zn-neg-analyze", "zn-neg-groebner", "cycle-analyze",
        "cycle-groebner", "identity-analyze", "identity-groebner",
        "census4-diagonal-2-analyze"])
def test_structure_stdout_pinned_n24(tmp_path, family, command, digest):
    # digests of the stdout at n = 24, and of a class of the n = 4 census
    # with two diagonal points, whose semigroup table repeats each row on
    # points with different phi, from the scans that ran every row
    from ybx.core import dump_solution, solution_from_lambda
    rows = ([(1, 2, 3, 0), (1, 2, 3, 0), (3, 0, 1, 2), (3, 0, 1, 2)]
            if family == "census4-diagonal-2" else _family_rows(family, 24))
    path = str(tmp_path / f"{family}.json")
    dump_solution(solution_from_lambda(rows), path)
    extra = ("--max-deg", "3") if command == "groebner" else ()
    r = run_cli(command, path, *extra)
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("flag", ["--center", "--max-len"])
def test_analyze_large_bounds_read_one_period(tmp_path, monkeypatch, capsys,
                                              flag):
    # the word levels of Z_8 with x -> -x repeat with period 2 from length
    # 1, so a bound of 20000 reads the levels stored for lengths 0..2, and
    # the center at degree 20000, or at d = 8, is that of degree 2
    from ybx.core import dump_solution, solution_from_lambda, word_levels
    path = str(tmp_path / "zn-neg.json")
    dump_solution(solution_from_lambda(_family_rows("zn-neg", 8)), path)
    assert cli.main(["analyze", path, "--center", "2"]) == 0
    basis = json.loads(capsys.readouterr().out)["center"]["basis"]
    promoted, promote = [], cli.promote
    monkeypatch.setattr(cli, "promote",
                        lambda m: promoted.append(promote(m)) or promoted[-1])
    assert cli.main(["analyze", path, flag, "20000"]) == 0
    assert json.loads(capsys.readouterr().out)["center"]["basis"] == basis
    (s,) = promoted
    assert len(word_levels(s)[0]) <= 3


# One table per identity, named by the first counterexample verify
# reports: ybe1 at the last point (2, 2, 2) with every check failing,
# ybe2 at (2, 0, 1) before ybe3 fails, ybe3 at (2, 0, 0), a
# non-bijective lam_1 and a non-idempotent pair (1, 0).
FAILING_TABLES = {
    "ybe1": ([[0, 1, 2], [0, 1, 0], [0, 1, 2]],
             [[0, 0, 2], [1, 1, 1], [0, 0, 1]],
             "1a551df5eb42e993e5c925b49d6558d3ecf205b37c8496cff4271285273a0f37"),
    "ybe2": ([[0, 1, 2], [0, 1, 2], [2, 2, 2]],
             [[1, 0, 1], [0, 0, 1], [1, 1, 2]],
             "7cb2deb61530f80070972b5559d84cd77ebbc8b65bfddd010a47571208b5604f"),
    "ybe3": ([[1, 1, 1], [0, 1, 2], [0, 1, 2]],
             [[0, 0, 0], [1, 1, 1], [2, 1, 2]],
             "e225b142f0d002cf55f43f17e8eee787d6d5529d54ae87867c795eb5c2eefe62"),
    "left_nondegenerate": (
        [[0, 1, 2], [0, 0, 2], [0, 1, 2]],
        [[0, 0, 0], [1, 1, 1], [0, 0, 2]],
        "f6c0e6f9ccdb5a75be350ae0b8396a692c666f85f6bc96a010286498e253f2f2"),
    "idempotent": ([[0, 1, 2], [0, 2, 1], [0, 1, 2]],
                   [[0, 2, 2], [1, 2, 2], [2, 2, 2]],
                   "fba273539fb1518f5a02aaf8fc660111c947e822c94e3ae4e60b7dbe1a48d2bb"),
}


@pytest.mark.parametrize("name", list(FAILING_TABLES))
def test_verify_failing_stdout_pinned(tmp_path, name):
    lam, rho, digest = FAILING_TABLES[name]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "lambda": lam, "rho": rho}))
    r = run_cli("verify", str(path))
    assert r.returncode == 1
    assert json.loads(r.stdout)["first_counterexample"][0] == name
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, code, digest", [
    (("analyze", "SOL"), 0,
     "4bcb15905e5b4d41d7fc198e7957d8ce4dfb4fc64b0188e5f42c32e4145c04ec"),
    (("groebner", "SOL", "--max-deg", "3"), 0,
     "740295ede1c6c604bcbf1350b8f6916fd6f02b817eb106938315466e79a90eab"),
    (("verify", "BAD"), 1,
     "a4e2fcb7471cfd5aae0e12c533b446031746f71f8bb35815a9a949ea0240a57f"),
    (("construct", "--type", "descriptor", "--params", "DSC"), 1,
     "22cc9df050c63f88e003307e23aac6a7809dd93d84ced3a29543ae500b11963d"),
], ids=["analyze", "groebner", "verify-ybe2", "descriptor-fineq-fails"])
def test_pretty_stdout_pinned(tmp_path, argv, code, digest):
    # SOL is Z_8 with x -> -x, BAD the ybe2 table of FAILING_TABLES and
    # DSC the descriptor FINEQ_FAILING; digests of hand-written JSON
    # methods on each report type
    from ybx.core import dump_solution, solution_from_lambda
    files = {name: str(tmp_path / f"{name}.json") for name in ("SOL", "BAD", "DSC")}
    dump_solution(solution_from_lambda(_family_rows("zn-neg", 8)), files["SOL"])
    lam, rho, _ = FAILING_TABLES["ybe2"]
    Path(files["BAD"]).write_text(json.dumps({"n": 3, "lambda": lam, "rho": rho}))
    Path(files["DSC"]).write_text(json.dumps(FINEQ_FAILING))
    r = run_cli(*(files.get(a, a) for a in argv), "--pretty")
    assert r.returncode == code
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


def test_groebner_constant_stdout_pinned():
    r = run_cli("groebner", "--constant-lambda", "32")
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == \
        "f5f4e220d3ca98e7e21957fe683b061f1360a80c42769872f5159891fdb0fa80"


@pytest.mark.parametrize("argv", [
    ("groebner", "--constant-lambda", "0"),
    ("groebner", "--constant-lambda", "-3"),
    ("groebner", "FILE", "--max-deg", "0"),
    ("analyze", "FILE", "--center", "0"),
    ("analyze", "FILE", "--max-len", "0"),
    ("analyze", "FILE", "--max-len", "-1"),
], ids=["constant-lambda-0", "constant-lambda-neg", "max-deg-0", "center-0",
        "max-len-0", "max-len-neg"])
def test_numeric_options_must_be_positive(tmp_path, argv):
    path = write_solution(tmp_path, SOL_Z2)
    r = run_cli(*(path if a == "FILE" else a for a in argv))
    assert r.returncode == 2
    assert r.stdout == ""
    assert "error" in json.loads(r.stderr)


@pytest.mark.parametrize("data", [
    {"n": 2, "lambda": 5},
    {"n": 2, "lambda": [5, 6]},
    {"n": 2, "lambda": [[0, 1], [0, 1]], "rho": 5},
], ids=["lambda-int", "lambda-rows-int", "rho-int"])
def test_solution_rows_must_be_lists(tmp_path, data):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps(data))
    for command in ("verify", "analyze", "groebner"):
        r = run_cli(command, str(path))
        assert r.returncode == 2
        assert "error" in json.loads(r.stderr)


@pytest.mark.parametrize("kind, params, key", [
    ("perm", [1, 2], None),
    ("group-aut", [1, 2], None),
    ("rees-example", [1, 2], None),
    ("descriptor", [1, 2], None),
    ("perm", {"images": 5}, "images"),
    ("group-aut", {"table": 5, "phi": [0]}, "table"),
    ("group-aut", {"table": [[0, 1], [1]], "phi": [0, 1]}, "table"),
    ("group-aut", {"table": [[0, 7], [1, 0]], "phi": [0, 1]}, "table"),
    ("group-aut", {"table": [[True]], "phi": [0]}, "table"),
    ("rees-example", dict(REES_PARAMS, group=[[0, 1], [1]]), "group"),
    ("rees-example", dict(REES_PARAMS, group=[[0, 5], [1, 0]]), "group"),
    ("rees-example", dict(REES_PARAMS, t=[0]), "t"),
    ("descriptor", {"n": True, "op": [[0]], "q": [0], "phi": [[0]]}, "n"),
    ("descriptor", {"n": 2, "op": [[0, 1], [1, 0]], "q": [True, True],
                    "phi": [[0, 1], [0, 1]]}, "q"),
    ("perm", {"images": [True, False]}, "images"),
    ("group-aut", {"table": [[0, 1], [1, 0]], "phi": [False, True]}, "phi"),
    ("rees-example", dict(REES_PARAMS, A=[False, True]), "A"),
    ("rees-example", dict(REES_PARAMS, t={"2": False, "3": True}), "t"),
    ("rees-example", dict(REES_PARAMS, f=[False]), "f"),
    ("rees-example", dict(REES_PARAMS, psi=[False, True, 2, 3]), "psi"),
    ("perm", {"images": [0, 0]}, "images"),
    ("rees-example", dict(REES_PARAMS, A=[0, 7]), "A"),
    ("rees-example", dict(REES_PARAMS, psi=[1, 0, 2, 3]), "A"),
    ("rees-example", dict(REES_PARAMS, ncols="4"), "ncols"),
    ("rees-example", dict(REES_PARAMS, t={"x": 0}), "t"),
    ("perm", {"image": [0, 1]}, "images"),
    ("perm", {"images": ["a", 0]}, "images"),
    ("rees-example", dict(REES_PARAMS, A=[0, 1.0]), "A"),
    ("rees-example", dict(REES_PARAMS, t={"02": 0, "3": 1}), "t"),
    ("rees-example", dict(REES_PARAMS, t={"\u0662": 0, "3": 1}), "t"),
    ("rees-example", dict(REES_PARAMS, t={"2": 0, "02": 0, "3": 1}), "t"),
], ids=["perm-list", "group-aut-list", "rees-list", "descriptor-list",
        "perm-int", "group-aut-int", "group-aut-ragged", "group-aut-range",
        "group-aut-bool", "rees-ragged", "rees-range", "rees-t-list",
        "descriptor-n-bool", "descriptor-q-bool", "perm-images-bool",
        "group-aut-phi-bool", "rees-a-bool", "rees-t-bool", "rees-f-bool",
        "rees-psi-bool", "perm-images-repeat", "rees-a-range",
        "rees-psi-moves-a", "rees-ncols-str", "rees-t-key-str",
        "perm-missing-key", "perm-images-str", "rees-a-float",
        "rees-t-key-zero-padded", "rees-t-key-arabic-indic",
        "rees-t-key-twice"])
def test_construct_params_malformed(tmp_path, kind, params, key):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(params))
    r = run_cli("construct", "--type", kind, "--params", str(path))
    assert r.returncode == 2
    error = json.loads(r.stderr)["error"]
    # where the message blames one value, it names the JSON key holding it
    if key is not None:
        assert re.search(rf"\b{key}\b", error), error


@pytest.mark.parametrize("argv", [
    ("groebner",),
    ("groebner", "FILE", "--constant-lambda", "2"),
    ("groebner", "missing.json", "--constant-lambda", "2"),
    ("analyze", "FILE", "--max-len", "abc"),
    ("enumerate", "-n", "x"),
    (),
], ids=["groebner-no-path", "groebner-path-and-constant",
        "groebner-missing-path-and-constant", "max-len-not-int", "n-not-int",
        "no-command"])
def test_usage_errors_are_json(tmp_path, argv):
    path = write_solution(tmp_path, SOL_Z2)
    r = run_cli(*(path if a == "FILE" else a for a in argv))
    assert r.returncode == 2
    assert r.stdout == ""
    assert list(json.loads(r.stderr)) == ["error"]


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",
    b"[" * 200000,
], ids=["undecodable", "too-deep"])
@pytest.mark.parametrize("argv", [
    ("verify", "FILE"),
    ("analyze", "FILE"),
    ("groebner", "FILE"),
    ("construct", "--type", "perm", "--params", "FILE"),
], ids=["verify", "analyze", "groebner", "construct"])
def test_unreadable_json_is_a_format_error(tmp_path, argv, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    r = run_cli(*(str(path) if a == "FILE" else a for a in argv))
    assert r.returncode == 2
    assert r.stdout == ""
    error = json.loads(r.stderr)
    assert list(error) == ["error"] and error["error"].startswith("invalid JSON")


_check_fineq = invariants.check_fineq


def _failing_fineq(dsc):
    return replace(_check_fineq(dsc), fineq1=False,
                   counterexamples=(("fineq1", (0, 1, 0)),))


def _fineq_without_allphi(dsc):
    return replace(_check_fineq(dsc), allphi=None)


def _fineq_phi_not_automorphism(dsc):
    report = _check_fineq(dsc)
    return replace(report, allphi=replace(report.allphi, automorphism=False))


_phi_maps = invariants.phi_maps
_semigroup = invariants.semigroup
_torsion = invariants.torsion


def _failing_phi_maps(s, sg):
    return _phi_maps(s, sg)[0], (Discrepancy("lambda-from-phi", (1, 0)),)


def _failing_semigroup(s):
    return replace(_semigroup(s), discrepancies=(
        Discrepancy("component-membership", (1, 0)),))


def _failing_torsion(s, sg, u):
    return replace(_torsion(s, sg, u), discrepancies=(
        Discrepancy("torsion-order-divides-exponent", (u, 1, 3)),))


@pytest.mark.parametrize("target, replacement, entry", [
    ("ybx.cli.is_latin", lambda s: False,
     {"claim": "latin-iff-singleton-diagonal", "counterexample": [],
      "context": []}),
    ("ybx.invariants.check_fineq", _failing_fineq,
     {"claim": "descriptor-identities",
      "counterexample": [["fineq1", [0, 1, 0]]], "context": []}),
    ("ybx.cli.is_cancellative", lambda s, max_len: (False, None),
     {"claim": "cancellative-iff-singleton-diagonal", "counterexample": [5],
      "context": []}),
    ("ybx.invariants.semigroup", _failing_semigroup,
     {"claim": "component-membership", "counterexample": [1, 0],
      "context": []}),
    ("ybx.invariants.phi_maps", _failing_phi_maps,
     {"claim": "lambda-from-phi", "counterexample": [1, 0], "context": []}),
    ("ybx.cli.center_basis", lambda s, deg: [],
     {"claim": "center-iff-singleton-diagonal", "counterexample": [2],
      "context": []}),
    ("ybx.invariants.check_fineq", _fineq_without_allphi,
     {"claim": "singleton-diagonal-phi-automorphism", "counterexample": [],
      "context": []}),
    ("ybx.invariants.check_fineq", _fineq_phi_not_automorphism,
     {"claim": "singleton-diagonal-phi-automorphism", "counterexample": [],
      "context": []}),
    ("ybx.cli.growth", lambda s, max_len: GrowthReport((2, 2), (2, 3)),
     {"claim": "growth-counts-disagree",
      "counterexample": [[2, 2], [2, 3]], "context": []}),
    ("ybx.cli.sigma_discrepancies",
     lambda s: (Discrepancy("derived-map-constant", (1, 0, 0)),),
     {"claim": "derived-map-constant", "counterexample": [1, 0, 0],
      "context": []}),
    ("ybx.invariants.torsion", _failing_torsion,
     {"claim": "torsion-order-divides-exponent", "counterexample": [0, 1, 3],
      "context": []}),
], ids=["latin", "fineq", "cancellative", "semigroup", "phi", "center",
        "allphi-missing", "allphi-not-automorphism", "growth", "sigma",
        "torsion-order"])
def test_analyze_discrepancy_exit(tmp_path, monkeypatch, capsys, target,
                                  replacement, entry):
    # SOL_Z2 satisfies every claim of analyze; a patched check reports
    # one violation, which must reach the report and exit 3
    path = write_solution(tmp_path, SOL_Z2)
    monkeypatch.setattr(target, replacement)
    assert cli.main(["analyze", path]) == 3
    assert json.loads(capsys.readouterr().out)["discrepancies"] == [entry]


def test_analyze_computes_each_section_once(tmp_path, monkeypatch, capsys):
    calls = dict.fromkeys(("semigroup", "check_fineq", "word_level"), 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(invariants, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(invariants, name, counted)
    # two diagonal points, so two torsion groups
    path = write_solution(tmp_path, SOL_SWAP2)
    assert cli.main(["analyze", path]) == 0
    capsys.readouterr()
    assert calls == {"semigroup": 1, "check_fineq": 1, "word_level": 1}


def test_parser_is_reused_without_leaks(tmp_path, capsys):
    # the parser is built once per process; each parse must still start
    # from the defaults, so a flag of one call never reaches the next
    path = write_solution(tmp_path, SOL_SWAP2)
    for argv in (["analyze", path, "--pretty"], ["analyze", path],
                 ["groebner"], ["groebner", path, "--max-deg", "3"]):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = run_cli(*argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert cli.build_parser() is cli.build_parser()
