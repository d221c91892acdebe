"""Tests for the command-line front end: dispatch, formats, exit codes."""
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from dataclasses import replace

import pytest

import tljhecke
import tljhecke.rep_genus2 as rep_genus2
from tljhecke.cli import main
from tljhecke.exactnum import cyc_from_json
from tljhecke.recoupling import TheoryParams, global_constants
from tljhecke.rep_genus1 import modular_data


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_dims_table(capsys):
    code, out = run(capsys, "dims", "--genus", "2", "--levels", "3,5,7,9,11,13")
    assert code == 0
    assert out.strip() == "5 14 30 55 91 140"


def test_dims_csv(capsys):
    code, out = run(capsys, "--format", "csv", "dims", "--levels", "2,3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("level")
    assert lines[1].startswith("2,10")


def test_verify_pass_exit_zero(capsys):
    code, out = run(capsys, "verify", "--genus", "2", "--level", "3")
    assert code == 0
    assert "pass" in out and "FAIL" not in out


def test_verify_reports_twist_convention(capsys):
    code, out = run(capsys, "verify", "--genus", "2", "--level", "2")
    assert code == 0
    assert "i(i+2)" in out


def test_verify_fail_exit_code(capsys, monkeypatch):
    # negative control: conjugating T breaks (TJ)^5 = (P+/P-)^2 I
    rep = rep_genus2.genus2_rep(TheoryParams(2))
    monkeypatch.setattr(rep_genus2, "genus2_rep",
                        lambda params: replace(rep, tdiag=rep.tdiag.conj()))
    code, out = run(capsys, "verify", "--genus", "2", "--level", "2")
    assert code == 3
    assert "FAIL" in out


def test_relation_checks_take_no_square_root(capsys):
    # relations and certificates stay inside Q(zeta_N): no module offers an
    # in-field square-root search, and the checks run, also at level 14
    # (phi(N) = 32), where such a search took about a minute
    for info in pkgutil.iter_modules(tljhecke.__path__):
        mod = importlib.import_module(f"tljhecke.{info.name}")
        assert not hasattr(mod, "sqrt_in_field"), info.name
    for memo in (global_constants, modular_data, rep_genus2.genus2_rep):
        memo.cache_clear()
    for r in range(1, 7):
        code, out = run(capsys, "verify", "--genus", "0", "--level", str(r))
        assert code == 0, out
    verdicts = [rep_genus2.infinite_image_certificate(TheoryParams(r)).verdict
                for r in (3, 4)]
    assert verdicts == ["infinite", "inconclusive"]
    code, out = run(capsys, "--format", "json", "modular-data", "--level", "14")
    assert code == 0
    assert len(json.loads(out)["t_diagonal"]) == 15


def test_verify_and_certify_do_not_import_numpy():
    # exact jobs never pay numpy's import (about 12 MB of RSS and 150 ms),
    # and json output builds no float text
    prog = ("import sys\n"
            "from tljhecke.cli import main\n"
            "assert main(['--format', 'json', 'verify', '--genus', '0', '--level', '3']) == 0\n"
            "assert main(['--format', 'json', 'infinite-image', '--level', '3']) == 0\n"
            "assert main(['--format', 'json', 'infinite-image', '--level', '4']) == 0\n"
            "assert main(['--format', 'json', 'genus2-matrices', '--level', '3']) == 0\n"
            "assert main(['--format', 'json', 'coefficients', '--level', '3']) == 0\n"
            "sys.exit('numpy imported' if 'numpy' in sys.modules else 0)\n")
    src = os.path.dirname(os.path.dirname(tljhecke.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", prog], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr


def test_verify_both_genera(capsys):
    code, out = run(capsys, "verify", "--genus", "0", "--level", "2")
    assert code == 0
    assert "genus-1" in out and "genus-2" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify"])   # missing --level
    assert exc.value.code == 2


def test_genus2_matrices_has_no_normalized_flag():
    # the unitary normalization is the default output; only --raw selects
    with pytest.raises(SystemExit) as exc:
        main(["genus2-matrices", "--level", "3", "--normalized"])
    assert exc.value.code == 2


def test_invalid_level_is_usage_error(capsys):
    code, _ = run(capsys, "verify", "--level", "0")
    assert code == 2


def test_csv_without_table_is_usage_error(capsys):
    code, _ = run(capsys, "--format", "csv", "modular-data", "--level", "2")
    assert code == 2


def test_internal_invariant_failure_exit_code(capsys, monkeypatch):
    from tljhecke import cli

    def broken(args):
        raise ArithmeticError("double-sum and matrix traces disagree (bug)")
    monkeypatch.setattr(cli, "cmd_infinite_image", broken)
    code = main(["infinite-image", "--level", "3"])
    assert code == cli.INTERNAL_ERROR == 4
    assert "(bug)" in capsys.readouterr().err


def test_modular_data_json_roundtrip(capsys):
    code, out = run(capsys, "--format", "json", "modular-data", "--level", "2")
    assert code == 0
    doc = json.loads(out)
    s00 = cyc_from_json(doc["s_tilde"][0][0])
    assert s00 == 1
    d2 = cyc_from_json(doc["d_squared"])
    assert d2 == 4


def test_genus2_matrices_json(capsys):
    code, out = run(capsys, "--format", "json", "genus2-matrices", "--level", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["basis"] == [[0, 0, 0], [0, 2, 2], [2, 0, 2], [2, 2, 0], [2, 2, 2]]
    assert doc["positive_definite"] is True
    assert "j_unitary" in doc
    sq00 = cyc_from_json(doc["j_unitary"]["squares"][0][0])
    # (1/D^2)^2 = ((5-sqrt5)/10)^2
    assert abs(sq00.embed().real - ((5 - 5 ** 0.5) / 10) ** 2) < 1e-12


def test_genus2_matrices_raw(capsys):
    code, out = run(capsys, "--format", "json", "genus2-matrices", "--level", "3", "--raw")
    assert code == 0
    doc = json.loads(out)
    assert "jtilde" in doc and "j_unnormalized" in doc


def test_trace_table(capsys):
    code, out = run(capsys, "trace-table", "--levels", "3,5")
    assert code == 0
    assert "4.2361" in out and "10.5429" in out


def test_infinite_image_r3(capsys):
    code, out = run(capsys, "infinite-image", "--level", "3")
    assert code == 0
    assert "infinite" in out
    assert "not cyclotomic" in out


def test_hecke_word(capsys):
    code, out = run(capsys, "hecke-sl2", "--q", "5", "--word", "A B A^-1 J")
    assert code == 0
    assert "hyperbolic" in out


def test_hecke_presentation(capsys):
    code, out = run(capsys, "hecke-sl2", "--q", "7")
    assert code == 0
    assert "FAIL" not in out


def test_thurston_graph_file(tmp_path, capsys):
    f = tmp_path / "graph.txt"
    f.write_text("2 2\n1 0\n1 1\n1 1\n1 1\n")
    code, out = run(capsys, "thurston", "--graph", str(f))
    assert code == 0
    assert "Perron-Frobenius" in out


@pytest.mark.parametrize("text, says", [
    (None, "No such file"),
    ("", "first line"),
    ("2 2\n1 0\n", "found 2"),
    ("2 2\n1 0 1\n1 1\n1 1\n1 1\n", "line 2"),
    ("2 2\n1 0\n\n1 x\n1 1\n1 1\n", "line 4"),
], ids=["missing", "empty", "truncated", "row-width", "not-an-integer"])
def test_thurston_bad_graph_file_is_usage_error(tmp_path, capsys, text, says):
    f = tmp_path / "graph.txt"
    if text is not None:
        f.write_text(text)
    code = main(["thurston", "--graph", str(f)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and says in err


def test_spin_dims(capsys):
    code, out = run(capsys, "spin-dims", "--level", "6", "--genus", "2")
    assert code == 0
    assert "d^0 = 6" in out and "d^1 = 4" in out
    assert "(4, 60, 20)" in out


def test_spin_dims_not_applicable(capsys):
    code = main(["spin-dims", "--level", "3", "--genus", "2"])
    assert code == 2


def test_coefficients_json(capsys):
    code, out = run(capsys, "--format", "json", "coefficients", "--level", "2")
    assert code == 0
    doc = json.loads(out)
    assert cyc_from_json(doc["delta"]["0"]) == 1
    assert set(doc) >= {"delta", "twist", "theta", "tet", "sixj"}


def test_admissible_tets_match_scan():
    # the enumeration against the filter over I_r^6, for Tet and 6j keys
    from itertools import product
    from tljhecke.cli import _admissible_tets
    from tljhecke.recoupling import admissible, color_set, tet_vertices
    for r in range(1, 7):
        scan = [t for t in product(color_set(r), repeat=6)
                if all(admissible(r, *v) for v in tet_vertices(*t))]
        tets = _admissible_tets(r)
        assert tets == scan, r
        sixj_scan = [(i, j, k, l, m, n) for (i, j, k, l, m, n) in product(color_set(r), repeat=6)
                     if all(admissible(r, *v) for v in tet_vertices(i, j, n, l, m, k))]
        assert sorted((A, B, F, C, D, E) for (A, B, E, C, D, F) in tets) == sixj_scan, r


def test_pretty_precision_agrees_with_embed(capsys):
    code, out = run(capsys, "--precision", "10", "genus2-matrices", "--level", "3")
    assert code == 0
    # first unitary entry (1,1) = (5 - sqrt5)/10 printed to 10 digits
    want = (5 - 5 ** 0.5) / 10
    first = out.splitlines()[2].split()[0]
    assert abs(float(first) - want) < 1e-10


def test_verify_root_names_its_residue(capsys):
    # --root 13 is zeta_10^3, the unitary root at r = 3: the unitarity check runs
    code, out = run(capsys, "--format", "json", "verify", "--genus", "2", "--level", "3",
                    "--root", "13")
    assert code == 0
    rels = json.loads(out)["reports"][0]["relations"]
    assert [it["relation"] for it in rels if it["pass"]] == [
        "J^2 = I", "(TJ)^5 = (P+/P-)^2 I", "J J^dagger = I (unitary root)",
        "J symmetric (J~ = J~^T)"]


def _clear_memos():
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "tljhecke":
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


@pytest.mark.parametrize("r", [6, 8])
def test_coefficients_evaluates_each_tet_orbit_once(capsys, monkeypatch, r):
    # work counts are deterministic where timings are not: a cold coefficients
    # run sums the Tet state sum once per symmetry orbit and takes few inverses
    from tljhecke import recoupling
    from tljhecke.cli import _admissible_tets
    from tljhecke.exactnum import CycNumber
    calls = []
    inverse = CycNumber.inverse

    def counted(self):
        calls.append(1)
        return inverse(self)
    monkeypatch.setattr(CycNumber, "inverse", counted)
    _clear_memos()
    code, _ = run(capsys, "--format", "json", "coefficients", "--level", str(r))
    assert code == 0
    orbits = {recoupling._tet_key(*t) for t in _admissible_tets(r)}
    assert recoupling._tet_orbit_at.cache_info().misses == len(orbits)
    assert recoupling.tet_at.cache_info().misses == len(_admissible_tets(r))
    if r == 6:
        assert len(calls) <= 150, len(calls)


# --------------------------------------------------------------------------
# JSON output: the streaming writer against json.dumps(indent=2)

def _plain(x):
    """The document json.dump would be given: every CycNumber as cyc_to_json."""
    from tljhecke.exactnum import CycNumber, cyc_to_json
    if isinstance(x, CycNumber):
        return cyc_to_json(x)
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def _unit_roots(r):
    from math import gcd
    N = TheoryParams(r).root_order
    return [k for k in range(1, N) if gcd(k, N) == 1]


_GRAPH = "2 2\n1 0\n1 1\n1 1\n1 1\n"

_JSON_COMMANDS = (
    [("coefficients", "--level", str(r), "--root", str(k))
     for r in range(1, 6) for k in _unit_roots(r)]
    + [("coefficients", "--level", "6"), ("coefficients", "--level", "6", "--root", "1")]
    + [("modular-data", "--level", "3"), ("modular-data", "--level", "4", "--root", "1"),
       ("genus2-matrices", "--level", "3"), ("genus2-matrices", "--level", "3", "--raw"),
       ("genus2-matrices", "--level", "4", "--root", "1"),
       ("verify", "--genus", "0", "--level", "2"), ("trace-table", "--levels", "3,5"),
       ("infinite-image", "--level", "3"), ("hecke-sl2", "--q", "5", "--word", "A B A^-1 J"),
       ("hecke-sl2", "--q", "7", "--hyperelliptic"), ("spin-dims", "--level", "6", "--genus", "2"),
       ("dims",), ("dims", "--levels", ","), ("thurston", "--graph", "GRAPH")])


@pytest.mark.parametrize("argv", _JSON_COMMANDS, ids=" ".join)
def test_json_output_matches_json_dump(capsys, monkeypatch, tmp_path, argv):
    # the streamed text is byte for byte json.dumps(indent=2) of the same
    # document with cyc_to_json leaves
    from tljhecke import cli
    docs = []
    write_json = cli._write_json

    def recording(doc, write):
        docs.append(doc)
        write_json(doc, write)
    monkeypatch.setattr(cli, "_write_json", recording)
    graph = tmp_path / "graph.txt"
    graph.write_text(_GRAPH)
    argv = [str(graph) if a == "GRAPH" else a for a in argv]
    code, out = run(capsys, "--format", "json", *argv)
    assert code == 0
    assert len(docs) == 1
    assert out == json.dumps(_plain(docs[0]), indent=2) + "\n"


def test_json_writer_edge_cases():
    from tljhecke.cli import _write_json
    from tljhecke.exactnum import CycNumber
    x = CycNumber(5, [1, -2, 0, 3])
    doc = {"empty_list": [], "empty_dict": {}, "neg_zero": -0.0, "nan": float("nan"),
           "inf": [float("inf"), -float("inf")], "text": "Δ θ \"quoted\" \\ tab\t ζ₁₂",
           "big": 2 ** 200, "neg_big": -(3 ** 150), "flags": [True, False, None],
           "tuple": (1, (2, ())), 7: "int key", 1.5: "float key", None: "null key",
           "same": [x, x, {"deeper": x}], "nested": [[[]], [{}], {"a": [{}]}]}
    parts = []
    _write_json(doc, parts.append)
    assert "".join(parts) == json.dumps(_plain(doc), indent=2)
    for scalar in (0, -0.0, "é", 10 ** 100, None):
        parts = []
        _write_json(scalar, parts.append)
        assert "".join(parts) == json.dumps(scalar, indent=2)


def test_coefficients_serializes_each_value_once(capsys, monkeypatch):
    # a cold coefficients run calls cyc_to_json at most once per distinct
    # value it writes (3,458 calls, one per labeling, before values were shared)
    from tljhecke import cli
    calls = []
    cyc_to_json = cli.cyc_to_json

    def counted(x):
        calls.append(1)
        return cyc_to_json(x)
    monkeypatch.setattr(cli, "cyc_to_json", counted)
    _clear_memos()
    code, out = run(capsys, "--format", "json", "coefficients", "--level", "6")
    assert code == 0
    doc = json.loads(out)
    values = {json.dumps(v, sort_keys=True)
              for table in ("delta", "twist", "theta", "tet", "sixj")
              for v in doc[table].values()}
    assert sum(len(doc[t]) for t in ("delta", "twist", "theta", "tet", "sixj")) == 3458
    assert len(calls) <= len(values), (len(calls), len(values))


def test_closed_stdout_exits_quietly():
    # `tljhecke --format json coefficients --level 6 | head -1`: the reader
    # leaves after one line of a 3 MB document; the CLI stops with exit
    # status 1 and writes nothing to stderr
    from tljhecke.cli import OUTPUT_CLOSED
    src = os.path.dirname(os.path.dirname(tljhecke.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, "-m", "tljhecke.cli", "--format", "json",
                             "coefficients", "--level", "6"],
                            env=dict(os.environ, PYTHONPATH=path),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert (code, err) == (OUTPUT_CLOSED, b"")
    assert OUTPUT_CLOSED == 1
