"""Tests for the command-line front end: dispatch, formats, exit codes."""
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import time
from dataclasses import replace
from decimal import MAX_PREC, Context, Decimal
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import tljhecke
import tljhecke.rep_genus2 as rep_genus2
from tljhecke.cli import main
from tljhecke.exactnum import CycNumber, cyc_from_json
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
                        lambda params: replace(rep, tdiag=tuple(t.conj() for t in rep.tdiag)))
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
    # exact jobs never pay numpy's import (about 12 MB of RSS and 150 ms):
    # every command but thurston (the one float eigen-solver) at r <= 4, in
    # json and in pretty output, leaves numpy unimported.  Importing the cli
    # loads neither sl2_hecke, spin nor csv; hecke-sl2, spin-dims and the csv
    # run then import them on demand.  Every command line here is read from
    # the command table, so argparse (and the gettext and locale it loads)
    # is never imported
    argvs = [["dims"], ["dims", "--genus", "3", "--levels", "2,3,4"],
             ["trace-table", "--levels", "3"], ["spin-dims", "--level", "2", "--genus", "2"],
             ["hecke-sl2", "--q", "5", "--word", "A B A^-1 J"],
             ["hecke-sl2", "--q", "5", "--hyperelliptic"]]
    for r in range(1, 5):
        for cmd in ("modular-data", "genus2-matrices", "verify", "infinite-image",
                    "coefficients"):
            argvs.append([cmd, "--level", str(r)])
        argvs.append(["genus2-matrices", "--level", str(r), "--raw"])
    runs = [[*fmt, *argv] for argv in argvs for fmt in (["--format", "json"], [])]
    runs.append(["--format", "csv", "dims", "--levels", "3,5"])
    prog = ("import sys\n"
            "from tljhecke.cli import main\n"
            "early = [m for m in ('tljhecke.sl2_hecke', 'tljhecke.spin', 'csv') if m in sys.modules]\n"
            "if early:\n"
            "    sys.exit(f'imported with tljhecke.cli: {early}')\n"
            f"for argv in {runs!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "parser = [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules]\n"
            "if parser:\n"
            "    sys.exit(f'imported on the happy path: {parser}')\n"
            "sys.exit('numpy imported' if 'numpy' in sys.modules else 0)\n")
    src = os.path.dirname(os.path.dirname(tljhecke.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", prog], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr


# the public names of the package, by the module that defines each
_PUBLIC_API = {
    "exactnum": "CycNumber IntPolynomial LaurentFraction LaurentPoly NonMonic PoleAtRoot "
                "Rational cyclotomic_poly is_cyclotomic specialize",
    "matrix": "CycPoly ExactMatrix SignedSqrtMatrix char_poly",
    "recoupling": "NotAdmissible NotInteger TheoryParams admissible color_set delta "
                  "global_constants qfact qint sixj tet theta_net twist verlinde_dim",
    "rep_genus1": "modular_data s_matrix t_matrix verify_genus1_relations",
    "rep_genus2": "coupling_a coupling_a_bar enumerate_basis genus2_rep "
                  "infinite_image_certificate jtilde t_genus2 trace_jtjt trace_table "
                  "verify_genus2_relations",
    "report": "",
    "sl2_hecke": "MulticurveData NotPrimitive SL2Matrix classify eval_word hecke_generators "
                 "hyperelliptic_image_check thurston_rep verify_presentation",
    "spin": "NotApplicable QuadraticForm arf flat_spin_parity orbit_counts "
            "reducibility_report spin_dims",
}


def test_public_api_resolves_on_demand():
    # in a fresh process, where importing the package has loaded neither
    # sl2_hecke nor spin: each module and each public name resolves as an
    # attribute and through from-import (which loads sl2_hecke and spin on
    # first use), is the module's own object and is listed by dir; an
    # unknown name raises an AttributeError that names it
    prog = ("import importlib, sys\n"
            "import tljhecke\n"
            "early = [m for m in ('tljhecke.sl2_hecke', 'tljhecke.spin') if m in sys.modules]\n"
            "assert not early, early\n"
            f"for module, names in {_PUBLIC_API!r}.items():\n"
            "    for name in [module, *names.split()]:\n"
            "        ns = {}\n"
            "        exec(f'from tljhecke import {name}', ns)\n"
            "        want = importlib.import_module(f'tljhecke.{module}')\n"
            "        if name != module:\n"
            "            want = getattr(want, name)\n"
            "        assert ns[name] is want and getattr(tljhecke, name) is want, name\n"
            "        assert name in dir(tljhecke), name\n"
            "try:\n"
            "    tljhecke.no_such_name\n"
            "except AttributeError as exc:\n"
            "    assert 'no_such_name' in str(exc), exc\n"
            "else:\n"
            "    raise AssertionError('tljhecke.no_such_name resolved')\n")
    src = os.path.dirname(os.path.dirname(tljhecke.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", prog], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr


def test_no_command_imports_mpmath(tmp_path):
    # the package evaluates every embedding on Python ints: each command at
    # r <= 4 (modular-data up to r = 6), in json and in pretty output (at 20
    # digits too), and the trace sweep leave mpmath unimported
    graph = tmp_path / "graph.txt"
    graph.write_text("2 2\n1 0\n1 1\n1 1\n1 1\n")
    argvs = [["dims"], ["dims", "--genus", "3", "--levels", "2,3,4"],
             ["trace-table", "--levels", "3"], ["spin-dims", "--level", "2", "--genus", "2"],
             ["hecke-sl2", "--q", "5", "--word", "A B A^-1 J"],
             ["hecke-sl2", "--q", "5", "--hyperelliptic"], ["thurston", "--graph", str(graph)],
             ["modular-data", "--level", "5"], ["modular-data", "--level", "6"]]
    for r in range(1, 5):
        for cmd in ("modular-data", "genus2-matrices", "verify", "infinite-image",
                    "coefficients"):
            argvs.append([cmd, "--level", str(r)])
        argvs.append(["genus2-matrices", "--level", str(r), "--raw"])
    runs = [[*fmt, *argv] for argv in argvs
            for fmt in (["--format", "json"], [], ["--precision", "20"])]
    prog = ("import sys\n"
            "from tljhecke.cli import main\n"
            "from tljhecke.rep_genus2 import trace_galois_sweep\n"
            f"for argv in {runs!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "assert len(trace_galois_sweep(5)) == 6\n"
            "sys.exit('mpmath imported' if 'mpmath' in sys.modules else 0)\n")
    src = os.path.dirname(os.path.dirname(tljhecke.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", prog], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr


def test_verify_and_coefficients_do_not_import_mpmath():
    # relation checks and coefficient tables run on exact field elements and
    # integer embeddings only
    prog = ("import sys\n"
            "from tljhecke.cli import main\n"
            "assert main(['--format', 'json', 'verify', '--genus', '0', '--level', '3']) == 0\n"
            "assert main(['--format', 'json', 'coefficients', '--level', '3']) == 0\n"
            "sys.exit('mpmath imported' if 'mpmath' in sys.modules else 0)\n")
    src = os.path.dirname(os.path.dirname(tljhecke.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", prog], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr


def test_pretty_output_at_default_precision_does_not_import_mpmath():
    # the fixed-point integer embedding prints every value at 10^-6
    prog = ("import sys\n"
            "from tljhecke.cli import main\n"
            "for r in range(1, 7):\n"
            "    assert main(['modular-data', '--level', str(r)]) == 0\n"
            "for r in range(1, 5):\n"
            "    assert main(['genus2-matrices', '--level', str(r)]) == 0\n"
            "    assert main(['genus2-matrices', '--level', str(r), '--raw']) == 0\n"
            "sys.exit('mpmath imported' if 'mpmath' in sys.modules else 0)\n")
    src = os.path.dirname(os.path.dirname(tljhecke.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", prog], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr


def test_python_dash_m_runs_the_cli():
    # `PYTHONPATH=src python -m tljhecke ...` works without an install
    src = os.path.dirname(os.path.dirname(tljhecke.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-m", "tljhecke", "dims", "--genus", "2",
                          "--levels", "3,5"], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert (res.returncode, res.stdout.strip(), res.stderr) == (0, "5 14", "")
    res = subprocess.run([sys.executable, "-m", "tljhecke", "verify"],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 2 and "--level" in res.stderr


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


def test_negative_precision_is_usage_error(capsys):
    # a negative digit count failed only at printing, as "error: Format
    # specifier missing precision"; the usage error names the option
    for bad in ("-1", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["--precision", bad, "modular-data", "--level", "2"])
        assert exc.value.code == 2
        assert "argument --precision" in capsys.readouterr().err
    code, out = run(capsys, "--precision", "0", "modular-data", "--level", "2")
    assert code == 0 and "D^2 = 4" in out


def test_bad_levels_is_usage_error_naming_the_option(capsys):
    # an item that is not an integer failed with int()'s "invalid literal
    # for int() with base 10", which names no option; "," stays no level
    for cmd in ("dims", "trace-table"):
        for bad in ("x", "3,x", "3;5"):
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--levels", bad])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "argument --levels" in err and "invalid literal" not in err, (cmd, bad)
    code, out = run(capsys, "--format", "json", "dims", "--levels", ",")
    assert code == 0 and json.loads(out)["dimensions"] == []
    code, out = run(capsys, "dims", "--levels", " 3, 5 ")
    assert code == 0 and out.split() == ["5", "14"]


def _parsed_by_argparse(argv):
    """vars() of build_parser().parse_args(argv), or None where argparse
    exits (help or a usage error)."""
    from tljhecke.cli import build_parser
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


def _valid_value(option):
    from tljhecke import cli
    if option.choices is not None:
        return st.sampled_from([str(c) for c in option.choices])
    return {int: st.integers(0, 30).map(str), cli._precision: st.integers(0, 30).map(str),
            cli._levels_list: st.sampled_from(["3,5", ",", " 3, 5 ", "7"]),
            None: st.sampled_from(["graph.txt", "A B A^-1 J", ""])}[option.type]


# tokens that make a command line argparse refuses or reads in a spelling
# the command table does not
_DEFECT_TOKENS = ["x", "-1", "3.5", "xml", "5", "-h", "--help", "--lev", "--level=3", "--",
                  "--format", "--level", "--raw", "--genus", "verify", "dims", "-", ""]


@st.composite
def _command_lines(draw):
    """(argv, valid): a command line of the table's options in any order,
    valid before up to two defects: a token inserted, replaced or deleted,
    an option repeated, or a global option after the command."""
    from tljhecke.cli import COMMANDS, GLOBAL_OPTIONS

    def options(table):
        argv = []
        for o in draw(st.permutations([o for o in table if o.required or draw(st.booleans())])):
            argv += [o.name] if o.flag else [o.name, draw(_valid_value(o))]
        return argv
    cmd = draw(st.sampled_from(COMMANDS))
    argv = options(GLOBAL_OPTIONS) + [cmd.name] + options(cmd.options)
    defects = draw(st.lists(st.sampled_from(["insert", "replace", "delete", "repeat", "global"]),
                            max_size=2))
    for defect in defects:
        i = draw(st.integers(0, len(argv)))
        if defect == "insert":
            argv.insert(i, draw(st.sampled_from(_DEFECT_TOKENS)))
        elif defect == "replace" and i < len(argv):
            argv[i] = draw(st.sampled_from(_DEFECT_TOKENS))
        elif defect == "delete" and i < len(argv):
            del argv[i]
        elif defect == "repeat":
            names = [k for k, a in enumerate(argv) if a.startswith("--")]
            if names:
                k = draw(st.sampled_from(names))
                argv += argv[k:k + 2]
        elif defect == "global":
            argv += draw(st.sampled_from([["--format", "json"], ["--precision", "3"]]))
    return argv, not defects


@example((["--format", "json", "verify", "--genus", "0", "--level", "6", "--root", "5"], True))
@example((["verify", "--lev", "3"], False))
@example((["verify", "--level=3"], False))
@example((["verify", "--level", "2", "--level", "3"], False))
@example((["verify", "--level", "2", "--format", "json"], False))
@example((["verify", "--genus", "5", "--level", "2"], False))
@example((["--precision", "x", "dims"], False))
@example((["verify", "--level"], False))
@example((["thurston", "--graph", "-h"], False))
@example((["hecke-sl2", "--q", "5", "--word", "--hyperelliptic"], False))
@example((["verify"], False))
@example((["-h"], False))
@settings(max_examples=400, deadline=None)
@given(_command_lines())
def test_table_reading_agrees_with_argparse(case):
    # a command line read without argparse gives exactly argparse's
    # namespace; wherever argparse exits (help, a usage error) the table
    # reading defers to it, and it reads every valid line it generates
    from tljhecke.cli import _match
    argv, valid = case
    got = _match(argv)
    if valid:
        assert got is not None, argv
    if got is not None:
        assert vars(got) == _parsed_by_argparse(argv), argv


def test_invalid_level_is_usage_error(capsys):
    code, _ = run(capsys, "verify", "--level", "0")
    assert code == 2


def test_csv_without_table_is_usage_error(capsys, tmp_path):
    code, _ = run(capsys, "--format", "csv", "modular-data", "--level", "2")
    assert code == 2
    # the refusal comes before any work (the relation checks of --level 10
    # take seconds) and before a missing thurston graph file is opened
    start = time.perf_counter()
    code = main(["--format", "csv", "verify", "--level", "10"])
    assert time.perf_counter() - start < 1.0
    refusal = "error: csv output not available for this command\n"
    assert (code, *capsys.readouterr()) == (2, "", refusal)
    code = main(["--format", "csv", "thurston", "--graph", str(tmp_path / "none.txt")])
    assert (code, *capsys.readouterr()) == (2, "", refusal)


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


def test_modular_data_pretty_text(capsys):
    # the whole pretty output at r = 2, default root and precision 6; the
    # entries sqrt2 are real, so each imaginary part is the exact 0 rounded,
    # +0.000000
    code, out = run(capsys, "--precision", "6", "modular-data", "--level", "2")
    assert code == 0
    assert out == (
        "modular data at level 2, root zeta_16^5\n"
        "S~ (unnormalized):\n"
        "+1.000000+0.000000j  +1.414214+0.000000j  +1.000000+0.000000j\n"
        "+1.414214+0.000000j  +0.000000+0.000000j  -1.414214+0.000000j\n"
        "+1.000000+0.000000j  -1.414214+0.000000j  +1.000000+0.000000j\n"
        "T diagonal:\n"
        "  +1.000000+0.000000j  -0.923880+0.382683j  -1.000000+0.000000j\n"
        "D^2 = 4.000000\n")


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
    # the JSON holds each trace's doubles once, in trace.approx: the values
    # the table prints
    code, js = run(capsys, "--format", "json", "trace-table", "--levels", "3,5")
    assert code == 0
    entries = json.loads(js)["entries"]
    assert [e["level"] for e in entries] == [3, 5]
    for e in entries:
        assert "trace_float" not in e
        assert e["trace"]["approx"][1] == 0.0
        assert f"tr = {e['trace']['approx'][0]:10.4f}" in out


def test_trace_table_refuses_an_even_level_before_any_entry(capsys):
    # the r = 17 entry takes seconds: the even level after it is refused
    # before that entry is computed
    start = time.perf_counter()
    code = main(["trace-table", "--levels", "17,4"])
    assert time.perf_counter() - start < 1.0
    assert (code, *capsys.readouterr()) == (
        2, "", "error: the trace table is defined for odd levels\n")


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


@pytest.mark.parametrize("r", range(1, 6))
def test_coefficient_tables_match_the_library_evaluators(capsys, r):
    # the packed passes against tet_at and sixj_at, one labeling at a time,
    # at every unit root
    from tljhecke.recoupling import sixj_at, tet_at
    for k in _unit_roots(r):
        code, out = run(capsys, "--format", "json", "coefficients", "--level", str(r),
                        "--root", str(k))
        assert code == 0
        doc, P = json.loads(out), TheoryParams(r, root_exponent=k)
        for table, at in (("tet", tet_at), ("sixj", sixj_at)):
            for key, value in doc[table].items():
                labels = map(int, key.split(","))
                assert cyc_from_json(value) == at(P, *labels), (table, key, k)


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


def test_pretty_output_has_no_digit_limit(capsys):
    # each Decimal is built from an int, not from the str of one, so a
    # precision past Python's 4,300-digit str limit prints in full.  _root
    # builds its Decimal as _decimal does; the fixed-point value of an
    # irrational square at this precision takes seconds (a rational one is
    # checked below), so _decimal is checked directly, and exactly:
    # n / 10**4410 keeps every digit of n
    from tljhecke.cli import _decimal
    code, out = run(capsys, "--precision", "4400", "modular-data", "--level", "1")
    assert code == 0
    assert out.splitlines()[-1] == "D^2 = 1." + "0" * 4400
    n = math.isqrt(2 * 10 ** 8820)
    x = _decimal(n, 10 ** 4410, 4410)
    assert x.as_tuple().exponent == -4410 and x.scaleb(4410, Context(prec=MAX_PREC)) == n
    text = f"{x:.4400f}"
    assert text.startswith("1.4142135623730950488") and len(text) == 4402


def test_root_of_a_rational_square_builds_no_table():
    # sqrt 2 at 4,400 digits: a rational square reads no unit-root table
    # (3.6 s to build at these 29,000 bits), and its digits are isqrt's
    from tljhecke.cli import _root
    t0 = time.perf_counter()
    x = _root(CycNumber.from_rational(1, 2), 4400)
    assert time.perf_counter() - t0 < 0.5
    assert x == Decimal(math.isqrt(2 * 10 ** 8820)).scaleb(-4410, Context(prec=MAX_PREC))


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_verify_output_does_not_depend_on_the_usable_cpus():
    # at r = 6 the large dot batches are cut across forked workers when
    # more than one CPU is usable, and nothing forks on one CPU: both
    # print the same bytes, one JSON document each
    src = os.path.dirname(os.path.dirname(tljhecke.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    cpu = min(os.sched_getaffinity(0))
    outs = []
    for pin in (lambda: os.sched_setaffinity(0, {cpu}), None):
        res = subprocess.run([sys.executable, "-m", "tljhecke", "--format", "json", "verify",
                              "--level", "6"], env=dict(os.environ, PYTHONPATH=path),
                             capture_output=True, timeout=300, preexec_fn=pin)
        assert (res.returncode, res.stderr) == (0, b"")
        json.loads(res.stdout)
        outs.append(res.stdout)
    assert outs[0] == outs[1]


def _printed_numbers(out: str) -> list[str]:
    # every fixed-point number of a pretty output; headers carry none
    return re.findall(r"[+-]?\d+\.\d+", out)


@pytest.mark.parametrize("precision", [6, 10, 14, 15, 20])
def test_pretty_digits_match_a_50_digit_embedding(capsys, precision, mp_embed):
    # each printed number is the exact embedding rounded to the precision,
    # by one path at every precision (a double cannot carry 15 or 20
    # decimals of these values)
    import mpmath
    from tljhecke.rep_genus2 import genus2_rep
    with mpmath.workdps(50):
        tol = mpmath.mpf(10) ** -precision / 2 + mpmath.mpf(10) ** -(precision + 8)

        def parts(xs):
            return [p for x in xs for z in [mp_embed(x, 50)] for p in (z.real, z.imag)]

        def check(argv, want):
            code, out = run(capsys, "--precision", str(precision), *argv)
            got = _printed_numbers(out)
            assert code == 0 and len(got) == len(want), argv
            for text, value in zip(got, want):
                assert abs(mpmath.mpf(text) - value) <= tol, (argv, text, value)

        for r in range(1, 7):
            md = modular_data(TheoryParams(r))
            check(["modular-data", "--level", str(r)],
                  parts(x for row in md.s_tilde.rows for x in row) + parts(md.t)
                  + parts([md.constants.d_squared])[:1])
        for r in range(1, 5):
            rep = genus2_rep(TheoryParams(r))
            assert rep.positive
            u = rep.junitary
            check(["genus2-matrices", "--level", str(r)],
                  [sign * mpmath.sqrt(abs(mp_embed(x, 50).real))
                   for row, signs in zip(u.squares.rows, u.signs) for x, sign in zip(row, signs)]
                  + parts(rep.tdiag))
            check(["genus2-matrices", "--level", str(r), "--raw"],
                  parts(x for row in rep.jtilde.rows for x in row) + parts(rep.tdiag))


def _cyc_leaves(doc):
    # every serialized cyclotomic value of a json document
    if isinstance(doc, dict):
        if "approx" in doc:
            yield doc
        else:
            for v in doc.values():
                yield from _cyc_leaves(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from _cyc_leaves(v)


def test_json_approx_is_the_nearest_double(capsys, mp_embed):
    # each approx is the pair of doubles nearest to the exact value its
    # coeffs give, and a real value's imaginary part is +0.0
    seen = 0
    for argv in (["coefficients", "--level", "3", "--root", "1"],
                 ["modular-data", "--level", "4"], ["genus2-matrices", "--level", "2"],
                 ["genus2-matrices", "--level", "2", "--raw"]):
        code, out = run(capsys, "--format", "json", *argv)
        assert code == 0
        for leaf in _cyc_leaves(json.loads(out)):
            x = cyc_from_json(leaf)
            z = mp_embed(x, 60)
            assert leaf["approx"] == [float(z.real), float(z.imag)], (argv, leaf)
            if x.is_real():
                assert math.copysign(1, leaf["approx"][1]) == 1, (argv, leaf)
            seen += 1
    assert seen > 100


def test_infinite_image_root_is_ignored_at_odd_levels(capsys):
    # at odd levels the certificates run at the trace root (exponent 1),
    # whatever --root says
    _, drawn = run(capsys, "--format", "json", "infinite-image", "--level", "5", "--root", "3")
    _, default = run(capsys, "--format", "json", "infinite-image", "--level", "5")
    assert drawn == default and json.loads(drawn)["level"] == 5


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
    # run sums the Tet state sum once per symmetry orbit, takes few inverses
    # and field products (at r = 6, 362; 1,346 with one product per (Tet
    # orbit, weight) pair), and makes one packed product per distinct pair
    # of values in each of its three passes: (Delta, 1/Theta), (partial,
    # 1/Theta), and (Tet value, weight value) for the 6j table
    from tljhecke import matrix, recoupling
    from tljhecke.cli import _admissible_tets
    from tljhecke.exactnum import CycNumber
    calls, products, passes = [], [], []
    inverse, mul, dots = CycNumber.inverse, CycNumber.__mul__, matrix._dots

    def counted(self):
        calls.append(1)
        return inverse(self)

    def packed(N, phi, A, B, length, pairs, count=None):
        passes.append((length, len(pairs)))
        return dots(N, phi, A, B, length, pairs, count)
    monkeypatch.setattr(CycNumber, "inverse", counted)
    monkeypatch.setattr(CycNumber, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    monkeypatch.setattr(matrix, "_dots", packed)
    _clear_memos()
    code, _ = run(capsys, "--format", "json", "coefficients", "--level", str(r))
    assert code == 0
    labelings = _admissible_tets(r)
    orbits = {recoupling._tet_key(*t) for t in labelings}
    assert recoupling._tet_orbit_at.cache_info().misses == len(orbits)
    # the tables make no per-labeling tet_at or sixj_at memo entry, and no
    # per-(orbit, weight) one
    assert recoupling.tet_at.cache_info().misses == 0
    assert recoupling.sixj_at.cache_info().misses == 0
    assert recoupling._sixj_pair_at.cache_info().misses == 0
    if r == 6:
        assert len(calls) <= 150, len(calls)
        assert len(products) <= 400, len(products)
    params = TheoryParams(r)
    weights = {recoupling._sixj_weight_key(F, A, B, C, D) for A, B, E, C, D, F in labelings}
    ab = {w: (recoupling.delta_at(params, w[0]), recoupling.theta_inv_at(params, *w[1:3], w[0]))
          for w in weights}
    cd = {w: (ab[w][0] * ab[w][1], recoupling.theta_inv_at(params, *w[3:], w[0]))
          for w in weights}
    tv = {(recoupling._tet_orbit_at(params, *recoupling._tet_key(A, B, E, C, D, F)),
           recoupling._sixj_weight_at(params, *recoupling._sixj_weight_key(F, A, B, C, D)))
          for A, B, E, C, D, F in labelings}
    assert passes == [(1, len(set(ab.values()))), (1, len(set(cd.values()))), (1, len(tv))]
    assert len(tv) == {6: 295, 8: 1138}[r]


def test_coefficients_evaluates_each_theta_once_per_sorted_triple(capsys, monkeypatch):
    # Theta is symmetric: a cold coefficients run evaluates it once per
    # sorted admissible triple (23 at r = 6, against 84 ordered triples),
    # and every permutation of a triple returns the same object
    from itertools import permutations, product
    from tljhecke import recoupling
    theta_code = recoupling.theta_at.__wrapped__.__code__
    calls = []
    factored_value = recoupling._factored_value

    def counted(params, f):
        if sys._getframe(1).f_code is theta_code:
            calls.append(1)
        return factored_value(params, f)
    monkeypatch.setattr(recoupling, "_factored_value", counted)
    _clear_memos()
    code, out = run(capsys, "--format", "json", "coefficients", "--level", "6")
    assert code == 0
    assert len(json.loads(out)["theta"]) == 84
    assert len(calls) == 23
    for r in range(1, 7):
        P = TheoryParams(r)
        cs = recoupling.color_set(r)
        for t in product(cs, repeat=3):
            if recoupling.admissible(r, *t):
                x = recoupling.theta_at(P, *sorted(t))
                assert all(recoupling.theta_at(P, *u) is x for u in permutations(t))


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


class _Flag(IntEnum):
    OFF = 0
    HUGE = 2 ** 70


# text with quotes, backslashes, control characters and non-ASCII
_json_text = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\n\t\x7fé\u2028ζ\U0001d11e'),
                               st.characters()), max_size=8)
_json_leaves = st.one_of(
    st.booleans(), st.none(), st.integers(), st.integers(min_value=2 ** 64),
    st.integers(max_value=-1), st.sampled_from(_Flag), st.floats(),
    st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf")]), _json_text,
    st.sampled_from([CycNumber(5, [1, -2, 0, 3]), CycNumber.zeta(12, 5),
                     # a denominator that only some coefficients share a factor with
                     CycNumber(12, [1, 2, 3, 4], den=6),
                     # a rational value: its imaginary part is 0.0
                     CycNumber(8, [Fraction(7, 3), 0, 0, 0]),
                     CycNumber(7, [0] * 6),
                     CycNumber(5, [2 ** 70 + 1, -(3 ** 50), 0, 5], den=7),
                     # a negative real value, 2 cos(4 pi / 5)
                     CycNumber.zeta(5, 2) + CycNumber.zeta(5, 3)]))
_json_keys = st.one_of(_json_text, st.integers(), st.floats(), st.booleans(), st.none(),
                       st.sampled_from(_Flag))
_json_docs = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                            st.dictionaries(_json_keys, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_json_docs)
def test_json_writer_matches_json_dumps(doc):
    # the keys, int leaves and CycNumber texts written without json.dumps
    # are byte for byte what json.dumps writes for them
    from tljhecke.cli import _write_json
    parts = []
    _write_json(doc, parts.append)
    assert "".join(parts) == json.dumps(_plain(doc), indent=2)


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


# --------------------------------------------------------------------------
# the sha256 oracle: --format json stdout of the commands that print matrices,
# relations and certificates, pinned at the commit before the vector-backed
# ExactMatrix (the digests did not change with it), and of the coefficient
# tables at r = 2..7, pinned before the 6j symbols were shared per (Tet orbit,
# weight) pair.  infinite-image --level 5 was pinned again when the printed
# trace took its parts from the nearest doubles: its trace is real, and its
# imaginary part reads +0.0e+00 where a 40-digit evaluation left -4.6e-41.
# The genus2-matrices, modular-data and coefficients digests were pinned
# again when every approx became the nearest doubles of the exact value
# (CycNumber.embed) in place of a float sum of cosines: the exact fields
# are unchanged, and test_json_approx_is_the_nearest_double checks the rest.
# The coefficient tables at r = 8, where the weights take more distinct
# values than at r <= 7, were pinned before the tables became packed passes
# over distinct values

_JSON_SHA256 = {
    "genus2-matrices --level 2":
        "01160ca6737a9f8ab8c7e4b7bfee0672b8be675f244f7720db836a2dd56a8971",
    "genus2-matrices --level 2 --raw":
        "3d2b4838f8f2b54e2146079af154cc5241080c8aa537c17b53e2bd8e0407bf57",
    "genus2-matrices --level 3":
        "3fc4c182713c2f587ab9d442ca39879ee8c2397fee9649752e051b9a3992f9b8",
    "genus2-matrices --level 3 --raw":
        "d0f419b324faeb5835cea0f773e77dbf24db427b2500abb0e4236515b7d6479c",
    "genus2-matrices --level 4":
        "de20b071e2df8322bb4a04a728253c72c6c757169abe6a9b43f759b2ba58fc8a",
    "genus2-matrices --level 4 --raw":
        "232bafade5c25d2e0882486ded9aaa7d2e0d5e6a6ecf6c84ca66f873f2923769",
    "modular-data --level 2":
        "90550b9eb0ec7fef8fd9ce384cb80f219444995919bcd023637a655936f23ec6",
    "modular-data --level 3":
        "c76675db74224bc468e73e0968797938f340f5b88f437297dbd94324322ec7ec",
    "modular-data --level 4":
        "df177ac1fef70d6140cbdbe626ff5b4131dc6c70afdab079daca36c855cdac12",
    "modular-data --level 5":
        "60bd2b517bf771af86c5218e546089b3a392d2f76c3bae3f1e9f6bbc75f8ce3d",
    "modular-data --level 6":
        "a5f58c1d613c5041841980c9736f56d4ce2ea3cf7859afed333a5b6eb9e31896",
    "infinite-image --level 2":
        "f78c5e885d7c573d385c4d76803b99544cc4d8faa224bf9eb96805182f12ae33",
    "infinite-image --level 3":
        "661d34e3830b8968d7bef29cb45dc38f09876c83f0f5bd2ce67b80ac3c12842b",
    "infinite-image --level 4":
        "55c8a99d1c926a6195c571bebd36813346fac9944b2d34fb8f17ef6252f9c8a7",
    "infinite-image --level 5":
        "3dd0c01365372d694874badde67748c2b86fdb1f8eae801adf94feb029f006f7",
    "infinite-image --level 6":
        "61fc5865aedbaf69cbab3e07d161ca61810c390c5530f43a6439f55e4580ec6d",
    "infinite-image --level 7":
        "287caea90701c17a20f736a08d3d13b3ff005aa38aff7e5e3e9e08453f56d5db",
    "verify --genus 0 --level 2":
        "3536b93d62187726fd45b3349eb985e34ecbd9a9992cc1506fcd001bab3084f3",
    "verify --genus 0 --level 3":
        "22f272916084669c7594e26f6aa69f166fd680801e555982db6d6579ef55e328",
    "verify --genus 0 --level 4":
        "ab2399cd9ae0e287c56f023e3b88b9a2cf1b4152527ed5db9dd5dc25939561d7",
    "verify --genus 0 --level 5":
        "0a83e94aba7d6ddb6524c95323df19ff9432e36f703cb31dd73cfbde609a1865",
    "verify --genus 0 --level 6":
        "aa5d9b6cb53480e7645e059c69c02c241440ca175684375a72630deaf2455929",
    "coefficients --level 2":
        "47cb3e6004fbae5358e5c99521e7d8bc8d248362b99529877d30c1153c26ed09",
    "coefficients --level 2 --root 1":
        "bffd3c38ff48ed7ed6466480ff0fdc870ee1dbfe83b2b9fa1209a54d6b3bd777",
    "coefficients --level 3":
        "0ad27d2331b7d93bb65e7bae77d6ac685889dbb7a4e97287a4c7dad90c401627",
    "coefficients --level 3 --root 1":
        "23d18246f254a7f30bf41603dd7c41e39ae2bda0b3ba18629e831e3d2a7afa05",
    "coefficients --level 4":
        "5492649c26241a48df1ed7b7a2b499609414410e893eab344cd703eead820436",
    "coefficients --level 4 --root 1":
        "7fb37d180c912d1d1215dc3e3473bc26949b71dc7fe74941e230ee4be9ed1f4b",
    "coefficients --level 5":
        "666fc210583ed3a620e35d44a85d69b17a322746703aae8c9a8a42eab6c13cd9",
    "coefficients --level 5 --root 1":
        "470c6d1d9837486a24b5b9e4738c70807b52e9c62a8fb91cb4cb1ea546f92906",
    "coefficients --level 6":
        "6a1e973066e95440b660e3c0b24562566dc8001eded68807e6e33cda2efd82ac",
    "coefficients --level 6 --root 1":
        "12a09baae2b68fe5475720883ab2e39fc5318150d9a624dc9709132385e3d582",
    "coefficients --level 7":
        "43366628429d508a24977e64cdc0ed29ab4c9aa42bf99cdf99f3ddfa8b35a6f7",
    "coefficients --level 7 --root 1":
        "aa3023a18ed551d34a1dc0de1369047d4dc699cd0f58ef810d453c490b2e51ea",
    "coefficients --level 8":
        "b183481851896683de468bc775a1937d35549f00bdf597a5622f5a77b6577089",
    "coefficients --level 8 --root 3":
        "7f83faa3ef12d240915de2ebe05d837bef52b8417a5d220334394407e14ffaf8",
    "coefficients --level 10":
        "66dc7702cbeb511201e01298979fa0fcb213f11e88006f2bd33a28393fd26cb4",
}


@pytest.mark.parametrize("command", list(_JSON_SHA256))
def test_json_stdout_sha256_is_pinned(capsys, command):
    code, out = run(capsys, "--format", "json", *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _JSON_SHA256[command]
