"""Command-line front end.

Exit status: 0 on success, 1 when standard output closes before everything
is written (its reader, say `head`, has exited; no traceback is printed), 2
on usage errors (argparse, invalid levels or roots, csv output for a command
without a table), 3 when a requested verification fails, 4 when an internal
invariant fails (an ArithmeticError such as NotInteger: a bug, not bad
input).  Output formats: json (machine readable, bit-exact serialization,
the same text as json.dump with indent=2; it is streamed to stdout as it is
written, and each distinct cyclotomic value is serialized once), csv
(tables), pretty (human readable; floats printed at the requested precision
agree with the exact embedding to 10^-precision).
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from decimal import Decimal
from json.encoder import encode_basestring_ascii
from typing import Callable

from .exactnum import CycNumber, cyc_to_json
from .matrix import SignedSqrtMatrix
from .recoupling import (
    TheoryParams,
    _tet_and_sixj_at,
    admissible,
    color_set,
    delta_at,
    theta_at,
    twist_at,
    verlinde_dim,
)
from .rep_genus1 import modular_data, verify_genus1_relations
from .rep_genus2 import (
    genus2_rep,
    infinite_image_certificate,
    trace_table,
    verify_genus2_relations,
)
from .sl2_hecke import (
    eval_word,
    classify,
    hyperelliptic_image_check,
    read_graph_file,
    thurston_rep,
    verify_presentation,
)
from .spin import NotApplicable, flat_parity, orbit_counts, reducibility_report, spin_dims
from itertools import product

OUTPUT_CLOSED = 1
USAGE_ERROR = 2
VERIFY_FAILED = 3
INTERNAL_ERROR = 4


def _params(args) -> TheoryParams:
    k = getattr(args, "root", 0) or 0
    return TheoryParams(args.level, root_exponent=k)


def _printable(err: float, precision: int) -> bool:
    """True when a double within err of a value prints it, rounded to
    precision digits, within 10**-precision."""
    return 2 * err < 10.0 ** -precision


def _decimal(x) -> Decimal:
    """The mpf x = man 2**exp as a Decimal of the same value, exactly."""
    man, exp = x.man_exp
    d = Decimal(man << exp) if exp >= 0 else Decimal(f"{man * 5 ** -exp}e{exp}")
    return d.copy_negate() if x < 0 else d


def _parts(x: CycNumber, precision: int) -> tuple:
    """The real and imaginary parts of x's embedding, close enough to print
    at the precision: doubles where embed_error allows, else Decimals of
    embed_mp(precision + 10) (mpmath is imported only then)."""
    z = x.embed()
    if _printable(x.embed_error(), precision):
        return z.real, z.imag
    z = x.embed_mp(precision + 10)
    return _decimal(z.real), _decimal(z.imag)


def _root(square: CycNumber, precision: int):
    """sqrt |Re square|, close enough to print at the precision, as _parts."""
    s, err = abs(square.embed().real), square.embed_error()
    # |sqrt a - sqrt b| <= min(sqrt |a - b|, |a - b| / sqrt b), and the
    # double square root rounds once
    off = min(err ** 0.5, err / s ** 0.5) if s else err ** 0.5
    if _printable(off + s ** 0.5 / 2 ** 52, precision):
        return math.sqrt(s)
    import mpmath
    with mpmath.workdps(precision + 10):
        return _decimal(mpmath.sqrt(abs(square.embed_mp(precision + 10).real)))


def _complex_cells(values, precision: int) -> str:
    """Cyclotomic values as re+imj numbers, two spaces apart."""
    return "  ".join(f"{re:+.{precision}f}{im:+.{precision}f}j"
                     for re, im in (_parts(x, precision) for x in values))


def _float_matrix_lines(M, precision: int) -> list[str]:
    if isinstance(M, SignedSqrtMatrix):
        return ["  ".join(f"{sign * _root(M.squares[i, j], precision):+.{precision}f}"
                          for j, sign in enumerate(signs))
                for i, signs in enumerate(M.signs)]
    return [_complex_cells(row, precision) for row in M.rows]


def _write_json(doc, write: Callable[[str], object]) -> None:
    """Write doc as json.dump(doc, indent=2) would, piece by piece, where a
    CycNumber leaf stands for cyc_to_json(leaf).  Containers are walked here.
    A str key and a leaf of exact type int are written by the calls json.dumps
    makes for them (encode_basestring_ascii, int.__repr__); every other
    scalar goes through json.dumps.  The text of a CycNumber leaf is built
    once per distinct (value, depth) in this call and reused for every
    repeat."""
    memo: dict[tuple, str] = {}

    def put(x, depth: int, write) -> None:
        if type(x) is int:
            write(int.__repr__(x))
        elif isinstance(x, CycNumber):
            key = (x.order, x.den, x.vec, depth)
            text = memo.get(key)
            if text is None:
                parts: list[str] = []
                put(cyc_to_json(x), depth, parts.append)
                text = memo[key] = "".join(parts)
            write(text)
        elif isinstance(x, dict):
            if not x:
                write("{}")
                return
            inner = "\n" + "  " * (depth + 1)
            sep = "{" + inner
            for k, v in x.items():
                # a non-str key is coerced to a string as json.dumps does it
                key = (encode_basestring_ascii(k) if isinstance(k, str)
                       else json.dumps({k: 0})[1:-4])
                write(sep + key + ": ")
                put(v, depth + 1, write)
                sep = "," + inner
            write("\n" + "  " * depth + "}")
        elif isinstance(x, (list, tuple)):
            if not x:
                write("[]")
                return
            inner = "\n" + "  " * (depth + 1)
            sep = "[" + inner
            for v in x:
                write(sep)
                put(v, depth + 1, write)
                sep = "," + inner
            write("\n" + "  " * depth + "]")
        else:
            write(json.dumps(x))

    put(doc, 0, write)


def _emit(args, doc: dict, pretty: Callable[[], list[str]],
          csv_rows: list[list] | None = None) -> None:
    """Write doc as json (streamed by _write_json), csv_rows as csv, or the
    lines pretty() builds; the pretty text, which embeds in floats, is built
    only when it is printed."""
    fmt = getattr(args, "format", "pretty")
    if fmt == "json":
        _write_json(doc, sys.stdout.write)
        sys.stdout.write("\n")
    elif fmt == "csv":
        if csv_rows is None:
            raise ValueError("csv output not available for this command")
        w = csv.writer(sys.stdout)
        for row in csv_rows:
            w.writerow(row)
    else:
        for line in pretty():
            print(line)


def _levels_list(raw: str) -> list[int]:
    return [int(x) for x in raw.split(",") if x.strip()]


# --------------------------------------------------------------------------
# subcommands

def cmd_dims(args) -> int:
    levels = _levels_list(args.levels)
    dims = [verlinde_dim(r, args.genus) for r in levels]
    doc = {"genus": args.genus,
           "dimensions": [{"level": r, "dim": d} for r, d in zip(levels, dims)]}
    rows = [["level", "dim"]] + [[r, d] for r, d in zip(levels, dims)]
    _emit(args, doc, lambda: [" ".join(str(d) for d in dims)], rows)
    return 0


def cmd_modular_data(args) -> int:
    params = _params(args)
    md = modular_data(params)
    gc = md.constants
    doc = {
        "level": params.level,
        "root": {"order": params.root_order, "exponent": params.root_exponent},
        "s_tilde": md.s_tilde.rows,
        "t_diagonal": md.t,
        "d_squared": gc.d_squared,
        "kappa_squared": gc.kappa_squared,
    }

    def pretty():
        lines = [f"modular data at level {params.level}, "
                 f"root zeta_{params.root_order}^{params.root_exponent}",
                 "S~ (unnormalized):"]
        lines += _float_matrix_lines(md.s_tilde, args.precision)
        lines.append("T diagonal:")
        lines.append("  " + _complex_cells(md.t, args.precision))
        d2 = _parts(gc.d_squared, args.precision)[0]
        lines.append(f"D^2 = {d2:.{args.precision}f}")
        return lines
    _emit(args, doc, pretty)
    return 0


def cmd_genus2_matrices(args) -> int:
    params = _params(args)
    rep = genus2_rep(params)
    doc = {
        "level": params.level,
        "root": {"order": params.root_order, "exponent": params.root_exponent},
        "basis": [list(t) for t in rep.basis.triples],
        "t_diagonal": rep.tdiag,
        "d_squared": rep.constants.d_squared,
        "kappa_squared": rep.constants.kappa_squared,
        "positive_definite": rep.positive,
    }
    raw = args.raw or not rep.positive
    if raw:
        doc["jtilde"] = rep.jtilde.rows
        doc["j_unnormalized"] = rep.j_field.rows
    else:
        doc["j_unitary"] = {"squares": rep.junitary.squares.rows,
                            "signs": rep.junitary.signs}

    def pretty():
        lines = [f"genus-2 matrices at level {params.level}, dim {len(rep.basis)}, "
                 f"root zeta_{params.root_order}^{params.root_exponent}"]
        if raw:
            lines.append("J~ (pairing matrix):")
            shown = rep.jtilde
        else:
            lines.append("J (unitary, sign * sqrt(square)):")
            shown = rep.junitary
        lines += _float_matrix_lines(shown, args.precision)
        if not rep.positive and not args.raw:
            lines.append("(form not positive definite at this root; "
                         "emitting the unnormalized matrices)")
        lines.append("T diagonal:")
        lines.append("  " + _complex_cells(rep.tdiag, args.precision))
        return lines
    _emit(args, doc, pretty)
    return 0


def cmd_verify(args) -> int:
    reports = []
    if args.genus in (1, 0):
        reports.append(verify_genus1_relations(_params(args)))
    if args.genus in (2, 0):
        reports.append(verify_genus2_relations(_params(args)))
    doc = {"reports": [r.to_json() for r in reports]}
    _emit(args, doc, lambda: [line for r in reports for line in str(r).splitlines()])
    return 0 if all(r.all_pass for r in reports) else VERIFY_FAILED


def cmd_trace_table(args) -> int:
    levels = _levels_list(args.levels)
    entries = trace_table(levels)
    doc = {"entries": [{
        "level": e.level,
        "root_exponent": e.root_exponent,
        "trace": e.value,
        "trace_float": [e.approx.real, e.approx.imag],
        "dim": e.dimension,
        "exceeds_dim": e.exceeds_dimension,
    } for e in entries]}
    rows = [["level", "trace", "dim", "exceeds_dim"]]
    lines = [f"trace of JTJT^-1 at A = e^(i*pi/(r+2))  (root exponent k=1)"]
    for e in entries:
        rows.append([e.level, f"{e.approx.real:.4f}", e.dimension, e.exceeds_dimension])
        lines.append(f"  r={e.level:2d}: tr = {e.approx.real:10.4f}   "
                     f"dim = {e.dimension:3d}   tr > dim: {e.exceeds_dimension}")
    _emit(args, doc, lambda: lines, rows)
    return 0


def cmd_infinite_image(args) -> int:
    params = _params(args)
    rep = infinite_image_certificate(params)
    doc = rep.to_json()
    lines = [f"infinite-image certificates at level {rep.level}: {rep.verdict}",
             f"  minimal-polynomial route: fires={rep.minpoly_fires}  ({rep.minpoly_details})",
             f"  trace route:              fires={rep.trace_fires}  ({rep.trace_details})"]
    _emit(args, doc, lambda: lines)
    return 0


def cmd_hecke_sl2(args) -> int:
    if args.word:
        M = eval_word(args.word, args.q)
        doc = {"q": args.q, "word": args.word,
               "matrix": [M.entries()[:2], M.entries()[2:]],
               "trace": M.trace(),
               "class": classify(M)}
        emb = M.embed()
        lines = [f"word {args.word!r} at q={args.q}:",
                 f"  [{emb[0][0]:+.6f} {emb[0][1]:+.6f}]",
                 f"  [{emb[1][0]:+.6f} {emb[1][1]:+.6f}]",
                 f"  trace class: {classify(M)}"]
        _emit(args, doc, lambda: lines)
        return 0
    reports = [verify_presentation(args.q)]
    if args.hyperelliptic:
        reports.append(hyperelliptic_image_check((args.q - 1) // 2))
    doc = {"reports": [r.to_json() for r in reports]}
    _emit(args, doc, lambda: [line for r in reports for line in str(r).splitlines()])
    return 0 if all(r.all_pass for r in reports) else VERIFY_FAILED


def cmd_thurston(args) -> int:
    with open(args.graph) as fh:
        data = read_graph_file(fh.read())
    rep = thurston_rep(data)
    doc = {
        "mu": rep.mu_float,
        "mu_exact": rep.mu_exact,
        "residual": rep.residual,
        "ta": [list(r) for r in rep.ta_float],
        "tb": [list(r) for r in rep.tb_float],
    }
    kind = "exact (type-A path)" if rep.mu_exact is not None else \
        f"certified float (residual {rep.residual:.2e})"
    lines = [f"Perron-Frobenius mu = {rep.mu_float:.12f}  [{kind}]",
             f"T_A -> [[1, {rep.mu_float:.10f}], [0, 1]]",
             f"T_B -> [[1, 0], [{-rep.mu_float:.10f}, 1]]"]
    _emit(args, doc, lambda: lines)
    return 0


def cmd_spin_dims(args) -> int:
    r, g = args.level, args.genus
    d0 = spin_dims(r, g, 0)
    d1 = spin_dims(r, g, 1)
    n_even, n_odd = orbit_counts(g)
    doc = {"level": r, "genus": g,
           "d_even": d0, "d_odd": d1,
           "orbit_even": n_even, "orbit_odd": n_odd,
           "total": verlinde_dim(r, g),
           "flat_parity": flat_parity(g)}
    lines = [f"spin decomposition at level {r}, genus {g}:",
             f"  d^0 = {d0}  (x {n_even} even spin structures)",
             f"  d^1 = {d1}  (x {n_odd} odd spin structures)",
             f"  total {n_even * d0 + n_odd * d1} = dim V = {verlinde_dim(r, g)}",
             f"  flat-structure parity: {flat_parity(g)}"]
    rows = [["parity", "dim", "count"], [0, d0, n_even], [1, d1, n_odd]]
    try:
        rr = reducibility_report(r, g)
    except NotApplicable:
        rr = None
    if rr is not None:
        doc["reducibility"] = rr.to_json()
        lines.append(f"  invariant summands: {rr.summands} (all positive: "
                     f"{rr.reducible_with_three_summands})")
    _emit(args, doc, lambda: lines, rows)
    return 0


def _admissible_tets(r: int) -> list[tuple[int, ...]]:
    """Labelings (A,B,E,C,D,F) whose four Tet vertices (A,B,E), (B,C,F),
    (C,D,E), (A,D,F) are admissible, in lexicographic order: each vertex is
    checked as soon as its last color is chosen, and F runs only over the
    colors that the vertices (B,C,F) and (A,D,F) admit, those of the parity
    of B + C from max(|B-C|, |A-D|) to min(B+C, A+D, 2r-B-C, 2r-A-D)."""
    cs = color_set(r)
    return [(A, B, E, C, D, F)
            for A in cs for B in cs
            for E in cs if admissible(r, A, B, E)
            for C in cs
            for D in cs if admissible(r, C, D, E) and (A + D - B - C) % 2 == 0
            for F in range(max(abs(B - C), abs(A - D)),
                           min(B + C, A + D, 2 * r - B - C, 2 * r - A - D) + 1, 2)]


def cmd_coefficients(args) -> int:
    """Dump tables of Delta, theta, Theta, Tet, 6j at one level and root."""
    params = _params(args)
    r = params.level
    cs = color_set(r)
    deltas = {str(i): delta_at(params, i) for i in cs}
    twists = {str(i): twist_at(params, i) for i in cs}
    thetas = {}
    for t in product(cs, repeat=3):
        if admissible(r, *t):
            thetas[",".join(map(str, t))] = theta_at(params, *t)
    # one pass: the labeling (A,B,E,C,D,F) gives Tet(A,B,E,C,D,F) and the 6j
    # symbol {A B F; C D E}, whose Tet it is; the 6j table is printed sorted
    tets, sixj_by_label = {}, {}
    for t in _admissible_tets(r):
        A, B, E, C, D, F = t
        tet, sixj = _tet_and_sixj_at(params, *t)
        tets[",".join(map(str, t))] = tet
        sixj_by_label[A, B, F, C, D, E] = sixj
    sixjs = {",".join(map(str, s)): sixj_by_label[s] for s in sorted(sixj_by_label)}
    doc = {"level": r,
           "root": {"order": params.root_order, "exponent": params.root_exponent},
           "delta": deltas, "twist": twists, "theta": thetas,
           "tet": tets, "sixj": sixjs}
    lines = [f"coefficient tables at level {r}: {len(deltas)} deltas, "
             f"{len(thetas)} thetas, {len(tets)} tets, {len(sixjs)} 6j symbols",
             "(use --format json for the full tables)"]
    _emit(args, doc, lambda: lines)
    return 0


# --------------------------------------------------------------------------

def _precision(raw: str) -> int:
    """--precision: a digit count, so a usage error names the option when it
    is below 0 (a format spec such as .-1f would fail only at printing)."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, not {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tljhecke",
        description="Exact recoupling data and Hecke-group representations "
                    "on TQFT spaces of genus 1 and 2.")
    ap.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
    ap.add_argument("--precision", type=_precision, default=6,
                    help="digits for pretty float output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="Verlinde dimensions")
    p.add_argument("--genus", type=int, default=2)
    p.add_argument("--levels", default="3,5,7,9,11,13")
    p.set_defaults(fn=cmd_dims)

    p = sub.add_parser("modular-data", help="genus-1 S and T matrices")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--root", type=int, default=0, help="Galois exponent (default unitary)")
    p.set_defaults(fn=cmd_modular_data)

    p = sub.add_parser("genus2-matrices", help="genus-2 J and T matrices")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--raw", action="store_true", default=False,
                   help="emit J~ and the unnormalized matrix instead of the "
                        "unitary normalization")
    p.set_defaults(fn=cmd_genus2_matrices)

    p = sub.add_parser("verify", help="run the exact relation suites")
    p.add_argument("--genus", type=int, choices=(0, 1, 2), default=0,
                   help="1, 2, or 0 for both")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--root", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("trace-table", help="traces of JTJT^-1 at A=e^(i pi/(r+2))")
    p.add_argument("--levels", default="3,5,7,9,11,13")
    p.set_defaults(fn=cmd_trace_table)

    p = sub.add_parser("infinite-image", help="infinite-image certificates")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--root", type=int, default=0)
    p.set_defaults(fn=cmd_infinite_image)

    p = sub.add_parser("hecke-sl2", help="Hecke group word evaluation / presentation checks")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--word", default=None, help='e.g. "A B A^-1 J"')
    p.add_argument("--hyperelliptic", action="store_true")
    p.set_defaults(fn=cmd_hecke_sl2)

    p = sub.add_parser("thurston", help="Perron-Frobenius data of a multicurve graph file")
    p.add_argument("--graph", required=True)
    p.set_defaults(fn=cmd_thurston)

    p = sub.add_parser("spin-dims", help="spin-structure dimension decomposition")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--genus", type=int, required=True)
    p.set_defaults(fn=cmd_spin_dims)

    p = sub.add_parser("coefficients", help="dump Delta/theta/Theta/Tet/6j tables")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--root", type=int, default=0)
    p.set_defaults(fn=cmd_coefficients)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout has gone (say `| head -1`): stop without a
        # traceback, and point stdout at devnull so that the flush at
        # interpreter shutdown does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return OUTPUT_CLOSED
    except OSError as exc:
        # an input file that cannot be read (thurston --graph)
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
