"""Command-line front end.

The options and subcommands are declared once, in COMMANDS and
GLOBAL_OPTIONS.  A command line is read straight from that table; argparse
is imported, and its parser built from the same table, only for help and for
a command line the table reading defers (a usage error, or a spelling such
as an abbreviated option), so help and usage-error texts are argparse's.

Exit status: 0 on success, 1 when standard output closes before everything
is written (its reader, say `head`, has exited; no traceback is printed), 2
on usage errors (bad arguments, invalid levels or roots, csv output for a
command without a table, refused before any work), 3 when a requested
verification fails, 4 when an internal invariant fails (an ArithmeticError
such as NotInteger: a bug, not bad input).  Output formats: json (machine
readable, bit-exact serialization, the same text as json.dump with indent=2;
it is streamed to stdout as it is written, and the text of each distinct
cyclotomic value is built once, in one piece), csv (tables), pretty (human
readable; each printed number is the exact value rounded to the requested
precision, from a fixed-point evaluation on Python ints).
"""
from __future__ import annotations

import json
import math
import os
import sys
from decimal import MAX_PREC, Context, Decimal
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple

from .exactnum import CycNumber, cyc_to_json
from .matrix import SignedSqrtMatrix
from .recoupling import (
    TheoryParams,
    _tet_and_sixj_tables,
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
from itertools import product

if TYPE_CHECKING:
    import argparse

OUTPUT_CLOSED = 1
USAGE_ERROR = 2
VERIFY_FAILED = 3
INTERNAL_ERROR = 4


def _params(args) -> TheoryParams:
    k = getattr(args, "root", 0) or 0
    return TheoryParams(args.level, root_exponent=k)


def _fixed(x: CycNumber, digits: int) -> tuple[int, int, int]:
    """x.fixed_parts at enough bits (a multiple of 64, so that the tables
    are shared) that each part over the returned scale is within
    10**-digits / 2 of the exact one."""
    bound = 2 * sum(map(abs, x.vec)) * 10 ** digits // x.den
    bits = 64 * max(1, -(-bound.bit_length() // 64))
    re, im, _ = x.fixed_parts(bits)
    return re, im, x.den << bits


# scaleb in this context never rounds; a Decimal built from an int, unlike
# one built from its str, has no digit limit
_EXACT = Context(prec=MAX_PREC)


def _decimal(num: int, scale: int, digits: int) -> Decimal:
    """num / scale rounded to digits decimals, exactly as a Decimal."""
    return Decimal((2 * num * 10 ** digits + scale) // (2 * scale)).scaleb(-digits, _EXACT)


def _parts(x: CycNumber, precision: int) -> tuple[Decimal, Decimal]:
    """The real and imaginary parts of x's embedding as Decimals of
    precision + 10 digits, from the scaled ints of fixed_parts."""
    digits = precision + 10
    re, im, scale = _fixed(x, digits)
    return _decimal(re, scale, digits), _decimal(im, scale, digits)


def _root(square: CycNumber, precision: int) -> Decimal:
    """sqrt |Re square| as a Decimal of precision + 10 digits: |Re square|
    within 10**-(2 digits) gives its root within 10**-digits, and the
    integer square root floors once more."""
    digits = precision + 10
    re, _, scale = _fixed(square, 2 * digits)
    return Decimal(math.isqrt(abs(re) * 10 ** (2 * digits) // scale)).scaleb(-digits, _EXACT)


def _complex_cell(x: CycNumber, precision: int) -> str:
    """x as an re+imj number at the precision."""
    re, im = _parts(x, precision)
    return f"{re:+.{precision}f}{im:+.{precision}f}j"


def _complex_cells(values, precision: int) -> str:
    """Cyclotomic values as re+imj numbers, two spaces apart."""
    return "  ".join(_complex_cell(x, precision) for x in values)


def _float_matrix_lines(M, precision: int) -> list[str]:
    """The rows of M, entries two spaces apart, with each table entry of the
    matrix formatted once: a SignedSqrtMatrix entry as its sign and the root
    of its square, any other as re+imj."""
    if isinstance(M, SignedSqrtMatrix):
        sq = M.squares
        roots = [f"{_root(CycNumber(sq.order, v, sq.den), precision):.{precision}f}"
                 for v in sq.table]
        return ["  ".join(("-" if sign < 0 else "+") + roots[t] for t, sign in zip(row, signs))
                for row, signs in zip(sq.index, M.signs)]
    cells = [_complex_cell(CycNumber(M.order, v, M.den), precision) for v in M.table]
    return ["  ".join(map(cells.__getitem__, row)) for row in M.index]


def _write_json(doc, write: Callable[[str], object]) -> None:
    """Write doc as json.dump(doc, indent=2) would, piece by piece, where a
    CycNumber leaf stands for cyc_to_json(leaf).  Containers are walked here.
    A str key, a leaf of exact type int, and the ints and two finite doubles
    of cyc_to_json are written by the calls json.dumps makes for them
    (encode_basestring_ascii, int.__repr__, float.__repr__); every other
    scalar goes through json.dumps.  The text of a CycNumber leaf is built in
    one piece, once per distinct (value, depth) in this call, and reused for
    every repeat."""
    memo: dict[tuple, str] = {}

    def leaf(x: CycNumber, depth: int) -> str:
        key = (x.order, x.den, x.vec, depth)
        text = memo.get(key)
        if text is None:
            d = cyc_to_json(x)
            i1 = "\n" + "  " * (depth + 1)
            i2, i3 = i1 + "  ", i1 + "    "
            coeffs = ("," + i2).join(f"[{i3}{n!r},{i3}{m!r}{i2}]" for n, m in d["coeffs"])
            re, im = d["approx"]
            text = memo[key] = (f'{{{i1}"order": {d["order"]!r},{i1}"coeffs": [{i2}{coeffs}{i1}],'
                                f'{i1}"approx": [{i2}{re!r},{i2}{im!r}{i1}]\n{"  " * depth}}}')
        return text

    def put(x, depth: int, write) -> None:
        if type(x) is int:
            write(int.__repr__(x))
        elif isinstance(x, CycNumber):
            write(leaf(x, depth))
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
                # key and value are two writes: one string of both would be
                # built anew for every entry
                write(sep + key + ": ")
                if isinstance(v, CycNumber):
                    write(leaf(v, depth + 1))
                else:
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
    """Write doc as json (streamed by _write_json), csv_rows as csv (main
    has refused --format csv for a command without them), or the lines
    pretty() builds; the pretty text, which evaluates embeddings, is built
    only when it is printed."""
    fmt = getattr(args, "format", "pretty")
    if fmt == "json":
        _write_json(doc, sys.stdout.write)
        sys.stdout.write("\n")
    elif fmt == "csv":
        import csv
        w = csv.writer(sys.stdout)
        for row in csv_rows:
            w.writerow(row)
    else:
        for line in pretty():
            print(line)


# --------------------------------------------------------------------------
# subcommands

def cmd_dims(args) -> int:
    levels = args.levels
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
    levels = args.levels
    entries = trace_table(levels)
    doc = {"entries": [{
        "level": e.level,
        "root_exponent": e.root_exponent,
        "trace": e.value,
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
    from .sl2_hecke import classify, eval_word, hyperelliptic_image_check, verify_presentation
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
    from .sl2_hecke import read_graph_file, thurston_rep
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
    from .spin import NotApplicable, flat_parity, orbit_counts, reducibility_report, spin_dims
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
    """Dump tables of Delta, theta, Theta, Tet, 6j at one level and root; the
    Tet and 6j tables of the admissible labelings are packed passes over
    distinct values (recoupling._tet_and_sixj_tables)."""
    params = _params(args)
    r = params.level
    cs = color_set(r)
    deltas = {str(i): delta_at(params, i) for i in cs}
    twists = {str(i): twist_at(params, i) for i in cs}
    thetas = {}
    for t in product(cs, repeat=3):
        if admissible(r, *t):
            thetas[",".join(map(str, t))] = theta_at(params, *t)
    tets, sixjs = _tet_and_sixj_tables(params, _admissible_tets(r))
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
# the command table: build_parser() builds argparse from it for help and
# usage errors, and _match() reads every other command line from it

def _type_error(message: str) -> Exception:
    """argparse's ArgumentTypeError, so that the usage error names the
    option; argparse is imported only on that path and in build_parser."""
    import argparse
    return argparse.ArgumentTypeError(message)


def _precision(raw: str) -> int:
    """--precision: a digit count, so a usage error names the option when it
    is below 0 (a format spec such as .-1f would fail only at printing)."""
    try:
        value = int(raw)
    except ValueError:
        raise _type_error(f"invalid int value: {raw!r}") from None
    if value < 0:
        raise _type_error(f"must be at least 0, not {value}")
    return value


def _levels_list(raw: str) -> list[int]:
    """--levels: comma-separated integers, empty items skipped (so "," is no
    level), and a usage error that names the option for any other item."""
    try:
        return [int(x) for x in raw.split(",") if x.strip()]
    except ValueError:
        raise _type_error(f"invalid comma-separated int list: {raw!r}") from None


class _Option(NamedTuple):
    """One option: a store_true flag, or one value converted by type (a str
    default too, as argparse converts it) and checked against choices."""

    name: str
    type: Callable[[str], object] | None = None
    default: object = None
    required: bool = False
    choices: tuple | None = None
    flag: bool = False
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")


class _Command(NamedTuple):
    """A subcommand, its options, and whether --format csv has a table for it."""

    name: str
    help: str
    options: tuple[_Option, ...]
    csv: bool = False

    @property
    def handler(self) -> Callable:
        """cmd_<name>, hyphens as underscores, looked up when called."""
        return globals()["cmd_" + self.name.replace("-", "_")]


_LEVEL = _Option("--level", int, required=True)
_ROOT = _Option("--root", int, 0)
_LEVELS = _Option("--levels", _levels_list, "3,5,7,9,11,13")

GLOBAL_OPTIONS = (
    _Option("--format", default="pretty", choices=("json", "csv", "pretty")),
    _Option("--precision", _precision, 6, help="digits for pretty float output"),
)

COMMANDS = (
    _Command("dims", "Verlinde dimensions", (_Option("--genus", int, 2), _LEVELS), csv=True),
    _Command("modular-data", "genus-1 S and T matrices",
             (_LEVEL, _ROOT._replace(help="Galois exponent (default unitary)"))),
    _Command("genus2-matrices", "genus-2 J and T matrices",
             (_LEVEL, _ROOT,
              _Option("--raw", default=False, flag=True,
                      help="emit J~ and the unnormalized matrix instead of the "
                           "unitary normalization"))),
    _Command("verify", "run the exact relation suites",
             (_Option("--genus", int, 0, choices=(0, 1, 2), help="1, 2, or 0 for both"),
              _LEVEL, _ROOT)),
    _Command("trace-table", "traces of JTJT^-1 at A=e^(i pi/(r+2))", (_LEVELS,), csv=True),
    _Command("infinite-image", "infinite-image certificates",
             (_LEVEL,
              _ROOT._replace(help="Galois exponent at even levels; ignored at odd levels, "
                                  "where the certificates run at the trace root (exponent 1)"))),
    _Command("hecke-sl2", "Hecke group word evaluation / presentation checks",
             (_Option("--q", int, required=True), _Option("--word", help='e.g. "A B A^-1 J"'),
              _Option("--hyperelliptic", default=False, flag=True))),
    _Command("thurston", "Perron-Frobenius data of a multicurve graph file",
             (_Option("--graph", required=True),)),
    _Command("spin-dims", "spin-structure dimension decomposition",
             (_LEVEL, _Option("--genus", int, required=True)), csv=True),
    _Command("coefficients", "dump Delta/theta/Theta/Tet/6j tables", (_LEVEL, _ROOT)),
)

_BY_NAME = {c.name: c for c in COMMANDS}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    def add(parser, options) -> None:
        for o in options:
            if o.flag:
                parser.add_argument(o.name, action="store_true", help=o.help)
            else:
                parser.add_argument(o.name, type=o.type, default=o.default,
                                    required=o.required, choices=o.choices, help=o.help)

    ap = argparse.ArgumentParser(
        prog="tljhecke",
        description="Exact recoupling data and Hecke-group representations "
                    "on TQFT spaces of genus 1 and 2.")
    add(ap, GLOBAL_OPTIONS)
    sub = ap.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        add(p, cmd.options)
        p.set_defaults(fn=cmd.handler)
    return ap


def _read(options: tuple[_Option, ...], argv: list[str], i: int, ns: dict) -> int | None:
    """Store in ns each of options given in argv from index i on, up to the
    first token that is none of them, and the default of each one not given;
    return that token's index.  None where argparse must decide: a repeated
    option, a value that is missing or starts with "-", a failed conversion
    or choice, or a required option not given."""
    left = {o.name: o for o in options}
    while i < len(argv) and argv[i] in left:
        o = left.pop(argv[i])
        i += 1
        if o.flag:
            ns[o.dest] = True
            continue
        if i == len(argv) or argv[i].startswith("-"):
            return None
        try:
            value = o.type(argv[i]) if o.type else argv[i]
        except Exception:
            # argparse calls the type again and reports the failure
            return None
        if o.choices is not None and value not in o.choices:
            return None
        ns[o.dest] = value
        i += 1
    for o in left.values():
        if o.required:
            return None
        ns[o.dest] = o.type(o.default) if o.type and isinstance(o.default, str) else o.default
    return i


def _match(argv: list[str]) -> SimpleNamespace | None:
    """The namespace build_parser().parse_args(argv) returns, read from the
    command table without argparse; None for help, for any usage error, and
    for the spellings argparse also reads but this does not: an abbreviated
    option, --opt=value, --, or a global option after the command."""
    ns: dict = {}
    i = _read(GLOBAL_OPTIONS, argv, 0, ns)
    if i is None or i == len(argv) or argv[i] not in _BY_NAME:
        return None
    cmd = _BY_NAME[argv[i]]
    if _read(cmd.options, argv, i + 1, ns) != len(argv):
        return None
    return SimpleNamespace(**ns, command=cmd.name, fn=cmd.handler)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _match(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    if args.format == "csv" and not _BY_NAME[args.command].csv:
        print("error: csv output not available for this command", file=sys.stderr)
        return USAGE_ERROR
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
