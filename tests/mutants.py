"""Mutation check: every guard of an exact decision is killed by a named test.

    python tests/mutants.py

Each row of MUTANTS is (file, old text, new text, test id).  For each row,
src/, tests/ and pyproject.toml are copied to a temporary directory, the old
text, which must occur exactly once in the file, is replaced by the new one,
and only the named test is run there, on the mutated package.  The row
passes when that test fails.  A row whose old text does not occur exactly
once is stale, and a test that pytest cannot find or collect decides
nothing; both fail the row.  The rows run one after another; the script
exits 1 unless every row passes.

A kill means something only when the named test passes on the unmutated
tree, so run this after the tier-1 suite.  Pytest does not collect this file:
its name does not start with test_.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACTNUM = "src/tljhecke/exactnum.py"
MATRIX = "src/tljhecke/matrix.py"
GENUS2 = "src/tljhecke/rep_genus2.py"
CLI = "src/tljhecke/cli.py"
RECOUPLING = "src/tljhecke/recoupling.py"
TESTS = "tests/test_rep_genus2.py::"
PERTURBED = TESTS + "test_relations_fast_path_on_perturbed_reps"
ZERO_AND_POLE = "tests/test_evaluators.py::test_factored_inverse_of_zero_and_of_a_pole"

# the S0 check of _s0_is_d_inverse: the diagonal values, then the zeros off
# the diagonal, of the upper triangle of S0
S0_CHECK = ("        if (s0[0, at] * d[a] != 1\n"
            "                or any(")
S0_OFF_DIAGONAL = "                or any(any(s0.table[k]) for k in s0.index[0][at + 1:at + n - a])):"
S0_BOTH = S0_CHECK + "any(s0.table[k]) for k in s0.index[0][at + 1:at + n - a])):"
CUBE_ROOT = TESTS + "test_relations_fail_with_jtilde_times_a_cube_root_of_unity"
# the check of matrix._perm_signs: every row against its image under the
# symmetry, up to the signs read off one row
FLIP_SIGNS = ("        signed = 0 not in s and all(\n"
              "            permuted(idx[p[a]]) == want[c * s[a]](both[a]) for a in range(n))\n")
# the check of matrix._characters: a symmetry under which the diagonal has
# no character +-1 is dropped, on its own
CHARACTER_DROP = "        out.append(None if 0 in chi else chi)"
FLIP_CHECKS = TESTS + "test_half_products_match_plain_dots_when_a_check_fails"
FIRST_ROW_ONLY = ("tests/test_exactnum.py::"
                  "test_half_products_drop_a_perm_that_fits_only_the_first_full_row")
# the descents of J~ and D into K, inside the try of _relations_hold
DESCENDS = ("    try:\n"
            "        jt = rep.jtilde.descend(M)\n"
            "        d = [x.descend(M) for x in rep.jcols]\n")

MUTANTS = [
    # _relations_hold: (iv), J^ symmetric, one comparison of indices
    (GENUS2, "    if tuple(zip(*jhat.index)) != jhat.index:", "    if False:",
     TESTS + "test_asymmetric_jtilde_is_refused_before_any_product[2]"),
    # _characters: a D that the swap moves drops the swap from S0
    (MATRIX, CHARACTER_DROP, "        out.append(chi)",
     TESTS + "test_swap_bumps_take_their_own_paths[2]"),
    # _s0_is_d_inverse, both halves
    (GENUS2, S0_BOTH, "        if False:", TESTS + "test_swap_bumps_take_their_own_paths[2]"),
    (GENUS2, S0_BOTH, "        if False:", TESTS + "test_swap_bumps_take_their_own_paths[3]"),
    # _s0_is_d_inverse, the diagonal values alone, at each root of the case
    (GENUS2, S0_CHECK, "        if (any(", CUBE_ROOT + "[1-7]"),
    (GENUS2, S0_CHECK, "        if (any(", CUBE_ROOT + "[4-5]"),
    (GENUS2, S0_CHECK, "        if (any(", CUBE_ROOT + "[7-7]"),
    # _s0_is_d_inverse, the zeros off the diagonal alone
    (GENUS2, S0_OFF_DIAGONAL, "                or False):",
     TESTS + "test_s0_check_reads_the_off_diagonal_entries"),
    # _regrade: S2 graded by the middle label, each part 0 off its grade
    (GENUS2,
     "        if not nonzero.isdisjoint(compress(ix, [x != c for x in cs])):",
     "        if False:",
     TESTS + "test_regrade_checks_the_grading[2]"),
    # _relations_hold: S4 against kappa^4 T^-1 J^ T^-1
    (GENUS2,
     "    if any(h != ExactMatrix._of(M, table, [t], jhat.den) for h, t in zip(halves, want)):",
     "    if False:",
     TESTS + "test_relations_fail_with_conjugated_twist"),
    # ExactMatrix._orbit_product: with one column class, an entry is its
    # representative's residue negated when its sign and chi disagree
    (MATRIX,
     "                same = (signs[h][a] == signs[h][b]) == (chi > 0)",
     "                same = signs[h][a] == signs[h][b]",
     "tests/test_exactnum.py::test_half_product_on_a_signed_involution_matches_plain_dots"),
    # _relations_hold: J^ fixed by conjugation at the unitary root
    (GENUS2,
     "        if not all(y.is_real() for y in th + dhat) or jhat.conj() != jhat:",
     "        if not all(y.is_real() for y in th + dhat):",
     TESTS + "test_unitarity_reads_every_distinct_jtilde_vector[2]"),
    # _perm_signs: each flip a signed permutation, checked on J^ for S2 and
    # on X for S4
    (MATRIX, FLIP_SIGNS, "        signed = True\n", FLIP_CHECKS + "[J-broken-2]"),
    (MATRIX, FLIP_SIGNS, "        signed = True\n", FLIP_CHECKS + "[X-broken-2]"),
    # _perm_signs: the upper triangle compared beyond the row the signs are
    # read off
    (MATRIX, FLIP_SIGNS, "        signed = 0 not in s\n", FIRST_ROW_ONLY),
    # _characters: each diagonal part of S2 has a character +-1
    (MATRIX, CHARACTER_DROP, "        out.append(chi)", FLIP_CHECKS + "[E-broken-2]"),
    # minpoly_certificate: no cyclotomic factor in the designated polynomial
    (GENUS2,
     "    k = cyclotomic_factor(quartic)",
     "    k = None",
     TESTS + "test_minpoly_certificate_rejects_cyclotomic_factor"),
    # _relations_hold: kappa^4, then each twist, a power of zeta
    (GENUS2, "    if None in logs:", "    if None in logs[1:]:", PERTURBED + "[kappa-non-unit-2]"),
    (GENUS2, "    if None in logs:", "    if None in logs[:1]:", PERTURBED + "[T-non-unit-3]"),
    # _relations_hold: J~, then D, descends to K
    (GENUS2, DESCENDS,
     "    jt = rep.jtilde.descend(M)\n"
     "    try:\n"
     "        d = [x.descend(M) for x in rep.jcols]\n",
     PERTURBED + "[jtilde-not-in-K-2]"),
    (GENUS2, DESCENDS,
     "    d = [x.descend(M) for x in rep.jcols]\n"
     "    try:\n"
     "        jt = rep.jtilde.descend(M)\n",
     PERTURBED + "[D-not-in-K-2]"),
    # CycNumber.real_sign: doubles the bits until the value exceeds its error
    (EXACTNUM,
     "            if abs(re) > err:\n"
     "                return 1 if re > 0 else -1\n"
     "            bits *= 2\n",
     "            return 1 if re > 0 else -1\n",
     "tests/test_exactnum.py::test_real_sign_escalates_on_near_zero_reals[5-120]"),
    # _split: a slice whose worker sent no complete slice is computed here
    (MATRIX,
     "                part = residues(islice(it, cuts[s] - done, cuts[s + 1] - done))\n"
     "                done = cuts[s + 1]\n",
     "                part = []\n",
     "tests/test_exactnum.py::test_split_recomputes_what_a_worker_did_not_send[2-exit]"),
    # _modulus: Phi_N(2**width) exceeds twice every packed vector of its digits
    (MATRIX, "    if 2 * top >= M:", "    if False:",
     "tests/test_exactnum.py::test_modulus_refuses_a_width_too_small_for_its_digits"),
    # TraceEntry.exceeds_dimension: only a real trace is compared with dim V
    (GENUS2,
     "        return self.value.is_real() and (self.value - self.dimension).real_sign() > 0",
     "        return (self.value - self.dimension).real_sign() > 0",
     TESTS + "test_exceeds_dimension_needs_a_real_trace"),
    # split_primes: a prime dividing the denominator is passed over
    (EXACTNUM, "        if den % p and _is_prime(p):", "        if _is_prime(p):",
     "tests/test_exactnum.py::test_split_primes_skip_a_prime_of_the_denominator[10]"),
    # cli._read: a value its type refuses is left to argparse's usage error
    (CLI,
     "        except Exception:\n"
     "            # argparse calls the type again and reports the failure\n"
     "            return None\n",
     "        except Exception:\n"
     "            value = argv[i]\n",
     "tests/test_cli.py::test_negative_precision_is_usage_error"),
    # cli._read: a required option not given is left to argparse's usage error
    (CLI,
     "        if o.required:\n"
     "            return None\n",
     "        if False:\n"
     "            return None\n",
     "tests/test_cli.py::test_usage_error_exit_code"),
    # _factored_at: a net negative power of A^4p - 1 is a pole
    (RECOUPLING, "    if net < 0:", "    if False:", ZERO_AND_POLE),
    # _factored_at: a net positive power is a zero, whose inverse is refused
    (RECOUPLING, "    if net > 0:", "    if False:", ZERO_AND_POLE),
    (RECOUPLING, "        if s < 0:", "        if False:", ZERO_AND_POLE),
]


def _copy(dest: str) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name), ignore=skip)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def run(path: str, old: str, new: str, test: str) -> str:
    """"killed", "survived", or what made the row decide nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        _copy(tmp)
        target = os.path.join(tmp, path)
        with open(target) as f:
            text = f.read()
        if text.count(old) != 1:
            return f"stale: the old text occurs {text.count(old)} times in {path}"
        with open(target, "w") as f:
            f.write(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"))
        res = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                              test], cwd=tmp, env=env, capture_output=True, text=True)
    # pytest exits 1 when a collected test failed, 0 when all passed; any
    # other code is a test it could not find or collect
    if res.returncode == 1:
        return "killed"
    if res.returncode == 0:
        return "survived"
    return f"no verdict: pytest exited {res.returncode}\n{res.stdout[-2000:]}{res.stderr[-2000:]}"


def main() -> int:
    bad = 0
    for path, old, new, test in MUTANTS:
        verdict = run(path, old, new, test)
        bad += verdict != "killed"
        head, *detail = verdict.splitlines()
        print(f"{head:<10} {test}  ({path}: {old.strip().splitlines()[0]})")
        if detail:
            print("\n".join(detail))
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
