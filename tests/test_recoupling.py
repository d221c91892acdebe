"""Tests for the recoupling coefficients: quantum integers, loop values,
twists, theta and tetrahedral nets, 6j symbols, global constants, and the
dimension formula."""
import copy
import dataclasses
import math
import pickle
import random
from itertools import permutations, product

import pytest

from tljhecke.exactnum import (
    CycNumber,
    LaurentFraction,
    LaurentPoly,
    specialize,
)
from tljhecke.recoupling import (
    NotAdmissible,
    TheoryParams,
    _tet_key,
    admissible,
    color_set,
    delta,
    delta_at,
    global_constants,
    qfact,
    qint,
    qint_at,
    sixj,
    sixj_at,
    tet,
    tet_at,
    tet_vertices,
    theta_at,
    theta_net,
    twist,
    twist_at,
    verlinde_dim,
)


def all_tet_labelings(r):
    cs = color_set(r)
    return [args for args in product(cs, repeat=6)
            if all(admissible(r, *v) for v in tet_vertices(*args))]


def admissible_triples(r):
    cs = color_set(r)
    return [t for t in product(cs, repeat=3) if admissible(r, *t)]


# --------------------------------------------------------------------------
# theory parameters

def test_root_exponent_is_stored_mod_n():
    # 13 and -7 name zeta_10^3, the unitary root at r = 3
    P3 = TheoryParams(3)
    for k in (13, -7, 3):
        P = TheoryParams(3, root_exponent=k)
        assert P == P3 and hash(P) == hash(P3)
        assert P.root_exponent == 3 and P.is_unitary_root
    assert P3.with_root(23) == P3
    assert P3.with_root(7) == TheoryParams(3, root_exponent=-3)


def test_equal_params_hash_equal_and_share_memos():
    # the hash is computed once, in __post_init__; every way of making an
    # equal value must give the same hash, or the *_at memos would miss
    P = TheoryParams(6)
    equal = [TheoryParams(6, root_exponent=P.root_exponent),
             TheoryParams(6).with_root(P.root_exponent + P.root_order),
             dataclasses.replace(P), dataclasses.replace(P, root_exponent=-7).with_root(9),
             copy.copy(P), copy.deepcopy(P), pickle.loads(pickle.dumps(P))]
    assert hash(P) == hash((6, P.root_exponent))
    theta_at(P, 2, 2, 2)
    for Q in equal:
        assert Q == P and hash(Q) == hash(P)
        hits = theta_at.cache_info().hits
        theta_at(Q, 2, 2, 2)
        assert theta_at.cache_info().hits == hits + 1
    other = P.with_root(1)
    assert other != P and hash(other) == hash((6, 1))
    m = pow(P.root_exponent, -1, P.root_order)
    assert theta_at(other, 2, 2, 2) == theta_at(P, 2, 2, 2).galois(m)


def test_root_exponent_must_be_a_unit():
    P3 = TheoryParams(3)
    for k in (10, 0, 5, -20):
        with pytest.raises(ValueError):
            P3.with_root(k)
    for k in (10, 5, -20):
        with pytest.raises(ValueError):
            TheoryParams(3, root_exponent=k)


# --------------------------------------------------------------------------
# color sets and admissibility

def test_color_sets():
    assert color_set(2) == (0, 1, 2)
    assert color_set(3) == (0, 2)
    assert color_set(4) == (0, 1, 2, 3, 4)
    assert color_set(1) == (0,)


def test_admissibility_counts_match_dimension():
    for r in range(1, 13):
        assert len(admissible_triples(r)) == verlinde_dim(r, 2)


# --------------------------------------------------------------------------
# quantum integers and factorials

def test_qint_examples():
    assert qint(0).is_zero()
    assert qint(1) == 1
    assert qint(2) == LaurentFraction.from_poly(LaurentPoly(-2, (1, 0, 0, 0, 1)))
    assert qint(-3) == LaurentFraction.zero() - qint(3)


def test_qint_telescoped_form():
    # [n] = A^(2(n-1)) + A^(2(n-3)) + ... for n >= 1
    for n in range(1, 9):
        coeffs = {}
        for e in range(2 * (n - 1), -2 * n, -4):
            coeffs[e] = 1
        lo = min(coeffs)
        poly = LaurentPoly(lo, [coeffs.get(e, 0) for e in range(lo, max(coeffs) + 1)])
        assert qint(n) == LaurentFraction.from_poly(poly), n


def test_qfact():
    assert qfact(0) == 1
    assert qfact(1) == 1
    assert qfact(3) == qint(2) * qint(3)
    with pytest.raises(ValueError):
        qfact(-1)


# --------------------------------------------------------------------------
# loop values and twists

def test_delta_examples():
    assert delta(0) == 1
    assert delta(1) == LaurentFraction.zero() - qint(2)
    # Delta_2 at A = i e^(i pi/10) is the golden ratio
    P3 = TheoryParams(3)
    assert abs(delta_at(P3, 2).embed() - (1 + math.sqrt(5)) / 2) < 1e-12


def test_twist_golden_values():
    # theta_1 = e^(7 pi i/8) at A = i e^(i pi/8); theta_2 = e^(4 pi i/5) at
    # A = i e^(i pi/10): these pin the exponent convention i(i+2)
    P2 = TheoryParams(2)
    z = twist_at(P2, 1).embed()
    assert abs(z - complex(math.cos(7 * math.pi / 8), math.sin(7 * math.pi / 8))) < 1e-12
    P3 = TheoryParams(3)
    z = twist_at(P3, 2).embed()
    assert abs(z - complex(math.cos(4 * math.pi / 5), math.sin(4 * math.pi / 5))) < 1e-12
    assert twist(0) == 1
    # a twist is +-zeta^e, so conjugation inverts it at every root
    for r in range(1, 7):
        P0 = TheoryParams(r)
        for k in range(1, P0.root_order):
            if math.gcd(k, P0.root_order) == 1:
                P = P0.with_root(k)
                for i in color_set(r):
                    assert twist_at(P, i) * twist_at(P, i).conj() == 1, (r, k, i)


# --------------------------------------------------------------------------
# theta nets

def test_theta_degenerations():
    for r, a in [(2, 1), (2, 2), (3, 2), (4, 3)]:
        assert theta_net(r, 0, a, a) == delta(a)
    assert theta_net(2, 1, 1, 0) == delta(1)


def test_theta_symmetric():
    for r in (2, 3, 4):
        for tri in admissible_triples(r):
            for pm in permutations(tri):
                assert theta_net(r, *pm) == theta_net(r, *tri)


def test_theta_inadmissible_raises():
    with pytest.raises(NotAdmissible):
        theta_net(2, 2, 2, 2)
    with pytest.raises(NotAdmissible):
        theta_net(4, 1, 1, 1)


def test_theta_zero_leg_forces_equal_colors():
    # Theta(a, b, 0) admissible only when a == b, and then equals Delta_a
    for r in (2, 3, 4):
        for a in color_set(r):
            for b in color_set(r):
                if a != b:
                    assert not admissible(r, a, b, 0)


def test_theta_float_oracle():
    # independent float evaluation of the closed formula at the root
    P3 = TheoryParams(3)
    A = 1j * complex(math.cos(math.pi / 10), math.sin(math.pi / 10))

    def fqint(n):
        return (A ** (2 * n) - A ** (-2 * n)) / (A ** 2 - A ** -2)

    def ffact(n):
        v = 1.0
        for k in range(1, n + 1):
            v *= fqint(k)
        return v

    x = y = z = 1  # (2,2,2): x = y = z = 1
    direct = ((-1) ** (x + y + z) * ffact(x + y + z + 1) * ffact(x) * ffact(y)
              * ffact(z) / (ffact(x + y) * ffact(y + z) * ffact(z + x)))
    assert abs(theta_at(P3, 2, 2, 2).embed() - direct) < 1e-10


# --------------------------------------------------------------------------
# tetrahedral nets

def test_tet_all_zero():
    assert tet(2, 0, 0, 0, 0, 0, 0) == 1


def test_tet_degenerate_edge_gives_theta():
    # F = 0 forces D = A, C = B and the net collapses to Theta(A, B, E)
    assert tet(2, 1, 1, 2, 1, 1, 0) == theta_net(2, 1, 1, 2)
    assert tet(3, 2, 2, 2, 2, 2, 0) == theta_net(3, 2, 2, 2)
    assert tet(4, 3, 1, 2, 1, 3, 0) == theta_net(4, 3, 1, 2)


def test_tet_tetrahedral_symmetry():
    """The tet value depends only on the vertex structure: relabelings that
    induce the same tetrahedron (vertex permutations / edge swaps along the
    symmetry group of the tetrahedron) give equal values."""
    # symmetries expressed as argument permutations preserving the vertex
    # multiset {(A,B,E),(B,C,F),(C,D,E),(A,D,F)} with opposite pairs
    # (A,C),(B,D),(E,F):
    sym_perms = [
        lambda a, b, e, c, d, f: (a, e, b, c, f, d),   # swap roles of B,E and D,F
        lambda a, b, e, c, d, f: (c, b, f, a, d, e),   # swap A,C and E,F
        lambda a, b, e, c, d, f: (a, d, f, c, b, e),   # swap B,D and E,F
        lambda a, b, e, c, d, f: (b, a, e, d, c, f),   # reflect
        lambda a, b, e, c, d, f: (e, b, a, f, d, c),   # rotate vertex 1
    ]
    for r in (2, 3, 4):
        labelings = all_tet_labelings(r)
        rng = random.Random(7)
        for args in rng.sample(labelings, min(12, len(labelings))):
            base = tet(r, *args)
            for perm in sym_perms:
                pargs = perm(*args)
                if all(admissible(r, *v) for v in tet_vertices(*pargs)):
                    assert tet(r, *pargs) == base, (args, pargs)


def test_tet_key_classes_are_symmetry_orbits():
    # edges as vertex pairs, vertices 0..3 = (A,B,E), (B,C,F), (C,D,E), (A,D,F)
    edges = ({0, 3}, {0, 1}, {0, 2}, {1, 2}, {2, 3}, {1, 3})
    moves = [tuple(edges.index({g[v] for v in e}) for e in edges)
             for g in permutations(range(4))]
    for r in range(1, 7):
        orbits = {frozenset(tuple(t[i] for i in mv) for mv in moves)
                  for t in all_tet_labelings(r)}
        classes = {}
        for t in all_tet_labelings(r):
            classes.setdefault(_tet_key(*t), set()).add(t)
        assert {frozenset(c) for c in classes.values()} == orbits, r


def test_tet_generic_matches_specialized():
    for r in (2, 3, 4):
        P = TheoryParams(r)
        labelings = all_tet_labelings(r)
        rng = random.Random(1)
        for args in rng.sample(labelings, min(15, len(labelings))):
            gen = specialize(tet(r, *args), P.root_order, P.root_exponent)
            assert gen == tet_at(P, *args)


def test_tet_inadmissible_raises():
    with pytest.raises(NotAdmissible):
        tet(2, 2, 2, 2, 2, 2, 2)
    with pytest.raises(NotAdmissible):
        tet_at(TheoryParams(2), 2, 2, 2, 2, 2, 2)
    # {1 1 0; 1 1 1}: both thetas of its weight are admissible, but its Tet
    # vertex (1,1,1) is not, and neither memo key encodes admissibility
    with pytest.raises(NotAdmissible):
        sixj_at(TheoryParams(2), 1, 1, 0, 1, 1, 1)


# --------------------------------------------------------------------------
# 6j symbols

def test_sixj_normalization_with_zero_leg():
    # one external leg 0: unique admissible internal colors, value 1
    assert sixj(2, 0, 1, 2, 1, 2, 1) == 1
    assert sixj(2, 0, 2, 1, 1, 1, 2) == 1
    assert sixj(3, 0, 2, 2, 2, 2, 2) == 1


def test_sixj_orthogonality_exact():
    """F-move followed by its inverse is the identity on internal colors,
    summed exactly in the field at the level root."""
    for r in (2, 3, 4, 5, 6):
        P = TheoryParams(r)
        cs = color_set(r)
        one, zero = CycNumber.one(P.root_order), CycNumber.zero(P.root_order)
        rng = random.Random(r)
        tuples = [t for t in product(cs, repeat=4)]
        rng.shuffle(tuples)
        checked = 0
        for (i, j, k, l) in tuples:
            ms = [m for m in cs if admissible(r, i, j, m) and admissible(r, k, l, m)]
            ns = [n for n in cs if admissible(r, i, l, n) and admissible(r, j, k, n)]
            if not ms or not ns:
                continue
            for m in ms:
                for mp in ms:
                    tot = zero
                    for n in ns:
                        tot = tot + (sixj_at(P, i, j, n, k, l, m)
                                     * sixj_at(P, i, l, mp, k, j, n))
                    assert tot == (one if m == mp else zero), (r, i, j, k, l, m, mp)
            checked += 1
            if checked >= 8:
                break
        assert checked > 0


def test_f_move_round_trip_on_coefficient_vectors():
    """Applying F then its inverse returns the original coefficient vector."""
    r = 4
    P = TheoryParams(r)
    cs = color_set(r)
    i, j, k, l = 2, 1, 1, 2
    ms = [m for m in cs if admissible(r, i, j, m) and admissible(r, k, l, m)]
    ns = [n for n in cs if admissible(r, i, l, n) and admissible(r, j, k, n)]
    rng = random.Random(3)
    vec = {m: CycNumber.from_rational(P.root_order, rng.randint(-5, 5)) for m in ms}
    pushed = {n: CycNumber.zero(P.root_order) for n in ns}
    for m, c in vec.items():
        for n in ns:
            pushed[n] = pushed[n] + c * sixj_at(P, i, j, n, k, l, m)
    back = {m: CycNumber.zero(P.root_order) for m in ms}
    for n, c in pushed.items():
        for m in ms:
            back[m] = back[m] + c * sixj_at(P, i, l, m, k, j, n)
    assert back == vec


def test_sixj_generic_matches_specialized():
    r = 3
    P = TheoryParams(r)
    v_gen = specialize(sixj(r, 2, 2, 2, 2, 2, 2), P.root_order, P.root_exponent)
    assert v_gen == sixj_at(P, 2, 2, 2, 2, 2, 2)


# --------------------------------------------------------------------------
# bar invariance

def test_bar_invariance_of_recoupling_quantities():
    # qint, delta, theta, tet, sixj are fixed by A -> A^-1; twist inverts
    for n in range(0, 7):
        assert qint(n).bar() == qint(n)
    for i in range(0, 5):
        assert delta(i).bar() == delta(i)
        ti = twist(i)
        assert ti.bar() == LaurentFraction.one() / ti
    for r in (2, 3, 4):
        for tri in admissible_triples(r):
            assert theta_net(r, *tri).bar() == theta_net(r, *tri)
        labelings = all_tet_labelings(r)
        rng = random.Random(5)
        for args in rng.sample(labelings, min(10, len(labelings))):
            assert tet(r, *args).bar() == tet(r, *args)
    assert sixj(3, 2, 2, 2, 2, 2, 2).bar() == sixj(3, 2, 2, 2, 2, 2, 2)


# --------------------------------------------------------------------------
# global constants

def test_global_constants_r2():
    gc = global_constants(TheoryParams(2))
    assert gc.d_squared == 4


def test_global_constants_r3():
    gc = global_constants(TheoryParams(3))
    assert abs(gc.d_squared.embed() - (5 + math.sqrt(5)) / 2) < 1e-12


def test_gauss_sum_identity_all_levels():
    # P+ P- = D^2 exactly, both parities
    for r in range(1, 11):
        gc = global_constants(TheoryParams(r))
        assert gc.p_plus * gc.p_minus == gc.d_squared, r
        assert gc.kappa_squared * gc.p_minus == gc.p_plus


# --------------------------------------------------------------------------
# dimensions

def test_verlinde_table_genus2():
    for r, want in [(2, 10), (3, 5), (5, 14), (7, 30), (9, 55), (11, 91), (13, 140)]:
        assert verlinde_dim(r, 2) == want


def test_verlinde_genus1_is_color_count():
    for r in range(1, 13):
        assert verlinde_dim(r, 1) == len(color_set(r))


def test_verlinde_rejects_bad_input():
    with pytest.raises(ValueError):
        verlinde_dim(0, 2)
    with pytest.raises(ValueError):
        verlinde_dim(3, 0)


# --------------------------------------------------------------------------
# memoization / concurrency contract

def test_concurrent_cache_fill_is_idempotent():
    import threading
    P = TheoryParams(4)
    results = []

    def worker():
        results.append(tet_at(P, 2, 1, 1, 1, 2, 2))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(v == results[0] for v in results)
