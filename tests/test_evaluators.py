"""Both evaluators of each recoupling formula give the same field element:
the generic value in Q(A), specialized at A = zeta_N^k, equals the value
the specialized path computes directly, at every unit k mod N for r <= 5.
Tet is diffed at every admissible labeling, the other formulas at samples."""
import math
from functools import lru_cache
from itertools import product
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from tljhecke.exactnum import CycNumber, LaurentFraction, LaurentPoly, PoleAtRoot, specialize
from tljhecke.recoupling import (
    TheoryParams,
    _Factored,
    _factored_at,
    _qfact_ratio,
    _qfact_units,
    _sixj_pair_at,
    _tet_key,
    _tet_orbit_at,
    _unit_power,
    admissible,
    color_set,
    delta_at,
    delta_inv_at,
    qint,
    qint_at,
    sixj,
    sixj_at,
    tet,
    tet_at,
    tet_vertices,
    theta_at,
    theta_inv_at,
    theta_net,
)
from tljhecke.rep_genus2 import coupling_a, coupling_a_at

LEVELS = (1, 2, 3, 4, 5)


def assert_at_every_root(r, generic, at):
    P0 = TheoryParams(r)
    N = P0.root_order
    for k in range(1, N):
        if math.gcd(k, N) == 1:
            P = P0.with_root(k)
            assert specialize(generic, N, k) == at(P), (r, k)


@lru_cache(maxsize=None)
def theta_labels(r):
    return [t for t in product(color_set(r), repeat=3) if admissible(r, *t)]


@lru_cache(maxsize=None)
def tet_labels(r):
    return [t for t in product(color_set(r), repeat=6)
            if all(admissible(r, *v) for v in tet_vertices(*t))]


@lru_cache(maxsize=None)
def sixj_labels(r):
    # {i j k; l m n} has the vertices of Tet(i,j,n,l,m,k)
    return [(i, j, k, l, m, n) for (i, j, n, l, m, k) in tet_labels(r)]


@lru_cache(maxsize=None)
def coupling_labels(r):
    return list(product(color_set(r), repeat=3))


@st.composite
def labeled(draw, labels):
    r = draw(st.sampled_from(LEVELS))
    return r, draw(st.sampled_from(labels(r)))


def test_qint_every_n_every_root():
    # n up to 2p+1 includes p and 2p, where [n] vanishes at the root
    for r in LEVELS:
        for n in range(1, 2 * (r + 2) + 2):
            assert_at_every_root(r, qint(n), lambda P: qint_at(P, n))


@settings(max_examples=50, deadline=None)
@given(labeled(theta_labels))
def test_theta_evaluators_agree(case):
    r, t = case
    assert_at_every_root(r, theta_net(r, *t), lambda P: theta_at(P, *t))


def test_tet_evaluators_agree():
    # exhaustive: tet_at shares one value per symmetry orbit and per root
    # (_tet_orbit_at over _qfact_units and _unit_power), so every labeling
    # is diffed, cold
    for memo in (tet_at, _tet_orbit_at, _qfact_units, _unit_power):
        memo.cache_clear()
    for r in LEVELS:
        for t in tet_labels(r):
            assert_at_every_root(r, tet(r, *t), lambda P: tet_at(P, *t))


@settings(max_examples=50, deadline=None)
@given(labeled(sixj_labels))
def test_sixj_evaluators_agree(case):
    r, t = case
    assert_at_every_root(r, sixj(r, *t), lambda P: sixj_at(P, *t))


def test_sixj_at_is_one_product_per_labeling(monkeypatch):
    # sixj_at = Tet * Delta_k / (Theta(i,m,k) Theta(j,l,k)) at every labeling,
    # and with Tet and the weight memoized the product is taken once per
    # distinct (Tet orbit, weight) pair: the weight reads only k and the
    # unordered pairs {i, m}, {j, l}, so there are fewer pairs than labelings
    for r in LEVELS:
        P = TheoryParams(r)
        for (i, j, k, l, m, n) in sixj_labels(r):
            want = (tet_at(P, i, j, n, l, m, k) * delta_at(P, k)
                    * theta_inv_at(P, i, m, k) * theta_inv_at(P, j, l, k))
            assert sixj_at(P, i, j, k, l, m, n) == want, (r, i, j, k, l, m, n)
        sixj_at.cache_clear()
        _sixj_pair_at.cache_clear()
        calls = []
        mul = CycNumber.__mul__
        with monkeypatch.context() as mp:
            mp.setattr(CycNumber, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
            for t in sixj_labels(r):
                sixj_at(P, *t)
        pairs = {(_tet_key(i, j, n, l, m, k), k, tuple(sorted((tuple(sorted((i, m))),
                                                              tuple(sorted((j, l)))))))
                 for (i, j, k, l, m, n) in sixj_labels(r)}
        assert len(calls) == len(pairs), r
        assert len(pairs) < len(sixj_labels(r)) or r == 1, r


@settings(max_examples=40, deadline=None)
@given(labeled(coupling_labels))
def test_coupling_evaluators_agree(case):
    # coupling_a_at computes each unordered pair {i, j} once, so both orders
    # are diffed against the generic value
    r, (i, j, l) = case
    for t in ((i, j, l), (j, i, l)):
        assert_at_every_root(r, coupling_a(TheoryParams(r), *t),
                             lambda P: coupling_a_at(P, *t))


class _Root(NamedTuple):
    """The field of TheoryParams that _unit_power reads, and the exponent,
    for root orders no level has (N = 5, 8)."""
    root_order: int
    root_exponent: int


def test_unit_inverse_without_galois_norm():
    # (zeta^c - 1)^-1 from (1/o) sum_{j<o} j zeta^(cj) is the field inverse,
    # for every c != 0 mod N, at every unit root; u_N = 0 has none
    for N in (5, 8, 10, 12, 14, 16, 18, 24, 32, 40):
        for k in range(1, N):
            if math.gcd(k, N) != 1:
                continue
            P = _Root(N, k)
            for c in range(1, N):
                inv, value = _unit_power(P, c, -1), _unit_power(P, c, 1)
                assert value == CycNumber.zeta(N, c) - 1, (N, k, c)
                assert inv * value == 1, (N, k, c)
                assert inv == value.inverse(), (N, k, c)
            with pytest.raises(ZeroDivisionError):
                _unit_power(P, N, -1)
        _unit_power.cache_clear()


@lru_cache(maxsize=None)
def generic_factorial_ratios(nmax):
    """{(ups, downs): generic value} for [n]! and the quantum binomials
    [n]!/([m]! [n-m]!), n <= nmax: the factorials as products of
    quantum integers, the binomials from the q-Pascal rule [n, m] =
    A^(2m) [n-1, m] + A^(2m-2n) [n-1, m-1], so no factored form enters."""
    fact, binoms, cases = LaurentPoly.one(), {(0, 0): LaurentPoly.one()}, {}
    zero = LaurentPoly.zero()
    for n in range(nmax + 1):
        if n:
            fact = fact * qint(n).num
            for m in range(n + 1):
                binoms[n, m] = (binoms.get((n - 1, m), zero).shift(2 * m)
                                + binoms.get((n - 1, m - 1), zero).shift(2 * m - 2 * n))
        cases[(n,), ()] = LaurentFraction.from_poly(fact)
        for m in range(n // 2 + 1):
            cases[(n,), (m, n - m)] = LaurentFraction.from_poly(binoms[n, m])
    return cases


def test_factorials_and_binomials_at_every_root():
    # [n]!^(+-1) and [n]!/([m]! [n-m]!) for n <= 3p: from n = p on the
    # factorials vanish at the root, so [n]!^-1 is a pole (PoleAtRoot), and
    # from _factored_at [n]! is the inverse of zero (ZeroDivisionError);
    # a binomial whose vanishing factors cancel keeps a rational limit (t/p)^e
    def at(f, *args):
        try:
            return f(*args)
        except (PoleAtRoot, ZeroDivisionError) as exc:
            return type(exc)

    for r in range(1, 7):
        p = r + 2
        P0 = TheoryParams(r)
        N = P0.root_order
        # the generic values have rational coefficients, so the value at
        # zeta^k is the Galois conjugate of the value at zeta
        cases = {key: specialize(g, N, 1)
                 for key, g in generic_factorial_ratios(3 * 8).items()
                 if max(key[0] + key[1]) <= 3 * p}
        for k in range(1, N):
            if math.gcd(k, N) != 1:
                continue
            P = P0.with_root(k)
            for (ups, downs), at_zeta in cases.items():
                f = _qfact_ratio(1, ups, downs)
                want = at_zeta.galois(k)
                assert _factored_at(P, f, 1) == want, (r, k, ups, downs)
                inv = at(_factored_at, P, f, -1)
                if want == 0:
                    assert inv is ZeroDivisionError, (r, k, ups, downs)
                    assert at(_factored_at, P, _qfact_ratio(1, downs, ups), 1) is PoleAtRoot
                else:
                    assert inv * want == 1, (r, k, ups, downs)
                    assert _factored_at(P, _qfact_ratio(1, downs, ups), 1) == inv


def test_inverses_come_from_the_factored_form(monkeypatch):
    # theta_inv_at and delta_inv_at negate the exponents of the factored
    # value: at every root of r <= 5 they invert theta_at and delta_at, and
    # no field inverse is taken (the inverse of each unit zeta^c - 1 is a
    # sum of powers of zeta, _unit_power)
    for r in LEVELS:
        P0 = TheoryParams(r)
        N = P0.root_order
        for k in range(1, N):
            if math.gcd(k, N) != 1:
                continue
            P = P0.with_root(k)
            for memo in (theta_inv_at, delta_inv_at, _qfact_units, _unit_power):
                memo.cache_clear()
            inverted = []
            inverse = CycNumber.inverse
            with monkeypatch.context() as mp:
                mp.setattr(CycNumber, "inverse",
                           lambda x: inverted.append(x) or inverse(x))
                pairs = [(theta_at(P, *t), theta_inv_at(P, *t)) for t in theta_labels(r)]
                pairs += [(delta_at(P, i), delta_inv_at(P, i)) for i in color_set(r)]
            assert all(x * y == 1 for x, y in pairs), (r, k)
            assert not inverted, (r, k)
    for memo in (theta_inv_at, delta_inv_at, _qfact_units, _unit_power):
        memo.cache_clear()


def test_factored_inverse_of_zero_and_of_a_pole():
    # [p]! vanishes at the root: {p: 1} is a zero (ZeroDivisionError, as
    # CycNumber.inverse raises) and {p: -1} a pole (PoleAtRoot, as the value
    # raises); colors give neither
    P = TheoryParams(2)
    with pytest.raises(ZeroDivisionError):
        _factored_at(P, _Factored(1, 0, {P.p: 1}), -1)
    with pytest.raises(PoleAtRoot):
        _factored_at(P, _Factored(1, 0, {P.p: -1}), -1)
    with pytest.raises(ValueError):
        delta_inv_at(P, -1)
