"""Unit tests for finite-field counting, L-polynomials, the lift-set sum,
Frobenius determinants, and infinite-order certificates.

Each [frozen] value below was produced by an independent from-scratch
implementation (naive point loops, direct 6x6/20x20 determinants) and is
asserted bit-exactly; the library must reproduce it, not the other way
round.  Several tests also recompute the same quantity along a second
route (companion matrices and their third compound in matrix_oracle.py
instead of power sums, brute-force counts over a handwritten extension
field instead of the Prym splitting) so that shared bugs cannot hide.
"""

import sys
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import mpmath as mp
import pytest
from hypothesis import assume, given, settings, strategies as st

from ceresa import ffcert
from ceresa.arith import PRIMALITY_BOUND, InvariantViolation, factorize, primes_up_to
from ceresa.cli import main
from ceresa.elliptic import Genus1Point
from ceresa.ffcert import (
    PRIME_LIMIT,
    BadReduction,
    InvalidHint,
    NoCertificateFound,
    certificate_text,
    certify_infinite,
    count_curve,
    frobenius_det,
    lift_sum,
    lpoly,
    parse_certificate,
    serialize_certificate,
    validate_certificate,
)
from ceresa.picard import decide_ceresa_t

from certify_oracle import search_every_v
from genus1_oracle import genus1_add
from jacobian_oracle import two_d_matches_sigma
from matrix_oracle import frobenius_det_by_matrices


# ---------------------------------------------------------------------------
# the O(p^i) oracle: brute-force counts over an independent extension-field
# implementation (irreducible found by randomless brute force over all
# monics, Horner evaluation, no precomputed reduction tails)

class _Field:
    def __init__(self, p, deg):
        self.p, self.deg = p, deg
        self.m = self._irreducible()

    def _irreducible(self):
        p, deg = self.p, self.deg
        for enc in range(p**deg, 2 * p**deg):
            digits = []
            e = enc
            for _ in range(deg + 1):
                digits.append(e % p)
                e //= p
            if digits[deg] != 1:
                continue
            # no roots in F_p suffices for degree <= 3
            if all(sum(c * pow(t, k, p) for k, c in enumerate(digits)) % p
                   for t in range(p)):
                return digits
        raise AssertionError

    def mul(self, u, v):
        p, deg = self.p, self.deg
        conv = [0] * (2 * deg - 1)
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                conv[i + j] += a * b
        # long division by the modulus
        for k in range(len(conv) - 1, deg - 1, -1):
            c = conv[k] % p
            conv[k] = 0
            for t in range(deg):
                conv[k - deg + t] = (conv[k - deg + t] - c * self.m[t]) % p
        return tuple(c % p for c in conv[:deg])

    def add(self, u, v):
        return tuple((a + b) % self.p for a, b in zip(u, v))

    def elements(self):
        p, deg = self.p, self.deg
        for enc in range(p**deg):
            e = enc
            out = []
            for _ in range(deg):
                out.append(e % p)
                e //= p
            yield tuple(out)


@lru_cache(maxsize=None)
def _field_tables(p, i):
    """The field, the number of cube roots of each element, and the number
    of square roots of each square, shared by every curve counted over
    F_{p^i}."""
    F = _Field(p, i)
    cubes, squares = {}, {}
    for y in F.elements():
        z = F.mul(y, F.mul(y, y))
        cubes[z] = cubes.get(z, 0) + 1
        w = F.mul(y, y)
        squares[w] = squares.get(w, 0) + 1
    return F, cubes, squares


@lru_cache(maxsize=None)
def _independent_count(a, b, p, i):
    """#C(F_{p^i}) for y^3 = x^4 + ax^2 + b, recomputed from scratch."""
    if i == 1:
        cubes = {}
        for y in range(p):
            cubes.setdefault(pow(y, 3, p), []).append(y)
        return 1 + sum(len(cubes.get((pow(x, 4, p) + a * x * x + b) % p, []))
                       for x in range(p))
    F, cubes, squares = _field_tables(p, i)
    ae, be = (a % p,) + (0,) * (i - 1), (b % p,) + (0,) * (i - 1)
    n = 1
    for x2, roots in squares.items():
        fx = F.add(F.mul(x2, F.add(x2, ae)), be)
        n += roots * cubes.get(fx, 0)
    return n


def _independent_L_C(a, b, p):
    """L_C from the brute-force counts over F_p, F_{p^2}, F_{p^3} by
    Newton's identities and the genus-3 functional equation."""
    s1, s2, s3 = (p**i + 1 - _independent_count(a, b, p, i) for i in (1, 2, 3))
    e1 = s1
    e2 = Fraction(e1 * s1 - s2, 2)
    e3 = Fraction(e2 * s1 - e1 * s2 + s3, 3)
    assert e2.denominator == e3.denominator == 1
    return (1, -e1, int(e2), -int(e3), p * int(e2), -p * p * e1, p**3)


def _good(a, b, p):
    return p > 3 and (16 * b * (a * a - 4 * b)) % p != 0


# checked at good primes of both residue classes mod 3; (88, 4096) is the
# canonical model of t = 11/16 on the t-line
_ORACLE_CURVES = [(1, 1), (6, 1), (3, 5), (88, 4096)]


@pytest.mark.parametrize("a,b", _ORACLE_CURVES)
def test_count_fp2_matches_oracle(a, b):
    primes = [p for p in primes_up_to(61) if _good(a, b, p)]
    assert {p % 3 for p in primes} == {1, 2}
    for p in primes:
        assert count_curve(a, b, p, 2).curve_count == _independent_count(a, b, p, 2), p


@pytest.mark.parametrize("a,b", _ORACLE_CURVES)
def test_count_fp3_and_lpoly_match_oracle(a, b):
    primes = [p for p in primes_up_to(31) if _good(a, b, p)]
    assert {p % 3 for p in primes} == {1, 2}
    for p in primes:
        assert count_curve(a, b, p, 3).curve_count == _independent_count(a, b, p, 3), p
        assert lpoly(a, b, p).L_C.coefficients == _independent_L_C(a, b, p), p


@given(st.integers(min_value=-30, max_value=30), st.integers(min_value=-30, max_value=30),
       st.sampled_from([5, 7, 11, 13, 17, 19, 23]))
@settings(max_examples=40, deadline=None)
def test_counts_and_lpoly_match_oracle_hypothesis(a, b, p):
    assume(_good(a, b, p))
    for i in (1, 2, 3):
        assert count_curve(a, b, p, i).curve_count == _independent_count(a, b, p, i)
    rec = ffcert._lpoly_cached(a % p, b % p, p)
    assert rec.L_C.coefficients == _independent_L_C(a, b, p)


def test_lpoly_cache_is_bounded():
    assert ffcert._lpoly_cached.cache_info().maxsize is not None


def test_lpoly_odd_prym_coefficient_is_an_invariant_violation(monkeypatch):
    """A count over F_{p^2} off by one makes 2 a2 odd: the splitting
    L_C = L_E L_P is then impossible, and lpoly says so."""
    real = ffcert._count_fp2
    monkeypatch.setattr(ffcert, "_count_fp2", lambda a, b, p: real(a, b, p) + 1)
    ffcert._lpoly_cached.cache_clear()
    try:
        with pytest.raises(InvariantViolation, match="a2 is not integral"):
            lpoly(1, 1, 11)
    finally:
        ffcert._lpoly_cached.cache_clear()


def _by_fp2_route(a, b, p):
    """(L_C, #C(F_{p^2}), #C(F_{p^3})) with L_P from #C(F_p), a naive #E(F_p)
    and the O(p^2) count over F_{p^2}: the route lpoly takes where the
    Prym sum is unavailable."""
    c1 = count_curve(a, b, p, 1).curve_count
    c2 = ffcert._count_fp2(a, b, p)
    ap = p + 1 - _naive_weierstrass_count(16 * (a * a - 4 * b) % p, p)
    a1 = p + 1 - c1 - ap
    a2 = (a1 * a1 - (p * p + 1 - c2 - (ap * ap - 2 * p))) // 2
    L_P = (1, -a1, a2, -p * a1, p * p)
    L_C = [sum(e * L_P[k - i] for i, e in enumerate((1, -ap, p)) if 0 <= k - i <= 4)
           for k in range(7)]
    s1, s2 = p + 1 - c1, p * p + 1 - c2
    s3 = -(L_C[1] * s2 + L_C[2] * s1) - 3 * L_C[3]
    return tuple(L_C), c2, p**3 + 1 - s3


@pytest.mark.parametrize("p", [7, 13, 19, 31, 37, 43])
def test_prym_sum_route_matches_the_fp2_route_on_every_curve_mod_p(p):
    """At p = 1 (mod 3) lpoly reads L_P off one cubic character sum, and
    count over F_{p^2} and F_{p^3} reads L_C: all three equal the values
    the count over F_{p^2} gives, for every good (a, b) mod p."""
    for a in range(p):
        for b in range(p):
            if not _good(a, b, p):
                continue
            L_C, c2, c3 = _by_fp2_route(a, b, p)
            assert lpoly(a, b, p).L_C.coefficients == L_C, (a, b)
            assert count_curve(a, b, p, 2).curve_count == c2, (a, b)
            assert count_curve(a, b, p, 3).curve_count == c3, (a, b)


# S = 0: a = 0 at p = 7 (mod 12), two curves at p = 13, and two of the
# benchmark's lpoly_sweep curves at p = 7
_ZERO_PRYM_SUM = [(0, 1, 7), (0, 1, 19), (0, 1, 31), (1, 5, 13), (2, 7, 13),
                  (-28, 2, 7), (28, 18, 7)]


@pytest.mark.parametrize("a,b,p", _ZERO_PRYM_SUM + [(1, 1, 13), (1, 1, 11)])
def test_lpoly_counts_over_fp2_only_where_the_prym_sum_is_unavailable(monkeypatch, a, b, p):
    """S = 0 leaves alpha beta undetermined, and at p = 2 (mod 3) there is no
    cubic character: exactly there lpoly falls back to _count_fp2."""
    calls = []
    real = ffcert._count_fp2
    monkeypatch.setattr(ffcert, "_count_fp2", lambda *k: calls.append(k) or real(*k))
    fallback = (a, b, p) in _ZERO_PRYM_SUM or p % 3 == 2
    if p % 3 == 1:
        assert (ffcert._prym_sum(a % p, b % p, p) == (0, 0)) == fallback
    ffcert._lpoly_cached.cache_clear()
    try:
        assert lpoly(a, b, p).L_C.coefficients == _by_fp2_route(a % p, b % p, p)[0]
    finally:
        ffcert._lpoly_cached.cache_clear()
    assert len(calls) == 1 + fallback  # _by_fp2_route calls it once


def test_lpoly_prym_sum_disagreeing_with_the_count_is_an_invariant_violation(monkeypatch):
    """A Prym sum off by one moves Tr(S) by 2, away from the a1 that
    #C(F_p) and #E(F_p) give: lpoly says so."""
    real = ffcert._prym_sum

    def off_by_one(av, bv, p):
        A, B = real(av, bv, p)
        return A + 1, B

    monkeypatch.setattr(ffcert, "_prym_sum", off_by_one)
    ffcert._lpoly_cached.cache_clear()
    try:
        with pytest.raises(InvariantViolation, match="the Prym sum"):
            lpoly(1, 1, 13)
    finally:
        ffcert._lpoly_cached.cache_clear()


# ---------------------------------------------------------------------------
# point counts

def test_count_frozen_values():
    assert count_curve(1, 1, 11, 1).curve_count == 12
    assert count_curve(1, 1, 11, 2).curve_count == 176
    assert count_curve(1, 1, 11, 3).curve_count == 1332


def test_count_shortcut_when_cubing_is_bijective():
    # p^i = 2 mod 3: exactly one point above every x, so N = p^i + 1
    assert count_curve(1, 1, 5, 1).curve_count == 6
    assert count_curve(2, 3, 11, 1).curve_count == 12
    assert count_curve(1, 1, 5, 3).curve_count == 126


@pytest.mark.parametrize("a,b,p,i", [
    (1, 1, 7, 2), (1, 1, 7, 3), (3, 2, 11, 2), (1, 2, 13, 3), (0, 1, 5, 2),
    (4, 1, 13, 2), (2, 3, 7, 3),
])
def test_count_matches_independent_field(a, b, p, i):
    assert count_curve(a, b, p, i).curve_count == _independent_count(a, b, p, i)


def test_count_weil_bound():
    for (a, b, p) in [(1, 1, 7), (1, 1, 41), (3, 5, 37), (0, 1, 13)]:
        for i in (1, 2, 3):
            n = count_curve(a, b, p, i).curve_count
            assert (n - p**i - 1) ** 2 <= 36 * p**i


def test_count_rejects_bad_input():
    with pytest.raises(BadReduction):
        count_curve(1, 1, 2, 1)
    with pytest.raises(BadReduction):
        count_curve(1, 1, 3, 1)
    with pytest.raises(BadReduction):
        count_curve(2, 1, 5, 1)  # a^2 = 4b
    with pytest.raises(ValueError):
        count_curve(1, 1, 5, 4)
    with pytest.raises(ValueError, match="p must be prime"):
        count_curve(1, 1, 9, 1)


def test_count_checks_p_and_the_coefficients_before_the_degree():
    """The order of `ceresa count`: p, then a and b mod p, then i."""
    with pytest.raises(ValueError, match="^p must be prime$"):
        count_curve(1, 1, 9, 4)
    with pytest.raises(ValueError, match="^denominator of 1/11 is not invertible mod 11$"):
        count_curve(Fraction(1, 11), 1, 11, 4)
    with pytest.raises(ValueError, match="^extension degree must be 1, 2, or 3$"):
        count_curve(1, 1, 1511, 4)


def test_count_reduces_rational_coefficients_mod_p():
    # 3/2 = 7 and 7/2 = 9 mod 11, as `ceresa count --a 3/2 --b 7/2 --p 11`
    assert (count_curve(Fraction(3, 2), Fraction(7, 2), 11, 1)
            == count_curve(7, 9, 11, 1))
    assert count_curve(7, 9, 11, 1).curve_count == 12
    with pytest.raises(ValueError, match="not invertible mod 11"):
        count_curve(Fraction(1, 22), 1, 11, 1)


# ---------------------------------------------------------------------------
# L-polynomials

def test_lpoly_frozen():
    rec = lpoly(1, 1, 11)
    assert rec.L_C.coefficients == (1, 0, 27, 0, 297, 0, 1331)


def _naive_weierstrass_count(d, p):
    n = 1
    for x in range(p):
        z = (x * x * x + d) % p
        n += 1 if z == 0 else (2 if pow(z, (p - 1) // 2, p) == 1 else 0)
    return n


@pytest.mark.parametrize("a,b,p", [
    (1, 1, 11), (1, 1, 41), (3, 2, 13), (0, 1, 7), (1, 2, 29), (5, 3, 17),
])
def test_lpoly_structure(a, b, p):
    rec = lpoly(a, b, p)
    cs = rec.L_C.coefficients
    assert rec.L_C.degree == 6 and cs[0] == 1
    # genus-3 functional equation: c_{6-i} = p^{3-i} c_i
    for i in range(3):
        assert cs[6 - i] == p ** (3 - i) * cs[i]
    # exact factorization by the genus-1 quotient
    assert rec.L_E.degree == 2 and rec.L_P.degree == 4
    prod = [0] * 7
    for i, u in enumerate(rec.L_E.coefficients):
        for j, v in enumerate(rec.L_P.coefficients):
            prod[i + j] += u * v
    assert tuple(prod) == cs
    # L_E comes from the quotient curve: L_E(1) = #E(F_p)
    d_e = (16 * (a * a - 4 * b)) % p
    assert rec.L_E(1) == _naive_weierstrass_count(d_e, p)
    # #J(F_p) = L_C(1) > 0
    assert rec.L_C(1) > 0
    # trace matches the point count: N_1 = p + 1 - a_1 with a_1 = -c_1
    assert count_curve(a, b, p, 1).curve_count == p + 1 + cs[1]


@pytest.mark.parametrize("a,b,p", [(1, 1, 11), (1, 2, 13), (0, 1, 7)])
def test_lpoly_reciprocal_roots_on_weil_circle(a, b, p):
    rec = lpoly(a, b, p)
    with mp.workprec(120):
        roots = mp.polyroots([mp.mpf(c) for c in reversed(rec.L_C.coefficients)],
                             maxsteps=200, extraprec=120)
        for r in roots:
            assert abs(abs(r) - 1 / mp.sqrt(p)) < 1e-9


def test_lpoly_rejects_bad_reduction():
    with pytest.raises(BadReduction):
        lpoly(1, 1, 2)
    with pytest.raises(BadReduction):
        lpoly(1, 1, 3)  # delta = -48
    with pytest.raises(BadReduction):
        lpoly(5, 25, 5)


def test_lpoly_uses_canonical_model():
    # lambda^6-rescaled inputs give the identical record
    assert lpoly(64, 4096, 11) == lpoly(1, 1, 11)
    assert lpoly(Fraction(1, 64), Fraction(1, 4096), 11) == lpoly(1, 1, 11)


# ---------------------------------------------------------------------------
# lift-set sum

def test_lift_sum_frozen():
    r = lift_sum(1, 1, 41)
    assert (r.sigma.x, r.sigma.y, r.sigma.inf) == (37, 15, False)
    assert r.sigma_order == 7
    assert r.lift_set_size == 20
    assert tuple((q.x, q.y) for q in r.ramified_contributions) == ((0, 1),)

    r7 = lift_sum(1, 1, 7)
    assert r7.sigma.inf and r7.sigma_order == 1 and r7.lift_set_size == 2
    assert tuple((q.x, q.y) for q in r7.ramified_contributions) == (
        (0, 1), (0, 2), (0, 4))

    r13 = lift_sum(1, 1, 13)
    assert r13.sigma.inf and r13.lift_set_size == 8

    r0 = lift_sum(0, 1, 7)
    assert r0.sigma.inf and r0.lift_set_size == 0


@pytest.mark.parametrize("v", [7, 11, 13, 41])
def test_lift_sum_count_identity(v):
    """Every affine point with x != 0 pairs with its mirror (-x, y), so
    N_1 = 1 + #ram + 2 * lift_set_size."""
    for (a, b) in [(1, 1), (1, 2), (3, 2), (0, 2), (4, 1)]:
        if (16 * b * (a * a - 4 * b)) % v == 0:
            continue
        r = lift_sum(a, b, v)
        n1 = count_curve(a, b, v, 1).curve_count
        assert n1 == 1 + len(r.ramified_contributions) + 2 * r.lift_set_size


@pytest.mark.parametrize("a,b", [(1, 1), (4, 1), (Fraction(-5, 2), 7), (Fraction(2, 3), 5)])
def test_count_reads_the_lift_set_fibres_at_every_good_v(a, b):
    """The same identity at every good v < 200 of both classes mod 3, on
    the canonical model, where count_curve and lift_sum share one walk."""
    ai, bi, delta = ffcert._good_int_model(a, b)
    vs = [v for v in primes_up_to(199) if (6 * delta) % v]
    assert {v % 3 for v in vs} == {1, 2}
    for v in vs:
        r = lift_sum(ai, bi, v)
        n1 = count_curve(ai, bi, v, 1).curve_count
        assert n1 == 1 + len(r.ramified_contributions) + 2 * r.lift_set_size, v


def test_lift_sum_sigma_order_is_exact():
    """sigma_order is the exact order of sigma under the quotient-model
    group law: k*sigma = O first at k = sigma_order (7 is prime here)."""
    a, b, v = 1, 1, 41
    r = lift_sum(a, b, v)
    assert r.sigma_order == 7 and not r.sigma.inf
    acc = r.sigma
    for _ in range(2, r.sigma_order):
        acc = genus1_add(a, b, acc, r.sigma, v)
        assert not acc.inf
    assert genus1_add(a, b, acc, r.sigma, v).inf


def test_lift_sum_rejects_bad_reduction():
    with pytest.raises(BadReduction):
        lift_sum(1, 1, 2)
    with pytest.raises(BadReduction):
        lift_sum(1, 1, 3)


def test_lift_sum_rejects_v_above_the_prime_limit():
    assert 1511 > PRIME_LIMIT  # 1511 is the first prime above it
    with pytest.raises(ValueError, match=f"^v = 1511 exceeds the prime limit {PRIME_LIMIT}$"):
        lift_sum(1, 1, 1511)


# ---------------------------------------------------------------------------
# at a good v = 1 (mod 3), y -> zeta y induces an automorphism alpha of E of
# order 3 with 1 + alpha + alpha^2 = 0, so sigma lies in ker(1 - alpha) and
# its order divides 3: the certificate search never lifts there

def _sigma_orders_at_v_1_mod_3(a, b):
    delta = ffcert._good_int_model(a, b)[2]
    return [lift_sum(a, b, v).sigma_order
            for v in primes_up_to(200) if v % 3 == 1 and delta % v]


def test_sigma_order_divides_3_at_v_1_mod_3_on_the_t_box():
    orders = [n for t in _t_box(8) for n in _sigma_orders_at_v_1_mod_3(2 * t, 1)]
    assert len(orders) > 1000 and set(orders) <= {1, 3}


@settings(max_examples=30, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30))
def test_sigma_order_divides_3_at_v_1_mod_3_hypothesis(a, b):
    assume(b != 0 and a * a != 4 * b)
    assert set(_sigma_orders_at_v_1_mod_3(a, b)) <= {1, 3}


# ---------------------------------------------------------------------------
# the divisor-class oracle: 2D = pi^*(sigma) checked by brute-force
# Riemann-Roch linear algebra, independent of the group-law shortcut

def test_oracle_confirms_lift_sum_small_primes():
    checked = 0
    for v in (5, 7, 11, 13):
        for a in range(0, 4):
            for b in range(1, 4):
                if (16 * b * (a * a - 4 * b)) % v == 0:
                    continue
                r = lift_sum(a, b, v)
                assert two_d_matches_sigma(a, b, v, r.sigma), (a, b, v)
                checked += 1
    assert checked >= 30


def test_oracle_discriminates_at_v5():
    """At (1,1,5) the oracle accepts lift_sum's sigma and rejects every
    other rational point of the quotient (and the origin)."""
    r = lift_sum(1, 1, 5)
    hits = []
    candidates = [Genus1Point(0, 0, True)]
    for u0 in range(5):
        rhs = (u0 * u0 + u0 + 1) % 5
        for y0 in range(5):
            if pow(y0, 3, 5) == rhs:
                candidates.append(Genus1Point(u0, y0))
    for c in candidates:
        if two_d_matches_sigma(1, 1, 5, c):
            hits.append(c)
    assert hits == [r.sigma]


def test_oracle_negative_controls():
    r = lift_sum(1, 2, 13)
    wrong = []
    for u0 in range(13):
        rhs = (u0 * u0 + u0 + 2) % 13
        for y0 in range(13):
            if pow(y0, 3, 13) == rhs:
                cand = Genus1Point(u0, y0)
                if cand != r.sigma:
                    wrong.append(cand)
    for cand in wrong[:3]:
        assert not two_d_matches_sigma(1, 2, 13, cand)
    if not r.sigma.inf:
        assert not two_d_matches_sigma(1, 2, 13, Genus1Point(0, 0, True))


# ---------------------------------------------------------------------------
# Frobenius determinants

_DET_UNTWISTED_1_1_11 = 29049104246323668435011663307177984


def test_frobdet_frozen():
    rec = frobenius_det(1, 1, 11, 7)
    assert rec.det_untwisted == _DET_UNTWISTED_1_1_11
    assert rec.det_value == Fraction(886754046541824, 379749833583241)
    assert rec.det_value.denominator == 11**14
    assert rec.unit_mod_ell is True


def _frobdet_matches_matrices(a, b, q, ells):
    """frobenius_det against the companion-matrix route, for each ell."""
    L_C = lpoly(a, b, q).L_C.coefficients
    for ell in ells:
        rec = frobenius_det(a, b, q, ell)
        assert (rec.det_value, rec.det_untwisted, rec.unit_mod_ell) == \
            frobenius_det_by_matrices(L_C, q, ell)


def _power_sum_route(a, b, q, ell):
    """det(Fr_q - 1) data recomputed via eigenvalue power sums only."""
    cs = lpoly(a, b, q).L_C.coefficients  # c_0 .. c_6
    # chi(T) = T^6 + c_1 T^5 + ... + c_6; Newton power sums of its roots
    s = {0: 6}
    for k in range(1, 61):
        acc = -k * cs[k] if k <= 6 else 0
        for j in range(1, min(k, 6) + 1):
            if j < k:
                acc -= cs[j] * s[k - j]
        s[k] = acc
    # eigenvalues of the third exterior power: products of root triples;
    # their power sums via e_3 applied to the m-th powers of the roots
    S = {m: (s[m] ** 3 - 3 * s[m] * s[2 * m] + 2 * s[3 * m]) // 6
         for m in range(1, 21)}
    # char poly of the 20 products by Newton's identities
    e = [1]
    for k in range(1, 21):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += (-1) ** (j - 1) * e[k - j] * S[j]
        val = acc / k
        assert val.denominator == 1
        e.append(int(val))
    chi = lambda t: sum(cs[i] * t ** (6 - i) for i in range(7))
    p3 = lambda t: sum((-1) ** k * e[k] * t ** (20 - k) for k in range(21))
    det_value = Fraction(chi(q), q**6) * Fraction(p3(q * q), q**40)
    det_untwisted = chi(1) * p3(1)
    unit = (det_value != 0 and det_value.numerator % ell != 0
            and det_value.denominator % ell != 0)
    return det_value, det_untwisted, unit


@pytest.mark.parametrize("a,b,q,ell", [
    (1, 1, 11, 7), (0, 1, 5, 7), (1, 2, 13, 5), (4, 1, 29, 5), (4, 1, 7, 5),
])
def test_frobdet_matches_power_sum_route(a, b, q, ell):
    """A self-contained power-sum computation in the test, and the matrix
    oracle, agree with frobenius_det."""
    rec = frobenius_det(a, b, q, ell)
    expected = _power_sum_route(a, b, q, ell)
    assert (rec.det_value, rec.det_untwisted, rec.unit_mod_ell) == expected
    assert expected == frobenius_det_by_matrices(lpoly(a, b, q).L_C.coefficients, q, ell)


@pytest.mark.parametrize("a,b", _ORACLE_CURVES + [(0, 1), (1, 2), (4, 1)])
def test_frobdet_matches_matrix_oracle(a, b):
    """Every good q <= 151, with ell = 5 and 7 (11 in place of q)."""
    for q in primes_up_to(151):
        if _good(a, b, q):
            _frobdet_matches_matrices(a, b, q, [ell if ell != q else 11 for ell in (5, 7)])


@settings(max_examples=30, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30),
       st.sampled_from([p for p in primes_up_to(97) if p > 3]),
       st.sampled_from([5, 7, 11, 13]))
def test_frobdet_matches_matrix_oracle_hypothesis(a, b, q, ell):
    assume(b != 0 and a * a != 4 * b and ell != q)
    try:
        lpoly(a, b, q)
    except BadReduction:
        assume(False)
    _frobdet_matches_matrices(a, b, q, [ell])


@pytest.mark.parametrize("q", [5, 7, 11, 13])
def test_frobdet_matches_matrix_oracle_on_every_curve_mod_q(q):
    """Every good (a, b) mod q, the supersingular E at q = 2 mod 3 included:
    the pair identity agrees with the 20x20 third compound."""
    ell = 7 if q == 5 else 5
    by_matrices, L_Es = {}, set()
    for a in range(q):
        for b in range(1, q):
            if not _good(a, b, q):
                continue
            rec = frobenius_det(a, b, q, ell)
            L = lpoly(a, b, q)
            L_Es.add(L.L_E.coefficients)
            if L.L_C.coefficients not in by_matrices:
                by_matrices[L.L_C.coefficients] = frobenius_det_by_matrices(L.L_C.coefficients, q, ell)
            assert (rec.det_value, rec.det_untwisted, rec.unit_mod_ell) == \
                by_matrices[L.L_C.coefficients], (a, b)
    assert (L_Es == {(1, 0, q)}) == (q % 3 == 2)


def test_frobdet_non_integral_newton_step_is_an_invariant_violation(monkeypatch, capsys):
    """Integral L_E and L_P coefficients always give an integral halving and
    integral Newton steps; a corrupted record that does not must stop the
    computation (exit 4)."""
    real = lpoly(1, 1, 11)
    bad_E = SimpleNamespace(coefficients=(1, Fraction(1, 2), 11))
    monkeypatch.setattr(ffcert, "_lpoly_cached", lambda av, bv, p: replace(real, L_E=bad_E))
    with pytest.raises(InvariantViolation, match="Newton step for e_2 is not integral"):
        frobenius_det(1, 1, 11, 7)
    assert main(["frobdet", "--a", "1", "--b", "1", "--q", "11", "--ell", "7"]) == 4
    assert "Newton step" in capsys.readouterr().out
    # s^P_1^2 - s^P_2 - 4q = 2 a2 - 4q is odd for a2 = 1/2
    bad_P = SimpleNamespace(coefficients=(1, 0, Fraction(1, 2), 0, 121))
    monkeypatch.setattr(ffcert, "_lpoly_cached", lambda av, bv, p: replace(real, L_P=bad_P))
    with pytest.raises(InvariantViolation, match="halving for p_1 is not integral"):
        frobenius_det(1, 1, 11, 7)
    # two numbers with power sums 1, 0 would have e_2 = 1/2
    with pytest.raises(InvariantViolation, match="Newton step for e_2 is not integral"):
        ffcert._elementary_from_power_sums([2, 1, 0], 2)


def test_frobdet_validates_input():
    with pytest.raises(ValueError):
        frobenius_det(1, 1, 11, 6)
    with pytest.raises(ValueError):
        frobenius_det(1, 1, 11, 3)
    with pytest.raises(ValueError):
        frobenius_det(1, 1, 7, 7)
    with pytest.raises(BadReduction):
        frobenius_det(1, 1, 3, 7)


# ---------------------------------------------------------------------------
# certificates

def _frozen_cert():
    return certify_infinite(4, 1)


def test_certify_frozen_search_result():
    cert = _frozen_cert()
    assert (cert.v, cert.ell, cert.q) == (29, 5, 7)
    assert (cert.lift.sigma.x, cert.lift.sigma.y) == (4, 9)
    assert cert.lift.sigma_order == 10
    assert cert.det.det_value == Fraction(44281396224, 1977326743)
    assert cert.det.det_value.denominator == 7**11
    assert cert.det.unit_mod_ell


def test_certificate_round_trip():
    cert = _frozen_cert()
    text = serialize_certificate(cert)
    lines = text.splitlines()
    assert lines[0] == "ceresa-infinitude-certificate v1"
    assert len(lines) == 9
    parsed = parse_certificate(text)
    assert parsed["a"] == 4 and parsed["b"] == 1
    assert parsed["v"] == 29 and parsed["ell"] == 5 and parsed["q"] == 7
    assert parsed["sigma"] == Genus1Point(4, 9)
    assert parsed["sigma_order"] == 10
    assert parsed["det_value"] == Fraction(44281396224, 1977326743)
    ok, reason = validate_certificate(text)
    assert ok, reason
    assert reason == "certificate verified"


def test_certify_hinted_path_matches_search():
    hinted = certify_infinite(4, 1, v=29, ell=5, q=7)
    assert serialize_certificate(hinted) == serialize_certificate(_frozen_cert())


def test_certify_accepts_isomorphic_input():
    """A rescaled model (lambda = 2) gets the same witness data, records the
    caller's coefficients, and the certificate still validates: the checks
    re-canonicalize internally."""
    cert = certify_infinite(4 * 2**6, 1 * 2**12)
    assert (cert.a, cert.b) == (256, 4096)
    base = _frozen_cert()
    assert (cert.v, cert.ell, cert.q) == (base.v, base.ell, base.q)
    assert cert.lift == base.lift and cert.det == base.det
    ok, reason = validate_certificate(serialize_certificate(cert))
    assert ok, reason


_TAMPER_CASES = [
    ("v = 29", "v = 4", "v is not prime"),
    ("v = 29", "v = 3", "bad reduction at v"),
    ("ell = 5", "ell = 4", "ell is not prime"),
    ("ell = 5", "ell = 3", "ell must exceed 3"),
    ("ell = 5", "ell = 29", "ell equals v"),
    ("ell = 5", "ell = 7", "ell does not divide sigma_order"),
    ("q = 7", "q = 8", "q is not prime"),
    ("q = 7", "q = 2", "bad reduction at q"),
    ("q = 7", "q = 5", "q equals ell"),
    ("q = 7", "q = 17", "det_value mismatch"),
    ("q = 7\nsigma = (4, 9)\nsigma_order = 10\ndet_value = 44281396224/1977326743",
     "q = 17\nsigma = (4, 9)\nsigma_order = 10\ndet_value = 227133631872000000/168377826559400929",
     "det is not a unit mod ell"),
    ("sigma = (4, 9)", "sigma = (4, 10)", "sigma mismatch"),
    ("sigma = (4, 9)", "sigma = O", "sigma mismatch"),
    ("sigma_order = 10", "sigma_order = 5", "sigma_order mismatch"),
    ("det_value = 44281396224/1977326743",
     "det_value = 44281396225/1977326743", "det_value mismatch"),
    ("b = 1", "b = 0", "degenerate: Delta=0"),
    # several faults: the first in check order is reported
    ("v = 29\nell = 5\nq = 7", "v = 4\nell = 5\nq = 8", "v is not prime"),
    ("ell = 5\nq = 7", "ell = 7\nq = 8", "ell does not divide sigma_order"),
    ("v = 29\nell = 5", f"v = 4\nell = {PRIMALITY_BOUND}", "v is not prime"),
    ("q = 7\nsigma = (4, 9)", "q = 8\nsigma = (4, 10)", "sigma mismatch"),
]


@pytest.mark.parametrize("old,new,reason", _TAMPER_CASES)
def test_certificate_tamper_detection(old, new, reason):
    text = serialize_certificate(_frozen_cert())
    assert old in text
    tampered = text.replace(old, new)
    ok, msg = validate_certificate(tampered)
    assert not ok
    assert msg == reason


_MALFORMED = [
    "",
    "ceresa-infinitude-certificate v2\n",
    "not a certificate at all\n",
]


def test_certificate_malformed_inputs():
    good = serialize_certificate(_frozen_cert())
    for text in _MALFORMED:
        ok, msg = validate_certificate(text)
        assert not ok and "malformed" in msg
    # dropped field
    dropped = "\n".join(ln for ln in good.splitlines() if not ln.startswith("q =")) + "\n"
    ok, msg = validate_certificate(dropped)
    assert not ok and "malformed" in msg
    # extra field
    extra = good + "extra = 1\n"
    ok, msg = validate_certificate(extra)
    assert not ok and "malformed" in msg
    # bad rational
    ok, msg = validate_certificate(good.replace("a = 4", "a = 4.0"))
    assert not ok and "malformed" in msg
    for field, bad in [("a = 4", "a = 4/0"), ("b = 1", "b = \u0661"),
                       ("det_value = ", "det_value = +-")]:
        ok, msg = validate_certificate(good.replace(field, bad))
        name = field.split()[0]
        assert (ok, msg) == (False, f"malformed certificate: bad rational in {name!r}")
    # bad point syntax
    ok, msg = validate_certificate(good.replace("sigma = (4, 9)", "sigma = 4,9"))
    assert not ok and "malformed" in msg
    # non-integer v
    ok, msg = validate_certificate(good.replace("v = 29", "v = 29/2"))
    assert not ok and "malformed" in msg
    # digits outside ASCII, which int() would read (Arabic-Indic 29 and 4)
    for field, bad, reason in [("v = 29", "v = \u0662\u0669", "bad integer in 'v'"),
                               ("sigma = (4, 9)", "sigma = (\u0664, 9)", "bad sigma")]:
        assert field in good
        assert validate_certificate(good.replace(field, bad)) == (
            False, f"malformed certificate: {reason}")
    # fields out of order
    assert validate_certificate(good.replace("a = 4\nb = 1", "b = 1\na = 4")) == (
        False, "malformed certificate: expected field 'a'")
    # more digits than int() reads (Python 3.11+, and 3.10 from 3.10.7)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        huge = "7" * (limit + 1)
        for field, bad, reason in [
            ("v = 29", f"v = {huge}", "bad integer in 'v'"),
            ("ell = 5", f"ell = {huge}", "bad integer in 'ell'"),
            ("q = 7", f"q = {huge}", "bad integer in 'q'"),
            ("sigma_order = 10", f"sigma_order = {huge}", "bad integer in 'sigma_order'"),
            ("sigma = (4, 9)", f"sigma = ({huge}, 9)", "bad sigma"),
            ("sigma = (4, 9)", f"sigma = (4, -{huge})", "bad sigma"),
            ("det_value = ", f"det_value = {huge}", "bad rational in 'det_value'"),
        ]:
            assert field in good
            assert validate_certificate(good.replace(field, bad)) == (
                False, f"malformed certificate: {reason}")


_HINT_CASES = [
    (dict(v=4), "v is not prime"),
    (dict(v=3), "bad reduction at v"),
    (dict(ell=9), "ell is not prime"),
    (dict(ell=3), "ell must exceed 3"),
    (dict(v=29, ell=29), "ell equals v"),
    (dict(q=9), "q is not prime"),
    (dict(q=3), "bad reduction at q"),
    (dict(ell=5, q=5), "q equals ell"),
    (dict(v=29, ell=7), "ell does not divide sigma_order"),
    (dict(v=29, ell=5, q=17), "det is not a unit mod ell"),
    # several faults: the first in check order is reported
    (dict(v=4, q=9), "v is not prime"),
    (dict(ell=9, q=3), "ell is not prime"),
    (dict(v=3, ell=3), "bad reduction at v"),
]


@pytest.mark.parametrize("hints,reason", _HINT_CASES)
def test_certify_invalid_hints(hints, reason):
    with pytest.raises(InvalidHint) as exc:
        certify_infinite(4, 1, **hints)
    assert str(exc.value) == reason


def test_certify_no_certificate_for_torsion_curve():
    with pytest.raises(NoCertificateFound) as exc:
        certify_infinite(0, 1, V_max=50)
    assert "does not prove torsion" in str(exc.value)


def test_certify_partial_hints():
    cert = certify_infinite(4, 1, ell=5)
    assert cert.ell == 5 and cert.v == 29 and cert.q == 7
    cert_v = certify_infinite(4, 1, v=29)
    assert (cert_v.v, cert_v.ell, cert_v.q) == (29, 5, 7)


# ---------------------------------------------------------------------------
# the certificate search lifts only at v = 2 (mod 3) where v + 1 has an ell

def _t_box(B):
    box = {Fraction(m, n) for n in range(1, B + 1) for m in range(-B, B + 1)}
    return sorted(box - {1, -1})


def _infinite_t_box(B):
    return [t for t in _t_box(B) if decide_ceresa_t(t).status == "infinite"]


def test_certify_search_matches_lifting_at_every_v():
    """Over the t-box with B = 8, and for (4, 1) with ell hinted, the search
    finds the certificate that lifting at every good v finds.  No
    v = 2 (mod 3) below 200 has 13 | v + 1, so with ell = 13 neither finds
    one."""
    hinted = (5, 7, 11, 13, 17, 19, 23)
    cases = [(2 * t, 1, None) for t in _infinite_t_box(8)] + [(4, 1, ell) for ell in hinted]
    for a, b, ell in cases:
        expected = search_every_v(a, b, ell)
        if ell == 13:
            assert not [v for v in primes_up_to(200) if v % 3 == 2 and (v + 1) % 13 == 0]
            assert expected is None
        try:
            cert = certify_infinite(a, b, ell=ell)
        except NoCertificateFound:
            assert expected is None, (a, b, ell)
            continue
        assert serialize_certificate(cert) == certificate_text(expected), (a, b, ell)


def test_certify_search_never_lifts_where_e_has_order_v_plus_1(monkeypatch):
    """At v = 5, 11, 17, 23 the order #E(F_v) = v + 1 is 6, 12, 18 or 24:
    no ell > 3 divides it, so a search never lifts there, nor at any
    v = 1 (mod 3); a hinted v of either kind is still lifted."""
    lifted = []

    def counting_lift_sum(a, b, v):
        lifted.append(v)
        return lift_sum(a, b, v)

    monkeypatch.setattr(ffcert, "lift_sum", counting_lift_sum)
    witnesses = {certify_infinite(2 * t, 1).v for t in _infinite_t_box(4)}
    assert max(witnesses) > 23 and lifted
    assert not {5, 11, 17, 23} & set(lifted)
    assert {v % 3 for v in lifted} == {2}
    for v in (5, 7):
        lifted.clear()
        with pytest.raises(NoCertificateFound):
            certify_infinite(4, 1, v=v)
        assert lifted == [v]
    lifted.clear()
    with pytest.raises(InvalidHint, match="^ell does not divide sigma_order$"):
        certify_infinite(4, 1, v=31, ell=5, q=7)
    assert lifted == [31]


@pytest.mark.parametrize("ell", [None, 5, 7, 13])
def test_certify_v_filter_is_exact_at_every_prime(monkeypatch, ell):
    """The search lifts at every prime v <= PRIME_LIMIT with v = 2 (mod 3)
    where v + 1 has a candidate ell: the hinted one, or else any prime
    factor above 3, and at no other v.  Delta = -48 for (1, 1), so every
    v > 3 is good.  sigma_order = 1 admits no ell, so the search visits
    every v it would lift and then gives up."""
    lifted = []
    monkeypatch.setattr(ffcert, "lift_sum",
                        lambda a, b, v: lifted.append(v) or SimpleNamespace(sigma_order=1))
    with pytest.raises(NoCertificateFound):
        certify_infinite(1, 1, ell=ell, V_max=PRIME_LIMIT)
    assert lifted == [v for v in primes_up_to(PRIME_LIMIT) if v > 3 and v % 3 == 2 and any(
        f > 3 and (v + 1) % f == 0 for f in ([ell] if ell else factorize(v + 1)))]


def test_certify_hint_that_cannot_divide_and_exhausted_searches_exit_codes(capsys):
    for v, ell, q in (("29", "7", "11"), ("31", "5", "7")):  # v = 31 = 1 (mod 3)
        code = main(["certify", "--a", "4", "--b", "1", "--v", v, "--ell", ell, "--q", q])
        assert code == 2 and "ell does not divide sigma_order" in capsys.readouterr().out
    for a in ("11/8", "-11/8"):  # t = 11/16 and -11/16
        assert main(["certify", f"--a={a}", "--b=1"]) == 3
        assert "does not prove torsion" in capsys.readouterr().out
