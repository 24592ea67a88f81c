"""Unit tests for the j = 0 elliptic curve layer y^2 = x^3 + d."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import nextprime

from ceresa.arith import rational_root, rational_roots
from ceresa.elliptic import (
    INFINITY,
    CurvePoint,
    Genus1Point,
    WeierstrassCurveFp,
    WeierstrassCurveQ,
    add,
    divide_point,
    division_poly,
    genus1_add,
    genus1_on_curve,
    genus1_to_weierstrass,
    genus1_weierstrass_d,
    group_order_fp,
    mul,
    neg,
    on_curve,
    order_fp,
    sixth_power_free,
    torsion_j0_Q,
    torsion_points,
    weierstrass_to_genus1,
)


def _random_points_fp(d: int, p: int, rng: random.Random, k: int) -> list[CurvePoint]:
    pts = [CurvePoint(x, y) for x in range(p) for y in range(p)
           if (y * y - x**3 - d) % p == 0]
    return [rng.choice(pts) for _ in range(k)] if pts else []


# ---------------------------------------------------------------------------
# group law

def test_known_multiples_over_q():
    E = WeierstrassCurveQ(Fraction(1))
    P = CurvePoint(Fraction(2), Fraction(3))
    assert on_curve(E, P)
    assert mul(E, 2, P) == CurvePoint(0, 1)
    assert mul(E, 3, P) == CurvePoint(-1, 0)
    assert mul(E, 6, P).inf
    assert mul(E, 0, P).inf
    assert mul(E, -1, P) == CurvePoint(2, -3)
    assert mul(E, 7, P) == P


def test_add_with_infinity_and_inverse():
    E = WeierstrassCurveQ(Fraction(-2))
    P = CurvePoint(Fraction(3), Fraction(5))
    assert on_curve(E, P)
    assert add(E, P, INFINITY) == P
    assert add(E, INFINITY, P) == P
    assert add(E, P, neg(E, P)).inf
    assert neg(E, INFINITY).inf


def test_doubling_nontorsion_grows():
    E = WeierstrassCurveQ(Fraction(-2))
    P = CurvePoint(Fraction(3), Fraction(5))
    Q = mul(E, 2, P)
    assert on_curve(E, Q)
    assert Q.x.denominator > 1  # generic doubling leaves the integers


@pytest.mark.parametrize("d,p", [(1, 7), (3, 11), (9, 13), (5, 31), (17, 41)])
def test_group_law_axioms_fp(d, p):
    E = WeierstrassCurveFp(d, p)
    rng = random.Random(f"axioms-{d}-{p}")
    pts = _random_points_fp(d, p, rng, 25)
    for i in range(0, len(pts) - 2, 3):
        P, Q, R = pts[i], pts[i + 1], pts[i + 2]
        assert add(E, P, Q) == add(E, Q, P)
        assert add(E, add(E, P, Q), R) == add(E, P, add(E, Q, R))
        assert on_curve(E, add(E, P, Q))
        assert add(E, P, neg(E, P)).inf


@pytest.mark.parametrize("d,p", [(1, 7), (2, 11), (4, 13), (11, 17)])
def test_group_and_point_orders_fp(d, p):
    E = WeierstrassCurveFp(d, p)
    N = group_order_fp(E)
    # brute force count agrees
    brute = 1 + sum(1 for x in range(p) for y in range(p)
                    if (y * y - x**3 - d) % p == 0)
    assert N == brute
    for x in range(p):
        for y in range(p):
            if (y * y - x**3 - d) % p == 0:
                P = CurvePoint(x, y)
                o = order_fp(E, P)
                assert N % o == 0
                assert mul(E, o, P).inf
                assert all(not mul(E, k, P).inf for k in range(1, o))
    assert order_fp(E, INFINITY) == 1


# ---------------------------------------------------------------------------
# sixth-power normalization and rational torsion

def test_sixth_power_free():
    assert sixth_power_free(Fraction(64)) == (1, 2)
    assert sixth_power_free(Fraction(1, 64)) == (1, Fraction(1, 2))
    assert sixth_power_free(Fraction(320)) == (5, 2)
    assert sixth_power_free(Fraction(-64)) == (-1, 2)
    assert sixth_power_free(Fraction(7)) == (7, 1)
    d = Fraction(2**7 * 3**13, 5**6)
    d0, u = sixth_power_free(d)
    assert d0 == 6 and u == Fraction(18, 5)
    assert d == d0 * u**6
    with pytest.raises(ValueError):
        sixth_power_free(Fraction(0))


# the cube of a product of two distinct primes near 10^20 and 10^21: a cube
# far beyond the precision of a float cube root
_BIG_CUBE = (nextprime(10**20) * nextprime(10**21)) ** 3


@pytest.mark.parametrize("d,structure", [
    (1, "Z/6"), (64, "Z/6"), (Fraction(1, 64), "Z/6"),
    (4, "Z/3"), (9, "Z/3"), (-432, "Z/3"), (25 * 64, "Z/3"),
    (8, "Z/2"), (27, "Z/2"), (-1, "Z/2"), (-27, "Z/2"),
    (2, "trivial"), (3, "trivial"), (5, "trivial"), (7, "trivial"),
    (-2, "trivial"), (36, "Z/3"), (-3, "trivial"),
    pytest.param(_BIG_CUBE, "Z/2", id="big-cube-Z/2"),
])
def test_torsion_classification(d, structure):
    tor = torsion_j0_Q(Fraction(d))
    assert tor.structure == structure
    E = WeierstrassCurveQ(Fraction(d))
    n = {"trivial": 1, "Z/2": 2, "Z/3": 3, "Z/6": 6}[structure]
    pts = torsion_points(Fraction(d))
    assert len(pts) == n
    assert sum(1 for P in pts if P.inf) == 1
    for P in pts:
        assert on_curve(E, P)
        assert mul(E, n, P).inf
    # the generators generate: distinct multiples
    assert len({(P.inf, P.x, P.y) for P in pts}) == n


def test_torsion_points_closed_under_addition():
    E = WeierstrassCurveQ(Fraction(1))
    pts = torsion_points(Fraction(1))
    key = {(P.inf, P.x, P.y) for P in pts}
    for P in pts:
        for Q in pts:
            S = add(E, P, Q)
            assert (S.inf, S.x, S.y) in key


# ---------------------------------------------------------------------------
# division polynomials

def test_division_poly_small():
    E = WeierstrassCurveQ(Fraction(1))
    psi2 = division_poly(E, 2)
    assert rational_roots(psi2) == [Fraction(-1)]  # (x+1) | x^3 + 1
    psi3 = division_poly(E, 3)
    # 3x(x^3 + 4): rational roots 0 and the cube root of -4 (none)
    assert rational_roots(psi3) == [Fraction(0)]


@pytest.mark.parametrize("d", [1, -2, 5, 36])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_division_poly_roots_are_n_torsion(d, n):
    E = WeierstrassCurveQ(Fraction(d))
    for x0 in rational_roots(division_poly(E, n)):
        y0 = rational_root(x0**3 + d, 2)
        if y0 is None:
            continue  # root corresponds to a point over a quadratic field
        P = CurvePoint(x0, y0)
        assert mul(E, n, P).inf
        assert not P.inf


@pytest.mark.parametrize("d,p", [(1, 7), (1, 13), (3, 11), (36, 13)])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_division_poly_matches_fp_torsion(d, p, n):
    """mod-p roots of the n-division polynomial = x-coords of n-torsion."""
    E = WeierstrassCurveFp(d, p)
    psi = division_poly(WeierstrassCurveQ(Fraction(d)), n)
    roots = {x for x in range(p)
             if sum(c * pow(x, i, p) for i, c in enumerate(psi.coefficients)) % p == 0}
    tors_x = set()
    for x in range(p):
        for y in range(p):
            if (y * y - x**3 - d) % p == 0 and mul(E, n, CurvePoint(x, y)).inf:
                tors_x.add(x)
    assert tors_x == {r for r in roots
                      if any((y * y - r**3 - d) % p == 0 for y in range(p))}


# ---------------------------------------------------------------------------
# point division

def test_divide_point_known():
    E = WeierstrassCurveQ(Fraction(1))
    halves = divide_point(E, 2, CurvePoint(Fraction(0), Fraction(1)))
    assert CurvePoint(Fraction(2), Fraction(3)) in halves
    for P in halves:
        assert mul(E, 2, P) == CurvePoint(0, 1)
    # full rational 2-torsion of y^2 = x^3 + 1
    assert divide_point(E, 2, INFINITY) == [INFINITY, CurvePoint(-1, 0)]


def test_divide_point_empty_when_not_divisible():
    E = WeierstrassCurveQ(Fraction(36))
    Q = CurvePoint(Fraction(-3), Fraction(-3))
    assert on_curve(E, Q)
    for n in (2, 3, 5):
        assert divide_point(E, n, Q) == []


def test_divide_point_validates():
    E = WeierstrassCurveQ(Fraction(1))
    with pytest.raises(ValueError):
        divide_point(E, 0, INFINITY)
    assert divide_point(E, 1, CurvePoint(2, 3)) == [CurvePoint(2, 3)]


def test_rational_sqrt():
    assert rational_root(Fraction(49, 4), 2) == Fraction(7, 2)
    assert rational_root(Fraction(0), 2) == 0
    assert rational_root(Fraction(2), 2) is None
    assert rational_root(Fraction(-4), 2) is None


# ---------------------------------------------------------------------------
# genus-1 model transport

@pytest.mark.parametrize("a,b,p", [(1, 1, 7), (1, 1, 11), (3, 2, 13), (0, 2, 11)])
def test_genus1_transport_roundtrip(a, b, p):
    pts = [Genus1Point(x, y) for x in range(p) for y in range(p)
           if (y**3 - x * x - a * x - b) % p == 0]
    for P in pts:
        assert genus1_on_curve(a, b, P, p)
        W = genus1_to_weierstrass(a, b, P, p)
        assert on_curve(WeierstrassCurveFp(genus1_weierstrass_d(a, b) % p, p), W)
        assert weierstrass_to_genus1(a, b, W, p) == P
    O = Genus1Point.infinity()
    assert genus1_to_weierstrass(a, b, O, p).inf
    assert weierstrass_to_genus1(a, b, INFINITY, p).inf


@pytest.mark.parametrize("a,b,p", [(1, 1, 11), (3, 2, 13)])
def test_genus1_add_matches_transported_add(a, b, p):
    rng = random.Random(f"g1-{a}-{b}-{p}")
    pts = [Genus1Point(x, y) for x in range(p) for y in range(p)
           if (y**3 - x * x - a * x - b) % p == 0] + [Genus1Point.infinity()]
    E = WeierstrassCurveFp(genus1_weierstrass_d(a, b) % p, p)
    for _ in range(40):
        P, Q = rng.choice(pts), rng.choice(pts)
        S = genus1_add(a, b, P, Q, p)
        W = add(E, genus1_to_weierstrass(a, b, P, p), genus1_to_weierstrass(a, b, Q, p))
        assert S == weierstrass_to_genus1(a, b, W, p)
        if not S.inf:
            assert genus1_on_curve(a, b, S, p)


def test_genus1_transport_over_q():
    a, b = Fraction(1), Fraction(1)
    P = Genus1Point(Fraction(0), Fraction(1))  # 1 = 0 + 0 + 1
    assert genus1_on_curve(a, b, P)
    W = genus1_to_weierstrass(a, b, P)
    assert on_curve(WeierstrassCurveQ(Fraction(genus1_weierstrass_d(a, b))), W)
    assert weierstrass_to_genus1(a, b, W) == P
    S = genus1_add(a, b, P, P)
    assert genus1_on_curve(a, b, S)


# ---------------------------------------------------------------------------
# hypothesis: scalar multiplication is a homomorphism over F_p

@given(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=50))
@settings(max_examples=60, deadline=None)
def test_mul_homomorphism_fp(m, n):
    E = WeierstrassCurveFp(5, 31)
    P = next(CurvePoint(x, y) for x in range(31) for y in range(1, 31)
             if (y * y - x**3 - 5) % 31 == 0)
    assert on_curve(E, P)
    assert add(E, mul(E, m, P), mul(E, n, P)) == mul(E, m + n, P)
    assert mul(E, m, mul(E, n, P)) == mul(E, m * n, P)
