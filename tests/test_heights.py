"""Unit tests for canonical (Néron-Tate) heights on y^2 = x^3 + d."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp

from ceresa import arith, heights, picard
from ceresa.arith import InvariantViolation, factorize
from ceresa.cli import main
from ceresa.elliptic import (
    CurvePoint,
    WeierstrassCurveQ,
    mul,
    neg,
    on_curve,
    torsion_points,
)
from ceresa.heights import (
    _PREC,
    SCAN_B_LIMIT,
    HeightValue,
    _lam_arch,
    _lam_p_coeff,
    _val,
    canonical_height,
    northcott_scan,
)
from ceresa.picard import PicardCurve, associated_curves

from height_oracle import lam_arch_reference, lam_p_coeff_chain, sixth_power_free

# Battery of reference values, frozen from an independent evaluation of the
# local-height definition (naive-height limit telescoped through repeated
# doubling, all local pieces recomputed from scratch).  The cases cover the
# additive-reduction fibers at small primes, a point reducing to the cusp,
# and a curve given with non-integral d.
_BATTERY = [
    (Fraction(-100), (Fraction(5), Fraction(5)), 0.5261242364),
    (Fraction(-15000), (Fraction(25), Fraction(25)), 0.8080048404),
    (Fraction(9), (Fraction(3), Fraction(6)), 0.4073477203),
    (Fraction(17, 64), (Fraction(-1, 4), Fraction(1, 2)), 0.7125521577),
    (Fraction(36), (Fraction(-3), Fraction(-3)), 0.4998946622),
]


@pytest.mark.parametrize("d,pt,expected", _BATTERY)
def test_frozen_battery(d, pt, expected):
    E = WeierstrassCurveQ(d)
    P = CurvePoint(*pt)
    assert on_curve(E, P)
    h = canonical_height(E, P)
    assert h.error_bound <= 1e-9
    assert abs(h.value - expected) <= 5e-10 + h.error_bound


def test_torsion_heights_are_exactly_zero():
    cases = [
        (Fraction(1), CurvePoint(Fraction(2), Fraction(3))),   # order 6
        (Fraction(1), CurvePoint(Fraction(0), Fraction(1))),   # order 3
        (Fraction(1), CurvePoint(Fraction(-1), Fraction(0))),  # order 2
        (Fraction(4), CurvePoint(Fraction(0), Fraction(2))),   # order 3
        (Fraction(-432), CurvePoint(Fraction(12), Fraction(36))),
    ]
    for d, P in cases:
        h = canonical_height(WeierstrassCurveQ(d), P)
        assert h == HeightValue(0.0, 0.0)
    assert canonical_height(WeierstrassCurveQ(Fraction(5)),
                            CurvePoint.infinity()) == HeightValue(0.0, 0.0)


@pytest.mark.parametrize("n", [2, 3, 5, 6, 30])
def test_quadraticity(monkeypatch, n):
    """h(nP) = n^2 h(P), exercising non-integral multiples whose
    denominators pick up new primes of good reduction.  Those primes enter
    as one log term, so factorize sees d * den(d)^6 = 36 once per height
    and nothing else, even at 30P, where the root of den(x) has 196
    digits."""
    real = heights.factorize
    calls = []

    def only_d1(m):
        if m != 36:
            raise AssertionError(f"factorize({m}) called")
        calls.append(m)
        return real(m)

    monkeypatch.setattr(heights, "factorize", only_d1)
    E = WeierstrassCurveQ(Fraction(36))
    P = CurvePoint(Fraction(-3), Fraction(-3))
    hP = canonical_height(E, P)
    hnP = canonical_height(E, mul(E, n, P))
    assert abs(hnP.value - n * n * hP.value) <= n * n * 1e-9
    assert calls == [36, 36]


def test_one_factorization_per_nontorsion_height(monkeypatch):
    """northcott_scan factors one integer per non-torsion ±t pair (t and -t
    share one height), and none for a torsion row, whose height is 0
    without any local terms.  Both bindings are counted: heights' own and
    the one arith's helpers call."""
    real = arith.factorize
    calls = []
    for module in (arith, heights):
        monkeypatch.setattr(module, "factorize", lambda m: calls.append(m) or real(m))
    rows = northcott_scan(12)
    assert len(calls) == len({abs(r.t) for r in rows if r.height.value != 0.0}) > 0


def test_scan_computes_one_height_per_pm_t_pair(monkeypatch):
    """t and -t share E_Delta and Q_{-t} = -Q_t, so the scan computes one
    height per pair; the verdict is still decided for every t, and the two
    rows of a pair agree in everything but t."""
    heights_of, verdicts_of = [], []
    real_height, real_verdict = heights.canonical_height, heights._verdict

    def counted_height(E, P):
        heights_of.append((E.d, P.x, P.y))
        return real_height(E, P)

    monkeypatch.setattr(heights, "canonical_height", counted_height)
    monkeypatch.setattr(heights, "_verdict",
                        lambda c, assoc: verdicts_of.append(c.a / 2) or real_verdict(c, assoc))
    rows = northcott_scan(12)
    by_t = {r.t: r for r in rows}
    assert verdicts_of == [r.t for r in rows]
    assert len(heights_of) == len({abs(t) for t in by_t}) == len(set(heights_of))
    assert len(rows) > len(heights_of) > 0
    for t, r in by_t.items():
        m = by_t[-t]
        assert (r.verdict.status, r.verdict.q_order) == (m.verdict.status, m.verdict.q_order)
        assert (r.height.value, r.height.error_bound) == (m.height.value, m.height.error_bound)


def test_scan_builds_each_curve_once(monkeypatch):
    """One associated_curves per row of the B = 20 box (509 t), shared by the
    verdict and the height.  Both bindings are counted: heights' own and the
    one decide_ceresa calls."""
    real = picard.associated_curves
    calls = []
    for module in (picard, heights):
        monkeypatch.setattr(module, "associated_curves", lambda c: calls.append(c) or real(c))
    rows = northcott_scan(20)
    assert len(calls) == len(rows) == 509


def test_quadraticity_rational_model():
    E = WeierstrassCurveQ(Fraction(17, 64))
    P = CurvePoint(Fraction(-1, 4), Fraction(1, 2))
    hP = canonical_height(E, P)
    h2P = canonical_height(E, mul(E, 2, P))
    assert abs(h2P.value - 4 * hP.value) <= 4e-9


def test_height_positive_for_infinite_order():
    E = WeierstrassCurveQ(Fraction(36))
    P = CurvePoint(Fraction(-3), Fraction(-3))
    assert canonical_height(E, P).value > 0.1


def test_naive_height_converges_to_canonical():
    """h(x(2^k P)) / (2 * 4^k) approaches the canonical height, with the
    Weil height h(m/n) = log max(|m|, n) (the x-coordinate map has degree 2)."""
    E = WeierstrassCurveQ(Fraction(36))
    P = CurvePoint(Fraction(-3), Fraction(-3))
    target = canonical_height(E, P).value
    Q = P
    for _ in range(5):
        Q = mul(E, 2, Q)
    x = Fraction(Q.x)
    est = math.log(max(abs(x.numerator), x.denominator)) / (2 * 4**5)
    assert abs(est - target) < 0.01


def test_northcott_scan_small():
    rows = northcott_scan(4)
    ts = [row.t for row in rows]
    assert ts == sorted(ts)
    assert Fraction(1) not in ts and Fraction(-1) not in ts
    expect = sorted(
        Fraction(m, n)
        for n in range(1, 5)
        for m in range(-4, 5)
        if math.gcd(abs(m), n) == 1 and abs(Fraction(m, n)) != 1
    )
    assert ts == expect
    for row in rows:
        assert (row.verdict.status == "torsion") == (row.height.value == 0.0)
        assert row.height.value >= 0.0


def test_northcott_scan_bound_zero():
    rows = northcott_scan(4, bound=0)
    assert sorted(row.t for row in rows) == [Fraction(-3), Fraction(0), Fraction(3)]
    orders = {row.t: row.verdict.q_order for row in rows}
    assert orders == {Fraction(-3): 6, Fraction(0): 2, Fraction(3): 6}


def test_northcott_scan_validates(monkeypatch):
    with pytest.raises(ValueError):
        northcott_scan(0)
    # the smallest box is t = 0 alone (t = ±1 is degenerate): Q = (-4, 0) of order 2
    [row] = northcott_scan(1)
    assert (row.t, row.verdict.status, row.verdict.q_order) == (0, "torsion", 2)
    assert (row.height.value, row.height.error_bound) == (0.0, 0.0)

    def no_work(c):
        raise AssertionError("the limit is checked before any work")

    monkeypatch.setattr(heights, "associated_curves", no_work)
    B = SCAN_B_LIMIT + 1
    with pytest.raises(ValueError, match=f"^B = {B} exceeds the scan limit {SCAN_B_LIMIT}$"):
        northcott_scan(B)


def test_height_invariant_under_sextic_rescaling():
    """(x, y) -> (u^2 x, u^3 y) onto y^2 = x^3 + u^6 d preserves the height."""
    E1 = WeierstrassCurveQ(Fraction(36))
    P1 = CurvePoint(Fraction(-3), Fraction(-3))
    E2 = WeierstrassCurveQ(Fraction(36 * 2**6))
    P2 = CurvePoint(Fraction(-3 * 4), Fraction(-3 * 8))
    assert on_curve(E2, P2)
    h1, h2 = canonical_height(E1, P1), canonical_height(E2, P2)
    assert abs(h1.value - h2.value) <= 2e-9


# repr of the height, frozen from the doubling-chain implementation of the
# p-adic terms, for points that reach each branch of the closed form
_FROZEN_BITS = [
    # pole at 2 (and -a/3 at 3)
    (Fraction(36), (Fraction(105, 4), Fraction(1077, 8)), "1.9995786487575873"),
    # -a/3 at 5
    (Fraction(-100), (Fraction(5), Fraction(5)), "0.5261242364103362"),
    # -b/8 = -1/4 at 3: the marked point of t = 3/2
    (Fraction(100), (Fraction(5), Fraction(15)), "0.2967051996155455"),
    # non-integral d
    (Fraction(17, 64), (Fraction(-1, 4), Fraction(1, 2)), "0.7125521577028368"),
    # non-integral d, -a/3 at 2 and 3: the marked point of t = 5/7
    (Fraction(36864, 2401), (Fraction(-96, 49), Fraction(-960, 343)), "0.679023684148041"),
]


@pytest.mark.parametrize("d,pt,bits", _FROZEN_BITS)
def test_frozen_float_bits(d, pt, bits):
    assert repr(canonical_height(WeierstrassCurveQ(d), CurvePoint(*pt)).value) == bits


def _negation_battery():
    # the frozen points, which reach every branch of the local terms and
    # the rational-d models 17/64 and 36864/2401, and nP, n in {1, 2, 3, 5},
    # of the integral points with 0 < |d| <= 120, -6 <= x < 60
    out = [(d, CurvePoint(*pt)) for d, pt, _ in _FROZEN_BITS]
    for d in range(-120, 121):
        if d == 0:
            continue
        E = WeierstrassCurveQ(Fraction(d))
        for x in range(-6, 60):
            y = math.isqrt(max(x**3 + d, 0))
            if y > 0 and y * y == x**3 + d:
                P = CurvePoint(Fraction(x), Fraction(y))
                out += [(Fraction(d), mul(E, n, P)) for n in (1, 2, 3, 5)]
    return out


def test_height_of_negative_point_has_the_same_bits():
    """h(-P) = h(P) as floats, not only up to the error bound: the height
    reads y only through y = 0 mod p and v_p(2y).  The scan relies on it
    to share one height between t and -t."""
    battery = _negation_battery()
    assert len(battery) > 600
    # the battery reaches a nonzero cusp term: -a/3 = -1/3 at 5 for (5, 5)
    assert _lam_p_coeff(Fraction(5), Fraction(5), -100, 5) == Fraction(-1, 3)
    assert (Fraction(-100), CurvePoint(Fraction(5), Fraction(5))) in battery
    for d, P in battery:
        E = WeierstrassCurveQ(d)
        assert repr(canonical_height(E, neg(E, P))) == repr(canonical_height(E, P)), (d, P)


def _arch_inputs_box(B):
    # (x, d0) of every non-torsion marked point of the t-box, as
    # canonical_height hands it to the archimedean series
    out = []
    for t in {Fraction(m, n) for n in range(1, B + 1) for m in range(-B, B + 1)} - {1, -1}:
        assoc = associated_curves(PicardCurve(2 * t, Fraction(1)))
        E, Q = assoc.EDelta, assoc.Q
        if Q not in torsion_points(E.d):
            d0, u = sixth_power_free(Fraction(E.d))
            out.append((Fraction(Q.x) / u**2, d0))
    return out


def _arch_inputs_multiples():
    # nP, n <= 5, of the non-torsion integral points with x < 200 on
    # y^2 = x^3 + d, |d| <= 60 (each d is its own 6th-power-free model)
    out = []
    for d in range(-60, 61):
        if d == 0:
            continue
        E = WeierstrassCurveQ(Fraction(d))
        for x in range(-4, 200):
            y = math.isqrt(max(x**3 + d, 0))
            P = CurvePoint(Fraction(x), Fraction(y))
            if y * y == x**3 + d and P not in torsion_points(E.d):
                out += [(Fraction(mul(E, n, P).x), d) for n in range(1, 6)]
    return out


def _arch_inputs_near_two_torsion():
    # x close to the real root of x^3 + d, where |4x^3 + 4d| is small and
    # the log term of the summand is large and negative; the last d has 88
    # bits, so it is rounded on entry to the series
    out = []
    for d in (2, -5, 17):
        root = Fraction(-math.copysign(abs(d) ** (1 / 3), d))
        out += [(root.limit_denominator(10**k), d) for k in (2, 5, 8, 12, 15)]
    k = 2**29 + 5
    return out + [(Fraction(-k), k**3 + 4)]


def test_lam_arch_bits_match_operator_reference():
    """The raw mpmath.libmp series is the mpf-operator series bit for bit."""
    cases = _arch_inputs_box(12) + _arch_inputs_multiples() + _arch_inputs_near_two_torsion()
    assert len(cases) > 400
    with mp.workprec(_PREC):
        for x, d in cases:
            assert _lam_arch(x, d) == lam_arch_reference(x, d)._mpf_, (x, d)


def test_lam_arch_rejects_exact_two_torsion():
    with pytest.raises(InvariantViolation, match="2-torsion"):
        _lam_arch(Fraction(-1), 1)


@pytest.mark.parametrize("d,x", [(10**30 + 1, -10**10), ((2**29 + 3)**3 + 1, -(2**29 + 3))])
def test_lam_arch_survives_rounding_zero_at_large_d(capsys, d, x):
    """x^3 + d = 1, but 4x^3 + 4d rounds to 0 at _PREC bits; the point is
    not 2-torsion, so the height is computed, not refused."""
    assert main(["height", f"--d={d}", f"--x={x}", "--y=1"]) == 0
    bound = json.loads(capsys.readouterr().out)["error_bound"]
    d0, u = sixth_power_free(Fraction(d))
    x0 = Fraction(x) / u**2
    with mp.workprec(300):
        assert abs(mp.mpf(_lam_arch(x0, d0)) - lam_arch_reference(x0, d0)) <= bound


def _assert_terms_match_oracle(d, P, steps=8):
    # every p-adic term of canonical_height, on its 6th-power-free model: a
    # prime of root = sqrt(den(x)) contributes v_p(root) to the log root
    # term, any other prime of 6*d0 the closed form
    d0, u = sixth_power_free(Fraction(d))
    x, y = Fraction(P.x) / u**2, Fraction(P.y) / u**3
    root = math.isqrt(x.denominator)
    assert root * root == x.denominator
    for p in sorted(set(factorize(6 * d0)) | set(factorize(root))):
        chain = lam_p_coeff_chain(x, y, d0, p, steps)
        if root % p == 0:
            assert chain == _val(Fraction(root), p), (d, P, p)
        else:
            assert _lam_p_coeff(x, y, d0, p) == chain, (d, P, p)


@settings(max_examples=60, deadline=None)
@given(st.integers(-30, 30), st.integers(1, 60),
       st.integers(0, 3), st.integers(0, 3), st.integers(0, 4), st.integers(0, 4))
def test_lam_p_matches_doubling_chain_oracle(x1, y1, i, j, k, l):
    """The closed form equals the unwound doubling chain on integral points
    and their multiples kP, k <= 5.  x and y carry independent powers of 2
    and 3, so v_2(d0) and v_3(d0) run through their classes.  Three
    doublings keep the exact chain small: on these models a chain leaves
    the cusp at its first step or never."""
    x, y = x1 * 2**i * 3**j, y1 * 2**k * 3**l
    d = Fraction(y * y - x**3)
    assume(d != 0)
    E = WeierstrassCurveQ(d)
    P = CurvePoint(Fraction(x), Fraction(y))
    assume(P not in torsion_points(d))
    for n in range(1, 6):
        _assert_terms_match_oracle(d, mul(E, n, P), steps=3)


@pytest.mark.parametrize("d,pt", [
    # d0 = 16k with k = 1 mod 4: the model is not minimal at 2, and the
    # point sits in the cusp there with v_2(psi_3) >= 3 v_2(psi_2)
    (80, (-4, 4)),
    (-48, (4, 4)),
    # v_3(d0) = 5: no integral point reduces to the cusp at 3
    (25758, (-29, 37)),
])
def test_lam_p_matches_oracle_on_special_models(d, pt):
    E = WeierstrassCurveQ(Fraction(d))
    P = CurvePoint(Fraction(pt[0]), Fraction(pt[1]))
    assert on_curve(E, P) and sixth_power_free(Fraction(d)) == (d, 1)
    _assert_terms_match_oracle(d, P)
    for n in (2, 3):
        _assert_terms_match_oracle(d, mul(E, n, P), steps=3)


@pytest.mark.parametrize("p,expected", [(2, Fraction(-1, 2)), (3, Fraction(-3, 4)),
                                        (5, Fraction(-1, 2)), (7, Fraction(-1, 2))])
def test_lam_p_at_high_valuation(p, expected):
    """y = 2p^200 on y^2 = x^3 + d with x = -p: v_p(psi_2) = 200 + v_p(4)
    is far beyond any fixed p-adic working precision; the point leaves the
    cusp in one doubling."""
    x, y = Fraction(-p), Fraction(2 * p**200)
    d = 4 * p**400 + p**3
    assert y * y == x**3 + d
    assert _lam_p_coeff(x, y, d, p) == lam_p_coeff_chain(x, y, d, p) == expected
