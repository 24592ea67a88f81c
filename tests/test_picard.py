"""Unit tests for the curve classification layer: invariants, isomorphism
through canonical models, torsion decision, and the torsion locus on the
t-line."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy import nextprime

from ceresa.arith import (
    IntPolynomial,
    InvariantViolation,
    factor_over_q,
    is_prime,
    primes_up_to,
    roots_mod_p,
)
from ceresa.elliptic import mul, on_curve
from ceresa import arith, picard
from ceresa.picard import (
    TORSION_ORDER_LIMIT,
    DegenerateCurve,
    PicardCurve,
    _certify_locus_factor,
    _exact_order_division_polys,
    _lift_to_t_line,
    _nonsquare_witness,
    _norm_is_square,
    _on_t_line,
    _w_locus,
    associated_curves,
    canonical_model,
    decide_ceresa,
    decide_ceresa_t,
    discriminant,
    enumerate_torsion_locus,
    invariants,
)
from modp_oracle import is_nonsquare_witness_brute, roots_mod_p_brute

_rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=6
)


# ---------------------------------------------------------------------------
# model validation and invariants

def test_degenerate_models_rejected():
    with pytest.raises(DegenerateCurve):
        PicardCurve(Fraction(1), Fraction(0))  # b = 0
    with pytest.raises(DegenerateCurve):
        PicardCurve(Fraction(2), Fraction(1))  # a^2 = 4b
    with pytest.raises(DegenerateCurve):
        PicardCurve(Fraction(-2), Fraction(1))


def test_discriminant_matches_the_formula():
    for a, b in [(1, 1), (2, 1), (6, -3), (Fraction(1, 2), Fraction(-7, 3))]:
        assert discriminant(a, b) == 16 * b * (a * a - 4 * b)


def test_invariants_known():
    inv = invariants(PicardCurve(Fraction(1), Fraction(1)))
    assert inv.delta == -48
    assert inv.j == Fraction(3, 4)
    inv0 = invariants(PicardCurve(Fraction(0), Fraction(5)))
    assert inv0.j == 1


# ---------------------------------------------------------------------------
# isomorphism

# Two curves are isomorphic over Q exactly when their canonical models agree,
# and over the closure exactly when their j-invariants agree.

def _model(c: PicardCurve):
    return canonical_model(c.a, c.b)


@pytest.mark.parametrize("lam", [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 3),
                                 Fraction(nextprime(10**30))])
def test_is_isomorphic_detects_rescaling(lam):
    c1 = PicardCurve(Fraction(1), Fraction(1))
    c2 = PicardCurve(lam**6 * 1, lam**12 * 1)
    assert _model(c1) == _model(c2) == (1, 1)
    # a = 0 family
    d1 = PicardCurve(Fraction(0), Fraction(3))
    d2 = PicardCurve(Fraction(0), lam**12 * 3)
    assert _model(d1) == _model(d2) == (0, 3)


def test_is_isomorphic_negatives():
    c1 = PicardCurve(Fraction(1), Fraction(1))
    for other in [(1, 2), (3, 1), (0, 1)]:
        assert _model(c1) != _model(PicardCurve(*other))
    # (1, 2) is not isomorphic to (1, 1) over the closure either
    assert invariants(c1).j != invariants(PicardCurve(1, 2)).j
    # same j, but not related by lambda^6 over Q
    c3 = PicardCurve(Fraction(2), Fraction(4))  # j = (16-4)/16 = 3/4 too
    assert invariants(c1).j == invariants(c3).j
    assert _model(c1) != _model(c3)


# ---------------------------------------------------------------------------
# associated curves

def test_associated_curves_formulas():
    c = PicardCurve(Fraction(1), Fraction(1))
    assoc = associated_curves(c)
    disc = Fraction(1) - 4
    assert assoc.E.d == 16 * disc
    assert assoc.EDelta.d == 4 * disc**2
    assert assoc.Q.x == disc and assoc.Q.y == disc
    assert on_curve(assoc.EDelta, assoc.Q)


# ---------------------------------------------------------------------------
# torsion decision

def test_decide_known_torsion_cases():
    # a = 0: the marked point is 2-torsion
    v = decide_ceresa(PicardCurve(Fraction(0), Fraction(2)))
    assert v.status == "torsion" and v.q_order == 2
    # a^2 + 12b = 0: 3-torsion
    v = decide_ceresa(PicardCurve(Fraction(6), Fraction(-3)))
    assert v.status == "torsion" and v.q_order == 3
    # a^2 - 36b = 0: 6-torsion
    v = decide_ceresa(PicardCurve(Fraction(6), Fraction(1)))
    assert v.status == "torsion" and v.q_order == 6


def test_decide_infinite_case():
    v = decide_ceresa(PicardCurve(Fraction(1), Fraction(1)))
    assert v.status == "infinite" and v.q_order is None
    assert "infinite order" in v.evidence


@pytest.mark.parametrize("t,order", [(Fraction(0), 2), (Fraction(3), 6), (Fraction(-3), 6)])
def test_decide_t_torsion(t, order):
    v = decide_ceresa_t(t)
    assert v.status == "torsion" and v.q_order == order


@pytest.mark.parametrize("t", [Fraction(2), Fraction(-2), Fraction(4), Fraction(5),
                               Fraction(1, 2), Fraction(7, 3)])
def test_decide_t_infinite(t):
    assert decide_ceresa_t(t).status == "infinite"


def test_decide_t_degenerate():
    for t in (Fraction(1), Fraction(-1)):
        with pytest.raises(DegenerateCurve):
            decide_ceresa_t(t)


@given(_rationals)
@settings(max_examples=60, deadline=None)
def test_decide_t_even_in_t(t):
    if abs(t) == 1:
        return
    v1, v2 = decide_ceresa_t(t), decide_ceresa_t(-t)
    assert v1.status == v2.status and v1.q_order == v2.q_order


def test_torsion_iff_j_in_exceptional_set():
    """Over 50 seeded random models, torsion holds exactly when
    j in {1, 4, -8}, i.e. a = 0, a^2 = -12b, or a^2 = 36b."""
    rng = random.Random("torsion-vs-j")
    seen_torsion = 0
    n = 0
    while n < 50:
        a = Fraction(rng.randint(-10, 10))
        b = Fraction(rng.randint(-10, 10))
        if 16 * b * (a * a - 4 * b) == 0:
            continue
        n += 1
        j = invariants(PicardCurve(a, b)).j
        verdict = decide_ceresa(PicardCurve(a, b))
        assert (verdict.status == "torsion") == (j in (1, 4, -8))
        seen_torsion += verdict.status == "torsion"
    # make sure the seeded sample actually exercised both branches
    assert 0 < seen_torsion < 50


def test_verdict_matches_direct_point_order():
    """The claimed q_order is the actual order of Q on the sextic twist, by
    chord-tangent multiples of Q: the oracle for decide_ceresa's lookup by j.
    Inputs: every (a, b) with |a|, |b| <= 12, every t of the B = 20 box, and
    the order-2, -3 and -6 families (0, s), (6s, -3s^2), (6s, s^2) scaled."""
    box = {Fraction(m, n) for n in range(1, 21) for m in range(-20, 21)} - {1, -1}
    scales = [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(3)]
    models = ([(a, b) for a in range(-12, 13) for b in range(-12, 13)]
              + [(2 * t, 1) for t in box]
              + [ab for s in scales for ab in ((0, s), (6 * s, -3 * s * s), (6 * s, s * s))])
    orders = set()
    for (a, b) in models:
        try:
            c = PicardCurve(a, b)
        except DegenerateCurve:
            continue
        v = decide_ceresa(c)
        assoc = associated_curves(c)
        if v.status == "torsion":
            assert mul(assoc.EDelta, v.q_order, assoc.Q).inf
            for k in range(1, v.q_order):
                assert not mul(assoc.EDelta, k, assoc.Q).inf
        else:
            assert not mul(assoc.EDelta, 6, assoc.Q).inf
        orders.add(v.q_order)
    # every branch of the lookup was reached
    assert orders == {None, 2, 3, 6}


# ---------------------------------------------------------------------------
# canonical model

def test_canonical_model_known():
    assert canonical_model(Fraction(1), Fraction(1)) == (1, 1)
    assert canonical_model(Fraction(64), Fraction(4096)) == (1, 1)
    assert canonical_model(Fraction(0), Fraction(2**12)) == (0, 1)
    assert canonical_model(Fraction(1, 64), Fraction(1, 4096)) == (1, 1)
    assert canonical_model(Fraction(6), Fraction(-3)) == (6, -3)
    with pytest.raises(DegenerateCurve):
        canonical_model(Fraction(2), Fraction(1))


@given(_rationals, _rationals, st.sampled_from([Fraction(2), Fraction(3),
                                                Fraction(1, 2), Fraction(3, 2)]))
@settings(max_examples=60, deadline=None)
def test_canonical_model_is_scaling_invariant(a, b, lam):
    if 16 * b * (a * a - 4 * b) == 0:
        return
    assert canonical_model(a, b) == canonical_model(lam**6 * a, lam**12 * b)


def test_canonical_model_is_reduced():
    ca, cb = canonical_model(Fraction(2**6 * 3, 1), Fraction(2**12 * 5, 1))
    # 2^6 | a and 2^12 | b, so the power of two is stripped
    assert (ca, cb) == (3, 5)
    # a stripped only together with b
    assert canonical_model(Fraction(2**6), Fraction(3)) == (64, 3)
    # v_2(a) = 13, v_2(b) = 12: one 2 leaves, bounded by b
    assert canonical_model(Fraction(2**13 * 3), Fraction(2**12 * 5)) == (2**7 * 3, 5)


# two 23-digit primes: their product lies between 1000^12 and 10 000^12
_P23, _Q23 = 11000000000000000000003, 50000000000000000000021


def test_canonical_model_of_a_45_digit_semiprime_never_factors(monkeypatch):
    """For a = 0, gcd(a^2, b) = b.  Below 10 000^12 no 12th power of a prime
    above 10 000 fits, so trial division decides u = 1 without factorize."""
    assert is_prime(_P23) and is_prime(_Q23)

    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(arith, "factorize", refuse)
    assert canonical_model(Fraction(0), Fraction(_P23 * _Q23)) == (0, _P23 * _Q23)


def test_canonical_model_factors_a_12th_power_above_the_trial_primes(monkeypatch):
    real, calls = arith.factorize, []
    monkeypatch.setattr(arith, "factorize", lambda n: calls.append(n) or real(n))
    assert canonical_model(Fraction(0), Fraction(10007**12 * 5)) == (0, 5)  # u = 10007
    assert calls == [10007**12]


# ---------------------------------------------------------------------------
# torsion locus on the t-line

def test_locus_orders_2_to_6_frozen():
    entries = enumerate_torsion_locus(6)
    by_order = {e.order: [p.coefficients for p in e.t_minimal_polynomials]
                for e in entries}
    assert by_order[2] == [(0, 1)]
    assert by_order[3] == [(3, 0, 1)]
    assert by_order[4] == [(-27, 0, 18, 0, 1)]
    assert by_order[5] == [(729, 0, 0, 0, -1350, 0, 360, 0, 5)]
    assert by_order[6] == [(-3, 1), (3, 1), (243, 0, -405, 0, 225, 0, 1)]


def test_locus_rational_roots_match_decision():
    """Rational parameters in the locus give exactly the claimed order."""
    assert decide_ceresa_t(Fraction(0)).q_order == 2
    assert decide_ceresa_t(Fraction(3)).q_order == 6
    assert decide_ceresa_t(Fraction(-3)).q_order == 6


def test_locus_polynomials_have_no_degenerate_roots():
    for e in enumerate_torsion_locus(6):
        for h in e.t_minimal_polynomials:
            assert h(1) != 0 and h(-1) != 0


def _t_locus(f: list) -> IntPolynomial:
    """The t-locus S(t) = g(t^2 - 1) of an exact-order polynomial
    f(x) = x^r g(x^3) of y^2 = x^3 + 1, as a primitive integer polynomial:
    the definition that factoring in w and lifting is checked against."""
    return _on_t_line(_w_locus(f))


def test_exact_order_polys_are_primitive_integer_lists():
    """Each f_N stays primitive in Z[x], so every division by it is exact
    over Z (Gauss's lemma)."""
    for n, f in _exact_order_division_polys(16).items():
        assert all(type(c) is int for c in f), n
        assert math.gcd(*f) == 1 and f[-1] > 0, n


def test_t_locus_is_the_cube_root_of_the_norm_resultant():
    """Eliminating x from f_N(x) = 0, x^3 = t^2 - 1 by a resultant gives
    (t^2 - 1)^r S_N(t)^3 up to a constant: each t is counted once per cube
    root x, and x = 0 contributes the degenerate t = +-1."""
    x, t = sympy.symbols("x t")
    exact = _exact_order_division_polys(16)
    for n, f in exact.items():
        r = next(i for i, c in enumerate(f) if c)
        res = sympy.Poly(sympy.resultant(sympy.Poly(f[::-1], x).as_expr(),
                                         x**3 - (t**2 - 1), x), t)
        s_n = sympy.Poly(_t_locus(f).coefficients[::-1], t)
        q, rem = sympy.div(res, sympy.Poly((t**2 - 1) ** r, t) * s_n**3)
        assert rem.is_zero and q.is_ground and not q.is_zero, n
        assert s_n.eval(1) != 0 and s_n.eval(-1) != 0


def test_t_locus_rejects_a_polynomial_not_in_x_cubed():
    with pytest.raises(InvariantViolation):
        _t_locus([Fraction(0), Fraction(1), Fraction(1)])  # x + x^2
    with pytest.raises(InvariantViolation):
        _t_locus([Fraction(1), Fraction(0), Fraction(0), Fraction(1), Fraction(1)])


def _sorted_polys(polys):
    return sorted(polys, key=lambda q: (q.degree, q.coefficients))


def test_locus_factors_match_factoring_in_t():
    """Factoring g_N in w and lifting each factor gives the factors of
    S_N(t) = g_N(t^2 - 1) over Q (sympy, through factor_over_q)."""
    for n, f in _exact_order_division_polys(16).items():
        lifted = [s for h in factor_over_q(_w_locus(f).coefficients)
                  for s in _lift_to_t_line(h)]
        assert _sorted_polys(lifted) == _sorted_polys(factor_over_q(_t_locus(f).coefficients)), n


def test_lift_of_w_plus_1_is_factored():
    h = IntPolynomial((1, 1))  # alpha = -1, so h(t^2 - 1) = t^2
    assert _on_t_line(h) == IntPolynomial((0, 0, 1))
    assert _norm_is_square(h)  # the norm is 0
    assert _nonsquare_witness(h) is None  # a + 1 = 0 at every prime, and the search stops
    assert _lift_to_t_line(h) == [IntPolynomial((0, 1))]


def test_lift_of_w_minus_8_splits():
    h = IntPolynomial((-8, 1))  # alpha + 1 = 9
    assert _norm_is_square(h) and _nonsquare_witness(h) is None
    assert _sorted_polys(_lift_to_t_line(h)) == [IntPolynomial((-3, 1)), IntPolynomial((3, 1))]


def test_lift_splits_over_a_quadratic_field():
    """w^2 - 4w - 4 is irreducible, and alpha + 1 = 3 +- 2 sqrt 2 = (1 +- sqrt 2)^2."""
    h = IntPolynomial((-4, -4, 1))
    assert factor_over_q(h.coefficients) == [h]
    assert _norm_is_square(h) and _nonsquare_witness(h) is None
    assert _sorted_polys(_lift_to_t_line(h)) == [IntPolynomial((-1, -2, 1)),
                                                 IntPolynomial((-1, 2, 1))]


def test_lift_proved_by_the_norm_alone():
    h = IntPolynomial((4, 1))  # order 3: alpha + 1 = -3, its own norm
    assert not _norm_is_square(h)
    assert _lift_to_t_line(h) == [IntPolynomial((3, 0, 1))]


def test_lift_of_order_16_proved_by_a_prime_witness():
    g = _w_locus(_exact_order_division_polys(16)[16])
    assert g.degree == 32 and factor_over_q(g.coefficients) == [g]
    assert _norm_is_square(g)
    p, a = _nonsquare_witness(g)
    assert is_nonsquare_witness_brute(g.coefficients, p, a)
    assert _lift_to_t_line(g) == [_on_t_line(g)]
    assert _on_t_line(g).degree == 64


def test_every_prime_witness_checks_by_brute_force():
    """Each witness the search returns for a locus factor with N <= 16 is an
    odd prime not dividing lc(h), with h(a) = 0, h'(a) != 0 and a + 1 a
    non-residue mod p, checked by brute force.  The five factors whose lift
    splits (orders 2, 6, 9, 12 and 15) have none; the other 17 have one."""
    found = 0
    for f in _exact_order_division_polys(16).values():
        for h in factor_over_q(_w_locus(f).coefficients):
            witness = _nonsquare_witness(h)
            if witness is None:
                continue
            p, a = witness
            found += 1
            assert sympy.isprime(p) and p > 2 and h.coefficients[-1] % p
            assert is_nonsquare_witness_brute(h.coefficients, p, a), (h, p, a)
    assert found == 17


def test_locus_certifier_returns_two_good_primes():
    picks = _certify_locus_factor(IntPolynomial((-3, 1)), 6)
    assert len(picks) == 2 and picks[0] != picks[1]
    for p in picks:
        assert is_prime(p) and 36 % p != 0
    picks3 = _certify_locus_factor(IntPolynomial((3, 0, 1)), 3)
    assert len(picks3) == 2


def test_locus_roots_mod_p_match_brute_force():
    for e in enumerate_torsion_locus(10):
        for h in e.t_minimal_polynomials:
            coeffs = list(h.coefficients)
            for p in primes_up_to(400):
                if coeffs[-1] % p:
                    assert roots_mod_p(coeffs, p) == roots_mod_p_brute(coeffs, p), (h, p)


# the witness primes of every locus factor, in entry order, as (degree,
# witnesses); frozen from certifiers that tried every good prime, before the
# N | #E(F_p) filter (N <= 12 from the evaluate-at-every-t root search)
_LOCUS_WITNESSES = {
    2: [(1, (5, 7))],
    3: [(2, (31, 43))],
    4: [(4, (11, 23))],
    5: [(8, (29, 59))],
    6: [(1, (5, 7)), (1, (5, 7)), (6, (31, 43))],
    7: [(4, (67, 73)), (12, (41, 83))],
    8: [(16, (23, 47))],
    9: [(3, (17, 53)), (3, (17, 53)), (18, (307, 919))],
    10: [(24, (29, 59))],
    11: [(40, (131, 197))],
    12: [(4, (11, 23)), (4, (11, 23)), (24, (157, 397))],
    13: [(8, (139, 151)), (48, (233, 311))],
    14: [(12, (67, 73)), (36, (41, 83))],
    15: [(8, (29, 59)), (8, (29, 59)), (48, (2791, 3541))],
    16: [(64, (47, 191))],
}


def test_locus_witness_primes_frozen():
    got = {
        e.order: [(h.degree, _certify_locus_factor(h, e.order)) for h in e.t_minimal_polynomials]
        for e in enumerate_torsion_locus(16)
    }
    assert got == _LOCUS_WITNESSES


def test_locus_certifier_rejects_wrong_order():
    with pytest.raises(InvariantViolation, match="gives order 6, expected 5"):
        _certify_locus_factor(IntPolynomial((-3, 1)), 5)  # t=3 has order 6
    # an order that properly divides N passes N*P = O and fails (N/q)*P != O
    with pytest.raises(InvariantViolation, match="gives order 2, expected 4"):
        _certify_locus_factor(IntPolynomial((0, 1)), 4)  # t=0 has order 2


def test_locus_validates_input():
    with pytest.raises(ValueError):
        enumerate_torsion_locus(1)


def test_locus_order_limit_is_checked_before_any_work(monkeypatch):
    def no_work(n_max):
        raise AssertionError("the limit is checked before any work")

    monkeypatch.setattr(picard, "_exact_order_division_polys", no_work)
    n = TORSION_ORDER_LIMIT + 1
    with pytest.raises(ValueError) as info:
        enumerate_torsion_locus(n)
    assert str(info.value) == f"N_max = {n} exceeds the torsion-order limit {TORSION_ORDER_LIMIT}"
