"""Unit tests for the curve classification layer: invariants, isomorphism,
torsion decision, canonical models, and the torsion locus on the t-line."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import nextprime

from ceresa.arith import IntPolynomial, is_prime
from ceresa.elliptic import mul, on_curve
from ceresa.picard import (
    DegenerateCurve,
    PicardCurve,
    _certify_locus_factor,
    associated_curves,
    canonical_model,
    decide_ceresa,
    decide_ceresa_t,
    enumerate_torsion_locus,
    invariants,
    is_isomorphic,
)

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


def test_invariants_known():
    inv = invariants(PicardCurve(Fraction(1), Fraction(1)))
    assert inv.delta == -48
    assert inv.j == Fraction(3, 4)
    inv0 = invariants(PicardCurve(Fraction(0), Fraction(5)))
    assert inv0.j == 1


# ---------------------------------------------------------------------------
# isomorphism

@pytest.mark.parametrize("lam", [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 3),
                                 Fraction(nextprime(10**30))])
def test_is_isomorphic_detects_rescaling(lam):
    c1 = PicardCurve(Fraction(1), Fraction(1))
    c2 = PicardCurve(lam**6 * 1, lam**12 * 1)
    assert is_isomorphic(c1, c2) == lam
    assert is_isomorphic(c2, c1) == 1 / lam
    # a = 0 family
    d1 = PicardCurve(Fraction(0), Fraction(3))
    d2 = PicardCurve(Fraction(0), lam**12 * 3)
    assert is_isomorphic(d1, d2) == lam


def test_is_isomorphic_negatives():
    c1 = PicardCurve(Fraction(1), Fraction(1))
    assert is_isomorphic(c1, PicardCurve(Fraction(1), Fraction(2))) is None
    assert is_isomorphic(c1, PicardCurve(Fraction(3), Fraction(1))) is None
    assert is_isomorphic(c1, PicardCurve(Fraction(0), Fraction(1))) is None
    assert is_isomorphic(PicardCurve(0, 1), c1) is None
    # same j but not related by lambda^6 over Q
    c3 = PicardCurve(Fraction(2), Fraction(4))  # j = (16-4)/16 = 3/4 too
    assert invariants(c1).j == invariants(c3).j
    assert is_isomorphic(c1, c3) is None
    assert is_isomorphic(c1, c3, mode="over-closure") is True


def test_is_isomorphic_over_closure_uses_j():
    c1 = PicardCurve(Fraction(1), Fraction(1))
    c2 = PicardCurve(Fraction(1), Fraction(2))
    assert is_isomorphic(c1, c2, mode="over-closure") is None
    with pytest.raises(ValueError):
        is_isomorphic(c1, c2, mode="nonsense")


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
    """The claimed q_order is the actual order of Q on the sextic twist."""
    for (a, b) in [(0, 2), (6, -3), (6, 1), (2, 1 * 4), (1, 1)]:
        try:
            c = PicardCurve(Fraction(a), Fraction(b))
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


def test_locus_certifier_returns_two_good_primes():
    picks = _certify_locus_factor(IntPolynomial((-3, 1)), 6)
    assert len(picks) == 2 and picks[0] != picks[1]
    for p in picks:
        assert is_prime(p) and 36 % p != 0
    picks3 = _certify_locus_factor(IntPolynomial((3, 0, 1)), 3)
    assert len(picks3) == 2


def test_locus_certifier_rejects_wrong_order():
    with pytest.raises(RuntimeError):
        _certify_locus_factor(IntPolynomial((-3, 1)), 5)  # t=3 has order 6


def test_locus_validates_input():
    with pytest.raises(ValueError):
        enumerate_torsion_locus(1)
