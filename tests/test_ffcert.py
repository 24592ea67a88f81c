"""Unit tests for finite-field counting, L-polynomials, the lift-set sum,
Frobenius determinants, and infinite-order certificates.

Each [frozen] value below was produced by an independent from-scratch
implementation (naive point loops, direct 6x6/20x20 determinants) and is
asserted bit-exactly; the library must reproduce it, not the other way
round.  Several tests also recompute the same quantity along a second
route inside this file (power sums instead of matrices, a handwritten
extension field instead of ExtField) so that shared bugs cannot hide.
"""

from fractions import Fraction

import mpmath as mp
import pytest

from ceresa.elliptic import Genus1Point, genus1_add
from ceresa.ffcert import (
    BadReduction,
    ExtField,
    InvalidHint,
    NoCertificateFound,
    certify_infinite,
    count_curve,
    frobenius_det,
    lift_sum,
    lpoly,
    parse_certificate,
    serialize_certificate,
    validate_certificate,
)

from jacobian_oracle import two_d_matches_sigma


# ---------------------------------------------------------------------------
# an independent extension-field implementation (deliberately different
# representation: irreducible found by randomless brute force over all
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


def _independent_count(a, b, p, i):
    """#C(F_{p^i}) for y^3 = x^4 + ax^2 + b, recomputed from scratch."""
    if i == 1:
        cubes = {}
        for y in range(p):
            cubes.setdefault(pow(y, 3, p), []).append(y)
        return 1 + sum(len(cubes.get((pow(x, 4, p) + a * x * x + b) % p, []))
                       for x in range(p))
    F = _Field(p, i)
    cubes = {}
    for y in F.elements():
        z = F.mul(y, F.mul(y, y))
        cubes[z] = cubes.get(z, 0) + 1
    ae, be = (a % p,) + (0,) * (i - 1), (b % p,) + (0,) * (i - 1)
    n = 1
    for x in F.elements():
        x2 = F.mul(x, x)
        fx = F.add(F.mul(x2, F.add(x2, ae)), be)
        n += cubes.get(fx, 0)
    return n


# ---------------------------------------------------------------------------
# ExtField

@pytest.mark.parametrize("p,deg", [(5, 2), (5, 3), (7, 2), (11, 2), (7, 3)])
def test_extfield_is_a_field(p, deg):
    F = ExtField(p, deg)
    els = list(F.elements())
    assert len(els) == p**deg
    one = F.embed(1)
    zero = F.embed(0)
    # the nonzero elements form a group of order p^deg - 1 under mul:
    # Fermat for the extension field, plus a spot check of inverses
    x = F.embed(2) if p > 2 else els[3]
    acc = one
    for _ in range(p**deg - 1):
        acc = F.mul(acc, x)
    assert acc == one
    # distributivity spot checks
    u, v, w = els[1], els[p], els[p + 2]
    assert F.mul(u, F.add(v, w)) == F.add(F.mul(u, v), F.mul(u, w))
    assert F.add(u, zero) == u and F.mul(u, one) == u


def test_extfield_modulus_is_lex_smallest_irreducible():
    F = ExtField(5, 2)
    # t^2 + c0 with c0 = 2 is the first irreducible in the (c0, c1) order:
    # t^2, t^2+1 factor; t^2+2 has no root mod 5
    assert F.modulus == (2, 0)


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
    rec = frobenius_det(a, b, q, ell)
    dv, du, unit = _power_sum_route(a, b, q, ell)
    assert rec.det_value == dv
    assert rec.det_untwisted == du
    assert rec.unit_mod_ell == unit


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
    ("sigma = (4, 9)", "sigma = (4, 10)", "sigma mismatch"),
    ("sigma_order = 10", "sigma_order = 5", "sigma_order mismatch"),
    ("det_value = 44281396224/1977326743",
     "det_value = 44281396225/1977326743", "det_value mismatch"),
    ("b = 1", "b = 0", "degenerate: Delta=0"),
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
    # bad point syntax
    ok, msg = validate_certificate(good.replace("sigma = (4, 9)", "sigma = 4,9"))
    assert not ok and "malformed" in msg
    # non-integer v
    ok, msg = validate_certificate(good.replace("v = 29", "v = 29/2"))
    assert not ok and "malformed" in msg


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
