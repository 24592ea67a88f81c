"""Finite-field certification of infinite-order Ceresa cycles.

Point counts of y^3 = x^4 + ax^2 + b over F_{p^i} (i <= 3), L-polynomials
in O(p^2) from the splitting Jac(C) ~ E x P into the genus-1 quotient and
the Prym surface, the lift-set sum sigma on the genus-1 quotient whose
pushforward is 2D (#C(F_p) and the lift set are read from the same fibres
of the double cover w = x^2 onto that quotient), the exact Frobenius
determinant det(Fr_q - 1) on V = H^3(J)(2) + H^1(C)(1) (from the pairing
(r, q/r) of the Frobenius roots of L_E and L_P: 12 of the 20 triple
products are q r, and power sums give the other 8, with no matrices), and
assembly, search, and independent re-validation of infinite-order
certificates.  The search lifts only at primes v = 2 (mod 3) where
v + 1 = #E(F_v), a multiple of sigma_order, has a usable ell: at
v = 1 (mod 3) sigma has order dividing 3.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import (
    PRIMALITY_BOUND,
    IntPolynomial,
    InvariantViolation,
    Rational,
    cube_root_table,
    factorize,
    inv_mod,
    is_prime,
    parse_rational,
    poly_mul,
    primes_up_to,
    rat_str,
)
from .elliptic import (
    CurvePoint,
    Genus1Point,
    WeierstrassCurveFp,
    add,
    genus1_on_curve,
    genus1_weierstrass_d,
    genus1_to_weierstrass,
    group_order_fp,
    order_fp,
    weierstrass_to_genus1,
)
from .picard import DegenerateCurve, canonical_model, discriminant


class BadReduction(Exception):
    """The prime divides 6 or the discriminant of the canonical model."""


class NoCertificateFound(Exception):
    """Search exhausted without a witness.  Not a proof of torsion."""


class InvalidHint(Exception):
    """A user-supplied (v, ell, q) hint fails a named check."""


# The largest prime accepted for p, v and q (and for the search bound
# V_max): lpoly at this size takes about 2 s, and lpoly is O(p^2).
PRIME_LIMIT = 1500


def _check_size(p: int, what: str):
    if p > PRIME_LIMIT:
        raise ValueError(f"{what} = {p} exceeds the prime limit {PRIME_LIMIT}")


# ---------------------------------------------------------------------------
# counting

@dataclass(frozen=True)
class CountRecord:
    a: int
    b: int
    p: int
    i: int
    curve_count: int


def _count_fp2(av: int, bv: int, p: int) -> int:
    """#C(F_{p^2}) in O(p^2).  F_{p^2} = F_p(s) with s^2 = n, the smallest
    non-residue; u + v s is stored as the int u + v p.  One table holds the
    number of cube roots of every element, filled by cubing every element.
    f(x) = w(w + a) + b depends only on w = x^2, and x, -x give the same w,
    so the rows v = 1 .. (p-1)/2 of x = u + v s stand for their negatives."""
    n = 2
    while pow(n, (p - 1) // 2, p) == 1:
        n += 1
    us = range(p)
    sq = [u * u % p for u in us]
    cu = [u * s % p for u, s in zip(us, sq)]
    # (u + v s)^3 = (u^3 + 3 n v^2 u) + (3 v u^2 + n v^3) s
    cubes = bytearray(p * p)
    for v in us:
        k, v3, nv3 = 3 * n * v * v % p, 3 * v, n * v * v * v % p
        for z in [(c + k * u) % p + (v3 * s + nv3) % p * p for u, s, c in zip(us, sq, cu)]:
            cubes[z] += 1
    # x^2 = (u^2 + n v^2) + 2 u v s = w0 + w1 s, and
    # f = (w0 (w0 + a) + n w1^2 + b) + w1 (2 w0 + a) s
    total = 1
    for v in range((p + 1) // 2):
        k, tv = n * v * v, 2 * v
        row = sum([cubes[(w0 * (w0 + av) + n * w1 * w1 + bv) % p + w1 * (2 * w0 + av) % p * p]
                   for w0, w1 in zip([s + k for s in sq], [tv * u for u in us])])
        total += 2 * row if v else row
    return total


def _fibres(av: int, bv: int, p: int) -> tuple[list[int], list[tuple[int, int]]]:
    """The fibres of the double cover (x, y) -> (w, y) = (x^2, y) from
    C: y^3 = x^4 + av x^2 + bv onto y^3 = w^2 + av w + bv over F_p: the y
    above x = 0, and the (w, y) above x = 1 .. (p-1)/2.  x and -x give the
    same (w, y), so each pair stands for two affine points of C."""
    roots = cube_root_table(p)
    pairs = []
    for x in range(1, (p + 1) // 2):
        w = x * x % p
        for y in roots.get((w * w + av * w + bv) % p, ()):
            pairs.append((w, y))
    return roots.get(bv, []), pairs


def rat_mod_p(r, p: int) -> int:
    """The residue of an int or Fraction r mod the prime p."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    if r.denominator % p == 0:
        raise ValueError(f"denominator of {rat_str(r)} is not invertible mod {p}")
    return r.numerator * inv_mod(r.denominator % p, p) % p


def count_curve(a, b, p: int, i: int) -> CountRecord:
    """#C(F_{p^i}) for C: y^3 = x^4 + ax^2 + b, as 1 + sum over x of the
    number of cube roots of x^4 + ax^2 + b (one smooth point at infinity).
    Rational a and b are reduced mod p first.  Over F_p the sum is read off
    the fibres of w = x^2 that lift_sum also walks: 1 + #(y above x = 0)
    + 2 #(pairs (w, y)).  Over F_{p^3} the count is read off the
    L-polynomial, whose unknowns the counts over F_p and F_{p^2} fix."""
    if i not in (1, 2, 3):
        raise ValueError("extension degree must be 1, 2, or 3")
    av, bv = rat_mod_p(a, p), rat_mod_p(b, p)
    _check_good(p, discriminant(av, bv))

    size = p**i
    if size % 3 == 2:
        # cubing is a bijection: exactly one y above every x
        n = size + 1
    elif i == 1:
        ys, pairs = _fibres(av, bv, p)
        n = 1 + len(ys) + 2 * len(pairs)
    elif i == 2:
        n = _count_fp2(av, bv, p)
    else:
        n = size + 1 - _power_sums(_lpoly_cached(av, bv, p).L_C.coefficients, 3)[3]

    if (n - size - 1) ** 2 > 36 * size:
        raise InvariantViolation(f"Weil bound violated: {n} points over F_{p}^{i}")
    return CountRecord(av, bv, p, i, n)


# ---------------------------------------------------------------------------
# L-polynomials

@dataclass(frozen=True)
class LPolyRecord:
    p: int
    L_C: IntPolynomial
    L_E: IntPolynomial
    L_P: IntPolynomial


def _good_int_model(a, b) -> tuple[int, int, int]:
    """Canonical integral model and its discriminant 16 b (a^2 - 4b)."""
    ai, bi = canonical_model(a, b)
    return ai, bi, discriminant(ai, bi)


def _check_good(p: int, delta: int, what: str = "p"):
    if not is_prime(p):
        raise ValueError(f"{what} must be prime")
    _check_size(p, what)
    if (6 * delta) % p == 0:
        raise BadReduction(f"bad reduction at {p}")


@lru_cache(maxsize=4096)
def _lpoly_cached(av: int, bv: int, p: int) -> LPolyRecord:
    """L_C = L_E * L_P for the curve with coefficients reduced mod p, so
    that curves congruent mod p share the entry.  Jac(C) is isogenous to
    E x P, so L_P = 1 - a1 T + a2 T^2 - p a1 T^3 + p^2 T^4 has two
    unknowns: the power sums of the Frobenius roots over F_p and F_{p^2}
    are those of E plus those of P."""
    c1 = count_curve(av, bv, p, 1).curve_count
    c2 = count_curve(av, bv, p, 2).curve_count
    ap = p + 1 - group_order_fp(WeierstrassCurveFp(genus1_weierstrass_d(av, bv) % p, p))
    a1 = p + 1 - c1 - ap
    s2P = p * p + 1 - c2 - (ap * ap - 2 * p)
    a2, r = divmod(a1 * a1 - s2P, 2)
    if r:
        raise InvariantViolation(f"Prym coefficient a2 is not integral at p={p}")
    L_E = IntPolynomial((1, -ap, p))
    L_P = IntPolynomial((1, -a1, a2, -p * a1, p * p))
    L_C = IntPolynomial(tuple(poly_mul(L_E.coefficients, L_P.coefficients)))

    if not (L_C(1) > 0 and L_E(1) > 0 and L_P(1) > 0):
        raise InvariantViolation(f"L-polynomial without points at p={p}")
    if any(L_C.coefficients[6 - k] != p ** (3 - k) * L_C.coefficients[k] for k in range(4)):
        raise InvariantViolation(f"L_C fails the functional equation at p={p}")
    return LPolyRecord(p, L_C, L_E, L_P)


def lpoly(a, b, p: int) -> LPolyRecord:
    """L-polynomial of C over F_p in O(p^2), factored as L_E * L_P with L_E
    from the genus-1 quotient's Weierstrass model and L_P, the Prym factor,
    from the counts of C over F_p and F_{p^2}."""
    ai, bi, delta = _good_int_model(a, b)
    _check_good(p, delta)
    return _lpoly_cached(ai % p, bi % p, p)


# ---------------------------------------------------------------------------
# lift-set sum

@dataclass(frozen=True)
class LiftSumResult:
    v: int
    sigma: Genus1Point
    sigma_order: int
    lift_set_size: int
    ramified_contributions: tuple[Genus1Point, ...]


def lift_sum(a, b, v: int) -> LiftSumResult:
    """On the genus-1 model E: y^3 = x^2 + ax + b over F_v (origin = image
    of infinity), the sum

        sigma = sum of pi(r) over rational ramification points r != oo
                + 2 * sum over the lift set,

    where pi(x, y) = (x^2, y) on C(F_v) and the lift set is the set of
    non-branch image points.  By the pairing of (x, y) with (-x, y),
    2D = pi^*(sigma) in J(F_v).  The lift set is summed once and the sum
    doubled.  Orders are taken on the Weierstrass model
    y^2 = x^3 + 16(a^2 - 4b), so sigma_order divides its #E(F_v)."""
    ai, bi, delta = _good_int_model(a, b)
    _check_good(v, delta, "v")
    av, bv = ai % v, bi % v

    ys, lift = _fibres(av, bv, v)
    ram = tuple(Genus1Point(0, y) for y in ys)

    d_e = genus1_weierstrass_d(av, bv) % v
    Ew = WeierstrassCurveFp(d_e, v)
    total = CurvePoint.infinity()
    for (x, y) in lift:
        total = add(Ew, total, genus1_to_weierstrass(av, bv, Genus1Point(x, y), v))
    total = add(Ew, total, total)
    for r in ram:
        total = add(Ew, total, genus1_to_weierstrass(av, bv, r, v))

    sigma = weierstrass_to_genus1(av, bv, total, v)
    if not sigma.inf and not genus1_on_curve(av, bv, sigma, v):
        raise InvariantViolation(f"lift sum {sigma} is off the genus-1 curve mod {v}")
    return LiftSumResult(v, sigma, order_fp(Ew, total), len(lift), ram)


# ---------------------------------------------------------------------------
# Frobenius determinant

@dataclass(frozen=True)
class FrobeniusDetResult:
    q: int
    ell: int
    det_value: Rational
    unit_mod_ell: bool
    det_untwisted: int


def _exact_div(n, d: int, what: str):
    quotient, r = divmod(n, d)
    if r:
        raise InvariantViolation(f"{what} is not integral")
    return quotient


def _power_sums(cs, n: int) -> list:
    """s_0 .. s_n, the power sums of the roots of T^d L(1/T), for the
    coefficients cs = (1, c_1, .., c_d) of L: by Newton's identities
    s_k = -(c_1 s_(k-1) + .. + c_(k-1) s_1) - k c_k, with c_k = 0 past d."""
    d = len(cs) - 1
    s = [d]
    for k in range(1, n + 1):
        acc = -sum(cs[j] * s[k - j] for j in range(1, min(k - 1, d) + 1))
        s.append(acc - k * cs[k] if k <= d else acc)
    return s


def _elementary_from_power_sums(s: list, n: int) -> list:
    """e_0 .. e_n of n numbers from their power sums s[1..n], by Newton's
    identities k e_k = sum_{j=1..k} (-1)^(j-1) e_(k-j) s_j."""
    e = [1]
    for k in range(1, n + 1):
        acc = sum((-1) ** (j - 1) * e[k - j] * s[j] for j in range(1, k + 1))
        e.append(_exact_div(acc, k, f"Newton step for e_{k}"))
    return e


def _char_value(e: list, c: int) -> int:
    """prod (c - x) over the numbers x with elementary symmetric functions
    e: sum_k (-1)^k e_k c^(n-k)."""
    out = 0
    for k, ek in enumerate(e):
        out = out * c + (-1) ** k * ek
    return out


def frobenius_det(a, b, q: int, ell: int) -> FrobeniusDetResult:
    """det(Fr_q - 1) on V = H^3(J)(2) + H^1(C)(1), computed exactly from the
    L-polynomial factors L_E and L_P with no matrices.

    The six Frobenius roots on H^1 pair up as (r, q/r): one pair from L_E,
    two from L_P.  Of the 20 triple products (the roots on H^3(J)), the 12
    that contain a whole pair are q r, each root r twice, and the other 8
    take one root from each pair.  So chi_3 = chi_8 * prod_r (T - q r)^2,
    where chi_8, of those 8 products, has the power sums

        p_k = s^E_k (s^P_k^2 - s^P_2k - 4 q^k) / 2

    from the power sums s^E, s^P of the roots of L_E and L_P, and Newton's
    identities give chi_8 from p_1 .. p_8.  With chi the characteristic
    polynomial on H^1 (reciprocal of L_C),

        det_value = chi(q) / q^6 * chi_3(q^2) / q^40,
        chi_3(q^2) = chi_8(q^2) q^12 chi(q)^2,

    and det_untwisted = chi(1) * chi_3(1), with chi_3(1) = chi_8(1) L_C(q)^2,
    is the same product without the Tate twists.  unit_mod_ell tests that
    both the numerator and the denominator of det_value are coprime to ell."""
    if not is_prime(ell):
        raise ValueError("ell must be prime")
    if ell <= 3:
        raise ValueError("ell must exceed 3")
    if ell == q:
        raise ValueError("ell must differ from q")
    _check_size(q, "q")
    if not is_prime(q):
        raise ValueError("q must be prime")
    rec = lpoly(a, b, q)
    sE = _power_sums(rec.L_E.coefficients, 8)
    sP = _power_sums(rec.L_P.coefficients, 16)
    p8 = [8] + [sE[k] * _exact_div(sP[k] ** 2 - sP[2 * k] - 4 * q**k, 2,
                                   f"halving for p_{k}") for k in range(1, 9)]
    e8 = _elementary_from_power_sums(p8, 8)

    L_C = rec.L_C
    det6 = sum(c * q ** (6 - k) for k, c in enumerate(L_C.coefficients))  # chi(q)
    det20 = _char_value(e8, q * q) * q**12 * det6**2
    det_value = Fraction(det6, q**6) * Fraction(det20, q**40)

    det_untwisted = L_C(1) * _char_value(e8, 1) * L_C(q) ** 2

    unit = det_value != 0 and det_value.numerator % ell != 0 and det_value.denominator % ell != 0
    return FrobeniusDetResult(q, ell, det_value, unit, det_untwisted)


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class InfinitudeCertificate:
    a: Rational
    b: Rational
    v: int
    ell: int
    q: int
    lift: LiftSumResult
    det: FrobeniusDetResult
    evidence: str


_EVIDENCE = (
    "sigma has order divisible by ell; ker(pi^*) has order dividing 4 and "
    "ell > 3 is odd, so ell divides the order of D with 2D = pi^*(sigma); "
    "det(Fr_q - 1) on V is a unit mod ell, so H^1(Gal_Q, V) has no "
    "ell-torsion and the Abel-Jacobi class of the Ceresa cycle is non-torsion."
)


def _witness_failure(delta: int, v: int | None = None, ell: int | None = None,
                     q: int | None = None) -> str | None:
    """The first condition that (v, ell, q) fails as a witness for a curve
    of discriminant delta, or None: v and q good primes, ell a prime above
    3 and below PRIMALITY_BOUND, and ell different from v and q.  A slot
    left as None is skipped."""
    if v is not None:
        if not is_prime(v):
            return "v is not prime"
        if (6 * delta) % v == 0:
            return "bad reduction at v"
    if ell is not None:
        if ell <= 3:
            return "ell must exceed 3"
        if ell >= PRIMALITY_BOUND:  # where is_prime would raise
            return "ell exceeds the primality bound"
        if not is_prime(ell):
            return "ell is not prime"
        if ell == v:
            return "ell equals v"
    if q is not None:
        if not is_prime(q):
            return "q is not prime"
        if (6 * delta) % q == 0:
            return "bad reduction at q"
        if q == ell:
            return "q equals ell"
    return None


def certify_infinite(a, b, v: int | None = None, ell: int | None = None,
                     q: int | None = None, V_max: int = 200) -> InfinitudeCertificate:
    """An independently checkable witness that the Ceresa cycle of
    y^3 = x^4 + ax^2 + b has infinite order: a good prime v where the
    lift-set sum has order divisible by a prime ell > 3, and a good
    auxiliary prime q != ell where det(Fr_q - 1) on V is a unit mod ell.

    With hints, each is validated and the failing check is named in
    InvalidHint; unhinted slots are searched in ascending lexicographic
    (v, ell, q) order up to V_max.  A searched v is lifted only if
    v = 2 (mod 3) and v + 1 has a candidate ell (the hinted one, or else a
    prime above 3), since sigma_order divides v + 1 or 3:
    - v = 2 (mod 3): cubing permutes F_v, so E: y^2 = x^3 + d has one point
      above each y, and #E(F_v) = v + 1 for every curve.
    - v = 1 (mod 3): F_v holds a cube root of unity zeta; y -> zeta y maps
      the lift set and the ramified points to themselves and induces an
      automorphism alpha of E fixing O, with 1 + alpha + alpha^2 = 0.  Each
      orbit of 3 points sums to O, so sigma lies in ker(1 - alpha), of order 3.
    Raises NoCertificateFound when the search is exhausted — which is NOT a
    proof of torsion.  A v, q or V_max above PRIME_LIMIT raises ValueError
    naming it, and so does a V_max below 5, which bounds no good prime."""
    if V_max < 5:
        raise ValueError("V_max must be >= 5")
    for value, what in ((v, "v"), (q, "q"), (V_max, "V_max")):
        if value is not None:
            _check_size(value, what)
    a, b = Fraction(a), Fraction(b)
    ai, bi, delta = _good_int_model(a, b)
    reason = _witness_failure(delta, v, ell, q)
    if reason:
        raise InvalidHint(reason)

    hinted = v is not None and ell is not None and q is not None
    primes = [p for p in primes_up_to(V_max) if (6 * delta) % p]
    searched = [p for p in primes if p % 3 == 2 and any(
        f > 3 and (p + 1) % f == 0
        for f in ([ell] if ell is not None else factorize(p + 1)))]
    for v_try in [v] if v is not None else searched:
        lift = lift_sum(ai, bi, v_try)
        n = lift.sigma_order
        ells = [ell] if ell is not None else factorize(n)
        ells = [f for f in ells if f > 3 and f != v_try and n % f == 0]
        if v is not None and ell is not None and not ells:
            raise InvalidHint("ell does not divide sigma_order")
        for ell_try in ells:
            for q_try in [q] if q is not None else primes:
                if q_try == ell_try:
                    continue
                det = frobenius_det(ai, bi, q_try, ell_try)
                if det.unit_mod_ell:
                    return InfinitudeCertificate(a, b, v_try, ell_try, q_try,
                                                 lift, det, _EVIDENCE)
                if hinted:
                    raise InvalidHint("det is not a unit mod ell")
    raise NoCertificateFound(
        f"no witness with v, q <= {V_max}; this does not prove torsion"
    )


_CERT_HEADER = "ceresa-infinitude-certificate v1"
_CERT_FIELDS = ("a", "b", "v", "ell", "q", "sigma", "sigma_order", "det_value")


def certificate_fields(cert: InfinitudeCertificate) -> dict:
    """The certificate's fields in canonical text form: rationals and sigma
    as strings, the primes and sigma_order as ints."""
    return {
        "a": rat_str(cert.a),
        "b": rat_str(cert.b),
        "v": cert.v,
        "ell": cert.ell,
        "q": cert.q,
        "sigma": repr(cert.lift.sigma),
        "sigma_order": cert.lift.sigma_order,
        "det_value": rat_str(cert.det.det_value),
    }


def certificate_text(fields: dict) -> str:
    """The canonical text form from certificate_fields, or from any mapping
    holding the same values."""
    lines = [_CERT_HEADER] + [f"{name} = {fields[name]}" for name in _CERT_FIELDS]
    return "\n".join(lines) + "\n"


def serialize_certificate(cert: InfinitudeCertificate) -> str:
    return certificate_text(certificate_fields(cert))


_PT_RE = re.compile(r"^\((-?\d+), (-?\d+)\)$", re.ASCII)


def parse_certificate(text: str) -> dict:
    """Parse the canonical text form; raises ValueError on malformed input."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != _CERT_HEADER:
        raise ValueError("malformed certificate: missing version line")
    if len(lines) != 1 + len(_CERT_FIELDS):
        raise ValueError("malformed certificate: wrong number of fields")
    out: dict = {}
    for ln, name in zip(lines[1:], _CERT_FIELDS):
        m = re.match(rf"^{name} = (.+)$", ln.strip())
        if not m:
            raise ValueError(f"malformed certificate: expected field {name!r}")
        val = m.group(1).strip()
        if name in ("a", "b", "det_value"):
            try:
                out[name] = parse_rational(val)
            except ValueError:
                raise ValueError(f"malformed certificate: bad rational in {name!r}") from None
        elif name == "sigma":
            if val == "O":
                out[name] = Genus1Point.infinity()
            else:
                pm = _PT_RE.match(val)
                if not pm:
                    raise ValueError("malformed certificate: bad sigma")
                out[name] = Genus1Point(*(_cert_int(g, "bad sigma") for g in pm.groups()))
        else:
            if not re.match(r"^\d+$", val, re.ASCII):
                raise ValueError(f"malformed certificate: bad integer in {name!r}")
            out[name] = _cert_int(val, f"bad integer in {name!r}")
    return out


def _cert_int(digits: str, what: str) -> int:
    """int(digits), with more digits than int() reads (past
    sys.get_int_max_str_digits) reported as a malformed certificate."""
    try:
        return int(digits)
    except ValueError:
        raise ValueError(f"malformed certificate: {what}") from None


def validate_certificate(text: str) -> tuple[bool, str]:
    """Re-validate every field of a serialized certificate from scratch,
    without the search code.  Returns (ok, message); the message names the
    first failing check."""
    try:
        c = parse_certificate(text)
    except ValueError as e:
        return False, str(e)
    # the checks below cost O(v) and O(q^2): bound the primes first
    for what in ("v", "q"):
        if c[what] > PRIME_LIMIT:
            return False, f"{what} exceeds the prime limit"
    try:
        ai, bi, delta = _good_int_model(c["a"], c["b"])
    except DegenerateCurve as e:
        return False, str(e)

    v, ell, q = c["v"], c["ell"], c["q"]
    reason = _witness_failure(delta, v, ell)
    if reason:
        return False, reason

    lift = lift_sum(ai, bi, v)
    if lift.sigma != c["sigma"]:
        return False, "sigma mismatch"
    if lift.sigma_order != c["sigma_order"]:
        return False, "sigma_order mismatch"
    if lift.sigma_order % ell != 0:
        return False, "ell does not divide sigma_order"

    reason = _witness_failure(delta, v, ell, q)
    if reason:
        return False, reason

    det = frobenius_det(ai, bi, q, ell)
    if det.det_value != c["det_value"]:
        return False, "det_value mismatch"
    if not det.unit_mod_ell:
        return False, "det is not a unit mod ell"
    return True, "certificate verified"
