"""Finite-field certification of infinite-order Ceresa cycles.

Point counts of y^3 = x^4 + ax^2 + b over F_{p^i} (i <= 3), L-polynomials
with their exact genus-1/Prym factorization, the lift-set sum sigma on the
genus-1 quotient whose pushforward is 2D, the exact Frobenius determinant
det(Fr_q - 1) on V = H^3(J)(2) + H^1(C)(1), and assembly, search, and
independent re-validation of infinite-order certificates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import (
    IntPolynomial,
    Rational,
    cube_root_table,
    factorize,
    is_prime,
    det_bareiss,
    primes_up_to,
    rat_str,
)
from .elliptic import (
    CurvePoint,
    Genus1Point,
    WeierstrassCurveFp,
    add,
    genus1_on_curve,
    genus1_to_weierstrass,
    group_order_fp,
    order_fp,
    weierstrass_to_genus1,
)
from .picard import DegenerateCurve, canonical_model


class BadReduction(Exception):
    """The prime divides 6 or the discriminant of the canonical model."""


class FactorizationFailure(Exception):
    """L_E does not divide L_C exactly — an implementation bug, since the
    Jacobian is isogenous to P x E."""


class NoCertificateFound(Exception):
    """Search exhausted without a witness.  Not a proof of torsion."""


class InvalidHint(Exception):
    """A user-supplied (v, ell, q) hint fails a named check."""


# ---------------------------------------------------------------------------
# extension fields F_{p^2}, F_{p^3}

class ExtField:
    """F_{p^deg} as F_p[x]/(m) with m the monic irreducible of degree deg
    whose non-leading coefficients (c_0, c_1, ...) have the smallest value
    of c_0 + c_1 p + ...; elements are little-endian coefficient tuples."""

    def __init__(self, p: int, deg: int):
        assert deg in (2, 3)
        self.p = p
        self.deg = deg
        self.size = p**deg
        self.modulus = self._smallest_irreducible()
        # x^deg, ..., x^(2 deg - 2) reduced, for schoolbook reduction
        tails = [tuple(-c % p for c in self.modulus)]
        for _ in range(deg - 2):
            tails.append(self._shift_reduce(tails[-1]))
        self.tails = tails

    def _smallest_irreducible(self) -> tuple[int, ...]:
        p, deg = self.p, self.deg
        for enc in range(p**deg):
            cs = []
            e = enc
            for _ in range(deg):
                e, c = divmod(e, p)
                cs.append(c)
            # m(t) = t^deg + cs[deg-1] t^(deg-1) + ... + cs[0]; degree <= 3
            # is irreducible over F_p iff it has no root
            if all((pow(t, deg, p) + sum(c * pow(t, k, p) for k, c in enumerate(cs))) % p
                   for t in range(p)):
                return tuple(cs)
        raise AssertionError("no irreducible polynomial found")

    def _shift_reduce(self, tail: tuple[int, ...]) -> tuple[int, ...]:
        # multiply by x and reduce once
        p, deg = self.p, self.deg
        lifted = (0,) + tail
        head = lifted[deg]
        base = tuple(-c % p for c in self.modulus)
        return tuple((lifted[k] + head * base[k]) % p for k in range(deg))

    def embed(self, n: int) -> tuple[int, ...]:
        return (n % self.p,) + (0,) * (self.deg - 1)

    def add(self, u, v):
        return tuple((a + b) % self.p for a, b in zip(u, v))

    def mul(self, u, v):
        p, deg = self.p, self.deg
        conv = [0] * (2 * deg - 1)
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    conv[i + j] += a * b
        out = conv[:deg]
        for k in range(deg, 2 * deg - 1):
            c = conv[k]
            if c:
                tail = self.tails[k - deg]
                for t in range(deg):
                    out[t] += c * tail[t]
        return tuple(c % p for c in out)

    def elements(self):
        p, deg = self.p, self.deg
        for enc in range(self.size):
            e = enc
            cs = []
            for _ in range(deg):
                cs.append(e % p)
                e //= p
            yield tuple(cs)


# ---------------------------------------------------------------------------
# counting

@dataclass(frozen=True)
class CountRecord:
    a: int
    b: int
    p: int
    i: int
    curve_count: int


def count_curve(a, b, p: int, i: int) -> CountRecord:
    """#C(F_{p^i}) for C: y^3 = x^4 + ax^2 + b, as 1 + sum over x of the
    number of cube roots of x^4 + ax^2 + b (one smooth point at infinity)."""
    if i not in (1, 2, 3):
        raise ValueError("extension degree must be 1, 2, or 3")
    if not is_prime(p):
        raise ValueError("p must be prime")
    if p in (2, 3):
        raise BadReduction(f"bad reduction at {p}")
    av, bv = int(a) % p, int(b) % p
    if (16 * bv * (av * av - 4 * bv)) % p == 0:
        raise BadReduction(f"bad reduction at {p}")

    size = p**i
    if size % 3 == 2:
        # cubing is a bijection: exactly one y above every x
        n = size + 1
    elif i == 1:
        roots = cube_root_table(p)
        n = 1
        for x in range(p):
            fx = (pow(x, 4, p) + av * x * x + bv) % p
            n += len(roots.get(fx, ()))
    else:
        field = ExtField(p, i)
        cubes = {}
        for z in field.elements():
            c = field.mul(z, field.mul(z, z))
            cubes[c] = cubes.get(c, 0) + 1
        ae, be = field.embed(av), field.embed(bv)
        n = 1
        for x in field.elements():
            x2 = field.mul(x, x)
            fx = field.add(field.mul(x2, field.add(x2, ae)), be)
            n += cubes.get(fx, 0)

    assert (n - size - 1) ** 2 <= 36 * size, "Weil bound violated"
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
    ai, bi = canonical_model(Fraction(a), Fraction(b))
    return ai, bi, 16 * bi * (ai * ai - 4 * bi)


def _check_good(p: int, delta: int, what: str = "p"):
    if not is_prime(p):
        raise ValueError(f"{what} must be prime")
    if (6 * delta) % p == 0:
        raise BadReduction(f"bad reduction at {p}")


@lru_cache(maxsize=None)
def _lpoly_cached(ai: int, bi: int, p: int) -> LPolyRecord:
    counts = [count_curve(ai % p, bi % p, p, i).curve_count for i in (1, 2, 3)]
    s = [p**i + 1 - counts[i - 1] for i in (1, 2, 3)]
    e1 = s[0]
    e2, r = divmod(e1 * s[0] - s[1], 2)
    assert r == 0
    e3, r = divmod(e2 * s[0] - e1 * s[1] + s[2], 3)
    assert r == 0
    L_C = IntPolynomial((1, -e1, e2, -e3, p * e2, -p * p * e1, p**3))

    d_e = 16 * (ai * ai - 4 * bi)
    ap = p + 1 - group_order_fp(WeierstrassCurveFp(d_e % p, p))
    L_E = IntPolynomial((1, -ap, p))

    # exact division L_P = L_C / L_E over Z
    num = list(L_C.coefficients)
    den = list(L_E.coefficients)
    q = [0] * 5
    work = num[:]
    for k in range(6, 1, -1):
        c = work[k]
        if c % den[2]:
            raise FactorizationFailure(f"L_E does not divide L_C at p={p}")
        q[k - 2] = c // den[2]
        for j in range(3):
            work[k - 2 + j] -= q[k - 2] * den[j]
    if any(work[:2]) or any(work[2:]):
        raise FactorizationFailure(f"L_E does not divide L_C at p={p}")
    L_P = IntPolynomial(tuple(q))

    assert L_C(1) > 0 and L_E(1) > 0 and L_P(1) > 0
    for k in range(4):
        assert L_C.coefficients[6 - k] == p ** (3 - k) * L_C.coefficients[k]
    return LPolyRecord(p, L_C, L_E, L_P)


def lpoly(a, b, p: int) -> LPolyRecord:
    """L-polynomial of C over F_p from counts over F_p, F_{p^2}, F_{p^3}
    (Newton identities + genus-3 functional equation), factored exactly as
    L_E * L_P with L_E from the genus-1 quotient's Weierstrass model."""
    ai, bi, delta = _good_int_model(a, b)
    _check_good(p, delta)
    return _lpoly_cached(ai, bi, p)


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
    2D = pi^*(sigma) in J(F_v).  Orders are taken on the Weierstrass
    model y^2 = x^3 + 16(a^2 - 4b)."""
    ai, bi, delta = _good_int_model(a, b)
    _check_good(v, delta, "v")
    av, bv = ai % v, bi % v

    roots = cube_root_table(v)
    ram = tuple(Genus1Point(0, y) for y in roots.get(bv, []))
    lift = set()
    for x in range(1, v):
        fx = (pow(x, 4, v) + av * x * x + bv) % v
        for y in roots.get(fx, []):
            lift.add(((x * x) % v, y))

    d_e = (16 * (av * av - 4 * bv)) % v
    Ew = WeierstrassCurveFp(d_e, v)
    total = CurvePoint.infinity()
    for r in ram:
        total = add(Ew, total, genus1_to_weierstrass(av, bv, r, v))
    for (x, y) in lift:
        w = genus1_to_weierstrass(av, bv, Genus1Point(x, y), v)
        total = add(Ew, total, w)
        total = add(Ew, total, w)

    sigma = weierstrass_to_genus1(av, bv, total, v)
    if not sigma.inf:
        assert genus1_on_curve(av, bv, sigma, v)
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


def _companion(chi: list[int]) -> list[list[int]]:
    """Companion matrix of the monic polynomial T^6 + chi[5] T^5 + ... + chi[0]."""
    n = len(chi)
    M = [[0] * n for _ in range(n)]
    for k in range(1, n):
        M[k][k - 1] = 1
    for k in range(n):
        M[k][n - 1] = -chi[k]
    return M


def _third_compound(M: list[list[int]]) -> list[list[int]]:
    """The 20x20 matrix of 3x3 minors of a 6x6 matrix, rows and columns
    indexed by lexicographically ordered triples; its eigenvalues are the
    triple products of those of M."""
    from itertools import combinations

    triples = list(combinations(range(6), 3))
    out = []
    for rows in triples:
        line = []
        for cols in triples:
            a, b, c = rows
            x, y, z = cols
            det3 = (
                M[a][x] * (M[b][y] * M[c][z] - M[b][z] * M[c][y])
                - M[a][y] * (M[b][x] * M[c][z] - M[b][z] * M[c][x])
                + M[a][z] * (M[b][x] * M[c][y] - M[b][y] * M[c][x])
            )
            line.append(det3)
        out.append(line)
    return out


def _shifted(M: list[list[int]], c: int) -> list[list[int]]:
    return [[M[i][j] - (c if i == j else 0) for j in range(len(M))] for i in range(len(M))]


def frobenius_det(a, b, q: int, ell: int) -> FrobeniusDetResult:
    """det(Fr_q - 1) on V = H^3(J)(2) + H^1(C)(1), computed exactly: with M
    the companion matrix of the degree-6 Frobenius characteristic polynomial
    on H^1 (reciprocal of L_C),

        det_value = det(M/q - 1) * det(L^3 M / q^2 - 1)

    over the rationals; det_untwisted = det(M - 1) * det(L^3 M - 1) is the
    same product without the Tate twists.  unit_mod_ell tests that both the
    numerator and denominator of det_value are coprime to ell."""
    if not is_prime(ell):
        raise ValueError("ell must be prime")
    if ell <= 3:
        raise ValueError("ell must exceed 3")
    if ell == q:
        raise ValueError("ell must differ from q")
    rec = lpoly(a, b, q)
    # char poly of Frobenius: T^6 L_C(1/T); coefficient of T^k is c_{6-k}
    chi = [rec.L_C.coefficients[6 - k] for k in range(6)]
    M = _companion(chi)
    C3 = _third_compound(M)

    det6 = det_bareiss(_shifted(M, q))
    det20 = det_bareiss(_shifted(C3, q * q))
    det_value = Fraction(det6, q**6) * Fraction(det20, q**40)

    det_untwisted = det_bareiss(_shifted(M, 1)) * det_bareiss(_shifted(C3, 1))

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


def _good_primes(limit: int, delta: int) -> list[int]:
    return [p for p in primes_up_to(limit) if (6 * delta) % p != 0]


def certify_infinite(a, b, v: int | None = None, ell: int | None = None,
                     q: int | None = None, V_max: int = 200) -> InfinitudeCertificate:
    """An independently checkable witness that the Ceresa cycle of
    y^3 = x^4 + ax^2 + b has infinite order: a good prime v where the
    lift-set sum has order divisible by a prime ell > 3, and a good
    auxiliary prime q != ell where det(Fr_q - 1) on V is a unit mod ell.

    With hints, each is validated and the failing check is named in
    InvalidHint; unhinted slots are searched in ascending lexicographic
    (v, ell, q) order up to V_max.  Raises NoCertificateFound when the
    search is exhausted — which is NOT a proof of torsion."""
    a, b = Fraction(a), Fraction(b)
    ai, bi, delta = _good_int_model(a, b)

    if v is not None:
        if not is_prime(v):
            raise InvalidHint("v is not prime")
        if (6 * delta) % v == 0:
            raise InvalidHint("bad reduction at v")
    if ell is not None:
        if ell <= 3:
            raise InvalidHint("ell must exceed 3")
        if not is_prime(ell):
            raise InvalidHint("ell is not prime")
        if v is not None and ell == v:
            raise InvalidHint("ell equals v")
    if q is not None:
        if not is_prime(q):
            raise InvalidHint("q is not prime")
        if (6 * delta) % q == 0:
            raise InvalidHint("bad reduction at q")
        if ell is not None and q == ell:
            raise InvalidHint("q equals ell")

    hinted = v is not None and ell is not None and q is not None
    v_range = [v] if v is not None else _good_primes(V_max, delta)

    for v_try in v_range:
        lift = lift_sum(ai, bi, v_try)
        if ell is not None:
            if lift.sigma_order % ell != 0:
                if v is not None:
                    raise InvalidHint("ell does not divide sigma_order")
                continue
            ell_range = [ell]
        else:
            ell_range = [f for f in sorted(factorize(lift.sigma_order))
                         if f > 3 and f != v_try]
        for ell_try in ell_range:
            if ell_try == v_try:
                continue
            q_range = [q] if q is not None else _good_primes(V_max, delta)
            for q_try in q_range:
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
    sig = cert.lift.sigma
    return {
        "a": rat_str(cert.a),
        "b": rat_str(cert.b),
        "v": cert.v,
        "ell": cert.ell,
        "q": cert.q,
        "sigma": "O" if sig.inf else f"({sig.x}, {sig.y})",
        "sigma_order": cert.lift.sigma_order,
        "det_value": rat_str(cert.det.det_value),
    }


def certificate_text(fields: dict) -> str:
    """The canonical text form from certificate_fields, or from any mapping
    holding the same values (such as a replayed `certify` result)."""
    lines = [_CERT_HEADER] + [f"{name} = {fields[name]}" for name in _CERT_FIELDS]
    return "\n".join(lines) + "\n"


def serialize_certificate(cert: InfinitudeCertificate) -> str:
    return certificate_text(certificate_fields(cert))


_RAT_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")
_PT_RE = re.compile(r"^\((-?\d+), (-?\d+)\)$")


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
            if not _RAT_RE.match(val):
                raise ValueError(f"malformed certificate: bad rational in {name!r}")
            out[name] = Fraction(val)
        elif name == "sigma":
            if val == "O":
                out[name] = Genus1Point.infinity()
            else:
                pm = _PT_RE.match(val)
                if not pm:
                    raise ValueError("malformed certificate: bad sigma")
                out[name] = Genus1Point(int(pm.group(1)), int(pm.group(2)))
        else:
            if not re.match(r"^\d+$", val):
                raise ValueError(f"malformed certificate: bad integer in {name!r}")
            out[name] = int(val)
    return out


def validate_certificate(text: str) -> tuple[bool, str]:
    """Re-validate every field of a serialized certificate from scratch,
    without the search code.  Returns (ok, message); the message names the
    first failing check."""
    try:
        c = parse_certificate(text)
    except ValueError as e:
        return False, str(e)
    try:
        ai, bi, delta = _good_int_model(c["a"], c["b"])
    except DegenerateCurve as e:
        return False, str(e)

    v, ell, q = c["v"], c["ell"], c["q"]
    if not is_prime(v):
        return False, "v is not prime"
    if (6 * delta) % v == 0:
        return False, "bad reduction at v"
    if ell <= 3:
        return False, "ell must exceed 3"
    if not is_prime(ell):
        return False, "ell is not prime"
    if ell == v:
        return False, "ell equals v"

    lift = lift_sum(ai, bi, v)
    if lift.sigma != c["sigma"]:
        return False, "sigma mismatch"
    if lift.sigma_order != c["sigma_order"]:
        return False, "sigma_order mismatch"
    if lift.sigma_order % ell != 0:
        return False, "ell does not divide sigma_order"

    if not is_prime(q):
        return False, "q is not prime"
    if (6 * delta) % q == 0:
        return False, "bad reduction at q"
    if q == ell:
        return False, "q equals ell"

    det = frobenius_det(ai, bi, q, ell)
    if det.det_value != c["det_value"]:
        return False, "det_value mismatch"
    if not det.unit_mod_ell:
        return False, "det is not a unit mod ell"
    return True, "certificate verified"
