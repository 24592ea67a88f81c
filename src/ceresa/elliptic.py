"""Elliptic curves y^2 = x^3 + d over Q and over F_p.

Chord-tangent group law, scalar multiplication, point orders over F_p,
the rational torsion classification for j-invariant 0, division
polynomials, point division, and the transform from the genus-1 model
y^3 = x^2 + ax + b to short Weierstrass form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import (
    Fraction as Rational,
    IntPolynomial,
    factorize,
    int_root,
    inv_mod,
    is_prime,
    poly_mul,
    poly_scale,
    poly_sub,
    poly_trim,
    primitive_int_poly,
    rational_root,
    rational_roots,
)


@dataclass(frozen=True)
class WeierstrassCurveQ:
    """y^2 = x^3 + d over Q, d != 0."""

    d: Fraction

    def __post_init__(self):
        object.__setattr__(self, "d", Fraction(self.d))
        if self.d == 0:
            raise ValueError("d must be nonzero")


@dataclass(frozen=True)
class WeierstrassCurveFp:
    """y^2 = x^3 + d over F_p, p > 3 prime, d != 0 in F_p."""

    d: int
    p: int

    def __post_init__(self):
        if self.p <= 3 or not is_prime(self.p):
            raise ValueError(f"p must be a prime > 3, got {self.p}")
        object.__setattr__(self, "d", self.d % self.p)
        if self.d == 0:
            raise ValueError("d must be nonzero mod p")


@dataclass(frozen=True)
class CurvePoint:
    """Affine point (x, y) or the point at infinity (inf=True)."""

    x: object = 0
    y: object = 0
    inf: bool = False

    @classmethod
    def infinity(cls) -> "CurvePoint":
        return cls(0, 0, True)

    def __repr__(self):
        return "O" if self.inf else f"({self.x}, {self.y})"


@dataclass(frozen=True)
class Genus1Point:
    """Point on the genus-1 model y^3 = x^2 + ax + b (or its infinity)."""

    x: object = 0
    y: object = 0
    inf: bool = False

    @classmethod
    def infinity(cls) -> "Genus1Point":
        return cls(0, 0, True)

    def __repr__(self):
        return "O" if self.inf else f"({self.x}, {self.y})"


@dataclass(frozen=True)
class TorsionGroupQ:
    """Rational torsion of y^2 = x^3 + d: a subgroup of Z/6."""

    structure: str  # one of "trivial", "Z/2", "Z/3", "Z/6"
    generators: tuple[CurvePoint, ...]


INFINITY = CurvePoint.infinity()


def on_curve(E, P: CurvePoint) -> bool:
    if P.inf:
        return True
    if isinstance(E, WeierstrassCurveFp):
        return (P.y * P.y - P.x**3 - E.d) % E.p == 0
    return Fraction(P.y) ** 2 == Fraction(P.x) ** 3 + E.d


def neg(E, P: CurvePoint) -> CurvePoint:
    if P.inf:
        return INFINITY
    if isinstance(E, WeierstrassCurveFp):
        return CurvePoint(P.x, (-P.y) % E.p)
    return CurvePoint(P.x, -P.y)


def _add_q(d: Fraction, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    if P.inf:
        return Q
    if Q.inf:
        return P
    x1, y1 = Fraction(P.x), Fraction(P.y)
    x2, y2 = Fraction(Q.x), Fraction(Q.y)
    if x1 == x2:
        if y1 + y2 == 0:
            return INFINITY
        lam = 3 * x1 * x1 / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    y3 = lam * (x1 - x3) - y1
    return CurvePoint(x3, y3)


def _add_fp(d: int, p: int, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    if P.inf:
        return Q
    if Q.inf:
        return P
    x1, y1, x2, y2 = P.x % p, P.y % p, Q.x % p, Q.y % p
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return INFINITY
        lam = 3 * x1 * x1 * inv_mod(2 * y1 % p, p) % p
    else:
        lam = (y2 - y1) * inv_mod((x2 - x1) % p, p) % p
    x3 = (lam * lam - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return CurvePoint(x3, y3)


def add(E, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    """P + Q by the chord-tangent law."""
    if isinstance(E, WeierstrassCurveFp):
        return _add_fp(E.d, E.p, P, Q)
    return _add_q(E.d, P, Q)


def mul(E, n: int, P: CurvePoint) -> CurvePoint:
    """nP by double-and-add; (-n)P = -(nP), 0P = O."""
    if n < 0:
        return mul(E, -n, neg(E, P))
    acc = INFINITY
    base = P
    while n:
        if n & 1:
            acc = add(E, acc, base)
        n >>= 1
        if n:
            base = add(E, base, base)
    return acc


@lru_cache(maxsize=None)
def _group_order_fp(d: int, p: int) -> int:
    count = 1  # infinity
    for x in range(p):
        z = (x * x * x + d) % p
        if z == 0:
            count += 1
        elif pow(z, (p - 1) // 2, p) == 1:
            count += 2
    return count


def group_order_fp(E: WeierstrassCurveFp) -> int:
    """#E(F_p) by direct count of y^2 = x^3 + d solutions plus infinity."""
    return _group_order_fp(E.d, E.p)


def order_fp(E: WeierstrassCurveFp, P: CurvePoint) -> int:
    """Exact order of P in E(F_p): start from #E(F_p) and strip primes."""
    if P.inf:
        return 1
    n = group_order_fp(E)
    for q in factorize(n):
        while n % q == 0 and mul(E, n // q, P).inf:
            n //= q
    return n


# ---------------------------------------------------------------------------
# rational torsion for j = 0

def sixth_power_free(d: Fraction) -> tuple[int, Fraction]:
    """Write d = d0 * u^6 with d0 a 6th-power-free integer; return (d0, u).

    This is the sextic-twist normalization: (x, y) on y^2 = x^3 + d maps to
    (x/u^2, y/u^3) on y^2 = x^3 + d0.
    """
    d = Fraction(d)
    if d == 0:
        raise ValueError("d must be nonzero")
    den = d.denominator
    d1 = d.numerator * den**5  # d * den^6, an integer
    u = Fraction(1, den)
    mu = 1
    for q, e in factorize(d1).items():
        mu *= q ** (e // 6)
    d0 = d1 // mu**6
    return d0, u * mu


def torsion_j0_Q(d: Fraction) -> TorsionGroupQ:
    """The full rational torsion subgroup of y^2 = x^3 + d.

    After 6th-power normalization to an integer d0, the group is:
    Z/6 iff d0 = 1; Z/3 iff d0 is a square or d0 = -432; Z/2 iff d0 is a
    cube; trivial otherwise.  Generators are returned on the *given* curve.
    """
    d = Fraction(d)
    d0, u = sixth_power_free(d)
    if d0 == 1:
        structure, gens0 = "Z/6", [(Fraction(2), Fraction(3))]
    elif d0 == -432:
        structure, gens0 = "Z/3", [(Fraction(12), Fraction(36))]
    elif (s := int_root(d0, 2)) is not None:
        structure, gens0 = "Z/3", [(Fraction(0), Fraction(s))]
    elif (c := int_root(d0, 3)) is not None:
        structure, gens0 = "Z/2", [(Fraction(-c), Fraction(0))]
    else:
        structure, gens0 = "trivial", []
    # map generators from the d0-model back: (x, y) -> (x*u^2, y*u^3)
    gens = tuple(CurvePoint(x * u**2, y * u**3) for x, y in gens0)
    return TorsionGroupQ(structure, gens)


def torsion_points(d: Fraction) -> list[CurvePoint]:
    """Every rational torsion point of y^2 = x^3 + d, infinity included."""
    tor = torsion_j0_Q(d)
    E = WeierstrassCurveQ(Fraction(d))
    if tor.structure == "trivial":
        return [INFINITY]
    g = tor.generators[0]
    n = {"Z/2": 2, "Z/3": 3, "Z/6": 6}[tor.structure]
    return [mul(E, k, g) for k in range(n)]


# ---------------------------------------------------------------------------
# division polynomials for y^2 = x^3 + d
#
# With y^2 eliminated, psi_n is a pure polynomial in x for odd n and
# 2y * E_n(x) for even n.  O_n and E_n satisfy the standard recurrences
# specialized to a4 = 0, a6 = d (F denotes x^3 + d = y^2):
#   O_{2m+1} = 16 F^2 E_{m+2} E_m^3 - O_{m-1} O_{m+1}^3      (m even)
#   O_{2m+1} = O_{m+2} O_m^3 - 16 F^2 E_{m-1} E_{m+1}^3      (m odd)
#   E_{2m}   = E_m (E_{m+2} O_{m-1}^2 - E_{m-2} O_{m+1}^2)   (m even)
#   E_{2m}   = O_m (O_{m+2} E_{m-1}^2 - O_{m-2} E_{m+1}^2)   (m odd)

def _division_tables(d: Fraction, n: int):
    """Coefficient lists for O_k (k odd) and E_k (k even), k <= n+2."""
    F = [d, Fraction(0), Fraction(0), Fraction(1)]  # x^3 + d
    F2_16 = poly_scale(poly_mul(F, F), Fraction(16))
    O = {1: [Fraction(1)], 3: poly_trim([Fraction(0), 12 * d, Fraction(0), Fraction(0), Fraction(3)])}
    E = {0: [], 2: [Fraction(1)], 4: poly_trim([-16 * d * d, Fraction(0), Fraction(0), 40 * d, Fraction(0), Fraction(0), Fraction(2)])}

    def get_O(k):
        if k in O:
            return O[k]
        m = (k - 1) // 2
        if m % 2 == 0:
            val = poly_sub(
                poly_mul(F2_16, poly_mul(get_E(m + 2), poly_mul(get_E(m), poly_mul(get_E(m), get_E(m))))),
                poly_mul(get_O(m - 1), poly_mul(get_O(m + 1), poly_mul(get_O(m + 1), get_O(m + 1)))),
            )
        else:
            val = poly_sub(
                poly_mul(get_O(m + 2), poly_mul(get_O(m), poly_mul(get_O(m), get_O(m)))),
                poly_mul(F2_16, poly_mul(get_E(m - 1), poly_mul(get_E(m + 1), poly_mul(get_E(m + 1), get_E(m + 1))))),
            )
        O[k] = val
        return val

    def get_E(k):
        if k in E:
            return E[k]
        m = k // 2
        if m % 2 == 0:
            val = poly_mul(
                get_E(m),
                poly_sub(
                    poly_mul(get_E(m + 2), poly_mul(get_O(m - 1), get_O(m - 1))),
                    poly_mul(get_E(m - 2), poly_mul(get_O(m + 1), get_O(m + 1))),
                ),
            )
        else:
            val = poly_mul(
                get_O(m),
                poly_sub(
                    poly_mul(get_O(m + 2), poly_mul(get_E(m - 1), get_E(m - 1))),
                    poly_mul(get_O(m - 2), poly_mul(get_E(m + 1), get_E(m + 1))),
                ),
            )
        E[k] = val
        return val

    for k in range(1, n + 3):
        if k % 2:
            get_O(k)
        else:
            get_E(k)
    return O, E, F


def division_poly(E: WeierstrassCurveQ, n: int) -> IntPolynomial:
    """The n-th division polynomial of y^2 = x^3 + d, as a polynomial in x.

    Odd n: psi_n itself.  Even n: the y factor is removed and the 2-torsion
    factor restored, i.e. (x^3 + d) * (psi_n / (2y)), so that the roots are
    exactly the x-coordinates of the nonzero n-torsion (n=2 gives x^3 + d,
    n=3 gives 3x^4 + 12dx).  For non-integral d the coefficients are scaled
    by the denominator's lcm (root set unchanged).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return IntPolynomial((1,))
    d = Fraction(E.d)
    O, Ev, F = _division_tables(d, n)
    coeffs = O[n] if n % 2 else poly_mul(F, Ev[n])
    dens = [c.denominator for c in coeffs]
    scale = math.lcm(*dens)
    return IntPolynomial(tuple(int(c * scale) for c in coeffs))


def _x_mult_fraction(d: Fraction, n: int):
    """Numerator and denominator (in Q[x]) of the x-coordinate map of [n]."""
    O, Ev, F = _division_tables(d, n + 1)
    x = [Fraction(0), Fraction(1)]
    if n % 2:
        den = poly_mul(O[n], O[n])
        num = poly_sub(poly_mul(x, den), poly_scale(poly_mul(F, poly_mul(Ev[n - 1], Ev[n + 1])), Fraction(4)))
    else:
        den = poly_scale(poly_mul(F, poly_mul(Ev[n], Ev[n])), Fraction(4))
        num = poly_sub(poly_mul(x, den), poly_mul(O[n - 1], O[n + 1]))
    return num, den


def divide_point(E: WeierstrassCurveQ, n: int, Q: CurvePoint) -> list[CurvePoint]:
    """All rational P on E with nP = Q.

    Solves x([n]P) = x(Q) through the multiplication-by-n rational map and
    rational root extraction, reconstructs y, and keeps the exact matches.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return [Q]
    d = Fraction(E.d)
    sols: list[CurvePoint] = []
    if Q.inf:
        # rational n-torsion: x-roots of the division polynomial
        candidates = rational_roots(division_poly(E, n))
        sols.append(INFINITY)
    else:
        num, den = _x_mult_fraction(d, n)
        f = poly_sub(num, poly_scale(den, Fraction(Q.x)))
        candidates = rational_roots(primitive_int_poly(f))
    for x0 in candidates:
        y0 = rational_root(x0**3 + d, 2)
        if y0 is None:
            continue
        for y in {y0, -y0}:
            P = CurvePoint(x0, y)
            if mul(E, n, P) == Q:
                sols.append(P)
    uniq = {(p.inf, p.x, p.y): p for p in sols}
    return sorted(uniq.values(), key=lambda p: (not p.inf, p.x, p.y))


# ---------------------------------------------------------------------------
# genus-1 model y^3 = x^2 + ax + b

def genus1_weierstrass_d(a, b):
    """The short Weierstrass twist parameter: y^3 = x^2+ax+b maps onto
    y^2 = x^3 + 16(a^2 - 4b)."""
    return 16 * (a * a - 4 * b)


def genus1_on_curve(a, b, P: Genus1Point, p: int | None = None) -> bool:
    if P.inf:
        return True
    if p is None:
        return Fraction(P.y) ** 3 == Fraction(P.x) ** 2 + a * P.x + b
    return (P.y**3 - P.x * P.x - a * P.x - b) % p == 0


def genus1_to_weierstrass(a, b, P: Genus1Point, p: int | None = None) -> CurvePoint:
    """(x, y) on y^3 = x^2+ax+b maps to (4y, 8x+4a) on y^2 = x^3+16(a^2-4b);
    infinity to O.  Works over Q (p=None) or over F_p."""
    if P.inf:
        return INFINITY
    if p is None:
        return CurvePoint(4 * Fraction(P.y), 8 * Fraction(P.x) + 4 * Fraction(a))
    return CurvePoint(4 * P.y % p, (8 * P.x + 4 * a) % p)


def weierstrass_to_genus1(a, b, W: CurvePoint, p: int | None = None) -> Genus1Point:
    """Inverse of genus1_to_weierstrass: (X, Y) -> ((Y - 4a)/8, X/4)."""
    if W.inf:
        return Genus1Point.infinity()
    if p is None:
        return Genus1Point((Fraction(W.y) - 4 * Fraction(a)) / 8, Fraction(W.x) / 4)
    return Genus1Point((W.y - 4 * a) * inv_mod(8, p) % p, W.x * inv_mod(4, p) % p)


def genus1_add(a, b, P: Genus1Point, Q: Genus1Point, p: int | None = None) -> Genus1Point:
    """Group law on the genus-1 model, defined by transport of structure
    through the Weierstrass transform (identity = image of infinity)."""
    dw = genus1_weierstrass_d(a, b)
    if p is None:
        E = WeierstrassCurveQ(Fraction(dw))
    else:
        E = WeierstrassCurveFp(dw % p, p)
    W = add(E, genus1_to_weierstrass(a, b, P, p), genus1_to_weierstrass(a, b, Q, p))
    return weierstrass_to_genus1(a, b, W, p)
