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
    """Affine point (x, y) or the point at infinity (inf=True).  It carries
    no curve: the curve (over Q or F_p) is passed alongside."""

    x: object = 0
    y: object = 0
    inf: bool = False

    @classmethod
    def infinity(cls) -> "CurvePoint":
        return cls(0, 0, True)

    def __repr__(self):
        return "O" if self.inf else f"({self.x}, {self.y})"


Genus1Point = CurvePoint  # a point on the genus-1 model y^3 = x^2 + ax + b


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


@lru_cache(maxsize=4096)
def _group_order_fp(d: int, p: int) -> int:
    if p % 3 == 2:
        # cubing permutes F_p, so the count is 1 + sum_z #sqrt(z + d) = p + 1
        return p + 1
    roots = bytearray(p)  # roots[z] = number of square roots of z in F_p
    roots[0] = 1
    for y in range(1, (p + 1) // 2):
        roots[y * y % p] = 2
    return 1 + sum([roots[(x * x * x + d) % p] for x in range(p)])


def group_order_fp(E: WeierstrassCurveFp) -> int:
    """#E(F_p) by direct count of y^2 = x^3 + d solutions plus infinity."""
    return _group_order_fp(E.d, E.p)


def order_fp(E: WeierstrassCurveFp, P: CurvePoint) -> int:
    """Exact order of P in E(F_p): start from #E(F_p) and strip primes.

    #E(F_p) <= p + 1 + 2 sqrt(p) is small, so factorize finds its primes by
    trial division alone."""
    if P.inf:
        return 1
    n = group_order_fp(E)
    for q in factorize(n):
        while n % q == 0 and mul(E, n // q, P).inf:
            n //= q
    return n


# ---------------------------------------------------------------------------
# rational torsion for j = 0

def torsion_j0_Q(d: Fraction) -> TorsionGroupQ:
    """The full rational torsion subgroup of y^2 = x^3 + d.

    With d0 the 6th-power-free part of d, the group is: Z/6 iff d0 = 1;
    Z/3 iff d0 is a square or d0 = -432; Z/2 iff d0 is a cube; trivial
    otherwise.  Each condition on d0 holds exactly when it holds on the
    integer d1 = d * den^6 (d1 = 1, -432 up to a 6th power), so exact roots
    decide it without factoring d.  Generators are returned on the *given*
    curve, from the d1-model by (x, y) -> (x/den^2, y/den^3)."""
    d = WeierstrassCurveQ(d).d
    den = d.denominator
    d1 = d.numerator * den**5
    if (m := int_root(d1, 6)) is not None:
        structure, gens1 = "Z/6", [(2 * m * m, 3 * m**3)]
    elif d1 % 432 == 0 and (m := int_root(-d1 // 432, 6)) is not None:
        structure, gens1 = "Z/3", [(12 * m * m, 36 * m**3)]
    elif (s := int_root(d1, 2)) is not None:
        structure, gens1 = "Z/3", [(0, s)]
    elif (c := int_root(d1, 3)) is not None:
        structure, gens1 = "Z/2", [(-c, 0)]
    else:
        structure, gens1 = "trivial", []
    gens = tuple(CurvePoint(Fraction(x, den**2), Fraction(y, den**3)) for x, y in gens1)
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
# With y^2 eliminated, psi_k is a polynomial in x for odd k and 2y times
# one for even k; psi[k] below is psi_k for odd k and psi_k/2y for even k.
# The standard recurrences, specialized to a4 = 0, a6 = d (F denotes
# x^3 + d = y^2), then share one shape:
#   psi[2m+1] = psi[m+2] psi[m]^3 - psi[m-1] psi[m+1]^3
#   psi[2m]   = psi[m] (psi[m+2] psi[m-1]^2 - psi[m-2] psi[m+1]^2)
# where the odd step puts 16 F^2 = (2y)^4 on the product whose indices are
# even.

def _division_tables(d, n: int):
    """The coefficient lists psi[k], k <= n+2, and F; the coefficients are
    ints when d is an int."""
    F = [d, 0, 0, 1]  # x^3 + d
    F2_16 = poly_scale(poly_mul(F, F), 16)
    psi = [[], [1], [1], poly_trim([0, 12 * d, 0, 0, 3]),
           poly_trim([-16 * d * d, 0, 0, 40 * d, 0, 0, 2])]
    for k in range(5, n + 3):
        m = k // 2
        if k % 2:
            hi = poly_mul(psi[m + 2], poly_mul(psi[m], poly_mul(psi[m], psi[m])))
            lo = poly_mul(psi[m - 1], poly_mul(psi[m + 1], poly_mul(psi[m + 1], psi[m + 1])))
            if m % 2:
                lo = poly_mul(F2_16, lo)
            else:
                hi = poly_mul(F2_16, hi)
            psi.append(poly_sub(hi, lo))
        else:
            psi.append(poly_mul(psi[m], poly_sub(
                poly_mul(psi[m + 2], poly_mul(psi[m - 1], psi[m - 1])),
                poly_mul(psi[m - 2], poly_mul(psi[m + 1], psi[m + 1])))))
    return psi, F


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
    psi, F = _division_tables(d.numerator if d.denominator == 1 else d, n)
    coeffs = psi[n] if n % 2 else poly_mul(F, psi[n])
    dens = [c.denominator for c in coeffs]
    scale = math.lcm(*dens)
    return IntPolynomial(tuple(int(c * scale) for c in coeffs))


def _x_mult_fraction(d: Fraction, n: int):
    """Numerator and denominator (in Q[x]) of the x-coordinate map of [n]."""
    psi, F = _division_tables(d, n + 1)
    x = [Fraction(0), Fraction(1)]
    if n % 2:
        den = poly_mul(psi[n], psi[n])
        num = poly_sub(poly_mul(x, den), poly_scale(poly_mul(F, poly_mul(psi[n - 1], psi[n + 1])), Fraction(4)))
    else:
        den = poly_scale(poly_mul(F, poly_mul(psi[n], psi[n])), Fraction(4))
        num = poly_sub(poly_mul(x, den), poly_mul(psi[n - 1], psi[n + 1]))
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
    num, den = _x_mult_fraction(d, n)
    # x([n]P) = x(Q), or the poles of the x-map when Q = O
    f = den if Q.inf else poly_sub(num, poly_scale(den, Fraction(Q.x)))
    sols = [INFINITY] if Q.inf else []
    for x0 in rational_roots(primitive_int_poly(f)):
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


def genus1_on_curve(a, b, P: Genus1Point, p: int) -> bool:
    if P.inf:
        return True
    return (P.y**3 - P.x * P.x - a * P.x - b) % p == 0


def genus1_to_weierstrass(a, b, P: Genus1Point, p: int) -> CurvePoint:
    """(x, y) on y^3 = x^2+ax+b maps to (4y, 8x+4a) on y^2 = x^3+16(a^2-4b)
    over F_p; infinity to O."""
    if P.inf:
        return INFINITY
    return CurvePoint(4 * P.y % p, (8 * P.x + 4 * a) % p)


def weierstrass_to_genus1(a, b, W: CurvePoint, p: int) -> Genus1Point:
    """Inverse of genus1_to_weierstrass: (X, Y) -> ((Y - 4a)/8, X/4)."""
    if W.inf:
        return Genus1Point.infinity()
    return Genus1Point((W.y - 4 * a) * inv_mod(8, p) % p, W.x * inv_mod(4, p) % p)
