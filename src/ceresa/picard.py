"""Bielliptic Picard curves y^3 = x^4 + ax^2 + b.

Invariants and isomorphism testing, construction of the genus-1 quotient's
Weierstrass model E and the sextic twist E^Delta with its marked point Q,
the Ceresa-cycle torsion decision (torsion iff Q is torsion), and the
enumeration of the torsion locus on the t-line (a, b) = (2t, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    IntPolynomial,
    cube_root_table,
    factorize,
    is_prime,
    poly_add,
    poly_div_exact,
    poly_eval,
    poly_mul,
    poly_scale,
    poly_sub,
    poly_trim,
    primitive_int_poly,
    rational_root,
)
from .elliptic import (
    CurvePoint,
    WeierstrassCurveFp,
    WeierstrassCurveQ,
    division_poly,
    mul,
    on_curve,
    order_fp,
)


class DegenerateCurve(Exception):
    """The model y^3 = x^4 + ax^2 + b is singular: Delta = 16b(a^2-4b) = 0."""


@dataclass(frozen=True)
class PicardCurve:
    """The pair (a, b) with Delta = 16b(a^2 - 4b) != 0."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if 16 * self.b * (self.a**2 - 4 * self.b) == 0:
            raise DegenerateCurve("degenerate: Delta=0")


@dataclass(frozen=True)
class PicardInvariants:
    delta: Fraction
    j: Fraction


@dataclass(frozen=True)
class AssociatedCurves:
    """The genus-1 quotient's Weierstrass model E: y^2 = x^3 + 16(a^2-4b),
    the sextic twist EDelta: y^2 = x^3 + 4b(a^2-4b)^2, and the marked point
    Q = (a^2-4b, a(a^2-4b)) on EDelta."""

    E: WeierstrassCurveQ
    EDelta: WeierstrassCurveQ
    Q: CurvePoint


@dataclass(frozen=True)
class CeresaVerdict:
    """Torsion/infinite decision for the Ceresa cycle.  q_order is the
    exact order of the marked point and is present iff torsion."""

    status: str  # "torsion" | "infinite"
    q_order: int | None
    evidence: str


def invariants(c: PicardCurve) -> PicardInvariants:
    """Delta = 16b(a^2 - 4b) and j = (4b - a^2)/4b, both exact."""
    delta = 16 * c.b * (c.a**2 - 4 * c.b)
    if delta == 0:
        raise DegenerateCurve("degenerate: Delta=0")
    return PicardInvariants(delta, (4 * c.b - c.a**2) / (4 * c.b))


def is_isomorphic(c1: PicardCurve, c2: PicardCurve, mode: str = "over-Q"):
    """Isomorphism test.

    over-Q: returns lambda with (a2, b2) = (lambda^6 a1, lambda^12 b1), or
    None.  over-closure: curves are isomorphic iff their j-invariants agree;
    returns True or None.
    """
    if mode == "over-closure":
        return True if invariants(c1).j == invariants(c2).j else None
    if mode != "over-Q":
        raise ValueError("mode must be 'over-Q' or 'over-closure'")
    if c1.a == 0:
        if c2.a != 0:
            return None
        return rational_root(c2.b / c1.b, 12)
    if c2.a == 0:
        return None
    ratio = c2.a / c1.a
    lam = rational_root(ratio, 6)
    if lam is None:
        # a negative ratio can still admit lambda^6 only if positive, so done
        return None
    if c2.b == lam**12 * c1.b:
        return lam
    return None


def associated_curves(c: PicardCurve) -> AssociatedCurves:
    """E, EDelta, and the marked point Q, with Q on EDelta verified exactly."""
    disc = c.a**2 - 4 * c.b
    E = WeierstrassCurveQ(16 * disc)
    EDelta = WeierstrassCurveQ(4 * c.b * disc**2)
    Q = CurvePoint(disc, c.a * disc)
    assert on_curve(EDelta, Q)
    return AssociatedCurves(E, EDelta, Q)


def decide_ceresa(c: PicardCurve) -> CeresaVerdict:
    """The Ceresa cycle of y^3 = x^4 + ax^2 + b is torsion iff the marked
    point Q = (a^2-4b, a(a^2-4b)) is torsion on y^2 = x^3 + 4b(a^2-4b)^2.

    Rational torsion on a j = 0 curve embeds in Z/6, so Q is torsion iff
    6Q = O; q_order is the least k | 6 with kQ = O."""
    assoc = associated_curves(c)
    E, Q = assoc.EDelta, assoc.Q
    dtxt = f"y^2 = x^3 + {E.d}"
    for k in (2, 3, 6):
        if mul(E, k, Q).inf:
            return CeresaVerdict(
                "torsion",
                k,
                f"marked point Q={Q} on {dtxt} satisfies {k}Q = O",
            )
    return CeresaVerdict(
        "infinite",
        None,
        f"marked point Q={Q} on {dtxt} has 6Q != O, and rational torsion "
        "of a j=0 curve is a subgroup of Z/6, so Q has infinite order",
    )


def decide_ceresa_t(t: Fraction) -> CeresaVerdict:
    """The t-line specialization (a, b) = (2t, 1); t = ±1 is degenerate."""
    t = Fraction(t)
    if t == 1 or t == -1:
        raise DegenerateCurve("degenerate: Delta=0")
    return decide_ceresa(PicardCurve(2 * t, Fraction(1)))


def canonical_model(a: Fraction, b: Fraction) -> tuple[int, int]:
    """The lambda^6-scaling representative with integer coefficients and no
    prime u with u^6 | a and u^12 | b (only the b condition when a = 0).
    Isomorphic inputs share a canonical model, which keys caches and
    good-reduction tests."""
    a, b = Fraction(a), Fraction(b)
    if 16 * b * (a * a - 4 * b) == 0:
        raise DegenerateCurve("degenerate: Delta=0")
    lam = math.lcm(a.denominator if a else 1, b.denominator)
    ai = int(a * lam**6)
    bi = int(b * lam**12)
    for u in sorted(factorize(math.gcd(ai, bi) if ai else abs(bi))):
        while bi % u**12 == 0 and (ai == 0 or ai % u**6 == 0):
            ai //= u**6
            bi //= u**12
    return ai, bi


# ---------------------------------------------------------------------------
# torsion locus on the t-line

@dataclass(frozen=True)
class TorsionLocusEntry:
    """Minimal polynomials over Q of the parameters t (t != ±1) for which
    the point (x, t) on y^2 = x^3 + 1 has exact order N for some x."""

    order: int
    t_minimal_polynomials: tuple[IntPolynomial, ...]


def _exact_order_division_polys(n_max: int) -> dict[int, list]:
    """f_N with roots exactly the x-coordinates of exact-order-N points of
    y^2 = x^3 + 1, by exact division of division polynomials."""
    E1 = WeierstrassCurveQ(Fraction(1))
    f: dict[int, list] = {}
    for n in range(2, n_max + 1):
        div_n = [Fraction(c) for c in division_poly(E1, n).coefficients]
        for m in range(2, n):
            if n % m == 0:
                div_n = poly_div_exact(div_n, f[m])
        f[n] = div_n
    return f


def _norm_resultant_t(f: list) -> list[int]:
    """Eliminate x from {f(x) = 0, t^2 = x^3 + 1}: reduce f modulo
    x^3 - (u - 1) with u = t^2 to A + Bx + Cx^2 over Z[u], take the norm
    A^3 + (u-1)B^3 + (u-1)^2C^3 - 3(u-1)ABC, and substitute u = t^2.
    Same roots as the Sylvester resultant in x."""
    um1 = [Fraction(-1), Fraction(1)]  # u - 1
    slots = [[], [], []]  # A, B, C in Q[u]
    power = [Fraction(1)]  # (u-1)^qt
    last_q = 0
    for i, coeff in enumerate(f):
        q, r = divmod(i, 3)
        while last_q < q:
            power = poly_mul(power, um1)
            last_q += 1
        if coeff:
            slots[r] = poly_add(slots[r], poly_scale(power, coeff))
    A, B, C = slots
    cube = lambda g: poly_mul(g, poly_mul(g, g))
    norm = poly_add(cube(A), poly_mul(um1, cube(B)))
    norm = poly_add(norm, poly_mul(poly_mul(um1, um1), cube(C)))
    norm = poly_sub(norm, poly_scale(poly_mul(um1, poly_mul(A, poly_mul(B, C))), Fraction(3)))
    norm = poly_trim(norm)
    # u = t^2
    out = [Fraction(0)] * (2 * len(norm) - 1 if norm else 0)
    for i, cf in enumerate(norm):
        out[2 * i] = cf
    prim = primitive_int_poly(out)
    return list(prim.coefficients)


def _factor_over_q(coeffs: list[int]) -> list[IntPolynomial]:
    """Irreducible factors over Q (each primitive, positive leading
    coefficient, multiplicity dropped)."""
    from sympy import Poly, Symbol, factor_list

    t = Symbol("t")
    _, factors = factor_list(Poly(list(reversed(coeffs)), t).as_expr())
    out = []
    for fac, _m in factors:
        p = Poly(fac, t)
        out.append(primitive_int_poly([Fraction(c) for c in reversed([int(v) for v in p.all_coeffs()])]))
    return out


def _certify_locus_factor(h: IntPolynomial, N: int) -> tuple[int, int]:
    """Certify the roots of h as parameters of exact order N by reduction at
    two good primes: a simple root t of h mod p lifts p-adically, so any
    cube root x of t^2 - 1 in F_p reduces a genuine (x, t) on y^2 = x^3 + 1
    and must have order exactly N (reduction is injective on prime-to-p
    torsion; the automorphism x -> wx makes every cube-root choice valid).
    Primes where no root admits a cube root carry no information and are
    skipped.  Returns the two witness primes."""
    found = []
    p = 3
    while len(found) < 2:
        p += 1
        if p > 10_000:
            raise RuntimeError(f"no certification primes found for order {N}")
        if not is_prime(p) or (6 * N) % p == 0:
            continue
        if h.coefficients[-1] % p == 0:
            continue
        h_p = [c % p for c in h.coefficients]
        roots = [t for t in range(p) if poly_eval(h_p, t) % p == 0]
        if not roots:
            continue
        # only simple roots mod p are guaranteed to lift to roots of h, so a
        # prime where h picks up a repeated root is not a valid witness
        dh_p = [i * c % p for i, c in enumerate(h_p)][1:]
        if any(poly_eval(dh_p, t) % p == 0 for t in roots):
            continue
        E = WeierstrassCurveFp(1, p)
        cube_roots = cube_root_table(p)
        realized = 0
        for t in roots:
            for x in cube_roots.get((t * t - 1) % p, []):
                realized += 1
                got = order_fp(E, CurvePoint(x, t))
                if got != N:
                    raise RuntimeError(
                        f"torsion locus certification failed: root {t} of "
                        f"{h.to_str('t')} mod {p} gives order {got}, expected {N}"
                    )
        if realized:
            found.append(p)
    return tuple(found)


def enumerate_torsion_locus(N_max: int) -> list[TorsionLocusEntry]:
    """For each N in 2..N_max, the minimal polynomials over Q of all
    t (excluding the degenerate t = ±1) such that (x, t) has exact order N
    on y^2 = x^3 + 1.  Every factor is certified by two-prime reduction."""
    if N_max < 2:
        raise ValueError("N_max must be >= 2")
    exact = _exact_order_division_polys(N_max)
    one = IntPolynomial((-1, 1))
    minus_one = IntPolynomial((1, 1))
    entries = []
    for n in range(2, N_max + 1):
        res = _norm_resultant_t(exact[n])
        polys = []
        for h in _factor_over_q(res):
            if h.degree < 1 or h == one or h == minus_one:
                continue  # constants and the degenerate parameters t = ±1
            if h not in polys:
                polys.append(h)
        for h in polys:
            _certify_locus_factor(h, n)
        polys.sort(key=lambda q: (q.degree, q.coefficients))
        entries.append(TorsionLocusEntry(n, tuple(polys)))
    return entries
