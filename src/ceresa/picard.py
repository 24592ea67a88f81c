"""Bielliptic Picard curves y^3 = x^4 + ax^2 + b.

Invariants and the canonical model (two curves are isomorphic over Q
exactly when their canonical models agree, and over the closure exactly
when their j-invariants agree), construction of the genus-1 quotient's
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
    InvariantViolation,
    cube_root_table,
    factor_over_q,
    is_prime,
    poly_add,
    poly_div_exact,
    poly_eval,
    poly_mul,
    power_part,
    primitive_int_poly,
    roots_mod_p,
)
from .elliptic import (
    CurvePoint,
    WeierstrassCurveFp,
    WeierstrassCurveQ,
    add,
    division_poly,
    genus1_weierstrass_d,
    group_order_fp,
    mul,
    on_curve,
    order_fp,
)


class DegenerateCurve(Exception):
    """The model y^3 = x^4 + ax^2 + b is singular: Delta = 16b(a^2-4b) = 0."""


def discriminant(a, b):
    """Delta = 16b(a^2 - 4b): b times the genus-1 quotient's Weierstrass
    parameter, for rational or integer (a, b)."""
    return b * genus1_weierstrass_d(a, b)


@dataclass(frozen=True)
class PicardCurve:
    """The pair (a, b) with Delta = 16b(a^2 - 4b) != 0."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if discriminant(self.a, self.b) == 0:
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
    delta = discriminant(c.a, c.b)
    if delta == 0:
        raise DegenerateCurve("degenerate: Delta=0")
    return PicardInvariants(delta, (4 * c.b - c.a**2) / (4 * c.b))


def associated_curves(c: PicardCurve) -> AssociatedCurves:
    """E, EDelta, and the marked point Q, with Q on EDelta verified exactly."""
    disc = c.a**2 - 4 * c.b
    E = WeierstrassCurveQ(genus1_weierstrass_d(c.a, c.b))
    EDelta = WeierstrassCurveQ(4 * c.b * disc**2)
    Q = CurvePoint(disc, c.a * disc)
    if not on_curve(EDelta, Q):
        raise InvariantViolation(f"marked point {Q} is not on y^2 = x^3 + {EDelta.d}")
    return AssociatedCurves(E, EDelta, Q)


def decide_ceresa(c: PicardCurve) -> CeresaVerdict:
    """The Ceresa cycle of y^3 = x^4 + ax^2 + b is torsion iff the marked
    point Q = (a^2-4b, a(a^2-4b)) is torsion on y^2 = x^3 + 4b(a^2-4b)^2.

    Rational torsion on a j = 0 curve embeds in Z/6, so Q is torsion iff
    6Q = O; q_order is the least k | 6 with kQ = O."""
    assoc = associated_curves(c)
    E, Q = assoc.EDelta, assoc.Q
    dtxt = f"y^2 = x^3 + {E.d}"
    Q2 = add(E, Q, Q)
    Q3 = add(E, Q2, Q)
    for k, kQ in ((2, Q2), (3, Q3), (6, add(E, Q3, Q3))):
        if kQ.inf:
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
    """The t-line specialization (a, b) = (2t, 1); t = ±1 is degenerate
    (Delta = 64(t^2 - 1)), and PicardCurve rejects it."""
    return decide_ceresa(PicardCurve(2 * Fraction(t), Fraction(1)))


def canonical_model(a: Fraction, b: Fraction) -> tuple[int, int]:
    """The lambda^6-scaling representative with integer coefficients and no
    prime u with u^6 | a and u^12 | b (only the b condition when a = 0).
    Isomorphic inputs share a canonical model, which keys caches and
    good-reduction tests."""
    a, b = Fraction(a), Fraction(b)
    if discriminant(a, b) == 0:
        raise DegenerateCurve("degenerate: Delta=0")
    lam = math.lcm(a.denominator if a else 1, b.denominator)
    ai = int(a * lam**6)
    bi = int(b * lam**12)
    # u^6 | a and u^12 | b exactly when u^12 | gcd(a^2, b)
    u = power_part(math.gcd(ai * ai, bi), 12)
    return ai // u**6, bi // u**12


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


def _t_locus(f: list) -> IntPolynomial:
    """The t-locus S(t) = g(t^2 - 1) of an exact-order polynomial
    f(x) = x^r g(x^3) of y^2 = x^3 + 1, as a primitive integer polynomial.

    x -> wx is an automorphism, so f has this form, and (x, t) has order N
    for some x exactly when x^3 = t^2 - 1 is a root of g.  Since
    g(0) = f[r] != 0, S has no root at the degenerate t = +-1."""
    r = next(i for i, c in enumerate(f) if c)
    if any(c for i, c in enumerate(f[r:]) if i % 3):
        raise InvariantViolation("exact-order polynomial is not of the form x^r g(x^3)")
    s: list = []
    for c in reversed(f[r::3]):
        s = poly_add(poly_mul(s, [-1, 0, 1]), [c])
    return primitive_int_poly(s)


def _certify_locus_factor(h: IntPolynomial, N: int) -> tuple[int, int]:
    """Certify the roots of h as parameters of exact order N by reduction at
    two good primes: a simple root t of h mod p lifts p-adically, so any
    cube root x of t^2 - 1 in F_p reduces a genuine (x, t) on y^2 = x^3 + 1
    and must have order exactly N (reduction is injective on prime-to-p
    torsion; the automorphism x -> wx makes every cube-root choice valid).
    Primes where no root admits a cube root carry no information and are
    skipped, and so are primes with N not dividing #E(F_p): there a realized
    root would be a point of order N in E(F_p), which Lagrange rules out, so
    the skip never passes over a witness.  Returns the two witness primes."""
    found = []
    primes_of_N = [q for q in range(2, N + 1) if N % q == 0 and is_prime(q)]
    p = 3
    while len(found) < 2:
        p += 1
        if p > 10_000:
            raise InvariantViolation(f"no certification primes found for order {N}")
        if not is_prime(p) or (6 * N) % p == 0:
            continue
        if h.coefficients[-1] % p == 0:
            continue
        E = WeierstrassCurveFp(1, p)
        if group_order_fp(E) % N:
            continue
        roots = roots_mod_p(list(h.coefficients), p)
        if not roots:
            continue
        # only simple roots mod p are guaranteed to lift to roots of h, so a
        # prime where h picks up a repeated root is not a valid witness
        dh_p = [i * c % p for i, c in enumerate(h.coefficients)][1:]
        if any(poly_eval(dh_p, t) % p == 0 for t in roots):
            continue
        cube_roots = cube_root_table(p)
        realized = 0
        for t in roots:
            for x in cube_roots.get((t * t - 1) % p, []):
                realized += 1
                P = CurvePoint(x, t)
                if not mul(E, N, P).inf or any(mul(E, N // q, P).inf for q in primes_of_N):
                    raise InvariantViolation(
                        f"torsion locus certification failed: root {t} of "
                        f"{h.to_str('t')} mod {p} gives order {order_fp(E, P)}, expected {N}"
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
    entries = []
    for n in range(2, N_max + 1):
        polys = factor_over_q(_t_locus(exact[n]).coefficients)
        for h in polys:
            _certify_locus_factor(h, n)
        polys.sort(key=lambda q: (q.degree, q.coefficients))
        entries.append(TorsionLocusEntry(n, tuple(polys)))
    return entries
