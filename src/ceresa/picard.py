"""Bielliptic Picard curves y^3 = x^4 + ax^2 + b.

Invariants and the canonical model (two curves are isomorphic over Q
exactly when their canonical models agree, and over the closure exactly
when their j-invariants agree), construction of the genus-1 quotient's
Weierstrass model E and the sextic twist E^Delta with its marked point Q,
the Ceresa-cycle torsion decision (torsion iff Q is torsion, which is a
lookup of Q's order by j: 2 at j = 1, 3 at j = 4, 6 at j = -8, infinite
elsewhere), and the enumeration of the torsion locus on the t-line
(a, b) = (2t, 1).

The locus of order N is S_N(t) = g_N(t^2 - 1).  It is factored in
w = t^2 - 1, where g_N has half the degree, and each irreducible factor h is
lifted by Capelli's lemma: h(t^2 - 1) is irreducible exactly when alpha + 1
is not a square in Q(alpha), alpha a root of h.  A norm of alpha + 1 that is
not a square in Q, or a prime witness (a simple root a of h mod p with a + 1
a non-residue), proves that; any other factor h(t^2 - 1) is factored over Q.
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
    factorize,
    poly_add,
    poly_div_exact,
    poly_eval,
    poly_mul,
    power_part,
    primes_up_to,
    primitive_int_poly,
    rational_root,
    roots_mod_p,
)
from .elliptic import (
    CurvePoint,
    WeierstrassCurveFp,
    WeierstrassCurveQ,
    division_poly,
    genus1_weierstrass_d,
    group_order_fp,
    mul,
    on_curve,
    order_fp,
)


class DegenerateCurve(ValueError):
    """The model y^3 = x^4 + ax^2 + b is singular: Delta = 16b(a^2-4b) = 0.
    A ValueError, like every invalid input (the CLI's exit 2)."""


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
    return PicardInvariants(discriminant(c.a, c.b), (4 * c.b - c.a**2) / (4 * c.b))


def associated_curves(c: PicardCurve) -> AssociatedCurves:
    """E, EDelta, and the marked point Q, with Q on EDelta verified exactly."""
    disc = c.a**2 - 4 * c.b
    E = WeierstrassCurveQ(genus1_weierstrass_d(c.a, c.b))
    EDelta = WeierstrassCurveQ(4 * c.b * disc**2)
    Q = CurvePoint(disc, c.a * disc)
    if not on_curve(EDelta, Q):
        raise InvariantViolation(f"marked point {Q} is not on y^2 = x^3 + {EDelta.d}")
    return AssociatedCurves(E, EDelta, Q)


# The order of the marked point Q at the three j where it is torsion; at
# every other j it has infinite order (see decide_ceresa).
_Q_ORDER_BY_J = {1: 2, 4: 3, -8: 6}


def decide_ceresa(c: PicardCurve) -> CeresaVerdict:
    """The Ceresa cycle of y^3 = x^4 + ax^2 + b is torsion iff the marked
    point Q = (a^2-4b, a(a^2-4b)) is torsion on y^2 = x^3 + 4b(a^2-4b)^2.

    Rational torsion on a j = 0 curve embeds in Z/6, so Q has order 2, 3,
    6 or infinity, and the order is read off j = -delta/4b (no multiple of
    Q is computed).  With delta = a^2 - 4b and D = 4b delta^2, Q = (delta,
    a delta) on y^2 = x^3 + D, and delta, b != 0:
      - 2Q = O iff a delta = 0 iff a = 0 (j = 1);
      - 3Q = O iff psi_3(delta) = 3 delta (delta^3 + 4D) = 0 iff
        delta = -16b iff a^2 = -12b (j = 4);
      - order 6 makes the torsion Z/6, so D is a sixth power and the only
        rational 3-torsion has x = 0; then 2Q has order 3 iff
        x(2Q) = delta (delta^3 - 8D) / 4(delta^3 + D) = 0 iff delta = 32b
        iff a^2 = 36b (j = -8), where D = (2a/3)^6."""
    return _verdict(c, associated_curves(c))


def _verdict(c: PicardCurve, assoc: AssociatedCurves) -> CeresaVerdict:
    """decide_ceresa for a curve whose associated_curves are already built."""
    Q = assoc.Q
    dtxt = f"y^2 = x^3 + {assoc.EDelta.d}"
    k = _Q_ORDER_BY_J.get(invariants(c).j)
    if k is not None:
        return CeresaVerdict("torsion", k, f"marked point Q={Q} on {dtxt} satisfies {k}Q = O")
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
    Isomorphic inputs share a canonical model; the CLI's decide and
    certify report on it, and the good-reduction tests read it."""
    a, b = Fraction(a), Fraction(b)
    lam = math.lcm(a.denominator, b.denominator)
    ai = int(a * lam**6)
    bi = int(b * lam**12)
    if discriminant(ai, bi) == 0:  # lam^24 times that of (a, b)
        raise DegenerateCurve("degenerate: Delta=0")
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


def _exact_order_division_polys(n_max: int) -> dict[int, list[int]]:
    """f_N with roots exactly the x-coordinates of exact-order-N points of
    y^2 = x^3 + 1, by exact division of division polynomials in Z[x]: each
    f_N is kept primitive, so every division is exact (Gauss's lemma)."""
    E1 = WeierstrassCurveQ(Fraction(1))
    f: dict[int, list[int]] = {}
    for n in range(2, n_max + 1):
        div_n = list(division_poly(E1, n).coefficients)
        for m in range(2, n):
            if n % m == 0:
                div_n = poly_div_exact(div_n, f[m])
        f[n] = list(primitive_int_poly(div_n).coefficients)
    return f


def _w_locus(f: list) -> IntPolynomial:
    """The polynomial g of an exact-order polynomial f(x) = x^r g(x^3) of
    y^2 = x^3 + 1, as a primitive integer polynomial in w = x^3.

    x -> omega x is an automorphism, so f has this form, and (x, t) has
    order N for some x exactly when w = x^3 = t^2 - 1 is a root of g."""
    r = next(i for i, c in enumerate(f) if c)
    if any(c for i, c in enumerate(f[r:]) if i % 3):
        raise InvariantViolation("exact-order polynomial is not of the form x^r g(x^3)")
    return primitive_int_poly(f[r::3])


def _on_t_line(g: IntPolynomial) -> IntPolynomial:
    """g(t^2 - 1), by Horner's rule in t^2 - 1.  It is primitive with a
    positive leading coefficient when g is: w -> t^2 - 1 is injective on
    F_p[w], so no prime divides every coefficient."""
    s: list = []
    for c in reversed(g.coefficients):
        s = poly_add(poly_mul(s, [-1, 0, 1]), [c])
    return primitive_int_poly(s)


# The witness search for alpha + 1 not a square gives up after this many
# simple roots a mod p with a + 1 a square or zero: a factor whose lift splits
# has no witness at all, and must reach factor_over_q quickly.
_SQUARE_ROOTS_BEFORE_FALLBACK = 24

# The largest prime tried by the witness searches of the torsion locus, and
# the primes both searches walk, in ascending order.
_LOCUS_PRIME_CAP = 10_000
_LOCUS_PRIMES = primes_up_to(_LOCUS_PRIME_CAP)

# The largest order enumerate_torsion_locus accepts: every order up to it has
# been enumerated and certified end to end; at N = 27 the locus certifier
# finds no witness prime below _LOCUS_PRIME_CAP.
TORSION_ORDER_LIMIT = 26


def _locus_roots_mod_p(h: IntPolynomial, p: int) -> tuple[list[int], list[int]]:
    """The roots of h mod p and those of them that are simple, which lift to
    roots of h in Z_p (Hensel's lemma); none at all when p divides lc(h)."""
    if h.coefficients[-1] % p == 0:
        return [], []
    roots = roots_mod_p(list(h.coefficients), p)
    dh_p = [i * c % p for i, c in enumerate(h.coefficients)][1:]
    return roots, [a for a in roots if poly_eval(dh_p, a) % p]


def _norm_is_square(h: IntPolynomial) -> bool:
    """Whether N(alpha + 1) = (-1)^deg(h) h(-1) / lc(h), for alpha a root of h,
    is a square in Q (0 counts as a square).  If alpha + 1 = beta^2 in
    Q(alpha), this norm is N(beta)^2."""
    norm = Fraction((-1) ** h.degree * h(-1), h.coefficients[-1])
    return rational_root(norm, 2) is not None


def _nonsquare_witness(h: IntPolynomial) -> tuple[int, int] | None:
    """An odd prime p not dividing lc(h) and a simple root a of h mod p with
    a + 1 a quadratic non-residue, for an irreducible h with root alpha.

    Hensel's lemma lifts a to a root of h in Z_p, which embeds Q(alpha) in
    Q_p; there alpha + 1 is a unit with a non-square residue, so alpha + 1 is
    not a square in Q(alpha).  Primes are tried in ascending order; None
    once _SQUARE_ROOTS_BEFORE_FALLBACK simple roots had a + 1 a square or
    zero, or past _LOCUS_PRIME_CAP."""
    squares = 0
    for p in _LOCUS_PRIMES[1:]:
        if squares >= _SQUARE_ROOTS_BEFORE_FALLBACK:
            break
        for a in _locus_roots_mod_p(h, p)[1]:
            if pow(a + 1, (p - 1) // 2, p) == p - 1:
                return p, a
            squares += 1
    return None


def _lift_to_t_line(h: IntPolynomial) -> list[IntPolynomial]:
    """The irreducible factors over Q of h(t^2 - 1), for an irreducible h in w.

    By Capelli's lemma, h(t^2 - 1) is irreducible exactly when alpha + 1 is
    not a square in Q(alpha), for alpha a root of h.  That is proved by a norm
    that is not a square in Q or by a prime witness (_nonsquare_witness).
    Otherwise (alpha = -1, where a + 1 = 0 at every prime, or no witness
    found) h(t^2 - 1) is factored."""
    lifted = _on_t_line(h)
    if not _norm_is_square(h) or _nonsquare_witness(h) is not None:
        return [lifted]
    return factor_over_q(lifted.coefficients)


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
    primes_of_N = factorize(N)
    for p in _LOCUS_PRIMES:
        if (6 * N) % p == 0:
            continue
        E = WeierstrassCurveFp(1, p)
        if group_order_fp(E) % N:
            continue
        roots, simple = _locus_roots_mod_p(h, p)
        # a prime where h picks up a repeated root is not a valid witness
        if not roots or len(simple) < len(roots):
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
            if len(found) == 2:
                return tuple(found)
    raise InvariantViolation(f"no certification primes found for order {N}")


def enumerate_torsion_locus(N_max: int) -> list[TorsionLocusEntry]:
    """For each N in 2..N_max, the minimal polynomials over Q of all
    t (excluding the degenerate t = ±1) such that (x, t) has exact order N
    on y^2 = x^3 + 1.  The locus g_N(t^2 - 1) is factored in w = t^2 - 1,
    at half the degree, and each factor is lifted to the t-line.  Every
    factor is certified by two-prime reduction.  An N_max outside
    2..TORSION_ORDER_LIMIT raises ValueError before any work."""
    if N_max < 2:
        raise ValueError("N_max must be >= 2")
    if N_max > TORSION_ORDER_LIMIT:
        raise ValueError(f"N_max = {N_max} exceeds the torsion-order "
                         f"limit {TORSION_ORDER_LIMIT}")
    exact = _exact_order_division_polys(N_max)
    entries = []
    for n in range(2, N_max + 1):
        polys = [s for h in factor_over_q(_w_locus(exact[n]).coefficients)
                 for s in _lift_to_t_line(h)]
        for h in polys:
            _certify_locus_factor(h, n)
        polys.sort(key=lambda q: (q.degree, q.coefficients))
        entries.append(TorsionLocusEntry(n, tuple(polys)))
    return entries
