"""Néron-Tate canonical heights on y^2 = x^3 + d and the Northcott scan.

The canonical height is computed as a sum of local heights in the
normalization lam(2P) = 4*lam(P) - log|2y(P)|_v at every place, on a
globally fixed 6th-power-free integral model.  Summed over all places this
telescopes to the standard Néron-Tate height: h(nP) = n^2 h(P), zero
exactly on torsion.  The archimedean term is a doubling series.  The
primes of den(x) give log sqrt(den(x)) in one term; at the other primes of
6*d0 the term is an exact multiple of log p, in closed form from v_p(psi_2)
and v_p(psi_3) (Silverman, "Computing heights on elliptic curves", Math.
Comp. 51, 1988, Thm 5.2).  One factorization per height, of the integer
d * den(d)^6, yields both the model and those primes.

The scan computes one height per ±t pair.  The parameters t and -t give
the same curve y^2 = x^3 + 4(4t^2 - 4)^2 with Q_{-t} = -Q_t, and the height
reads a point only through x and through the sign-free facts y = 0 mod p
and v_p(2y), so h(Q_{-t}) is h(Q_t) bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath.libmp import (
    fone,
    from_int,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_eq,
    mpf_gt,
    mpf_log,
    mpf_mul,
    mpf_mul_int,
    mpf_pos,
    mpf_pow_int,
    mpf_shift,
    mpf_sub,
    round_nearest,
    to_float,
)

from .arith import InvariantViolation, factorize, int_root
from .elliptic import CurvePoint, WeierstrassCurveQ, torsion_points
from .picard import PicardCurve, _verdict, associated_curves

_ARCH_TERMS = 40
_PREC = 80  # bits for the archimedean series and the sum of local terms
_ERROR_BOUND = 1e-9  # dominated by the 4^-40 series tail at 80-bit precision
SCAN_B_LIMIT = 200  # the largest box of northcott_scan; its work grows as B^2


@dataclass(frozen=True)
class HeightValue:
    """A canonical height: natural-log normalization.  Torsion points get
    value 0.0 exactly (decided by the torsion classification, never by a
    threshold)."""

    value: float
    error_bound: float


def _log_plus(t, prec):
    a = mpf_abs(t)
    return mpf_log(a, prec, round_nearest) if mpf_gt(a, fone) else fzero


def _lam_arch(x0: Fraction, d: int, prec: int = _PREC):
    """Archimedean local height via the telescoped doubling series

        lam = 1/2 log+|x| + sum_n 4^-(n+1) c(x_n),
        c(x) = 1/2 (log+|x(2P)| - 4 log+|x| + log|4x^3 + 4d|),

    where x_{n+1} = x(2P_n).  The summand c is bounded (the log|4x^3+4d|
    term cancels the blowup near 2-torsion), so the tail is O(4^-N).

    Runs on raw mpmath.libmp values at _PREC bits, round to nearest, and
    returns one: the same rounded operations, in the same order, as the
    operator form kept in tests/height_oracle.py, so the bits agree.  The
    divisions by 2 and 4^(n+1) are exact and fold into one shift.

    A term 4x^3 + 4d that rounds to 0 is 2-torsion only if x0^3 + d = 0:
    the halves of (-c, 0) have x = c(-1 +- sqrt 3), so the orbit of a
    rational x0 meets 2-torsion at x0 or never.  Otherwise 4x^3 and 4d
    cancelled, and the series is redone once at a precision with room for
    |x0|^3, |d| and den(x0)^3 >= 1/|x0^3 + d|, then rounded to _PREC bits."""
    rnd = round_nearest
    x = mpf_div(from_int(x0.numerator, prec, rnd), from_int(x0.denominator), prec, rnd)
    dd = from_int(d, prec, rnd)
    dd4 = mpf_mul_int(dd, 4, prec, rnd)
    dd8 = mpf_mul_int(dd, 8, prec, rnd)
    lx = _log_plus(x, prec)
    total = mpf_shift(lx, -1)
    for n in range(_ARCH_TERMS):
        den = mpf_add(mpf_mul_int(mpf_pow_int(x, 3, prec, rnd), 4, prec, rnd), dd4, prec, rnd)
        if mpf_eq(den, fzero):
            if x0**3 + d == 0 or prec != _PREC:
                raise InvariantViolation("archimedean series reached 2-torsion")
            wide = _PREC + d.bit_length() + 3 * (x0.numerator.bit_length()
                                                 + x0.denominator.bit_length())
            return mpf_pos(_lam_arch(x0, d, wide), _PREC, rnd)
        num = mpf_sub(mpf_pow_int(x, 4, prec, rnd), mpf_mul(dd8, x, prec, rnd), prec, rnd)
        x = mpf_div(num, den, prec, rnd)
        lx2 = _log_plus(x, prec)
        c = mpf_add(mpf_sub(lx2, mpf_mul_int(lx, 4, prec, rnd), prec, rnd),
                    mpf_log(mpf_abs(den), prec, rnd), prec, rnd)
        total = mpf_add(total, mpf_shift(c, -2 * n - 3), prec, rnd)
        lx = lx2
    return total


def _val(r: Fraction, p: int) -> int | None:
    """p-adic valuation of a rational; None encodes +infinity (r = 0)."""
    if r == 0:
        return None
    v = 0
    n = r.numerator
    while n % p == 0:
        n //= p
        v += 1
    n = r.denominator
    while n % p == 0:
        n //= p
        v -= 1
    return v


def _reduces_to_cusp(x: Fraction, y: Fraction, p: int) -> bool:
    # x, y p-integral: y^2 = x^3 + d mod p is singular where 3x^2 and 2y
    # both vanish (at (0, 0) for p >= 5); P reduces to that point
    return 3 * x.numerator**2 % p == 0 and 2 * y.numerator % p == 0


def _lam_p_coeff(x: Fraction, y: Fraction, d: int, p: int) -> Fraction:
    """Local height at p, for P with p-integral x, as an exact multiple of
    log p, in the normalization lam(mP) = m^2 lam(P) + v_p(psi_m(P)) log p.

    Smooth reduction: lam_p = 0.  Reduction to the cusp: Silverman's closed
    form (Math. Comp. 51, 1988, Thm 5.2) with
    a = v_p(psi_2(P)) = v_p(2y) and b = v_p(psi_3(P)) = v_p(3x^4 + 12dx).
    If b >= 3a the doubling chain never leaves the cusp and lam_p is its
    fixed point -a/3 (component group Z/3); otherwise 2P escapes in one
    step and lam_p = -b/8."""
    if not _reduces_to_cusp(x, y, p):
        return Fraction(0)
    a = _val(2 * y, p)
    b = _val(3 * x**4 + 12 * d * x, p)
    if a is None or b is None:  # 2- and 3-torsion are short-circuited
        raise InvariantViolation(f"({x}, {y}) is torsion at the cusp of p = {p}")
    return Fraction(-a, 3) if b >= 3 * a else Fraction(-b, 8)


def canonical_height(E: WeierstrassCurveQ, P: CurvePoint) -> HeightValue:
    """Néron-Tate height of a rational point of y^2 = x^3 + d.

    Exact 0 for torsion (including O); otherwise archimedean series plus
    exact non-archimedean corrections on the 6th-power-free integral model
    y^2 = x^3 + d0, at the primes dividing 6*d0 and den(x).  Only
    d * den(d)^6 = mu^6 d0 is factored, once: it gives d0, the scaling
    u = mu/den(d) and the primes of 6*d0; den(x) is never factored."""
    if P.inf or P in torsion_points(E.d):
        return HeightValue(0.0, 0.0)
    # d1 = d * den^6 = mu^6 * d0 is factored once: its primes, with 2 and 3,
    # include every prime where a local term can be nonzero (at a prime of
    # mu not dividing 6*d0, P cannot reduce to the cusp, so the term is 0)
    den = E.d.denominator
    d1 = E.d.numerator * den**5
    fac = factorize(d1)
    mu = math.prod(p ** (e // 6) for p, e in fac.items())
    d0, u = d1 // mu**6, Fraction(mu, den)
    x = Fraction(P.x) / u**2
    y = Fraction(P.y) / u**3
    if y * y != x**3 + d0:
        raise InvariantViolation(f"({x}, {y}) is not on y^2 = x^3 + {d0}")
    # on an integral model den(x) = root^2, and at each prime of root P is
    # in the formal group, whatever the reduction type, with the term
    # -v_p(x)/2 log p = v_p(root) log p: together they are log root
    root = int_root(x.denominator, 2)
    if root is None:
        raise InvariantViolation(f"denominator of x = {x} is not a square")
    rnd = round_nearest
    total = _lam_arch(x, d0)
    for p in sorted(fac.keys() | {2, 3}):
        coeff = _lam_p_coeff(x, y, d0, p) if root % p else 0
        if coeff:
            c = mpf_div(from_int(coeff.numerator, _PREC, rnd), from_int(coeff.denominator),
                        _PREC, rnd)
            total = mpf_add(total, mpf_mul(c, mpf_log(from_int(p), _PREC, rnd), _PREC, rnd),
                            _PREC, rnd)
    total = mpf_add(total, mpf_log(from_int(root), _PREC, rnd), _PREC, rnd)
    return HeightValue(to_float(total, rnd=rnd), _ERROR_BOUND)


@dataclass(frozen=True)
class NorthcottRow:
    """One parameter t with its torsion verdict and the height of the
    marked point on the sextic twist."""

    t: Fraction
    verdict: object  # CeresaVerdict
    height: HeightValue


def northcott_scan(B: int, bound: float = math.inf) -> list[NorthcottRow]:
    """Every t = m/n in lowest terms with max(|m|, n) <= B and t != ±1:
    the torsion verdict for the curve with (a, b) = (2t, 1) and the
    canonical height of its marked point.  Rows with height <= bound, in
    increasing t order.  A B outside 1..SCAN_B_LIMIT raises ValueError
    before any work.

    The height is computed once per ±t pair: t and -t share the curve
    E_Delta and Q_{-t} = -Q_t, whose height is the same float (see the
    module docstring).  The verdict, and the check that it says torsion
    exactly when the height is 0, stay per row."""
    if B < 1:
        raise ValueError("B must be >= 1")
    if B > SCAN_B_LIMIT:
        raise ValueError(f"B = {B} exceeds the scan limit {SCAN_B_LIMIT}")
    ts = sorted(
        Fraction(m, n)
        for n in range(1, B + 1)
        for m in range(-B, B + 1)
        if math.gcd(abs(m), n) == 1 and abs(Fraction(m, n)) != 1
    )
    rows = []
    by_t = {}
    for t in ts:
        c = PicardCurve(2 * t, Fraction(1))
        assoc = associated_curves(c)
        verdict = _verdict(c, assoc)
        h = by_t.get(-t)
        if h is None:
            h = by_t[t] = canonical_height(assoc.EDelta, assoc.Q)
        if (verdict.status == "torsion") != (h.value == 0.0):
            raise InvariantViolation(f"t = {t}: verdict {verdict.status} but height {h.value}")
        if h.value <= bound:
            rows.append(NorthcottRow(t, verdict, h))
    return rows
