"""Reference local heights for the kernels in `ceresa.heights`.

At a prime: the chain doubles P over Q until 2^k P no longer reduces to the
cusp of y^2 = x^3 + d mod p, then unwinds lam(P) = (lam(2P) - v_p(2y(P)))/4
back to P.  Exact rationals make it slow (coordinate sizes quadruple per
step), so it serves only as the oracle for the closed form.

At infinity: the doubling series written with mpmath's `mpf` operators,
the oracle for the raw `mpmath.libmp` kernel, which must match it bit for
bit.

The sixth-power-free model: d = d0 * u^6 read off sympy's factorization,
the reference for the one factorization inside `canonical_height`.
"""

import math
from fractions import Fraction

from mpmath import mp
from sympy import factorint

from ceresa.arith import InvariantViolation
from ceresa.heights import _ARCH_TERMS, _reduces_to_cusp, _val


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
    mu = math.prod(p ** (e // 6) for p, e in factorint(abs(d1)).items())
    return d1 // mu**6, Fraction(mu, den)


def _log_plus(t):
    a = abs(t)
    return mp.log(a) if a > 1 else mp.mpf(0)


def lam_arch_reference(x0: Fraction, d: int):
    """The archimedean doubling series at the current mp precision, one
    `mpf` operator per rounded operation (call it inside mp.workprec)."""
    x = mp.mpf(x0.numerator) / x0.denominator
    dd = mp.mpf(d)
    total = _log_plus(x) / 2
    for n in range(_ARCH_TERMS):
        den = 4 * x**3 + 4 * dd
        if den == 0:
            raise InvariantViolation("archimedean series reached 2-torsion")
        x2 = (x**4 - 8 * dd * x) / den
        c = (_log_plus(x2) - 4 * _log_plus(x) + mp.log(abs(den))) / 2
        total += c / mp.mpf(4) ** (n + 1)
        x = x2
    return total


def _check_even_pole(vx: int):
    if vx % 2:
        raise InvariantViolation(f"odd pole order {-vx} on an integral model")


def _check_constant_chain(chain: list[int]):
    if len(set(chain)) != 1:
        raise InvariantViolation(f"cusp doubling chain {chain} is not constant")


def _lam_p_chain_exact(x: Fraction, y: Fraction, d: int, p: int,
                       steps: int = 8) -> tuple[Fraction, list[int]]:
    """Exact-rational version of the doubling chain (slow: coordinate
    sizes quadruple per step); a chain that has not escaped the cusp after
    `steps` doublings is taken to be constant."""
    chain: list[int] = []
    cx, cy = x, y
    for _ in range(steps):
        vtwo = _val(2 * cy, p)
        if vtwo is None:  # y = 0 is 2-torsion, short-circuited
            raise InvariantViolation("doubling chain reached 2-torsion")
        chain.append(vtwo)
        # double (cx, cy) on y^2 = x^3 + d
        lam = 3 * cx * cx / (2 * cy)
        nx = lam * lam - 2 * cx
        ny = lam * (cx - nx) - cy
        cx, cy = nx, ny
        vx = _val(cx, p)
        if vx is not None and vx < 0:
            _check_even_pole(vx)
            return Fraction(-vx, 2), chain
        if not _reduces_to_cusp(cx, cy, p):
            return Fraction(0), chain
    # never escapes the cusp: Z/3 component group, constant correction
    _check_constant_chain(chain)
    return Fraction(-chain[-1], 3), []


def lam_p_coeff_chain(x: Fraction, y: Fraction, d: int, p: int, steps: int = 8) -> Fraction:
    """Local height at p as a multiple of log p, on the integral model
    y^2 = x^3 + d, with the cusp term unwound along at most `steps`
    doublings."""
    vx = _val(x, p)
    if vx is not None and vx < 0:
        _check_even_pole(vx)
        return Fraction(-vx, 2)
    if not _reduces_to_cusp(x, y, p):
        return Fraction(0)
    base, chain = _lam_p_chain_exact(x, y, d, p, steps)
    acc = base
    for vtwo in reversed(chain):
        acc = (acc - vtwo) / 4
    return acc
