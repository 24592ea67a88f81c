"""Exact scalar arithmetic and exact linear algebra.

Primes and factoring, exact integer and rational k-th roots, the rational
text form, cube roots mod p, integer polynomials, rational root extraction
and fraction-free determinants.  Every operation in this module is exact;
no floating point anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

Rational = Fraction

# ---------------------------------------------------------------------------
# primes and factoring

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for n < 3.3e24 with these bases)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, by sieve."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, fl in enumerate(sieve) if fl]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; n must be nonzero."""
    if n == 0:
        raise ValueError("cannot factor 0")
    from sympy import factorint

    return {int(p): int(e) for p, e in factorint(abs(n)).items()}


def divisors_from_factorization(fac: dict[int, int]) -> list[int]:
    """All positive divisors, unsorted."""
    divs = [1]
    for p, e in fac.items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return divs


# ---------------------------------------------------------------------------
# exact roots, residues mod p, rational text

def int_root(n: int, k: int) -> int | None:
    """The integer r with r**k == n, or None.  A negative n has a root only
    for odd k; for even k the root returned is the nonnegative one."""
    if n < 0:
        if k % 2 == 0:
            return None
        r = int_root(-n, k)
        return None if r is None else -r
    from sympy import integer_nthroot

    r, exact = integer_nthroot(n, k)
    return int(r) if exact else None


def rational_root(z, k: int) -> Fraction | None:
    """The rational s with s**k == z (nonnegative for even k), or None."""
    z = Fraction(z)
    num, den = int_root(z.numerator, k), int_root(z.denominator, k)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def rat_str(r) -> str:
    """A rational as "m" or "m/n" in lowest terms."""
    r = Fraction(r)
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def inv_mod(a: int, p: int) -> int:
    return pow(a, -1, p)


def cube_root_table(p: int) -> dict[int, list[int]]:
    """{z: all y in F_p with y^3 = z, ascending} for every cube z mod p."""
    roots: dict[int, list[int]] = {}
    for y in range(p):
        roots.setdefault(pow(y, 3, p), []).append(y)
    return roots


# ---------------------------------------------------------------------------
# polynomials (coefficient lists, lowest degree first)

def poly_trim(c: list) -> list:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_add(f: list, g: list) -> list:
    n = max(len(f), len(g))
    return poly_trim([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)])


def poly_sub(f: list, g: list) -> list:
    n = max(len(f), len(g))
    return poly_trim([(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0) for i in range(n)])


def poly_mul(f: list, g: list) -> list:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return poly_trim(out)


def poly_scale(f: list, c) -> list:
    return poly_trim([a * c for a in f])


def poly_eval(f: list, x):
    acc = 0
    for a in reversed(f):
        acc = acc * x + a
    return acc


def poly_divmod(f: list, g: list) -> tuple[list, list]:
    """Quotient and remainder in Q[x] (coefficients become Fractions)."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = [Fraction(a) for a in f]
    q = [Fraction(0)] * max(0, len(f) - len(g) + 1)
    lead = Fraction(g[-1])
    while len(f) >= len(g) and poly_trim(f):
        f = poly_trim(f)
        if len(f) < len(g):
            break
        k = len(f) - len(g)
        coef = f[-1] / lead
        q[k] = coef
        for i, b in enumerate(g):
            f[k + i] -= coef * b
        f.pop()
    return poly_trim(q), poly_trim(f)


def poly_div_exact(f: list, g: list) -> list:
    q, r = poly_divmod(f, g)
    if r:
        raise ValueError("polynomial division is not exact")
    return q


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients lowest degree first, trailing zeros
    stripped (so the leading coefficient is nonzero unless zero poly)."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        c = tuple(int(a) for a in poly_trim(list(self.coefficients)))
        object.__setattr__(self, "coefficients", c)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coefficients

    def __call__(self, x):
        return poly_eval(list(self.coefficients), x)

    def to_str(self, var: str = "x") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coefficients) - 1, -1, -1):
            a = self.coefficients[i]
            if a == 0:
                continue
            if i == 0:
                parts.append(f"{a}")
            else:
                term = var if i == 1 else f"{var}^{i}"
                if a == 1:
                    parts.append(term)
                elif a == -1:
                    parts.append(f"-{term}")
                else:
                    parts.append(f"{a}*{term}")
        return " + ".join(parts).replace("+ -", "- ")

    def __str__(self):
        return self.to_str()


def primitive_int_poly(f: list) -> IntPolynomial:
    """Clear denominators and content from a rational coefficient list;
    normalize the leading coefficient to be positive."""
    f = poly_trim([Fraction(a) for a in f])
    if not f:
        return IntPolynomial(())
    den = math.lcm(*[a.denominator for a in f])
    ints = [int(a * den) for a in f]
    g = math.gcd(*ints)
    ints = [a // g for a in ints]
    if ints[-1] < 0:
        ints = [-a for a in ints]
    return IntPolynomial(tuple(ints))


def rational_roots(f: IntPolynomial) -> list[Fraction]:
    """All rational roots of f (multiplicity ignored), sorted.

    Divisor search over the leading and constant coefficients (rational
    root theorem); the divisors come from exact factorization so large
    coefficients are handled.  If the candidate set would be enormous the
    search falls back to factoring f over Q.
    """
    if f.is_zero():
        raise ValueError("rational_roots of the zero polynomial")
    coeffs = list(f.coefficients)
    roots: set[Fraction] = set()
    # strip powers of x
    k = 0
    while coeffs[0] == 0:
        coeffs.pop(0)
        k += 1
    if k:
        roots.add(Fraction(0))
    if len(coeffs) == 1:
        return sorted(roots)
    a0, an = abs(coeffs[0]), abs(coeffs[-1])
    p_divs = divisors_from_factorization(factorize(a0))
    q_divs = divisors_from_factorization(factorize(an))
    if len(p_divs) * len(q_divs) > 100_000:
        from sympy import Poly, Symbol, factor_list

        x = Symbol("x")
        _, factors = factor_list(Poly(list(reversed(coeffs)), x).as_expr())
        for fac, _mult in factors:
            pol = Poly(fac, x)
            if pol.degree() == 1:
                b, a = pol.all_coeffs()  # b*x + a
                roots.add(Fraction(-int(a), int(b)))
        return sorted(roots)
    for num in p_divs:
        for den in q_divs:
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if cand not in roots and poly_eval(coeffs, cand) == 0:
                    roots.add(cand)
    return sorted(roots)


# ---------------------------------------------------------------------------
# exact linear algebra

def det_bareiss(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]

