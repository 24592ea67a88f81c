"""Exact scalar arithmetic and exact linear algebra.

Primes, factoring and k-th-power parts (trial division; sympy only for a
composite cofactor), exact integer and rational k-th roots, the rational
text form and its parser, cube roots mod p, integer polynomials with their
roots mod p and their factors over Q (which give their rational roots) and
fraction-free determinants.  Every operation here is exact; no floating point.
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction


class InvariantViolation(RuntimeError):
    """A mathematical invariant the computation relies on failed: a bug or
    corrupted state, never bad input.  Raised explicitly, so the check
    survives python -O; the CLI maps it to exit code 4."""

# ---------------------------------------------------------------------------
# primes and factoring

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Miller-Rabin to the bases 2 .. 41 is exact below psi_13 (Sorenson and
# Webster); psi_12 = 399165290221 * 798330580441, the bound for bases
# 2 .. 37, is a strong pseudoprime to all of those.
PRIMALITY_BOUND = 3317044064679887385961981


def _sieve(bound: int) -> bytearray:
    """flags[n] = 1 exactly for the primes n <= bound, for bound >= 1."""
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(bound) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, bound + 1, i)))
    return flags


# Primality below this bound is one lookup in a sieve built once; its primes
# divide every trial factoring and serve the torsion-locus witness searches.
_SIEVE_BOUND = 10_000
_PRIME_FLAGS = _sieve(_SIEVE_BOUND)
_PRIMES = tuple(i for i, flag in enumerate(_PRIME_FLAGS) if flag)


def is_prime(n: int) -> bool:
    """Exact primality: a sieve lookup for n <= 10 000, deterministic
    Miller-Rabin above it, exact for n < PRIMALITY_BOUND; a larger n raises
    ValueError naming the bound.  Nothing is cached."""
    if n <= _SIEVE_BOUND:
        return n >= 2 and _PRIME_FLAGS[n] == 1
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return False
    if n >= PRIMALITY_BOUND:
        raise ValueError(f"{n} is too large to test for primality "
                         f"(the test is exact below {PRIMALITY_BOUND})")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
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


def primes_up_to(bound: int) -> tuple[int, ...]:
    """All primes <= bound, ascending: for bound <= 10 000 a slice of the
    shared sieve primes, above it a new sieve."""
    if bound > _SIEVE_BOUND:
        return tuple(i for i, flag in enumerate(_sieve(bound)) if flag)
    return _PRIMES[:bisect.bisect_right(_PRIMES, bound)]


def _trial_factor(n: int, k: int) -> tuple[dict[int, int], int]:
    """({q: e}, r) with n = r * prod q^e, by trial division of n >= 1 by the
    primes q <= 10 000 while q^k <= the part of n left.  Every prime of r
    exceeds 10 000, or is at least the q where the loop stopped, whose k-th
    power exceeds r: either way no p^k with p <= 10 000 divides r."""
    found = {}
    for q in _PRIMES:
        if q**k > n:
            break
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            found[q] = e
    return found, n


def factorize(n: int) -> dict[int, int]:
    """{prime: exponent} of |n| != 0, keys ascending.  Trial division leaves
    r = 1, a prime, or primes above 10 000 only, so an r < 10 000^2 is 1 or
    prime; only an r that is_prime does not prove prime goes to sympy."""
    if n == 0:
        raise ValueError("cannot factor 0")
    found, r = _trial_factor(abs(n), 2)
    if r < _SIEVE_BOUND**2 or (r < PRIMALITY_BOUND and is_prime(r)):
        return found | ({r: 1} if r > 1 else {})
    from sympy import factorint

    return found | {int(p): int(e) for p, e in sorted(factorint(r).items())}


def power_part(n: int, k: int) -> int:
    """The largest m >= 1 with m**k | n, for n nonzero and k >= 1.  Trial
    division leaves a cofactor r with no p^k | r for p <= 10 000, and a larger
    p has p^k > 10 000^k, so only an r at least 10 000^k is factored."""
    if n == 0:
        raise ValueError("power_part of 0")
    found, r = _trial_factor(abs(n), k)
    if r >= _SIEVE_BOUND**k:
        found |= factorize(r)
    return math.prod(p ** (e // k) for p, e in found.items())


# ---------------------------------------------------------------------------
# exact roots, residues mod p, rational text

def int_root(n: int, k: int) -> int | None:
    """The integer r with r**k == n, or None, for k >= 1.  A negative n has a
    root only for odd k; for even k the root returned is the nonnegative one.
    Square roots come from math.isqrt, odd roots from integer Newton."""
    if k < 1:
        raise ValueError(f"root index must be >= 1, not {k}")
    if n < 0:
        if k % 2 == 0:
            return None
        r = int_root(-n, k)
        return None if r is None else -r
    while k % 2 == 0:
        r = math.isqrt(n)
        if r * r != n:
            return None
        n, k = r, k // 2
    if k == 1 or n < 2:
        return n
    # Newton from above: 2^ceil(bits/k) > n^(1/k), and the iterates fall
    # to the floor of the root, where the first non-decrease stops them
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    return r if r**k == n else None


def rational_root(z, k: int) -> Fraction | None:
    """The rational s with s**k == z (nonnegative for even k), or None."""
    z = Fraction(z)
    num, den = int_root(z.numerator, k), int_root(z.denominator, k)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def rat_str(r) -> str:
    """A rational as "m" or "m/n" in lowest terms."""
    return str(Fraction(r))


_RATIONAL_RE = re.compile(r"[+-]?\d+(/[1-9]\d*)?", re.ASCII)


def parse_rational(text: str) -> Fraction:
    """Read the text form of rat_str: "m" or "m/n" in ASCII digits, with
    an optional sign and n > 0.  Any other text, surrounding whitespace
    included, raises ValueError."""
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not an exact rational: {text!r} (use m or m/n)")
    return Fraction(text)


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


def poly_div_exact(f: list[int], g: list[int]) -> list[int]:
    """The quotient f / g in Z[x], for integer f and g != 0; ValueError
    unless g divides f in Z[x].  For a primitive g that is the same as
    dividing in Q[x] (Gauss's lemma)."""
    f, g = poly_trim(f), poly_trim(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    q = [0] * max(0, len(f) - len(g) + 1)
    for k in range(len(q) - 1, -1, -1):
        coef, r = divmod(f[k + len(g) - 1], g[-1])
        if r:
            raise ValueError("polynomial division is not exact")
        q[k] = coef
        for i, b in enumerate(g):
            f[k + i] -= coef * b
    if any(f):
        raise ValueError("polynomial division is not exact")
    return poly_trim(q)


def _poly_rem_mod_p(f: list[int], g: list[int], p: int) -> list[int]:
    """f mod g over F_p, trimmed, for f and g reduced mod p and g != 0."""
    lead_inv = pow(g[-1], -1, p)
    f = list(f)
    while len(f) >= len(g):
        c = f.pop() * lead_inv % p
        if c:
            base = len(f) - len(g) + 1
            f[base:] = [(a - c * b) % p for a, b in zip(f[base:], g)]
    return poly_trim(f)


def roots_mod_p(f: list[int], p: int) -> list[int]:
    """All t in F_p with f(t) = 0 mod p, ascending, for a prime p.

    They are the roots of g = gcd(f, t^p - t) over F_p, so a prime where f
    has no root costs O(deg(f)^2 log p) and never scans F_p; only the small
    g is evaluated at every t.  The zero polynomial mod p vanishes
    everywhere."""
    h = poly_trim([c % p for c in f])
    if not h:
        return list(range(p))
    if len(h) == 1:
        return []
    r = [1]  # t^e mod h for e the bits of p read so far
    for bit in bin(p)[2:]:
        r = _poly_rem_mod_p([c % p for c in poly_mul(r, r)], h, p)
        if bit == "1":
            r = _poly_rem_mod_p([0] + r, h, p)
    g, r = h, poly_trim([c % p for c in poly_sub(r, [0, 1])])
    while r:
        g, r = r, _poly_rem_mod_p(g, r, p)
    if len(g) == 1:
        return []
    return [t for t in range(p) if poly_eval(g, t) % p == 0]


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


def factor_over_q(coeffs) -> list[IntPolynomial]:
    """The distinct irreducible factors over Q of a nonzero integer
    polynomial (coefficients lowest degree first), each primitive with a
    positive leading coefficient."""
    from sympy import Poly, Symbol, factor_list

    t = Symbol("t")
    _, factors = factor_list(Poly(list(reversed(coeffs)), t))
    return [primitive_int_poly([int(c) for c in reversed(fac.all_coeffs())])
            for fac, _m in factors]


def rational_roots(f: IntPolynomial) -> list[Fraction]:
    """All rational roots of f (multiplicity ignored), sorted: the roots of
    its degree-1 factors over Q."""
    if f.is_zero():
        raise ValueError("rational_roots of the zero polynomial")
    return sorted(Fraction(-h.coefficients[0], h.coefficients[1])
                  for h in factor_over_q(f.coefficients) if h.degree == 1)


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

