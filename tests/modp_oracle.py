"""Brute-force oracles for polynomial roots and curve points mod p."""

from ceresa.arith import poly_eval


def roots_mod_p_brute(f, p: int) -> list[int]:
    """Every t in 0..p-1 with f(t) = 0 mod p, by evaluating f at each t."""
    return [t for t in range(p) if poly_eval(list(f), t) % p == 0]


def affine_points_brute(d: int, p: int) -> int:
    """The number of pairs (x, y) in F_p^2 with y^2 = x^3 + d, by trying
    every pair."""
    return sum(1 for x in range(p) for y in range(p) if (y * y - x**3 - d) % p == 0)
