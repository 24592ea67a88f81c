"""Brute-force oracle for roots of integer polynomials mod p."""

from ceresa.arith import poly_eval


def roots_mod_p_brute(f, p: int) -> list[int]:
    """Every t in 0..p-1 with f(t) = 0 mod p, by evaluating f at each t."""
    return [t for t in range(p) if poly_eval(list(f), t) % p == 0]
