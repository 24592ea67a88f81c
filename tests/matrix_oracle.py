"""The Frobenius determinant by matrices, for tests: the companion matrix of
the degree-6 Frobenius characteristic polynomial, its 20x20 third compound,
and four fraction-free eliminations."""

from fractions import Fraction
from itertools import combinations

from ceresa.arith import det_bareiss


def companion(chi: list[int]) -> list[list[int]]:
    """Companion matrix of the monic T^n + chi[n-1] T^(n-1) + ... + chi[0]."""
    n = len(chi)
    M = [[0] * n for _ in range(n)]
    for k in range(1, n):
        M[k][k - 1] = 1
    for k in range(n):
        M[k][n - 1] = -chi[k]
    return M


def third_compound(M: list[list[int]]) -> list[list[int]]:
    """The matrix of 3x3 minors, rows and columns indexed by lexicographically
    ordered triples; its eigenvalues are the triple products of those of M."""
    triples = list(combinations(range(len(M)), 3))
    out = []
    for a, b, c in triples:
        line = []
        for x, y, z in triples:
            line.append(
                M[a][x] * (M[b][y] * M[c][z] - M[b][z] * M[c][y])
                - M[a][y] * (M[b][x] * M[c][z] - M[b][z] * M[c][x])
                + M[a][z] * (M[b][x] * M[c][y] - M[b][y] * M[c][x])
            )
        out.append(line)
    return out


def shifted(M: list[list[int]], c: int) -> list[list[int]]:
    """M - c I."""
    return [[M[i][j] - (c if i == j else 0) for j in range(len(M))] for i in range(len(M))]


def frobenius_det_by_matrices(L_C, q: int, ell: int) -> tuple[Fraction, int, bool]:
    """(det_value, det_untwisted, unit_mod_ell) of det(Fr_q - 1) on
    H^3(J)(2) + H^1(C)(1), from the coefficients c_0 .. c_6 of L_C."""
    chi = [L_C[6 - k] for k in range(6)]  # T^6 L_C(1/T), lowest degree first
    M = companion(chi)
    C3 = third_compound(M)
    det_value = (Fraction(det_bareiss(shifted(M, q)), q**6)
                 * Fraction(det_bareiss(shifted(C3, q * q)), q**40))
    det_untwisted = det_bareiss(shifted(M, 1)) * det_bareiss(shifted(C3, 1))
    unit = (det_value != 0 and det_value.numerator % ell != 0
            and det_value.denominator % ell != 0)
    return det_value, det_untwisted, unit
