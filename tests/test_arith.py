"""Unit tests for exact integer / rational / polynomial / determinant helpers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ceresa.arith import (
    IntPolynomial,
    cube_root_table,
    det_bareiss,
    divisors_from_factorization,
    factorize,
    int_root,
    inv_mod,
    is_prime,
    poly_add,
    poly_div_exact,
    poly_divmod,
    poly_eval,
    poly_mul,
    poly_sub,
    poly_trim,
    primes_up_to,
    primitive_int_poly,
    rational_roots,
)


# ---------------------------------------------------------------------------
# primes and factorization

def test_is_prime_small_values():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in known)


def test_is_prime_carmichael_and_large():
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(341)  # base-2 pseudoprime
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    ps = primes_up_to(10_000)
    assert len(ps) == 1229 and ps[-1] == 9973


def test_factorize_known():
    assert factorize(1) == {}
    assert factorize(2**5 * 3**2 * 97) == {2: 5, 3: 2, 97: 1}
    assert factorize(9973 * 9973) == {9973: 2}


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_factorize_reconstructs(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac.items():
        assert is_prime(p) and e >= 1
        prod *= p**e
    assert prod == n


def test_divisors_from_factorization():
    divs = divisors_from_factorization(factorize(360))
    brute = [d for d in range(1, 361) if 360 % d == 0]
    assert sorted(divs) == brute


# ---------------------------------------------------------------------------
# exact roots and residues mod p

@given(st.integers(min_value=-10**40, max_value=10**40), st.integers(min_value=1, max_value=12))
@settings(max_examples=200, deadline=None)
def test_int_root_is_exact(r, k):
    if r < 0 and k % 2 == 0:
        assert int_root(r**k, k) == -r
        assert int_root(-(r**k), k) is None
    else:
        assert int_root(r**k, k) == r
    if abs(r) > 1 and k > 1:
        assert int_root(r**k + 1, k) is None


@given(st.integers(min_value=1, max_value=10006))
@settings(max_examples=100, deadline=None)
def test_inv_mod(a):
    p = 10007
    assert a * inv_mod(a, p) % p == 1


@pytest.mark.parametrize("p", [5, 7, 11, 13, 31, 37])
def test_cube_roots_complete(p):
    table = cube_root_table(p)
    for z in range(p):
        roots = table.get(z, [])
        brute = [y for y in range(p) if pow(y, 3, p) == z]
        assert roots == brute
        assert len(roots) in ((1,) if p % 3 == 2 else (0, 1, 3))


# ---------------------------------------------------------------------------
# polynomial lists (lowest degree first)

_coeffs = st.lists(st.integers(min_value=-50, max_value=50), max_size=6)


@given(_coeffs, _coeffs, _coeffs)
@settings(max_examples=100, deadline=None)
def test_poly_ring_laws(f, g, h):
    assert poly_trim(poly_mul(f, g)) == poly_trim(poly_mul(g, f))
    lhs = poly_mul(f, poly_add(g, h))
    rhs = poly_add(poly_mul(f, g), poly_mul(f, h))
    assert poly_trim(lhs) == poly_trim(rhs)
    x = 3
    assert poly_eval(poly_sub(f, g), x) == poly_eval(f, x) - poly_eval(g, x)


@given(_coeffs, _coeffs)
@settings(max_examples=100, deadline=None)
def test_poly_divmod_identity(f, g):
    f = [Fraction(c) for c in f]
    g = poly_trim([Fraction(c) for c in g])
    if not g:
        return
    q, r = poly_divmod(f, g)
    assert poly_trim(poly_add(poly_mul(q, g), r)) == poly_trim(f)
    assert len(poly_trim(r)) < len(g)


def test_poly_div_exact():
    f = poly_mul([1, 2, 1], [3, 0, 5])  # (1+x)^2 (3+5x^2)
    assert poly_trim(poly_div_exact([Fraction(c) for c in f], [1, 2, 1])) == [3, 0, 5]


# ---------------------------------------------------------------------------
# IntPolynomial

def test_int_polynomial_normalization():
    f = IntPolynomial((1, 2, 0, 0))
    assert f.coefficients == (1, 2)
    assert f.degree == 1
    assert IntPolynomial(()).degree == -1
    assert IntPolynomial((0, 0)).is_zero()


def test_int_polynomial_eval_and_str():
    f = IntPolynomial((3, 0, -1, 2))  # 2x^3 - x^2 + 3
    assert f(2) == 16 - 4 + 3
    assert f(Fraction(1, 2)) == Fraction(1, 4) - Fraction(1, 4) + 3
    assert f.to_str("t") == "2*t^3 - t^2 + 3"
    assert IntPolynomial((0, 1)).to_str("t") == "t"


def test_primitive_int_poly():
    f = primitive_int_poly([Fraction(2, 3), Fraction(4, 3)])
    assert f.coefficients == (1, 2)
    g = primitive_int_poly([Fraction(0), Fraction(-6), Fraction(-9)])
    assert g.coefficients == (0, 2, 3)  # leading coefficient made positive
    assert primitive_int_poly([]).is_zero()


def test_rational_roots():
    # (2x - 1)(x + 3)(x^2 + 1), roots 1/2 and -3
    f = poly_mul(poly_mul([-1, 2], [3, 1]), [1, 0, 1])
    roots = rational_roots(IntPolynomial(tuple(int(c) for c in f)))
    assert roots == [Fraction(-3), Fraction(1, 2)]
    assert rational_roots(IntPolynomial((1, 0, 1))) == []


# ---------------------------------------------------------------------------
# determinants

def _naive_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _naive_det(minor)
    return total


def test_det_bareiss_known():
    assert det_bareiss([[1, 2], [3, 4]]) == -2
    assert det_bareiss([[2, 0, 1], [1, 1, 0], [0, 3, 4]]) == 11
    assert det_bareiss([[1, 2], [2, 4]]) == 0


@given(st.lists(st.lists(st.integers(min_value=-9, max_value=9),
                          min_size=4, max_size=4), min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_det_bareiss_matches_cofactor_expansion(rows):
    assert det_bareiss(rows) == _naive_det(rows)


@given(st.lists(st.lists(st.integers(min_value=-5, max_value=5),
                          min_size=3, max_size=3), min_size=6, max_size=6))
@settings(max_examples=50, deadline=None)
def test_det_multiplicative(rows):
    A, B = rows[:3], rows[3:]
    AB = [[sum(A[i][t] * B[t][j] for t in range(3)) for j in range(3)] for i in range(3)]
    assert det_bareiss(AB) == det_bareiss(A) * det_bareiss(B)
