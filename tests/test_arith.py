"""Unit tests for exact integer / rational / polynomial / determinant helpers."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import factorint, integer_nthroot, primefactors

from ceresa import arith
from ceresa.arith import (
    PRIMALITY_BOUND,
    IntPolynomial,
    cube_root_table,
    det_bareiss,
    factorize,
    int_root,
    inv_mod,
    is_prime,
    poly_add,
    poly_div_exact,
    poly_eval,
    poly_mul,
    poly_sub,
    poly_trim,
    power_part,
    primes_up_to,
    parse_rational,
    primitive_int_poly,
    rat_str,
    rational_roots,
    roots_mod_p,
)
from modp_oracle import roots_mod_p_brute


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


# the smallest strong pseudoprime to the bases 2 .. 37
PSI_12 = 318665857834031151167461


def test_is_prime_psi_12_and_the_bound():
    assert PSI_12 == 399165290221 * 798330580441
    assert is_prime(PSI_12) is False
    assert is_prime(399165290221) and is_prime(798330580441)
    assert is_prime(PRIMALITY_BOUND - 2) is False
    # the bound itself is the smallest strong pseudoprime to bases 2 .. 41
    with pytest.raises(ValueError, match=f"exact below {PRIMALITY_BOUND}"):
        is_prime(PRIMALITY_BOUND)
    with pytest.raises(ValueError, match="too large to test for primality"):
        is_prime(10**30 + 57)
    assert is_prime(5 * PRIMALITY_BOUND) is False  # trial division is exact


def test_primes_up_to():
    assert primes_up_to(1) == ()
    assert primes_up_to(2) == (2,)
    assert primes_up_to(30) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    ps = primes_up_to(10_000)
    assert len(ps) == 1229 and ps[-1] == 9973
    assert primes_up_to(10_007)[-2:] == (9973, 10007)


def test_factorize_known():
    assert factorize(1) == {}
    assert factorize(2**5 * 3**2 * 97) == {2: 5, 3: 2, 97: 1}
    assert factorize(9973 * 9973) == {9973: 2}
    assert factorize(1511) == {1511: 1}
    assert factorize(-12) == {2: 2, 3: 1}


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_factorize_reconstructs(n):
    """The primes come out ascending, as sympy.primefactors lists them."""
    fac = factorize(n)
    assert list(fac) == primefactors(n)
    prod = 1
    for p, e in fac.items():
        assert is_prime(p) and e >= 1
        prod *= p**e
    assert prod == n


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_small_prime_divisors_match_sympy(n):
    """The prime divisors are the keys of factorize, in ascending order."""
    assert list(factorize(n)) == primefactors(n)


def test_small_prime_divisors_known():
    assert list(factorize(1)) == []
    assert list(factorize(2**5 * 3**2 * 97)) == [2, 3, 97]
    assert list(factorize(9973 * 9973)) == [9973]
    assert list(factorize(1511)) == [1511]


def test_factorize_sends_only_hard_cofactors_to_sympy(monkeypatch):
    """Trial division by the primes up to 10 000 leaves a cofactor that is
    1, a prime below 10^8, a prime that is_prime proves, or one with only
    primes above 10 000; sympy sees only the last kind, or a cofactor at or
    above PRIMALITY_BOUND."""
    import sympy

    real, calls = sympy.factorint, []
    monkeypatch.setattr(sympy, "factorint", lambda n: calls.append(n) or real(n))
    for n, hard in ((2**5 * 3**2 * 97, False), (9973 * 10007, False),
                    (2 * (10**12 + 39), False), (10007 * 10009, True),
                    (2**89 - 1, True)):
        calls.clear()
        fac = factorize(n)
        assert len(calls) == int(hard), n
        assert fac == real(n) and list(fac) == sorted(fac), n


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**6, 10**6).filter(bool), st.integers(1, 1000), st.integers(1, 12))
def test_power_part_is_the_largest_kth_power_divisor(n0, m0, k):
    n = n0 * m0**k
    m = power_part(n, k)
    assert n % m**k == 0 and m % m0 == 0
    for p in factorize(n):
        assert n % (m * p) ** k != 0


def _power_part_by_factorint(n, k):
    m = 1
    for p, e in factorint(abs(n)).items():
        m *= p ** (e // k)
    return m


@pytest.mark.parametrize("k", [1, 2, 6, 12])
@settings(max_examples=60, deadline=None)
@given(m0=st.integers(1, 3000), c=st.integers(1, 10**6), sign=st.sampled_from([1, -1]))
def test_power_part_matches_factorint_on_both_sides_of_the_trial_bound(k, m0, c, sign):
    """power_part trial-divides by the primes up to 10 000 and calls
    factorize only on a cofactor of at least 10 000^k: 9973^k makes no call
    and 10007^k makes one.  Either way it agrees with sympy."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "factorize", lambda n: calls.append(n) or factorize(n))
        for n, factors in ((sign * m0**k * c, None), (sign * (1000**k - 1), None),
                           (sign * 1000**k, None), (sign * 997**k, None), (1009**k, None),
                           (sign * 9973**k, False), (sign * 10007**k, True)):
            calls.clear()
            assert power_part(n, k) == _power_part_by_factorint(n, k), n
            if factors is not None:
                assert bool(calls) == factors, n


def test_power_part_of_zero_is_an_error():
    for k in (1, 2, 6, 12):
        with pytest.raises(ValueError):
            power_part(0, k)


def test_is_prime_has_no_cache_and_matches_the_sieve_across_its_bound():
    assert not hasattr(is_prime, "cache_info")
    flags = set(primes_up_to(20_000))
    assert all(is_prime(n) == (n in flags) for n in range(9_000, 11_000))


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


@given(st.one_of(st.integers(min_value=-10**60, max_value=10**60),
                 st.integers(min_value=-10**12, max_value=10**12).map(lambda r: r**6),
                 st.integers(min_value=-10**8, max_value=10**8).map(lambda r: r**5 + 1)),
       st.integers(min_value=1, max_value=12))
@settings(max_examples=500, deadline=None)
def test_int_root_matches_sympy_integer_nthroot(n, k):
    """sympy.integer_nthroot is the oracle; int_root adds the sign rule."""
    if n < 0:
        r, exact = integer_nthroot(-n, k)
        want = -int(r) if exact and k % 2 else None
    else:
        r, exact = integer_nthroot(n, k)
        want = int(r) if exact else None
    assert int_root(n, k) == want


def test_int_root_small_cases():
    assert [int_root(n, 3) for n in (0, 1, -1, 8, -8, 9)] == [0, 1, -1, 2, -2, None]
    assert [int_root(n, 2) for n in (0, 1, 4, 5, -4)] == [0, 1, 2, None, None]
    assert int_root(2**600, 6) == 2**100 and int_root(2**600 + 1, 6) is None
    assert int_root(7, 1) == 7 and int_root(-7, 1) == -7
    with pytest.raises(ValueError):
        int_root(8, 0)


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
@settings(max_examples=200, deadline=None)
def test_poly_div_exact_in_z_x(q, g):
    """(q g) / g == q for integer q and primitive g; adding 1 to q g leaves
    a remainder when deg g >= 1, which raises ValueError."""
    g = poly_trim(g)
    if not g:
        return
    content = math.gcd(*g)
    g = [c // content for c in g]
    f = poly_mul(q, g)
    assert poly_div_exact(f, g) == poly_trim(q)
    if len(g) > 1:
        with pytest.raises(ValueError):
            poly_div_exact(poly_add(f, [1]), g)


def test_poly_div_exact():
    f = poly_mul([1, 2, 1], [3, 0, 5])  # (1+x)^2 (3+5x^2)
    assert poly_div_exact(f, [1, 2, 1]) == [3, 0, 5]
    assert all(type(c) is int for c in poly_div_exact(f, [1, 2, 1]))
    # 2x + 2 divides x + 1 in Q[x] but not in Z[x]
    with pytest.raises(ValueError):
        poly_div_exact([1, 1], [2, 2])
    with pytest.raises(ZeroDivisionError):
        poly_div_exact([1, 1], [0])


# ---------------------------------------------------------------------------
# roots mod p

_primes = st.sampled_from(primes_up_to(200))


@given(st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=12), _primes)
@settings(max_examples=300, deadline=None)
def test_roots_mod_p_matches_brute_force(f, p):
    assert roots_mod_p(f, p) == roots_mod_p_brute(f, p)


@given(
    st.lists(st.integers(min_value=-40, max_value=40), min_size=1, max_size=5),
    st.lists(st.integers(min_value=1, max_value=3), min_size=5, max_size=5),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
    st.sampled_from(primes_up_to(23)),
)
@settings(max_examples=300, deadline=None)
def test_roots_mod_p_repeated_roots_and_small_p(roots, mults, cofactor, p):
    """Prescribed roots with multiplicity up to 3 times a small cofactor,
    at primes from 2 up, many below the degree."""
    f = list(cofactor)
    for r, m in zip(roots, mults):
        for _ in range(m):
            f = poly_mul(f, [-r, 1])
    got = roots_mod_p(f, p)
    assert got == roots_mod_p_brute(f, p)
    if any(c % p for c in f):
        assert {r % p for r in roots} <= set(got)


def test_roots_mod_p_edge_cases():
    assert roots_mod_p([], 5) == [0, 1, 2, 3, 4]
    assert roots_mod_p([7, 14], 7) == [0, 1, 2, 3, 4, 5, 6]  # zero mod p
    assert roots_mod_p([3], 5) == []
    assert roots_mod_p([3, 0, 10], 5) == []  # a nonzero constant mod p
    assert roots_mod_p([-4, 0, 1], 2) == [0]
    assert roots_mod_p([0, -1, 0, 1], 3) == [0, 1, 2]  # t^3 - t splits fully


@pytest.mark.parametrize("roots", [[5], [2, 3, 3], [10**17, -1, 0, 2**60]])
def test_roots_mod_p_large_prime_high_degree(roots):
    """A prime far above the degree, at degree >= 250, with roots that are
    large integers.  Each (t + i)^2 - a with a a non-residue adds degree
    but no roots."""
    p = 300007
    non_residues = [a for a in range(2, 1000) if pow(a, (p - 1) // 2, p) == p - 1]
    f = [1]
    for i, a in enumerate(non_residues[:125]):
        f = poly_mul(f, [i * i - a, 2 * i, 1])
    for r in roots:
        f = poly_mul(f, [-r, 1])
    assert roots_mod_p(f, p) == sorted({r % p for r in roots})


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


def test_rational_roots_factoring_fallback(monkeypatch):
    # n = 2^4 3^2 5 7 11 13 17 has 480 divisors, so a divisor search would
    # try 480 * 480 candidates; the roots come from one factoring over Q
    n = 12252240
    calls = []

    def counting(coeffs):
        calls.append(coeffs)
        return factor_over_q(coeffs)

    factor_over_q = arith.factor_over_q
    monkeypatch.setattr(arith, "factor_over_q", counting)
    f = poly_mul(poly_mul([-1, n], [-n, 1]), [1, 0, 1])
    assert rational_roots(IntPolynomial(tuple(f))) == [Fraction(1, n), Fraction(n)]
    assert len(calls) == 1
    # x^2 (n x - 1)(x - n)(x^2 + 1): the root 0 is kept as well
    got = rational_roots(IntPolynomial((0, 0) + tuple(f)))
    assert got == [Fraction(0), Fraction(1, n), Fraction(n)]


def test_factor_over_q_is_primitive_and_distinct():
    # 4 (x - 1)^2 (2x + 3)(x^2 + 1)
    f = poly_mul(poly_mul(poly_mul([-4, 4], [-1, 1]), [3, 2]), [1, 0, 1])
    got = sorted(arith.factor_over_q(f), key=lambda h: (h.degree, h.coefficients))
    assert [h.coefficients for h in got] == [(-1, 1), (3, 2), (1, 0, 1)]


@pytest.mark.parametrize("r", [Fraction(0), Fraction(7), Fraction(-7),
                               Fraction(3, 4), Fraction(-10**30, 7)])
def test_parse_rational_reads_rat_str(r):
    assert parse_rational(rat_str(r)) == r


# rat_str writes ASCII digits only, and no surrounding whitespace
@pytest.mark.parametrize("text", ["", "1.5", "0.1", "1/0", "1/-2", "1/02", "a", "1 / 2",
                                  "--1", "1e3", "nan", "1\n", " 1", "\u0661"])
def test_parse_rational_rejects(text):
    with pytest.raises(ValueError, match="not an exact rational"):
        parse_rational(text)


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
