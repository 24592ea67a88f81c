"""The certificate search with a lift sum at every good v, for tests.

The library lifts only at v = 2 (mod 3) where v + 1 = #E(F_v) has a prime
that could divide sigma_order, since sigma_order divides 3 at v = 1 (mod 3);
this oracle lifts at every good v in ascending order and must find the same
(v, ell, q) witness."""

from fractions import Fraction

from ceresa.arith import factorize, primes_up_to, rat_str
from ceresa.ffcert import frobenius_det, lift_sum
from ceresa.picard import canonical_model, discriminant


def search_every_v(a, b, ell=None, V_max=200):
    """The certificate fields of the first witness in lexicographic
    (v, ell, q) order, with ell hinted or searched, or None."""
    a, b = Fraction(a), Fraction(b)
    ai, bi = canonical_model(a, b)
    delta = discriminant(ai, bi)
    primes = [p for p in primes_up_to(V_max) if (6 * delta) % p]
    for v in primes:
        lift = lift_sum(ai, bi, v)
        n = lift.sigma_order
        for e in [ell] if ell is not None else factorize(n):
            if e <= 3 or e == v or n % e:
                continue
            for q in primes:
                if q == e:
                    continue
                det = frobenius_det(ai, bi, q, e)
                if det.unit_mod_ell:
                    return {"a": rat_str(a), "b": rat_str(b), "v": v, "ell": e, "q": q,
                            "sigma": repr(lift.sigma), "sigma_order": n,
                            "det_value": rat_str(det.det_value)}
    return None
