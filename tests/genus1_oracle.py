"""The group law on the genus-1 model y^3 = x^2 + ax + b, for tests."""

from ceresa.elliptic import (
    Genus1Point,
    WeierstrassCurveFp,
    add,
    genus1_to_weierstrass,
    genus1_weierstrass_d,
    weierstrass_to_genus1,
)


def genus1_add(a, b, P: Genus1Point, Q: Genus1Point, p: int) -> Genus1Point:
    """Group law on the genus-1 model over F_p, defined by transport of
    structure through the Weierstrass transform (identity = image of
    infinity)."""
    E = WeierstrassCurveFp(genus1_weierstrass_d(a, b) % p, p)
    W = add(E, genus1_to_weierstrass(a, b, P, p), genus1_to_weierstrass(a, b, Q, p))
    return weierstrass_to_genus1(a, b, W, p)
