"""The shape polynomial as a product over the first period of the recurrence.

``factor_shape_poly`` builds the shape from Chebyshev polynomials and reads
only the period e; this product reads the terms c_k themselves, so the tests
use it as the reference.
"""

from gsfactor.polyring import Poly


def product_shape(profile) -> Poly:
    """y (odd e) or y^2 - y (even e), times (y - c_k)^2 for 0 < k < e/2."""
    x = Poly.x(profile.ctx)
    acc = x if profile.e % 2 else x * x - x
    for k in range(1, (profile.e + 1) // 2):
        lin = x - profile.terms[k]
        acc = acc * lin * lin
    return acc
