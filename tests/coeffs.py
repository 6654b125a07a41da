"""Coefficient-tuple arithmetic that only the tests need: the product builds
test polynomials from known factors (coefficients in ascending degree)."""

from negbeta.algebraic import Coeffs, _strip


def _mul(a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _strip(out)
