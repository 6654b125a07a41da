"""Sturm-sequence root counting and isolation, an oracle for the tests.

This is the isolation negbeta used before its Descartes walk, kept apart from
the code it checks.  Sturm's theorem counts the distinct real roots in a
half-open interval exactly, so bisecting (lo, hi] at midpoints until a piece
counts one root isolates every irrational root on the same midpoint grid the
Descartes walk uses; the walk may stop deeper on it.  Only the polynomial
primitives of ``negbeta.algebraic`` are shared; the rational root test and
the sign-preserving remainder that a Sturm chain needs live here.
"""

from fractions import Fraction
from math import gcd, isqrt

from negbeta.algebraic import (
    AlgebraicNumber,
    _deriv,
    _exact_div,
    _primitive,
    _sign_at,
    _sign_hom,
    _squarefree_part,
    _strip,
)


def _rational_roots(a):
    """All distinct rational roots of a != 0, ascending, by the rational root
    test on the primitive part: every p/q in lowest terms with p | a_0 and
    q | a_d, after the factor x^k, is tried by an exact sign."""
    a = _primitive(a)
    k = 0
    while a[k] == 0:
        k += 1
    a = a[k:]
    roots = [Fraction(0)] if k else []

    def divisors(n):
        small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
        return sorted({*small, *(n // d for d in small)})

    for p in divisors(abs(a[0])):
        for q in divisors(abs(a[-1])):
            if gcd(p, q) == 1:
                roots.extend(Fraction(s, q) for s in (p, -p) if _sign_hom(a, s, q) == 0)
    return sorted(roots)


def _rem_sign_preserving(f, g):
    """Euclidean remainder of f by g up to a positive rational factor, the
    sign rule a Sturm chain needs."""
    f = list(f)
    dg = len(g) - 1
    lg = g[-1]
    steps = 0
    while True:
        f = list(_strip(f))
        if not f or len(f) - 1 < dg:
            break
        df = len(f) - 1
        lead = f[-1]
        f = [c * lg for c in f]
        for i, gc in enumerate(g):
            f[df - dg + i] -= lead * gc
        steps += 1
    rem = _strip(f)
    if steps % 2 == 1 and lg < 0:
        rem = tuple(-c for c in rem)
    return _primitive(rem) if rem else ()


def sturm_chain(a):
    chain = [_primitive(a), _primitive(_deriv(a))]
    while chain[-1]:
        nxt = _rem_sign_preserving(chain[-2], chain[-1])
        chain.append(tuple(-c for c in nxt))
    chain.pop()
    return chain


def _variations_at(chain, x):
    signs = [s for s in (_sign_at(c, x) for c in chain) if s]
    return sum(1 for s, t in zip(signs, signs[1:]) if s * t < 0)


def count_real_roots(a, lo, hi):
    """Distinct real roots of a in the half-open interval (lo, hi]."""
    chain = sturm_chain(a)
    return _variations_at(chain, lo) - _variations_at(chain, hi)


def _halve(sf, lo, hi):
    """The half of (lo, hi) that keeps the sign change of sf."""
    mid = (lo + hi) / 2
    return (mid, hi) if _sign_at(sf, mid) == _sign_at(sf, lo) else (lo, mid)


def isolate_real_roots(poly, lo, hi):
    """Every real root of poly in (lo, hi], in increasing order: rational roots
    exact, irrational roots on the first midpoint cell whose Sturm count is
    one, halved twice at a time while the cell holds a rational root."""
    sf = _squarefree_part(poly.coefficients)
    all_rats = _rational_roots(sf) if len(sf) > 1 else []
    rats = [r for r in all_rats if lo < r <= hi]
    deflated = sf
    for r in all_rats:
        deflated = _exact_div(deflated, (-r.numerator, r.denominator))
    out = [AlgebraicNumber(poly, (r, r), _sf=sf) for r in rats]
    chain = sturm_chain(deflated) if len(deflated) > 1 else []

    def var(x):
        return _variations_at(chain, x)

    stack = [(lo, hi, var(lo) - var(hi))] if chain else []
    while stack:
        a, b, count = stack.pop()
        if count > 1:
            mid = (a + b) / 2
            stack.append((a, mid, var(a) - var(mid)))
            stack.append((mid, b, var(mid) - var(b)))
        elif count == 1:
            # shrink until the ends see a strict sign change
            while _sign_at(deflated, a) * _sign_at(deflated, b) >= 0:
                mid = (a + b) / 2
                a, b = (a, mid) if var(a) - var(mid) == 1 else (mid, b)
            for r in rats:
                while a <= r <= b:
                    a, b = _halve(deflated, *_halve(deflated, a, b))
            out.append(AlgebraicNumber(poly, (a, b), _sf=deflated))
    out.sort(key=lambda root: root.interval[0] + root.interval[1])
    return out
