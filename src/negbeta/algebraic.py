"""Integer polynomials, exact real root isolation, and the algebraic numbers
attached to eventually periodic digit words.

Root isolation is exact.  A rational is a point interval (r, r), with no
separate exact value.  Every polynomial is isolated by one rule:
``_deflate`` takes its primitive part and divides out x^k and every rational
root p/q (p | a_0, q | a_d) with its multiplicity; those roots stay exact,
and the walk decides cells on the deflated part, of which no grid point is
a root.  The deflated part is made squarefree only when asked:
``isolate_real_roots`` and ``largest_root_gt1`` ask at once, ``b_of`` leaves
it to the walk, which switches when a repeated root shows.
The roots are isolated on the midpoint grid of the interval by Descartes'
rule of signs (Collins-Akritas; Rouillier-Zimmermann): a cell mapped onto
(0, 1) with no sign variation holds no root, one with one variation holds
exactly one, counted with multiplicity, so a simple one, and any other cell
is split.  The walk goes from the top, so the roots come greatest first,
and the threshold base needs only the first.  ``b_of`` skips the grid
above the digit bound once Descartes' rule has certified that bound.

``refine`` lands on the cell of the bisection grid that bisection would
reach: once Descartes' rule shows the interval holds exactly one root,
fixed-point Newton steps find the cell and the exact signs at its ends
certify it; anything uncertified falls back to bisection.

The squarefree part skips the integer gcd whenever it can: a polynomial
coprime to its derivative modulo the prime 2^30 - 35, which does not divide
its leading coefficient, is squarefree.  The integer gcd is a primitive
pseudo-remainder sequence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd as int_gcd, isqrt

from . import words
from .errors import (InvariantError, MalformedBaseError, NegBetaError, SupNotFixedError,
                     UndecidableAtPrecisionError)
from .words import EventuallyPeriodicWord

Coeffs = tuple[int, ...]  # ascending degree


# --- raw coefficient-tuple arithmetic ---------------------------------------

def _strip(c: list[int]) -> Coeffs:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _deriv(a: Coeffs) -> Coeffs:
    return tuple(i * x for i, x in enumerate(a) if i >= 1)


def _content(a: Coeffs) -> int:
    return int_gcd(*a) or 1


def _primitive(a: Coeffs) -> Coeffs:
    g = _content(a)
    return tuple(a) if g == 1 else tuple(x // g for x in a)


def _roots_not_integral(a: Coeffs) -> bool:
    """Is there a prime dividing a_1, ..., a_d but not a_0?  Then no root of
    a_0 + a_1 x + ... + a_d x^d is an algebraic integer.

    Proof: take such a prime p and a root beta.  If beta were an algebraic
    integer, a_0 = -beta (a_1 + ... + a_d beta^(d-1)) would be p times an
    algebraic integer, so a_0 / p would be a rational algebraic integer,
    hence an integer, which it is not.  The test is sufficient, not
    necessary: it misses (2x - 1)(x^2 - x - 1).
    """
    g = _content(a[1:])
    return g > 1 and int_gcd(g, a[0]) == 1


def _over_common_denominator(xs) -> tuple[list[int], int]:
    """Integer numerators of the rationals xs over their least common denominator."""
    den = 1
    for x in xs:
        den = den * x.denominator // int_gcd(den, x.denominator)
    return [x.numerator * (den // x.denominator) for x in xs], den


def _hom(a: Coeffs, p: int, q: int) -> int:
    """sum a_i p^i q^(n-i), which is q^n a(p/q)."""
    acc = 0
    qpow = 1
    for c in reversed(a):
        acc = acc * p + c * qpow
        qpow *= q
    return acc


def _sign_hom(a: Coeffs, p: int, q: int) -> int:
    """Sign of a(p/q) for q > 0."""
    acc = _hom(a, p, q)
    return (acc > 0) - (acc < 0)


def _sign_at(a: Coeffs, x: Fraction) -> int:
    return _sign_hom(a, x.numerator, x.denominator)


def _has_root(g: Coeffs, lo: Fraction, hi: Fraction) -> bool:
    """Does g vanish somewhere in [lo, hi]?  Exact when g divides a
    polynomial with a number as a simple root, the only one in [lo, hi]:
    g then has at most one root there, and a simple one, so a root shows as
    a sign change or a zero at an end."""
    return _sign_at(g, lo) * _sign_at(g, hi) <= 0


def _prem(f: Coeffs, g: Coeffs) -> Coeffs:
    """Primitive pseudo-remainder of f by g != 0, a positive multiple of the remainder."""
    if g[-1] < 0:
        g = tuple(-c for c in g)
    r = list(f)
    dg, lg = len(g) - 1, g[-1]
    while len(r) > dg:
        lead = r.pop()
        k = len(r) - dg
        r = [c * lg for c in r]
        for i in range(dg):
            r[k + i] -= lead * g[i]
        while r and not r[-1]:
            r.pop()
    return _primitive(r) if r else ()


def _poly_gcd(a: Coeffs, b: Coeffs) -> Coeffs:
    """Primitive gcd over the integers (sign-normalized to positive lead)."""
    f, g = _primitive(a), _primitive(b)
    while g:
        f, g = g, _prem(f, g)
    return f if f[-1] > 0 else tuple(-c for c in f)


# a prime below 2^30, so the residues of the modular Euclid are one-digit ints
_MODULUS = (1 << 30) - 35


def _coprime_mod(a: Coeffs, b: Coeffs, m: int = _MODULUS) -> bool:
    """Is gcd(a, b) a nonzero constant over the integers modulo the prime m?

    Euclid on pseudo-remainders: scaling by the leading coefficient of the
    divisor, a unit modulo m, changes no gcd and needs no inverse.
    """
    f = [c % m for c in a]
    g = [c % m for c in b]
    while g and not g[-1]:
        g.pop()
    while len(g) > 1:
        lg, dg = g[-1], len(g) - 1
        while len(f) > dg:
            lead = f.pop()
            k = len(f) - dg
            for i in range(k):
                f[i] = f[i] * lg % m
            for i in range(dg):
                f[k + i] = (f[k + i] * lg - lead * g[i]) % m
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return len(g) == 1


def _squarefree_part(a: Coeffs) -> Coeffs:
    """Primitive squarefree part, with a positive leading coefficient
    unless a is constant.

    When the leading coefficient is a unit modulo the prime _MODULUS, a and
    a' coprime modulo it certify that a is squarefree: a repeated factor f of
    a divides a and a', and keeps its degree modulo the prime, because its
    leading coefficient divides that of a.  Otherwise the integer gcd decides.
    """
    d = _deriv(a)
    if not d:
        return _primitive(a)
    if a[-1] % _MODULUS and _coprime_mod(a, d):
        out = _primitive(a)
    else:
        g = _poly_gcd(a, d)
        out = _primitive(a) if len(g) == 1 else _exact_div(a, g)
    return out if out[-1] > 0 else tuple(-c for c in out)


@lru_cache(maxsize=256)  # the same few small constant terms come back again and again
def _divisors(n: int) -> tuple[int, ...]:
    """The positive divisors of n > 0, ascending, by trial division up to sqrt(n)."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return tuple(sorted({*small, *(n // d for d in small)}))


def _divides(m: int, n: int) -> bool:
    """Does m divide n?  0 divides only 0."""
    return n % m == 0 if m else not n


def _div_linear(a: Coeffs, p: int, q: int) -> Coeffs | None:
    """a / (q x - p) for coprime p and q > 0 when p/q is a root of a, else
    None.  The root makes the quotient an integer polynomial (Gauss's lemma),
    so the division from the top stays in integers exactly when it is exact."""
    out = [0] * (len(a) - 1)
    acc = 0
    for i in range(len(a) - 1, 0, -1):
        acc, r = divmod(a[i] + p * acc, q)
        if r:
            return None
        out[i - 1] = acc
    return tuple(out) if a[0] + p * acc == 0 else None


def _deflate(a: Coeffs) -> tuple[Coeffs, list[Fraction]]:
    """The primitive part of a != 0, with a positive lead, with x^k and every
    rational root divided out with its multiplicity; and the distinct
    rational roots, ascending.

    A root p/q in lowest terms of what is left after x^k has p | a_0 and
    q | a_d (the rational root test), and a = (q x - p) b with b an integer
    polynomial, so q - p divides a(1) and q + p divides a(-1): two integer
    tests that rule out most candidates before a division is tried.
    """
    a = _primitive(a)
    if a[-1] < 0:
        a = tuple(-c for c in a)
    k = 0
    while not a[k]:
        k += 1
    a, roots = a[k:], [Fraction(0)] if k else []
    at_one, at_minus_one = sum(a), sum(a[::2]) - sum(a[1::2])
    leads = _divisors(a[-1])
    for p in _divisors(abs(a[0])):
        for q in leads:
            if int_gcd(p, q) > 1:
                continue
            for s in (p, -p):
                found = False
                while len(a) > 1 and _divides(q - s, at_one) and _divides(q + s, at_minus_one):
                    b = _div_linear(a, s, q)
                    if b is None:
                        break
                    a, found = b, True
                    at_one, at_minus_one = sum(a), sum(a[::2]) - sum(a[1::2])
                if found:
                    roots.append(Fraction(s, q))
    return a, sorted(roots)


def _exact_div(a: Coeffs, b: Coeffs) -> Coeffs:
    """Exact division by a primitive b, result made primitive.

    By Gauss's lemma the quotient of an integer polynomial by a primitive
    one is an integer polynomial, so the long division stays in integers.
    """
    rem = list(a)
    out = [0] * (len(a) - len(b) + 1)
    db, lb = len(b) - 1, b[-1]
    for i in range(len(a) - len(b), -1, -1):
        coef, r = divmod(rem[i + db], lb)
        if r:
            raise InvariantError("polynomial division was not exact")
        out[i] = coef
        if coef:
            for j, bc in enumerate(b):
                rem[i + j] -= coef * bc
    if any(rem):
        raise InvariantError("polynomial division was not exact")
    return _primitive(_strip(out))


# --- Descartes' rule of signs ------------------------------------------------

def _taylor_shift(a, c: int) -> list[int]:
    """Coefficients of a(x + c)."""
    a = list(a)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += c * a[j + 1]
    return a


def _variations(a) -> int:
    """Sign variations of a coefficient sequence, zeros skipped."""
    count = last = 0
    for x in a:
        if x:
            if (x > 0) != (last > 0) and last:
                count += 1
            last = x
    return count


def _on_unit(a: Coeffs, L: int, H: int, den: int) -> list[int]:
    """An integer polynomial whose roots in (0, 1) are the roots of a in
    (L/den, H/den), mapped by x -> L/den + x (H - L)/den."""
    n = len(a) - 1
    w = H - L
    shifted = _taylor_shift([c * den ** (n - i) for i, c in enumerate(a)], L)
    return [c * w**i for i, c in enumerate(shifted)]


def _unit_variations(p) -> int:
    """Descartes' bound on the roots of p in (0, 1), exact when 0 or 1: the
    sign variations of (x + 1)^n p(1 / (x + 1))."""
    return _variations(_taylor_shift(p[::-1], 1))


# --- landing on the bisection grid ------------------------------------------

_LAND_FROM = 4  # grid levels bisected before the Newton steps take over


def _bisect(sf: Coeffs, L: int, H: int, den: int, s_lo: int, levels: int) -> tuple[int, int, int]:
    """`levels` bisections of (L/den, H/den) on integer numerators; halving
    doubles den, so the midpoints are the same rationals.  The sign of sf at
    the lower end is s_lo.  A midpoint where sf vanishes comes back as L == H."""
    for _ in range(levels):
        mid, den = L + H, 2 * den
        L, H = 2 * L, 2 * H
        s_mid = _sign_hom(sf, mid, den)
        if s_mid == 0:
            return mid, mid, den
        if s_mid == s_lo:
            L = mid
        else:
            H = mid
    return L, H, den


def _land(sf: Coeffs, L: int, H: int, den: int, s_lo: int, levels: int) -> tuple[int, int, int, int]:
    """The cell that `levels` bisections of (L/den, H/den) reach, found
    with Newton steps; returns (L', H', den', levels left to bisect).

    The open interval must hold exactly one root of sf, with the sign s_lo at
    its lower end and -s_lo at its upper end.  Bisection from it then passes
    through exactly the grid cells that hold the root, so the cell of the
    last level whose two ends have the exact signs s_lo and -s_lo is the one
    bisection reaches.  After _LAND_FROM plain bisections, fixed-point Newton
    steps in integers double the level each; the cell under the last
    estimate (or a neighbour) is then certified by those two signs.  When it
    does not certify, the cell of the plain bisections comes back with the
    levels still to bisect.  A cell end where sf vanishes is the root itself,
    returned as L' == H'.
    """
    L, H, den = _bisect(sf, L, H, den, s_lo, _LAND_FROM)
    if L == H:
        return L, H, den, 0
    dsf = _deriv(sf)
    w, s_hi = H - L, -s_lo
    x, scale = 2 * L + w, 2 * den  # the estimate x / scale, first the cell's midpoint
    done = _LAND_FROM
    while done < levels:
        done += min(done, levels - done)
        finer = den << (done - _LAND_FROM)
        x, scale = x * (finer // scale), finer
        slope = _hom(dsf, x, scale)
        if not slope:
            return L, H, den, levels - _LAND_FROM
        x -= _hom(sf, x, scale) // slope
    # the cells of the last level are (base + i w, base + (i + 1) w) / scale
    base = L << (levels - _LAND_FROM)
    i = min(max((x - base) // w, 0), (1 << (levels - _LAND_FROM)) - 1)

    def sign(m):
        return _sign_hom(sf, base + m * w, scale)

    s0, s1 = sign(i), s_hi
    if s0 == s_hi:  # the root lies below cell i
        i, s0, s1 = i - 1, sign(i - 1), s0
    elif s0 == s_lo:
        s1 = sign(i + 1)
        if s1 == s_lo:  # the root lies above cell i
            i, s0, s1 = i + 1, s1, sign(i + 2)
    if s0 == 0 or s1 == 0:
        x = base + (i if s0 == 0 else i + 1) * w
        return x, x, scale, 0
    if (s0, s1) != (s_lo, s_hi):
        return L, H, den, levels - _LAND_FROM
    return base + i * w, base + (i + 1) * w, scale, 0


# --- public polynomial wrapper ----------------------------------------------

@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients ascending in degree."""

    coefficients: Coeffs

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _strip(list(self.coefficients)))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def sign_normalized(self) -> "IntPolynomial":
        c = self.coefficients
        if c and c[-1] < 0:
            return IntPolynomial(tuple(-x for x in c))
        return self

    def squarefree_part(self) -> "IntPolynomial":
        if self.is_zero():
            return self
        return IntPolynomial(_squarefree_part(self.coefficients))

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"IntPolynomial({format_polynomial(self)!r})"


def poly_from_descending(*coeffs: int) -> IntPolynomial:
    return IntPolynomial(tuple(reversed(coeffs)))


def format_polynomial(p: IntPolynomial) -> str:
    """Human form, descending degree: "x^3 - 2x^2 - x + 1"."""
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coefficients[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        elif i == 1:
            body = "x" if mag == 1 else f"{mag}x"
        else:
            body = f"x^{i}" if mag == 1 else f"{mag}x^{i}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def p_polynomial(v) -> IntPolynomial:
    """The evaluation polynomial of a finite digit word v_1 .. v_j:
    (-x)^j + sum_k (v_k + 1) (-x)^(j-k).

    Its value at a base beta is the point reached after j steps of the
    negative-base transformation whose first j digits are v.
    """
    v = words._as_digits(v)
    if not v:
        raise ValueError("empty digit word")
    j = len(v)
    coeffs = [0] * (j + 1)
    coeffs[j] = (-1) ** j
    for k, d in enumerate(v, start=1):
        e = j - k
        coeffs[e] += (d + 1) * (-1) ** e
    return IntPolynomial(tuple(coeffs))


def char_polynomial(w: EventuallyPeriodicWord) -> IntPolynomial:
    """Characteristic polynomial whose largest root above 1 is b(w).

    Built from the canonical (minimal) preperiod length q and period length
    p: the degree p+q evaluation polynomial minus the degree q one (minus the
    constant 1 when q = 0), sign-normalized to a positive leading coefficient.
    Both share the shape of p_polynomial, so the coefficients are read off
    the digits of pre + per in one pass.
    """
    q = len(w.pre)
    digits = w.pre + w.per
    m = len(digits)
    coeffs = [0] * (m + 1)
    coeffs[m] = 1
    for e in range(m):
        c = digits[m - 1 - e] + 1
        if e < q:
            c -= digits[q - 1 - e] + 1
        elif e == q:
            c -= 1
        coeffs[e] = -c if (m - e) % 2 else c
    return IntPolynomial(tuple(coeffs))


# --- algebraic numbers -------------------------------------------------------

def as_rational(value) -> Fraction:
    """value as a Fraction.  A float is a TypeError: its binary value is
    rarely the rational meant, and no answer may depend on one."""
    if isinstance(value, float):
        raise TypeError(f"a rational must be an int or a Fraction, not the float {value!r}")
    return Fraction(value)


# The width every exact equality refines to: ``_side`` on a hit matches
# ``equals``, and ``spectrum`` refines each root to it up front, so an interval
# ends up the same whichever way its number was compared.  A rational is a
# point interval, which no refinement changes.
_COMPARE_WIDTH = Fraction(1, 2**24)

@dataclass
class AlgebraicNumber:
    """A real root of an integer polynomial, given by an isolating interval.

    ``interval`` is a pair of rationals enclosing exactly one root of
    ``_sf``, a simple one, with a sign change across it; ``refine`` shrinks
    it monotonically (nested intervals), which is safe to repeat
    concurrently.  A rational is the point interval (r, r), however it was
    built.
    """

    polynomial: IntPolynomial
    interval: tuple[Fraction, Fraction]
    # a polynomial with the number as a simple root, the only one in the
    # interval: the squarefree part unless given.  An isolation gives an
    # irrational root the deflated part it walks on, and a rational root the
    # squarefree part of the deflated part times q x - p per rational root p/q
    _sf: Coeffs = field(default=(), repr=False)
    # set once Descartes' rule has shown the interval holds one root of _sf
    _unique: bool = field(default=False, repr=False)

    def __post_init__(self):
        if not self._sf:
            self._sf = _squarefree_part(self.polynomial.coefficients)

    @classmethod
    def from_rational(cls, value: Fraction) -> "AlgebraicNumber":
        value = as_rational(value)
        poly = IntPolynomial((-value.numerator, value.denominator)).sign_normalized()
        return cls(poly, (value, value))

    @property
    def exact(self) -> Fraction | None:
        """The number itself when its interval is a point, else None."""
        return self.interval[0] if self.is_rational() else None

    def is_rational(self) -> bool:
        return self.interval[0] == self.interval[1]

    def refine(self, tol: Fraction | float = Fraction(1, 10**12)) -> tuple[Fraction, Fraction]:
        """Bisect the interval until it is at most tol wide; a midpoint where
        _sf vanishes becomes the point interval.  Deep refinements land on
        the same cell with Newton steps (see _land)."""
        if not isinstance(tol, Fraction):
            tol = Fraction(tol)
        if tol.numerator <= 0:
            raise NegBetaError(f"refinement tolerance must be positive, got {tol}")
        lo, hi = self.interval
        ld, hd = lo.denominator, hi.denominator
        if (hi.numerator * ld - lo.numerator * hd) * tol.denominator <= tol.numerator * ld * hd:
            return self.interval
        (L, H), den = _over_common_denominator((lo, hi))
        # the bisections needed: the least k with (H - L) / (den 2^k) <= tol
        width, unit = (H - L) * tol.denominator, tol.numerator * den
        k = max(width.bit_length() - unit.bit_length(), 0)
        while unit << k < width:
            k += 1
        while k and unit << (k - 1) >= width:
            k -= 1
        sf = self._sf
        s_lo = _sign_hom(sf, L, den)
        if k > _LAND_FROM and self._one_root(L, H, den, s_lo):
            L, H, den, k = _land(sf, L, H, den, s_lo, k)
        L, H, den = _bisect(sf, L, H, den, s_lo, k)
        self.interval = (Fraction(L, den), Fraction(H, den))
        return self.interval

    def _one_root(self, L: int, H: int, den: int, s_lo: int) -> bool:
        """Does (L/den, H/den) hold exactly one root of _sf, counted with
        multiplicity, with nonzero opposite signs at its ends?  Descartes'
        rule decides it once; nested intervals keep the answer."""
        if not s_lo or _sign_hom(self._sf, H, den) != -s_lo:
            return False
        if not self._unique:
            self._unique = _unit_variations(_on_unit(self._sf, L, H, den)) == 1
        return self._unique

    def _side(self, r) -> int:
        """Sign of self - r for a rational r, exact.  Outside the interval its
        ends decide; inside, the one root of _sf there, a simple one, lies
        above r when _sf has the same sign at r as at lo.  A zero sign
        means r is the number, then refined to _COMPARE_WIDTH as equals does."""
        lo, hi = self.interval
        if r < lo or r > hi:
            return 1 if r < lo else -1
        s = _sign_at(self._sf, r)
        if s == 0:
            self.refine(_COMPARE_WIDTH)
            return 0
        return 1 if s == _sign_at(self._sf, lo) else -1

    def floor(self) -> int:
        """Exact floor: after refining to width 1/4 at most one integer
        n + 1 lies in the interval, and one side test places the number."""
        lo, hi = self.refine(Fraction(1, 4))
        n = lo.__floor__()
        if hi < n + 1:
            return n
        side = self._side(n + 1)
        if side == 0:
            raise InvariantError("root equal to an integer inside a non-point interval")
        return n if side < 0 else n + 1

    def __float__(self):
        lo, hi = self.refine(Fraction(1, 10**17))
        return float((lo + hi) / 2)

    def decimal(self, places: int = 3) -> str:
        """Correctly rounded (half-up) decimal string with the given places."""
        if places < 0:
            raise NegBetaError(f"decimal places must be at least 0, got {places}")
        scale = 10**places

        def half_up(x: Fraction) -> int:  # floor(x * scale + 1/2)
            n, d = x.numerator, x.denominator
            return (2 * n * scale + d) // (2 * d)

        # a width of 1 / (10 scale) reaches at most one rounding boundary
        lo, hi = self.refine(Fraction(1, 10 * scale))
        n = half_up(hi)
        if half_up(lo) != n and self._side(Fraction(2 * n - 1, 2 * scale)) < 0:
            n -= 1
        sign = "-" if n < 0 else ""
        n = abs(n)
        if not places:
            return f"{sign}{n}"
        return f"{sign}{n // scale}.{n % scale:0{places}d}"

    def compare(self, other) -> int:
        if isinstance(other, (int, Fraction)):
            return self._side(other)
        if self.equals(other):
            return 0
        lo1, hi1 = self.interval
        lo2, hi2 = other.interval
        tol = Fraction(1, 2)
        while not (hi1 < lo2 or hi2 < lo1):
            tol /= 2**8
            lo1, hi1 = self.refine(tol)
            lo2, hi2 = other.refine(tol)
        return -1 if hi1 < lo2 else 1

    def equals(self, other) -> bool:
        """Exact equality: the gcd of the defining polynomials must have a
        root in the overlap of the isolating intervals.  Disjoint current
        intervals already prove the numbers differ, with no gcd and no
        refinement.  A plain rational needs no gcd: one side test decides."""
        if isinstance(other, (int, Fraction)):
            return self._side(other) == 0
        if not isinstance(other, AlgebraicNumber):
            raise TypeError(f"cannot compare an AlgebraicNumber with {type(other).__name__}")
        if self.interval[1] < other.interval[0] or other.interval[1] < self.interval[0]:
            return False
        g = _poly_gcd(self._sf, other._sf)
        if len(g) <= 1:
            return False
        lo1, hi1 = self.refine(_COMPARE_WIDTH)
        lo2, hi2 = other.refine(_COMPARE_WIDTH)
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        return lo <= hi and _has_root(g, lo, hi)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, AlgebraicNumber)):
            return self.equals(other)
        if isinstance(other, float):
            raise TypeError("cannot compare an AlgebraicNumber with float")
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, (int, Fraction, AlgebraicNumber)):
            return self.compare(other) < 0
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, (int, Fraction, AlgebraicNumber)):
            return self.compare(other) <= 0
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, (int, Fraction, AlgebraicNumber)):
            return self.compare(other) > 0
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, (int, Fraction, AlgebraicNumber)):
            return self.compare(other) >= 0
        return NotImplemented

    def __hash__(self):
        raise TypeError("AlgebraicNumber is not hashable; group through equals()")

    def __str__(self):
        if self.exact is not None:
            return str(self.exact)
        return self.decimal(6)


class _Isolation:
    """Root isolation on (lo, hi]: ``_deflate`` divides every rational root
    out of the polynomial, the ones in (lo, hi] stay exact, and the walk
    decides cells on the deflated part, so no grid point is a root of it.

    The deflated part is not made squarefree up front.  The walk switches to
    its squarefree part when a repeated root shows, or at once after
    ``make_squarefree``.  An exact root's ``_sf`` is the squarefree part of
    the deflated part times q x - p for each rational root p/q.
    """

    def __init__(self, poly: IntPolynomial, lo: Fraction, hi: Fraction):
        self.poly, self.lo, self.hi = poly, lo, hi
        self.deflated, self.roots = _deflate(poly.coefficients)
        self.rats = [r for r in self.roots if lo < r <= hi]
        self.squarefree = False

    def make_squarefree(self) -> None:
        if not self.squarefree:
            self.deflated, self.squarefree = _squarefree_part(self.deflated), True

    def exact_roots(self) -> list[AlgebraicNumber]:
        if not self.rats:
            return []
        sf = self.deflated if self.squarefree else _squarefree_part(self.deflated)
        for r in self.roots:
            p, q = r.numerator, r.denominator
            sf = tuple(q * u - p * v for u, v in zip((0, *sf), (*sf, 0)))
        return [AlgebraicNumber(self.poly, (r, r), _sf=sf) for r in self.rats]

    def _clear_rationals(self, root: AlgebraicNumber) -> AlgebraicNumber:
        """Shrink the interval of an irrational root until it holds no exact
        rational root, so the ordering by midpoint is faithful."""
        for r in self.rats:
            while root.interval[0] <= r <= root.interval[1]:
                root.refine((root.interval[1] - root.interval[0]) / 4)
        return root

    def bounded_by(self, top: int) -> bool:
        """Is every real root at most the integer top?  Descartes' rule
        certifies it: the deflated part shifted by top has no sign variation,
        so no irrational root lies above top, and no rational root in
        (lo, hi] exceeds top."""
        return (not self.rats or self.rats[-1] <= top) and \
            _variations(_taylor_shift(self.deflated, top)) == 0

    def irrational_roots(self, top: int | None = None):
        """The irrational roots in (lo, hi], greatest first.

        Walks the midpoint grid of (lo, hi] from the top, deciding each cell
        by Descartes' rule on the deflated part: no sign variation, no root;
        one, exactly one, and a simple one, which comes next; more, split the
        cell.  Every cell above one that yields is proven empty.  With a top
        that bounded_by has certified, cells whose lower end is at or above
        top are skipped unseen.  A repeated root keeps its cells at two
        variations or more, so the first cell narrower than _COMPARE_WIDTH
        that still has them makes the walk go on with the squarefree part.
        """
        if len(self.deflated) <= 1:
            return
        (L, H), den = _over_common_denominator((self.lo, self.hi))
        w = H - L

        def below_top(k: int, j: int) -> bool:  # the lower end of cell j of level k
            return top is None or (L << k) + j * w < top * den << k

        def on_unit(k: int, j: int) -> list[int]:
            a = (L << k) + j * w
            return _on_unit(self.deflated, a, a + w, den << k)

        # a cell is (level, index, its polynomial mapped onto (0, 1))
        stack = [(0, 0, on_unit(0, 0))] if below_top(0, 0) else []
        n = len(self.deflated) - 1
        while stack:
            k, j, p = stack.pop()
            v = _unit_variations(p)
            if v > 1 and not self.squarefree and \
                    w * _COMPARE_WIDTH.denominator < _COMPARE_WIDTH.numerator * (den << k):
                self.make_squarefree()
                n = len(self.deflated) - 1
                stack = [(lv, ix, on_unit(lv, ix)) for lv, ix, _ in [*stack, (k, j, p)]]
                continue
            if v == 1:
                a = (L << k) + j * w
                root = AlgebraicNumber(self.poly, (Fraction(a, den << k), Fraction(a + w, den << k)),
                                       _sf=self.deflated, _unique=True)
                yield self._clear_rationals(root)
            elif v:
                half = [c << (n - i) for i, c in enumerate(p)]  # 2^n p(x / 2)
                stack.append((k + 1, 2 * j, half))
                if below_top(k + 1, 2 * j + 1):
                    stack.append((k + 1, 2 * j + 1, _taylor_shift(half, 1)))

    def largest(self, top: int | None = None) -> AlgebraicNumber | None:
        """The greatest root in (lo, hi], or None."""
        roots = self.exact_roots()[-1:] + list(itertools.islice(self.irrational_roots(top), 1))
        if len(roots) > 1:
            return max(roots, key=_by_midpoint)
        return roots[0] if roots else None


def _by_midpoint(root: AlgebraicNumber) -> Fraction:
    return (root.interval[0] + root.interval[1]) / 2


def isolate_real_roots(poly: IntPolynomial, lo: Fraction, hi: Fraction) -> list[AlgebraicNumber]:
    """Disjoint isolating intervals for every real root in (lo, hi],
    in increasing order.  Rational roots come back exact, irrational roots
    on the cells where the Descartes walk finds them, all on the squarefree
    part."""
    if poly.is_zero():
        raise MalformedBaseError("the zero polynomial has no isolated roots")
    iso = _Isolation(poly, lo, hi)
    iso.make_squarefree()
    return sorted(iso.exact_roots() + list(iso.irrational_roots()), key=_by_midpoint)


def root_upper_bound(poly: IntPolynomial) -> Fraction:
    """Cauchy bound: every real root has absolute value below this."""
    c = poly.coefficients
    if not c:
        raise MalformedBaseError("the zero polynomial has no root bound")
    lead = abs(c[-1])
    return Fraction(lead + max(abs(x) for x in c), lead)


def largest_root_gt1(poly: IntPolynomial) -> AlgebraicNumber | None:
    """Greatest real root strictly above 1, or None when there is none."""
    if poly.is_zero():
        raise MalformedBaseError("the zero polynomial has no largest root")
    if poly.degree < 1:
        return None
    iso = _Isolation(poly, Fraction(1), root_upper_bound(poly))
    iso.make_squarefree()
    return iso.largest()


def b_of(w: EventuallyPeriodicWord) -> AlgebraicNumber:
    """The base attached to a shift-sup-fixed word: exactly 1 when w lies at
    or below the substitution fixed point u, otherwise the largest root above
    1 of the characteristic polynomial (which then always exists).

    One isolation on (1, C], C the Cauchy bound, as every polynomial gets:
    every rational root divided out, the walk lazy about the squarefree
    part.  The base never exceeds top, the largest digit plus one.  When
    bounded_by certifies that on the polynomial, the walk skips the grid
    above top; otherwise it walks the whole grid and the root is compared
    with top.
    """
    if not words.is_sup_fixed(w):
        raise SupNotFixedError(f"{w} is not the sup of its shifts")
    if words.compare_with_u(w) <= 0:
        return AlgebraicNumber.from_rational(1)
    poly = char_polynomial(w)
    top = w.max_digit() + 1
    iso = _Isolation(poly, Fraction(1), root_upper_bound(poly))
    certified = iso.bounded_by(top)
    root = iso.largest(top if certified else None)
    if root is None:
        raise InvariantError(f"no root above 1 for {w}")
    if not certified and root.compare(Fraction(top)) > 0:
        raise InvariantError(f"the base of {w} exceeds its largest digit plus one")
    return root


def shift_root(num: AlgebraicNumber, c) -> AlgebraicNumber:
    """The number num + c for rational c, as a root of the shifted polynomial."""
    c = Fraction(c)
    lo, hi = num.refine(_COMPARE_WIDTH)
    # b^n P(x - a/b), with c = a/b: the map x -> (b x - a) / b of _on_unit
    a, b = c.numerator, c.denominator
    shifted = _primitive(_on_unit(num.polynomial.coefficients, -a, b - a, b))
    return AlgebraicNumber(IntPolynomial(shifted).sign_normalized(), (lo + c, hi + c))


PISOT = "pisot"
PERRON_NOT_PISOT = "perron_not_pisot"
NEITHER = "neither"


def _outside_and_on(f: Coeffs, r: Fraction) -> tuple[int, int]:
    """How many roots of the squarefree integer f lie outside |z| = r > 0, and on it.

    z = r (w + 1) / (w - 1) maps the outside to the right half-plane and the
    circle to the imaginary axis; g(w) = (w - 1)^n f(z) loses a degree for a
    root z = r.  With g(iy) = U(y) + i V(y), the real roots of D = gcd(U, V)
    give the axis roots, its other roots pairs w, -w.  Of the m roots of g / D,
    (m - turn + index) / 2 lie right: index is the Cauchy index of V / U, from
    the signed remainder sequence of U and V, and turn is the sign of lc(U)
    lc(V) when deg V > deg U, else 0.  (Routh-Hurwitz; Marden 1966.)
    """
    h = _on_unit(f, 0, r.numerator, r.denominator)  # its roots are f's over r
    g = _strip(_taylor_shift([c << i for i, c in enumerate(_taylor_shift(h, 1))][::-1], -1))
    iy = [-c if k & 2 else c for k, c in enumerate(g)]  # g(iy) = sum c i^k y^k
    U = _strip([c if k % 2 == 0 else 0 for k, c in enumerate(iy)])
    V = _strip([c if k % 2 else 0 for k, c in enumerate(iy)])
    seq = [p for p in (U, V) if p]
    while len(seq) > 1 and (rem := _prem(seq[-2], seq[-1])):
        seq.append(tuple(-c for c in rem))
    D = IntPolynomial(seq[-1])
    axis = len(isolate_real_roots(D, -root_upper_bound(D), root_upper_bound(D)))
    m = len(g) - len(seq[-1])  # 0 when U or V is 0, and then so are turn and index
    turn = (U[-1] * V[-1] > 0) - (U[-1] * V[-1] < 0) if len(V) > len(U) > 0 else 0
    at_minus_oo = _variations([p[-1] * (-1) ** (len(p) - 1) for p in seq])
    index = at_minus_oo - _variations([p[-1] for p in seq])
    return (D.degree - axis) // 2 + (m - turn + index) // 2, axis + len(h) - len(g)


def _conjugate_part(num: AlgebraicNumber) -> Coeffs | None:
    """num's squarefree part with the factor x and every cyclotomic factor
    Phi_k divided out, or None unless that part is monic and num > 1.  Phi_k
    divides x^k - 1 and has degree phi(k) >= sqrt(k / 2).  The squarefree
    part is taken of _sf, which need not be squarefree (see b_of), because
    _outside_and_on counts roots of a squarefree polynomial."""
    f = _squarefree_part(num._sf)
    if abs(f[-1]) != 1 or num.compare(1) <= 0:
        return None
    f = f[next(i for i, c in enumerate(f) if c):]
    for k in range(1, 2 * len(f) ** 2):
        if sum(int_gcd(j, k) == 1 for j in range(k)) < len(f):  # phi(k) <= deg f
            g = _poly_gcd(f, (-1, *[0] * (k - 1), 1))
            if len(g) > 1:
                f = _exact_div(f, g)
    return f


def classify_perron_pisot(num: AlgebraicNumber) -> str:
    """Pisot: an algebraic integer above 1 whose other roots lie strictly
    inside the unit circle.  Perron: those roots merely strictly smaller in
    modulus.  Anything else, non-integer rationals too: neither.  Counts the
    roots of _conjugate_part; Q(x^k) with k > 1 has the root beta e^(2 pi i
    / k), and otherwise no conjugate has modulus beta (Boyd 1994), so a root
    outside hi rules Perron out and beta alone outside lo proves it."""
    if num.is_rational():
        return PISOT if num.exact.denominator == 1 and num.exact > 1 else NEITHER
    f = _conjugate_part(num)
    if f is None:
        return NEITHER
    if _outside_and_on(f, Fraction(1)) == (1, 0):
        return PISOT
    if int_gcd(*(k for k, c in enumerate(f) if c)) > 1:
        return NEITHER
    for bits in (16, 32, 64, 128, 256):
        lo, hi = num.refine(Fraction(1, 2**bits))
        if _outside_and_on(f, hi) != (0, 0):
            return NEITHER
        if _outside_and_on(f, lo) == (1, 0):
            return PERRON_NOT_PISOT
    raise UndecidableAtPrecisionError(f"Perron test undecided for the root in [{lo}, {hi}]")


def conjugate_modulus_margin(num: AlgebraicNumber) -> float:
    """For a Pisot number, the largest 2^-k (k >= 1) such that its other
    roots lie inside |z| < 1 - 2^-k; 1.0 for a rational, 0.0 for any other
    number."""
    if num.is_rational():
        return 1.0
    f = _conjugate_part(num)
    if f is None or _outside_and_on(f, Fraction(1)) != (1, 0):
        return 0.0
    inside = (k for k in itertools.count(1) if _outside_and_on(f, 1 - Fraction(1, 2**k)) == (1, 0))
    return 2.0 ** -next(inside)
