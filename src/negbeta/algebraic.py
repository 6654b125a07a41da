"""Integer polynomials, exact real root isolation, and the algebraic numbers
attached to eventually periodic digit words.

Root isolation is exact.  Rational roots are found by the rational root test
and kept exact; they are divided out of the squarefree part, so the part
left has only irrational roots and no rational grid point is one of them.
Its roots are isolated on the midpoint grid of the interval by Descartes'
rule of signs (Collins-Akritas; Rouillier-Zimmermann): a cell mapped onto
(0, 1) with no sign variation holds no root, one with one variation holds
exactly one, and any other cell is split.  The walk goes from the top, so
the roots come greatest first, and the threshold base needs only the first.
``b_of`` first certifies the digit bound d + 1 by Descartes' rule and then
skips the grid above it.

``refine`` lands on the cell of the bisection grid that bisection would
reach: once Descartes' rule shows the interval holds exactly one root,
fixed-point Newton steps find the cell and the exact signs at its ends
certify it; anything uncertified falls back to bisection.

The squarefree part skips the integer gcd whenever it can: a polynomial
coprime to its derivative modulo the prime 2^61 - 1, which does not divide
its leading coefficient, is squarefree.  The integer gcd is a primitive
pseudo-remainder sequence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd as int_gcd

import mpmath
from mpmath.libmp import to_rational

from . import words
from .errors import InvariantError, MalformedBaseError, NegBetaError, SupNotFixedError
from .words import EventuallyPeriodicWord

Coeffs = tuple[int, ...]  # ascending degree


# --- raw coefficient-tuple arithmetic ---------------------------------------

def _strip(c: list[int]) -> Coeffs:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _mul(a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _strip(out)


def _deriv(a: Coeffs) -> Coeffs:
    return tuple(i * x for i, x in enumerate(a) if i >= 1)


def _content(a: Coeffs) -> int:
    g = 0
    for x in a:
        g = int_gcd(g, abs(x))
    return g or 1


def _primitive(a: Coeffs) -> Coeffs:
    g = _content(a)
    return tuple(x // g for x in a)


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
    """Does g vanish somewhere in [lo, hi]?  Exact when g divides the
    squarefree part of a number that [lo, hi] isolates: g then has at most
    one root there, and a simple one, so a root shows as a sign change or a
    zero at an end."""
    return _sign_at(g, lo) * _sign_at(g, hi) <= 0


def _prem(f: Coeffs, g: Coeffs) -> Coeffs:
    """Primitive part of the pseudo-remainder of f by g (g nonzero)."""
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


_MODULUS = (1 << 61) - 1  # a prime


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

@dataclass
class AlgebraicNumber:
    """A real root of an integer polynomial, given by an isolating interval.

    ``interval`` is a pair of rationals enclosing exactly one root of the
    squarefree part, with a sign change across it; ``refine`` shrinks it
    monotonically (nested intervals), which is safe to repeat concurrently.
    Exact rationals are carried with a degenerate interval.
    """

    polynomial: IntPolynomial
    interval: tuple[Fraction, Fraction]
    exact: Fraction | None = None
    _sf: Coeffs = field(default=(), repr=False)
    # set once Descartes' rule has shown the interval holds one root of _sf
    _unique: bool = field(default=False, repr=False)

    def __post_init__(self):
        if not self._sf:
            self._sf = _squarefree_part(self.polynomial.coefficients)

    @classmethod
    def from_rational(cls, value: Fraction) -> "AlgebraicNumber":
        value = Fraction(value)
        poly = IntPolynomial((-value.numerator, value.denominator)).sign_normalized()
        return cls(poly, (value, value), exact=value)

    def is_rational(self) -> bool:
        return self.exact is not None

    def refine(self, tol: Fraction | float = Fraction(1, 10**12)) -> tuple[Fraction, Fraction]:
        """Bisect the interval until it is at most tol wide; a midpoint where
        the squarefree part vanishes makes the number exact.  Deep
        refinements land on the same cell with Newton steps (see _land)."""
        if self.exact is not None:
            return self.interval
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
        if L != H:
            L, H, den = _bisect(sf, L, H, den, s_lo, k)
        if L == H:
            mid = Fraction(L, den)
            self.exact = mid
            self.interval = (mid, mid)
            return self.interval
        self.interval = (Fraction(L, den), Fraction(H, den))
        return self.interval

    def _one_root(self, L: int, H: int, den: int, s_lo: int) -> bool:
        """Does (L/den, H/den) hold exactly one root of the squarefree part,
        with nonzero opposite signs at its ends?  Descartes' rule decides it
        once; nested intervals keep the answer."""
        if not s_lo or _sign_hom(self._sf, H, den) != -s_lo:
            return False
        if not self._unique:
            self._unique = _unit_variations(_on_unit(self._sf, L, H, den)) == 1
        return self._unique

    def floor(self) -> int:
        """Exact floor; terminates because irrational roots never sit on an
        integer and rational roots are stored exactly."""
        if self.exact is not None:
            num, den = self.exact.numerator, self.exact.denominator
            return num // den
        lo, hi = self.refine(Fraction(1, 4))
        while lo.__floor__() != hi.__floor__():
            n = hi.__floor__()
            s_n = _sign_at(self._sf, Fraction(n))
            if s_n == 0:
                raise InvariantError("irrational root equal to an integer")
            if s_n == _sign_at(self._sf, lo):
                lo = Fraction(n)
            else:
                hi = Fraction(n)
            mid = (lo + hi) / 2
            if _sign_at(self._sf, mid) == _sign_at(self._sf, lo):
                lo = mid
            else:
                hi = mid
            self.interval = (lo, hi)
        return lo.__floor__()

    def __float__(self):
        lo, hi = self.refine(Fraction(1, 10**17))
        return float((lo + hi) / 2)

    def decimal(self, places: int = 3) -> str:
        """Correctly rounded (half-up) decimal string with the given places."""
        if places < 0:
            raise NegBetaError(f"decimal places must be at least 0, got {places}")
        scale = 10**places

        def half_up(x: Fraction) -> int:
            return (x * scale + Fraction(1, 2)).__floor__()

        if self.exact is not None:
            n = half_up(self.exact)
        else:
            tol = Fraction(1, 10 * scale)
            while True:
                lo, hi = self.refine(tol)
                n, n_hi = half_up(lo), half_up(hi)
                if n == n_hi:
                    break
                # an irrational root never sits exactly on the rounding grid,
                # so the interval eventually clears the boundary
                tol /= 2**8
        sign = "-" if n < 0 else ""
        n = abs(n)
        if not places:
            return f"{sign}{n}"
        return f"{sign}{n // scale}.{n % scale:0{places}d}"

    def compare(self, other) -> int:
        if self.equals(other):
            return 0
        rational = isinstance(other, (int, Fraction))
        lo1, hi1 = self.interval
        lo2, hi2 = (other, other) if rational else other.interval
        tol = Fraction(1, 2)
        while not (hi1 < lo2 or hi2 < lo1):
            tol /= 2**8
            lo1, hi1 = self.refine(tol)
            if not rational:
                lo2, hi2 = other.refine(tol)
        return -1 if hi1 < lo2 else 1

    def equals(self, other) -> bool:
        """Exact equality: the gcd of the defining polynomials must have a
        root in the overlap of the isolating intervals.  Disjoint current
        intervals already prove the numbers differ, with no gcd and no
        refinement.  A plain rational needs no gcd: it is the root exactly
        when it lies in the interval and the squarefree part vanishes there."""
        if isinstance(other, (int, Fraction)):
            return self._equals_rational(Fraction(other))
        if self.exact is not None and other.exact is not None:
            return self.exact == other.exact
        if self.interval[1] < other.interval[0] or other.interval[1] < self.interval[0]:
            return False
        g = _poly_gcd(self._sf, other._sf)
        if len(g) <= 1:
            return False
        lo1, hi1 = self.refine(Fraction(1, 2**24))
        lo2, hi2 = other.refine(Fraction(1, 2**24))
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        return lo <= hi and _has_root(g, lo, hi)

    def _equals_rational(self, r: Fraction) -> bool:
        if self.exact is not None:
            return self.exact == r
        lo, hi = self.interval
        if not lo <= r <= hi or _sign_at(self._sf, r) != 0:
            return False
        # refine as a comparison of two roots does, so the interval ends
        # up the same whichever way the number was compared
        lo, hi = self.refine(Fraction(1, 2**24))
        return lo <= r <= hi

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, AlgebraicNumber)):
            return self.equals(other)
        return NotImplemented

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __hash__(self):
        raise TypeError("AlgebraicNumber is not hashable; group through equals()")

    def __str__(self):
        if self.exact is not None:
            return str(self.exact)
        return self.decimal(6)


def _rational_roots(a: Coeffs) -> list[Fraction]:
    """All rational roots, by the rational root test on the primitive part."""
    a = _primitive(a)
    k = 0
    while a[k] == 0:
        k += 1
    a = a[k:]
    roots = [Fraction(0)] if k else []
    a0, an = abs(a[0]), abs(a[-1])

    def divisors(n: int) -> list[int]:
        out = []
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.extend((d, n // d))
            d += 1
        return sorted(set(out))

    # p/q in lowest terms covers every candidate once; the sign test is exact
    for p in divisors(a0):
        for q in divisors(an):
            if int_gcd(p, q) == 1:
                roots.extend(Fraction(s, q) for s in (p, -p) if _sign_hom(a, s, q) == 0)
    return sorted(roots)


class _Isolation:
    """Root isolation on (lo, hi]: the squarefree part, its rational roots
    (kept exact) and the part left after dividing them out, which has only
    irrational roots, so no grid point is one of them."""

    def __init__(self, poly: IntPolynomial, lo: Fraction, hi: Fraction):
        self.poly, self.lo, self.hi = poly, lo, hi
        self.sf = sf = _squarefree_part(poly.coefficients)
        all_rats = _rational_roots(sf) if len(sf) > 1 else []
        self.rats = [r for r in all_rats if lo < r <= hi]
        # Deflate every rational root so bisection only ever sees irrational ones.
        deflated = sf
        for r in all_rats:
            deflated = _exact_div(deflated, (-r.numerator, r.denominator))
        self.deflated = deflated

    def exact_roots(self) -> list[AlgebraicNumber]:
        return [AlgebraicNumber(self.poly, (r, r), exact=r, _sf=self.sf) for r in self.rats]

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
        so no root above top, and no rational root exceeds top."""
        return (not self.rats or self.rats[-1] <= top) and \
            _variations(_taylor_shift(self.deflated, top)) == 0

    def irrational_roots(self, top: int | None = None):
        """The irrational roots in (lo, hi], greatest first.

        Walks the midpoint grid of (lo, hi] from the top, deciding each cell
        by Descartes' rule on the deflated part: no sign variation, no root;
        one, exactly one, which comes next; more, split the cell.  Every cell
        above one that yields is proven empty.  With a top that bounded_by
        has certified, cells whose lower end is at or above top are skipped
        unseen.
        """
        deflated = self.deflated
        if len(deflated) <= 1:
            return
        (L, H), den = _over_common_denominator((self.lo, self.hi))
        w, n = H - L, len(deflated) - 1

        def below_top(k: int, j: int) -> bool:  # the lower end of cell j of level k
            return top is None or (L << k) + j * w < top * den << k

        # a cell is (level, index, its polynomial mapped onto (0, 1))
        stack = [(0, 0, _on_unit(deflated, L, H, den))] if below_top(0, 0) else []
        while stack:
            k, j, p = stack.pop()
            v = _unit_variations(p)
            if v == 1:
                a = (L << k) + j * w
                root = AlgebraicNumber(self.poly, (Fraction(a, den << k), Fraction(a + w, den << k)),
                                       _sf=deflated, _unique=True)
                yield self._clear_rationals(root)
            elif v:
                half = [c << (n - i) for i, c in enumerate(p)]  # 2^n p(x / 2)
                stack.append((k + 1, 2 * j, half))
                if below_top(k + 1, 2 * j + 1):
                    stack.append((k + 1, 2 * j + 1, _taylor_shift(half, 1)))

    def largest(self, top: int | None = None) -> AlgebraicNumber | None:
        """The greatest root in (lo, hi], or None."""
        roots = self.exact_roots()[-1:] + list(itertools.islice(self.irrational_roots(top), 1))
        return max(roots, key=_by_midpoint, default=None)


def _by_midpoint(root: AlgebraicNumber) -> Fraction:
    return (root.interval[0] + root.interval[1]) / 2


def isolate_real_roots(poly: IntPolynomial, lo: Fraction, hi: Fraction) -> list[AlgebraicNumber]:
    """Disjoint isolating intervals for every real root in (lo, hi],
    in increasing order.  Rational roots come back exact, irrational roots
    on the cells where the Descartes walk finds them."""
    iso = _Isolation(poly, lo, hi)
    return sorted(iso.exact_roots() + list(iso.irrational_roots()), key=_by_midpoint)


def root_upper_bound(poly: IntPolynomial) -> Fraction:
    """Cauchy bound: every real root has absolute value below this."""
    c = poly.coefficients
    if not c:
        raise MalformedBaseError("the zero polynomial has no root bound")
    return 1 + Fraction(max(abs(x) for x in c), abs(c[-1]))


def largest_root_gt1(poly: IntPolynomial) -> AlgebraicNumber | None:
    """Greatest real root strictly above 1, or None when there is none."""
    if poly.is_zero():
        raise MalformedBaseError("the zero polynomial has no largest root")
    if poly.degree < 1:
        return None
    return _Isolation(poly, Fraction(1), root_upper_bound(poly)).largest()


def b_of(w: EventuallyPeriodicWord):
    """The base attached to a shift-sup-fixed word: literal 1 when w lies at
    or below the substitution fixed point u, otherwise the largest root above
    1 of the characteristic polynomial (which then always exists).

    The base never exceeds the largest digit plus one.  When Descartes' rule
    certifies that bound on the polynomial, the walk skips the grid above it;
    otherwise the root is found on the whole grid and compared with it.
    """
    if not words.is_sup_fixed(w):
        raise SupNotFixedError(f"{w} is not the sup of its shifts")
    if words.compare_with_u(w) <= 0:
        return 1
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
    if num.is_rational():
        return AlgebraicNumber.from_rational(num.exact + c)
    lo, hi = num.refine(Fraction(1, 2**24))
    # b^n P(x - a/b), with c = a/b: the map x -> (b x - a) / b of _on_unit
    a, b = c.numerator, c.denominator
    shifted = _primitive(_on_unit(num.polynomial.coefficients, -a, b - a, b))
    return AlgebraicNumber(IntPolynomial(shifted).sign_normalized(), (lo + c, hi + c))


PISOT = "pisot"
PERRON_NOT_PISOT = "perron_not_pisot"
NEITHER = "neither"


def _certified_roots(sf: Coeffs, dps: int = 60):
    """Approximate all complex roots of a squarefree integer polynomial with
    certified enclosure radii (distance to the nearest true root is at most
    deg * |P(r)/P'(r)| for each approximation r).  |P(r)| is taken with the
    rounding error Horner's rule can make at the working precision, so a
    radius never claims more than that precision resolves."""
    with mpmath.workdps(dps):
        coeffs = [mpmath.mpf(c) for c in reversed(sf)]
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)
        deg = len(sf) - 1
        der = _deriv(sf)
        rounding = 4 * (deg + 1) * mpmath.eps
        out = []
        for r in roots:
            pr = mpmath.polyval(coeffs, r)
            dpr = mpmath.polyval([mpmath.mpf(c) for c in reversed(der)], r)
            pr_bound = abs(pr) + rounding * mpmath.polyval([abs(c) for c in coeffs], abs(r))
            rad = deg * pr_bound / abs(dpr)
            out.append((mpmath.mpc(r), mpmath.mpf(rad)))
        return out


def _mpf_fraction(x) -> Fraction:
    """The exact value of a finite binary float, mpmath's or Python's."""
    if isinstance(x, mpmath.mpf):
        return Fraction(*to_rational(x._mpf_))
    return Fraction(x)


def _conjugates(num: AlgebraicNumber) -> list:
    """Certified enclosures of the roots of num's squarefree part other than
    num itself, which must be matched by exactly one enclosure."""
    lo, hi = num.refine(Fraction(1, 10**12))
    conjugates = []
    self_seen = False
    for z, rad in _certified_roots(num._sf):
        # exact comparison: the interval may be narrower than a double
        # resolves, and the enclosure's binary endpoints are rationals
        r = _mpf_fraction(rad)
        if not self_seen and abs(z.imag) < rad + 1e-30 and lo - r <= _mpf_fraction(z.real) <= hi + r:
            self_seen = True
            continue
        conjugates.append((z, rad))
    if not self_seen:
        raise InvariantError("the root itself was not matched among the enclosures")
    return conjugates


def classify_perron_pisot(num: AlgebraicNumber) -> str:
    """Pisot: algebraic integer above 1 with every other root of the
    squarefree defining part strictly inside the unit circle.  Perron: those
    other roots merely strictly smaller in modulus.  Everything else
    (including non-integer rationals): neither.
    """
    if num.is_rational():
        if num.exact.denominator != 1:
            return NEITHER
        return PISOT if num.exact > 1 else NEITHER
    if abs(num._sf[-1]) != 1:
        return NEITHER
    lo, hi = num.refine(Fraction(1, 10**12))
    if hi <= 1:
        return NEITHER
    conjugates = _conjugates(num)
    margin = Fraction(1, 10**6)
    if all(abs(z) + rad < 1 - float(margin) for z, rad in conjugates):
        return PISOT
    if all(abs(z) + rad < float(lo) for z, rad in conjugates):
        return PERRON_NOT_PISOT
    return NEITHER


def conjugate_modulus_margin(num: AlgebraicNumber) -> float:
    """1 minus the largest conjugate modulus (for Pisot margin reporting)."""
    if num.is_rational():
        return 1.0
    return float(min([1.0] + [1 - (abs(z) + rad) for z, rad in _conjugates(num)]))
