"""Certified iteration of the negative-base transformation.

The transformation sends x to floor(beta*x) + 1 - beta*x on (0,1]; iterating
from 1 produces the expansion digits that govern the whole shift.  Orbit
points are held exactly, as polynomial expressions in the base reduced modulo
its defining polynomial; a rational base p/q has the defining polynomial
q x - p, so its points are rationals.  Floors and equalities of orbit points
are certified by interval refinement combined with an exact vanishing test
against the defining polynomial, so digit output never rests on floating
point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd

from . import words
from .algebraic import (
    AlgebraicNumber,
    _has_root,
    _over_common_denominator,
    _poly_gcd,
    _strip,
    b_of,
)
from .errors import (
    InvariantError,
    NegBetaError,
    UndecidableAtPrecisionError,
)
from .words import EventuallyPeriodicWord, canonicalize


@dataclass(frozen=True)
class PrecisionConfig:
    """Interval refinement schedule: start at start_bits fractional bits and
    double up to max_bits before giving up."""

    start_bits: int = 128
    max_bits: int = 4096

    def __post_init__(self):
        if not 1 <= self.start_bits <= self.max_bits:
            raise NegBetaError(f"precision needs 1 <= start_bits <= max_bits, got "
                               f"{self.start_bits} and {self.max_bits}")

    def tolerances(self):
        bits = self.start_bits
        while True:
            yield Fraction(1, 2**bits)
            if bits >= self.max_bits:
                return
            bits *= 2


DEFAULT_PRECISION = PrecisionConfig()
_TOL_64 = Fraction(1, 2**64)


@dataclass(frozen=True)
class BetaValue:
    """A base beta > 1, an algebraic number with a refinable interval; a
    rational base is the root of a polynomial of degree 1."""

    algebraic: AlgebraicNumber

    @classmethod
    def from_rational(cls, value) -> "BetaValue":
        value = Fraction(value)
        if value <= 1:
            raise NegBetaError(f"base must exceed 1, got {value}")
        return cls(AlgebraicNumber.from_rational(value))

    @classmethod
    def from_algebraic(cls, num: AlgebraicNumber) -> "BetaValue":
        if num.is_rational():
            return cls.from_rational(num.exact)
        if num.compare(1) <= 0:
            raise NegBetaError("base must exceed 1")
        return cls(num)

    @classmethod
    def of(cls, value) -> "BetaValue":
        if isinstance(value, BetaValue):
            return value
        if isinstance(value, AlgebraicNumber):
            return cls.from_algebraic(value)
        if value == 1:
            raise NegBetaError("base must exceed 1")
        return cls.from_rational(value)

    @property
    def rational(self) -> Fraction | None:
        return self.algebraic.exact

    def is_rational(self) -> bool:
        return self.algebraic.is_rational()

    def floor(self) -> int:
        return self.algebraic.floor()

    def __float__(self):
        return float(self.algebraic)

    def __str__(self):
        return str(self.algebraic)


class _AlgebraicArith:
    """Exact orbit arithmetic in Q(beta); a rational base p/q is Q(beta) with
    the defining polynomial q x - p.

    A point is a pair (nums, den): the integer numerators of the coefficients
    of a polynomial in beta of degree below the squarefree defining
    polynomial, over one shared positive denominator.  Values (not
    representations) are compared, so a reducible defining polynomial cannot
    corrupt equality decisions.
    """

    def __init__(self, num: AlgebraicNumber, precision: PrecisionConfig = DEFAULT_PRECISION):
        self.num = num
        self.sf = num._sf
        self.deg = len(self.sf) - 1
        self._tolerances = tuple(precision.tolerances())
        # the interval of num last seen by _bounds, and its integer form (L, H, q)
        self._interval = None
        self._ints = None
        # the last image step returned, the interval its floor was read on and
        # the image's bounds there, which key reuses
        self._image = None

    def serves(self, beta: BetaValue) -> bool:
        # the enclosures depend on the interval state of num, so identity
        return beta.algebraic is self.num

    def reads(self, other) -> bool:
        """Do the points of the arithmetic other hold the same numbers here?"""
        return (isinstance(other, _AlgebraicArith) and other.sf == self.sf
                and other.num.equals(self.num))

    def one(self):
        return ((1,), 1)

    def from_rational(self, x: Fraction):
        x = Fraction(x)
        return ((x.numerator,), x.denominator)

    def _mul_beta(self, x):
        """beta * x, reduced modulo the defining polynomial.

        With a monic polynomial the denominator is kept and no gcd is taken.
        Otherwise the reduction divides by the (positive) leading coefficient,
        so the point is scaled by it and put back in lowest terms.
        """
        nums, den = x
        if len(nums) < self.deg:
            return (0, *nums), den
        c, lead = nums[-1], self.sf[-1]
        if lead == 1:
            out = [a - c * s for a, s in zip((0, *nums[:-1]), self.sf)]
        else:
            out = [lead * a - c * s for a, s in zip((0, *nums[:-1]), self.sf)]
            den *= lead
        while out and out[-1] == 0:
            out.pop()
        if lead != 1:
            g = gcd(den, *out)
            if g > 1:
                out = [a // g for a in out]
                den //= g
        return tuple(out), den

    @staticmethod
    def _minus_int(x, k: int):
        nums, den = x
        return ((nums[0] if nums else 0) - k * den, *nums[1:]), den

    @staticmethod
    def _sub(x, y):
        (xn, xd), (yn, yd) = x, y
        if xd != yd:
            xn, yn, xd = [a * yd for a in xn], [b * xd for b in yn], xd * yd
        return tuple(a - b for a, b in itertools.zip_longest(xn, yn, fillvalue=0)), xd

    def _bounds(self, x, tol: Fraction) -> tuple[int, int, int]:
        """Integers lo, hi and D > 0 with lo/D <= x <= hi/D.

        Termwise min/max of c_i lo^i, c_i hi^i over the isolating interval
        [lo, hi] = [L/q, H/q] of beta refined to tol, summed as integers over
        D = den * q^m for x = (sum n_i beta^i) / den of degree m.
        """
        interval = self.num.refine(tol)
        if interval is not self._interval:
            (L, H), q = _over_common_denominator(interval)
            self._interval, self._ints = interval, (L, H, q)
        L, H, q = self._ints
        nums, den = x
        acc_lo = acc_hi = 0
        plo = phi = 1
        for n in nums:
            a, b = n * plo, n * phi
            if a > b:
                a, b = b, a
            acc_lo, acc_hi = acc_lo * q + a, acc_hi * q + b
            plo *= L
            phi *= H
        return acc_lo, acc_hi, den * q ** max(len(nums) - 1, 0)

    def is_zero(self, x) -> bool:
        nums, _ = x
        if not any(nums):
            return True
        # An enclosure of the value that excludes 0 proves x nonzero.
        lo, hi, _ = self._bounds(x, _TOL_64)
        if lo > 0 or hi < 0:
            return False
        g = _poly_gcd(self.sf, _strip(list(nums)))
        if len(g) <= 1:
            return False
        lo, hi = self.num.refine(Fraction(1, 2**24))
        return _has_root(g, lo, hi)

    def enclosure(self, x, tol: Fraction) -> tuple[Fraction, Fraction]:
        lo, hi, den = self._bounds(x, tol)
        return Fraction(lo, den), Fraction(hi, den)

    def sign(self, x) -> int:
        if self.is_zero(x):
            return 0
        for tol in self._tolerances:
            lo, hi, _ = self._bounds(x, tol)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
        raise UndecidableAtPrecisionError("sign of orbit expression undecided at max precision")

    def equal(self, x, y) -> bool:
        return self.is_zero(self._sub(x, y))

    def compare(self, x, y) -> int:
        return self.sign(self._sub(x, y))

    def _certified_floor(self, x) -> tuple[int, tuple[int, int, int] | None]:
        """Floor d of x, and the bounds that decided it when they already
        prove x != d (their lower end lies strictly above d), else None."""
        for tol in self._tolerances:
            lo, hi, den = self._bounds(x, tol)
            flo, fhi = lo // den, hi // den
            if flo == fhi:
                return flo, (lo, hi, den) if lo > flo * den else None
            # x might be exactly the integer fhi
            if fhi - flo == 1 and self.is_zero(self._minus_int(x, fhi)):
                return fhi, None
        raise UndecidableAtPrecisionError(
            "floor undecided at max precision", straddled=fhi)

    def step(self, x):
        v = self._mul_beta(x)
        d, bounds = self._certified_floor(v)
        if bounds is None and self.is_zero(self._minus_int(v, d)):
            # beta*x is exactly the integer d, so the image is exactly 1
            return d, self.one()
        nums, den = self._minus_int(v, d + 1)
        nxt = [-a for a in nums]
        while nxt and nxt[-1] == 0:
            nxt.pop()
        image = (tuple(nxt), den)
        if bounds is not None:
            # termwise, the bounds of d + 1 - v are d + 1 minus those of v
            lo, hi, D = bounds
            self._image = (image, self._interval, ((d + 1) * D - hi, (d + 1) * D - lo, D))
        return d, image

    def key(self, x):
        """int(mid * 2**48) for the midpoint of the 2^-64 enclosure, exactly."""
        image = self._image
        if image is not None and image[0] is x and image[1] is self.num.refine(_TOL_64):
            lo, hi, den = image[2]
        else:
            lo, hi, den = self._bounds(x, _TOL_64)
        n = (lo + hi) << 47
        return n // den if n >= 0 else -(-n // den)


# bench/tracing.py patches _RationalArith.step, so the name stays bound.
_RationalArith = _AlgebraicArith


def _arith_for(beta: BetaValue, precision: PrecisionConfig):
    return _AlgebraicArith(beta.algebraic, precision)


def _start(beta: BetaValue, x, precision: PrecisionConfig):
    """The orbit arithmetic of beta and the exact point x, which must lie in (0,1]."""
    arith = _arith_for(beta, precision)
    x = Fraction(x)
    if not 0 < x <= 1:
        raise NegBetaError(f"start point must lie in (0,1], got {x}")
    return arith, arith.from_rational(x)


def _walk(beta: BetaValue, arith, x):
    """The exact orbit after the point x: yields (digit, T(x)), (digit, T^2(x)), ...

    Every digit must lie in 0..floor(beta).  The floor is read after the
    first step, which has already refined beta's interval past any integer.
    """
    top = None
    while True:
        d, x = arith.step(x)
        if top is None:
            top = beta.floor()
        if not 0 <= d <= top:
            raise InvariantError(f"digit {d} outside 0..floor(beta)")
        yield d, x


@dataclass(frozen=True)
class ExpansionState:
    """Orbit state: exact current point, its certified interval, the digits
    emitted so far, and the remaining precision budget."""

    current: tuple[Fraction, Fraction]
    digits_so_far: tuple[int, ...]
    precision_budget: PrecisionConfig
    point: object = field(repr=False, default=None)
    # the orbit arithmetic of the state's base, shared by every later state
    arith: object = field(compare=False, repr=False, default=None)


def initial_state(beta, x=1, precision: PrecisionConfig = DEFAULT_PRECISION) -> ExpansionState:
    x = Fraction(x)
    arith, pt = _start(BetaValue.of(beta), x, precision)
    return ExpansionState(current=(x, x), digits_so_far=(), precision_budget=precision,
                          point=pt, arith=arith)


def step(beta, state: ExpansionState) -> ExpansionState:
    """Advance the orbit one step, appending one expansion digit.

    The state must come from the same base: a base of another value or
    defining polynomial raises NegBetaError.
    """
    beta = BetaValue.of(beta)
    arith = state.arith
    if arith is None or not arith.serves(beta):
        arith = _arith_for(beta, state.precision_budget)
        if state.arith is not None and not arith.reads(state.arith):
            raise NegBetaError(f"the orbit state was built for another base than {beta}")
    d, nxt = next(_walk(beta, arith, state.point))
    lo, hi = arith.enclosure(nxt, Fraction(1, 2**state.precision_budget.start_bits))
    return replace(state, current=(lo, hi), digits_so_far=state.digits_so_far + (d,),
                   point=nxt, arith=arith)


class DigitStream:
    """Lazily extended expansion of a point, with exact period detection.

    Near-coincidences of orbit points (bucketed by certified midpoints) are
    resolved by the exact equality test, so a detected repeat is a proof and
    a missed repeat cannot produce wrong digits, only a longer prefix.
    """

    def __init__(self, beta, x=1, precision: PrecisionConfig = DEFAULT_PRECISION,
                 max_digits: int = 20000):
        self.beta = BetaValue.of(beta)
        self.arith, start = _start(self.beta, x, precision)
        self.max_digits = max_digits
        self.digits: list[int] = []
        self.word: EventuallyPeriodicWord | None = None
        self._points = [start]
        self._steps = _walk(self.beta, self.arith, start)
        self._buckets: dict[object, list[int]] = {self.arith.key(start): [0]}

    def _find_repeat(self, index: int, key) -> int | None:
        candidates = []
        for k in (key - 1, key, key + 1):
            candidates.extend(self._buckets.get(k, []))
        for i in sorted(set(candidates)):
            if i < index and self.arith.equal(self._points[i], self._points[index]):
                return i
        return None

    def _advance(self):
        if len(self.digits) >= self.max_digits:
            raise UndecidableAtPrecisionError(
                f"no certified period within {self.max_digits} digits")
        d, nxt = next(self._steps)
        self.digits.append(d)
        self._points.append(nxt)
        idx = len(self._points) - 1
        key = self.arith.key(nxt)
        rep = self._find_repeat(idx, key)
        if rep is not None:
            self.word = canonicalize(self.digits[:rep], self.digits[rep:idx])
        else:
            self._buckets.setdefault(key, []).append(idx)

    def digit(self, k: int) -> int:
        """k-th expansion digit, 1-based."""
        while len(self.digits) < k and self.word is None:
            self._advance()
        return self.digits[k - 1] if k <= len(self.digits) else self.word.digit(k)

    def detect_period(self, budget: int) -> EventuallyPeriodicWord | None:
        while self.word is None and len(self.digits) < budget:
            self._advance()
        return self.word


@dataclass(frozen=True)
class ExpansionResult:
    """Expansion of 1: the eventually periodic word when a repeat was
    certified, otherwise the computed digit prefix with a flag."""

    digits: tuple[int, ...]
    word: EventuallyPeriodicWord | None
    # the orbit arithmetic and the exact points 1, T(1), ... behind the digits
    arith: object = field(compare=False, repr=False, default=None)
    points: tuple = field(compare=False, repr=False, default=())

    @property
    def is_periodic(self) -> bool:
        return self.word is not None

    def orbit_intervals(self, count: int, tol: Fraction) -> list[tuple[Fraction, Fraction]]:
        """Certified enclosures of T(1), ..., T^k(1) for k = min(count, digits)."""
        return [self.arith.enclosure(x, tol) for x in self.points[1:count + 1]]


def expansion_of_one(beta, max_digits: int = 1000, detect_period: bool = True,
                     precision: PrecisionConfig = DEFAULT_PRECISION) -> ExpansionResult:
    """Digits of the expansion of 1 in base beta.

    With detect_period, stops as soon as an exact orbit repeat is certified
    and returns the eventually periodic word; a base is Yrrap exactly when
    this happens for some finite budget.  Without it, returns exactly
    max_digits digits and no word.
    """
    if detect_period:
        stream = DigitStream(beta, 1, precision, max_digits=max_digits + 1)
        word = stream.detect_period(max_digits)
        return ExpansionResult(digits=tuple(stream.digits), word=word,
                               arith=stream.arith, points=tuple(stream._points))
    arith, points, digits = _orbit(beta, 1, max_digits, precision)
    return ExpansionResult(digits=digits, word=None, arith=arith, points=points)


def _orbit(beta, x, count: int, precision: PrecisionConfig):
    """The orbit arithmetic of beta, the exact points x, T(x), ..., T^count(x)
    and the count digits read between them."""
    beta = BetaValue.of(beta)
    arith, start = _start(beta, x, precision)
    steps = list(itertools.islice(_walk(beta, arith, start), max(count, 0)))
    return arith, (start, *(pt for _, pt in steps)), tuple(d for d, _ in steps)


def expansion_digits(beta, x, count: int,
                     precision: PrecisionConfig = DEFAULT_PRECISION) -> tuple[int, ...]:
    """First digits of the expansion of an arbitrary point x in (0,1]."""
    return _orbit(beta, x, count, precision)[2]


def orbit_points(beta, x, count: int,
                 precision: PrecisionConfig = DEFAULT_PRECISION):
    """The exact orbit x, T(x), ..., T^(count-1)(x) with the backend arith."""
    arith, points, _ = _orbit(beta, x, count - 1, precision)
    return arith, list(points)


def lower_bound_word(d1: EventuallyPeriodicWord) -> EventuallyPeriodicWord:
    """Strict lower bound of the shift: the decremented odd-period form when
    the expansion of 1 is purely periodic with odd minimal period, otherwise
    0 followed by the expansion of 1."""
    if d1.is_purely_periodic() and d1.period_length % 2 == 1:
        per = d1.per
        if per[-1] < 1:
            raise InvariantError("expansion of 1 cannot end its period with 0")
        return canonicalize((), (0,) + per[:-1] + (per[-1] - 1,))
    return canonicalize((0,) + d1.pre, d1.per)


def shift_membership(w: EventuallyPeriodicWord, d1: EventuallyPeriodicWord) -> bool:
    """Does w belong to the shift whose expansion of 1 is d1?

    Every tail of w must be at most d1 and strictly above the lower bound
    word; only the finitely many distinct tails are checked.
    """
    lower = lower_bound_word(d1)
    for t in w.distinct_tails():
        if words.alt_lex_compare(t, d1) > 0:
            return False
        if words.alt_lex_compare(t, lower) <= 0:
            return False
    return True


class MembershipOracle:
    """Membership test against a base given only lazily (digit stream).

    When the stream certifies a period the test is exact; otherwise tail
    comparisons are decided against the growing digit prefix, which is sound
    whenever each comparison resolves within the computed digits (the two
    candidate lower-bound forms agree on any prefix shorter than the period).
    """

    def __init__(self, beta, precision: PrecisionConfig = DEFAULT_PRECISION,
                 period_budget: int = 600, compare_cap: int = 20000):
        beta = BetaValue.of(beta)
        self.stream = DigitStream(beta, 1, precision, max_digits=compare_cap)
        self.compare_cap = compare_cap
        if beta.is_rational() and beta.rational.denominator > 1:
            # A non-integer rational base is not an algebraic integer, hence
            # never Yrrap: its expansion of 1 cannot be eventually periodic,
            # so the plain lower-bound form is correct at every depth and
            # period detection would only burn huge exact denominators.
            self.period_budget = compare_cap
            self.word = None
        else:
            self.period_budget = period_budget
            self.word = self.stream.detect_period(period_budget)
        self.lower = lower_bound_word(self.word) if self.word is not None else None

    def d1_digit(self, i: int) -> int:
        """i-th digit of the expansion of 1, 1-based."""
        return self.stream.digit(i)

    def lower_digit(self, i: int) -> int:
        """i-th digit of the shift's lower bound: the certified lower-bound
        word when a period is known, else 0 followed by the expansion of 1."""
        if self.lower is not None:
            return self.lower.digit(i)
        return 0 if i == 1 else self.stream.digit(i - 1)

    def _compare_tail(self, t: EventuallyPeriodicWord, reference, cap: int, bound: str) -> int:
        """Alternating-lex order of t against the digits reference(1), reference(2), ..."""
        for k in range(1, cap + 1):
            a, b = t.digit(k), reference(k)
            if a != b:
                return words.alt_order(a, b, k)
        raise UndecidableAtPrecisionError(f"tail comparison with {bound} unresolved")

    def contains(self, w: EventuallyPeriodicWord) -> bool:
        if self.word is not None:
            return shift_membership(w, self.word)
        # Without a certified period the lower bound is read as 0 d1.  Then
        # any purely periodic d1 has period beyond the period budget, and the
        # two candidate lower-bound forms agree on a prefix that long; so
        # decisions inside the budget are form-independent, deeper ones are
        # refused rather than risked.
        for t in w.distinct_tails():
            if self._compare_tail(t, self.d1_digit, self.compare_cap, "expansion of 1") > 0:
                return False
            if self._compare_tail(t, self.lower_digit, self.period_budget, "lower bound") <= 0:
                return False
        return True


def validate_expansion(w: EventuallyPeriodicWord,
                       precision: PrecisionConfig = DEFAULT_PRECISION) -> bool:
    """Is w literally the expansion of 1 in its own base b(w)?

    Certified round trip: iterate the transformation at b(w) for preperiod
    plus period steps, require every digit to match and the orbit to close up
    exactly.
    """
    b = b_of(w)
    if b == 1:
        raise NegBetaError(f"{w} lies below the substitution fixed point; its base is 1")
    beta = BetaValue.of(b)
    arith = _arith_for(beta, precision)
    q, p = w.preperiod_length, w.period_length
    pts = [arith.one()]
    for k, (d, nxt) in enumerate(itertools.islice(_walk(beta, arith, pts[0]), q + p), start=1):
        if d != w.digit(k):
            return False
        pts.append(nxt)
    return arith.equal(pts[q + p], pts[q])


# --- order-reversing conjugacy with the original negative-base map ----------

def t_step_rational(beta: Fraction, x: Fraction) -> Fraction:
    """One step of the map used here: floor(beta x) + 1 - beta x on (0,1]."""
    v = beta * x
    return v.numerator // v.denominator + 1 - v


def interval_map_step(beta: Fraction, y: Fraction) -> Fraction:
    """One step of the order-reversed interval version on [-beta/(beta+1), 1/(beta+1))."""
    v = beta / (beta + 1) - beta * y
    return -beta * y - (v.numerator // v.denominator)


def conjugacy_map(beta: Fraction, x: Fraction) -> Fraction:
    """The order-reversing change of coordinates between the two versions."""
    return Fraction(1, beta + 1) - x
