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

import copy
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, inf

from . import words
from .algebraic import (
    _COMPARE_WIDTH,
    AlgebraicNumber,
    _has_root,
    _over_common_denominator,
    _poly_gcd,
    _roots_not_integral,
    _strip,
    as_rational,
    b_of,
)
from .errors import (
    InvariantError,
    NegBetaError,
    UndecidableAtPrecisionError,
)
from .words import EventuallyPeriodicWord, _canonical


@dataclass(frozen=True)
class PrecisionConfig:
    """Interval refinement schedule: start at start_bits fractional bits and
    double up to max_bits before giving up."""

    start_bits: int = 128
    max_bits: int = 4096
    _tolerances: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.start_bits <= self.max_bits:
            raise NegBetaError(f"precision needs 1 <= start_bits <= max_bits, got "
                               f"{self.start_bits} and {self.max_bits}")
        bits = [self.start_bits]
        while bits[-1] < self.max_bits:
            bits.append(2 * bits[-1])
        object.__setattr__(self, "_tolerances", tuple(Fraction(1, 2**b) for b in bits))

    def tolerances(self) -> tuple[Fraction, ...]:
        return self._tolerances


DEFAULT_PRECISION = PrecisionConfig()
_TOL_64 = Fraction(1, 2**64)
PERIOD_BUDGET = 600  # digits of the expansion of 1 a membership oracle searches for a period
COMPARE_CAP = 20000  # digits a membership oracle's tail comparison may read
# Carried enclosures have P = _CARRY_BITS fractional bits, and keys come from
# enclosures at most 2^-_KEY_BITS wide.  The carry waits for _CARRY_AFTER exact
# steps: the walks of invert take at most 5 on the benchmark's query corpus,
# whose wall time read 4% slower with the carry engaged from the first step.
_CARRY_BITS = 128
_KEY_BITS = 50
_CARRY_AFTER = 16


def _power_table(interval, deg: int) -> list:
    """For beta in [L/q, H/q], row m < deg holds (L^i q^(m-i), H^i q^(m-i)):
    row m - 1 times q, then (L^m, H^m)."""
    (L, H), q = _over_common_denominator(interval)
    powers = [[(1, 1)]]
    for _ in range(deg - 1):
        row = powers[-1]
        lo, hi = row[-1]
        powers.append([(a * q, b * q) for a, b in row] + [(lo * L, hi * H)])
    return powers


def _termwise(nums, row) -> tuple[int, int]:
    """Termwise min/max sums of n_i times the pairs of a power table row."""
    acc_lo = acc_hi = 0
    for n, (pl, ph) in zip(nums, row):
        a, b = n * pl, n * ph
        if a > b:
            a, b = b, a
        acc_lo += a
        acc_hi += b
    return acc_lo, acc_hi


@dataclass(frozen=True)
class BetaValue:
    """A base beta > 1, an algebraic number with a refinable interval; a
    rational base is the root of a polynomial of degree 1."""

    algebraic: AlgebraicNumber

    @classmethod
    def from_rational(cls, value) -> "BetaValue":
        num = AlgebraicNumber.from_rational(value)
        if num.exact <= 1:
            raise NegBetaError(f"base must exceed 1, got {num.exact}")
        return cls(num)

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
        return cls.from_rational(value)

    @property
    def rational(self) -> Fraction | None:
        return self.algebraic.exact

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
    of a polynomial in beta of degree below that of num._sf, the defining
    polynomial, over one shared positive denominator.  Values (not
    representations) are compared, so a reducible defining polynomial cannot
    corrupt equality decisions.

    On a long orbit a digit is read off an enclosure of x carried from step to
    step where the exact step would decide it at once, so num is refined alike.
    """

    def __init__(self, num: AlgebraicNumber, precision: PrecisionConfig = DEFAULT_PRECISION):
        self.num = num
        self.sf = num._sf
        self.deg = len(self.sf) - 1
        self._tolerances = precision.tolerances()
        # the interval of num last seen, the most fractional bits b it is known
        # to meet 2^-b for, and per point degree m the pairs (L^i q^(m-i),
        # H^i q^(m-i)) of its integer form [L/q, H/q]
        self._interval = None
        self._bits = -1
        self._powers = None
        # per table row, s with enclosures below 2^(bitlen(max|n_i|/den) + s - 2P)
        self._slack = None
        # the last image step returned, the interval its floor was read on and
        # the image's bounds there, which key reuses
        self._image = None
        # the bits beta's interval must meet for the carry (infinite: off);
        # (image, interval it was carried on, a, b) with a/2^P <= image <= b/2^P;
        # (copy of num, bits it meets, its power table, bl, bh), bl/2^P <= beta <= bh/2^P
        self._exact_steps = 0
        self._carry_bits, self._max_bits = max(precision.start_bits, 64), precision.max_bits
        self._carry = self._twin = None
        # floor(num), which _walk reads after the first step
        self.top = None

    def serves(self, beta) -> bool:
        # beta is a BetaValue, an AlgebraicNumber or a rational.  The enclosures
        # depend on num's interval state, so identity; an exact one's value suffices
        num = beta.algebraic if isinstance(beta, BetaValue) else beta
        exact = num.exact if isinstance(num, AlgebraicNumber) else num
        return num is self.num or (exact is not None and exact == self.num.exact)

    def reads(self, other) -> bool:
        """Do the points of the arithmetic other hold the same numbers here?"""
        return (isinstance(other, _AlgebraicArith) and other.sf == self.sf
                and other.num.equals(self.num))

    def one(self):
        return ((1,), 1)

    def from_rational(self, x: Fraction):
        return ((x.numerator,), x.denominator)

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

    def _refine(self, tol: Fraction):
        """Refine num to tol, unless its interval is the one seen last and
        tol = 2^-b for b it is known to meet; rebuild the power tables when
        the interval is new."""
        d = tol.denominator
        bits = d.bit_length() - 1 if tol.numerator == 1 and not d & (d - 1) else None
        if self.num.interval is self._interval and bits is not None and bits <= self._bits:
            return
        interval = self.num.refine(tol)
        if interval is not self._interval:
            powers = _power_table(interval, self.deg)
            self._interval, self._bits, self._powers, self._slack = interval, -1, powers, None
        if bits is not None and bits > self._bits:
            self._bits = bits

    def _bounds(self, x, tol: Fraction) -> tuple[int, int, int]:
        """Integers lo, hi and D > 0 with lo/D <= x <= hi/D.

        Termwise min/max of n_i lo^i, n_i hi^i over the isolating interval
        [lo, hi] = [L/q, H/q] of beta refined to tol, summed as integers over
        D = den * q^m for x = (sum n_i beta^i) / den of degree m.
        """
        self._refine(tol)
        nums, den = x
        row = self._powers[max(len(nums) - 1, 0)]
        return (*_termwise(nums, row), den * row[0][0])

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
        lo, hi = self.num.refine(_COMPARE_WIDTH)
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
        """Floor d of x, and the bounds that decided it, or None exactly
        when x is the integer d."""
        for tol in self._tolerances:
            lo, hi, den = self._bounds(x, tol)
            flo, fhi = lo // den, hi // den
            # x might be exactly the integer fhi when the bounds reach it
            if lo <= fhi * den and fhi - flo <= 1 and self.is_zero(self._minus_int(x, fhi)):
                return fhi, None
            if flo == fhi:
                return flo, (lo, hi, den)
        raise UndecidableAtPrecisionError(
            "floor undecided at max precision", straddled=fhi)

    def step(self, x):
        """(d, T(x)) from one list w = -beta*x reduced modulo the defining
        polynomial, a non-monic one scaling the point by its (positive) leading
        coefficient and a gcd putting it back in lowest terms; T(x) = w + d + 1.

        Past _CARRY_AFTER exact steps the carry of x puts beta*x in
        [bl a, bh b] / 2^(2P).  The exact step's first enclosure of it, termwise
        on num's interval, is at most W = max|n_i| sum_i (H_i - L_i) / (den q^m)
        wide, so where the carried interval widened by W lies in (d, d + 1),
        that step would decide d at once, and d is read off the carry.
        """
        nums, den = x
        sf = self.sf
        if len(nums) < self.deg:
            w = [0, *(-n for n in nums)]
        else:
            c, lead = nums[-1], sf[-1]
            if lead == 1:
                w = [c * s - a for a, s in zip((0, *nums[:-1]), sf)]
            else:
                w = [c * s - lead * a for a, s in zip((0, *nums[:-1]), sf)]
                den *= lead
            while w and w[-1] == 0:
                w.pop()
            if lead != 1:
                g = gcd(den, *w)
                if g > 1:
                    w = [a // g for a in w]
                    den //= g
        carry = None
        if (self._exact_steps >= _CARRY_AFTER and self.num.interval is self._interval
                and self._bits >= self._carry_bits):
            carry = self._carry if self._carry and self._carry[0] is x else self._refresh(x)
        if carry is not None:
            _, _, a, b = carry
            _, _, _, bl, bh = self._twin
            lo, hi = bl * a, bh * b
            d = lo >> 2 * _CARRY_BITS
            gap_lo, gap_hi = lo - (d << 2 * _CARRY_BITS), ((d + 1) << 2 * _CARRY_BITS) - hi
            gap = min(gap_lo, gap_hi)
            if self._slack is None:
                # row m spreads t = sum_i (H_i - L_i) < 2^(bitlen t - bitlen q^m + 1) q^m
                self._slack = [(t.bit_length() - row[0][0].bit_length() + 2 + 2 * _CARRY_BITS
                                if (t := sum(h - l for l, h in row)) else -inf)
                               for row in self._powers]
            # W 2^(2P) < 2^k, so a gap of at least 2^k holds W
            k = (max(max(w), -min(w)).bit_length() - den.bit_length()
                 + self._slack[len(w) - 1])
            if gap > 0 and gap.bit_length() > k:
                # d + 1 - beta*x lies in [gap_hi, 2^(2P) - gap_lo] / 2^(2P); round outward
                a, b = gap_hi >> _CARRY_BITS, (1 << _CARRY_BITS) - (gap_lo >> _CARRY_BITS)
            else:
                carry = None
        if carry is None:
            self._exact_steps += 1
            self._carry = None
            d, bounds = self._certified_floor(([-n for n in w], den))
            if bounds is None:
                # beta*x is exactly the integer d, so the image is exactly 1
                return d, self.one()
        w[0] += (d + 1) * den
        while w and w[-1] == 0:
            w.pop()
        image = (tuple(w), den)
        if carry is None:
            # termwise, the bounds of d + 1 - beta*x are d + 1 minus those of beta*x
            lo, hi, D = bounds
            self._image = (image, self._interval, ((d + 1) * D - hi, (d + 1) * D - lo, D))
        elif b - a <= 1 << (_CARRY_BITS - _KEY_BITS):
            self._carry = (image, self._interval, a, b)
        else:
            self._carry = self._refresh(image)
        return d, image

    def _refresh(self, x):
        """The carry of x read off the private copy of beta, refined by doubling
        bits until the carry is at most 2^(16 - P) wide; None, and the carry
        off for good, when that would pass max_bits."""
        nums, den = x
        # refine rebinds the interval, so a shallow copy refines on its own
        twin, bits = self._twin[:2] if self._twin else (copy.copy(self.num), self._bits)
        while True:
            if self._twin is None or self._twin[1] != bits:
                interval = twin.refine(Fraction(1, 2**bits)) if self._twin else twin.interval
                (L, H), q = _over_common_denominator(interval)
                self._twin = (twin, bits, _power_table(interval, self.deg),
                              (L << _CARRY_BITS) // q, -((-H << _CARRY_BITS) // q))
            row = self._twin[2][len(nums) - 1]
            lo, hi, D = *_termwise(nums, row), den * row[0][0]
            a, b = max((lo << _CARRY_BITS) // D, 0), -((-hi << _CARRY_BITS) // D)
            if b - a <= 1 << 16:
                return x, self._interval, a, b
            if bits >= self._max_bits:
                self._carry_bits = inf
                return None
            bits = min(2 * bits, self._max_bits)

    def key(self, x):
        """int(mid * 2**48) for the midpoint of the 2^-64 enclosure, exactly, or
        floor(mid * 2**48) for that of the carry of x, which x gets (and the next
        step reuses) where that enclosure is wider than 2^-50 and the carry is
        on.  Equal points keyed off enclosures this narrow differ by at most 1."""
        carry = self._carry
        if carry is None or carry[0] is not x or carry[1] is not self.num.interval:
            # reuse the image's bounds when beta's interval, unchanged since, meets 2^-64
            if ((image := self._image) is not None and image[0] is x
                    and image[1] is self.num.interval and self._bits >= 64):
                lo, hi, den = image[2]
            else:
                lo, hi, den = self._bounds(x, _TOL_64)
            if ((hi - lo) << _KEY_BITS <= den or self._bits < self._carry_bits
                    or (carry := self._refresh(x)) is None):
                n = (lo + hi) << 47
                return n // den if n >= 0 else -(-n // den)
            self._carry = carry
        return (carry[2] + carry[3]) >> (_CARRY_BITS - 47)


# bench/tracing.py patches _RationalArith.step, so the name stays bound.
_RationalArith = _AlgebraicArith


def _arith_for(beta: BetaValue, precision: PrecisionConfig):
    return _AlgebraicArith(beta.algebraic, precision)


def _start(beta: BetaValue, x, precision: PrecisionConfig):
    """The orbit arithmetic of beta and the exact point x, which must lie in (0,1]."""
    arith = _arith_for(beta, precision)
    x = as_rational(x)
    if not 0 < x <= 1:
        raise NegBetaError(f"start point must lie in (0,1], got {x}")
    return arith, arith.from_rational(x)


def _walk(arith, x):
    """The exact orbit after the point x: yields (digit, T(x)), (digit, T^2(x)), ...

    Every digit must lie in 0..floor(beta).  The floor is read once per
    arithmetic, after its first step, which has already refined beta's
    interval past any integer.
    """
    top = getattr(arith, "top", None)
    while True:
        d, x = arith.step(x)
        if top is None:
            top = arith.top = arith.num.floor()
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
    x = as_rational(x)
    arith, pt = _start(BetaValue.of(beta), x, precision)
    return ExpansionState(current=(x, x), digits_so_far=(), precision_budget=precision,
                          point=pt, arith=arith)


def step(beta, state: ExpansionState) -> ExpansionState:
    """Advance the orbit one step, appending one expansion digit.

    The state must come from the same base: a base of another value or
    defining polynomial raises NegBetaError.
    """
    arith = state.arith
    if arith is None or not arith.serves(beta):
        beta = BetaValue.of(beta)
        arith = _arith_for(beta, state.precision_budget)
        if state.arith is not None and not arith.reads(state.arith):
            raise NegBetaError(f"the orbit state was built for another base than {beta}")
    d, nxt = next(_walk(arith, state.point))
    lo, hi = arith.enclosure(nxt, Fraction(1, 2**state.precision_budget.start_bits))
    return ExpansionState(current=(lo, hi), digits_so_far=state.digits_so_far + (d,),
                          precision_budget=state.precision_budget, point=nxt, arith=arith)


class DigitStream:
    """Lazily extended expansion of a point, with exact period detection.

    Near-coincidences of orbit points (bucketed by certified midpoints) are
    resolved by the exact equality test, so a detected repeat is a proof and
    a missed repeat cannot produce wrong digits, only a longer prefix.
    """

    def __init__(self, beta, x=1, precision: PrecisionConfig = DEFAULT_PRECISION,
                 max_digits: int = 20000):
        self.arith, start = _start(BetaValue.of(beta), x, precision)
        self.max_digits = max_digits
        self.digits: list[int] = []
        self.word: EventuallyPeriodicWord | None = None
        self._points = [start]
        self._steps = _walk(self.arith, start)
        self._buckets: dict[object, list[int]] = {self.arith.key(start): [0]}

    def _find_repeat(self, index: int, key) -> int | None:
        candidates = [i for k in (key - 1, key, key + 1) for i in self._buckets.get(k, ())]
        for i in sorted(set(candidates)):
            if i < index and self.arith.equal(self._points[i], self._points[index]):
                return i
        return None

    def _extend(self, count: int):
        """Step until count digits or a period are known; past max_digits
        without a period, raise."""
        digits, points, buckets, key = self.digits, self._points, self._buckets, self.arith.key
        todo = max(min(count, self.max_digits) - len(digits), 0)
        for d, nxt in itertools.islice(self._steps, todo):
            digits.append(d)
            points.append(nxt)
            idx, k = len(digits), key(nxt)
            if ((k in buckets or k - 1 in buckets or k + 1 in buckets)
                    and (rep := self._find_repeat(idx, k)) is not None):
                self.word = _canonical(tuple(digits[:rep]), tuple(digits[rep:]))
                return
            buckets.setdefault(k, []).append(idx)
        if len(digits) < count:
            raise UndecidableAtPrecisionError(
                f"no certified period within {self.max_digits} digits")

    def digit(self, k: int) -> int:
        """k-th expansion digit, 1-based."""
        if k < 1:
            raise IndexError("positions are 1-based")
        if k > len(self.digits) and self.word is None:
            self._extend(k)
        return self.digits[k - 1] if k <= len(self.digits) else self.word.digit(k)

    def detect_period(self, budget: int) -> EventuallyPeriodicWord | None:
        if self.word is None:
            self._extend(budget)
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
    if max_digits < 0:
        raise NegBetaError(f"max_digits must be at least 0, got {max_digits}")
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
    steps = list(itertools.islice(_walk(arith, start), max(count, 0)))
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
        return _canonical((), (0,) + per[:-1] + (per[-1] - 1,))
    return _canonical((0,) + d1.pre, d1.per)


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

    def __init__(self, beta, precision: PrecisionConfig = DEFAULT_PRECISION):
        beta = BetaValue.of(beta)
        self.stream = DigitStream(beta, 1, precision, max_digits=COMPARE_CAP)
        self.compare_cap = COMPARE_CAP
        if _roots_not_integral(beta.algebraic._sf):
            # The base is not an algebraic integer (a non-integer rational,
            # or a threshold shifted by a non-integer margin, as in verify).
            # An eventually periodic expansion of 1 would give a monic integer
            # relation, T^k(1) = (-beta)^k + lower terms, so the expansion is
            # never periodic: the plain lower-bound form is correct at every
            # depth and period detection would only burn growing denominators.
            self.period_budget = COMPARE_CAP
            self.word = None
        else:
            self.period_budget = PERIOD_BUDGET
            self.word = self.stream.detect_period(PERIOD_BUDGET)
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


def expansion_base(w: EventuallyPeriodicWord,
                   precision: PrecisionConfig = DEFAULT_PRECISION) -> AlgebraicNumber | None:
    """b(w) when w is literally the expansion of 1 in its own base, else None.

    Certified round trip: iterate the transformation at b(w) for preperiod
    plus period steps, require every digit to match and the orbit to close up
    exactly.  An irrational base comes back as refined by the walk.
    """
    b = b_of(w)
    if b == 1:
        raise NegBetaError(f"{w} lies below the substitution fixed point; its base is 1")
    beta = BetaValue.of(b)
    arith = _arith_for(beta, precision)
    q, p = w.preperiod_length, w.period_length
    pts = [arith.one()]
    for k, (d, nxt) in enumerate(itertools.islice(_walk(arith, pts[0]), q + p), start=1):
        if d != w.digit(k):
            return None
        pts.append(nxt)
    return b if arith.equal(pts[q + p], pts[q]) else None


def validate_expansion(w: EventuallyPeriodicWord,
                       precision: PrecisionConfig = DEFAULT_PRECISION) -> bool:
    """Is w literally the expansion of 1 in its own base b(w)?  The yes-or-no
    form of ``expansion_base``, which isolates b(w) with ``b_of`` and returns
    it; raises what that raises."""
    return expansion_base(w, precision) is not None


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
