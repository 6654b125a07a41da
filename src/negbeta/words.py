"""Eventually periodic digit words under the alternating lexicographical order.

A word here is an infinite sequence of nonnegative integer digits of the form
``preperiod . period period period ...``, stored in a canonical form: the
period is not a proper power of a shorter word, and the last preperiod digit
differs from the last period digit (so no shorter preperiod/period describes
the same sequence).  Positions are 1-based throughout.

The alternating lexicographical order compares two sequences at their first
differing position k: the usual digit order decides when k is odd, the
reversed order when k is even.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

from .errors import InvariantError, MalformedWordError, SupNotFixedError, UndefinedDerivedWordError

Digits = tuple[int, ...]

LESS, EQUAL, GREATER = -1, 0, 1


def _as_digits(seq) -> Digits:
    if isinstance(seq, str):
        digits = tuple(int(c) for c in seq)
    else:
        digits = tuple(int(d) for d in seq)
    if any(d < 0 for d in digits):
        raise MalformedWordError(f"negative digit in {seq!r}")
    return digits


def primitive_root(v: Digits) -> tuple[Digits, int]:
    """Shortest word s and exponent k with v = s^k."""
    n = len(v)
    for d in range(1, n):
        if n % d == 0 and v == v[:d] * (n // d):
            return v[:d], n // d
    return v, 1


@dataclass(frozen=True)
class EventuallyPeriodicWord:
    """Canonical eventually periodic word ``pre . (per)^inf``."""

    pre: Digits
    per: Digits

    def __post_init__(self):
        if not self.per:
            raise MalformedWordError("empty period")
        root, power = primitive_root(self.per)
        if power != 1:
            raise MalformedWordError(f"period {self.per} is a proper power; canonicalize first")
        if self.pre and self.pre[-1] == self.per[-1]:
            raise MalformedWordError("preperiod not minimal; canonicalize first")

    @classmethod
    def _trusted(cls, pre: Digits, per: Digits) -> "EventuallyPeriodicWord":
        """The word of a pair known to be canonical, built without the checks."""
        w = object.__new__(cls)
        object.__setattr__(w, "pre", pre)
        object.__setattr__(w, "per", per)
        return w

    @property
    def preperiod_length(self) -> int:
        return len(self.pre)

    @property
    def period_length(self) -> int:
        return len(self.per)

    def digit(self, k: int) -> int:
        """k-th digit, 1-based; total for all k >= 1."""
        if k < 1:
            raise IndexError("positions are 1-based")
        q = len(self.pre)
        if k <= q:
            return self.pre[k - 1]
        return self.per[(k - q - 1) % len(self.per)]

    def prefix(self, length: int) -> Digits:
        return tuple(self.digit(k) for k in range(1, length + 1))

    def tail(self, k: int) -> "EventuallyPeriodicWord":
        """The shifted word starting at position k (1-based), built canonical
        as ``distinct_tails`` proves."""
        if k < 1:
            raise IndexError("positions are 1-based")
        q = len(self.pre)
        if k <= q + 1:
            return self._trusted(self.pre[k - 1:], self.per)
        j = (k - q - 1) % len(self.per)
        return self._trusted((), self.per[j:] + self.per[:j])

    def distinct_tails(self) -> list["EventuallyPeriodicWord"]:
        """All tails of the word, each once: those at positions 1..q+p, since
        the tail at k + p is the tail at k for k > q.

        Each is built canonical.  A nonempty suffix of the preperiod keeps its
        last digit, so it still differs from the period's last digit.  A
        rotation of the primitive period is primitive: r = s^k with k > 1 would
        make the period a rotation of s^k, a power of a rotation of s.  The
        rotations are pairwise distinct: two equal ones would make the period
        invariant under a rotation by some 0 < i < p, hence a power of its
        prefix of length gcd(i, p) < p.  So the q + p pairs differ, in
        preperiod length or as distinct rotations.
        """
        q, per = len(self.pre), self.per
        return ([self._trusted(self.pre[i:], per) for i in range(q + 1)]
                + [self._trusted((), per[j:] + per[:j]) for j in range(1, len(per))])

    def max_digit(self) -> int:
        return max(self.pre + self.per)

    def is_purely_periodic(self) -> bool:
        return not self.pre

    def padded_form(self) -> tuple[int, int, Digits]:
        """Normalization with q >= 1 minimal such that the tail from position
        q repeats with (minimal) period p; returns (q, p, first q+p digits).

        The canonical form allows an empty preperiod; this variant never does,
        so q equals the canonical preperiod length plus one.
        """
        q = len(self.pre) + 1
        p = len(self.per)
        return q, p, self.prefix(q + p)

    def __lt__(self, other):
        return alt_lex_compare(self, other) == LESS

    def __le__(self, other):
        return alt_lex_compare(self, other) != GREATER

    def __gt__(self, other):
        return alt_lex_compare(self, other) == GREATER

    def __ge__(self, other):
        return alt_lex_compare(self, other) != LESS

    def __str__(self):
        return format_word(self)

    def __repr__(self):
        return f"word({format_word(self)!r})"


def canonicalize(preperiod, period) -> EventuallyPeriodicWord:
    """Build the canonical word for ``preperiod . (period)^inf``.

    Reduces the period to its primitive root, then absorbs preperiod digits
    that merely repeat the tail of the period (rotating the period as they
    are absorbed).

    >>> canonicalize("21", "00")
    word('21(0)')
    >>> canonicalize("10", "10")
    word('(10)')
    """
    return _canonical(_as_digits(preperiod), _as_digits(period))


def _canonical(pre: Digits, per: Digits) -> EventuallyPeriodicWord:
    """canonicalize for tuples of non-negative int digits, which it takes
    as they are: the library's own digits need no validation.  The pair it
    makes has a primitive period (a rotation of a primitive root) and a
    preperiod that no longer ends with the period's last digit, so the word
    skips the checks of ``__post_init__``."""
    if not per:
        raise MalformedWordError("empty period")
    per = list(primitive_root(per)[0])
    pre = list(pre)
    while pre and pre[-1] == per[-1]:
        pre.pop()
        per = [per[-1]] + per[:-1]
    return EventuallyPeriodicWord._trusted(tuple(pre), tuple(per))


def word(literal: str) -> EventuallyPeriodicWord:
    """Shorthand parser, see :func:`parse_word`."""
    return parse_word(literal)


_WORD_RE = re.compile(r"^([0-9,]*)\(([0-9,]+)\)$")


def parse_word(text: str) -> EventuallyPeriodicWord:
    """Parse a word literal ``PREFIX(PERIOD)``.

    Digit-string form for digits <= 9 ("330121023(301210220)"), or the
    comma-separated variant for larger digits ("3,3,0(3,0,1)").
    """
    text = text.strip()
    m = _WORD_RE.match(text)
    if not m:
        raise MalformedWordError(f"cannot parse word literal {text!r}")
    pre_s, per_s = m.group(1), m.group(2)
    if "," in text:
        pre = tuple(int(t) for t in pre_s.split(",") if t != "")
        per = tuple(int(t) for t in per_s.split(",") if t != "")
    else:
        pre = tuple(int(c) for c in pre_s)
        per = tuple(int(c) for c in per_s)
    if not per:
        raise MalformedWordError(f"empty period in {text!r}")
    return canonicalize(pre, per)


def format_word(w: EventuallyPeriodicWord) -> str:
    """Canonical literal; inverse of :func:`parse_word` on canonical forms."""
    if w.max_digit() <= 9:
        pre = "".join(str(d) for d in w.pre)
        per = "".join(str(d) for d in w.per)
    else:
        pre = ",".join(str(d) for d in w.pre)
        per = ",".join(str(d) for d in w.per)
    return f"{pre}({per})"


def alt_order(a: int, b: int, k: int) -> int:
    """Order of two words whose first difference is the digits a != b at
    1-based position k: odd positions compare directly, even ones reversed."""
    return (LESS if a < b else GREATER) if k % 2 == 1 else (GREATER if a < b else LESS)


def alt_lex_compare(v: EventuallyPeriodicWord, w: EventuallyPeriodicWord) -> int:
    """Total order on words: -1, 0 or 1.

    Two canonical words that agree on max(q1,q2) + lcm(p1,p2) leading digits
    are equal, so the comparison always terminates within that horizon.
    """
    if v.pre == w.pre and v.per == w.per:
        return EQUAL
    horizon = max(len(v.pre), len(w.pre)) + math.lcm(len(v.per), len(w.per))
    for k in range(1, horizon + 1):
        a, b = v.digit(k), w.digit(k)
        if a != b:
            return alt_order(a, b, k)
    return EQUAL


def alt_lex_compare_finite(a, b) -> int:
    """Alternating-lex comparison of two finite words of the same length."""
    a, b = _as_digits(a), _as_digits(b)
    if len(a) != len(b):
        raise ValueError("finite comparison needs equal lengths")
    for k, (x, y) in enumerate(zip(a, b), start=1):
        if x != y:
            return alt_order(x, y, k)
    return EQUAL


def tail_comparator(w: EventuallyPeriodicWord, n: int):
    """Comparator of tail start positions 1..n of one word.

    Two tails of the same word share its period, so they agree everywhere as
    soon as they agree on preperiod + period digits; one flat digit array
    covers every comparison, and no tail is built.
    """
    span = len(w.pre) + len(w.per) + 1
    digits = w.pre + w.per * (n // len(w.per) + 2)  # n + span - 1 digits or more

    def cmp(k1: int, k2: int) -> int:
        if k1 == k2:
            return EQUAL
        for i in range(span):
            a, b = digits[k1 - 1 + i], digits[k2 - 1 + i]
            if a != b:
                return alt_order(a, b, i + 1)
        return EQUAL

    return cmp


def sup_of_shifts(w: EventuallyPeriodicWord) -> EventuallyPeriodicWord:
    """Largest tail of w under the alternating lexicographical order.

    The supremum over all tails is attained at one of the first q+p tails,
    and the operation is idempotent.
    """
    n = len(w.pre) + len(w.per)
    cmp = tail_comparator(w, n)
    best = 1
    for k in range(2, n + 1):
        if cmp(k, best) == GREATER:
            best = k
    return w if best == 1 else w.tail(best)


def is_sup_fixed(w: EventuallyPeriodicWord) -> bool:
    """Is no tail of w greater than w itself?"""
    n = len(w.pre) + len(w.per)
    cmp = tail_comparator(w, n)
    return all(cmp(k, 1) != GREATER for k in range(2, n + 1))


def derived_word(v) -> Digits:
    """Companion period v': decrement-append when v ends in a nonzero digit,
    drop-increment when it ends in 0.

    The periodizations flip order with the parity of |v|: (v)^inf < (v')^inf
    exactly when |v| is even.
    """
    v = _as_digits(v)
    if not v or v == (0,):
        raise UndefinedDerivedWordError("derived word undefined for '0' and for the empty word")
    if v[-1] != 0:
        return v[:-1] + (v[-1] - 1, 0)
    return v[:-2] + (v[-2] + 1,)


PRIMITIVE = "primitive"
ALMOST_PRIMITIVE_SQUARE = "almost_primitive_square"
IMPRIMITIVE = "imprimitive"


def primitivity_class(v) -> str:
    """primitive / almost_primitive_square (square of an odd-length word) /
    imprimitive."""
    v = _as_digits(v)
    if not v:
        raise MalformedWordError("empty word has no primitivity class")
    root, power = primitive_root(v)
    if power == 1:
        return PRIMITIVE
    if power == 2 and len(root) % 2 == 1:
        return ALMOST_PRIMITIVE_SQUARE
    return IMPRIMITIVE


def is_almost_primitive(v) -> bool:
    return primitivity_class(_as_digits(v)) in (PRIMITIVE, ALMOST_PRIMITIVE_SQUARE)


# --- the substitution 0 -> 1, 1 -> 100 and its fixed point -----------------

_PHI = {0: (1,), 1: (1, 0, 0)}
_PHI_POWER_CAP = 10**7


def substitute(v: Digits) -> Digits:
    out: list[int] = []
    for d in v:
        out.extend(_PHI[d])
    return tuple(out)


def phi_power(k: int) -> Digits:
    """k-fold image of the single digit 0 under the substitution."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    v: Digits = (0,)
    for _ in range(k):
        if len(v) > _PHI_POWER_CAP:
            raise MalformedWordError("phi power exceeds the size cap")
        v = substitute(v)
    return v


class _UPrefix:
    """Growable prefix of the substitution fixed point u = 1 0 0 1 1 1 0 0 ..."""

    def __init__(self):
        self._digits: Digits = (1, 0, 0)

    def at_least(self, length: int) -> Digits:
        while len(self._digits) < length:
            self._digits = substitute(self._digits)
        return self._digits


_U = _UPrefix()


def u_prefix(length: int) -> Digits:
    """Prefix of the aperiodic fixed point u (u is invariant under the
    substitution, so prefixes are computed by iterating it)."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    return _U.at_least(length)[:length]


def compare_with_u(w: EventuallyPeriodicWord, hard_cap: int = 1 << 22) -> int:
    """Alternating-lex comparison of w against u.

    No eventually periodic word equals u, so a first difference exists; the
    u prefix is extended by doubling until it appears.
    """
    length = max(64, 2 * (len(w.pre) + len(w.per)))
    while True:
        u = u_prefix(length)
        for k in range(1, length + 1):
            a, b = w.digit(k), u[k - 1]
            if a != b:
                return alt_order(a, b, k)
        if length > hard_cap:
            raise InvariantError(f"{w} is indistinguishable from u within {hard_cap} digits")
        length *= 2


def in_vv_prime_star(w: EventuallyPeriodicWord, v) -> bool:
    """Is w an infinite concatenation of copies of v and v'?

    Decided through the two-sided inequality characterization:
    (v)^inf <= w <= v'(v)^inf when |v| is even, (v')^inf <= w <= v(v')^inf
    when |v| is odd.  Requires w to be fixed under sup_of_shifts.
    """
    if not is_sup_fixed(w):
        raise SupNotFixedError(f"{w} is not the sup of its shifts")
    v = _as_digits(v)
    vp = derived_word(v)
    if len(v) % 2 == 0:
        lo = canonicalize((), v)
        hi = canonicalize(vp, v)
    else:
        lo = canonicalize((), vp)
        hi = canonicalize(v, vp)
    return alt_lex_compare(lo, w) != GREATER and alt_lex_compare(w, hi) != GREATER


def periodization(v) -> EventuallyPeriodicWord:
    """The purely periodic word (v)^inf."""
    return canonicalize((), v)


def words_over(alphabet_size: int, pre_max: int, per_max: int):
    """All canonical words with digits < alphabet_size within the size bounds.

    Yields each underlying sequence exactly once, as its canonical pair: a
    primitive period, and a preperiod that does not end with the period's
    last digit.  Both are checked here, so the words skip the checks of
    ``__post_init__``.
    """
    digits = range(alphabet_size)
    for q in range(pre_max + 1):
        for p in range(1, per_max + 1):
            for pre in itertools.product(digits, repeat=q):
                for per in itertools.product(digits, repeat=p):
                    if (not pre or pre[-1] != per[-1]) and primitive_root(per)[1] == 1:
                        yield EventuallyPeriodicWord._trusted(pre, per)
