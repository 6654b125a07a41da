"""Finite permutations, their circular companions, and the digit skeleton
that governs which negative-base shifts realize them as ordinal patterns.

Permutations use one-line notation over {1..n}.  The central object is the
digit vector z_1 .. z_{n-1}: z_j counts marked values below pi(j), where a
value i is marked when the circular companion ascends at i (skipping over the
value pi(n), whose successor is rewired to pi(1)).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, cmp_to_key

from .errors import (
    MalformedPermutationError,
    UndefinedLandmarksError,
    VariantUndefinedError,
)
from .words import EventuallyPeriodicWord, _canonical


@dataclass(frozen=True)
class Permutation:
    """One-line notation pi(1) .. pi(n); image is a bijection of {1..n}."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if n == 0 or sorted(self.image) != list(range(1, n + 1)):
            raise MalformedPermutationError(f"not a permutation of 1..{n}: {self.image}")

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, j: int) -> int:
        return self.image[j - 1]

    def inverse(self) -> tuple[int, ...]:
        inv = [0] * self.n
        for j, v in enumerate(self.image, start=1):
            inv[v - 1] = j
        return tuple(inv)

    def __str__(self):
        if self.n <= 9:
            return "".join(str(v) for v in self.image)
        return ",".join(str(v) for v in self.image)

    def __repr__(self):
        return f"Permutation({str(self)!r})"


@dataclass(frozen=True)
class Landmarks:
    """Positions of n, pi(n)-1 and pi(n)+1 in one-line notation.

    ell is absent exactly when pi(n) = 1, r exactly when pi(n) = n.
    """

    m: int
    ell: int | None
    r: int | None


@dataclass(frozen=True)
class DigitVector:
    """The digits z_1 .. z_{n-1}, or one of the collapsed variants."""

    digits: tuple[int, ...]
    variant_index: int | None = None

    def __str__(self):
        if all(d <= 9 for d in self.digits):
            return "".join(str(d) for d in self.digits)
        return ",".join(str(d) for d in self.digits)


def rank_positions(positions: range, cmp) -> tuple[tuple[int, ...] | None, tuple[int, int] | None]:
    """The rank under cmp of each position, in the order of positions, or
    the least pair of positions that cmp finds equal, as (ranks, None) or
    (None, pair).  The sort is stable, so equal positions sort next to each
    other in increasing order, and the least tied neighbours are that pair."""
    order = sorted(positions, key=cmp_to_key(cmp))
    ties = [(a, b) for a, b in zip(order, order[1:]) if cmp(a, b) == 0]
    if ties:
        return None, min(ties)
    ranks = [0] * len(positions)
    for rank, pos in enumerate(order, start=1):
        ranks[pos - positions.start] = rank
    return tuple(ranks), None


def perm(spec) -> Permutation:
    """Coerce a string / iterable of values into a Permutation."""
    if isinstance(spec, Permutation):
        return spec
    if isinstance(spec, str):
        return parse_permutation(spec)
    return Permutation(tuple(int(v) for v in spec))


def parse_permutation(text: str) -> Permutation:
    """Parse "3421" (single digits, n <= 9) or "10,9,8,...,1" (any n).

    >>> parse_permutation("3421").image
    (3, 4, 2, 1)
    >>> parse_permutation("1").n
    1
    """
    text = text.strip()
    if not text:
        raise MalformedPermutationError("empty permutation")
    try:
        if "," in text:
            image = tuple(int(tok) for tok in text.split(","))
        else:
            image = tuple(int(c) for c in text)
    except ValueError as exc:
        raise MalformedPermutationError(f"cannot parse permutation {text!r}") from exc
    return Permutation(image)


def all_permutations(n: int):
    """S_n in lexicographic order."""
    for image in itertools.permutations(range(1, n + 1)):
        yield Permutation(image)


def one_turn_images(n: int, last: int, few: bool):
    """The one-line images of length n ending in ``last`` whose companion
    sequence s = (succ(i) : i != last) turns at most once: at an ascent when
    ``few`` (mark count at most 1), at a descent otherwise (mark count at
    least n - 3).  Grouped by pi(1), without repeats.

    pi is fixed by pi(n), pi(1) = succ(pi(n)) and s.  For each pi(1), s is
    chosen along i = 1..n (skipping last) as one monotone run, then turns
    once and takes the values left in forced order; an s whose succ closes a
    cycle shorter than n is dropped at the value where it closes.
    """
    positions = [i for i in range(1, n + 1) if i != last]
    final = n - 2
    succ = [0] * (n + 1)
    # start[t] is the first value of the succ chain ending at t and end[h]
    # the last value of the chain starting at h, kept current at chain ends
    start = list(range(n + 1))
    end = list(range(n + 1))

    def image():
        values = [succ[last]]
        for _ in range(n - 1):
            values.append(succ[values[-1]])
        return tuple(values)

    def extend(t: int, prev: int, rest: list[int]):
        if t > final:
            yield image()
            return
        if rest[-1] > prev if few else rest[0] < prev:
            # the turn: the values left, in the order of the second run
            undo = []
            for k, v in enumerate(reversed(rest) if few else rest, start=t):
                i = positions[k]
                a = start[i]
                if a == v and k < final:
                    break  # closes a cycle that misses the values still open
                b = end[v]
                succ[i] = v
                end[a], start[b] = b, a
                undo.append((i, v, a, b))
            else:
                yield image()
            for i, v, a, b in reversed(undo):
                end[a], start[b] = i, v
        i = positions[t]
        a = start[i]
        for v in rest:
            if (v < prev if few else v > prev) and (a != v or t == final):
                b = end[v]
                succ[i] = v
                end[a], start[b] = b, a
                yield from extend(t + 1, v, [x for x in rest if x != v])
                end[a], start[b] = i, v

    for first in positions:
        succ[last] = first
        end[last], start[first] = first, last
        yield from extend(0, n + 1 if few else 0, [v for v in range(1, n + 1) if v != first])
        end[last], start[first] = last, first


def circular(pi: Permutation) -> Permutation:
    """Companion sending pi(j) to pi(j+1) cyclically (pi(n) to pi(1)).

    >>> str(circular(parse_permutation("3421")))
    '3142'
    """
    img = [0] * pi.n
    for v, w in zip(pi.image, pi.image[1:] + pi.image[:1]):
        img[v - 1] = w
    return Permutation(tuple(img))


def _scan(image: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """One pass over a one-line image for its inverse (inv[v] is the
    position of v, index 0 unused) and circular companion (succ), then one
    over values for the mark counts (marks[k] counts marked values in 1..k).

    Value i is marked when the circular companion ascends at i, read with the
    entry at value pi(n) deleted: pi(n) itself is never marked, and pi(n)-1
    compares with pi(n)+1 when that exists.
    """
    n = len(image)
    inv = [0] * (n + 1)
    succ = [0] * (n + 1)
    last = prev = image[-1]
    for j, v in enumerate(image, start=1):
        inv[v] = j
        succ[prev] = v
        prev = v
    marks = [0] * n
    count = 0
    for i in range(1, n):
        if i != last:
            k = i + 2 if i + 1 == last else i + 1
            if k <= n:
                count += succ[i] < succ[k]
        marks[i] = count
    return inv, marks


@dataclass(frozen=True)
class Skeleton:
    """The digit skeleton of pi, built once by ``skeleton``: landmarks, the
    digits z, the mark count max z, the collapse test and the collapsed
    variants.  The threshold word, epsilon and the minimal alphabet size are
    read from it, each computed at most once."""

    pi: Permutation
    landmarks: Landmarks
    z: DigitVector
    marks: int
    collapsed: bool
    variants: tuple[DigitVector, ...]

    @cached_property
    def a(self) -> EventuallyPeriodicWord:
        """The threshold word.  Five cases split on the parity of n-m, on
        pi(n) = 1, and on collapse; the collapsed cases minimize over the
        variant digit vectors in alternating lexicographical order."""
        n, lm = self.pi.n, self.landmarks
        m = lm.m
        even = (n - m) % 2 == 0
        if even and self.pi(n) == 1:
            return _canonical((), self.z.digits[m - 1:] + (0,))
        tail = lm.ell if even else lm.r
        vectors = self.variants if self.collapsed else (self.z,)
        return min(_canonical(v.digits[m - 1:], v.digits[tail - 1:]) for v in vectors)

    @cached_property
    def epsilon(self) -> int:
        """1 when pi is collapsed or the threshold word is the periodization
        of (max z, 0), else 0."""
        if self.collapsed:
            return 1
        return 1 if self.a == _canonical((), (self.marks, 0)) else 0

    @property
    def n_minus(self) -> int:
        """Minimal number of distinct values of a realizing sequence."""
        return self.marks + 1 + self.epsilon


def skeleton(pi: Permutation) -> Skeleton:
    """The digit skeleton of pi (n >= 2).

    z_j counts the marked values below pi(j).  pi is collapsed when pi(n) is
    interior and the two landmark suffixes of z share a periodization (one
    suffix is the square of the other); variant i of z^(0) .. z^(|r-ell|-1)
    then raises z_j by one when pi(j) clears the threshold pi(r+i) (even i)
    or pi(ell+i) (odd i).
    """
    n = pi.n
    if n < 2:
        raise UndefinedLandmarksError("landmarks need n >= 2")
    image = pi.image
    inv, marks = _scan(image)
    last = image[-1]
    lm = Landmarks(m=inv[n], ell=inv[last - 1] if last != 1 else None,
                   r=inv[last + 1] if last != n else None)
    z = tuple(marks[v - 1] for v in image[:-1])
    collapsed = False
    variants: tuple[DigitVector, ...] = ()
    if lm.ell is not None and lm.r is not None:
        zl, zr = z[lm.ell - 1:], z[lm.r - 1:]
        collapsed = zl == zr + zr or zr == zl + zl
    if collapsed:
        thresholds = [image[lm.r + i - 1] if i % 2 == 0 else image[lm.ell + i - 1]
                      for i in range(abs(lm.r - lm.ell))]
        variants = tuple(
            DigitVector(tuple(d + 1 if v >= t else d for v, d in zip(image, z)), i)
            for i, t in enumerate(thresholds))
    return Skeleton(pi=pi, landmarks=lm, z=DigitVector(z), marks=marks[n - 1],
                    collapsed=collapsed, variants=variants)


def landmarks(pi: Permutation) -> Landmarks:
    """m = position of n; ell/r = positions of pi(n)-1 / pi(n)+1 when defined."""
    return skeleton(pi).landmarks


def z_digits(pi: Permutation) -> DigitVector:
    """The base digit vector z_1 .. z_{n-1}.

    >>> str(z_digits(parse_permutation("892364157")))
    '33012102'
    """
    return skeleton(pi).z


def max_z(pi: Permutation) -> int:
    return mark_count(pi.image)


def mark_count(image: tuple[int, ...]) -> int:
    """max z read from a one-line image, without validating it or building
    the skeleton."""
    return _scan(image)[1][-1]


def is_collapsed(pi: Permutation) -> bool:
    """pi(n) interior and the two landmark suffixes of z share a periodization
    (one suffix is the square of the other)."""
    return pi.n >= 2 and skeleton(pi).collapsed


def z_variants(pi: Permutation) -> list[DigitVector]:
    """The collapsed variants z^(0) .. z^(|r-ell|-1)."""
    if pi.n < 2 or not (sk := skeleton(pi)).collapsed:
        raise VariantUndefinedError(f"{pi} is not collapsed")
    return list(sk.variants)


def a_sequence(pi: Permutation) -> EventuallyPeriodicWord:
    """The threshold word: its base b(a) is the infimum of bases whose
    negative-base shift realizes pi.

    >>> str(a_sequence(parse_permutation("3421")))
    '(100)'
    >>> str(a_sequence(parse_permutation("7325416")))
    '211(210)'
    """
    return skeleton(pi).a
