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

from . import words
from .errors import (
    MalformedPermutationError,
    UndefinedLandmarksError,
    VariantUndefinedError,
)
from .words import EventuallyPeriodicWord, canonicalize


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

    def slice_from(self, start: int) -> tuple[int, ...]:
        """Digits z_start .. z_{n-1} (1-based start)."""
        return self.digits[start - 1:]


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


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def all_permutations(n: int):
    """S_n in lexicographic order."""
    for image in itertools.permutations(range(1, n + 1)):
        yield Permutation(image)


def circular(pi: Permutation) -> Permutation:
    """Companion sending pi(j) to pi(j+1) cyclically (pi(n) to pi(1)).

    >>> str(circular(parse_permutation("3421")))
    '3142'
    """
    return Permutation(_circular_image(pi))


def _circular_image(pi: Permutation) -> tuple[int, ...]:
    img = [0] * pi.n
    for v, w in zip(pi.image, pi.image[1:] + pi.image[:1]):
        img[v - 1] = w
    return tuple(img)


def landmarks(pi: Permutation) -> Landmarks:
    """m = position of n; ell/r = positions of pi(n)-1 / pi(n)+1 when defined."""
    if pi.n < 2:
        raise UndefinedLandmarksError("landmarks need n >= 2")
    inv = pi.inverse()
    last = pi(pi.n)
    m = inv[pi.n - 1]
    ell = inv[last - 2] if last != 1 else None
    r = inv[last] if last != pi.n else None
    return Landmarks(m=m, ell=ell, r=r)


def _marked_values(pi: Permutation) -> list[bool]:
    """marked[i] for values i in 1..n-1 (index i-1): does the count rule fire?

    Equivalent to counting ascents of the circular companion written as a
    word with the entry at value pi(n) deleted.
    """
    n = pi.n
    tilde = _circular_image(pi)
    last = pi(n)
    marked = [False] * (n - 1)
    for i in range(1, n):
        if i != last and i + 1 != last:
            marked[i - 1] = tilde[i - 1] < tilde[i]
        elif i + 1 == last and last != n:
            marked[i - 1] = tilde[i - 1] < tilde[i + 1]
    return marked


def _z_direct(pi: Permutation) -> tuple[int, ...]:
    # Definition written with pi itself instead of the circular companion;
    # kept as a cross-check of the trickiest definition in the package.
    n = pi.n
    inv = pi.inverse()
    last = pi(n)
    lm = landmarks(pi)
    out = []
    for j in range(1, n):
        count = 0
        for i in range(1, pi(j)):
            if i != last and i + 1 != last:
                if pi(inv[i - 1] + 1) < pi(inv[i] + 1):
                    count += 1
            elif i + 1 == last and last != n:
                if pi(lm.ell + 1) < pi(lm.r + 1):
                    count += 1
        out.append(count)
    return tuple(out)


def z_digits(pi: Permutation) -> DigitVector:
    """The base digit vector z_1 .. z_{n-1}.

    >>> str(z_digits(parse_permutation("892364157")))
    '33012102'
    """
    if pi.n < 2:
        raise UndefinedLandmarksError("z digits need n >= 2")
    marked = _marked_values(pi)
    prefix = [0]
    for flag in marked:
        prefix.append(prefix[-1] + (1 if flag else 0))
    digits = tuple(prefix[pi(j) - 1] for j in range(1, pi.n))
    assert digits == _z_direct(pi), "circular-form and direct-form digits disagree"
    return DigitVector(digits)


def max_z(pi: Permutation) -> int:
    return sum(1 for f in _marked_values(pi) if f)


def is_collapsed(pi: Permutation) -> bool:
    """pi(n) interior and the two landmark suffixes of z share a periodization
    (one suffix is the square of the other)."""
    if pi.n < 2:
        return False
    lm = landmarks(pi)
    return lm.ell is not None and lm.r is not None and _collapsed(lm, z_digits(pi).digits)


def _collapsed(lm: Landmarks, z: tuple[int, ...]) -> bool:
    if lm.ell is None or lm.r is None:
        return False
    zl = z[lm.ell - 1:]
    zr = z[lm.r - 1:]
    return zl == zr + zr or zr == zl + zl


def z_variants(pi: Permutation) -> list[DigitVector]:
    """The collapsed variants z^(0) .. z^(|r-ell|-1).

    Variant i raises z_j by one when pi(j) clears the threshold pi(r+i)
    (even i) or pi(ell+i) (odd i).
    """
    if not is_collapsed(pi):
        raise VariantUndefinedError(f"{pi} is not collapsed")
    return _variants(pi, landmarks(pi), z_digits(pi).digits)


def _variants(pi: Permutation, lm: Landmarks, z: tuple[int, ...]) -> list[DigitVector]:
    out = []
    for i in range(abs(lm.r - lm.ell)):
        threshold = pi(lm.r + i) if i % 2 == 0 else pi(lm.ell + i)
        digits = tuple(d + 1 if pi(j) >= threshold else d for j, d in enumerate(z, start=1))
        out.append(DigitVector(digits, variant_index=i))
    return out


def a_sequence(pi: Permutation) -> EventuallyPeriodicWord:
    """The threshold word: its base b(a) is the infimum of bases whose
    negative-base shift realizes pi.

    Five cases split on the parity of n-m, on pi(n) = 1, and on collapse; the
    collapsed cases minimize over the variant digit vectors in alternating
    lexicographical order.

    >>> str(a_sequence(parse_permutation("3421")))
    '(100)'
    >>> str(a_sequence(parse_permutation("7325416")))
    '211(210)'
    """
    if pi.n < 2:
        raise UndefinedLandmarksError("the threshold word needs n >= 2")
    lm = landmarks(pi)
    n, m = pi.n, lm.m
    z = z_digits(pi)
    collapsed = _collapsed(lm, z.digits)

    def assemble(vec: DigitVector, tail_start: int) -> EventuallyPeriodicWord:
        return canonicalize(vec.digits[m - 1:], vec.digits[tail_start - 1:])

    if (n - m) % 2 == 0:
        if pi(n) == 1:
            a = canonicalize((), z.digits[m - 1:] + (0,))
        elif not collapsed:
            a = assemble(z, lm.ell)
        else:
            a = min((assemble(v, lm.ell) for v in _variants(pi, lm, z.digits)))
    else:
        if not collapsed:
            a = assemble(z, lm.r)
        else:
            a = min((assemble(v, lm.r) for v in _variants(pi, lm, z.digits)))
    assert words.sup_of_shifts(a) == a, "threshold word must be fixed under sup of shifts"
    return a
