"""The candidate search of the inverse construction, an oracle for the tests.

This is how negbeta chose the insertion counts before its one insertion rule
(``inverse._insertion_counts``), kept apart from the code it checks.  The
search reads the printed case display top to bottom (``_display_value``),
branches every rank over the other counts within d + 2, and keeps the first
vector whose assembled permutation maps back to the word under the forward
analysis.  Only ``rho_of``, ``_assemble`` and ``skeleton`` are shared.
"""

from __future__ import annotations

import itertools

from negbeta.errors import NegBetaError
from negbeta.inverse import _assemble, rho_of
from negbeta.permutations import Permutation, skeleton
from negbeta.words import EventuallyPeriodicWord

CANDIDATE_CAP = 50000


def _display_value(d: int, rank: int, ri1: int, rj1: int, some_pos: bool) -> int | None:
    """The insertion count according to the printed case display, read top to
    bottom; None on the uncovered configuration."""
    if d == 0:
        return 0
    if d == 1:
        if ri1 < rj1:
            return 0
        if ri1 < rank or some_pos:
            return 1
        if ri1 > rank and not some_pos:
            return 2
        return None
    if d == 2 and ri1 < rank and some_pos:
        return 1
    if ri1 < rank or some_pos:
        return d
    if ri1 > rank and some_pos:
        return d + 1
    if d >= 3 and ri1 < rank and not some_pos:
        return d - 1
    return None


def y_digits(w: EventuallyPeriodicWord, rho: Permutation,
             vacuous_bonus: bool = False) -> tuple[int, ...]:
    """Insertion counts, assigned downward from the top rank: the literal
    display reading, the first vector of the candidate search (its second when
    vacuous_bonus applies to an empty closing range).  Raises on the uncovered
    guard configuration."""
    (y, _, silent), (flipped, vacuous, _) = itertools.islice(_y_vector_candidates(w, rho), 2)
    if silent is not None:
        raise NegBetaError(f"no insertion rule matches at rank {silent} for {w} (rho={rho})")
    return flipped if vacuous_bonus and vacuous else y


def _y_vector_candidates(w: EventuallyPeriodicWord, rho: Permutation):
    """All insertion vectors in deterministic plausibility order, as triples
    (y, vacuous, silent).

    Each rank tries the printed reading first, then the other counts within
    d + 2; where the display is silent (difference at least two, successor
    rank above, no positive count in range) it starts at d + 1, the value
    the certified round trips select in practice, and silent names the top
    such rank of the vector.  The closing rank tries the display bonus, then
    its flip; with an empty range it tries no bonus, then the vacuous one."""
    q, p, digits = w.padded_form()
    size = p + q
    img, inv = rho.image, rho.inverse()

    def rho_ext(k: int) -> int:
        return img[k - 1] if k <= size else img[q]

    order = [inv[rank - 1] for rank in range(size, 1, -1)]
    j1 = inv[0]
    y: dict[int, int] = {}

    def rec(idx: int, silent: int | None):
        if idx == len(order):
            top = rho_ext(j1 + 1)
            in_range = [y[k] for k in range(1, size + 1) if 1 < img[k - 1] <= top]
            display = 1 if in_range and all(v == 0 for v in in_range) else 0
            for bonus in (display, 1 - display):
                y[j1] = digits[j1 - 1] + bonus
                yield tuple(y[k] for k in range(1, size + 1)), not in_range and bonus == 1, silent
            del y[j1]
            return
        j = order[idx]
        rank = img[j - 1]
        i = inv[rank - 2]
        d = digits[j - 1] - digits[i - 1]
        ri1, rj1 = rho_ext(i + 1), rho_ext(j + 1)
        some_pos = any(v >= 1 for k, v in y.items() if rank < img[k - 1] <= rj1)
        first = _display_value(d, rank, ri1, rj1, some_pos)
        if first is None:
            first, silent = d + 1, silent or rank
        for cand in dict.fromkeys((first, d, d + 1, d - 1, d + 2, 0, 1, 2)):
            if 0 <= cand <= d + 2:
                y[j] = cand
                yield from rec(idx + 1, silent)
        del y[j]

    yield from rec(0, None)


def search(w):
    """The first candidate, in search order, whose round trip reproduces w:
    (y, vacuous, pi, index), or None when the first CANDIDATE_CAP fail."""
    rho = rho_of(w)
    candidates = itertools.islice(_y_vector_candidates(w, rho), CANDIDATE_CAP)
    for index, (y, vacuous, _) in enumerate(candidates):
        pi = _assemble(rho, y)
        if skeleton(pi).a == w:
            return y, vacuous, pi, index
    return None
