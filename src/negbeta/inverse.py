"""From an eventually periodic expansion of 1 back to a permutation whose
realization threshold is exactly that base.

The construction ranks the tails of the expansion, stretches the resulting
small permutation by inserting extra letters (the y counts below), and puts
the leftover values at the front in increasing order.  The insertion recursion
is given by a case display whose guards overlap and leave one configuration
uncovered; the constructor therefore branches the doubtful clauses in a fixed
order and keeps the first candidate whose forward analysis maps back to the
input word exactly, so correctness rests on the certified round trip and
never on a guessed reading.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import words
from .dynamics import DEFAULT_PRECISION, PrecisionConfig, expansion_base
from .errors import ConstructionFailedError, DegenerateExpansionError, NegBetaError
from .permutations import Permutation, rank_positions, skeleton
from .words import EventuallyPeriodicWord

CANDIDATE_CAP = 50000


@dataclass(frozen=True)
class InverseState:
    """Intermediate data of the construction for one expansion word."""

    w: EventuallyPeriodicWord
    q: int
    p: int
    rho: Permutation
    y: tuple[int, ...]
    c: int
    result: Permutation
    vacuous_bonus: bool

    def to_json(self) -> dict:
        return {
            "w": str(self.w),
            "q": self.q,
            "p": self.p,
            "rho": str(self.rho),
            "y": list(self.y),
            "c": self.c,
            "pi": str(self.result),
            "vacuous_bonus": self.vacuous_bonus,
        }


def rho_of(w: EventuallyPeriodicWord) -> Permutation:
    """Tail-ranking permutation on p+q symbols (q >= 1 normalization).

    The first p+q-1 entries rank the tails of w; the last entry slots in
    directly below (even p+q) or above (odd p+q) the rank at position q.
    """
    q, p, _ = w.padded_form()
    size = p + q
    sigma, tie = rank_positions(range(1, size), words.tail_comparator(w, size - 1))
    if tie:
        raise DegenerateExpansionError(f"tails {tie[0]} and {tie[1]} of {w} coincide")
    sq = sigma[q - 1]
    if size % 2 == 0:
        image = [s + 1 if s >= sq else s for s in sigma] + [sq]
    else:
        image = [s + 1 if s > sq else s for s in sigma] + [sq + 1]
    return Permutation(tuple(image))


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
    guard configuration; ``construct_state(w).y`` is the certified vector."""
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


def _assemble(rho: Permutation, y: tuple[int, ...]) -> Permutation:
    """Position c + j gets rho(j) plus y summed over the ranks up to rho(j);
    the c = sum(y) values left over come first, increasing."""
    by_rank = [0] * (rho.n + 1)
    for r, v in zip(rho.image, y):
        by_rank[r] = v
    up_to = list(itertools.accumulate(by_rank))
    tail = [r + up_to[r] for r in rho.image]
    used = set(tail)
    head = [v for v in range(1, up_to[-1] + rho.n + 1) if v not in used]
    return Permutation(tuple(head + tail))


def construct_state(w: EventuallyPeriodicWord, check_expansion: bool = True,
                    precision: PrecisionConfig = DEFAULT_PRECISION) -> InverseState:
    """Full inverse construction with the certified round trip.

    Candidate insertion vectors are tried in a fixed order and the first one
    whose forward analysis reproduces w exactly wins; the threshold base then
    agrees at the level of the defining polynomial automatically.

    With check_expansion, ``dynamics.expansion_base`` decides w at the given
    precision before the search and returns b(w).  The result carries the
    skeleton of its round trip and that base (None without the check) as
    ``_round_trip``, so ``analysis.analyze`` of it isolates no root again."""
    b = None
    if check_expansion and (b := expansion_base(w, precision)) is None:
        raise NegBetaError(f"{w} is not the expansion of 1 in its own base")
    q, p, _ = w.padded_form()
    rho = rho_of(w)
    first_candidates = []
    for count, (y, vacuous, _) in enumerate(_y_vector_candidates(w, rho)):
        if count >= CANDIDATE_CAP:
            break
        pi = _assemble(rho, y)
        if count < 2:
            first_candidates.append(pi)
        sk = skeleton(pi)
        if sk.a == w:
            # an equal copy carries the round trip, so that the skeleton,
            # which holds pi, leaves no reference cycle through the result
            result = Permutation(pi.image)
            object.__setattr__(result, "_round_trip", (sk, b))
            return InverseState(w=w, q=q, p=p, rho=rho, y=y, c=sum(y),
                                result=result, vacuous_bonus=vacuous)
    raise ConstructionFailedError(
        f"round trip failed for {w} under every candidate insertion vector",
        candidates=tuple(first_candidates),
    )


def construct_pi(w: EventuallyPeriodicWord) -> Permutation:
    """The permutation attaining the base of w as its threshold."""
    return construct_state(w).result
