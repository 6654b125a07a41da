"""From an eventually periodic expansion of 1 back to a permutation whose
realization threshold is exactly that base.

The construction ranks the tails of the expansion, stretches the resulting
small permutation by inserting extra letters (the y counts of one insertion
rule, ``_insertion_counts``), and puts the leftover values at the front in
increasing order.  The printed case display of the insertion recursion has
overlapping guards and silent configurations; the rule settles both.  The
forward analysis of the one permutation built must map back to the input word
exactly, so correctness rests on the certified round trip, never on the rule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import words
from .dynamics import DEFAULT_PRECISION, PrecisionConfig, expansion_base
from .errors import ConstructionFailedError, DegenerateExpansionError, NegBetaError
from .permutations import Permutation, rank_positions, skeleton
from .words import EventuallyPeriodicWord


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


def _insertion_counts(w: EventuallyPeriodicWord, rho: Permutation) -> tuple[tuple[int, ...], bool]:
    """The insertion counts y (indexed by position) and whether the closing
    rank took the vacuous bonus.

    With ``q, p, digits = w.padded_form()`` and ``size = p + q``, the ranks
    go from ``size`` down to 2.  Rank ``rank`` sits at position j and rank
    ``rank - 1`` at position i; ``d = digits[j] - digits[i]``, ``ri1`` and
    ``rj1`` are the ranks at positions i + 1 and j + 1 (position size + 1
    reads as q + 1), and ``some_pos`` says that a count is positive among the
    ranks in ``(rank, rj1]``.  Then ``y_j = 0`` when ``d == 0``, or when
    ``d == 1`` and ``ri1 < rj1``; otherwise ``y_j = d + 1 - [ri1 < rank] -
    [some_pos]``.  At position p of a purely periodic word with even p,
    ``some_pos`` counts as true (the slot clause).  The closing rank, at
    position j1, gets ``digits[j1]`` plus a bonus: 0 at position p of such a
    word; else 1 when its range, the ranks 2..rho(j1 + 1), is nonempty and
    all zero; else, with an empty range, 1 exactly when ``j1 == size``, the
    preperiod is nonempty and ``digits[j1] >= 1`` (the vacuous bonus).

    This is the printed display with its silent configurations read as
    ``d + 1`` and its ``d == 2`` clause read as ``d - 1`` for every d >= 2.
    It gives the vector the former candidate search chose (the first whose
    round trip reproduced w, kept as ``tests/inverse_oracle.py``) on every
    expansion of ``words_over`` at (alphabet, preperiod, period, length)
    (4, 5, 6, 7), (5, 5, 6, 7), (3, 7, 8, 9), (6, 3, 4, 5), (7, 3, 3, 4) and
    (8, 2, 3, 4), and on the 260 sup-fixed non-expansions of the first, with
    no mismatch (``scripts/inverse_rule_evidence.py``).
    """
    q, p, digits = w.padded_form()
    size = p + q
    ext = rho.image + (rho.image[q],)
    at = rho.inverse()
    slot = p if not w.pre and p % 2 == 0 else None
    by_rank = [0] * (size + 1)
    for rank in range(size, 1, -1):
        j, i = at[rank - 1], at[rank - 2]
        d = digits[j - 1] - digits[i - 1]
        ri1, rj1 = ext[i], ext[j]
        if d == 0 or (d == 1 and ri1 < rj1):
            continue
        some_pos = j == slot or any(by_rank[rank + 1:rj1 + 1])
        by_rank[rank] = d + 1 - (ri1 < rank) - some_pos
    j1 = at[0]
    top = ext[j1]
    if j1 == slot:
        bonus = 0
    elif top >= 2:
        bonus = int(not any(by_rank[2:top + 1]))
    else:
        bonus = int(j1 == size and bool(w.pre) and digits[j1 - 1] >= 1)
    by_rank[1] = digits[j1 - 1] + bonus
    return tuple(by_rank[r] for r in rho.image), top < 2 and bonus == 1


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

    The insertion rule gives one vector, and the permutation assembled from
    it must map back to w exactly (``skeleton(pi).a == w``); the threshold
    base then agrees at the level of the defining polynomial automatically.
    Otherwise ``ConstructionFailedError`` carries that permutation.

    With check_expansion, ``dynamics.expansion_base`` decides w at the given
    precision first and returns b(w).  The result carries the skeleton of its
    round trip and that base (None without the check) as ``_round_trip``, so
    ``analysis.analyze`` of it isolates no root again."""
    b = None
    if check_expansion and (b := expansion_base(w, precision)) is None:
        raise NegBetaError(f"{w} is not the expansion of 1 in its own base")
    q, p, _ = w.padded_form()
    rho = rho_of(w)
    y, vacuous = _insertion_counts(w, rho)
    pi = _assemble(rho, y)
    sk = skeleton(pi)
    if sk.a != w:
        raise ConstructionFailedError(
            f"round trip failed for {w}: {pi} has threshold word {sk.a}", candidates=(pi,))
    # an equal copy carries the round trip, so that the skeleton, which holds
    # pi, leaves no reference cycle through the result
    result = Permutation(pi.image)
    object.__setattr__(result, "_round_trip", (sk, b))
    return InverseState(w=w, q=q, p=p, rho=rho, y=y, c=sum(y), result=result,
                        vacuous_bonus=vacuous)


def construct_pi(w: EventuallyPeriodicWord) -> Permutation:
    """The permutation attaining the base of w as its threshold."""
    return construct_state(w).result
