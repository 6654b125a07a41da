"""The exact orbit walk that decided expansions of 1, an oracle for the tests.

This is how ``dynamics.expansion_base`` decided whether a word is the
expansion of 1 in its own base before its interval certificate: iterate the
transformation at b(w) in exact arithmetic (``_AlgebraicArith``) for
preperiod plus period steps, require every digit to match and the orbit to
close up exactly.  Only ``b_of`` and the orbit arithmetic are shared.
"""

from __future__ import annotations

import copy
import itertools

from negbeta import dynamics
from negbeta.dynamics import DEFAULT_PRECISION, BetaValue, PrecisionConfig
from negbeta.errors import NegBetaError
from negbeta.words import EventuallyPeriodicWord


def walk_expansion_base(w: EventuallyPeriodicWord, precision: PrecisionConfig = DEFAULT_PRECISION):
    """b(w) when the exact walk at b(w) reproduces w, else None; raises
    what ``b_of`` raises, and NegBetaError at base 1."""
    b = dynamics.b_of(w)
    if b == 1:
        raise NegBetaError(f"{w} lies below the substitution fixed point; its base is 1")
    arith = dynamics._arith_for(BetaValue.of(b), precision)
    q, p = w.preperiod_length, w.period_length
    pts = [arith.one()]
    for k, (d, nxt) in enumerate(itertools.islice(dynamics._walk(arith, pts[0]), q + p), start=1):
        if d != w.digit(k):
            return None
        pts.append(nxt)
    return b if arith.equal(pts[q + p], pts[q]) else None


def outcomes(w: EventuallyPeriodicWord, *deciders) -> list:
    """What each decider decides on w: (is w an expansion of 1, the base's
    interval right after the call, its floor, its decimal(12)), or the name
    of the error raised.  Each decider gets its own copy of one unrefined
    b_of(w); refine rebinds the interval, so the copies refine apart."""
    real = dynamics.b_of
    try:
        base = real(w)
    except NegBetaError as err:
        return [type(err).__name__] * len(deciders)
    found = []
    for decider in deciders:
        b = copy.copy(base)
        dynamics.b_of = lambda word: b
        try:
            got = decider(w)
        except NegBetaError as err:
            found.append(type(err).__name__)
            continue
        finally:
            dynamics.b_of = real
        interval = b.interval
        found.append((got is not None, interval, b.floor(), b.decimal(12)))
    return found
