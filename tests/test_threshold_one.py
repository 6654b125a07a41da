"""The threshold 1 is an exact algebraic number like every other threshold.

The digests pin the reports over small S_n, so the way the threshold 1 is
represented cannot change what any report says.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from negbeta.algebraic import AlgebraicNumber
from negbeta.analysis import _b1_fast, _beta_plus, analyze, sandwich_check
from negbeta.dynamics import BetaValue
from negbeta.errors import NegBetaError
from negbeta.permutations import all_permutations


def _digest(items) -> str:
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()


def _sandwich_json(pi) -> dict:
    try:
        return sandwich_check(pi).to_json()
    except NegBetaError as err:
        return {"pi": str(pi), "error": str(err)}


def test_reports_over_small_permutations_are_pinned():
    reports = [analyze(pi).to_json() for n in range(2, 7) for pi in all_permutations(n)]
    assert _digest(reports) == "8c6e7464ef9694bf58938cb0d8fc6f2c5c4907724e218c76ff47cb93b4b10e75"
    sandwiches = [_sandwich_json(pi) for n in (4, 5) for pi in all_permutations(n)]
    assert _digest(sandwiches) == "926595fe8ea2118b1d41b1d033718fb1c95f943ac043c65264e5c36a958156df"


@pytest.mark.parametrize("margin", [Fraction(1, 20), Fraction(1, 10**6)])
def test_threshold_one_is_an_exact_algebraic_number(margin):
    ones = [pi for n in range(2, 8) for pi in all_permutations(n) if _b1_fast(pi.image)]
    assert len(ones) == 2 + 5 + 12 + 19 + 34 + 51
    for pi in ones:
        b = analyze(pi).b_minus
        assert isinstance(b, AlgebraicNumber) and b.exact == 1
        with pytest.raises(NegBetaError):
            BetaValue.of(b)
        assert _beta_plus(b, margin).rational == 1 + margin
