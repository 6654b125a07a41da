"""The bookkeeping around each threshold base against the readings it replaced.

The oracles below are the earlier implementations: tails canonicalized one
by one and compared as words, the characteristic polynomial as a difference
of two evaluation polynomials, the squarefree part by an integer gcd every
time, and the gcd by the sign-preserving remainder of the Sturm oracle.
"""

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import sturm_oracle
from coeffs import _mul
from negbeta import algebraic, words
from negbeta.algebraic import (
    IntPolynomial,
    _deriv,
    _exact_div,
    _poly_gcd,
    _primitive,
    _squarefree_part,
    b_of,
    char_polynomial,
    p_polynomial,
)
from negbeta.errors import DegenerateExpansionError
from negbeta.inverse import rho_of
from negbeta.permutations import Permutation, a_sequence, all_permutations
from negbeta.words import (
    EventuallyPeriodicWord,
    alt_lex_compare,
    canonicalize,
    compare_with_u,
    is_sup_fixed,
    sup_of_shifts,
)

MODULUS = algebraic._MODULUS


# --- oracles -------------------------------------------------------------------

def sup_of_shifts_by_tails(w):
    best = w
    for k in range(2, len(w.pre) + len(w.per) + 1):
        t = w.tail(k)
        if alt_lex_compare(t, best) > 0:
            best = t
    return best


def char_polynomial_by_p_polynomials(w):
    q, p = w.preperiod_length, w.period_length
    head = p_polynomial(w.prefix(p + q)).coefficients
    tail = (1,) if q == 0 else p_polynomial(w.prefix(q)).coefficients
    diff = [h - t for h, t in itertools.zip_longest(head, tail, fillvalue=0)]
    return IntPolynomial(tuple(diff)).sign_normalized()


def poly_gcd_by_sturm_remainders(a, b):
    f, g = _primitive(a), _primitive(b)
    while g:
        f, g = g, sturm_oracle._rem_sign_preserving(f, g)
    return f if f[-1] > 0 else tuple(-c for c in f)


def squarefree_part_by_gcd(a):
    d = _deriv(a)
    if not d:
        out = _primitive(a)
    else:
        g = _poly_gcd(a, d)
        out = _primitive(a) if len(g) == 1 else _exact_div(a, g)
    return out if out[-1] > 0 else tuple(-c for c in out)


def rho_of_by_tails(w):
    q, p, _ = w.padded_form()
    size = p + q
    tails = [w.tail(i) for i in range(1, size)]
    for i in range(len(tails)):
        for j in range(i + 1, len(tails)):
            if alt_lex_compare(tails[i], tails[j]) == 0:
                raise DegenerateExpansionError(f"tails {i + 1} and {j + 1} of {w} coincide")
    order = sorted(range(size - 1), key=functools.cmp_to_key(
        lambda a, b: alt_lex_compare(tails[a], tails[b])))
    sigma = [0] * (size - 1)
    for rank, idx in enumerate(order, start=1):
        sigma[idx] = rank
    sq = sigma[q - 1]
    if size % 2 == 0:
        image = [s + 1 if s >= sq else s for s in sigma] + [sq]
    else:
        image = [s + 1 if s > sq else s for s in sigma] + [sq + 1]
    return Permutation(tuple(image))


def rho_or_error(rho, w):
    try:
        return str(rho(w))
    except DegenerateExpansionError as exc:
        return f"degenerate: {exc}"


def raw_word(pre, per):
    """A word stored as given, canonical or not, so equal tails can occur."""
    w = object.__new__(EventuallyPeriodicWord)
    object.__setattr__(w, "pre", tuple(pre))
    object.__setattr__(w, "per", tuple(per))
    return w


# --- strategies -----------------------------------------------------------------

digit_lists = st.lists(st.integers(0, 3), max_size=5)
canonical_words = st.builds(canonicalize, digit_lists, digit_lists.filter(bool))
words_and_sups = st.one_of(canonical_words, canonical_words.map(sup_of_shifts_by_tails))
small_polys = st.lists(st.integers(-4, 4), min_size=2, max_size=4).filter(lambda c: c[-1] != 0)


@pytest.fixture(scope="module")
def threshold_words():
    """The distinct threshold words of S_2 .. S_7."""
    seen = {}
    for n in range(2, 8):
        for pi in all_permutations(n):
            a = a_sequence(pi)
            seen[(a.pre, a.per)] = a
    return list(seen.values())


# --- property tests against the oracles --------------------------------------------

@given(words_and_sups)
def test_sup_of_shifts_and_is_sup_fixed_match_the_tail_oracle(w):
    s = sup_of_shifts_by_tails(w)
    assert sup_of_shifts(w) == s
    assert is_sup_fixed(w) == (s == w)


@given(canonical_words)
def test_char_polynomial_matches_the_difference_of_evaluation_polynomials(w):
    assert char_polynomial(w) == char_polynomial_by_p_polynomials(w)


@given(st.lists(small_polys, min_size=1, max_size=3), st.lists(small_polys, max_size=2))
@settings(max_examples=300)
def test_squarefree_part_matches_the_gcd_oracle(factors, repeated):
    a = (1,)
    for f in factors + repeated * 2:
        a = _mul(a, tuple(f))
    assert _squarefree_part(a) == squarefree_part_by_gcd(a)
    assert _poly_gcd(a, _deriv(a)) == poly_gcd_by_sturm_remainders(a, _deriv(a))


@pytest.mark.parametrize("factors", [
    [(-2, 0, MODULUS)],                        # squarefree
    [(-2, 0, MODULUS), (1, 1), (1, 1)],        # (x + 1)^2 times it
    [(3, -1, 2 * MODULUS), (-2, 0, 1), (-2, 0, 1)],
])
def test_squarefree_part_falls_back_to_the_gcd_when_the_prime_divides_the_lead(factors, monkeypatch):
    a = (1,)
    for f in factors:
        a = _mul(a, f)
    assert a[-1] % MODULUS == 0
    calls = count_gcds(monkeypatch)
    sf = _squarefree_part(a)
    assert len(calls) == 1  # no certificate modulo the prime, so the gcd decides
    assert sf == squarefree_part_by_gcd(a)


@given(canonical_words)
def test_rho_of_matches_the_tail_oracle(w):
    assert rho_of(w) == rho_of_by_tails(w)


@given(digit_lists, digit_lists.filter(bool))
def test_rho_of_matches_the_tail_oracle_on_words_stored_as_given(pre, per):
    w = raw_word(pre, per)
    assert rho_or_error(rho_of, w) == rho_or_error(rho_of_by_tails, w)


def test_rho_of_names_the_first_coinciding_pair():
    # the sequence (10): tails 2, 4, 6 sort before tails 1, 3, 5
    w = raw_word((1, 0, 1, 0), (1, 0))
    with pytest.raises(DegenerateExpansionError, match=r"^tails 1 and 3 of 1010\(10\) coincide$"):
        rho_of(w)
    assert rho_or_error(rho_of, w) == rho_or_error(rho_of_by_tails, w)


def test_every_reading_matches_its_oracle_on_the_threshold_words(threshold_words):
    assert len(threshold_words) == 1357
    for w in threshold_words:
        assert is_sup_fixed(w) and sup_of_shifts(w) == sup_of_shifts_by_tails(w) == w
        poly = char_polynomial(w)
        assert poly == char_polynomial_by_p_polynomials(w)
        assert _squarefree_part(poly.coefficients) == squarefree_part_by_gcd(poly.coefficients)
        assert rho_of(w) == rho_of_by_tails(w)


# --- counter guards ----------------------------------------------------------------

def count_gcds(monkeypatch) -> list:
    calls = []
    real = algebraic._poly_gcd
    monkeypatch.setattr(algebraic, "_poly_gcd", lambda *a: calls.append(a) or real(*a))
    return calls


def test_b_of_runs_a_gcd_only_for_polynomials_that_are_not_squarefree(threshold_words, monkeypatch):
    above_u = [w for w in threshold_words if compare_with_u(w) > 0]
    assert len(above_u) == 1353
    not_squarefree = [w for w in above_u
                      if len(_poly_gcd(char_polynomial(w).coefficients,
                                       _deriv(char_polynomial(w).coefficients))) > 1]
    calls = count_gcds(monkeypatch)
    for w in threshold_words:
        b_of(w)
    # their repeated factor is (x - 1)^2, which b_of divides out with its
    # multiplicity, so not even they need a gcd
    assert len(not_squarefree) == 2 and calls == []


def test_is_sup_fixed_builds_no_tail(threshold_words, monkeypatch):
    others = [canonicalize(pre, per)
              for pre, per in [((), (1, 0, 0)), ((1,), (1, 0, 0)), ((3, 3, 0, 1), (3, 0, 1, 2))]]
    calls = []
    real = words.canonicalize
    monkeypatch.setattr(words, "canonicalize", lambda *a: calls.append(a) or real(*a))
    assert all(is_sup_fixed(w) for w in threshold_words)
    assert [is_sup_fixed(w) for w in others] == [True, False, False]
    assert calls == []
