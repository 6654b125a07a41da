import itertools

import pytest
from hypothesis import given, settings, strategies as st

from negbeta import words as W
from negbeta.errors import (
    InvariantError,
    MalformedWordError,
    SupNotFixedError,
    UndefinedDerivedWordError,
)
from negbeta.words import (
    alt_lex_compare,
    canonicalize,
    compare_with_u,
    derived_word,
    format_word,
    in_vv_prime_star,
    parse_word,
    periodization,
    phi_power,
    primitivity_class,
    sup_of_shifts,
    u_prefix,
    word,
    words_over,
)


def canonical_words(max_digit=3, pre_max=4, per_max=4):
    return st.builds(
        canonicalize,
        st.lists(st.integers(0, max_digit), max_size=pre_max),
        st.lists(st.integers(0, max_digit), min_size=1, max_size=per_max),
    )


# --- canonical form ----------------------------------------------------------

def test_canonicalize_power_reduction():
    w = canonicalize("21", "00")
    assert (w.pre, w.per) == ((2, 1), (0,))


def test_canonicalize_preperiod_absorption():
    w = canonicalize("10", "10")
    assert (w.pre, w.per) == ((), (1, 0))


def test_padded_form_of_pure_word():
    q, p, digits = word("(2)").padded_form()
    assert (q, p) == (1, 1)
    assert digits == (2, 2)


def test_padded_form_examples():
    assert word("1(0)").padded_form() == (2, 1, (1, 0, 0))
    assert word("21(0)").padded_form() == (3, 1, (2, 1, 0, 0))


@given(st.lists(st.integers(0, 12), max_size=6), st.lists(st.integers(0, 12), max_size=6))
def test_library_constructor_matches_canonicalize(pre, per):
    if not per:
        for build in (W._canonical, canonicalize):
            with pytest.raises(MalformedWordError):
                build(tuple(pre), ())
        return
    assert W._canonical(tuple(pre), tuple(per)) == canonicalize(pre, per)


def _validating_canonical(pre, per):
    """``words._canonical`` before it skipped the checks: the same reduction,
    with the word built through ``__post_init__``."""
    per = list(W.primitive_root(per)[0])
    pre = list(pre)
    while pre and pre[-1] == per[-1]:
        pre.pop()
        per = [per[-1]] + per[:-1]
    return W.EventuallyPeriodicWord(tuple(pre), tuple(per))


def test_canonical_equals_the_validating_construction():
    pairs = 0
    for q in range(4):
        for p in range(1, 5):
            for pre in itertools.product(range(3), repeat=q):
                for per in itertools.product(range(3), repeat=p):
                    assert W._canonical(pre, per) == _validating_canonical(pre, per), (pre, per)
                    pairs += 1
    assert pairs == 40 * 120


def test_raw_constructor_rejects_non_canonical():
    with pytest.raises(MalformedWordError):
        W.EventuallyPeriodicWord((1,), (0, 0))
    with pytest.raises(MalformedWordError):
        W.EventuallyPeriodicWord((1, 0), (1, 0))


def _tail_by_canonicalizing(w, k):
    """``EventuallyPeriodicWord.tail`` before it built tails directly."""
    q = len(w.pre)
    if k <= q + 1:
        return W._canonical(w.pre[k - 1:], w.per)
    j = (k - q - 1) % len(w.per)
    return W._canonical((), w.per[j:] + w.per[:j])


def _distinct_tails_by_scanning(w):
    """``EventuallyPeriodicWord.distinct_tails`` before it built tails directly."""
    seen = []
    for k in range(1, len(w.pre) + len(w.per) + 1):
        t = _tail_by_canonicalizing(w, k)
        if t not in seen:
            seen.append(t)
    return seen


def test_tails_built_directly_equal_the_canonicalizing_oracle():
    # the words of the criterion-7 corpus, before it keeps only expansions of 1
    for w in (w for w in words_over(4, 4, 5) if len(w.pre) + len(w.per) <= 5):
        tails = w.distinct_tails()
        assert tails == _distinct_tails_by_scanning(w)
        for k in range(1, len(w.pre) + 2 * len(w.per) + 2):
            assert w.tail(k) == _tail_by_canonicalizing(w, k)
        # every tail built without the checks passes them
        for t in tails:
            assert W.EventuallyPeriodicWord(t.pre, t.per) == t


@given(canonical_words())
def test_digit_stream_matches_canonical_form(w):
    expanded = canonicalize(w.prefix(len(w.pre) + 2 * len(w.per)), w.per)
    assert expanded == w


# --- alternating lexicographical order ----------------------------------------

def test_alt_lex_even_position_reverses():
    assert alt_lex_compare(word("(1)"), word("(10)")) == W.LESS


def test_alt_lex_reflexive():
    w = word("330121023(301210220)")
    assert alt_lex_compare(w, w) == W.EQUAL


def test_alt_lex_expansion_monotonicity_sample():
    # expansions of 1 grow with the base (sampled through the dynamics module)
    from fractions import Fraction

    from negbeta.dynamics import DigitStream

    pairs = [(Fraction(3, 2), Fraction(2)), (Fraction(2), Fraction(5, 2)),
             (Fraction(11, 10), Fraction(6, 5))]
    for alpha, beta in pairs:
        a, b = DigitStream(alpha), DigitStream(beta)
        for k in range(1, 200):
            x, y = a.digit(k), b.digit(k)
            if x != y:
                assert (x < y) == (k % 2 == 1)
                break
        else:
            pytest.fail("expansions did not separate")


@given(canonical_words(), canonical_words())
def test_alt_lex_antisymmetry(v, w):
    c, d = alt_lex_compare(v, w), alt_lex_compare(w, v)
    assert c == -d
    if c == 0:
        assert v == w


@given(canonical_words(), canonical_words(), canonical_words())
@settings(max_examples=300)
def test_alt_lex_transitivity(u, v, w):
    ws = sorted([u, v, w])
    assert alt_lex_compare(ws[0], ws[1]) <= 0 <= alt_lex_compare(ws[2], ws[1])


# --- sup of shifts --------------------------------------------------------------

def test_sup_of_shifts_paper_word():
    assert sup_of_shifts(word("330121023(301210220)")) == word("(301210220)")


def test_sup_of_shifts_reaches_threshold_word():
    assert sup_of_shifts(word("1(100)")) == word("(100)")


def test_sup_of_shifts_constant():
    assert sup_of_shifts(word("(2)")) == word("(2)")


@given(canonical_words())
def test_sup_of_shifts_idempotent_and_dominates(w):
    s = sup_of_shifts(w)
    assert sup_of_shifts(s) == s
    for t in s.distinct_tails():
        assert alt_lex_compare(t, s) <= 0


# --- derived word ---------------------------------------------------------------

def test_derived_word_rules():
    assert derived_word("2") == (1, 0)
    assert derived_word("10") == (2,)
    assert derived_word("100") == (1, 1)
    assert alt_lex_compare(periodization("100"), periodization("11")) == W.GREATER


def test_derived_word_rejects_zero():
    with pytest.raises(UndefinedDerivedWordError):
        derived_word("0")


@given(st.lists(st.integers(0, 3), min_size=1, max_size=5))
def test_derived_word_order_flip(v):
    v = tuple(v)
    if v == (0,) or v[-1] == 0 and len(v) == 1:
        return
    try:
        vp = derived_word(v)
    except UndefinedDerivedWordError:
        return
    cmp = alt_lex_compare(periodization(v), periodization(vp))
    if cmp != 0:
        assert (cmp == W.LESS) == (len(v) % 2 == 0)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=5))
def test_derived_word_involution_like(v):
    v = tuple(v)
    if not v or v[-1] == 0:
        return
    if sup_of_shifts(periodization(v)) != periodization(v):
        return
    back = derived_word(derived_word(v))
    assert periodization(back) == periodization(v)


# --- primitivity ----------------------------------------------------------------

def test_primitivity_classes():
    assert primitivity_class("100") == W.PRIMITIVE
    assert primitivity_class("11") == W.ALMOST_PRIMITIVE_SQUARE
    assert primitivity_class("1010") == W.IMPRIMITIVE


def test_derived_of_almost_primitive_stays_almost_primitive():
    # stated without proof in the source material; enforced as a property here
    import itertools

    for size in range(1, 7):
        for v in itertools.product((0, 1, 2), repeat=size):
            if v == (0,) * size:
                continue
            if not W.is_almost_primitive(v):
                continue
            if sup_of_shifts(periodization(v)) != periodization(v):
                continue
            vp = derived_word(v)
            assert W.is_almost_primitive(vp), (v, vp)
            assert sup_of_shifts(periodization(vp)) == periodization(vp), (v, vp)


# --- the substitution and its fixed point ----------------------------------------

def test_phi_powers():
    assert phi_power(0) == (0,)
    assert phi_power(2) == (1, 0, 0)
    assert phi_power(4) == tuple(int(c) for c in "10011100100")


def test_phi_power_by_independent_substitution():
    def subst(s: str) -> str:
        return "".join("1" if c == "0" else "100" for c in s)

    s = "0"
    for k in range(1, 9):
        s = subst(s)
        assert phi_power(k) == tuple(int(c) for c in s)


def test_u_prefix_display():
    assert u_prefix(9) == tuple(int(c) for c in "100111001")
    assert u_prefix(1) == (1,)
    assert u_prefix(21) == tuple(int(c) for c in "100111001001001110011")


def test_u_is_fixed_under_substitution():
    u64 = u_prefix(64)
    image = []
    for d in u64:
        image.extend((1,) if d == 0 else (1, 0, 0))
    assert tuple(image[:64]) == u64


def test_u_aperiodic_spot_check():
    # no preperiod <= 64 / period <= 64 word agrees with u on 200 digits
    u = u_prefix(200)
    for q in range(0, 65):
        for p in range(1, 65):
            if all(u[q + i] == u[q + p + i] for i in range(200 - q - p)):
                pytest.fail(f"u looks periodic with preperiod {q}, period {p}")


def test_compare_with_u_examples():
    assert compare_with_u(word("(100)")) <= 0
    assert compare_with_u(word("(10011)")) <= 0
    assert compare_with_u(word("1(0)")) > 0
    assert compare_with_u(word("(2)")) > 0
    # deep tie: diverges from u only at position 16
    assert compare_with_u(word("10011(100)")) > 0


def test_compare_with_u_cap_is_a_typed_error(monkeypatch):
    w = word("(10)")
    monkeypatch.setattr(W, "u_prefix", w.prefix)  # a stand-in u that w matches everywhere
    with pytest.raises(InvariantError):
        compare_with_u(w, hard_cap=128)


# --- concatenation language {v, v'} ----------------------------------------------

def test_vv_prime_membership():
    assert in_vv_prime_star(word("(2)"), "2")
    assert in_vv_prime_star(word("(210)"), "2")
    with pytest.raises(SupNotFixedError):
        in_vv_prime_star(word("(12)"), "2")


def factorizes(w, v, vp) -> bool:
    """Direct check that w is a concatenation of v/v' blocks (the reference
    for the inequality form of in_vv_prime_star).

    Positions of an eventually periodic word form a finite state space, so the
    search over block choices is a reachability problem: a position is good if
    some block matches there and leads to a good position (cycles of matches
    count as good, they describe an infinite factorization).
    """
    q, p = len(w.pre), len(w.per)

    def canon(pos: int) -> int:
        return pos if pos <= q else q + (pos - q - 1) % p + 1

    def starts_with(pos: int, block) -> bool:
        return all(w.digit(pos + i) == block[i] for i in range(len(block)))

    live: dict[int, bool] = {}

    def alive(pos: int, visiting: set) -> bool:
        pos = canon(pos)
        if pos in live:
            return live[pos]
        if pos in visiting:
            return True
        visiting.add(pos)
        ok = any(starts_with(pos, b) and alive(pos + len(b), visiting) for b in (v, vp))
        visiting.discard(pos)
        live[pos] = ok
        return ok

    return alive(1, set())


@given(canonical_words(max_digit=2, pre_max=3, per_max=3),
       st.lists(st.integers(0, 2), min_size=1, max_size=3))
@settings(max_examples=300)
def test_vv_prime_inequality_matches_factorization(w, v):
    v = tuple(v)
    if v == (0,):
        with pytest.raises(UndefinedDerivedWordError):
            in_vv_prime_star(sup_of_shifts(w), v)
        return
    s = sup_of_shifts(w)
    assert in_vv_prime_star(s, v) == factorizes(s, v, derived_word(v))


def test_vv_prime_factorization_reference_sees_both_answers():
    assert factorizes(word("(210)"), (2,), derived_word((2,)))
    assert not factorizes(word("(2)"), (1,), derived_word((1,)))


# --- parsing and printing ----------------------------------------------------------

def test_parse_format_round_trip_examples():
    for text in ["330121023(301210220)", "(2)", "211(210)", "3,3,0(3,0,1)"]:
        w = parse_word(text)
        assert parse_word(format_word(w)) == w


def test_parse_large_digits_comma_form():
    w = parse_word("10,2(11,0)")
    assert w.pre == (10, 2) and w.per == (11, 0)
    assert format_word(w) == "10,2(11,0)"


def test_parse_rejects_garbage():
    for text in ["", "123", "()", "1(", "(1))", "abc(1)"]:
        with pytest.raises(MalformedWordError):
            parse_word(text)


@given(canonical_words())
def test_format_parse_bijection(w):
    assert parse_word(format_word(w)) == w


def _words_over_by_dedup(alphabet_size, pre_max, per_max):
    """Every pair within the bounds canonicalized, each sequence kept where it first occurs."""
    seen = set()
    for q in range(pre_max + 1):
        for p in range(1, per_max + 1):
            for pre in itertools.product(range(alphabet_size), repeat=q):
                for per in itertools.product(range(alphabet_size), repeat=p):
                    w = canonicalize(pre, per)
                    if (w.pre, w.per) not in seen:
                        seen.add((w.pre, w.per))
                        yield w


@pytest.mark.parametrize("alphabet_size,pre_max,per_max",
                         [(0, 2, 2), (1, 3, 4), (2, 3, 4), (3, 0, 4), (3, 3, 3), (4, 2, 4)])
def test_words_over_yields_each_sequence_once_in_first_occurrence_order(alphabet_size, pre_max,
                                                                        per_max):
    assert list(words_over(alphabet_size, pre_max, per_max)) == \
        list(_words_over_by_dedup(alphabet_size, pre_max, per_max))
    # every word built without the checks passes them
    for w in words_over(alphabet_size, pre_max, per_max):
        assert W.EventuallyPeriodicWord(w.pre, w.per) == w
