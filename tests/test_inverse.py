import gc
import itertools
import weakref

import pytest

from negbeta import algebraic, analysis, dynamics, inverse, permutations
from negbeta.analysis import analyze
from negbeta.dynamics import validate_expansion
from negbeta.errors import ConstructionFailedError, NegBetaError
from negbeta.inverse import construct_pi, construct_state, rho_of
from negbeta.permutations import Permutation
from negbeta.words import canonicalize, word, words_over

import inverse_oracle
from inverse_oracle import _display_value, y_digits


def test_rho_of_pure_integer_expansion():
    assert str(rho_of(word("(2)"))) == "21"


def test_rho_of_golden_expansion():
    assert str(rho_of(word("1(0)"))) == "312"


def test_rho_slots_the_last_rank_next_to_position_q():
    # for 21(0): tails order gives sigma = 321 and p+q = 4 is even, so the
    # final entry sits directly below the rank at position q
    rho = rho_of(word("21(0)"))
    q, p, _ = word("21(0)").padded_form()
    assert rho(p + q) == rho(q) - (-1) ** (p + q)
    assert str(rho) == "4321"


def test_rho_rank_rule_holds_generally():
    for w in ["(2)", "1(0)", "21(0)", "(21)", "211(210)"]:
        w = word(w)
        q, p, _ = w.padded_form()
        rho = rho_of(w)
        assert rho(p + q) == rho(q) - (-1) ** (p + q)


def test_y_digits_for_constant_expansion():
    w = word("(2)")
    assert y_digits(w, rho_of(w), vacuous_bonus=False) == (0, 2)
    assert y_digits(w, rho_of(w), vacuous_bonus=True) == (0, 3)


def test_y_digits_for_golden():
    w = word("1(0)")
    assert y_digits(w, rho_of(w), vacuous_bonus=False) == (1, 1, 0)


def test_construct_pure_two():
    state = construct_state(word("(2)"))
    assert str(state.result) == "1243"
    assert state.c == 2 and not state.vacuous_bonus
    assert analyze(state.result).b_minus.exact == 2


def test_construct_golden():
    pi = construct_pi(word("1(0)"))
    assert str(pi) == "14523"
    assert analyze(pi).a == word("1(0)")


def test_construct_tribonacci_like():
    pi = construct_pi(word("21(0)"))
    assert analyze(pi).b_decimal(3) == "2.247"
    assert analyze(pi).a == word("21(0)")


def test_construct_rejects_non_expansions():
    with pytest.raises(NegBetaError):
        construct_pi(word("(10)"))


def test_construct_state_compares_no_base_with_one(monkeypatch):
    # validating the expansion compares each base with 1 by one exact sign,
    # so no comparison refines the base
    from negbeta.algebraic import AlgebraicNumber

    inside, refines = [], []
    real_compare, real_refine = AlgebraicNumber.compare, AlgebraicNumber.refine

    def compare(n, o):
        inside.append(o)
        try:
            return real_compare(n, o)
        finally:
            inside.pop()

    def refine(n, *args):
        if inside:
            refines.append((inside[-1], args))
        return real_refine(n, *args)

    monkeypatch.setattr(AlgebraicNumber, "compare", compare)
    monkeypatch.setattr(AlgebraicNumber, "refine", refine)
    for literal in ("21(0)", "(21)", "(3113)", "2(0)"):
        assert construct_state(word(literal)).result
    assert refines == []


def _outcome(construct, w):
    try:
        return construct(w).result.image
    except NegBetaError as err:
        return type(err), str(err)


def _validate_then_construct(w):
    # the order before the construction returned its base: validate, then search
    if not validate_expansion(w):
        raise NegBetaError(f"{w} is not the expansion of 1 in its own base")
    return construct_state(w, check_expansion=False)


def test_construct_state_keeps_the_outcome_of_validating_first():
    corpus = [w for w in words_over(4, 4, 5) if w.preperiod_length + w.period_length <= 5]
    assert len(corpus) == 4732
    for w in corpus:
        assert _outcome(construct_state, w) == _outcome(_validate_then_construct, w), str(w)


@pytest.mark.parametrize("literal", ["(2)", "21(0)", "(3113)", "211(210)", "3(0)"])
def test_analyze_reuses_the_base_and_skeleton_of_the_construction(monkeypatch, literal):
    roots, built = [], []
    real_b_of, real_skeleton = algebraic.b_of, permutations.skeleton

    def b_of(w):
        roots.append(w)
        return real_b_of(w)

    def skeleton(pi):
        built.append(pi.image)
        return real_skeleton(pi)

    for module in (dynamics, analysis):
        monkeypatch.setattr(module, "b_of", b_of)
    for module in (inverse, analysis):
        monkeypatch.setattr(module, "skeleton", skeleton)
    pi = construct_state(word(literal)).result
    report = analyze(pi)
    monkeypatch.undo()
    assert roots == [word(literal)]
    # every candidate's skeleton is built once, the winner's included
    assert built.count(pi.image) == 1 and len(built) == len(set(built))
    plain = Permutation(pi.image)
    expected = analyze(plain)
    for field in ("a", "poly", "n_minus", "epsilon", "b1_exponent"):
        assert getattr(report, field) == getattr(expected, field), field
    assert report.b_decimal(12) == expected.b_decimal(12)
    assert report.b_minus.equals(expected.b_minus)
    assert pi == plain and hash(pi) == hash(plain) and repr(pi) == repr(plain)


def test_the_constructed_permutation_is_freed_by_reference_counting():
    # the skeleton _round_trip holds must not lead back to the result
    enabled = gc.isenabled()
    gc.disable()
    try:
        state = construct_state(word("211(210)"))
        result = weakref.ref(state.result)
        del state
        assert result() is None
    finally:
        if enabled:
            gc.enable()


def test_proof_stage_identities_on_small_corpus():
    from negbeta.permutations import landmarks

    corpus = [w for w in words_over(3, 2, 3)
              if _safe_validate(w)]
    assert corpus
    for w in corpus:
        state = construct_state(w, check_expansion=False)
        q, p, _ = w.padded_form()
        lm = landmarks(state.result)
        rho_inv = state.rho.inverse()
        assert lm.m == state.c + rho_inv[p + q - 1]
        pi = state.result
        assert pi(pi.n) == pi(state.c + q) - (-1) ** (p + q)


def test_every_s4_threshold_is_reconstructed():
    # each base occurring as a length-4 threshold comes back from its own
    # expansion of 1 through the inverse construction
    from negbeta.analysis import analyze, spectrum
    from negbeta.dynamics import BetaValue, expansion_of_one

    for group in spectrum(4):
        if group.value == 1:
            continue
        beta = (BetaValue.from_rational(group.value.exact) if group.value.is_rational()
                else BetaValue.from_algebraic(group.value))
        d1 = expansion_of_one(beta).word
        assert d1 is not None
        pi = construct_pi(d1)
        r = analyze(pi)
        assert r.b_minus != 1 and group.value.equals(r.b_minus)


def test_literal_reading_has_an_uncovered_configuration():
    # the printed insertion display does not cover (31): difference two,
    # successor rank above, empty range; the certified vector resolves it
    w = word("(31)")
    with pytest.raises(NegBetaError):
        y_digits(w, rho_of(w))
    assert construct_state(w, check_expansion=False).y == (3, 1, 0)


def _safe_validate(w):
    from negbeta.errors import NegBetaError

    try:
        return validate_expansion(w)
    except NegBetaError:
        return False


def _literal_y_digits(w, rho, vacuous_bonus):
    """The printed display read literally, rank by rank from the top: the
    reference for y_digits."""
    q, p, digits = w.padded_form()
    size = p + q
    inv = rho.inverse()

    def rho_ext(k):
        return rho(k) if k <= size else rho(q + 1)

    y = {}
    for rank in range(size, 1, -1):
        j = inv[rank - 1]
        i = inv[rank - 2]
        d = digits[j - 1] - digits[i - 1]
        ri1, rj1 = rho_ext(i + 1), rho_ext(j + 1)
        some_pos = any(y[k] >= 1 for k in range(1, size + 1)
                       if rank < rho(k) <= rj1 and k in y)
        val = _display_value(d, rank, ri1, rj1, some_pos)
        if val is None:
            raise NegBetaError(f"no insertion rule matches at rank {rank} for {w}")
        y[j] = val
    j1 = inv[0]
    in_range = [y[k] for k in range(1, size + 1) if 1 < rho(k) <= rho_ext(j1 + 1)]
    if in_range:
        bonus = 1 if all(v == 0 for v in in_range) else 0
    else:
        bonus = 1 if vacuous_bonus else 0
    y[j1] = digits[j1 - 1] + bonus
    return tuple(y[j] for j in range(1, size + 1))


def _words_up_to_five_letters():
    # every canonical word with preperiod plus period at most 5 over 0..3,
    # a superset of the criterion-7 expansion corpus
    out = {}
    for size in range(1, 6):
        for digits in itertools.product(range(4), repeat=size):
            for q in range(size):
                w = canonicalize(digits[:q], digits[q:])
                out[(w.pre, w.per)] = w
    return list(out.values())


def test_strict_y_digits_is_the_literal_display_reading():
    seen = {"silent": 0, "vacuous": 0}
    for w in _words_up_to_five_letters():
        try:
            rho = rho_of(w)
        except NegBetaError:
            continue
        for bonus in (False, True):
            try:
                expected = _literal_y_digits(w, rho, bonus)
            except NegBetaError:
                seen["silent"] += 1
                with pytest.raises(NegBetaError):
                    y_digits(w, rho, vacuous_bonus=bonus)
                continue
            assert y_digits(w, rho, vacuous_bonus=bonus) == expected, (str(w), bonus)
            if bonus and expected != _literal_y_digits(w, rho, False):
                seen["vacuous"] += 1
    assert seen["silent"] and seen["vacuous"]


def _quadratic_assemble(rho: Permutation, y: tuple[int, ...]) -> Permutation:
    """``inverse._assemble`` before its prefix sum: the sum of y over the
    positions of lower rank recomputed for every position."""
    size = rho.n
    c = sum(y)
    n = c + size
    image = [0] * n
    for j in range(1, size + 1):
        image[c + j - 1] = rho(j) + sum(y[k - 1] for k in range(1, size + 1)
                                        if rho(k) <= rho(j))
    used = set(image[c:])
    image[:c] = sorted(v for v in range(1, n + 1) if v not in used)
    return Permutation(tuple(image))


def test_assemble_equals_the_quadratic_oracle_on_every_candidate_tried(monkeypatch):
    # the criterion-7 corpus: expansions with preperiod plus period at most 5 over 0..3
    corpus = [w for w in words_over(4, 4, 5)
              if w.preperiod_length + w.period_length <= 5 and _safe_validate(w)]
    real, tried = inverse._assemble, []

    def checked(rho, y):
        got = real(rho, y)
        assert got == _quadratic_assemble(rho, y), (rho, y)
        tried.append(y)
        return got

    monkeypatch.setattr(inverse, "_assemble", checked)
    for w in corpus:
        assert analyze(construct_state(w, check_expansion=False).result).a == w
    assert len(corpus) > 100 and len(tried) == len(corpus)


def _expansions(alphabet_size, pre_max, per_max, max_len):
    return [w for w in words_over(alphabet_size, pre_max, per_max)
            if w.preperiod_length + w.period_length <= max_len and _safe_validate(w)]


@pytest.mark.parametrize("corpus, size, late", [
    ((4, 4, 5, 5), 822, 15),   # criterion 7
    ((6, 3, 4, 5), 4254, 92),  # the d >= 3 case of the d - 1 clause occurs
])
def test_insertion_rule_gives_the_first_round_trip_winner_of_the_search(corpus, size, late):
    words = _expansions(*corpus)
    assert len(words) == size
    found = 0
    for w in words:
        y, vacuous, pi, index = inverse_oracle.search(w)
        state = construct_state(w, check_expansion=False)
        assert (state.y, state.vacuous_bonus, state.result) == (y, vacuous, pi), str(w)
        found += index > 0
    # words the search won only after its first candidate: where the rule
    # departs from the literal display
    assert found == late


@pytest.mark.parametrize("literal", ["(01)", "0(12)", "(012)"])
def test_a_failed_round_trip_carries_its_one_candidate(literal):
    w = word(literal)
    with pytest.raises(ConstructionFailedError) as err:
        construct_state(w, check_expansion=False)
    (pi,) = err.value.candidates
    assert analyze(pi).a != w
    assert err.value.payload()["candidates"] == [str(pi)]
