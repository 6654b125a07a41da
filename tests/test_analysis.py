import collections
import dataclasses
import functools
import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from negbeta import algebraic, analysis, dynamics, permutations, words
from negbeta.algebraic import (
    IntPolynomial,
    _poly_gcd,
    b_of,
    char_polynomial,
    largest_root_gt1,
    poly_from_descending,
)
from negbeta.analysis import (
    SpectrumGroup,
    _b1_exponent,
    _is_b1,
    analyze,
    count_b1,
    epsilon_of,
    extremal_report,
    max_families,
    min_alphabet_bruteforce,
    n_minus_formula,
    pat_of_orbit,
    pat_of_word,
    prop1_check,
    realizable_at,
    sandwich_check,
    spectrum,
    witness_word,
)
from negbeta.dynamics import MembershipOracle, expansion_of_one, BetaValue
from negbeta.errors import (
    InvariantError,
    NegBetaError,
    PatternUndefinedError,
    SearchInconclusiveError,
)
from negbeta.permutations import (
    Permutation,
    a_sequence,
    all_permutations,
    max_z,
    parse_permutation,
    z_digits,
)
from negbeta.words import canonicalize, word, words_over


# --- patterns -----------------------------------------------------------------

def test_pat_of_word_examples():
    assert str(pat_of_word(word("1(100)"), 4)) == "3421"
    assert str(pat_of_word(word("110010(2)"), 6)) == "453261"
    assert str(pat_of_word(word("00(10011)"), 4)) == "3142"
    with pytest.raises(PatternUndefinedError):
        pat_of_word(word("(2)"), 2)


@pytest.mark.parametrize("n", [0, -2])
def test_pattern_lengths_below_one_are_typed_errors(n):
    for pattern in (lambda: pat_of_word(word("1(0)"), n), lambda: pat_of_orbit(2, Fraction(2, 5), n)):
        with pytest.raises(NegBetaError, match=f"pattern length must be at least 1, got {n}") as err:
            pattern()
        assert err.value.exit_code == 2


def test_pat_of_orbit_examples():
    assert str(pat_of_orbit(2, Fraction(2, 5), 3)) == "213"
    with pytest.raises(PatternUndefinedError):
        pat_of_orbit(2, 1, 2)
    beta = BetaValue.from_algebraic(largest_root_gt1(poly_from_descending(1, -3, 1)))
    with pytest.raises(PatternUndefinedError):
        pat_of_orbit(beta, 1, 3)


def test_pat_of_orbit_matches_pat_of_expansion():
    rng = random.Random(5)
    for _ in range(25):
        beta = Fraction(rng.randint(21, 40), 10)
        x = Fraction(rng.randint(1, 30), 31)
        try:
            orbit_pat = pat_of_orbit(beta, x, 4)
        except PatternUndefinedError:
            continue
        from negbeta.dynamics import expansion_digits

        # the pattern of the orbit is the pattern of the digit sequence; a
        # long prefix with any periodic continuation decides patterns of
        # length 4 well before the continuation can matter here
        digits = expansion_digits(beta, x, 30)
        assert str(orbit_pat) == str(pat_of_word(canonicalize(digits[:25], digits[25:30]), 4))


def _realizes_directly(w, pi) -> bool:
    """Reference for prop1_check: the ordinal pattern of w's first n tails."""
    try:
        return pat_of_word(w, pi.n) == pi
    except PatternUndefinedError:
        return False


def test_prop1_examples():
    for w, pi, expected in [("1(100)", "3421", True), ("(0)", "21", False),
                            ("00(10011)", "3142", True)]:
        w, pi = word(w), parse_permutation(pi)
        assert prop1_check(w, pi) == _realizes_directly(w, pi) == expected


@given(st.permutations(list(range(1, 5))),
       st.lists(st.integers(0, 2), max_size=4),
       st.lists(st.integers(0, 2), min_size=1, max_size=3))
@settings(max_examples=300)
def test_prop1_agrees_with_direct_pattern(image, pre, per):
    pi = Permutation(tuple(image))
    w = canonicalize(pre, per)
    assert prop1_check(w, pi) == _realizes_directly(w, pi), (w, pi)


def test_prop1_agrees_with_direct_pattern_exhaustive():
    ws = list(words_over(3, 2, 3))
    for n in range(2, 5):
        for pi in all_permutations(n):
            for w in ws:
                assert prop1_check(w, pi) == _realizes_directly(w, pi), (w, pi)


def test_digit_gap_propagates_along_tails():
    from negbeta.words import alt_lex_compare_finite

    rng = random.Random(23)
    checked = 0
    while checked < 200:
        n = rng.randint(3, 6)
        pi = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        z = z_digits(pi).digits
        w = tuple(zj + rng.randint(0, 1) for zj in z)
        ok = all(w[j - 1] - w[i - 1] >= z[j - 1] - z[i - 1]
                 for i in range(1, n) for j in range(1, n) if pi(j) > pi(i))
        if not ok:
            continue
        checked += 1
        for i in range(1, n):
            for j in range(i + 1, n):
                a = w[i - 1:i - 1 + n - j]
                b = w[j - 1:n - 1]
                sign = 1 if (n - j) % 2 == 0 else -1
                if pi(i) < pi(j):
                    c = alt_lex_compare_finite(a, b)
                    assert c <= 0
                    if c == 0:
                        assert sign * pi(i + n - j) < sign * pi(n)
                elif pi(i) > pi(j):
                    c = alt_lex_compare_finite(a, b)
                    assert c >= 0
                    if c == 0:
                        assert sign * pi(i + n - j) > sign * pi(n)


# --- analyze -------------------------------------------------------------------

def test_analyze_4321():
    r = analyze("4321")
    assert r.a == word("21(0)")
    assert str(r.poly) == "x^3 - 2x^2 - x + 1"
    assert r.b_decimal(3) == "2.247"
    assert r.n_minus == 3 and r.epsilon == 0


def test_analyze_3421_threshold_one():
    r = analyze("3421")
    assert r.b_minus == 1 and r.b1_exponent == 2
    assert r.poly is None and r.n_minus == 2


def test_b1_exponent_of_a_non_substitution_word_is_a_typed_error():
    with pytest.raises(InvariantError):
        _b1_exponent(word("(10)"))


def test_analyze_degree_eight_example():
    r = analyze("892364157")
    assert r.b_decimal(3) == "3.831"
    assert str(r.poly) == "x^8 - 4x^7 + x^6 - 2x^5 + 3x^4 - 2x^3 + x^2 - 3x + 3"


def test_analyze_exact_two():
    r = analyze("453261")
    assert r.b_minus.is_rational() and r.b_minus.exact == 2
    assert r.n_minus == 3


def test_analyze_alphabet_mismatch_is_a_typed_error(monkeypatch):
    real = permutations.skeleton

    def skewed(pi):
        sk = real(pi)
        return dataclasses.replace(sk, marks=sk.marks + 1)

    monkeypatch.setattr(analysis, "skeleton", skewed)
    with pytest.raises(InvariantError):
        analyze("4321")


def test_analyze_rejects_singleton():
    with pytest.raises(NegBetaError):
        analyze("1")


def test_epsilon_reading_for_all_zero_skeleton():
    assert epsilon_of(parse_permutation("12")) == 1
    assert n_minus_formula(parse_permutation("12")) == 2


def test_b_minus_is_one_or_yrrap_on_s4():
    for pi in all_permutations(4):
        r = analyze(pi)
        if r.b_minus == 1:
            continue
        beta = (BetaValue.from_rational(r.b_minus.exact) if r.b_minus.is_rational()
                else BetaValue.from_algebraic(r.b_minus))
        res = expansion_of_one(beta, max_digits=400)
        assert res.is_periodic, f"threshold of {pi} is not Yrrap"


# --- enumeration ------------------------------------------------------------------

def test_count_b1_small():
    assert count_b1(4) == [2, 5, 12]
    assert count_b1(5)[-1] == 19


def test_count_b1_regression_at_seven():
    # Computed from the threshold-1 characterization; 51 is confirmed by an
    # assumption-free realizability census at bases below the smallest
    # possible threshold above 1 (the reference figure for length 7 is 57,
    # which the defining characterization does not reproduce; see the acceptance
    # suite output).
    assert count_b1(7)[-1] == 51


def test_count_b1_fast_path_matches_plain_test():
    from negbeta.analysis import _b1_fast, _is_b1
    from negbeta.permutations import a_sequence
    import itertools

    for n in (4, 5, 6):
        for image in itertools.permutations(range(1, n + 1)):
            assert _b1_fast(image) == _is_b1(a_sequence(Permutation(image)))


def test_spectrum_length_three():
    groups = spectrum(3)
    as_dict = {g.decimal(3): [str(p) for p in g.members] for g in groups}
    assert as_dict == {
        "1": ["123", "132", "213", "231", "321"],
        "1.618": ["312"],
    }


def test_spectrum_length_two():
    groups = spectrum(2)
    assert len(groups) == 1 and groups[0].value == 1
    assert [str(p) for p in groups[0].members] == ["12", "21"]


def test_count_b1_reuses_one_pool_no_larger_than_needed(monkeypatch):
    import multiprocessing

    sizes = []

    class RecordingPool:
        """Records the requested size and maps in this process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(x) for x in items]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    assert count_b1(6, jobs=64) == [2, 5, 12, 19, 34]
    assert count_b1(6, jobs=3) == [2, 5, 12, 19, 34]
    assert count_b1(6, jobs=1) == [2, 5, 12, 19, 34]
    assert sizes == [6, 3]


def _spectrum_all_pairs(n: int) -> list[SpectrumGroup]:
    """Oracle: each permutation's root is compared with every earlier group."""
    groups: list[SpectrumGroup] = []
    ones: list[Permutation] = []
    for pi in all_permutations(n):
        a = a_sequence(pi)
        if _is_b1(a):
            ones.append(pi)
            continue
        b = b_of(a)
        poly = char_polynomial(a)
        for g in groups:
            if g.value.equals(b):
                g.members.append(pi)
                g.poly = IntPolynomial(_poly_gcd(g.poly.coefficients, poly.coefficients)).sign_normalized()
                break
        else:
            groups.append(SpectrumGroup(value=b, poly=poly.squarefree_part(), members=[pi]))
    groups.sort(key=functools.cmp_to_key(lambda g, h: g.value.compare(h.value)))
    if ones:
        groups.insert(0, SpectrumGroup(value=algebraic.AlgebraicNumber.from_rational(1),
                                       poly=IntPolynomial((-1, 1)), members=ones))
    for g in groups:
        g.members.sort(key=lambda p: p.image)
    return groups


@pytest.mark.parametrize("n", range(2, 7))
def test_spectrum_matches_all_pairs_oracle(n):
    fast, slow = spectrum(n), _spectrum_all_pairs(n)
    assert [g.to_json() for g in fast] == [g.to_json() for g in slow]
    for g, h in zip(fast, slow):
        assert g.value == h.value


def test_spectrum_seven_is_pinned():
    # sha256 of the groups' JSON as computed by the all-pairs grouping
    text = json.dumps([g.to_json() for g in spectrum(7)], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "b998a4aa506f196432c1bb0411604201820b61cabbfb300c6fb24769369ddff8"


def test_spectrum_eight_is_pinned():
    # sha256 of the groups' JSON as computed when each threshold base was
    # taken as the last of all isolated roots
    text = json.dumps([g.to_json() for g in spectrum(8)], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "185ee6a3d0e25a1b31de866575916a1c4c649c4b10a40e82185200db05a0dd61"


def test_analyze_n14_gcd_and_rational_lift_budget(monkeypatch):
    # the characteristic polynomial is certified squarefree modulo a prime,
    # so no gcd runs; comparing the root with its digit bound lifts no
    # rational to a root
    gcds, lifts = [], []
    real_gcd = algebraic._poly_gcd
    monkeypatch.setattr(algebraic, "_poly_gcd", lambda *a: gcds.append(a) or real_gcd(*a))
    real_lift = algebraic.AlgebraicNumber.from_rational.__func__
    monkeypatch.setattr(algebraic.AlgebraicNumber, "from_rational",
                        classmethod(lambda cls, v: lifts.append(v) or real_lift(cls, v)))
    report = analyze("14,3,12,1,9,6,13,2,8,11,4,10,7,5")
    assert report.b_minus.decimal(12) == "6.812708576275"
    assert (len(gcds), len(lifts)) == (0, 0)


def test_analyze_validates_no_digits_it_built_itself(monkeypatch):
    # the threshold word and its tails come from the skeleton's own digits
    calls = []
    real = words._as_digits
    monkeypatch.setattr(words, "_as_digits", lambda seq: calls.append(seq) or real(seq))
    report = analyze("892364157")
    assert str(report.a) == "(30121023)" and report.b_minus.decimal(6) == "3.830651"
    assert calls == []


def test_spectrum_six_gcd_budget(monkeypatch):
    # the all-pairs grouping ran 33942 gcds here; word buckets and the sorted
    # sweep need fewer than a thousand
    calls = []
    real = algebraic._poly_gcd
    counted = lambda *a: calls.append(a) or real(*a)  # noqa: E731
    monkeypatch.setattr(algebraic, "_poly_gcd", counted)
    monkeypatch.setattr(analysis, "_poly_gcd", counted)
    assert len(spectrum(6)) == 181
    assert len(calls) <= 1000


def test_spectrum_groups_share_exact_value():
    for g in spectrum(4):
        for pi in g.members:
            assert g.value.equals(analyze(pi).b_minus)


# --- extremal structure --------------------------------------------------------------

def test_extremal_n3():
    rep = extremal_report(3)
    golden = largest_root_gt1(poly_from_descending(1, -1, -1))
    assert rep.max_value.equals(golden)
    assert [str(p) for p in rep.attaining] == ["312"]


def test_extremal_n4():
    rep = extremal_report(4)
    assert rep.max_value.decimal(3) == "2.247"
    assert [str(p) for p in rep.attaining] == ["4321"]
    assert sorted(str(p) for p in rep.n_minus_max_set) == ["1234", "1243", "4312", "4321"]


def test_extremal_n5_attained_by_odd_family():
    rep = extremal_report(5)
    assert [str(p) for p in rep.attaining] == ["54312"]
    assert sorted(str(p) for p in rep.n_minus_max_set) == ["12345", "12354", "54312", "54321"]


def test_extremal_base_out_of_range_is_a_typed_error(monkeypatch):
    # the length-4 extremal word has its base in (2, 3), not in (4, 5)
    monkeypatch.setattr(analysis, "extremal_word", lambda n: word("21(0)"))
    with pytest.raises(InvariantError):
        extremal_report(6)


def test_one_skeleton_per_permutation(monkeypatch):
    calls = []
    real = permutations.skeleton

    def counted(pi):
        calls.append(pi)
        return real(pi)

    survivors = sum(1 for n in range(2, 7) for pi in all_permutations(n) if max_z(pi) < 2)
    many_marks = sum(1 for pi in all_permutations(6) if max_z(pi) >= 3)
    monkeypatch.setattr(permutations, "skeleton", counted)
    monkeypatch.setattr(analysis, "skeleton", counted)
    for text in ["3421", "892364157", "7325416", "1423", "4321"]:
        calls.clear()
        analyze(text)
        assert len(calls) == 1, text
    calls.clear()
    extremal_report(6)
    assert len(calls) == many_marks
    calls.clear()
    spectrum(5)
    assert len(calls) == 120
    calls.clear()
    count_b1(6)
    assert len(calls) == survivors


def test_max_families_shapes():
    fams = [str(p) for p in max_families(6)]
    assert fams == ["123456", "123465", "654321", "654312"]


# --- search oracles ---------------------------------------------------------------------

def test_min_alphabet_trivial():
    size, w = min_alphabet_bruteforce("12")
    assert size == 2
    assert str(pat_of_word(w, 2)) == "12"


def test_min_alphabet_matches_formula_examples():
    assert min_alphabet_bruteforce("4321")[0] == 3
    assert min_alphabet_bruteforce("7325416")[0] == 3


def test_min_alphabet_matches_formula_on_s3():
    for pi in all_permutations(3):
        assert min_alphabet_bruteforce(pi)[0] == n_minus_formula(pi)


@pytest.mark.parametrize("bounds", [{"max_prefix": -3}, {"max_prefix": -1}, {"max_period": 0},
                                    {"max_alphabet": 0}, {"max_alphabet": -1}])
def test_min_alphabet_rejects_malformed_bounds_before_searching(bounds, monkeypatch):
    monkeypatch.setattr(analysis, "_search_realizing", lambda *args: pytest.fail("searched"))
    with pytest.raises(NegBetaError, match="search bounds need") as err:
        min_alphabet_bruteforce("4321", **bounds)
    assert err.value.exit_code == 2


def test_min_alphabet_accepts_the_smallest_bounds():
    assert min_alphabet_bruteforce("21", max_prefix=0)[0] == 2
    with pytest.raises(SearchInconclusiveError):
        min_alphabet_bruteforce("21", max_prefix=0, max_period=1, max_alphabet=1)


def test_search_results_and_nodes_are_pinned(monkeypatch):
    # sha256 of the realization search's answers, and the pat_of_word calls
    # made on the way: the search visits the same digit strings in the same
    # order, so the first witness it reports stays the same
    calls = []
    real = analysis.pat_of_word
    monkeypatch.setattr(analysis, "pat_of_word", lambda w, n: calls.append(n) or real(w, n))
    lines = [f"{pi} {size} {w}" for n in range(2, 7) for pi in all_permutations(n)
             for size, w in [min_alphabet_bruteforce(pi)]]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "346d9eaad1a1479aaeb0bafec3447d00f5734d2e61a08f17788cd4aacabcb228"
    reports = [sandwich_check(pi).to_json() for n in (4, 5) for pi in all_permutations(n)
               if analyze(pi).b_minus != 1]
    assert hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest() == \
        "beefea0e65057d383b4459a6b56a0865dfd067521f940b56710b820a82710819"
    assert len(calls) == 6582


def test_witness_words_match_worked_examples():
    assert witness_word("3421") == word("1(100)")
    assert witness_word("453261") == word("110010(2)")


def test_witness_word_contract():
    for s in ["7325416", "4321", "4132", "892364157"]:
        pi = parse_permutation(s)
        r = analyze(pi)
        w = witness_word(pi)
        assert pat_of_word(w, pi.n) == pi
        from negbeta.analysis import _beta_plus

        beta = _beta_plus(r.b_minus, Fraction(1, 20))
        assert MembershipOracle(beta).contains(w)


def test_realizable_at_controls():
    assert realizable_at("1423", 2) is not None
    assert realizable_at("1423", Fraction(3, 2)) is None
    assert realizable_at("4321", Fraction(9, 4)) is not None
    assert realizable_at("4321", Fraction(11, 5)) is None
    assert realizable_at("1234", 2) is None


def test_sandwich_representative(monkeypatch):
    calls = []
    real = analysis.analyze
    monkeypatch.setattr(analysis, "analyze", lambda pi: calls.append(pi) or real(pi))
    rep = sandwich_check("1423")
    assert len(calls) == 1  # the witness search reuses the sandwich's report
    assert rep.passed
    assert rep.witness_above is not None
    assert rep.found_below is None and rep.found_at is None


def test_sandwich_decides_exactly_whether_the_base_below_exceeds_one(monkeypatch):
    bases = []
    monkeypatch.setattr(analysis, "realizable_at",
                        lambda pi, beta, precision=None: bases.append(beta))
    fib = [0, 1]
    while len(fib) < 103:
        fib.append(fib[-1] + fib[-2])
    # B-(1423) is the golden ratio phi.  The convergents F(100)/F(101) and
    # F(101)/F(102) of phi - 1 lie below and above it, within 2^-138: closer
    # than any interval of phi that the sandwich refines
    assert sandwich_check("1423", Fraction(fib[100], fib[101])).found_below is None
    assert len(bases) == 2  # phi - margin exceeds 1: searched below, then at phi
    bases.clear()
    sandwich_check("1423", Fraction(fib[101], fib[102]))
    assert len(bases) == 1  # searched at phi only


@pytest.mark.parametrize("call", [lambda: sandwich_check("312", 0.05),
                                  lambda: witness_word("312", 0.05),
                                  lambda: pat_of_orbit(2, 0.4, 3)],
                         ids=["sandwich_check", "witness_word", "pat_of_orbit"])
def test_a_float_margin_or_start_point_is_a_type_error(call):
    # the float's binary value is not the rational meant
    with pytest.raises(TypeError, match="float"):
        call()


def test_sandwich_oracles_search_periods_only_at_possible_algebraic_integers(monkeypatch):
    steps = collections.Counter()
    real_step = dynamics._AlgebraicArith.step
    monkeypatch.setattr(dynamics._AlgebraicArith, "step",
                        lambda arith, x: steps.update([arith]) or real_step(arith, x))
    oracles = []

    class Recording(MembershipOracle):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            oracles.append(self)

    monkeypatch.setattr(analysis, "MembershipOracle", Recording)
    seen = {}
    for pi in ("4321", "14523", "23541"):
        oracles.clear()
        assert sandwich_check(pi).passed
        seen[pi] = [(o.word and str(o.word), o.period_budget, steps[o.stream.arith]) for o in oracles]
    # above B- + 1/20, below B- - 1/20 and at B-; only B- is an algebraic
    # integer, and the steps at B- +- 1/20 are the tail comparisons alone
    assert seen == {
        "4321": [(None, 20000, 6), (None, 20000, 4), ("21(0)", 600, 3)],
        "14523": [(None, 20000, 8), (None, 20000, 6), ("1(0)", 600, 2)],
        "23541": [(None, 20000, 4), (None, 20000, 0), ("(2)", 600, 1)],
    }
