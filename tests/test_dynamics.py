import contextlib
import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import expansion_oracle
import sturm_oracle
from coeffs import _mul
from negbeta import dynamics
from negbeta.algebraic import (
    AlgebraicNumber,
    IntPolynomial,
    _over_common_denominator,
    _poly_gcd,
    _sign_at,
    _strip,
    b_of,
    isolate_real_roots,
    largest_root_gt1,
    poly_from_descending,
    shift_root,
)
from negbeta.cli import parse_beta
from negbeta.dynamics import (
    DEFAULT_PRECISION,
    BetaValue,
    MembershipOracle,
    conjugacy_map,
    expansion_digits,
    expansion_of_one,
    initial_state,
    interval_map_step,
    lower_bound_word,
    orbit_points,
    shift_membership,
    step,
    t_step_rational,
    validate_expansion,
)
from negbeta.errors import (
    InvariantError,
    NegBetaError,
    SupNotFixedError,
    UndecidableAtPrecisionError,
)
from negbeta.words import parse_word, sup_of_shifts, word, words_over

GOLDEN = poly_from_descending(1, -1, -1)
FIG1_BASE = poly_from_descending(1, -3, 1)  # larger root is (3+sqrt 5)/2


def beta_golden():
    return BetaValue.from_algebraic(largest_root_gt1(GOLDEN))


# --- single steps -----------------------------------------------------------------

def test_step_rational_point():
    st0 = initial_state(2, Fraction(2, 5))
    st1 = step(2, st0)
    assert st1.digits_so_far == (0,)
    assert st1.current == (Fraction(1, 5), Fraction(1, 5))


def test_step_fixed_point_at_one():
    st0 = initial_state(2, 1)
    st1 = step(2, st0)
    assert st1.digits_so_far == (2,)
    assert st1.current == (Fraction(1), Fraction(1))


def test_step_exact_integer_hit_in_quadratic_field():
    beta = BetaValue.from_algebraic(largest_root_gt1(FIG1_BASE))
    st0 = initial_state(beta, 1)
    st1 = step(beta, st0)
    assert st1.digits_so_far == (2,)
    lo, hi = st1.current
    # the image is exactly 3 - beta = (3 - sqrt 5)/2
    assert lo <= Fraction(382, 1000) <= hi or abs(float(lo) - 0.381966) < 1e-6
    st2 = step(beta, st1)
    assert st2.digits_so_far == (2, 1)
    assert st2.current == (Fraction(1), Fraction(1))


def test_digits_bounded_by_floor():
    for beta in (Fraction(5, 2), Fraction(3), beta_golden()):
        digits = expansion_digits(beta, Fraction(7, 9), 40)
        cap = BetaValue.of(beta).floor()
        assert all(0 <= d <= cap for d in digits)


def test_digit_stream_positions_are_one_based():
    stream = dynamics.DigitStream(Fraction(21, 10))
    assert stream.digit(3) == 0 and stream.digits == [2, 1, 0]
    for k in (0, -1):
        with pytest.raises(IndexError):
            stream.digit(k)
    with pytest.raises(IndexError):
        dynamics.DigitStream(Fraction(21, 10)).digit(0)


# --- expansion of 1 ------------------------------------------------------------------

def test_expansion_of_one_integer_base():
    for base, expected in ((2, "(2)"), (3, "(3)")):
        res = expansion_of_one(base)
        assert res.is_periodic and res.word == word(expected)


def test_expansion_of_one_golden():
    res = expansion_of_one(beta_golden())
    assert res.word == word("1(0)")


def test_expansion_of_one_fig1_base():
    beta = BetaValue.from_algebraic(largest_root_gt1(FIG1_BASE))
    assert expansion_of_one(beta).word == word("(21)")


def test_expansion_of_one_non_integer_rational_never_periodic():
    for base, budget in ((Fraction(7, 3), 60), (Fraction(3, 2), 200)):
        res = expansion_of_one(base, max_digits=budget)
        assert not res.is_periodic
        assert len(res.digits) == budget


def test_expansion_of_degree_eight_base():
    beta = BetaValue.from_algebraic(b_of(word("(30121023)")))
    assert expansion_of_one(beta).word == word("(30121023)")


# --- rational bases: the orbit arithmetic at degree 1 against plain Fractions ------

@st.composite
def rational_bases(draw):
    q = draw(st.integers(1, 12))
    return Fraction(draw(st.integers(q + 1, 5 * q)), q)


@given(rational_bases(), st.integers(1, 30).flatmap(
    lambda den: st.builds(Fraction, st.integers(1, den), st.just(den))),
    st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_rational_base_orbit_matches_fraction_iteration(beta, x, count):
    points, digits = [x], []
    for _ in range(count):
        v = beta * x
        digits.append(v.numerator // v.denominator)
        x = t_step_rational(beta, x)
        points.append(x)
    assert expansion_digits(beta, points[0], count) == tuple(digits)
    arith, orbit = orbit_points(beta, points[0], count + 1)
    tol = Fraction(1, 2**64)
    assert [arith.enclosure(pt, tol) for pt in orbit] == [(f, f) for f in points]


# --- admissibility -------------------------------------------------------------------

def test_lower_bound_forms():
    assert lower_bound_word(word("(2)")) == word("(01)")
    assert lower_bound_word(word("(21)")) == word("0(21)")
    assert lower_bound_word(word("1(0)")) == word("01(0)")


def test_membership_examples():
    assert shift_membership(word("(2)"), word("(2)"))
    assert not shift_membership(word("(10)"), word("(2)"))
    # the witness word sits exactly on the boundary: in the shift for every
    # base above 2, not at 2 itself (it ends with 0 followed by its own sup)
    assert not shift_membership(word("110010(2)"), word("(2)"))
    oracle = MembershipOracle(Fraction(21, 10))
    assert oracle.contains(word("110010(2)"))


def test_membership_oracle_digit_bounds():
    # certified purely periodic expansion of odd period: the lower bound is
    # the decremented form (01), not 0 followed by the expansion, 0(2)
    oracle = MembershipOracle(2)
    assert oracle.word == word("(2)")
    assert [oracle.d1_digit(i) for i in range(1, 6)] == [2, 2, 2, 2, 2]
    assert [oracle.lower_digit(i) for i in range(1, 6)] == [0, 1, 0, 1, 0]
    # no period certified: the lower bound is read as 0 followed by d1
    oracle = MembershipOracle(Fraction(21, 10))
    assert oracle.word is None
    d1 = [oracle.d1_digit(i) for i in range(1, 8)]
    assert [oracle.lower_digit(i) for i in range(1, 9)] == [0] + d1


def test_membership_oracle_searches_periods_unless_the_base_is_certified():
    # the root 1/2 of (2x - 1)(x^2 - x - 1) hides the golden ratio from the
    # certificate, so its oracle still finds the period of 1(0)
    poly = IntPolynomial(_mul((-1, 2), (-1, -1, 1)))
    oracle = MembershipOracle(isolate_real_roots(poly, Fraction(1), Fraction(2))[0])
    assert oracle.word == word("1(0)") and oracle.period_budget == 600
    shifted = MembershipOracle(shift_root(largest_root_gt1(GOLDEN), Fraction(1, 20)))
    assert shifted.word is None and shifted.period_budget == shifted.compare_cap
    assert shifted.stream.digits == []


def test_membership_monotone_across_the_base():
    w = word("110010(2)")
    b = b_of(sup_of_shifts(w))
    assert b.exact == 2
    for below in (Fraction(3, 2), Fraction(9, 5)):
        assert not MembershipOracle(below).contains(w)
    for above in (Fraction(21, 10), Fraction(5, 2), Fraction(3)):
        assert MembershipOracle(above).contains(w)


@given(st.integers(2, 3), st.integers(1, 30), st.integers(1, 50))
@settings(max_examples=40, deadline=None)
def test_expansion_tails_dominated_by_expansion_of_one(den_base, num, xnum):
    beta = Fraction(den_base) + Fraction(num, 31)
    x = Fraction(xnum, 51)
    dx = expansion_digits(beta, x, 48)
    d1 = expansion_digits(beta, 1, 60)
    for shift in range(0, 8):
        tail = dx[shift:shift + 40]
        for i, (a, b) in enumerate(zip(tail, d1), start=1):
            if a != b:
                assert (a < b) == (i % 2 == 1), (shift, i)
                break


# --- validation round trips -----------------------------------------------------------

def test_validate_expansion_examples():
    assert validate_expansion(word("(2)"))
    assert not validate_expansion(word("(10)"))
    assert validate_expansion(word("21(0)"))
    assert validate_expansion(word("1(0)"))


def test_validate_expansion_rejects_low_words():
    with pytest.raises(SupNotFixedError, match="is not the sup of its shifts"):
        validate_expansion(word("(12)"))
    with pytest.raises(NegBetaError, match="lies below the substitution fixed point; its base is 1"):
        validate_expansion(word("(100)"))


def _invert_corpus():
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "data" / "invert_corpus.json"
    return [parse_word(text) for texts in json.loads(path.read_text()).values() for text in texts]


@pytest.mark.parametrize("corpus, expansions", [
    ((4, 4, 5, 5), 822),   # criterion 7, with the words it leaves out
    ((6, 3, 4, 5), 4254),
    ("invert", 822),       # the benchmark's invert corpus
])
def test_the_expansion_certificate_equals_the_orbit_walk(corpus, expansions):
    if corpus == "invert":
        words = _invert_corpus()
    else:
        *over, max_len = corpus
        words = [w for w in words_over(*over) if w.preperiod_length + w.period_length <= max_len]
    found = 0
    for w in words:
        got, want = expansion_oracle.outcomes(w, dynamics.expansion_base,
                                              expansion_oracle.walk_expansion_base)
        assert got == want, str(w)
        found += isinstance(got, tuple) and got[0]
    assert found == expansions


def _exact_tests(monkeypatch):
    """The (polynomial, answer) of every exact test the certificate makes."""
    tests, real = [], dynamics._vanishes
    monkeypatch.setattr(dynamics, "_vanishes",
                        lambda num, poly: tests.append((poly, real(num, poly))) or tests[-1][1])
    return tests


def test_an_exact_one_before_the_period_closes_refutes_the_word(monkeypatch):
    # V_3 = 1 at the base of 101(1000): T^3(1) = 1 makes the expansion (101)
    tests = _exact_tests(monkeypatch)
    w = word("101(1000)")
    assert dynamics.expansion_base(w) is None
    assert tests == [((1, -1, 2, -1), True)]  # P_3 - 1 = -x^3 + 2x^2 - x + 1
    assert expansion_oracle.walk_expansion_base(w) is None
    assert expansion_digits(dynamics.b_of(w), 1, 4) == (1, 0, 1, 1)


def test_an_exact_zero_refutes_the_word(monkeypatch):
    # at the base of (200), beta^2 - 3 beta + 1 = 0, V_1 = 3 - beta and V_2 = 0
    tests = _exact_tests(monkeypatch)
    assert dynamics.expansion_base(word("(200)")) is None
    assert tests == [((1, -3, 1), True)]  # P_2
    assert expansion_oracle.walk_expansion_base(word("(200)")) is None


@pytest.mark.parametrize("literal, base, expansion", [("(2)", 2, True), ("(3)", 3, True),
                                                      ("(10)", 2, False), ("(210)", 2, False)])
def test_an_integer_base_is_decided_by_its_point_enclosures(monkeypatch, literal, base, expansion):
    tests = _exact_tests(monkeypatch)
    got = dynamics.expansion_base(word(literal))
    assert (got is not None) == expansion and tests == []
    assert dynamics.b_of(word(literal)).exact == base


def test_an_enclosure_outside_the_unit_interval_refutes_without_an_exact_test(monkeypatch):
    tests = _exact_tests(monkeypatch)
    golden = largest_root_gt1(GOLDEN)
    (L, H), D = _over_common_denominator(golden.refine(Fraction(1, 2**128)))
    # V_1 = 3 - beta > 1; V_1 = 1 - beta < 0; then the expansion of 1, 1(0)
    assert dynamics._certificate(golden, (2, 0), L, H, D) is False
    assert dynamics._certificate(golden, (0, 0), L, H, D) is False
    assert dynamics._certificate(golden, (1, 0, 0, 0), L, H, D) is True
    assert tests == []


def test_an_undecided_certificate_refines_along_the_schedule(monkeypatch):
    widths, real = [], dynamics._certificate

    def first_undecided(b, digits, L, H, D):
        widths.append(b.interval[1] - b.interval[0])
        return None if len(widths) == 1 else real(b, digits, L, H, D)

    monkeypatch.setattr(dynamics, "_certificate", first_undecided)
    precision = dynamics.PrecisionConfig(start_bits=32, max_bits=128)
    assert dynamics.expansion_base(word("21(0)"), precision) is not None
    assert Fraction(1, 2**64) < widths[0] <= Fraction(1, 2**32) and widths[1] <= Fraction(1, 2**64)
    monkeypatch.setattr(dynamics, "_certificate", lambda *args: None)
    with pytest.raises(UndecidableAtPrecisionError):
        dynamics.expansion_base(word("21(0)"), precision)


# --- classical identities ---------------------------------------------------------------

def test_conjugacy_with_interval_version():
    rng = random.Random(7)
    for _ in range(200):
        beta = Fraction(rng.randint(11, 40), 10)
        x = Fraction(rng.randint(1, 99), 100)
        lhs = conjugacy_map(beta, t_step_rational(beta, x))
        rhs = interval_map_step(beta, conjugacy_map(beta, x))
        assert lhs == rhs


def test_conjugacy_reverses_orbit_order():
    beta = Fraction(12, 5)
    xs = [Fraction(k, 17) for k in range(1, 17)]
    ys = [conjugacy_map(beta, x) for x in xs]
    for a, b in zip(xs, ys):
        for c, d in zip(xs, ys):
            if a < c:
                assert b > d


def test_expansion_partial_sums_converge():
    rng = random.Random(11)
    for _ in range(60):
        beta = Fraction(rng.randint(11, 50), 10)
        x = Fraction(rng.randint(1, 100), 101)
        K = 25
        digits = expansion_digits(beta, x, K)
        acc = Fraction(0)
        for k, d in enumerate(digits, start=1):
            acc -= Fraction(d + 1) / (-beta) ** k
        assert abs(x - acc) < 2 / beta**K


def test_order_embedding_sample():
    rng = random.Random(13)
    for _ in range(60):
        beta = Fraction(rng.randint(11, 50), 10)
        x = Fraction(rng.randint(1, 100), 103)
        y = Fraction(rng.randint(1, 100), 103)
        if x == y:
            continue
        dx = expansion_digits(beta, x, 40)
        dy = expansion_digits(beta, y, 40)
        if dx == dy:
            continue
        k = next(i for i, (a, b) in enumerate(zip(dx, dy), start=1) if a != b)
        digit_less = (dx[k - 1] < dy[k - 1]) == (k % 2 == 1)
        assert digit_less == (x < y)


def test_membership_flips_at_the_threshold_base():
    # for sup-fixed words the shift membership flips exactly at b(w)
    for w in [word("(10)"), word("1(0)"), word("(2)"), word("21(0)")]:
        b = b_of(w)
        lo, hi = b.refine(Fraction(1, 10**6))
        below = lo - Fraction(1, 50)
        above = hi + Fraction(1, 50)
        if below > 1:
            assert not MembershipOracle(below).contains(w)
        assert MembershipOracle(above).contains(w)


# --- integer enclosures and the interval fast path of the zero test -------------

# x^4 - x^3 - 4x^2 + 3x + 3 = (x^2 - x - 1)(x^2 - 3): its smaller root above 1 is
# the golden ratio, held in a reducible field representation in which distinct
# coefficient tuples can have the same value.
GOLDEN_TIMES_SQRT3 = IntPolynomial(_mul((-1, -1, 1), (-3, 0, 1)))
DEGREE_SIX = "poly:-2,1,0,-1,0,-2,1:1"
DEGREE_SEVEN = "poly:-2,-2,-2,-2,-1,-1,-1,1:1"


def golden_reducible():
    root = isolate_real_roots(GOLDEN_TIMES_SQRT3, Fraction(1), Fraction(10))[0]
    return BetaValue.from_algebraic(root)


def enclosure_bases():
    return [beta_golden(), golden_reducible(),
            BetaValue.from_algebraic(largest_root_gt1(FIG1_BASE)),
            parse_beta(DEGREE_SIX, DEFAULT_PRECISION)]


def _enclosure_oracle(x, lo, hi):
    """Termwise interval evaluation with Fraction sums, as enclosure computed
    it before it summed integer numerators."""
    acc_lo = acc_hi = Fraction(0)
    plo, phi = Fraction(1), Fraction(1)
    for c in x:
        a, b = c * plo, c * phi
        if a > b:
            a, b = b, a
        acc_lo += a
        acc_hi += b
        plo *= lo
        phi *= hi
    return acc_lo, acc_hi


@given(st.integers(0, 3),
       st.lists(st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**6)),
                max_size=6),
       st.integers(0, 400))
@settings(max_examples=200, deadline=None)
def test_enclosure_matches_fraction_oracle(which, coeffs, bits):
    arith = dynamics._arith_for(enclosure_bases()[which], DEFAULT_PRECISION)
    x = tuple(coeffs[:arith.deg])
    tol = Fraction(1, 2**bits)
    got = arith.enclosure(_point(x), tol)
    assert got == _enclosure_oracle(x, *arith.num.refine(tol))
    assert all(type(e) is Fraction for e in got)


def test_is_zero_true_on_reduced_multiples_of_the_minimal_polynomial():
    arith = dynamics._arith_for(golden_reducible(), DEFAULT_PRECISION)
    reference = _FractionArith(arith.num)
    for r in ((1,), (2, 1), (Fraction(-3, 7), 0, 5, 1)):
        x = _point(reference._reduce([Fraction(c) for c in _mul((-1, -1, 1), r)]))
        nums, _ = x
        assert any(nums) and arith.is_zero(x)
    # the other factor does not vanish at the golden ratio
    assert not arith.is_zero(_point((Fraction(-3), Fraction(0), Fraction(1))))


def test_is_zero_true_on_a_period_repeat_at_a_yrrap_base():
    arith, pts = orbit_points(golden_reducible(), 1, 3)
    # T(1) = 2 - beta and T^2(1) = (beta - 1)^2 are equal, written differently
    assert pts[1] != pts[2]
    diff = tuple(a - b for a, b in zip(_coefficients(pts[1]) + (Fraction(0),),
                                       _coefficients(pts[2])))
    assert arith.is_zero(_point(diff)) and arith.equal(pts[1], pts[2])
    assert expansion_of_one(golden_reducible()).word == word("1(0)")


def test_nonperiodic_expansion_decides_every_zero_test_by_intervals(monkeypatch):
    calls = []
    real_gcd = dynamics._poly_gcd
    monkeypatch.setattr(dynamics, "_poly_gcd", lambda *a: calls.append(a) or real_gcd(*a))
    res = expansion_of_one(parse_beta(DEGREE_SIX, DEFAULT_PRECISION), max_digits=200)
    assert len(res.digits) == 200 and not res.is_periodic
    assert calls == []


def test_the_key_of_an_image_reuses_the_enclosure_of_its_floor(monkeypatch):
    calls = []
    real_bounds = dynamics._AlgebraicArith._bounds
    monkeypatch.setattr(dynamics._AlgebraicArith, "_bounds",
                        lambda self, x, tol: calls.append(tol) or real_bounds(self, x, tol))
    res = expansion_of_one(parse_beta(DEGREE_SIX, DEFAULT_PRECISION), max_digits=200)
    assert len(res.digits) == 200 and not res.is_periodic
    # one enclosure for the key of the start point and one per exact step, for
    # the floor; the carried steps and their keys take none.  Without the carry
    # it was 201, and computing each image's key afresh made it 401
    assert len(calls) == 1 + dynamics._CARRY_AFTER == 17
    # every key comes from an enclosure at most 2^-50 wide: a reused key is the
    # one a fresh 2^-64 enclosure gives where that is narrow, and a carried key
    # is read off its carry, within 1 of the fresh key where that is narrow
    real_key = dynamics._AlgebraicArith.key
    counts = {"reused": 0, "carried": 0}
    P = dynamics._CARRY_BITS

    def checked_key(self, x):
        got = real_key(self, x)
        lo, hi, den = real_bounds(self, x, dynamics._TOL_64)
        fresh, narrow = ((lo + hi) << 47) // den, (hi - lo) << 50 <= den
        if self._carry is not None and self._carry[0] is x:
            _, _, a, b = self._carry
            assert b - a <= 1 << (P - 50) and got == (a + b) >> (P - 47)
            assert not narrow or abs(got - fresh) <= 1
            counts["carried"] += 1
        else:
            assert narrow and got == fresh
            counts["reused"] += 1
        return got

    monkeypatch.setattr(dynamics._AlgebraicArith, "key", checked_key)
    again = expansion_of_one(parse_beta(DEGREE_SIX, DEFAULT_PRECISION), max_digits=200)
    assert again.digits == res.digits
    assert counts == {"reused": 1 + dynamics._CARRY_AFTER, "carried": 200 - dynamics._CARRY_AFTER}


def test_the_key_of_an_image_bounded_on_a_wide_interval_refines_beta_first():
    arith = dynamics._arith_for(parse_beta(DEGREE_SIX, DEFAULT_PRECISION),
                                dynamics.PrecisionConfig(32, 4096))
    _, image = arith.step(arith.one())
    lo, hi = arith.num.interval
    assert hi - lo > Fraction(1, 2**64)
    # the floor was read on a 2^-32 interval, so the key is no reused bound
    got = arith.key(image)
    lo, hi = arith.num.interval
    assert hi - lo <= Fraction(1, 2**64)
    arith._image = None
    assert arith.key(image) == got


def _horner_bounds(self, x, tol):
    """``_AlgebraicArith._bounds`` before its power tables: Horner in q over
    beta's interval refined to tol, with L^i and H^i recomputed on every call."""
    (L, H), q = _over_common_denominator(self.num.refine(tol))
    nums, den = x
    acc_lo = acc_hi = 0
    plo = phi = 1
    for n in nums:
        a, b = n * plo, n * phi
        if a > b:
            a, b = b, a
        acc_lo, acc_hi = acc_lo * q + a, acc_hi * q + b
        plo *= L
        phi *= H
    return acc_lo, acc_hi, den * q ** max(len(nums) - 1, 0)


# monic, non-monic and rational bases, built afresh for each use since refining
# mutates them
POWER_TABLE_BASES = (
    beta_golden,
    golden_reducible,
    lambda: parse_beta(DEGREE_SIX, DEFAULT_PRECISION),
    lambda: BetaValue.from_algebraic(largest_root_gt1(poly_from_descending(2, -5, 1))),
    lambda: BetaValue.from_algebraic(shift_root(largest_root_gt1(GOLDEN), Fraction(1, 20))),
    lambda: BetaValue.from_rational(Fraction(7, 3)),
    lambda: BetaValue.from_rational(3),
)
# dyadic tolerances, which the arithmetic tracks by bits, clustered so that
# calls often ask for a few bits more than the interval is known to meet, and
# decimal ones
TOLERANCES = st.one_of(
    st.one_of(st.integers(0, 300), st.integers(60, 70), st.integers(124, 132))
    .map(lambda b: Fraction(1, 2**b)),
    st.integers(1, 60).map(lambda k: Fraction(1, 10**k)))
BOUNDS_CALLS = st.one_of(
    st.tuples(st.just("refine"), TOLERANCES),
    st.tuples(st.just("bounds"), TOLERANCES,
              st.lists(st.integers(-2**300, 2**300), max_size=8), st.integers(1, 2**64)))


@given(st.integers(0, len(POWER_TABLE_BASES) - 1), st.lists(BOUNDS_CALLS, min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_bounds_from_power_tables_equal_the_horner_oracle(which, calls):
    arith = dynamics._arith_for(POWER_TABLE_BASES[which](), DEFAULT_PRECISION)
    for call in calls:
        if call[0] == "refine":
            # a refinement from outside leaves the power tables stale
            arith.num.refine(call[1])
            continue
        _, tol, nums, den = call
        x = (tuple(nums[:arith.deg]), den)
        got = arith._bounds(x, tol)
        interval = arith.num.interval
        assert interval[1] - interval[0] <= tol
        assert got == _horner_bounds(arith, x, tol)
        # _bounds left beta's interval at tol, so the oracle refined nothing
        assert arith.num.interval is interval


@pytest.mark.parametrize("digits, precision", [
    # the default schedule escalates beta to a 2^-512 interval before digit 2500
    (2500, DEFAULT_PRECISION),
    # below 64 start bits, the key of the start point refines beta to 2^-64
    (300, dynamics.PrecisionConfig(32, 4096)),
])
def test_power_tables_keep_the_refinement_history(monkeypatch, digits, precision):
    def expand():
        res = expansion_of_one(parse_beta(DEGREE_SIX, precision), max_digits=digits,
                               precision=precision)
        assert len(res.digits) == digits and not res.is_periodic
        return res.digits, res.orbit_intervals(32, Fraction(1, 2**128)), res.arith.num.interval

    fast = expand()
    monkeypatch.setattr(dynamics._AlgebraicArith, "_bounds", _horner_bounds)
    assert expand() == fast
    if digits == 2500:
        lo, hi = fast[2]
        assert Fraction(1, 2**1024) < hi - lo <= Fraction(1, 2**512)


def _carry_off(monkeypatch):
    # every carry starts from a refresh, so without one no step or key reads a carry
    monkeypatch.setattr(dynamics._AlgebraicArith, "_refresh", lambda self, x: None)


@contextlib.contextmanager
def _refine_calls(monkeypatch, num):
    """The arguments of every refine call on num inside the block."""
    calls, real = [], AlgebraicNumber.refine
    with monkeypatch.context() as m:
        m.setattr(AlgebraicNumber, "refine",
                  lambda self, *a: (self is num and calls.append(a)) or real(self, *a))
        yield calls


@given(st.integers(0, len(POWER_TABLE_BASES) - 1), st.integers(1, 2**40), st.integers(0, 2**40),
       st.integers(dynamics._CARRY_AFTER + 1, 120))
@settings(max_examples=60, deadline=None)
def test_a_carried_enclosure_contains_its_point(which, den, num, steps):
    beta = POWER_TABLE_BASES[which]()
    arith, x = dynamics._start(beta, Fraction(num % den + 1, den), DEFAULT_PRECISION)
    # the exact value, from the Horner oracle on an independent copy of beta
    oracle = dynamics._arith_for(BetaValue(AlgebraicNumber(beta.algebraic.polynomial,
                                                           beta.algebraic.interval)),
                                 DEFAULT_PRECISION)
    for _ in range(steps):
        _, x = arith.step(x)
        carry = arith._carry
        if carry is None:
            continue
        point, _, a, b = carry
        assert point is x and 0 <= a <= b
        nums, den_x = x
        tol = Fraction(1, 2**(max(map(abs, nums)).bit_length() - den_x.bit_length()
                               + 2 * dynamics._CARRY_BITS))
        lo, hi, d = _horner_bounds(oracle, x, tol)
        # a/2^P <= lo/d <= x <= hi/d <= b/2^P
        assert a * d <= lo << dynamics._CARRY_BITS and hi << dynamics._CARRY_BITS <= b * d


def _mul_beta(arith, x):
    """beta * x, reduced modulo the defining polynomial, as the step computed
    it before it built -beta * x in one list."""
    nums, den = x
    if len(nums) < arith.deg:
        return (0, *nums), den
    c, lead = nums[-1], arith.sf[-1]
    if lead == 1:
        out = [a - c * s for a, s in zip((0, *nums[:-1]), arith.sf)]
    else:
        out = [lead * a - c * s for a, s in zip((0, *nums[:-1]), arith.sf)]
        den *= lead
    while out and out[-1] == 0:
        out.pop()
    if lead != 1:
        g = gcd(den, *out)
        if g > 1:
            out = [a // g for a in out]
            den //= g
    return tuple(out), den


def _carried_floor(arith, x, v):
    """(d, a, b): the floor of v = beta*x off the carry of x and [a, b] / 2^P
    around d + 1 - v, or None where the exact step would not decide d at
    once, as the step computed it before it built -beta * x in one list."""
    P = dynamics._CARRY_BITS
    carry = arith._carry if arith._carry and arith._carry[0] is x else arith._refresh(x)
    if carry is None:
        return None
    _, _, a, b = carry
    _, _, _, bl, bh = arith._twin
    lo, hi = bl * a, bh * b
    d = lo >> 2 * P
    gap_lo, gap_hi = lo - (d << 2 * P), ((d + 1) << 2 * P) - hi
    gap = min(gap_lo, gap_hi)
    if arith._slack is None:
        arith._slack = [(t.bit_length() - row[0][0].bit_length() + 2 + 2 * P
                         if (t := sum(h - l for l, h in row)) else -math.inf)
                        for row in arith._powers]
    nums, den = v
    k = max(map(abs, nums)).bit_length() - den.bit_length() + arith._slack[len(nums) - 1]
    if gap <= 0 or gap.bit_length() <= k:
        return None
    return d, gap_hi >> P, (1 << P) - (gap_lo >> P)


def _composed_step(arith, x):
    """``_AlgebraicArith.step`` as the composition of ``_mul_beta`` with
    ``_carried_floor`` or ``_certified_floor``."""
    v = _mul_beta(arith, x)
    carried = (_carried_floor(arith, x, v) if arith._exact_steps >= dynamics._CARRY_AFTER
               and arith.num.interval is arith._interval and arith._bits >= arith._carry_bits
               else None)
    if carried is None:
        arith._exact_steps += 1
        arith._carry = None
        d, bounds = arith._certified_floor(v)
        if bounds is None:
            return d, arith.one()
    else:
        d, a, b = carried
    nums, den = arith._minus_int(v, d + 1)
    nxt = [-n for n in nums]
    while nxt and nxt[-1] == 0:
        nxt.pop()
    image = (tuple(nxt), den)
    if carried is None:
        lo, hi, D = bounds
        arith._image = (image, arith._interval, ((d + 1) * D - hi, (d + 1) * D - lo, D))
    elif b - a <= 1 << (dynamics._CARRY_BITS - dynamics._KEY_BITS):
        arith._carry = (image, arith._interval, a, b)
    else:
        arith._carry = arith._refresh(image)
    return d, image


@given(st.integers(0, len(POWER_TABLE_BASES) - 1), st.integers(1, 2**40), st.integers(0, 2**40),
       st.integers(dynamics._CARRY_AFTER + 1, 120),
       st.sampled_from([DEFAULT_PRECISION, dynamics.PrecisionConfig(32, 4096)]))
@settings(max_examples=60, deadline=None)
def test_the_one_list_step_equals_the_composed_oracle(which, den, num, steps, precision):
    beta = POWER_TABLE_BASES[which]()
    twin = BetaValue(AlgebraicNumber(beta.algebraic.polynomial, beta.algebraic.interval))
    start = Fraction(num % den + 1, den)
    arith, x = dynamics._start(beta, start, precision)
    oracle, y = dynamics._start(twin, start, precision)
    for _ in range(steps):
        d, x = arith.step(x)
        e, y = _composed_step(oracle, y)
        assert (d, x) == (e, y)
        assert (arith._carry and arith._carry[2:]) == (oracle._carry and oracle._carry[2:])
        assert arith._exact_steps == oracle._exact_steps
        assert arith.num.interval == oracle.num.interval


@pytest.mark.parametrize("digits, precision", [
    # the default schedule escalates beta to a 2^-512 interval before digit 2500
    (2500, DEFAULT_PRECISION),
    # below 64 start bits, the key of the start point refines beta to 2^-64
    (300, dynamics.PrecisionConfig(32, 4096)),
])
def test_the_carry_keeps_the_refinement_history(monkeypatch, digits, precision):
    def expand():
        beta = parse_beta(DEGREE_SIX, precision)
        with _refine_calls(monkeypatch, beta.algebraic) as calls:
            res = expansion_of_one(beta, max_digits=digits, precision=precision)
        assert len(res.digits) == digits and not res.is_periodic
        return (res.digits, res.orbit_intervals(32, Fraction(1, 2**128)), calls,
                beta.algebraic.interval), res.arith._exact_steps

    carried, exact_steps = expand()
    assert exact_steps < digits // 10
    _carry_off(monkeypatch)
    assert expand() == (carried, digits)


def test_the_carry_waits_while_a_decimal_refinement_leaves_the_bits_unknown(monkeypatch):
    # after an enclosure at a decimal tolerance, beta's interval meets no known
    # dyadic width, so the next exact step refines to the first tolerance again
    def run():
        beta = parse_beta(DEGREE_SIX, DEFAULT_PRECISION)
        with _refine_calls(monkeypatch, beta.algebraic) as calls:
            arith, x = dynamics._start(beta, 1, DEFAULT_PRECISION)
            digits = []
            for k in range(1, 301):
                d, x = arith.step(x)
                digits.append(d)
                if k % 50 == 0:
                    arith.enclosure(x, Fraction(1, 10**(40 + k // 5)))
        return digits, calls, beta.algebraic.interval

    carried = run()
    assert sum(call == (Fraction(1, 2**128),) for call in carried[1]) > 3
    _carry_off(monkeypatch)
    assert run() == carried


@given(st.integers(0, len(POWER_TABLE_BASES) - 1),
       st.lists(st.integers(-2**200, 2**200), min_size=1, max_size=8), st.integers(1, 2**64))
@settings(max_examples=100, deadline=None)
def test_the_width_bound_of_the_carry_holds_for_every_termwise_enclosure(which, nums, den):
    arith, x = dynamics._start(POWER_TABLE_BASES[which](), Fraction(2, 7), DEFAULT_PRECISION)
    for _ in range(dynamics._CARRY_AFTER + 1):
        _, x = arith.step(x)
    point = (tuple(nums[:arith.deg]), den)
    # the exact step's first enclosure, on the interval the bound was built for
    lo, hi, d = arith._bounds(point, Fraction(1, 2**128))
    k = (max(map(abs, point[0])).bit_length() - den.bit_length()
         + arith._slack[len(point[0]) - 1])
    if k == -math.inf:
        assert lo == hi
    else:
        assert Fraction(hi - lo, d) < Fraction(2) ** (k - 2 * dynamics._CARRY_BITS)


# the threshold base of 24,4,3,12,17,16,18,19,21,9,5,1,23,6,11,7,8,22,10,15,13,2,20,14,
# whose expansion of 1, 9004667882009131293(5408), repeats at digit 23
LATE_REPEAT = "poly:-5,-9,-2,4,0,8,7,1,-3,-1,-1,-8,7,-4,-2,4,-7,6,3,4,-1,1,-10,1:1"
# a degree-19 threshold base whose expansion of 1,
# 10,4,6,0,1,7,4,5,6,2,6(10,8,1,3,3,10,9,8), returns to point 11 at digit 19;
# on a 2^-64 interval the exact enclosures of its points are wider than 2^-50
EARLY_REPEAT = "poly:-2,7,-4,-2,1,-6,-7,10,0,-2,4,5,-5,8,-2,1,-7,5,-11,1:1"


@pytest.mark.parametrize("precision", [DEFAULT_PRECISION, dynamics.PrecisionConfig(32, 4096)])
@pytest.mark.parametrize("spec, budget, repeat", [
    ("21/10", 400, None), ("poly:-1,-1,-1,1:1", 100, 2), (LATE_REPEAT, 100, 19),
    (EARLY_REPEAT, 100, 11)])
def test_the_carry_finds_the_same_period(monkeypatch, precision, spec, budget, repeat):
    def detect():
        repeats = []
        real = dynamics.DigitStream._find_repeat
        with monkeypatch.context() as m:
            m.setattr(dynamics.DigitStream, "_find_repeat",
                      lambda self, *a: repeats.append(real(self, *a)) or repeats[-1])
            stream = dynamics.DigitStream(parse_beta(spec, precision), 1, precision,
                                          max_digits=budget + 1)
            word = stream.detect_period(budget)
        return stream.digits, word, [i for i in repeats if i is not None]

    carried = detect()
    _carry_off(monkeypatch)
    assert detect() == carried
    if repeat is not None:
        assert carried[2] == [repeat]
    if spec == LATE_REPEAT:
        assert carried[1] == word("9004667882009131293(5408)")


@pytest.mark.parametrize("shift", [1, -1])
@pytest.mark.parametrize("spec, repeat", [
    ("poly:-1,-1,-1,1:1", 2), (LATE_REPEAT, 19), (EARLY_REPEAT, 11)])
def test_a_repeat_is_found_when_equal_points_are_keyed_one_apart(monkeypatch, shift, spec,
                                                                  repeat):
    def detect():
        stream = dynamics.DigitStream(parse_beta(spec, DEFAULT_PRECISION), 1, DEFAULT_PRECISION,
                                      max_digits=101)
        return stream.detect_period(100), stream.digits

    expected = detect()
    # the points are keyed in order, from the start point 0; every point after
    # the repeated one keys shift off, as equal points may
    calls, real = itertools.count(), dynamics._AlgebraicArith.key
    monkeypatch.setattr(dynamics._AlgebraicArith, "key",
                        lambda self, x: real(self, x) + shift * (next(calls) > repeat))
    assert detect() == expected


@pytest.mark.parametrize("spec", [DEGREE_SIX, DEGREE_SEVEN])
def test_an_expansion_refines_beta_once_per_interval(monkeypatch, spec):
    beta = parse_beta(spec, DEFAULT_PRECISION)
    calls = []
    real = AlgebraicNumber.refine
    monkeypatch.setattr(AlgebraicNumber, "refine", lambda self, *a: calls.append(a) or real(self, *a))
    res = expansion_of_one(beta, max_digits=1000)
    assert len(res.digits) == 1000 and not res.is_periodic
    # refining for each enclosure and each key made 2,002 calls
    assert len(calls) <= 5


# --- the Fraction orbit arithmetic, kept as the reference -------------------------

def _point(coeffs):
    """A tuple of Fraction coefficients as (integer numerators, shared denominator)."""
    nums, den = _over_common_denominator(coeffs)
    return tuple(nums), den


def _coefficients(pt):
    nums, den = pt
    return tuple(Fraction(n, den) for n in nums)


class _FractionArith:
    """Orbit arithmetic in Q(beta) on tuples of Fraction coefficients, as
    `_AlgebraicArith` computed it before points became integer numerators over
    one shared denominator."""

    def __init__(self, num, precision=DEFAULT_PRECISION):
        self.num = num
        self.sf = num._sf
        self.deg = len(self.sf) - 1
        self.precision = precision

    def _reduce(self, coeffs):
        lead = Fraction(self.sf[-1])
        while len(coeffs) > self.deg:
            c = coeffs.pop()
            if c:
                k = len(coeffs) - self.deg
                for i, s in enumerate(self.sf[:-1]):
                    coeffs[k + i] -= c * s / lead
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return tuple(coeffs)

    def is_zero(self, x):
        if not x:
            return True
        lo, hi = self.enclosure(x, Fraction(1, 2**64))
        if lo > 0 or hi < 0:
            return False
        ints = _strip(_over_common_denominator(x)[0])
        if not ints:
            return True
        g = _poly_gcd(self.sf, ints)
        if len(g) <= 1:
            return False
        lo, hi = self.num.refine(Fraction(1, 2**24))
        return sturm_oracle.count_real_roots(g, lo, hi) > 0 or _sign_at(g, lo) == 0

    def enclosure(self, x, tol):
        return _enclosure_oracle(x, *self.num.refine(tol))

    def sign(self, x):
        if self.is_zero(x):
            return 0
        for tol in self.precision.tolerances():
            lo, hi = self.enclosure(x, tol)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
        raise UndecidableAtPrecisionError("sign undecided")

    def equal(self, x, y):
        if x == y:
            return True
        diff = [a - b for a, b in itertools.zip_longest(x, y, fillvalue=Fraction(0))]
        return self.is_zero(tuple(diff))

    def compare(self, x, y):
        diff = tuple(a - b for a, b in itertools.zip_longest(x, y, fillvalue=Fraction(0)))
        return self.sign(diff)

    def _certified_floor(self, x):
        for tol in self.precision.tolerances():
            lo, hi = self.enclosure(x, tol)
            flo, fhi = lo.__floor__(), hi.__floor__()
            if flo == fhi:
                return flo, lo
            if fhi - flo == 1:
                probe = list(x) or [Fraction(0)]
                probe[0] -= fhi
                if self.is_zero(tuple(probe)):
                    return fhi, lo
        raise UndecidableAtPrecisionError("floor undecided")

    def step(self, x):
        v = self._reduce([Fraction(0), *x])
        d, lo = self._certified_floor(v)
        probe = list(v) or [Fraction(0)]
        probe[0] -= d
        if lo <= d and self.is_zero(tuple(probe)):
            return d, (Fraction(1),)
        nxt = [-c for c in v]
        if nxt:
            nxt[0] += d + 1
        else:
            nxt = [Fraction(d + 1)]
        while nxt and nxt[-1] == 0:
            nxt.pop()
        return d, tuple(nxt)

    def key(self, x):
        lo, hi = self.enclosure(x, Fraction(1, 2**64))
        return int((lo + hi) / 2 * 2**48)


def oracle_base(which):
    """The reducible golden ratio, the degree-6 base, and that base plus 1/20,
    whose defining polynomial is not monic."""
    if which == 0:
        return golden_reducible()
    deg6 = parse_beta(DEGREE_SIX, DEFAULT_PRECISION)
    if which == 1:
        return deg6
    return BetaValue.from_algebraic(shift_root(deg6.algebraic, Fraction(1, 20)))


fractions_in_unit = st.builds(lambda a, b: Fraction(min(a, b), max(a, b)),
                              st.integers(1, 10**4), st.integers(1, 10**4))
small_fractions = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**3))


@given(st.integers(0, 2), fractions_in_unit, st.integers(1, 40),
       st.lists(small_fractions, max_size=7), st.integers(0, 300), st.randoms())
@settings(max_examples=60, deadline=None)
def test_integer_orbit_arithmetic_matches_fraction_oracle(which, x, count, extra, bits, rnd):
    beta = oracle_base(which)
    arith = dynamics._arith_for(beta, DEFAULT_PRECISION)
    reference = _FractionArith(arith.num)
    monic = arith.sf[-1] == 1
    assert monic == (which != 2)
    pts, refs = [arith.from_rational(x)], [(x,)]
    for _ in range(count):
        d, nxt = arith.step(pts[-1])
        assert (d, _coefficients(nxt)) == reference.step(refs[-1])
        if not monic:
            assert gcd(nxt[1], *nxt[0]) == 1
        pts.append(nxt)
        refs.append(reference._reduce([Fraction(c) for c in _coefficients(nxt)]))
    extra = tuple(extra[:arith.deg])
    while extra and extra[-1] == 0:
        extra = extra[:-1]
    pts.append(_point(extra))
    refs.append(extra)
    tol = Fraction(1, 2**bits)
    for i in range(len(pts)):
        j = rnd.randrange(len(pts))
        assert arith.equal(pts[i], pts[j]) == reference.equal(refs[i], refs[j])
        assert arith.compare(pts[i], pts[j]) == reference.compare(refs[i], refs[j])
        assert arith.enclosure(pts[i], tol) == reference.enclosure(refs[i], tol)
        assert arith.key(pts[i]) == reference.key(refs[i])


def test_step_reuses_the_orbit_arithmetic_of_its_state(monkeypatch):
    built = []
    real = dynamics._arith_for
    monkeypatch.setattr(dynamics, "_arith_for", lambda *a: built.append(a) or real(*a))
    beta = parse_beta(DEGREE_SIX, DEFAULT_PRECISION)
    state = initial_state(beta, 1)
    for _ in range(32):
        state = step(beta, state)
    assert len(built) == 1
    # the same base given as another object is served by its own arithmetic
    other = parse_beta(DEGREE_SIX, DEFAULT_PRECISION)
    assert step(other, state).digits_so_far[:32] == state.digits_so_far
    assert len(built) == 2


def test_the_public_step_reads_floor_beta_once_per_arithmetic(monkeypatch):
    beta = parse_beta(DEGREE_SIX, DEFAULT_PRECISION)
    floors = []
    real = AlgebraicNumber.floor
    monkeypatch.setattr(AlgebraicNumber, "floor", lambda num: floors.append(num) or real(num))
    state = initial_state(beta, 1)
    for _ in range(32):
        state = step(beta, state)
    assert floors == [beta.algebraic]
    assert state.digits_so_far == expansion_of_one(beta, 32, detect_period=False).digits


def test_step_at_a_rational_given_as_a_number_builds_one_arithmetic(monkeypatch):
    beta = BetaValue.of(Fraction(3, 2))
    refs = [initial_state(beta, 1)]
    for _ in range(300):
        refs.append(step(beta, refs[-1]))
    built, numbers = [], []
    real = dynamics._arith_for
    monkeypatch.setattr(dynamics, "_arith_for", lambda *a: built.append(a) or real(*a))
    state = initial_state(Fraction(3, 2), 1)
    real_number = AlgebraicNumber.__post_init__
    monkeypatch.setattr(AlgebraicNumber, "__post_init__",
                        lambda num: numbers.append(num) or real_number(num))
    for ref in refs[1:]:
        state = step(Fraction(3, 2), state)
        assert state.current == ref.current
    assert state.digits_so_far == refs[-1].digits_so_far
    assert len(built) == 1
    assert numbers == []  # the steps ask the state's arithmetic, not BetaValue.of


def test_step_rejects_a_state_of_another_base():
    golden = beta_golden()
    state = step(golden, initial_state(golden, Fraction(2, 5)))
    with pytest.raises(NegBetaError):  # a rational base on an algebraic state
        step(2, state)
    with pytest.raises(NegBetaError):  # another algebraic base would misreduce the point
        step(parse_beta(DEGREE_SIX, DEFAULT_PRECISION), state)
    with pytest.raises(NegBetaError):
        step(golden, initial_state(2, Fraction(2, 5)))
    with pytest.raises(NegBetaError):
        step(3, initial_state(2, Fraction(2, 5)))
    # the same number given as another object still steps
    assert step(beta_golden(), state).digits_so_far == expansion_digits(golden, Fraction(2, 5), 2)


def test_expansion_without_period_detection_gives_exactly_the_digits_asked():
    res = expansion_of_one(2, max_digits=10, detect_period=False)
    assert res.digits == (2,) * 10 and res.word is None and not res.is_periodic
    golden = expansion_of_one(beta_golden(), max_digits=7, detect_period=False)
    assert golden.digits == (1,) + (0,) * 6 and golden.word is None
    assert len(golden.orbit_intervals(32, Fraction(1, 2**128))) == 7


def test_precision_config_rejects_nonpositive_bits():
    for start, top in [(-5, -5), (0, 0), (0, 64), (256, 128)]:
        with pytest.raises(NegBetaError):
            dynamics.PrecisionConfig(start_bits=start, max_bits=top)


def test_two_arithmetics_on_one_config_share_its_tolerances():
    config = dynamics.PrecisionConfig(start_bits=48, max_bits=200)
    assert config.tolerances() == tuple(Fraction(1, 2**b) for b in (48, 96, 192, 384))
    golden, fig1 = largest_root_gt1(GOLDEN), largest_root_gt1(FIG1_BASE)
    first, second = dynamics._AlgebraicArith(golden, config), dynamics._AlgebraicArith(fig1, config)
    # built once, with the config, not once per arithmetic
    assert first._tolerances is second._tolerances is config.tolerances()
    assert dynamics.PrecisionConfig(64, 64).tolerances() == (Fraction(1, 2**64),)
    assert config == dynamics.PrecisionConfig(start_bits=48, max_bits=200)


# --- bases: what BetaValue accepts ----------------------------------------------------

def test_from_algebraic_accepts_a_root_whose_interval_starts_at_one(monkeypatch):
    # the comparison with 1 is one exact sign, so it refines nothing
    compares, refines = [], []
    real_compare, real_refine = AlgebraicNumber.compare, AlgebraicNumber.refine

    def compare(n, o):
        compares.append(o)
        return real_compare(n, o)

    monkeypatch.setattr(AlgebraicNumber, "compare", compare)
    monkeypatch.setattr(AlgebraicNumber, "refine", lambda n, *a: refines.append(a) or real_refine(n, *a))
    golden = AlgebraicNumber(GOLDEN, (Fraction(1), Fraction(2)))
    assert BetaValue.from_algebraic(golden).algebraic is golden
    assert refines == [] and golden.interval == (Fraction(1), Fraction(2))
    # nor does an interval reaching below 1
    low = AlgebraicNumber(GOLDEN, (Fraction(1, 2), Fraction(2)))
    assert BetaValue.from_algebraic(low).algebraic is low
    assert compares == [1, 1] and refines == [] and low.interval == (Fraction(1, 2), Fraction(2))


def test_from_algebraic_rejects_one_and_numbers_below_it():
    one = poly_from_descending(1, -1)
    inverse_golden = poly_from_descending(1, 1, -1)  # (sqrt 5 - 1) / 2
    for num in (AlgebraicNumber(one, (Fraction(1, 2), Fraction(3, 2))),
                AlgebraicNumber(one, (Fraction(1), Fraction(2))),
                AlgebraicNumber(IntPolynomial(_mul((-1, 1), (-1, -1, 1))), (Fraction(1), Fraction(3, 2))),
                AlgebraicNumber(inverse_golden, (Fraction(1, 2), Fraction(1))),
                AlgebraicNumber(inverse_golden, (Fraction(1, 2), Fraction(3, 2)))):
        with pytest.raises(NegBetaError, match="base must exceed 1"):
            BetaValue.from_algebraic(num)


def test_a_float_base_is_a_type_error():
    for value in (1.5, 1.1, 0.5):
        with pytest.raises(TypeError, match="float"):
            BetaValue.from_rational(value)
        with pytest.raises(TypeError, match="float"):
            BetaValue.of(value)
    assert BetaValue.from_rational(Fraction(3, 2)).rational == Fraction(3, 2)
    with pytest.raises(NegBetaError, match="base must exceed 1"):
        BetaValue.from_rational(1)


@pytest.mark.parametrize("call", [lambda: initial_state(2, 0.4),
                                  lambda: expansion_digits(2, 0.4, 5),
                                  lambda: orbit_points(2, 0.4, 3),
                                  lambda: dynamics.DigitStream(2, 0.4)],
                         ids=["initial_state", "expansion_digits", "orbit_points", "DigitStream"])
def test_a_float_start_point_is_a_type_error(call):
    with pytest.raises(TypeError, match="float"):
        call()
    assert expansion_digits(2, Fraction(2, 5), 3) == (0, 0, 1)


_INVARIANT_PATHS = """
import dataclasses
from fractions import Fraction
from negbeta import dynamics
from negbeta.errors import InvariantError
from negbeta.words import word

class BadDigit:
    num = dynamics.BetaValue.of(2).algebraic

    def serves(self, beta):
        return True

    def step(self, x):
        return 3, x

state = dataclasses.replace(dynamics.initial_state(2, Fraction(1, 3)), arith=BadDigit())
for call in (lambda: dynamics.step(2, state),
             lambda: dynamics.lower_bound_word(word("(100)"))):
    try:
        call()
    except InvariantError as err:
        print(err.reason)
"""


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_dynamics_invariants_raise_typed_errors(flags):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, *flags, "-c", _INVARIANT_PATHS],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [InvariantError.reason] * 2
