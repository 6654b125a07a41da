import itertools
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import sturm_oracle
from negbeta import dynamics
from negbeta.algebraic import (
    IntPolynomial,
    _mul,
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
from negbeta.words import sup_of_shifts, word

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
    # one enclosure per step, for the floor, and one for the key of the start
    # point; computing each image's key afresh would make it 401
    assert len(calls) == 201
    # every reused key is the one a fresh enclosure gives
    real_key = dynamics._AlgebraicArith.key

    def checked_key(self, x):
        got = real_key(self, x)
        self._image = None
        assert real_key(self, x) == got
        return got

    monkeypatch.setattr(dynamics._AlgebraicArith, "key", checked_key)
    again = expansion_of_one(parse_beta(DEGREE_SIX, DEFAULT_PRECISION), max_digits=200)
    assert again.digits == res.digits


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


_INVARIANT_PATHS = """
import dataclasses
from fractions import Fraction
from negbeta import dynamics
from negbeta.errors import InvariantError
from negbeta.words import word

class BadDigit:
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
