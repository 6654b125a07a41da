import itertools
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import sturm_oracle
from coeffs import _mul
from negbeta import algebraic
from negbeta.algebraic import (
    AlgebraicNumber,
    IntPolynomial,
    NEITHER,
    PERRON_NOT_PISOT,
    PISOT,
    b_of,
    char_polynomial,
    classify_perron_pisot,
    conjugate_modulus_margin,
    isolate_real_roots,
    largest_root_gt1,
    p_polynomial,
    poly_from_descending,
    root_upper_bound,
    shift_root,
    _has_root,
    _outside_and_on,
    _roots_not_integral,
    _sign_at,
    _squarefree_part,
)
from negbeta.errors import (
    InvariantError,
    MalformedBaseError,
    NegBetaError,
    SupNotFixedError,
    UndecidableAtPrecisionError,
)
from negbeta.words import canonicalize, compare_with_u, sup_of_shifts, word


def sup_fixed_words(max_digit=3):
    return st.builds(
        canonicalize,
        st.lists(st.integers(0, max_digit), max_size=4),
        st.lists(st.integers(0, max_digit), min_size=1, max_size=4),
    ).map(sup_of_shifts)


# --- evaluation polynomials ------------------------------------------------------

def test_p_polynomial_single_digit():
    assert p_polynomial("2") == poly_from_descending(-1, 3)


def test_p_polynomial_two_digits():
    assert p_polynomial("10") == poly_from_descending(1, -2, 1)


def test_p_polynomial_three_digits():
    assert p_polynomial("100") == poly_from_descending(-1, 2, -1, 1)


def test_char_polynomial_worked_examples():
    assert char_polynomial(word("(30121023)")) == poly_from_descending(
        1, -4, 1, -2, 3, -2, 1, -3, 3)
    assert char_polynomial(word("211(210)")) == poly_from_descending(
        1, -3, 2, -1, 0, 0, -1)
    assert char_polynomial(word("21(0)")) == poly_from_descending(1, -2, -1, 1)


def test_polynomial_formatting():
    assert str(poly_from_descending(1, -2, -1, 1)) == "x^3 - 2x^2 - x + 1"
    assert str(poly_from_descending(1, -4, 1, -2, 3, -2, 1, -3, 3)) == \
        "x^8 - 4x^7 + x^6 - 2x^5 + 3x^4 - 2x^3 + x^2 - 3x + 3"


# --- root isolation ------------------------------------------------------------------

def test_golden_ratio_isolated():
    r = largest_root_gt1(poly_from_descending(1, -1, -1))
    lo, hi = r.refine(Fraction(1, 10**12))
    assert hi - lo <= Fraction(1, 10**12)
    assert abs(float((lo + hi) / 2) - 1.6180339887498949) < 1e-11
    assert r.decimal(10) == "1.6180339887"


def _half_up_by_fractions(root: AlgebraicNumber, places: int) -> str:
    """decimal's rounding, read with Fraction arithmetic on a twin of root."""
    twin, scale = AlgebraicNumber(root.polynomial, root.interval), 10**places
    tol = Fraction(1, 10 * scale)
    while True:
        lo, hi = twin.refine(tol)
        n = (lo * scale + Fraction(1, 2)).__floor__()
        if n == (hi * scale + Fraction(1, 2)).__floor__():
            break
        tol /= 2**8
    sign, n = "-" if n < 0 else "", abs(n)
    return f"{sign}{n}" if not places else f"{sign}{n // scale}.{n % scale:0{places}d}"


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=6), st.integers(0, 15))
@settings(max_examples=150, deadline=None)
def test_decimal_rounds_half_up_as_fraction_arithmetic_does(coeffs, places):
    poly = IntPolynomial(tuple(coeffs))
    assume(poly.degree >= 1)
    bound = root_upper_bound(poly)
    for root in isolate_real_roots(poly, -bound, bound):
        assert root.decimal(places) == _half_up_by_fractions(root, places)


@given(st.fractions(min_value=-50, max_value=50, max_denominator=2000), st.integers(0, 15))
@example(Fraction(-5, 2), 0)
@example(Fraction(1, 8), 2)
@example(Fraction(-1, 8), 2)
def test_decimal_of_a_rational_rounds_half_up_as_fraction_arithmetic_does(value, places):
    root = AlgebraicNumber.from_rational(value)
    assert root.decimal(places) == _half_up_by_fractions(root, places)


def test_decimal_with_no_places_has_no_point():
    assert largest_root_gt1(poly_from_descending(1, -1, -1)).decimal(0) == "2"
    assert AlgebraicNumber.from_rational(Fraction(7, 3)).decimal(0) == "2"
    assert AlgebraicNumber.from_rational(Fraction(-5, 2)).decimal(0) == "-2"
    assert AlgebraicNumber.from_rational(Fraction(-5, 2)).decimal(1) == "-2.5"


def test_polynomial_evaluates_at_a_fraction_exactly():
    value = poly_from_descending(3, -2, 0, 7)(Fraction(-5, 3))
    assert type(value) is Fraction and value == Fraction(-112, 9)


def test_rational_root_detected_exactly():
    r = largest_root_gt1(poly_from_descending(1, -2, 0))
    assert r.is_rational() and r.exact == 2


def test_no_real_roots():
    assert largest_root_gt1(poly_from_descending(1, 0, 1)) is None


def test_roots_below_one_are_ignored():
    # x^2 - 3x + 1 has roots 0.38 and 2.62; only the latter counts
    roots = isolate_real_roots(poly_from_descending(1, -3, 1), Fraction(1),
                               root_upper_bound(poly_from_descending(1, -3, 1)))
    assert len(roots) == 1
    assert 2.6 < float(roots[0]) < 2.62


def test_isolation_versus_float_eval_on_table_polys():
    table = [
        (poly_from_descending(1, -1, -1), 1.6180339887),
        (poly_from_descending(1, -2, 1, -1), 1.7548776662),
        (poly_from_descending(1, -1, -1, -1), 1.8392867552),
        (poly_from_descending(1, -2, -1, 1), 2.2469796037),
    ]
    for poly, expected in table:
        r = largest_root_gt1(poly)
        assert abs(float(r) - expected) < 1e-10


def test_mixed_rational_and_irrational_roots_ordered():
    # (x - 2)(x^2 - x - 1): golden then 2
    poly = poly_from_descending(1, -3, 1, 2)
    roots = isolate_real_roots(poly, Fraction(1), root_upper_bound(poly))
    assert len(roots) == 2
    assert not roots[0].is_rational() and roots[1].is_rational()
    assert roots[1].exact == 2
    golden = largest_root_gt1(poly_from_descending(1, -1, -1))
    assert roots[0].equals(golden)


def _largest_by_full_isolation(poly):
    """Oracle: isolate every root in (1, Cauchy bound] by Sturm counts and
    keep the last one."""
    roots = sturm_oracle.isolate_real_roots(poly, Fraction(1), root_upper_bound(poly))
    return roots[-1] if roots else None


def _same_root(got, want, tol=Fraction(1, 2**64)):
    assert got.polynomial == want.polynomial and got._sf == want._sf
    assert got.exact == want.exact
    assert got.refine(tol) == want.refine(tol) and got.exact == want.exact


def _threshold_words(n_max):
    from negbeta.analysis import _is_b1
    from negbeta.permutations import a_sequence, all_permutations

    found = {a_sequence(pi) for n in range(2, n_max + 1) for pi in all_permutations(n)}
    return sorted((a for a in found if not _is_b1(a)), key=str)


def test_b_of_matches_the_full_isolation_on_every_threshold_word():
    threshold_words = _threshold_words(7)
    assert len(threshold_words) == 1353
    for a in threshold_words:
        poly = char_polynomial(a)
        want = _largest_by_full_isolation(poly)
        assert largest_root_gt1(poly).interval == want.interval
        _same_root(b_of(a), want)


def test_b_of_certifies_the_digit_bound_and_makes_no_comparison(monkeypatch):
    certified = []
    real_bounded = algebraic._Isolation.bounded_by
    monkeypatch.setattr(algebraic._Isolation, "bounded_by",
                        lambda iso, top: certified.append(real_bounded(iso, top)) or certified[-1])
    compares = []
    real_compare = AlgebraicNumber.compare
    monkeypatch.setattr(AlgebraicNumber, "compare",
                        lambda self, other: compares.append(other) or real_compare(self, other))
    threshold_words = _threshold_words(7)
    bases = [b_of(a) for a in threshold_words]
    assert compares == []
    assert len(certified) == len(threshold_words) and all(certified)
    assert all(real_compare(b, a.max_digit() + 1) <= 0 for a, b in zip(threshold_words, bases))


def test_the_digit_bound_is_certified_only_when_it_holds():
    def bounded(coeffs, top):
        poly = IntPolynomial(coeffs)
        return algebraic._Isolation(poly, Fraction(1), root_upper_bound(poly)).bounded_by(top)

    assert bounded((-1, -1, 1), 2)                  # the golden ratio
    assert not bounded((-5, 0, 1), 2)               # sqrt 5 > 2
    assert bounded((-5, 0, 1), 3)
    assert not bounded(_mul((-3, 1), (-2, 0, 1)), 2)  # the rational root 3 > 2
    assert bounded(_mul((-2, 1), (-2, 0, 1)), 2)      # the rational root 2 itself


def test_b_of_without_the_certificate_finds_the_same_root(monkeypatch):
    threshold_words = _threshold_words(5)
    certified = [b_of(a) for a in threshold_words]
    monkeypatch.setattr(algebraic._Isolation, "bounded_by", lambda iso, top: False)
    for a, want in zip(threshold_words, certified):
        _same_root(b_of(a), want)


def _criterion_7_corpus():
    from negbeta.dynamics import validate_expansion
    from negbeta.words import words_over

    def expansion(w):
        try:
            return validate_expansion(w)
        except NegBetaError:
            return False

    return [w for w in words_over(4, 4, 5)
            if w.preperiod_length + w.period_length <= 5 and expansion(w)]


def test_b_of_equals_the_squarefree_isolation_on_the_corpus_and_threshold_words():
    corpus, threshold_words = _criterion_7_corpus(), _threshold_words(7)
    assert len(corpus) == 822
    above_u = [w for w in corpus + threshold_words if compare_with_u(w) > 0]
    for a in above_u:
        got, want = b_of(a), largest_root_gt1(char_polynomial(a))
        assert got.polynomial == want.polynomial and got._sf == want._sf, a
        assert got.refine(Fraction(1, 2**24)) == want.refine(Fraction(1, 2**24)), a
        assert got.decimal(12) == want.decimal(12), a


def test_b_of_takes_no_gcd(monkeypatch):
    calls = []
    for name in ("_squarefree_part", "_poly_gcd"):
        real = getattr(algebraic, name)
        monkeypatch.setattr(algebraic, name,
                            lambda *a, name=name, real=real: calls.append(name) or real(*a))
    bases = [b_of(a) for a in _threshold_words(7)]
    # only an integer base takes a squarefree part, of its deflated part, and
    # the modular certificate shows each squarefree
    assert sum(b.is_rational() for b in bases) == 16
    assert calls == ["_squarefree_part"] * 16


@pytest.mark.parametrize("certified", [True, False])
def test_b_of_builds_one_isolation(certified, monkeypatch):
    built = []
    real = algebraic._Isolation.__init__
    monkeypatch.setattr(algebraic._Isolation, "__init__",
                        lambda iso, *a, **kw: built.append(a) or real(iso, *a, **kw))
    if not certified:
        monkeypatch.setattr(algebraic._Isolation, "bounded_by", lambda iso, top: False)
    threshold_words = [a for a in _threshold_words(5) if compare_with_u(a) > 0]
    for a in threshold_words:
        b_of(a)
    assert len(built) == len(threshold_words) == 43


def test_b_of_divides_out_x_and_integer_roots_with_their_multiplicity():
    # (x - 1)^2 (x^5 - x^2 - 1): a double root at the lower end of the grid
    b = b_of(word("(1001111)"))
    assert b.polynomial == poly_from_descending(1, -2, 1, -1, 2, -2, 2, -1)
    assert b._sf == (-1, 0, -1, 0, 0, 1) and b.decimal(6) == "1.193859"
    # an integer base keeps the squarefree part of its polynomial
    two = b_of(word("(2)"))
    assert two.exact == 2 and two.polynomial == poly_from_descending(1, -2) and two._sf == (-2, 1)
    # x (x^2 - 5x + 3): the factor x
    b = b_of(word("(420)"))
    assert b.polynomial == poly_from_descending(1, -5, 3, 0)
    assert b._sf == (3, -5, 1) and b.decimal(6) == "4.302776"


def test_a_repeated_irrational_root_switches_the_walk_to_the_squarefree_part(monkeypatch):
    golden = (-1, -1, 1)
    poly = IntPolynomial(_mul((-2, 1), _mul(golden, golden)))  # (x - 2)(x^2 - x - 1)^2
    calls = []
    real = algebraic._squarefree_part
    monkeypatch.setattr(algebraic, "_squarefree_part", lambda a: calls.append(a) or real(a))
    iso = algebraic._Isolation(poly, Fraction(1), root_upper_bound(poly))
    assert iso.bounded_by(2) and iso.deflated == _mul(golden, golden) and iso.roots == [2]
    # the integer root's _sf: the squarefree part of the deflated part, times x - 2
    (two,) = iso.exact_roots()
    assert two.exact == 2 and two._sf == _mul((-2, 1), golden) and calls == [_mul(golden, golden)]
    assert iso.deflated == _mul(golden, golden)  # the walk is still lazy
    (root,) = itertools.islice(iso.irrational_roots(2), 1)
    assert calls == [_mul(golden, golden)] * 2 and root._sf == golden == iso.deflated
    assert root.equals(largest_root_gt1(IntPolynomial(golden)))
    lo, hi = iso.largest(2).interval
    assert lo == hi == 2


def test_the_perron_count_takes_the_squarefree_part_of_a_repeated_factor():
    plastic = (-1, -1, 0, 1)
    poly = IntPolynomial(_mul((-1, -1, 1), _mul(plastic, plastic)))  # golden ratio, plastic^2
    iso = algebraic._Isolation(poly, Fraction(1), root_upper_bound(poly))
    root, want = iso.largest(2), largest_root_gt1(poly)
    # the walk yields the golden ratio before it narrows on the double root
    assert root._sf == poly.coefficients and want._sf == _mul((-1, -1, 1), plastic)
    assert algebraic._conjugate_part(root) == algebraic._conjugate_part(want) == want._sf
    assert classify_perron_pisot(root) == classify_perron_pisot(want) == PERRON_NOT_PISOT


# integer polynomials of degree up to 10, some with rational or repeated factors
_FACTORS = [(1,), (-2, 1), (-3, 2), (-5, 3), (3, 2), (-1, -1, 1), (-7, 0, 2)]
_polys = st.builds(
    lambda c, f, square: _mul(_mul(tuple(c), f), f if square else (1,)),
    st.lists(st.integers(-12, 12), min_size=2, max_size=7).filter(lambda c: c[-1] != 0),
    st.sampled_from(_FACTORS), st.booleans())


@given(_polys)
@example((4, -2, 2, -9, 4, 6, -5, 1))  # (x - 2)(x^6 - 3x^5 + 4x^3 - x^2 - 2)
@settings(max_examples=200, deadline=None)
def test_largest_root_matches_the_full_isolation(coeffs):
    poly = IntPolynomial(coeffs)
    got, want = largest_root_gt1(poly), _largest_by_full_isolation(poly)
    if want is None:
        assert got is None
        return
    # Both cells lie on the same grid, but either may be the deeper one: the
    # Sturm oracle keeps halving while its cell also holds a rational root
    # (the 2 of the example), the Descartes walk while its cell's count is
    # above one.  So the cells nest one way or the other.
    (a, b), (c, d) = got.interval, want.interval
    assert c <= a <= b <= d or a <= c <= d <= b
    _same_root(got, want)


# rational ends, among them roots of the factors in _FACTORS
_ends = st.one_of(
    st.sampled_from([Fraction(0), Fraction(2), Fraction(3, 2), Fraction(5, 3), Fraction(-3, 2)]),
    st.builds(Fraction, st.integers(-60, 60), st.integers(1, 16)),
)


@given(_polys, st.sampled_from(["whole line", "above 1", "ends"]), _ends, _ends)
@settings(max_examples=300, deadline=None)
def test_isolate_real_roots_matches_the_sturm_isolation(coeffs, span, a, b):
    # drawn ends put rational roots at the excluded lower end and the
    # included upper end, and _polys repeats rational factors
    poly = IntPolynomial(coeffs)
    bound = root_upper_bound(poly)
    lo, hi = {"whole line": (-bound, bound), "above 1": (Fraction(1), bound),
              "ends": (min(a, b), max(a, b))}[span]
    got = isolate_real_roots(poly, lo, hi)
    want = sturm_oracle.isolate_real_roots(poly, lo, hi)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _same_root(g, w, Fraction(1, 2**24))
        _same_root(g, w)


_linear = st.tuples(st.integers(-6, 6), st.integers(1, 5), st.integers(1, 3))  # (q x - p)^m


def _multiplicity(a, r) -> int:
    """How many of a, a', a'', ... vanish at r."""
    m = 0
    while a and _sign_at(a, r) == 0:
        a, m = algebraic._deriv(a), m + 1
    return m


@given(_polys, st.lists(_linear, max_size=3))
@example((1,), [(0, 1, 2), (2, 1, 3), (-3, 2, 1)])  # x^2 (x - 2)^3 (2x + 3)
@settings(max_examples=200, deadline=None)
def test_deflate_divides_out_every_rational_root_with_its_multiplicity(cofactor, linear):
    coeffs = cofactor
    for p, q, m in linear:
        for _ in range(m):
            coeffs = _mul(coeffs, (-p, q))
    deflated, roots = algebraic._deflate(coeffs)
    assert roots == sturm_oracle._rational_roots(coeffs)
    assert sturm_oracle._rational_roots(deflated) == []
    back = deflated
    for r in roots:
        for _ in range(_multiplicity(coeffs, r)):
            back = _mul(back, (-r.numerator, r.denominator))
    primitive = algebraic._primitive(coeffs)
    assert back == (primitive if primitive[-1] > 0 else tuple(-c for c in primitive))


@given(_polys, _ends, _ends)
@settings(max_examples=300, deadline=None)
def test_has_root_agrees_with_the_sturm_count(coeffs, a, b):
    g = _squarefree_part(coeffs)

    def oracle(lo, hi):
        return sturm_oracle.count_real_roots(g, lo, hi) > 0 or _sign_at(g, lo) == 0

    for x in (a, b):  # degenerate intervals
        assert _has_root(g, x, x) == oracle(x, x)
    lo, hi = min(a, b), max(a, b)
    # exact when [lo, hi] holds at most one root, as an isolating interval does
    assume(sturm_oracle.count_real_roots(g, lo, hi) + (_sign_at(g, lo) == 0) <= 1)
    assert _has_root(g, lo, hi) == oracle(lo, hi)


def test_largest_root_gt1_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    @given(_polys)
    @settings(max_examples=100, deadline=None)
    def check(coeffs):
        roots = [r for r in sympy.real_roots(sympy.Poly(list(reversed(coeffs)), x)) if r > 1]
        got = largest_root_gt1(IntPolynomial(coeffs))
        if not roots:
            assert got is None
            return
        top = max(roots)
        if top.is_Rational:
            assert got.exact == Fraction(int(top.p), int(top.q))
            return
        assert got.exact is None
        lo, hi = got.refine(Fraction(1, 2**40))
        assert sympy.Rational(lo.numerator, lo.denominator) < top
        assert top < sympy.Rational(hi.numerator, hi.denominator)

    check()


def test_b_of_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    threshold_words = _threshold_words(6)
    assert len(threshold_words) == 208
    for a in threshold_words:
        coeffs = char_polynomial(a).coefficients
        top = max(r for r in sympy.real_roots(sympy.Poly(list(reversed(coeffs)), x)) if r > 1)
        got = b_of(a)
        if top.is_Rational:
            assert got.exact == Fraction(int(top.p), int(top.q))
            continue
        assert got.exact is None
        lo, hi = got.refine(Fraction(1, 2**40))
        assert sympy.Rational(lo.numerator, lo.denominator) < top
        assert top < sympy.Rational(hi.numerator, hi.denominator)


def test_comparing_with_a_plain_rational_needs_no_gcd(monkeypatch):
    golden = largest_root_gt1(poly_from_descending(1, -1, -1))
    off_grid = AlgebraicNumber(IntPolynomial(_mul((-3, 2), (-3, 0, 1))), (Fraction(5, 4), Fraction(13, 8)))
    on_grid = AlgebraicNumber(IntPolynomial(_mul((-3, 2), (-5, 0, 1))), (Fraction(1), Fraction(2)))
    calls = _count_gcds(monkeypatch)
    # a convergent of the golden ratio, within 2^-26 of it: inside the
    # interval, yet not the root, which one sign shows without refining
    before = golden.interval
    close = Fraction(10946, 6765)
    assert before[0] <= close <= before[1] and not golden.equals(close)
    assert golden.interval == before
    assert golden.compare(2) < 0 and golden.compare(Fraction(8, 5)) > 0
    assert not golden.equals(Fraction(13, 8)) and golden != 1
    # roots whose defining polynomial keeps the rational factor 2x - 3: the
    # comparison refines as one of two roots would, landing on 3/2 when it
    # is a midpoint of the bisection
    assert off_grid.equals(Fraction(3, 2)) and off_grid.exact is None
    lo, hi = off_grid.interval
    assert lo < Fraction(3, 2) < hi and hi - lo <= Fraction(1, 2**24)
    assert on_grid.compare(Fraction(3, 2)) == 0 and on_grid.exact == Fraction(3, 2)
    assert calls == []


def test_a_point_interval_is_a_rational_however_it_was_built(monkeypatch):
    point = AlgebraicNumber(IntPolynomial((-3, 2)), (Fraction(3, 2), Fraction(3, 2)))
    assert point.is_rational() and point.exact == Fraction(3, 2) and str(point) == "3/2"
    assert point.floor() == 1 and point.decimal(2) == "1.50"
    calls = _count_gcds(monkeypatch)
    assert point.equals(Fraction(3, 2)) and point.compare(Fraction(3, 2)) == 0
    assert calls == []
    assert shift_root(point, Fraction(1, 2)).exact == 2
    # a root that refine lands on a bisection midpoint reads as that rational
    on_grid = AlgebraicNumber(IntPolynomial(_mul((-3, 2), (-5, 0, 1))), (Fraction(1), Fraction(2)))
    assert on_grid.exact is None and not on_grid.is_rational()
    assert on_grid.refine(Fraction(1, 4)) == (Fraction(3, 2), Fraction(3, 2))
    assert on_grid.is_rational() and on_grid.exact == Fraction(3, 2) and str(on_grid) == "3/2"


def test_ordering_against_a_float_is_a_type_error():
    golden = largest_root_gt1(poly_from_descending(1, -1, -1))
    for order in (lambda: golden < 1.5, lambda: golden <= 1.5, lambda: golden > 1.5,
                  lambda: golden >= 1.5, lambda: 1.5 < golden):
        with pytest.raises(TypeError):
            order()
    for exact_test in (golden.compare, golden.equals):
        with pytest.raises(TypeError, match="float"):
            exact_test(1.5)
    assert golden.compare(Fraction(3, 2)) > 0


def test_equality_with_a_float_is_a_type_error():
    # equal values, so an answer of False would be wrong, not merely inexact
    one = AlgebraicNumber.from_rational(1)
    golden = largest_root_gt1(poly_from_descending(1, -1, -1))
    for equality in (lambda: one == 1.0, lambda: 1.0 == one, lambda: one != 1.0,
                     lambda: golden == 1.5, lambda: golden != 1.5):
        with pytest.raises(TypeError, match="float"):
            equality()
    assert one == 1 and one == Fraction(1) and golden != 1 and golden != "golden"


def test_a_float_is_not_lifted_to_a_rational():
    for value in (1.5, 1.1, 2.0):
        with pytest.raises(TypeError, match="float"):
            AlgebraicNumber.from_rational(value)
    assert AlgebraicNumber.from_rational(Fraction(3, 2)).exact == Fraction(3, 2)
    assert AlgebraicNumber.from_rational(2).exact == 2


def test_algebraic_equality_across_defining_polynomials():
    a = largest_root_gt1(poly_from_descending(1, -1, -1))
    b = largest_root_gt1(poly_from_descending(1, 0, -2, -1))  # x^3 - 2x - 1 = (x^2-x-1)(x+1)
    assert a.equals(b)
    c = largest_root_gt1(poly_from_descending(1, -2, -1, 1))
    assert not a.equals(c)
    assert a.compare(c) < 0


def _count_gcds(monkeypatch) -> list:
    calls = []
    real = algebraic._poly_gcd
    monkeypatch.setattr(algebraic, "_poly_gcd", lambda *a: calls.append(a) or real(*a))
    return calls


def test_equals_on_disjoint_intervals_runs_no_gcd_and_no_refinement(monkeypatch):
    golden = AlgebraicNumber(poly_from_descending(1, -1, -1), (Fraction(3, 2), Fraction(33, 20)))
    sqrt3 = AlgebraicNumber(poly_from_descending(1, 0, -3), (Fraction(17, 10), Fraction(2)))
    calls = _count_gcds(monkeypatch)
    assert not golden.equals(sqrt3) and not sqrt3.equals(golden)
    assert golden.compare(sqrt3) < 0
    assert calls == []
    assert golden.interval == (Fraction(3, 2), Fraction(33, 20))
    assert sqrt3.interval == (Fraction(17, 10), Fraction(2))


def test_equals_across_a_reducible_defining_polynomial():
    golden = largest_root_gt1(poly_from_descending(1, -1, -1))
    # (x^2 - x - 1)(x - 3): the golden ratio is its only root in (1, 2]
    (other,) = isolate_real_roots(poly_from_descending(1, -4, 2, 3), Fraction(1), Fraction(2))
    assert golden.equals(other) and other.equals(golden)


def test_equals_on_overlapping_intervals_of_distinct_roots(monkeypatch):
    # sqrt 2 as a root of (x^2 - 2)(x^2 - 3), sqrt 3 as a root of x^2 - 3:
    # the intervals overlap and the gcd x^2 - 3 is nontrivial, yet the values differ
    sqrt2 = AlgebraicNumber(poly_from_descending(1, 0, -5, 0, 6), (Fraction(13, 10), Fraction(3, 2)))
    sqrt3 = AlgebraicNumber(poly_from_descending(1, 0, -3), (Fraction(13, 10), Fraction(2)))
    calls = _count_gcds(monkeypatch)
    assert not sqrt2.equals(sqrt3) and not sqrt3.equals(sqrt2)
    assert calls


def test_zero_polynomial_is_a_typed_error():
    with pytest.raises(MalformedBaseError):
        root_upper_bound(IntPolynomial(()))
    with pytest.raises(MalformedBaseError):
        largest_root_gt1(IntPolynomial(()))
    with pytest.raises(MalformedBaseError):
        isolate_real_roots(IntPolynomial(()), Fraction(-1), Fraction(1))


def test_floor_of_algebraic():
    assert largest_root_gt1(poly_from_descending(1, -1, -1)).floor() == 1
    assert largest_root_gt1(poly_from_descending(1, -2, -1, 1)).floor() == 2
    assert AlgebraicNumber.from_rational(Fraction(2)).floor() == 2
    assert AlgebraicNumber.from_rational(Fraction(7, 3)).floor() == 2


# --- one exact side test against a rational -------------------------------------

def _floor_by_bisection(num: AlgebraicNumber) -> int:
    """floor as it was read before the side test, on a twin of num."""
    twin = AlgebraicNumber(num.polynomial, num.interval, _sf=num._sf)
    sf = twin._sf
    lo, hi = twin.refine(Fraction(1, 4))
    while lo.__floor__() != hi.__floor__():
        n = hi.__floor__()
        s_n = _sign_at(sf, Fraction(n))
        if s_n == 0:
            raise InvariantError("irrational root equal to an integer")
        if s_n == _sign_at(sf, lo):
            lo = Fraction(n)
        else:
            hi = Fraction(n)
        mid = (lo + hi) / 2
        if _sign_at(sf, mid) == _sign_at(sf, lo):
            lo = mid
        else:
            hi = mid
    return lo.__floor__()


def _side_by_refining(num: AlgebraicNumber, r: Fraction) -> int:
    """The sign of num - r as compare found it before the side test: equal
    when the polynomial vanishes at r inside the interval, otherwise refine
    a twin until r falls outside."""
    lo, hi = num.interval
    if lo <= r <= hi and num.polynomial(r) == 0:
        return 0
    twin, tol = AlgebraicNumber(num.polynomial, num.interval, _sf=num._sf), Fraction(1, 2)
    while lo <= r <= hi:
        tol /= 2**8
        lo, hi = twin.refine(tol)
    return 1 if r < lo else -1


def _raising(f):
    try:
        return f()
    except InvariantError:
        return InvariantError


def _check_rational_questions(num: AlgebraicNumber, rationals, exact: Fraction | None = None):
    # each oracle reads the interval before the question under test refines it
    floor = _raising(lambda: _floor_by_bisection(num))
    assert _raising(num.floor) == floor
    for places in range(13):
        # a rational root on a wide interval is read off its value: refining
        # never clears a rounding boundary it sits on
        rounded = _half_up_by_fractions(
            AlgebraicNumber.from_rational(exact) if exact is not None else num, places)
        assert num.decimal(places) == rounded
    for r in rationals:
        side = _side_by_refining(num, r)
        assert num.compare(r) == side
        assert (num == r) == (side == 0) and (num < r) == (side < 0)


def _near(num: AlgebraicNumber) -> list[Fraction]:
    """The interval's ends, its grid points and the integers around it."""
    lo, hi = num.interval
    grid = [lo + k * (hi - lo) / 8 for k in range(9)]
    return grid + [Fraction(n) for n in range(lo.__floor__() - 1, hi.__floor__() + 2)]


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=6))
@settings(max_examples=100, deadline=None)
def test_rational_questions_agree_with_refinement_on_random_roots(coeffs):
    poly = IntPolynomial(tuple(coeffs))
    assume(poly.degree >= 1)
    bound = root_upper_bound(poly)
    for root in isolate_real_roots(poly, -bound, bound):
        _check_rational_questions(root, _near(root), root.exact)


_PARTS = st.sampled_from([Fraction(k, 7) for k in range(1, 7)] + [Fraction(1, 2)])


@given(st.integers(-12, 12), st.integers(1, 6), st.lists(st.integers(-5, 5), min_size=1, max_size=4),
       _PARTS, _PARTS)
@settings(max_examples=100, deadline=None)
@example(2, 1, [1], Fraction(1, 2), Fraction(1, 7))  # the integer 2 inside (3/2, 15/7)
@example(3, 2, [-3, 0, 1], Fraction(1, 2), Fraction(1, 2))
def test_rational_questions_on_a_rational_root_of_a_wide_interval(p, q, other, below, above):
    # (q x - p) times another factor; the root p/q on an interval that is
    # not a point but holds no other root
    poly = IntPolynomial(_mul((-p, q), tuple(other)))
    assume(poly.degree >= 1)
    bound = root_upper_bound(poly)
    roots = isolate_real_roots(poly, -bound - 1, bound)
    r = Fraction(p, q)
    i = next(i for i, root in enumerate(roots) if root.exact == r)
    lo = r - (r - roots[i - 1].interval[1] if i else 1) * below
    hi = r + (roots[i + 1].interval[0] - r if i + 1 < len(roots) else 1) * above
    num = AlgebraicNumber(poly, (lo, hi))
    _check_rational_questions(num, [r, *_near(num)], r)


def _count_refines(monkeypatch) -> list:
    calls = []
    real = AlgebraicNumber.refine
    monkeypatch.setattr(AlgebraicNumber, "refine", lambda self, *a: calls.append(a) or real(self, *a))
    return calls


def test_compare_with_a_rational_beside_the_root_refines_nothing(monkeypatch):
    golden = largest_root_gt1(poly_from_descending(1, -1, -1))
    before = golden.interval
    lo, hi = before
    calls = _count_refines(monkeypatch)
    # outside the interval, on its ends and grid, and a convergent within 2^-26 of the root
    for r in (Fraction(-3), Fraction(1), Fraction(2), lo, hi, (lo + hi) / 2, lo + (hi - lo) / 8,
              Fraction(10946, 6765), Fraction(17711, 10946)):
        below = r < 0 or r * r - r - 1 < 0
        assert golden.compare(r) == (1 if below else -1)
    assert calls == [] and golden.interval == before


def test_floor_refines_once(monkeypatch):
    roots = [largest_root_gt1(poly_from_descending(1, -1, -1)),
             b_of(word("211(210)")),
             # sqrt(3.9) and sqrt(4.1): after refining, the intervals reach 2
             AlgebraicNumber(IntPolynomial((-39, 0, 10)), (Fraction(1), Fraction(2))),
             AlgebraicNumber(IntPolynomial((-41, 0, 10)), (Fraction(4, 3), Fraction(7, 3)))]
    calls = _count_refines(monkeypatch)
    assert [num.floor() for num in roots] == [1, 2, 1, 2]
    assert len(calls) == len(roots)


def test_shift_root():
    g = largest_root_gt1(poly_from_descending(1, -1, -1))
    up = shift_root(g, Fraction(1, 20))
    lo, hi = up.refine(Fraction(1, 10**9))
    assert abs(float((lo + hi) / 2) - (1.6180339887 + 0.05)) < 1e-8
    down = shift_root(up, Fraction(-1, 20))
    assert down.equals(g)


@given(_polys, st.builds(Fraction, st.integers(-100, 100), st.integers(1, 50)))
@settings(max_examples=100, deadline=None)
def test_shift_root_polynomial_is_the_shifted_primitive(coeffs, c):
    from math import comb

    poly = IntPolynomial(coeffs).sign_normalized()
    bound = root_upper_bound(poly)
    for root in isolate_real_roots(poly, -bound, bound):
        if root.is_rational():
            continue
        # P(x - c) by the binomial theorem, over the rationals
        shifted = [Fraction(0)] * len(poly.coefficients)
        for j, pj in enumerate(poly.coefficients):
            for k in range(j + 1):
                shifted[k] += pj * comb(j, k) * (-c) ** (j - k)
        ints = algebraic._over_common_denominator(shifted)[0]
        want = IntPolynomial(algebraic._primitive(tuple(ints))).sign_normalized()
        assert shift_root(root, c).polynomial == want


# --- the certificate that no root is an algebraic integer -----------------------------

@given(st.integers(-60, 60), st.integers(1, 30))
def test_a_rational_base_is_certified_exactly_when_it_is_no_integer(p, q):
    r = Fraction(p, q)
    assert _roots_not_integral(AlgebraicNumber.from_rational(r)._sf) == (r.denominator > 1)
    assert _roots_not_integral((-r.numerator, r.denominator)) == (r.denominator > 1)


def test_thresholds_shifted_by_a_non_integer_are_certified():
    threshold_words = _threshold_words(6)
    assert len(threshold_words) == 208
    for a in threshold_words:
        b = b_of(a)
        for c in (Fraction(1, 20), Fraction(-1, 20), Fraction(1, 3), Fraction(-1, 3)):
            assert _roots_not_integral(shift_root(b, c)._sf), (a, c)
        for c in (1, -1):
            assert not _roots_not_integral(shift_root(b, c)._sf), (a, c)


@given(st.lists(st.integers(-50, 50), max_size=7))
def test_a_monic_polynomial_is_never_certified(low):
    coeffs = (*low, 1)
    assert not _roots_not_integral(coeffs)
    assert not _roots_not_integral(_squarefree_part(coeffs))


def test_the_certificate_is_sufficient_not_necessary():
    # the root 1/2 is no algebraic integer, but the golden ratio is
    assert not _roots_not_integral(_mul((-1, 2), (-1, -1, 1)))


def test_certified_roots_have_a_non_monic_minimal_polynomial():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    @given(st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 6]),
           st.lists(st.integers(-6, 6), min_size=1, max_size=4).filter(lambda c: c[-1] != 0))
    @settings(max_examples=60, deadline=None)
    def check(a0, m, high):
        coeffs = (a0, *(m * c for c in high))
        if not _roots_not_integral(coeffs):
            return
        for root in sympy.Poly(list(reversed(coeffs)), x).all_roots():
            lead = sympy.Poly(sympy.minimal_polynomial(root, x), x).LC()
            assert abs(lead) != 1, (coeffs, root)

    check()


# --- the base attached to a word -----------------------------------------------------

def test_b_of_examples():
    assert b_of(word("(100)")) == 1
    golden = b_of(word("1(0)"))
    assert golden.decimal(4) == "1.6180"
    assert b_of(word("211(210)")).decimal(3) == "2.343"
    assert b_of(word("(10)")).exact == 2


def test_b_of_requires_sup_fixed():
    with pytest.raises(SupNotFixedError):
        b_of(word("(12)"))


@given(sup_fixed_words())
@settings(max_examples=200)
def test_b_of_bounded_by_max_digit(w):
    b = b_of(w)
    if b == 1:
        return
    assert b.compare(Fraction(w.max_digit() + 1)) <= 0


@given(sup_fixed_words())
@settings(max_examples=60, deadline=None)
def test_defining_series_vanishes_at_the_root(w):
    if compare_with_u(w) <= 0:
        return
    b = b_of(w)
    lo, hi = b.refine(Fraction(1, 2**64))
    x = (lo + hi) / 2
    terms = 200
    acc = Fraction(1)
    for k in range(1, terms + 1):
        acc += Fraction(w.digit(k) + 1) / (-x) ** k
    # certified error: interval width amplified by the series derivative bound
    # plus the geometric tail
    tail = Fraction(w.max_digit() + 1) * Fraction(1, (x - 1)) / x ** terms
    assert abs(acc) < Fraction(1, 2**40) + 2 * tail


@given(sup_fixed_words(max_digit=2), sup_fixed_words(max_digit=2))
@settings(max_examples=150)
def test_b_monotone_in_alt_lex(v, w):
    if compare_with_u(v) <= 0 or compare_with_u(w) <= 0:
        return
    from negbeta.words import alt_lex_compare

    c = alt_lex_compare(v, w)
    if c == 0:
        return
    small, big = (v, w) if c < 0 else (w, v)
    assert b_of(small).compare(b_of(big)) <= 0


# --- Pisot / Perron classification -----------------------------------------------------

def test_classify_golden_is_pisot():
    assert classify_perron_pisot(largest_root_gt1(poly_from_descending(1, -1, -1))) == PISOT


def test_classify_rational():
    assert classify_perron_pisot(AlgebraicNumber.from_rational(Fraction(2))) == PISOT
    assert classify_perron_pisot(AlgebraicNumber.from_rational(Fraction(3, 2))) == NEITHER


def test_classify_extremal_base_n5():
    from negbeta.analysis import extremal_word

    b = b_of(extremal_word(5))
    assert classify_perron_pisot(b) == PISOT
    assert conjugate_modulus_margin(b) >= 1e-6


def test_classify_perron_not_pisot():
    # largest root of x^3 - x^2 - 2 is about 1.695; the complex pair has
    # modulus sqrt(2/1.695) > 1, so Perron but not Pisot
    r = largest_root_gt1(poly_from_descending(1, -1, 0, -2))
    assert classify_perron_pisot(r) == PERRON_NOT_PISOT


@pytest.mark.parametrize("make", [
    lambda: largest_root_gt1(poly_from_descending(1, -1, -1)),
    lambda: largest_root_gt1(poly_from_descending(1, -1, 0, -2)),
    lambda: largest_root_gt1(poly_from_descending(2, -2, -1)),
    lambda: b_of(word("21(0)")),
])
@pytest.mark.parametrize("bits", [64, 80, 300, 1000])
def test_a_refined_root_classifies_like_a_fresh_one(make, bits):
    # the root must be matched among the enclosures even when its interval
    # is narrower than a double resolves
    refined = make()
    refined.refine(Fraction(1, 2**bits))
    assert classify_perron_pisot(refined) == classify_perron_pisot(make())
    assert conjugate_modulus_margin(refined) == conjugate_modulus_margin(make())


def test_algebraic_invariants_raise_typed_errors(monkeypatch):
    with pytest.raises(InvariantError):  # x^2 + 1 is not a multiple of x + 1
        algebraic._exact_div((1, 0, 1), (1, 1))
    with pytest.raises(InvariantError):  # an interval narrow enough to skip bisection
        AlgebraicNumber(IntPolynomial((-2, 1)), (Fraction(15, 8), Fraction(17, 8))).floor()
    # the digit bound not certified, so b_of compares the root with it
    monkeypatch.setattr(algebraic._Isolation, "bounded_by", lambda iso, top: False)
    monkeypatch.setattr(algebraic._Isolation, "largest", lambda iso, top=None: None)
    with pytest.raises(InvariantError):
        b_of(word("(2)"))
    monkeypatch.setattr(algebraic._Isolation, "largest",
                        lambda iso, top=None: AlgebraicNumber.from_rational(Fraction(7)))
    with pytest.raises(InvariantError):
        b_of(word("(2)"))


def test_refine_and_decimal_reject_what_they_cannot_reach():
    golden = largest_root_gt1(poly_from_descending(1, -1, -1))
    before = golden.interval
    for tol in (Fraction(-1, 8), Fraction(0), 0, -0.5):
        with pytest.raises(NegBetaError):
            golden.refine(tol)
    with pytest.raises(NegBetaError):
        golden.decimal(-1)
    assert golden.interval == before


def test_classify_non_monic_is_neither():
    r = largest_root_gt1(poly_from_descending(2, -2, -1))
    assert r is not None and not r.is_rational()
    assert classify_perron_pisot(r) == NEITHER


@pytest.mark.parametrize("descending, want", [
    # a cyclotomic factor x^2 + x + 1 beside the minimal polynomial of a Pisot number
    ((1, -3, 1, -2, 2, -2), PISOT),
    ((1, -3, 1), PISOT),
    ((1, -1, -1, -1, 1), PERRON_NOT_PISOT),  # Salem: two conjugates on the circle
    ((1, 0, 0, -2), NEITHER),                # Q(x^3): cube roots of 2 times e^(2 pi i / 3)
    ((1, 0, -2, 0, -1), NEITHER),            # Q(x^2): -beta is a conjugate
])
def test_classify_named_cases(descending, want):
    assert classify_perron_pisot(largest_root_gt1(poly_from_descending(*descending))) == want


def test_classify_an_undecided_perron_test_is_a_typed_error():
    # (x^2 - 2)(x^2 + x + 2): the cofactor is no cyclotomic polynomial and its
    # roots have the modulus sqrt 2 of the base, so no refinement decides
    root = largest_root_gt1(IntPolynomial(_mul((-2, 0, 1), (2, 1, 1))))
    with pytest.raises(UndecidableAtPrecisionError):
        classify_perron_pisot(root)
    assert conjugate_modulus_margin(root) == 0.0


def test_the_margin_is_a_power_of_two_below_the_conjugates():
    golden = largest_root_gt1(poly_from_descending(1, -1, -1))  # conjugate -0.618...
    assert conjugate_modulus_margin(golden) == 0.25
    assert conjugate_modulus_margin(largest_root_gt1(poly_from_descending(1, -1, 0, -2))) == 0.0
    assert conjugate_modulus_margin(AlgebraicNumber.from_rational(Fraction(2))) == 1.0


def _cyclotomic(k):
    """Phi_k, by dividing x^k - 1 by Phi_j for every proper divisor j of k."""
    out = (-1, *[0] * (k - 1), 1)
    for j in range(1, k):
        if k % j == 0:
            out = algebraic._exact_div(out, _cyclotomic(j))
    return out


@pytest.mark.parametrize("factors, radius, want", [
    ([(-1, 1)], 1, (0, 1)),
    ([_cyclotomic(k) for k in (1, 2, 3, 4, 5, 12)], 1, (0, 14)),
    ([_cyclotomic(7), (-3, 1), (1, 2)], 1, (1, 6)),
    ([(1, -1, -1, -1, 1)], 1, (1, 2)),            # Salem
    ([(-2, 0, 1), (2, 1, 1)], Fraction(1414, 1000), (4, 0)),
    ([(-4, 0, 1)], 2, (0, 2)),                    # +-2 on |z| = 2
    ([(4, 0, 1), (-1, 3)], Fraction(1, 3), (2, 1)),  # +-2i and 1/3
])
def test_outside_and_on_counts_exactly_on_the_circle(factors, radius, want):
    f = (1,)
    for factor in factors:
        f = _mul(f, factor)
    assert _squarefree_part(f) in (f, tuple(-c for c in f))
    assert _outside_and_on(f, Fraction(radius)) == want


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=9), st.sampled_from([-3, -2, -1, 1, 2, 3]),
       st.integers(1, 12), st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_outside_and_on_matches_numpy_away_from_the_circle(low, lead, num, den):
    numpy = pytest.importorskip("numpy")
    f = _squarefree_part((*low, lead))
    assume(len(f) > 1)
    r = Fraction(num, den)
    moduli = abs(numpy.roots(list(reversed(f)))) / float(r)
    assume(all(abs(m - 1) > 1e-6 for m in moduli))
    assert _outside_and_on(f, r) == (sum(int(m > 1) for m in moduli), 0)


def test_classify_matches_a_sympy_truth_on_the_spectrum_of_s6():
    sympy = pytest.importorskip("sympy")
    from negbeta.analysis import spectrum

    x = sympy.Symbol("x")

    def truth(num):
        """From the minimal polynomial's roots to 50 digits; a modulus within
        1e-9 of 1 or of beta counts as equal to it, so Salem conjugates on
        the circle are not read as inside."""
        lo, hi = num.refine(Fraction(1, 2**80))
        factors = [f for f, _ in sympy.Poly(list(reversed(num._sf)), x).factor_list()[1]]
        [minimal] = [f for f in factors if f.count_roots(sympy.Rational(lo), sympy.Rational(hi))]
        if abs(minimal.LC()) != 1:
            return NEITHER
        roots = [complex(z) for z in minimal.nroots(n=50)]
        roots.remove(min(roots, key=lambda z: abs(z - float(lo))))
        if all(abs(z) < 1 - 1e-9 for z in roots):
            return PISOT
        return PERRON_NOT_PISOT if all(abs(z) < float(lo) - 1e-9 for z in roots) else NEITHER

    bases = [g.value for g in spectrum(6)
             if isinstance(g.value, AlgebraicNumber) and not g.value.is_rational()]
    assert len(bases) == 177
    assert [classify_perron_pisot(b) for b in bases] == [truth(b) for b in bases]


def test_importing_negbeta_loads_no_mpmath():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = "import sys, negbeta, negbeta.cli; print('mpmath' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


# --- integer bisection against the Fraction oracles ---------------------------

def _sign_at_oracle(a, x):
    """Sign of a(x), as the sign evaluator computed it before the integer
    Horner helper: the powers of p and q kept in separate lists."""
    if not a:
        return 0
    p, q = x.numerator, x.denominator
    acc = 0
    qpow = 1
    ppow = [1] * len(a)
    for i in range(1, len(a)):
        ppow[i] = ppow[i - 1] * p
    for i in range(len(a) - 1, -1, -1):
        acc += a[i] * ppow[i] * qpow
        qpow *= q
    return (acc > 0) - (acc < 0)


def _refine_oracle(sf, interval, tol):
    """Bisection with Fraction endpoints, as refine did it before it bisected
    integer numerators."""
    lo, hi = interval
    s_lo = _sign_at_oracle(sf, lo)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        s_mid = _sign_at_oracle(sf, mid)
        if s_mid == 0:
            return (mid, mid)
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4))
tolerances = st.one_of(
    st.integers(0, 300).map(lambda k: Fraction(1, 2**k)),
    st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**9)),
)


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=9), rationals)
@settings(max_examples=300, deadline=None)
def test_sign_at_matches_oracle(coeffs, x):
    a = tuple(coeffs)
    assert _sign_at(a, x) == _sign_at_oracle(a, x)


@given(st.lists(st.integers(-20, 20), min_size=3, max_size=8).filter(lambda c: c[-1] != 0),
       st.lists(tolerances, min_size=1, max_size=3))
@settings(max_examples=120, deadline=None)
def test_refine_matches_fraction_oracle(coeffs, tols):
    sf = _squarefree_part(tuple(coeffs))
    poly = IntPolynomial(sf)
    bound = root_upper_bound(poly)
    for root in isolate_real_roots(poly, -bound, bound):
        if root.is_rational():
            continue
        expected = root.interval
        for tol in tols:
            expected = _refine_oracle(root._sf, expected, tol)
            got = root.refine(tol)
            assert got == expected and root.interval == expected
            assert all(type(e) is Fraction for e in got)


@pytest.mark.parametrize("factors,interval", [
    (((-3, 2),), (Fraction(1), Fraction(2))),
    (((-3, 8), (-2, 0, 1)), (Fraction(0), Fraction(1))),
    (((-5, 84), (1, 1, 0, 1)), (Fraction(-1, 3), Fraction(5, 7))),
])
def test_refine_lands_on_a_dyadic_root_like_the_oracle(factors, interval):
    coeffs = (1,)
    for f in factors:
        coeffs = _mul(coeffs, f)
    num = AlgebraicNumber(IntPolynomial(coeffs), interval)
    expected = _refine_oracle(num._sf, interval, Fraction(1, 2**40))
    assert expected[0] == expected[1]
    assert num.refine(Fraction(1, 2**40)) == expected
    assert num.exact == expected[0] and num.interval == expected


# --- grid landing against plain bisection ---------------------------------------

@st.composite
def _numbers_with_a_root_inside(draw):
    """An AlgebraicNumber on an interval (lo, hi) whose polynomial has a root
    placed inside: on the bisection grid of the interval, off it, irrational,
    three close together, or none at all; other roots may fall inside as
    well."""
    q, a, r = draw(st.integers(1, 60)), draw(st.integers(-200, 200)), draw(st.integers(1, 200))
    lo, hi = Fraction(a, q), Fraction(a + r, q)
    coeffs = tuple(draw(st.lists(st.integers(-9, 9), min_size=1, max_size=5)
                        .filter(lambda c: c[-1] != 0)))
    kind = draw(st.sampled_from(["grid", "off-grid", "irrational", "cluster", "none"]))
    if kind == "grid":
        m = draw(st.integers(1, 40))
        x = lo + (hi - lo) * Fraction(draw(st.integers(1, 2**m - 1)), 2**m)
        coeffs = _mul(coeffs, (-x.numerator, x.denominator))
    elif kind == "off-grid":
        # j / 101 is never a dyadic fraction of the interval
        x = lo + (hi - lo) * Fraction(draw(st.integers(1, 100)), 101)
        coeffs = _mul(coeffs, (-x.numerator, x.denominator))
    elif kind == "irrational":
        # the roots t -+ sqrt(2) / m of (m (x - t))^2 - 2, the upper one inside
        t = lo + (hi - lo) * Fraction(draw(st.integers(1, 99)), 100)
        m = max(draw(st.integers(1, 10**6)), int(2 / (hi - t)) + 1)
        u, v = t.numerator, t.denominator
        coeffs = _mul(coeffs, (m * m * u * u - 2 * v * v, -2 * m * m * u * v, m * m * v * v))
    elif kind == "cluster":
        # three roots t and t -+ sqrt(3) / m of y^3 - 3 y, y = m (x - t), all
        # inside one cell of the first bisection levels
        t = lo + (hi - lo) * Fraction(draw(st.integers(1, 99)), 100)
        m = max(draw(st.integers(1, 10**6)), int(2**10 / (hi - lo)) + 1)
        u, v = t.numerator, t.denominator
        A, B = m * v, m * u  # v y = A x - B
        coeffs = _mul(coeffs, (3 * v * v * B - B**3, 3 * A * B * B - 3 * v * v * A,
                               -3 * A * A * B, A**3))
    if draw(st.booleans()):
        coeffs = _mul(coeffs, coeffs)  # repeated roots: refine works on the squarefree part
    return AlgebraicNumber(IntPolynomial(coeffs), (lo, hi))


deep_tolerances = st.one_of(
    st.integers(0, 4096).map(lambda k: Fraction(1, 2**k)),
    st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**9)),
)


@given(_numbers_with_a_root_inside(), st.lists(deep_tolerances, min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_refine_equals_plain_bisection(num, tols):
    expected = num.interval
    for tol in tols:
        expected = _refine_oracle(num._sf, expected, tol)
        assert num.refine(tol) == expected and num.interval == expected
        assert num.exact == (expected[0] if expected[0] == expected[1] else None)


def test_refine_lands_only_where_descartes_proves_one_root(monkeypatch):
    calls = []
    real_land = algebraic._land
    monkeypatch.setattr(algebraic, "_land", lambda *a: calls.append(a) or real_land(*a))
    tol = Fraction(1, 2**64)
    # sqrt(7)/2, sqrt 2 and sqrt 3 all lie in (1, 2), with a sign change across it
    three = AlgebraicNumber(IntPolynomial(_mul(_mul((-2, 0, 1), (-3, 0, 1)), (-7, 0, 4))),
                            (Fraction(1), Fraction(2)))
    assert three.refine(tol) == _refine_oracle(three._sf, (Fraction(1), Fraction(2)), tol)
    assert calls == [] and not three._unique
    golden = AlgebraicNumber(IntPolynomial((-1, -1, 1)), (Fraction(1), Fraction(2)))
    assert golden.refine(tol) == _refine_oracle(golden._sf, (Fraction(1), Fraction(2)), tol)
    assert len(calls) == 1 and golden._unique


@pytest.mark.parametrize("literal", ["21(0)", "211(210)", "(43000321131)", "6513(253042050)"])
def test_a_deep_refinement_lands_without_bisecting_the_levels_left(monkeypatch, literal):
    # at 2^-1000 the doubling Newton steps end more than a cell off, and the
    # landing certifies through its retry from the level halfway down
    b = b_of(word(literal))
    interval, tol = b.interval, Fraction(1, 2**1000)
    evaluations, certified = [], []
    real_hom, real_certify = algebraic._hom, algebraic._certify
    monkeypatch.setattr(algebraic, "_hom", lambda *a: evaluations.append(a) or real_hom(*a))
    monkeypatch.setattr(algebraic, "_certify",
                        lambda *a: certified.append(real_certify(*a)) or certified[-1])
    got = b.refine(tol)
    monkeypatch.undo()
    assert len(evaluations) <= 64
    assert [cell is None for cell in certified] == [True, False, False]
    assert got == _refine_oracle(b._sf, interval, tol)


@pytest.mark.parametrize("n,bits", [(5, 64), (5, 300), (5, 1024), (4, 4096)])
def test_refine_of_threshold_bases_equals_plain_bisection(n, bits):
    for a in _threshold_words(n):
        b = b_of(a)
        if b.is_rational():
            continue
        expected = _refine_oracle(b._sf, b.interval, Fraction(1, 2**bits))
        assert b.refine(Fraction(1, 2**bits)) == expected
