
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from negbeta.errors import (
    MalformedPermutationError,
    UndefinedLandmarksError,
    VariantUndefinedError,
)
from negbeta.permutations import (
    Permutation,
    a_sequence,
    all_permutations,
    circular,
    is_collapsed,
    landmarks,
    mark_count,
    max_z,
    one_turn_images,
    parse_permutation,
    skeleton,
    z_digits,
    z_variants,
)
from negbeta.words import alt_lex_compare, periodization, sup_of_shifts, word

perms_up_to_6 = st.integers(2, 6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))).map(Permutation)
perms_up_to_14 = st.integers(2, 14).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))).map(Permutation)


def z_direct(pi: Permutation) -> tuple[int, ...]:
    """Reference for z: the definition written with pi itself instead of the
    circular companion (value i counts when the successor of i sits below
    the successor of i+1, skipping over the value pi(n))."""
    n = pi.n
    inv = pi.inverse()
    last = pi(n)
    out = []
    for j in range(1, n):
        count = 0
        for i in range(1, pi(j)):
            if i != last and i + 1 != last:
                if pi(inv[i - 1] + 1) < pi(inv[i] + 1):
                    count += 1
            elif i + 1 == last and last != n:
                ell, r = inv[last - 2], inv[last]
                if pi(ell + 1) < pi(r + 1):
                    count += 1
        out.append(count)
    return tuple(out)


# --- parsing -------------------------------------------------------------------

def test_parse_compact():
    assert parse_permutation("3421").image == (3, 4, 2, 1)


def test_parse_singleton():
    assert parse_permutation("1").n == 1


def test_parse_comma_form():
    assert parse_permutation("10,9,8,7,6,5,4,3,2,1").image == tuple(range(10, 0, -1))


def test_parse_rejects_bad_input():
    for text in ["3411", "135", "0", "", "1,2,4"]:
        with pytest.raises(MalformedPermutationError):
            parse_permutation(text)


# --- circular companion -----------------------------------------------------------

def test_circular_examples():
    assert str(circular(parse_permutation("892364157"))) == "536174892"
    assert str(circular(parse_permutation("3421"))) == "3142"
    assert str(circular(parse_permutation("453261"))) == "462531"


@given(perms_up_to_6)
def test_circular_is_the_full_cycle(pi):
    tilde = circular(pi)
    seen = {pi(1)}
    v = pi(1)
    for _ in range(pi.n - 1):
        v = tilde(v)
        seen.add(v)
    assert len(seen) == pi.n


# --- landmarks ----------------------------------------------------------------------

def test_landmark_examples():
    lm = landmarks(parse_permutation("892364157"))
    assert (lm.m, lm.ell, lm.r) == (2, 5, 1)
    lm = landmarks(parse_permutation("3421"))
    assert (lm.m, lm.ell, lm.r) == (2, None, 3)
    lm = landmarks(parse_permutation("1423"))
    assert (lm.m, lm.r, lm.ell) == (2, 2, 3)


def test_landmarks_need_n_at_least_2():
    with pytest.raises(UndefinedLandmarksError):
        landmarks(parse_permutation("1"))


@given(perms_up_to_6)
def test_landmark_absence_rules(pi):
    lm = landmarks(pi)
    assert pi(lm.m) == pi.n
    assert (lm.ell is None) == (pi(pi.n) == 1)
    assert (lm.r is None) == (pi(pi.n) == pi.n)
    assert lm.ell is not None or lm.r is not None


# --- digit skeleton -------------------------------------------------------------------

def test_z_examples():
    assert str(z_digits(parse_permutation("892364157"))) == "33012102"
    assert str(z_digits(parse_permutation("7325416"))) == "100100"
    for n in range(2, 9):
        ident = Permutation(tuple(range(1, n + 1)))
        assert z_digits(ident).digits == tuple(range(n - 1))


def test_z_matches_direct_definition_exhaustive():
    for n in range(2, 9):
        for pi in all_permutations(n):
            assert z_digits(pi).digits == z_direct(pi), pi


@given(perms_up_to_14)
@settings(max_examples=300)
def test_skeleton_matches_references_up_to_14(pi):
    sk = skeleton(pi)
    assert sk.z.digits == z_direct(pi)
    tilde = circular(pi).image
    cut = [v for idx, v in enumerate(tilde, start=1) if idx != pi(pi.n)]
    assert sk.marks == sum(1 for x, y in zip(cut, cut[1:]) if x < y)
    assert sup_of_shifts(sk.a) == sk.a


def test_max_z_equals_ascents_of_cut_companion():
    for pi in all_permutations(6):
        tilde = circular(pi).image
        cut = [v for idx, v in enumerate(tilde, start=1) if idx != pi(pi.n)]
        ascents = sum(1 for x, y in zip(cut, cut[1:]) if x < y)
        assert max_z(pi) == ascents


def test_one_turn_images_are_the_few_and_many_mark_images():
    # oracle: all of S_n, filtered by mark count
    for n in range(2, 9):
        marks = {image: mark_count(image) for image in itertools.permutations(range(1, n + 1))}
        for last in range(1, n + 1):
            for few in (True, False):
                got = list(one_turn_images(n, last, few))
                assert len(got) == len(set(got)), (n, last, few)
                assert set(got) == {image for image, k in marks.items() if image[-1] == last
                                    and (k <= 1 if few else k >= n - 3)}, (n, last, few)


def test_z_monotone_in_rank_with_tiebreak():
    # digit-gap law, exhaustive over small sizes (acceptance covers 7)
    for n in range(2, 7):
        for pi in all_permutations(n):
            z = z_digits(pi).digits
            for i in range(1, n):
                for j in range(1, n):
                    if pi(i) < pi(j):
                        assert z[i - 1] <= z[j - 1]
                        if z[i - 1] == z[j - 1]:
                            assert pi(i + 1) > pi(j + 1)


# --- collapse and variants ----------------------------------------------------------

def test_collapse_examples():
    assert is_collapsed(parse_permutation("7325416"))
    assert not is_collapsed(parse_permutation("3142"))
    assert is_collapsed(parse_permutation("1423"))


def test_collapse_matches_periodization_coincidence():
    for pi in all_permutations(6):
        lm = landmarks(pi)
        if lm.ell is None or lm.r is None:
            continue
        z = z_digits(pi).digits
        coincide = alt_lex_compare(periodization(z[lm.ell - 1:]),
                                   periodization(z[lm.r - 1:])) == 0
        assert coincide == is_collapsed(pi)


def test_variant_examples():
    vs = z_variants(parse_permutation("7325416"))
    assert [str(v) for v in vs] == ["200100", "200210", "211210"]
    assert [v.variant_index for v in vs] == [0, 1, 2]
    assert [str(v) for v in z_variants(parse_permutation("1423"))] == ["010"]


def test_variant_chain_for_312():
    pi = parse_permutation("312")
    assert [str(v) for v in z_variants(pi)] == ["10"]
    assert a_sequence(pi) == word("1(0)")
    from negbeta.algebraic import b_of, poly_from_descending, largest_root_gt1

    golden = largest_root_gt1(poly_from_descending(1, -1, -1))
    assert b_of(a_sequence(pi)).equals(golden)


def test_variants_require_collapse():
    with pytest.raises(VariantUndefinedError):
        z_variants(parse_permutation("3142"))


def test_variants_dominate_base_digits():
    for pi in all_permutations(6):
        if not is_collapsed(pi):
            continue
        z = z_digits(pi).digits
        for v in z_variants(pi):
            assert all(a in (b, b + 1) for a, b in zip(v.digits, z))
            assert v.digits[landmarks(pi).m - 1] == z[landmarks(pi).m - 1] + 1


# --- the threshold word ----------------------------------------------------------------

def test_a_sequence_worked_examples():
    assert a_sequence(parse_permutation("3421")) == word("(100)")
    assert a_sequence(parse_permutation("892364157")) == word("(30121023)")
    assert a_sequence(parse_permutation("7325416")) == word("211(210)")
    assert a_sequence(parse_permutation("453261")) == word("(10)")
    assert a_sequence(parse_permutation("1423")) == word("1(0)")
    assert a_sequence(parse_permutation("3142")) == word("(100)")
    assert a_sequence(parse_permutation("2314")) == word("(0)")
    assert a_sequence(parse_permutation("4231")) == word("1(0)")


def test_a_sequence_length_two():
    assert a_sequence(parse_permutation("12")) == word("(0)")
    assert a_sequence(parse_permutation("21")) == word("(0)")


def test_a_sequence_sup_fixed_exhaustive():
    for n in range(2, 8):
        for pi in all_permutations(n):
            a = a_sequence(pi)
            assert sup_of_shifts(a) == a, pi


def test_assembly_identities():
    # the two displayed rewritings of the non-collapsed assembly
    from negbeta.words import canonicalize

    for pi in all_permutations(5):
        lm = landmarks(pi)
        if pi(pi.n) == 1 or is_collapsed(pi) or (pi.n - lm.m) % 2 != 0:
            continue
        z = z_digits(pi).digits
        m, ell = lm.m, lm.ell
        assembled = canonicalize(z[m - 1:], z[ell - 1:])
        if ell < m:
            assert assembled == canonicalize((), z[m - 1:] + z[ell - 1:m - 1])
        elif ell > m:
            assert assembled == canonicalize(z[m - 1:ell - 1], z[ell - 1:])


def test_landmark_suffix_order():
    for pi in all_permutations(6):
        lm = landmarks(pi)
        z = z_digits(pi).digits
        if lm.ell is not None and lm.r is not None:
            assert alt_lex_compare(periodization(z[lm.ell - 1:]),
                                   periodization(z[lm.r - 1:])) <= 0
        if pi(pi.n) == 1:
            assert alt_lex_compare(periodization((0,) + z[lm.m - 1:]),
                                   periodization(z[lm.r - 1:])) <= 0
