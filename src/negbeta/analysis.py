"""Ordinal patterns of digit words and orbits, the realization threshold
pipeline, enumeration over all permutations of a given length, and the
brute-force search oracles that cross-check the closed-form answers.

The central fact being operationalized: a permutation is realized by the
negative-base shift exactly for bases above b(a), where a is the threshold
word assembled from the permutation's digit skeleton; the minimal alphabet
size needed by any realizing sequence is floor(b(a)) + 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from . import words
from .algebraic import (
    _COMPARE_WIDTH,
    AlgebraicNumber,
    IntPolynomial,
    _poly_gcd,
    as_rational,
    b_of,
    shift_root,
)
from .dynamics import (
    DEFAULT_PRECISION,
    BetaValue,
    MembershipOracle,
    PrecisionConfig,
    expansion_of_one,
    orbit_points,
)
from .errors import (
    InvariantError,
    NegBetaError,
    PatternUndefinedError,
    ResourceLimitError,
    SearchInconclusiveError,
)
from .permutations import (
    DigitVector,
    Landmarks,
    Permutation,
    Skeleton,
    a_sequence,
    all_permutations,
    one_turn_images,
    perm,
    rank_positions,
    skeleton,
)
from .words import EventuallyPeriodicWord, _canonical

ENUMERATION_BOUND = 12  # the largest n_max that count_b1 runs in a few seconds
SPECTRUM_BOUND = 8  # the largest n whose whole S_n spectrum and extremal set are enumerated


# --- patterns of words and orbits -------------------------------------------

def pat_of_word(w: EventuallyPeriodicWord, n: int) -> Permutation:
    """Ordinal pattern of the first n tails of w under alternating-lex order.

    pat(i) = j when the i-th tail is j-th smallest; coincident tails leave
    the pattern undefined, as tails q + 1 and q + 1 + p do for every n above
    the preperiod length q plus the period length p.
    """
    if n < 1:
        raise NegBetaError(f"pattern length must be at least 1, got {n}")
    q, p = len(w.pre), len(w.per)
    if n > q + p:
        raise PatternUndefinedError(f"tails {q + 1} and {q + 1 + p} of {w} coincide")
    image, tie = rank_positions(range(1, n + 1), words.tail_comparator(w, n))
    if tie:
        raise PatternUndefinedError(f"tails {tie[0]} and {tie[1]} of {w} coincide")
    return Permutation(image)


def pat_of_orbit(beta, x, n: int) -> Permutation:
    """Ordinal pattern of x, T(x), ..., T^(n-1)(x) under the negative-base
    transformation, with every point comparison certified."""
    if n < 1:
        raise NegBetaError(f"pattern length must be at least 1, got {n}")
    arith, pts = orbit_points(beta, x, n)
    image, tie = rank_positions(range(n), lambda a, b: arith.compare(pts[a], pts[b]))
    if tie:
        raise PatternUndefinedError(f"orbit revisits a point at steps {tie[0]} and {tie[1]}")
    return Permutation(image)


def prop1_check(w: EventuallyPeriodicWord, pi: Permutation) -> bool:
    """Realization test by the three structural conditions: the digit-gap
    inequality on the first n-1 letters, and the two tail comparisons at
    position n against the landmark positions."""
    n = pi.n
    sk = skeleton(pi)
    z = sk.z.digits
    d = w.prefix(n - 1)
    for i in range(1, n):
        for j in range(1, n):
            if pi(j) > pi(i) and d[j - 1] - d[i - 1] < z[j - 1] - z[i - 1]:
                return False
    lm = sk.landmarks
    cmp = words.tail_comparator(w, n)
    if pi(n) != 1 and cmp(n, lm.ell) <= 0:
        return False
    if pi(n) != pi.n and cmp(n, lm.r) >= 0:
        return False
    return True


# --- the analysis report ------------------------------------------------------

def _decimal(b: AlgebraicNumber, places: int) -> str:
    """A threshold as text: the exact rational, or rounded to places."""
    return str(b.exact) if b.is_rational() else b.decimal(places)


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the threshold pipeline derives for one permutation."""

    pi: Permutation
    landmarks: Landmarks
    z: DigitVector
    variants: tuple[DigitVector, ...]
    collapsed: bool
    a: EventuallyPeriodicWord
    poly: IntPolynomial | None
    b_minus: AlgebraicNumber
    n_minus: int
    epsilon: int
    b1_exponent: int | None

    def b_decimal(self, places: int = 3) -> str:
        return _decimal(self.b_minus, places)

    def to_json(self) -> dict:
        lm = {"m": self.landmarks.m, "ell": self.landmarks.ell, "r": self.landmarks.r}
        return {
            "pi": str(self.pi),
            "landmarks": lm,
            "z": str(self.z),
            "variants": [str(v) for v in self.variants],
            "collapsed": self.collapsed,
            "a": str(self.a),
            "poly": list(self.poly.coefficients) if self.poly else None,
            "poly_str": str(self.poly) if self.poly else None,
            "b_minus": self.b_decimal(12),
            "b_minus_exact": self.b_minus.is_rational(),
            "n_minus": self.n_minus,
            "epsilon": self.epsilon,
            "b1_exponent": self.b1_exponent,
        }


def epsilon_of(pi: Permutation) -> int:
    """1 when pi is collapsed or the threshold word is the periodization of
    (max digit, 0), else 0."""
    return skeleton(pi).epsilon


def n_minus_formula(pi: Permutation) -> int:
    """Minimal number of distinct values of a realizing sequence, from the
    digit skeleton alone (no root isolation)."""
    return skeleton(pi).n_minus


def _is_b1(a: EventuallyPeriodicWord) -> bool:
    return words.compare_with_u(a) <= 0


def _b1_exponent(a: EventuallyPeriodicWord) -> int:
    k = 0
    while True:
        fp = words.phi_power(k)
        if len(fp) > 4 * a.period_length + 64:
            raise InvariantError(f"threshold word {a} at base 1 matches no substitution power")
        if not a.pre and _canonical((), fp) == a:
            return k
        k += 1


def analyze(pi) -> AnalysisReport:
    """Full report: threshold word, polynomial, threshold base, minimal
    alphabet size, and the base-1 witness exponent when the threshold is 1."""
    pi = perm(pi)
    if pi.n < 2:
        raise NegBetaError("analysis needs n >= 2; length-1 patterns carry no order content")
    # a permutation from inverse.construct_state carries its skeleton and base
    sk, b = getattr(pi, "_round_trip", None) or (skeleton(pi), None)
    a = sk.a
    if b is None:
        b = b_of(a)
    if sk.n_minus != b.floor() + 1:
        raise InvariantError(f"alphabet formula disagrees with floor for {pi}")
    one = b == 1
    return AnalysisReport(
        pi=pi, landmarks=sk.landmarks, z=sk.z, variants=sk.variants,
        collapsed=sk.collapsed, a=a, poly=None if one else b.polynomial, b_minus=b,
        n_minus=sk.n_minus, epsilon=sk.epsilon, b1_exponent=_b1_exponent(a) if one else None,
    )


# --- enumeration: counting threshold-1 permutations ---------------------------

def _b1_fast(image: tuple[int, ...]) -> bool:
    """Threshold-1 test on a raw one-line image.

    The first digit of the threshold word is the mark count (plus one when
    collapsed), and the substitution fixed point starts with 1, so a sum of
    two or more rules threshold 1 out before the word is built.
    """
    sk = skeleton(Permutation(image))
    if sk.marks + sk.collapsed >= 2:
        return False
    return _is_b1(sk.a)


def count_b1(n_max: int, jobs: int = 1) -> list[int]:
    """Counts of permutations with threshold base exactly 1 for lengths
    2 .. n_max, testing only images with at most one mark, a block per pi(n)."""
    if n_max < 2 or jobs < 1:
        raise NegBetaError(f"count_b1 needs n_max >= 2 and jobs >= 1, got {n_max} and {jobs}")
    if n_max > ENUMERATION_BOUND:
        raise ResourceLimitError(f"enumeration bound is {ENUMERATION_BOUND}, asked for {n_max}")
    blocks = [[(n, last) for last in range(1, n + 1)] for n in range(2, n_max + 1)]
    if jobs == 1:
        return [sum(map(_count_b1_ending, length)) for length in blocks]
    import multiprocessing

    with multiprocessing.Pool(min(jobs, n_max)) as pool:  # no length has more blocks
        return [sum(pool.map(_count_b1_ending, length)) for length in blocks]


def _count_b1_ending(block: tuple[int, int]) -> int:
    n, last = block
    return sum(1 for image in one_turn_images(n, last, few=True) if _b1_fast(image))


# --- the spectrum of thresholds over S_n --------------------------------------

@dataclass
class SpectrumGroup:
    """All permutations of one length sharing a single threshold base."""

    value: AlgebraicNumber
    poly: IntPolynomial
    members: list[Permutation]

    def decimal(self, places: int = 3) -> str:
        return _decimal(self.value, places)

    def to_json(self) -> dict:
        return {
            "value": self.decimal(6),
            "polynomial": list(self.poly.coefficients),
            "polynomial_str": str(self.poly),
            "permutations": [str(p) for p in self.members],
        }


def spectrum(n: int) -> list[SpectrumGroup]:
    """Group S_n by threshold base, in increasing order of the base.

    The base depends only on the threshold word, so S_n is first bucketed by
    word and one root is isolated per word.  Sorted by lower endpoint, the
    roots fall into clusters of chained overlapping intervals.  Equal roots
    share a cluster: both intervals contain the common value, so the running
    upper end stays above every lower endpoint sorted between them.  So
    ``equals`` -- polynomial-root identity, never decimals -- is only asked
    within a cluster.
    """
    if n < 2:
        raise NegBetaError(f"spectrum needs n >= 2, got {n}")
    if n > SPECTRUM_BOUND:
        raise ResourceLimitError(f"spectrum enumeration is limited to n <= {SPECTRUM_BOUND}")
    buckets: dict[EventuallyPeriodicWord, list[Permutation]] = {}
    for pi in all_permutations(n):
        buckets.setdefault(a_sequence(pi), []).append(pi)
    roots = []
    for a, members in buckets.items():
        b = b_of(a)
        b.refine(_COMPARE_WIDTH)
        roots.append((b, b.polynomial, members))
    roots.sort(key=lambda root: root[0].interval[0])
    groups: list[SpectrumGroup] = []
    cluster: list[SpectrumGroup] = []
    cluster_hi = Fraction(1)  # no base here is below 1
    for b, poly, members in roots:
        lo, hi = b.interval
        if lo > cluster_hi:
            cluster = []
        cluster_hi = max(cluster_hi, hi)
        for g in cluster:
            if g.value.equals(b):
                g.members.extend(members)
                common = _poly_gcd(g.poly.coefficients, poly.coefficients)
                g.poly = IntPolynomial(common).sign_normalized()
                break
        else:
            cluster.append(SpectrumGroup(value=b, poly=poly.squarefree_part(), members=members))
            groups.append(cluster[-1])
    groups.sort(key=functools.cmp_to_key(lambda g, h: g.value.compare(h.value)))
    for g in groups:
        g.members.sort(key=lambda p: p.image)
    return groups


# --- extremal behaviour --------------------------------------------------------

def extremal_word(n: int) -> EventuallyPeriodicWord:
    """The word (n-2)(n-3)...1 followed by zeros, whose base is the largest
    threshold over S_n."""
    return _canonical(tuple(range(n - 2, 0, -1)), (0,))


def max_families(n: int) -> list[Permutation]:
    """The four families with minimal alphabet size n-1 (for n >= 4)."""
    ident = tuple(range(1, n + 1))
    swap_last = ident[:-2] + (n, n - 1)
    rev = tuple(range(n, 0, -1))
    rev312 = tuple(range(n, 2, -1)) + (1, 2)
    return [Permutation(ident), Permutation(swap_last), Permutation(rev), Permutation(rev312)]


@dataclass(frozen=True)
class ExtremalReport:
    n: int
    max_value: AlgebraicNumber
    max_poly: IntPolynomial
    attaining: tuple[Permutation, ...]
    n_minus_max_set: tuple[Permutation, ...]
    exhaustive: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "max_b_minus": self.max_value.decimal(12),
            "polynomial": list(self.max_poly.coefficients),
            "polynomial_str": str(self.max_poly),
            "attaining": [str(p) for p in self.attaining],
            "n_minus_equal_n_minus_1": [str(p) for p in self.n_minus_max_set],
            "exhaustive": self.exhaustive,
        }


def extremal_report(n: int) -> ExtremalReport:
    """Largest threshold over S_n with its attaining set, plus the set with
    minimal alphabet size n-1, verified by exhaustion within the enumeration
    bound."""
    if n < 3:
        raise NegBetaError("extremal analysis needs n >= 3")
    w_star = extremal_word(n)
    lam = b_of(w_star)
    if not (lam.compare(Fraction(n - 2)) > 0 and lam.compare(Fraction(n - 1)) < 0):
        raise InvariantError("extremal base must lie strictly between n-2 and n-1")
    exhaustive = n <= SPECTRUM_BOUND
    attaining: list[Permutation] = []
    nm_set: list[Permutation] = []
    if exhaustive:
        # N- = marks + 1 + epsilon = n - 1 needs at least n - 3 marks
        for pi in map(Permutation, sorted(image for last in range(1, n + 1)
                                          for image in one_turn_images(n, last, few=False))):
            sk = skeleton(pi)
            if sk.n_minus == n - 1:
                nm_set.append(pi)
                # floor(B-) = n - 2: a candidate for the maximum; settle exactly
                if b_of(sk.a).equals(lam):
                    attaining.append(pi)
    else:
        attaining = [max_families(n)[2] if n % 2 == 0 else max_families(n)[3]]
    return ExtremalReport(
        n=n, max_value=lam, max_poly=lam.polynomial.squarefree_part(),
        attaining=tuple(attaining), n_minus_max_set=tuple(nm_set),
        exhaustive=exhaustive,
    )


# --- bounded realization search -----------------------------------------------

def _condition_i_prefixes(sk: Skeleton, alphabet_size: int) -> list[tuple[int, ...]]:
    """All first-(n-1)-digit choices satisfying the digit-gap condition with
    digits below alphabet_size: offsets above the skeleton must be
    nondecreasing along the ranks of pi."""
    pi, z = sk.pi, sk.z.digits
    order = sorted(range(1, pi.n), key=lambda j: pi(j))
    results: list[tuple[int, ...]] = []
    w = [0] * (pi.n - 1)

    def rec(idx: int, smin: int):
        if idx == len(order):
            results.append(tuple(w))
            return
        j = order[idx]
        for s in range(smin, alphabet_size - z[j - 1]):
            w[j - 1] = z[j - 1] + s
            rec(idx + 1, s)

    rec(0, 0)
    return results


def _advance(ties: tuple, pos: int, d: int) -> tuple | None:
    """The ties still open after digit d at position pos, or None as soon as
    one resolves to its wrong side.

    A tie (start, reference, wrong) says that the suffix from position start
    still equals reference(1), reference(2), ...; its first differing digit
    puts the suffix above or below the reference, and wrong names the side
    that rules the string out.
    """
    kept = []
    for tie in ties:
        start, reference, wrong = tie
        i = pos - start + 1
        ref = reference(i)
        if d == ref:
            kept.append(tie)
        elif words.alt_order(d, ref, i) == wrong:
            return None
    return tuple(kept)


def _strings(start: int, alphabet_size: int, length: int, ties: tuple, opened: tuple,
             digits: tuple[int, ...] = ()):
    """Digit strings for the positions from start on, up to length digits
    long, that leave every tie open or resolved to its right side: depth
    first, digits ascending, each string before its extensions.

    ties are open before the first digit, and every position opens one more
    tie (position, reference, wrong) per pair (reference, wrong) in opened.
    """
    pos = start + len(digits)
    ties += tuple((pos, reference, wrong) for reference, wrong in opened)
    for d in range(alphabet_size):
        kept = _advance(ties, pos, d)
        if kept is None:
            continue
        extended = digits + (d,)
        yield extended
        if len(extended) < length:
            yield from _strings(start, alphabet_size, length, kept, opened, extended)


def _realizes(w: EventuallyPeriodicWord, pi: Permutation) -> bool:
    try:
        return pat_of_word(w, pi.n) == pi
    except PatternUndefinedError:
        return False


def _search_realizing(pi: Permutation, alphabet_size: int, max_prefix: int, max_period: int,
                      admissibility: MembershipOracle | None = None,
                      ) -> EventuallyPeriodicWord | None:
    """The first eventually periodic word with preperiod at most max_prefix
    and period at most max_period realizing pi, or None, optionally
    restricted to words admissible for a given base.

    Candidates are prefix choices satisfying the digit-gap condition followed
    by the strings of ``_strings``.  Two ties keep the tail from position n
    between the periodized landmark words; when admissibility is tracked,
    every suffix is also tied to the expansion of 1 above it and to the lower
    bound below it, so a string is abandoned as soon as some suffix provably
    leaves the shift.  Every split of a string into preperiod and period is
    checked exactly before being reported.
    """
    n = pi.n
    sk = skeleton(pi)
    lm = sk.landmarks
    seen: set[EventuallyPeriodicWord] = set()
    tail_pre_max = max(0, max_prefix - (n - 1))
    opened = () if admissibility is None else (
        (admissibility.d1_digit, words.GREATER), (admissibility.lower_digit, words.LESS))

    for prefix in _condition_i_prefixes(sk, alphabet_size):
        upper = _canonical((), prefix[lm.r - 1:]) if pi(n) != n else None
        lower = _canonical((), prefix[lm.ell - 1:]) if pi(n) != 1 else None
        if upper is not None and lower is not None and not lower < upper:
            continue
        ties = ()
        for pos, d in enumerate(prefix, start=1):
            ties = _advance(ties + tuple((pos, ref, wrong) for ref, wrong in opened), pos, d)
            if ties is None:
                break
        if ties is None:
            continue
        landmarks = tuple((n, bound.digit, wrong)
                          for bound, wrong in ((lower, words.LESS), (upper, words.GREATER))
                          if bound is not None)
        for tail in _strings(n, alphabet_size, tail_pre_max + max_period, landmarks + ties, opened):
            depth = len(tail)
            splits = list(range(max(1, depth - max_period), min(tail_pre_max, depth - 1) + 1))
            if depth <= max_period:
                splits.append(0)  # the purely periodic tail
            for i in splits:
                w = _canonical(prefix + tail[:i], tail[i:])
                if w in seen:
                    continue
                seen.add(w)
                if (len(w.pre) <= max_prefix and len(w.per) <= max_period and _realizes(w, pi)
                        and (admissibility is None or admissibility.contains(w))):
                    return w
    return None


def min_alphabet_bruteforce(pi, max_prefix: int | None = None,
                            max_period: int | None = None,
                            max_alphabet: int | None = None,
                            ) -> tuple[int, EventuallyPeriodicWord]:
    """Smallest alphabet size admitting a realizing word within the bounds,
    with a witness; independent of the threshold machinery.

    The bounds default to 2n for preperiod and period and to n for the
    alphabet: the constructive witnesses have preperiod and period below n,
    and the factor two is a safety margin.
    """
    pi = perm(pi)
    n = pi.n
    max_prefix = 2 * n if max_prefix is None else max_prefix
    max_period = 2 * n if max_period is None else max_period
    max_alphabet = n if max_alphabet is None else max_alphabet
    if max_prefix < 0 or max_period < 1 or max_alphabet < 1:
        raise NegBetaError(
            "search bounds need max_prefix >= 0, max_period >= 1 and max_alphabet >= 1; "
            f"got {max_prefix}, {max_period} and {max_alphabet}")
    for size in range(1, max_alphabet + 1):
        hit = _search_realizing(pi, size, max_prefix, max_period)
        if hit is not None:
            return size, hit
    raise SearchInconclusiveError(
        f"no realizing word over alphabets up to {max_alphabet} within bounds for {pi}")


# --- admissible witnesses and the threshold sandwich ---------------------------

def _beta_plus(b: AlgebraicNumber, margin: Fraction) -> BetaValue:
    """The base b + margin, for a threshold b."""
    return BetaValue.of(shift_root(b, margin))


def witness_word(pi, beta_margin=Fraction(1, 20)) -> EventuallyPeriodicWord:
    """A realizing word admissible just above the threshold base.

    Tries the constructive candidates first (threshold word with its period
    pumped and the tail replaced by boundary companions), then falls back to
    the bounded search with admissibility tracked.
    """
    pi = perm(pi)
    margin = as_rational(beta_margin)
    if margin <= 0:
        raise NegBetaError("margin must be positive")
    return _witness_above(analyze(pi), margin, DEFAULT_PRECISION)


def _witness_above(report: AnalysisReport, margin: Fraction,
                   precision: PrecisionConfig) -> EventuallyPeriodicWord:
    pi = report.pi
    beta = _beta_plus(report.b_minus, margin)
    oracle = MembershipOracle(beta, precision)
    n = pi.n
    for cand in _seeded_witnesses(report, precision):
        if _realizes(cand, pi) and oracle.contains(cand):
            return cand
    hit = _search_realizing(pi, beta.floor() + 1, 2 * n, 2 * n, admissibility=oracle)
    if hit is not None:
        return hit
    raise SearchInconclusiveError(
        f"no admissible witness for {pi} at margin {margin} above B-: searched the seeded "
        f"candidates, then preperiod and period up to {2 * n}")


def _seeded_witnesses(report: AnalysisReport, precision: PrecisionConfig):
    """Candidate witnesses in the shape of the worked constructions: the
    skeleton prefix, the threshold word's period repeated, then a companion
    tail."""
    lm = report.landmarks
    a = report.a
    if report.collapsed:
        variant_prefixes = [v.digits[:lm.m - 1] for v in report.variants]
    else:
        variant_prefixes = [report.z.digits[:lm.m - 1]]
    tails: list[EventuallyPeriodicWord] = []
    per = a.per
    if per != (0,):
        try:
            tails.append(_canonical((), words.derived_word(per)))
        except NegBetaError:
            pass
    tails.append(_canonical((), per[:-1] + (per[-1] + 1,)))
    if report.b_minus != 1:
        d1 = expansion_of_one(report.b_minus, precision=precision).word
        if d1 is not None:
            tails.append(d1)
    for zpfx in variant_prefixes:
        yield _canonical(zpfx + a.pre, a.per)
        for reps in range(0, 9):
            body = zpfx + a.pre + a.per * reps
            for t in tails:
                yield _canonical(body + t.pre, t.per)


@dataclass(frozen=True)
class SandwichReport:
    """Outcome of the threshold sandwich for one permutation."""

    pi: Permutation
    b_decimal: str
    margin: Fraction
    witness_above: EventuallyPeriodicWord
    found_below: EventuallyPeriodicWord | None
    found_at: EventuallyPeriodicWord | None

    @property
    def passed(self) -> bool:
        return self.found_below is None and self.found_at is None

    def to_json(self) -> dict:
        return {
            "pi": str(self.pi),
            "b_minus": self.b_decimal,
            "margin": str(self.margin),
            "witness_above": str(self.witness_above),
            "found_below": str(self.found_below) if self.found_below else None,
            "found_at": str(self.found_at) if self.found_at else None,
            "passed": self.passed,
        }


def realizable_at(pi, beta, precision: PrecisionConfig = DEFAULT_PRECISION,
                  ) -> EventuallyPeriodicWord | None:
    """Bounded exhaustive search for an admissible realizing word at a fixed
    base, with preperiod and period up to 2n; returns the witness or None
    when the bounded class is empty."""
    pi = perm(pi)
    beta = BetaValue.of(beta)
    return _search_realizing(pi, beta.floor() + 1, 2 * pi.n, 2 * pi.n,
                             admissibility=MembershipOracle(beta, precision))


def sandwich_check(pi, margin=Fraction(1, 20),
                   precision: PrecisionConfig = DEFAULT_PRECISION) -> SandwichReport:
    """Realizable just above the threshold, not realizable just below nor at
    the threshold itself (within the searched class).  A witness search
    that runs out raises SearchInconclusiveError: it refutes nothing."""
    pi = perm(pi)
    margin = as_rational(margin)
    report = analyze(pi)
    if report.b_minus == 1:
        raise NegBetaError("sandwich check applies to thresholds above 1")
    if margin <= 0:
        raise NegBetaError("margin must be positive")
    b = report.b_minus
    witness = _witness_above(report, margin, precision)
    below = None
    if b.compare(1 + margin) > 0:
        below = realizable_at(pi, _beta_plus(b, -margin), precision)
    at = realizable_at(pi, b, precision)
    return SandwichReport(
        pi=pi, b_decimal=report.b_decimal(6), margin=margin,
        witness_above=witness, found_below=below, found_at=at,
    )
