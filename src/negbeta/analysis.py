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
import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import words
from .algebraic import (
    AlgebraicNumber,
    IntPolynomial,
    _poly_gcd,
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
    mark_count,
    perm,
    skeleton,
)
from .words import EventuallyPeriodicWord, canonicalize, periodization

ENUMERATION_BOUND = 10


# --- patterns of words and orbits -------------------------------------------

def pat_of_word(w: EventuallyPeriodicWord, n: int) -> Permutation:
    """Ordinal pattern of the first n tails of w under alternating-lex order.

    pat(i) = j when the i-th tail is j-th smallest; coincident tails leave
    the pattern undefined.
    """
    cmp = words.tail_comparator(w, n)
    order = sorted(range(1, n + 1), key=functools.cmp_to_key(cmp))
    for a, b in zip(order, order[1:]):
        if cmp(a, b) == 0:
            raise PatternUndefinedError(f"tails {a} and {b} of {w} coincide")
    image = [0] * n
    for rank, start in enumerate(order, start=1):
        image[start - 1] = rank
    return Permutation(tuple(image))


def pat_of_orbit(beta, x, n: int) -> Permutation:
    """Ordinal pattern of x, T(x), ..., T^(n-1)(x) under the negative-base
    transformation, with every point comparison certified."""
    arith, pts = orbit_points(beta, x, n)
    for i in range(n):
        for j in range(i + 1, n):
            if arith.equal(pts[i], pts[j]):
                raise PatternUndefinedError(f"orbit revisits a point at steps {i} and {j}")
    order = sorted(range(n), key=functools.cmp_to_key(
        lambda a, b: arith.compare(pts[a], pts[b])))
    image = [0] * n
    for rank, idx in enumerate(order, start=1):
        image[idx] = rank
    return Permutation(tuple(image))


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

def _decimal(b, places: int) -> str:
    """A threshold as text: "1", the exact rational, or rounded to places."""
    if b == 1:
        return "1"
    if b.is_rational():
        return str(b.exact)
    return b.decimal(places)


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
    b_minus: object  # literal 1 or AlgebraicNumber
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
            "b_minus_exact": self.b_minus == 1 or self.b_minus.is_rational(),
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
        if not a.pre and periodization(fp) == a:
            return k
        k += 1


def analyze(pi) -> AnalysisReport:
    """Full report: threshold word, polynomial, threshold base, minimal
    alphabet size, and the base-1 witness exponent when the threshold is 1."""
    pi = perm(pi)
    if pi.n < 2:
        raise NegBetaError("analysis needs n >= 2; length-1 patterns carry no order content")
    sk = skeleton(pi)
    a = sk.a
    if _is_b1(a):
        b = 1
        poly = None
        exponent = _b1_exponent(a)
        floor_b = 1
    else:
        b = b_of(a)
        poly = b.polynomial
        exponent = None
        floor_b = b.floor()
    if sk.n_minus != floor_b + 1:
        raise InvariantError(f"alphabet formula disagrees with floor for {pi}")
    return AnalysisReport(
        pi=pi, landmarks=sk.landmarks, z=sk.z, variants=sk.variants,
        collapsed=sk.collapsed, a=a, poly=poly, b_minus=b, n_minus=sk.n_minus,
        epsilon=sk.epsilon, b1_exponent=exponent,
    )


# --- enumeration: counting threshold-1 permutations ---------------------------

def _b1_fast(image: tuple[int, ...]) -> bool:
    """Threshold-1 test tuned for full enumeration.

    The first digit of the threshold word is the mark count (plus one when
    collapsed), and the substitution fixed point starts with 1, so mark
    counts of two or more are rejected from the raw image, before building a
    permutation or its skeleton.
    """
    if mark_count(image) >= 2:
        return False
    sk = skeleton(Permutation(image))
    if sk.marks == 1 and sk.collapsed:
        return False
    return _is_b1(sk.a)


def count_b1(n_max: int, jobs: int = 1) -> list[int]:
    """Counts of permutations with threshold base exactly 1, for lengths
    2 .. n_max, by full enumeration (no root isolation involved)."""
    if n_max > ENUMERATION_BOUND:
        raise ResourceLimitError(f"enumeration bound is {ENUMERATION_BOUND}, asked for {n_max}")
    lengths = range(2, n_max + 1)
    if jobs > 1 and n_max >= 2:
        import multiprocessing

        # one block per first value, so no length needs more than n_max workers
        with multiprocessing.Pool(min(jobs, n_max)) as pool:
            return [sum(pool.map(_count_b1_block, [(n, first) for first in range(1, n + 1)]))
                    for n in lengths]
    return [sum(1 for image in itertools.permutations(range(1, n + 1)) if _b1_fast(image))
            for n in lengths]


def _count_b1_block(args) -> int:
    n, first = args
    rest = [v for v in range(1, n + 1) if v != first]
    return sum(1 for tail in itertools.permutations(rest) if _b1_fast((first, *tail)))


# --- the spectrum of thresholds over S_n --------------------------------------

@dataclass
class SpectrumGroup:
    """All permutations of one length sharing a single threshold base."""

    value: object  # literal 1 or AlgebraicNumber
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
    if n > 8:
        raise ResourceLimitError("spectrum enumeration is limited to n <= 8")
    buckets: dict[EventuallyPeriodicWord, list[Permutation]] = {}
    for pi in all_permutations(n):
        buckets.setdefault(a_sequence(pi), []).append(pi)
    ones: list[Permutation] = []
    roots = []
    for a, members in buckets.items():
        if _is_b1(a):
            ones.extend(members)
            continue
        b = b_of(a)
        b.refine(Fraction(1, 2**24))
        roots.append((b, b.polynomial, members))
    roots.sort(key=lambda root: root[0].interval[0])
    groups: list[SpectrumGroup] = []
    cluster: list[SpectrumGroup] = []
    cluster_hi = Fraction(1)  # every base here exceeds 1
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
    if ones:
        one_group = SpectrumGroup(value=1, poly=IntPolynomial((-1, 1)), members=ones)
        groups.insert(0, one_group)
    for g in groups:
        g.members.sort(key=lambda p: p.image)
    return groups


# --- extremal behaviour --------------------------------------------------------

def extremal_word(n: int) -> EventuallyPeriodicWord:
    """The word (n-2)(n-3)...1 followed by zeros, whose base is the largest
    threshold over S_n."""
    return canonicalize(tuple(range(n - 2, 0, -1)), (0,))


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
    if not isinstance(lam, AlgebraicNumber):
        raise InvariantError(f"extremal base of {w_star} is not an algebraic number")
    if not (lam.compare(Fraction(n - 2)) > 0 and lam.compare(Fraction(n - 1)) < 0):
        raise InvariantError("extremal base must lie strictly between n-2 and n-1")
    exhaustive = n <= ENUMERATION_BOUND and n <= 8
    attaining: list[Permutation] = []
    nm_set: list[Permutation] = []
    if exhaustive:
        target_floor = n - 2
        for pi in all_permutations(n):
            sk = skeleton(pi)
            nm = sk.n_minus
            if nm == n - 1:
                nm_set.append(pi)
            if nm - 1 == target_floor:
                # candidate for the maximum; settle exactly
                a = sk.a
                if not _is_b1(a) and b_of(a).equals(lam):
                    attaining.append(pi)
    else:
        attaining = [max_families(n)[2] if n % 2 == 0 else max_families(n)[3]]
    return ExtremalReport(
        n=n, max_value=lam, max_poly=lam.polynomial.squarefree_part(),
        attaining=tuple(attaining), n_minus_max_set=tuple(nm_set),
        exhaustive=exhaustive,
    )


# --- bounded realization search -----------------------------------------------

@dataclass(frozen=True)
class SearchBounds:
    """Word-size bounds for the brute-force searches.  Defaults cover the
    constructive witnesses (preperiod and period below n) with a factor-two
    safety margin."""

    max_prefix: int
    max_period: int
    max_alphabet: int

    @classmethod
    def default(cls, n: int) -> "SearchBounds":
        return cls(max_prefix=2 * n, max_period=2 * n, max_alphabet=n)


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


def _search_realizing(pi: Permutation, alphabet_size: int, bounds: SearchBounds,
                      admissibility: MembershipOracle | None = None,
                      ) -> EventuallyPeriodicWord | None:
    """The first eventually periodic word within bounds realizing pi, or
    None, optionally restricted to words admissible for a given base.

    Candidates are prefix choices satisfying the digit-gap condition followed
    by a digit-string DFS; a string is abandoned as soon as one of the tail
    comparisons resolves the wrong way or (when admissibility is tracked)
    some suffix provably leaves the shift.  Every surviving split into
    preperiod and period is checked exactly before being reported.
    """
    n = pi.n
    sk = skeleton(pi)
    lm = sk.landmarks
    seen: set[tuple] = set()
    tail_pre_max = max(0, bounds.max_prefix - (n - 1))
    depth_max = tail_pre_max + bounds.max_period

    for prefix in _condition_i_prefixes(sk, alphabet_size):
        upper = periodization(prefix[lm.r - 1:]) if pi(n) != n else None
        lower = periodization(prefix[lm.ell - 1:]) if pi(n) != 1 else None
        if upper is not None and lower is not None and not lower < upper:
            continue

        def check(x: tuple[int, ...], y: tuple[int, ...]) -> EventuallyPeriodicWord | None:
            w = canonicalize(prefix + x, y)
            key = (w.pre, w.per)
            if key in seen:
                return None
            seen.add(key)
            if len(w.pre) > bounds.max_prefix or len(w.per) > bounds.max_period:
                return None
            try:
                if pat_of_word(w, n) != pi:
                    return None
            except PatternUndefinedError:
                return None
            if admissibility is not None and not admissibility.contains(w):
                return None
            return w

        # DFS over the tail digit string; tieL/tieU: still equal to the
        # periodized landmark word; suffix ties vs the admissibility bounds.
        def dfs(tail: list[int], tie_lo: bool, tie_hi: bool, tied_d1: tuple[int, ...],
                tied_low: tuple[int, ...]) -> EventuallyPeriodicWord | None:
            depth = len(tail)
            for i in range(max(1, depth - bounds.max_period), min(tail_pre_max, depth - 1) + 1):
                w = check(tuple(tail[:i]), tuple(tail[i:]))
                if w is not None:
                    return w
            if 1 <= depth <= bounds.max_period:
                w = check((), tuple(tail))
                if w is not None:
                    return w
            if depth == depth_max:
                return None
            pos = n + depth  # 1-based position of the next digit in the full word
            for d in range(alphabet_size):
                t_lo, t_hi = tie_lo, tie_hi
                k = depth + 1
                if lower is not None and t_lo:
                    ref = lower.digit(k)
                    if d != ref:
                        # tail must stay above the lower periodization
                        if words.alt_order(d, ref, k) == words.LESS:
                            continue
                        t_lo = False
                if upper is not None and t_hi:
                    ref = upper.digit(k)
                    if d != ref:
                        if words.alt_order(d, ref, k) == words.GREATER:
                            continue
                        t_hi = False
                if admissibility is not None:
                    new_d1, new_low, ok = _advance_ties(
                        admissibility, tied_d1, tied_low, pos, d)
                    if not ok:
                        continue
                else:
                    new_d1, new_low = tied_d1, tied_low
                tail.append(d)
                w = dfs(tail, t_lo, t_hi, new_d1, new_low)
                tail.pop()
                if w is not None:
                    return w
            return None

        all_digits = prefix
        tied_d1: tuple[int, ...] = ()
        tied_low: tuple[int, ...] = ()
        prefix_ok = True
        if admissibility is not None:
            for pos, d in enumerate(all_digits, start=1):
                tied_d1, tied_low, prefix_ok = _advance_ties(
                    admissibility, tied_d1, tied_low, pos, d)
                if not prefix_ok:
                    break
        if not prefix_ok:
            continue
        w = dfs([], lower is not None, upper is not None, tied_d1, tied_low)
        if w is not None:
            return w
    return None


def _advance_ties(adm: MembershipOracle, tied_d1: tuple[int, ...], tied_low: tuple[int, ...],
                  pos: int, d: int):
    """Advance per-suffix comparison states by one appended digit.

    A suffix beginning at position s, after the digit at position pos, has
    been compared through relative index pos - s + 1.  Suffixes that resolve
    above the expansion of 1, or at-or-below the lower bound, kill the branch.
    """
    ties = []
    for tied, reference, wrong_side in ((tied_d1, adm.d1_digit, words.GREATER),
                                        (tied_low, adm.lower_digit, words.LESS)):
        kept = []
        for s in tied + (pos,):
            i = pos - s + 1
            ref = reference(i)
            if d == ref:
                kept.append(s)
            elif words.alt_order(d, ref, i) == wrong_side:
                return (), (), False
        ties.append(tuple(kept))
    return ties[0], ties[1], True


def min_alphabet_bruteforce(pi, max_prefix: int | None = None,
                            max_period: int | None = None,
                            max_alphabet: int | None = None,
                            ) -> tuple[int, EventuallyPeriodicWord]:
    """Smallest alphabet size admitting a realizing word within the bounds,
    with a witness; independent of the threshold machinery."""
    pi = perm(pi)
    n = pi.n
    defaults = SearchBounds.default(n)
    bounds = SearchBounds(
        max_prefix=max_prefix if max_prefix is not None else defaults.max_prefix,
        max_period=max_period if max_period is not None else defaults.max_period,
        max_alphabet=max_alphabet if max_alphabet is not None else defaults.max_alphabet,
    )
    for size in range(1, bounds.max_alphabet + 1):
        hit = _search_realizing(pi, size, bounds)
        if hit is not None:
            return size, hit
    raise SearchInconclusiveError(
        f"no realizing word over alphabets up to {bounds.max_alphabet} within bounds for {pi}")


# --- admissible witnesses and the threshold sandwich ---------------------------

def _beta_plus(b, margin: Fraction) -> BetaValue:
    """The base b + margin, for a threshold b (literal 1 or AlgebraicNumber)."""
    return BetaValue.of(1 + margin if b == 1 else shift_root(b, margin))


def witness_word(pi, beta_margin=Fraction(1, 20),
                 bounds: SearchBounds | None = None) -> EventuallyPeriodicWord:
    """A realizing word admissible just above the threshold base.

    Tries the constructive candidates first (threshold word with its period
    pumped and the tail replaced by boundary companions), then falls back to
    the bounded search with admissibility tracked.
    """
    pi = perm(pi)
    margin = Fraction(beta_margin)
    if margin <= 0:
        raise NegBetaError("margin must be positive")
    return _witness_above(analyze(pi), margin, bounds, DEFAULT_PRECISION)


def _witness_above(report: AnalysisReport, margin: Fraction,
                   bounds: SearchBounds | None,
                   precision: PrecisionConfig) -> EventuallyPeriodicWord:
    pi = report.pi
    beta = _beta_plus(report.b_minus, margin)
    oracle = MembershipOracle(beta, precision)
    n = pi.n
    for cand in _seeded_witnesses(report, precision):
        try:
            if pat_of_word(cand, n) == pi and oracle.contains(cand):
                return cand
        except PatternUndefinedError:
            continue
    bounds = bounds or SearchBounds.default(n)
    hit = _search_realizing(pi, beta.floor() + 1, bounds, admissibility=oracle)
    if hit is not None:
        return hit
    raise SearchInconclusiveError(f"no admissible witness found for {pi} within bounds")


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
            tails.append(periodization(words.derived_word(per)))
        except NegBetaError:
            pass
    tails.append(periodization(per[:-1] + (per[-1] + 1,)))
    if report.b_minus != 1:
        d1 = expansion_of_one(report.b_minus, precision=precision).word
        if d1 is not None:
            tails.append(d1)
    for zpfx in variant_prefixes:
        yield canonicalize(zpfx + a.pre, a.per)
        for reps in range(0, 9):
            body = zpfx + a.pre + a.per * reps
            for t in tails:
                yield canonicalize(body + t.pre, t.per)


@dataclass(frozen=True)
class SandwichReport:
    """Outcome of the threshold sandwich for one permutation."""

    pi: Permutation
    b_decimal: str
    margin: Fraction
    witness_above: EventuallyPeriodicWord | None
    found_below: EventuallyPeriodicWord | None
    found_at: EventuallyPeriodicWord | None

    @property
    def passed(self) -> bool:
        return (self.witness_above is not None
                and self.found_below is None and self.found_at is None)

    def to_json(self) -> dict:
        return {
            "pi": str(self.pi),
            "b_minus": self.b_decimal,
            "margin": str(self.margin),
            "witness_above": str(self.witness_above) if self.witness_above else None,
            "found_below": str(self.found_below) if self.found_below else None,
            "found_at": str(self.found_at) if self.found_at else None,
            "passed": self.passed,
        }


def realizable_at(pi, beta, bounds: SearchBounds | None = None,
                  precision: PrecisionConfig = DEFAULT_PRECISION,
                  ) -> EventuallyPeriodicWord | None:
    """Bounded exhaustive search for an admissible realizing word at a fixed
    base; returns the witness or None when the bounded class is empty."""
    pi = perm(pi)
    beta = BetaValue.of(beta)
    bounds = bounds or SearchBounds.default(pi.n)
    return _search_realizing(pi, beta.floor() + 1, bounds,
                             admissibility=MembershipOracle(beta, precision))


def sandwich_check(pi, margin=Fraction(1, 20),
                   bounds: SearchBounds | None = None,
                   precision: PrecisionConfig = DEFAULT_PRECISION) -> SandwichReport:
    """Realizable just above the threshold, not realizable just below nor at
    the threshold itself (within the searched class)."""
    pi = perm(pi)
    margin = Fraction(margin)
    report = analyze(pi)
    if report.b_minus == 1:
        raise NegBetaError("sandwich check applies to thresholds above 1")
    if margin <= 0:
        raise NegBetaError("margin must be positive")
    b = report.b_minus
    witness = None
    try:
        witness = _witness_above(report, margin, bounds, precision)
    except SearchInconclusiveError:
        pass
    below = None
    if b.refine(Fraction(1, 2**24))[0] - margin > 1:
        below = realizable_at(pi, _beta_plus(b, -margin), bounds, precision)
    at = realizable_at(pi, b, bounds, precision)
    return SandwichReport(
        pi=pi, b_decimal=report.b_decimal(6), margin=margin,
        witness_above=witness, found_below=below, found_at=at,
    )
