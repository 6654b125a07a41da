"""The benchmark's workloads: inputs drawn from a seed, the operations that are
timed, and an independent check of every answer.

Each operation calls the library functions that the matching CLI subcommand
calls, with the same arguments, and renders the result the way the
subcommand does (``to_json()``, ``b_decimal(12)``).  It does not go through
``cli.run``: that builds the argparse parser on every call, a cost a CLI user
pays once per process.

Every check takes another path than the timed one (own polynomial
evaluation, own floor, mpmath partial sums, the forward map), so a wrong
answer counts as a failure instead of passing silently.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import mpmath

from negbeta import analysis, dynamics, inverse, permutations
from negbeta.algebraic import IntPolynomial, isolate_real_roots, root_upper_bound
from negbeta.errors import NegBetaError
from negbeta.permutations import parse_permutation
from negbeta.words import format_word, parse_word

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# The CLI's defaults: --precision 4096 (start 128 bits) and verify --margin 1/20.
PRECISION = dynamics.PrecisionConfig(start_bits=128, max_bits=4096)
VERIFY_MARGIN = Fraction(1, 20)

# Non-periodic algebraic bases of degree 6 and 7 (roots near 2.2023 and
# 2.0972), in the CLI's "poly:c0,..,cd:k" syntax.
EXPANSION_BASES = ("poly:-2,1,0,-1,0,-2,1:1", "poly:-2,-2,-2,-2,-1,-1,-1,1:1")
EXPANSION_DIGITS = 1000

# Reference values for count_b1 at n = 2..6 (acceptance criterion 3).
COUNT_B1_HEAD = [2, 5, 12, 19, 34]

WORKLOADS = ("enumerate", "query", "certify")


@dataclass
class Op:
    """One timed operation and the untimed check of its answer."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    name: str
    ops: list[Op]  # one batch
    warmup: Op
    notes: dict = field(default_factory=dict)  # values recorded, not judged


# --- operations, as the CLI subcommands run them -----------------------------

def spectrum_op(n: int):
    groups = analysis.spectrum(n)
    _ = {"n": n, "groups": [g.to_json() for g in groups]}
    return groups


def extremal_op(n: int):
    rep = analysis.extremal_report(n)
    rep.to_json()
    return rep


def count_b1_op(n: int):
    return analysis.count_b1(n, jobs=1)


def analyze_op(text: str):
    report = analysis.analyze(parse_permutation(text))
    report.to_json()
    return report


def invert_op(text: str):
    """``invert``: a non-expansion word ends in a typed error, which is the
    answer rather than a failure."""
    w = parse_word(text)
    try:
        state = inverse.construct_state(w)
    except NegBetaError as err:
        return err
    report = analysis.analyze(state.result)
    results = state.to_json()
    results["verified"] = True
    results["b_minus"] = report.b_decimal(12)
    return state


def verify_op(text: str):
    report = analysis.sandwich_check(parse_permutation(text), VERIFY_MARGIN)
    report.to_json()
    return report


def parse_poly_base(spec: str) -> dynamics.BetaValue:
    """The ``poly:`` branch of the CLI's base parser."""
    _, coeffs, k = spec.split(":")
    poly = IntPolynomial(tuple(int(c) for c in coeffs.split(",")))
    roots = isolate_real_roots(poly, Fraction(1), root_upper_bound(poly))
    return dynamics.BetaValue.from_algebraic(roots[int(k) - 1])


def expansion_op(spec: str, digits: int = EXPANSION_DIGITS):
    beta = parse_poly_base(spec)
    res = dynamics.expansion_of_one(beta, max_digits=digits, detect_period=True,
                                    precision=PRECISION)
    orbit = []
    state = dynamics.initial_state(beta, 1, PRECISION)
    for _ in range(min(len(res.digits), 32)):
        state = dynamics.step(beta, state)
        lo, hi = state.current
        orbit.append([f"{lo.numerator}/{lo.denominator}", f"{hi.numerator}/{hi.denominator}"])
    _ = {"beta": str(beta), "digits": list(res.digits), "periodic": res.is_periodic,
         "word": format_word(res.word) if res.word else None, "orbit_prefix_intervals": orbit}
    return res


# --- independent checks --------------------------------------------------------

def _horner(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _floor_of_root(coeffs, lo: Fraction, hi: Fraction) -> int | None:
    """Floor of the single root in (lo, hi) where coeffs changes sign, by
    probing the integers inside; None if the root sits on an integer."""
    s_lo = _sign(_horner(coeffs, lo))
    f = lo.__floor__()
    while f + 1 < hi:
        s = _sign(_horner(coeffs, Fraction(f + 1)))
        if s == 0:
            return None
        if s != s_lo:
            break
        f += 1
    return f


def check_analyze(report, text: str) -> bool:
    pi = parse_permutation(text)
    if report.pi != pi:
        return False
    if report.b_minus == 1:
        return report.poly is None and report.n_minus == 2
    coeffs = report.poly.coefficients
    b = report.b_minus
    if b.is_rational():
        return _horner(coeffs, b.exact) == 0 and report.n_minus == b.exact.__floor__() + 1
    lo, hi = b.interval
    if _sign(_horner(coeffs, lo)) * _sign(_horner(coeffs, hi)) >= 0:
        return False
    floor = _floor_of_root(coeffs, lo, hi)
    return floor is not None and report.n_minus == floor + 1


def check_invert(result, text: str, expansion: bool) -> bool:
    if not expansion:
        return isinstance(result, NegBetaError)
    if isinstance(result, NegBetaError):
        return False
    return permutations.a_sequence(result.result) == parse_word(text)


def check_verify(report, text: str) -> bool:
    pi = parse_permutation(text)
    if not report.passed:
        return False
    try:
        return analysis.pat_of_word(report.witness_above, pi.n) == pi
    except NegBetaError:
        return False


def check_expansion(res, spec: str) -> bool:
    """Partial sums of acceptance criterion 9 at x = 1, over every digit:
    1 - S_K = x_K / (-beta)^K with the orbit point x_K in (0, 1], where
    S_K = -sum_k (d_k + 1) / (-beta)^k.  beta comes from a fresh isolating
    interval refined far below beta^-K, and the sum is evaluated in mpmath
    with enough bits that the residual is resolved."""
    digits = res.digits
    k_max = len(digits)
    if k_max == 0:
        return False
    root = parse_poly_base(spec).algebraic
    # beta < 2^e, so beta^-K > 2^(-e*K); 64 more bits resolve the residual.
    bits = 64 + k_max * root.interval[1].__ceil__().bit_length()
    lo, _ = root.refine(Fraction(1, 2**bits))
    with mpmath.workprec(bits + 64):
        beta = mpmath.mpf(lo.numerator) / lo.denominator
        y = -1 / beta
        acc = mpmath.mpf(0)
        for d in reversed(digits):
            acc = (acc + (d + 1)) * y
        residual = (1 + acc) * (-beta) ** k_max
        return 0 < residual <= 1 + mpmath.mpf(2) ** -32


def _group_values_increase(groups) -> bool:
    prev_hi = None
    for g in groups:
        if g.value == 1:
            lo = hi = Fraction(1)
        else:
            lo, hi = g.value.refine(Fraction(1, 2**64))
        if prev_hi is not None and not prev_hi < lo:
            return False
        prev_hi = hi
    return True


def check_spectrum(groups, n: int, notes: dict) -> bool:
    members = sorted(p.image for g in groups for p in g.members)
    if members != list(itertools.permutations(range(1, n + 1))):
        return False
    ones = [g for g in groups if g.value == 1]
    notes["spectrum_ones"] = len(ones[0].members) if ones else 0
    return _group_values_increase(groups)


def check_extremal(rep, n: int) -> bool:
    lo, hi = rep.max_value.refine(Fraction(1, 2**32))
    family = tuple(range(n, 0, -1)) if n % 2 == 0 else tuple(range(n, 2, -1)) + (1, 2)
    return n - 2 < lo and hi < n - 1 and [p.image for p in rep.attaining] == [family]


def check_count_b1(counts, n_max: int, n_spectrum: int, notes: dict) -> bool:
    notes["count_b1"] = list(counts)
    if len(counts) != n_max - 1:
        return False
    head = min(len(COUNT_B1_HEAD), len(counts))
    # The tail beyond n = 6 is recorded, not judged: acceptance criterion 3
    # disputes it.
    return (counts[:head] == COUNT_B1_HEAD[:head]
            and counts[n_spectrum - 2] == notes.get("spectrum_ones"))


# --- building the workloads ----------------------------------------------------

def _enumerate(seed: int, tiny: bool) -> Workload:
    # The input is all of S_n, so the seed changes nothing.
    n_spec, n_ext, n_count = (4, 5, 6) if tiny else (6, 7, 8)
    notes: dict = {}
    ops = [
        Op(f"spectrum({n_spec})", lambda: spectrum_op(n_spec),
           lambda r: check_spectrum(r, n_spec, notes)),
        Op(f"extremal_report({n_ext})", lambda: extremal_op(n_ext),
           lambda r: check_extremal(r, n_ext)),
        Op(f"count_b1({n_count})", lambda: count_b1_op(n_count),
           lambda r: check_count_b1(r, n_count, n_spec, notes)),
    ]
    warmup = Op("warm-up spectrum(4)", lambda: spectrum_op(4), lambda r: check_spectrum(r, 4, {}))
    return Workload("enumerate", ops, warmup, notes)


QUERY_OPS = 2000
QUERY_N = (7, 14)
NON_EXPANSION_SHARE = 0.1


def load_invert_corpus() -> dict:
    with open(os.path.join(DATA, "invert_corpus.json")) as fh:
        return json.load(fh)


def _permutation_text(image) -> str:
    if len(image) <= 9:
        return "".join(str(v) for v in image)
    return ",".join(str(v) for v in image)


def _query(seed: int, tiny: bool) -> Workload:
    rng = random.Random(seed)
    corpus = load_invert_corpus()
    ops = []
    for i in range(20 if tiny else QUERY_OPS):
        if i % 2 == 0:
            image = list(range(1, rng.randint(*QUERY_N) + 1))
            rng.shuffle(image)
            text = _permutation_text(image)
            ops.append(Op(f"analyze {text}", lambda t=text: analyze_op(t),
                          lambda r, t=text: check_analyze(r, t)))
        else:
            expansion = rng.random() >= NON_EXPANSION_SHARE
            text = rng.choice(corpus["expansions" if expansion else "non_expansions"])
            ops.append(Op(f"invert {text}", lambda t=text: invert_op(t),
                          lambda r, t=text, e=expansion: check_invert(r, t, e)))
    warmup = Op("warm-up " + ops[0].label, ops[0].run, ops[0].check)
    return Workload("query", ops, warmup)


def load_certify_costs() -> dict:
    with open(os.path.join(DATA, "certify_costs.json")) as fh:
        return json.load(fh)


SAMPLE_LOW = 2
SAMPLE_HIGH = 2
SAMPLE_DRAWS = 2000
SAMPLE_TOLERANCE = 0.015


def certify_sample(seed: int, costs: dict) -> list[str]:
    """Seeded sample of five permutations for ``verify``, drawn so that every
    seed gives the same shape of work.

    The batch also holds the two fixed expansion operations.  Two
    permutations are drawn well below the dearer expansion and two well
    above it, so that expansion is the median operation for every seed; the
    fifth permutation is fixed at the 95th percentile of reference cost and
    is the slowest operation.  p50 and p99 then compare like with like
    across seeds.  Of SAMPLE_DRAWS seeded draws, the first whose reference
    costs sum to within 1.5% of the median sum of all the draws is taken (the
    closest, should none be), so wall time does not swing with the draw.
    """
    verify = costs["verify"]
    ranked = sorted(verify, key=lambda p: (verify[p], p))
    slowest = ranked[int(0.95 * len(ranked))]
    median_cost = max(costs["expansion"].values())
    low = [p for p in ranked if verify[p] < 0.75 * median_cost]
    high = [p for p in ranked if 1.4 * median_cost < verify[p] < 0.85 * verify[slowest]]
    rng = random.Random(seed)
    draws = [rng.sample(low, SAMPLE_LOW) + rng.sample(high, SAMPLE_HIGH)
             for _ in range(SAMPLE_DRAWS)]
    sums = [sum(verify[p] for p in picks) for picks in draws]
    target = statistics.median(sums)
    gaps = [abs(total - target) for total in sums]
    close = [i for i, gap in enumerate(gaps) if gap <= SAMPLE_TOLERANCE * target]
    best = close[0] if close else gaps.index(min(gaps))
    return draws[best] + [slowest]


def _certify(seed: int, tiny: bool) -> Workload:
    if tiny:
        perms = ["4321", "2413"]
        bases, digits = EXPANSION_BASES[:1], 40
    else:
        perms = certify_sample(seed, load_certify_costs())
        bases, digits = EXPANSION_BASES, EXPANSION_DIGITS
    ops = [Op(f"verify {p}", lambda p=p: verify_op(p), lambda r, p=p: check_verify(r, p))
           for p in perms]
    ops += [Op(f"expansion {b} to {digits} digits", lambda b=b: expansion_op(b, digits),
               lambda r, b=b: check_expansion(r, b)) for b in bases]
    base = bases[0]
    warmup = Op(f"warm-up expansion {base} to 40 digits", lambda: expansion_op(base, 40),
                lambda r: check_expansion(r, base))
    return Workload("certify", ops, warmup)


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    makers = {"enumerate": _enumerate, "query": _query, "certify": _certify}
    return makers[name](seed, tiny)

