#!/usr/bin/env python3
"""Compare the insertion rule of the inverse construction with the candidate
search it replaced.

For every expansion of 1 in six corpora of ``words_over``, and for the
sup-fixed words of the first corpus that are not expansions, the script runs
``construct_state(w, check_expansion=False)`` and the search of
``tests/inverse_oracle.py`` (the first candidate whose round trip reproduces
w), and counts the words where their insertion counts, vacuous bonus or
permutation differ.  A row reads: the corpus as alphabet size, maximal
preperiod, maximal period and maximal length; the words compared; the words
the search won only after its first candidate; mismatches; words the search
could not build; seconds.  The first mismatches are printed below the table.

    PYTHONPATH=src python3 scripts/inverse_rule_evidence.py           # about 5 min
    PYTHONPATH=src python3 scripts/inverse_rule_evidence.py --quick   # about 1 s
"""

import argparse
import os
import sys
import time

HERE = os.path.dirname(__file__)
sys.path.append(os.path.join(HERE, "..", "src"))
sys.path.append(os.path.join(HERE, "..", "tests"))

from inverse_oracle import search  # noqa: E402
from negbeta.dynamics import validate_expansion  # noqa: E402
from negbeta.errors import NegBetaError  # noqa: E402
from negbeta.inverse import construct_state  # noqa: E402
from negbeta.words import words_over  # noqa: E402

CORPORA = [(4, 5, 6, 7), (5, 5, 6, 7), (3, 7, 8, 9), (6, 3, 4, 5), (7, 3, 3, 4), (8, 2, 3, 4)]
QUICK = [(7, 3, 3, 4)]


def split(corpus):
    """The expansions of 1 in the corpus and its sup-fixed non-expansions."""
    alphabet_size, pre_max, per_max, max_len = corpus
    expansions, others = [], []
    for w in words_over(alphabet_size, pre_max, per_max):
        if w.preperiod_length + w.period_length > max_len:
            continue
        try:
            (expansions if validate_expansion(w) else others).append(w)
        except NegBetaError:  # not sup-fixed, or base 1
            pass
    return expansions, others


def compare(words, mismatches):
    late = failed = 0
    for w in words:
        found = search(w)
        try:
            state = construct_state(w, check_expansion=False)
            built = (state.y, state.vacuous_bonus, state.result)
        except NegBetaError as err:
            built = type(err).__name__
        if found is None:
            failed += 1
        else:
            late += found[3] > 0
        expected = None if found is None else found[:3]
        if built != expected:
            mismatches.append((w, expected, built))
    return late, failed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="only the (7, 3, 3, 4) corpus, without non-expansions")
    args = parser.parse_args()
    mismatches = []
    print(f"{'corpus':<14} {'kind':<14} {'words':>6} {'late':>5} {'mismatch':>8} {'failed':>6} {'s':>6}")
    for index, corpus in enumerate(QUICK if args.quick else CORPORA):
        start = time.perf_counter()
        expansions, others = split(corpus)
        rows = [("expansions", expansions)]
        if index == 0 and not args.quick:
            rows.append(("non-expansions", others))
        for kind, words in rows:
            before = len(mismatches)
            late, failed = compare(words, mismatches)
            seconds = time.perf_counter() - start
            start = time.perf_counter()
            name = ",".join(map(str, corpus))
            print(f"{name:<14} {kind:<14} {len(words):>6} {late:>5} "
                  f"{len(mismatches) - before:>8} {failed:>6} {seconds:>6.1f}", flush=True)
    for w, expected, built in mismatches[:20]:
        print(f"mismatch {w}: search {expected}, rule {built}")


if __name__ == "__main__":
    main()
