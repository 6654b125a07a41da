#!/usr/bin/env python3
"""Compare the interval certificate of ``dynamics.expansion_base`` with the
exact orbit walk it replaced.

Every word of three corpora of ``words_over`` is decided twice, each time on
its own copy of one unrefined ``b_of``: by ``expansion_base`` and by the walk
of ``tests/expansion_oracle.py``.  A word is a mismatch when the two differ in
the answer (the base, None, or the error raised), in the base's interval
right after the call, or in its floor or ``decimal(12)``.  A row reads: the
corpus as alphabet size, maximal preperiod, maximal period and maximal
length; the expansions of 1 and the sup-fixed non-expansions, as the
certificate decides them; the words whose certificate needed an exact test;
the words that needed more than the first width; mismatches; seconds.  The
first mismatches are printed below the table.

    PYTHONPATH=src python3 scripts/expansion_certificate_evidence.py           # about 1 min
    PYTHONPATH=src python3 scripts/expansion_certificate_evidence.py --quick   # about 1 s
"""

import argparse
import os
import sys
import time

HERE = os.path.dirname(__file__)
sys.path.append(os.path.join(HERE, "..", "src"))
sys.path.append(os.path.join(HERE, "..", "tests"))

from expansion_oracle import outcomes, walk_expansion_base  # noqa: E402
from negbeta import dynamics  # noqa: E402
from negbeta.words import words_over  # noqa: E402

CORPORA = [(4, 5, 6, 7), (6, 3, 4, 5), (3, 7, 8, 8)]
QUICK = [(4, 3, 3, 4)]


class Counting:
    """expansion_base, counting the exact tests and the passes of its last call."""

    def __init__(self):
        self.exact = self.passes = 0
        self._vanishes, self._certificate = dynamics._vanishes, dynamics._certificate

    def vanishes(self, *args):
        self.exact += 1
        return self._vanishes(*args)

    def certificate(self, *args):
        self.passes += 1
        return self._certificate(*args)

    def __call__(self, w):
        self.exact = self.passes = 0
        dynamics._vanishes, dynamics._certificate = self.vanishes, self.certificate
        try:
            return dynamics.expansion_base(w)
        finally:
            dynamics._vanishes, dynamics._certificate = self._vanishes, self._certificate


def compare(corpus, counting, mismatches):
    """Counts of expansions, non-expansions, words with an exact test and
    words past the first width, over the words of the corpus."""
    alphabet_size, pre_max, per_max, max_len = corpus
    expansions = others = exact = wider = 0
    for w in words_over(alphabet_size, pre_max, per_max):
        if w.preperiod_length + w.period_length > max_len:
            continue
        got, want = outcomes(w, counting, walk_expansion_base)
        if got != want:
            mismatches.append((w, want, got))
        if isinstance(got, tuple):
            expansions += got[0]
            others += not got[0]
            exact += counting.exact > 0
            wider += counting.passes > 1
    return expansions, others, exact, wider


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="only the (4, 3, 3, 4) corpus")
    args = parser.parse_args()
    counting, mismatches = Counting(), []
    print(f"{'corpus':<10} {'expansions':>10} {'others':>6} {'exact':>5} {'wider':>5} "
          f"{'mismatch':>8} {'s':>6}")
    for corpus in QUICK if args.quick else CORPORA:
        start = time.perf_counter()
        before = len(mismatches)
        expansions, others, exact, wider = compare(corpus, counting, mismatches)
        name = ",".join(map(str, corpus))
        print(f"{name:<10} {expansions:>10} {others:>6} {exact:>5} {wider:>5} "
              f"{len(mismatches) - before:>8} {time.perf_counter() - start:>6.1f}", flush=True)
    for w, want, got in mismatches[:20]:
        print(f"mismatch {w}: walk {want}, certificate {got}")


if __name__ == "__main__":
    main()
