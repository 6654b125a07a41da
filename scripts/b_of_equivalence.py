#!/usr/bin/env python3
"""Print b_of's answer on a fixed word corpus, one line per word.

Each line holds the word, the polynomial, ``_sf``, the isolating interval as
b_of returns it, the interval after ``refine(2^-24)`` and ``decimal(12)``, so
two versions of the library can be compared byte for byte:

    PYTHONPATH=/path/to/old/src python3 scripts/b_of_equivalence.py > old.txt
    PYTHONPATH=src python3 scripts/b_of_equivalence.py > new.txt
    diff old.txt new.txt

The corpus is the threshold words of S_2..S_8, the words of the benchmark's
invert corpus and the sup-fixed words of ``words_over(4, 5, 6)`` of length at
most 7 (15,456 distinct words).  ``--quick`` keeps S_2..S_5 and the invert
corpus.  The package found on PYTHONPATH is the one run; this checkout's
``src`` is only a fallback.  The full corpus takes about 13 s on one core.
"""

import json
import os
import sys
from fractions import Fraction

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.append(os.path.join(ROOT, "src"))

from negbeta.algebraic import b_of  # noqa: E402
from negbeta.permutations import a_sequence, all_permutations  # noqa: E402
from negbeta.words import format_word, is_sup_fixed, parse_word, words_over  # noqa: E402


def corpus(quick: bool) -> list:
    found = {a_sequence(pi) for n in range(2, 6 if quick else 9) for pi in all_permutations(n)}
    with open(os.path.join(ROOT, "bench", "data", "invert_corpus.json")) as fh:
        found.update(parse_word(text) for texts in json.load(fh).values() for text in texts)
    if not quick:
        found.update(w for w in words_over(4, 5, 6) if len(w.pre) + len(w.per) <= 7)
    return sorted((w for w in found if is_sup_fixed(w)), key=format_word)


def main(argv: list[str]) -> None:
    for w in corpus("--quick" in argv):
        b = b_of(w)
        unrefined = b.interval
        print(format_word(w), b.polynomial, list(b._sf), *unrefined,
              *b.refine(Fraction(1, 2**24)), b.decimal(12), sep="  ")


if __name__ == "__main__":
    main(sys.argv[1:])
