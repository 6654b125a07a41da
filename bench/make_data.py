"""Rebuild the benchmark's stored inputs under bench/data.

    python3 bench/make_data.py invert    # about 10 s
    python3 bench/make_data.py certify   # about 8 min on a 2-vCPU virtual machine

``invert`` writes invert_corpus.json: the expansion corpus of acceptance
criterion 7 (words over {0..3} with preperiod plus period at most 5 that
``validate_expansion`` accepts) and the words of the same enumeration that are
sup-fixed and above u but not their own expansion of 1.  Rebuilding it is too
slow for the benchmark's set-up, so it is stored.

``certify`` writes certify_costs.json: the cost of the ``verify`` operation
for every permutation of length 4 and 5 whose threshold is above 1, and of
each fixed expansion base, as the median of three repeats timed the way
run.py times (scaled by the speed probe).  The certify workload uses the
costs only to draw samples of equal total work, so rebuilding them on another
machine changes which permutations a seed draws, not what is checked.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from negbeta import analysis  # noqa: E402
from negbeta.dynamics import validate_expansion  # noqa: E402
from negbeta.errors import NegBetaError  # noqa: E402
from negbeta.permutations import all_permutations  # noqa: E402
from negbeta.words import format_word, words_over  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


def build_invert_corpus() -> dict:
    expansions, non_expansions = [], []
    for w in words_over(4, 4, 5):
        if w.preperiod_length + w.period_length > 5:
            continue
        try:
            ok = validate_expansion(w)
        except NegBetaError:
            continue  # not sup-fixed, or at or below u: rejected before any orbit work
        (expansions if ok else non_expansions).append(format_word(w))
    return {"expansions": expansions, "non_expansions": non_expansions}


def build_certify_costs(repeats: int = 3) -> dict:
    """Median over ``repeats`` of each operation's latency, timed and scaled
    the way the benchmark times it."""
    perms = [str(pi) for n in (4, 5) for pi in all_permutations(n)
             if analysis.analyze(pi).b_minus != 1]
    ops = [workloads.Op(p, lambda p=p: workloads.verify_op(p),
                        lambda r, p=p: workloads.check_verify(r, p)) for p in perms]
    ops += [workloads.Op(b, lambda b=b: workloads.expansion_op(b),
                         lambda r, b=b: workloads.check_expansion(r, b))
            for b in workloads.EXPANSION_BASES]
    wl = workloads.Workload("certify-costs", ops, ops[0])
    tally = run.Tally()
    meter = run.SpeedMeter()
    costs = run.per_op_medians([meter.run_batch(wl, tally) for _ in range(repeats)])
    if tally.failed:
        raise SystemExit(f"{tally.failed} wrong answers while timing")
    by_label = {op.label: cost for op, cost in zip(ops, costs)}
    return {"verify": {p: by_label[p] for p in perms},
            "expansion": {b: by_label[b] for b in workloads.EXPANSION_BASES}}


def main(argv: list[str]) -> int:
    targets = {"invert": ("invert_corpus.json", build_invert_corpus),
               "certify": ("certify_costs.json", build_certify_costs)}
    if len(argv) != 1 or argv[0] not in targets:
        print(f"usage: make_data.py {{{','.join(targets)}}}", file=sys.stderr)
        return 2
    name, build = targets[argv[0]]
    data = build()
    with open(os.path.join(HERE, "data", name), "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
