#!/usr/bin/env python3
"""Run a fixed corpus of CLI argv and print one sorted-JSON line per run.

Every subcommand runs in the json, text and csv formats.  Each line holds
the argv, the exit code and what the run printed, with ``timing_ms`` dropped
from the JSON envelopes, so two versions of the library can be compared byte
for byte:

    PYTHONPATH=/path/to/old/src python3 scripts/cli_equivalence.py > old.txt
    PYTHONPATH=src python3 scripts/cli_equivalence.py > new.txt
    diff old.txt new.txt

The package found on PYTHONPATH is the one run; this checkout's ``src`` is
only a fallback.  The corpus takes a few seconds on one core.
"""

import contextlib
import io
import json
import os
import sys

sys.path.append(os.path.join(os.path.dirname(__file__), "..", "src"))

from negbeta.cli import run  # noqa: E402

FORMATS = ("json", "text", "csv")

CORPUS = [
    ["analyze", "3421"],
    ["analyze", "892364157"],
    ["analyze", "7325416"],
    ["analyze", "1423"],
    ["analyze", "312"],
    ["analyze", "453261"],
    ["analyze", "961524378"],
    ["analyze", "14,3,12,1,9,6,13,2,8,11,4,10,7,5"],
    ["analyze", "1"],
    ["analyze", "1223"],
    ["spectrum", "4"],
    ["spectrum", "6"],
    ["spectrum", "7"],
    ["spectrum", "1"],
    ["count-b1", "8"],
    ["count-b1", "10"],
    ["count-b1", "6", "--jobs", "2"],
    ["count-b1", "1"],
    ["extremal", "5"],
    ["extremal", "7"],
    ["extremal", "2"],
    ["invert", "21(0)"],
    ["invert", "(21)"],
    ["invert", "(3113)"],
    ["invert", "211(210)"],
    ["invert", "1(0)"],
    ["invert", "(100)"],
    ["invert", "(10)"],
    ["invert", "2(10)"],
    ["invert", "(12)"],
    ["invert", "(1)"],
    ["expansion", "--beta", "poly:-2,1,0,-1,0,-2,1:1"],
    ["expansion", "--beta", "21/10", "--digits", "400"],
    ["expansion", "--beta", "3/2", "--digits", "300", "--no-period"],
    ["expansion", "--beta", "2", "--digits", "10", "--no-period"],
    ["expansion", "--beta", "poly:-2,1,0,-1,0,-2,1:1", "--digits", "1000", "--no-period"],
    ["expansion", "--beta", "poly:-1,-1,-1,1:1", "--digits", "20"],
    ["expansion", "--beta", "7/3", "--digits", "50", "--no-period", "--precision", "256"],
    ["expansion", "--beta", "poly:-1,-1,1:1", "--precision", "512"],
    ["expansion", "--beta", "poly:-379,-440,400:1", "--digits", "60"],
    # beta escalates to a 2^-512 interval; start bits below the 64 of the orbit keys
    ["expansion", "--beta", "poly:-2,1,0,-1,0,-2,1:1", "--digits", "2500"],
    ["expansion", "--beta", "poly:-2,1,0,-1,0,-2,1:1", "--digits", "300", "--precision", "32"],
    ["expansion", "--beta", "poly:-2,-2,-2,-2,-1,-1,-1,1:1", "--digits", "300",
     "--precision", "48"],
    # long orbits, where the step reads its digit off a carried enclosure
    ["expansion", "--beta", "3/2", "--digits", "2000", "--no-period"],
    ["expansion", "--beta", "poly:-2,-2,-2,-2,-1,-1,-1,1:1", "--digits", "2500"],
    ["expansion", "--beta", "poly:-2,-2,-2,-2,-1,-1,-1,1:1", "--digits", "1000"],
    # the threshold base of 24,4,3,12,17,16,18,19,21,9,5,1,23,6,11,7,8,22,10,15,13,2,20,14:
    # its expansion of 1 repeats only at digit 23
    ["expansion", "--beta", "poly:-5,-9,-2,4,0,8,7,1,-3,-1,-1,-8,7,-4,-2,4,-7,6,3,4,-1,1,-10,1:1"],
    # a degree-19 base whose expansion of 1 returns to point 11 at digit 19: on a
    # 2^-64 interval its points have exact enclosures wider than the keys allow
    ["expansion", "--beta", "poly:-2,7,-4,-2,1,-6,-7,10,0,-2,4,5,-5,8,-2,1,-7,5,-11,1:1",
     "--precision", "32"],
    ["expansion", "--beta", "poly:-5,-9,-2,4,0,8,7,1,-3,-1,-1,-8,7,-4,-2,4,-7,6,3,4,-1,1,-10,1:1",
     "--precision", "32"],
    ["expansion", "--beta", "1"],
    ["expansion", "--beta", "poly:-1,-1,1:2"],
    ["member", "1(0)", "--beta", "21/10"],
    ["member", "21(10)", "--beta", "poly:-379,-440,400:1"],
    ["member", "(10)", "--beta", "poly:-1,-1,1:1"],
    ["member", "0(1)", "--beta", "3/2"],
    ["pat", "1(0)", "3"],
    ["pat", "330121023(301210220)", "9"],
    ["pat", "1(0)", "200000000"],
    ["realize", "4321"],
    ["realize", "1423"],
    ["realize", "4321", "--max-alphabet", "1"],
    ["verify", "4321"],
    ["verify", "14523"],
    # with 14523, the verify sample of the benchmark's seed-1 certify batch
    ["verify", "31542"],
    ["verify", "53412"],
    ["verify", "43125"],
    ["verify", "52341"],
    ["verify", "23541"],
    ["verify", "526413"],
    ["verify", "2314"],
    ["verify", "7325416"],
    ["verify", "1423", "--margin", "1/2"],
    ["verify", "4321", "--margin", "1/100", "--precision", "512"],
    ["verify", "4321", "--margin", "1/1000000"],
    ["verify", "3421"],
    ["verify", "21", "--margin", "x"],
    # margins with a denominator above 10^9, read exactly since the CLI
    # stopped rounding them
    ["verify", "312", "--margin", "1/2000000000"],
    ["verify", "312", "--margin", "0.1234567890123"],
    ["verify", "312", "--margin", "100"],
]


def _timeless(text: str, fmt: str):
    """A JSON envelope without its timing; any other output as printed."""
    if fmt != "json" or not text:
        return text
    envelope = json.loads(text)
    envelope.pop("timing_ms", None)
    return envelope


def run_once(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except Exception as exc:  # a traceback is an answer too, and must match
            code = f"{type(exc).__name__}: {exc}"
    fmt = argv[argv.index("--format") + 1]
    return {"argv": argv, "exit": code,
            "stdout": _timeless(out.getvalue(), fmt), "stderr": _timeless(err.getvalue(), fmt)}


def main() -> None:
    for argv in CORPUS:
        for fmt in FORMATS:
            print(json.dumps(run_once([*argv, "--format", fmt]), sort_keys=True), flush=True)


if __name__ == "__main__":
    main()
