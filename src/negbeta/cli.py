"""Command-line front end.

Every subcommand emits a versioned output envelope: the echoed command, the
inputs in canonical form, the results object, the precision used, and the
wall time.  Results are deterministic for fixed argv, seed and precision
(timing excepted); JSON keys are sorted so output is diffable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import analysis, dynamics, inverse
from .algebraic import IntPolynomial, isolate_real_roots, root_upper_bound
from .dynamics import BetaValue, PrecisionConfig
from .errors import MalformedBaseError, NegBetaError
from .permutations import parse_permutation
from .words import format_word, parse_word

SCHEMA = "negbeta/1"
ENV_PRECISION = "NEGBETA_PRECISION"


def parse_beta(text: str, precision: PrecisionConfig) -> BetaValue:
    """Base syntax: integer, exact rational "p/q", or "poly:c0,c1,..,cd:k"
    picking the k-th real root above 1 in increasing order (coefficients in
    ascending degree)."""
    text = text.strip()
    try:
        if not text.startswith("poly:"):
            return BetaValue.from_rational(Fraction(*(int(t) for t in text.split("/", 1))))
        _, coeffs, k = text.split(":")
        poly, k = IntPolynomial(tuple(int(t) for t in coeffs.split(","))), int(k)
    except (ValueError, ZeroDivisionError):
        raise MalformedBaseError(
            f"bad base syntax {text!r}; want an integer, p/q or poly:coeffs:k") from None
    if poly.is_zero():
        raise MalformedBaseError("the zero polynomial has no roots")
    roots = isolate_real_roots(poly, Fraction(1), root_upper_bound(poly))
    if not 1 <= k <= len(roots):
        raise MalformedBaseError(
            f"polynomial has {len(roots)} real roots above 1; index {k} out of range")
    return BetaValue.from_algebraic(roots[k - 1])


@dataclass
class Rendered:
    results: dict
    text: str
    csv: str | None = None


def _cmd_analyze(args, precision) -> Rendered:
    pi = parse_permutation(args.perm)
    if pi.n == 1:
        # Length-1 patterns carry no order content; the threshold is reported
        # as 1 by convention.
        results = {"pi": "1", "b_minus": "1", "n_minus": 1, "convention": True,
                   "note": "length-1 pattern: threshold 1 by convention"}
        return Rendered(results=results, text="pi = 1\nB- = 1  (by convention)")
    report = analysis.analyze(pi)
    j = report.to_json()
    lines = [
        f"pi          = {report.pi}",
        f"landmarks   = m={report.landmarks.m} ell={report.landmarks.ell} r={report.landmarks.r}",
        f"z           = {report.z}",
        f"collapsed   = {str(report.collapsed).lower()}",
    ]
    if report.variants:
        lines.append("variants    = " + " ".join(str(v) for v in report.variants))
    lines.append(f"a           = {report.a}")
    if report.poly is not None:
        lines.append(f"polynomial  = {report.poly}")
    lines.append(f"B-          = {report.b_decimal(3)}")
    lines.append(f"N-          = {report.n_minus}")
    if report.b1_exponent is not None:
        lines.append(f"b1 exponent = {report.b1_exponent}")
    return Rendered(results=j, text="\n".join(lines))


def _cmd_spectrum(args, precision) -> Rendered:
    groups = analysis.spectrum(args.n)
    results = {"n": args.n, "groups": [g.to_json() for g in groups]}
    width = max(len(str(g.poly)) for g in groups)
    lines = [f"{'B-':8}  {'root of':{width}}  permutations"]
    for g in groups:
        perms = ", ".join(str(p) for p in g.members)
        lines.append(f"{g.decimal(3):8}  {str(g.poly):{width}}  {perms}")
    csv_lines = ["b_minus,polynomial,permutations"]
    for g in groups:
        perms = " ".join(str(p) for p in g.members)
        csv_lines.append(f"{g.decimal(6)},{g.poly},{perms}")
    return Rendered(results=results, text="\n".join(lines), csv="\n".join(csv_lines))


def _cmd_count_b1(args, precision) -> Rendered:
    counts = analysis.count_b1(args.nmax, jobs=args.jobs)
    results = {"n_max": args.nmax, "counts": counts, "first_n": 2}
    csv_lines = ["n,count"] + [f"{n},{c}" for n, c in enumerate(counts, start=2)]
    return Rendered(results=results, text=" ".join(str(c) for c in counts),
                    csv="\n".join(csv_lines))


def _cmd_extremal(args, precision) -> Rendered:
    report = analysis.extremal_report(args.n)
    lines = [
        f"n            = {report.n}",
        f"max B-       = {report.max_value.decimal(3)}",
        f"polynomial   = {report.max_poly}",
        f"attained by  = {', '.join(str(p) for p in report.attaining)}",
        f"N- = n-1 set = {', '.join(str(p) for p in report.n_minus_max_set)}",
    ]
    return Rendered(results=report.to_json(), text="\n".join(lines))


def _cmd_invert(args, precision) -> Rendered:
    w = parse_word(args.word)
    state = inverse.construct_state(w, precision=precision)
    report = analysis.analyze(state.result)
    results = state.to_json()
    results["verified"] = True
    results["b_minus"] = report.b_decimal(12)
    text = (f"pi = {state.result}\nrho = {state.rho}\ny = {list(state.y)}\n"
            f"c = {state.c}\nB- = {report.b_decimal(3)}\nverified = true")
    return Rendered(results=results, text=text)


def _cmd_expansion(args, precision) -> Rendered:
    beta = parse_beta(args.beta, precision)
    res = dynamics.expansion_of_one(beta, max_digits=args.digits,
                                    detect_period=not args.no_period,
                                    precision=precision)
    # certified interval endpoints of the first orbit points, for audit
    orbit = [[f"{lo.numerator}/{lo.denominator}", f"{hi.numerator}/{hi.denominator}"]
             for lo, hi in res.orbit_intervals(32, Fraction(1, 2**precision.start_bits))]
    results = {
        "beta": str(beta),
        "digits": list(res.digits),
        "periodic": res.is_periodic,
        "word": format_word(res.word) if res.word else None,
        "orbit_prefix_intervals": orbit,
    }
    if res.word is not None:
        text = format_word(res.word)
    else:
        text = " ".join(str(d) for d in res.digits) + "  (not yet periodic)"
    return Rendered(results=results, text=text)


def _cmd_member(args, precision) -> Rendered:
    w = parse_word(args.word)
    beta = parse_beta(args.beta, precision)
    oracle = dynamics.MembershipOracle(beta, precision=precision)
    member = oracle.contains(w)
    results = {"word": format_word(w), "beta": str(beta), "member": member,
               "d1": format_word(oracle.word) if oracle.word else None}
    return Rendered(results=results, text="true" if member else "false")


def _cmd_pat(args, precision) -> Rendered:
    w = parse_word(args.word)
    pi = analysis.pat_of_word(w, args.n)
    return Rendered(results={"word": format_word(w), "n": args.n, "pattern": str(pi)},
                    text=str(pi))


def _cmd_realize(args, precision) -> Rendered:
    pi = parse_permutation(args.perm)
    size, witness = analysis.min_alphabet_bruteforce(
        pi, max_prefix=args.max_prefix, max_period=args.max_period,
        max_alphabet=args.max_alphabet)
    results = {"pi": str(pi), "min_alphabet": size, "witness": format_word(witness)}
    return Rendered(results=results, text=f"{size} {format_word(witness)}")


def _cmd_verify(args, precision) -> Rendered:
    pi = parse_permutation(args.perm)
    try:
        margin = Fraction(args.margin)
    except (ValueError, ZeroDivisionError):
        raise NegBetaError(f"bad margin {args.margin!r}; want a rational such as 1/20") from None
    report = analysis.sandwich_check(pi, margin, precision=precision)
    text = (f"pi = {pi}\nB- = {report.b_decimal}\n"
            f"witness above = {report.witness_above}\n"
            f"found below   = {report.found_below}\n"
            f"found at      = {report.found_at}\n"
            f"passed = {str(report.passed).lower()}")
    return Rendered(results=report.to_json(), text=text)


_COMMANDS = {
    "analyze": _cmd_analyze,
    "spectrum": _cmd_spectrum,
    "count-b1": _cmd_count_b1,
    "extremal": _cmd_extremal,
    "invert": _cmd_invert,
    "expansion": _cmd_expansion,
    "member": _cmd_member,
    "pat": _cmd_pat,
    "realize": _cmd_realize,
    "verify": _cmd_verify,
}


def _add_global_flags(ap: argparse.ArgumentParser, suppress: bool):
    d = argparse.SUPPRESS if suppress else None
    ap.add_argument("--format", choices=("json", "csv", "text"),
                    default=d if suppress else "text")
    ap.add_argument("--precision", type=int, default=d,
                    help="interval precision cap in fractional bits (default 4096; "
                         f"environment {ENV_PRECISION} applies when the flag is absent)")
    ap.add_argument("--jobs", type=int, default=d if suppress else 1)
    ap.add_argument("--seed", type=int, default=d if suppress else 0,
                    help="seed echoed into the envelope; all searches are deterministic")


def build_parser() -> argparse.ArgumentParser:
    # Global flags are accepted both before and after the subcommand; the
    # after-subcommand copies use SUPPRESS defaults so they never clobber
    # values parsed at the top level.
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)
    ap = argparse.ArgumentParser(
        prog="negbeta",
        description="Thresholds and expansions of negative beta-shift patterns")
    _add_global_flags(ap, suppress=False)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common]);  p.add_argument("perm")
    p = sub.add_parser("spectrum", parents=[common]); p.add_argument("n", type=int)
    p = sub.add_parser("count-b1", parents=[common]); p.add_argument("nmax", type=int)
    p = sub.add_parser("extremal", parents=[common]); p.add_argument("n", type=int)
    p = sub.add_parser("invert", parents=[common]);   p.add_argument("word")
    p = sub.add_parser("expansion", parents=[common])
    p.add_argument("--beta", required=True)
    p.add_argument("--digits", type=int, default=200)
    p.add_argument("--no-period", action="store_true")
    p = sub.add_parser("member", parents=[common])
    p.add_argument("word")
    p.add_argument("--beta", required=True)
    p = sub.add_parser("pat", parents=[common])
    p.add_argument("word")
    p.add_argument("n", type=int)
    p = sub.add_parser("realize", parents=[common])
    p.add_argument("perm")
    p.add_argument("--max-prefix", type=int, default=None)
    p.add_argument("--max-period", type=int, default=None)
    p.add_argument("--max-alphabet", type=int, default=None)
    p = sub.add_parser("verify", parents=[common])
    p.add_argument("perm")
    p.add_argument("--margin", type=str, default="1/20")
    return ap


def _env_precision() -> int:
    text = os.environ.get(ENV_PRECISION)
    if not text:
        return 4096
    try:
        return int(text)
    except ValueError:
        raise NegBetaError(f"{ENV_PRECISION} must be an integer, got {text!r}") from None


def run(argv: list[str]) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    bits = args.precision
    started = time.monotonic()
    envelope = {
        "schema": SCHEMA,
        "command": [args.command] + [a for a in argv if a != args.command],
        "precision_bits": bits,
        "seed": args.seed,
    }
    try:
        if bits is None:
            bits = envelope["precision_bits"] = _env_precision()
        precision = PrecisionConfig(start_bits=min(128, bits), max_bits=bits)
        rendered = _COMMANDS[args.command](args, precision)
    except NegBetaError as err:
        envelope["error"] = err.payload()
        envelope["timing_ms"] = round(1000 * (time.monotonic() - started), 3)
        print(json.dumps(envelope, sort_keys=True) if args.format == "json"
              else f"error ({err.reason}): {err}", file=sys.stderr)
        return err.exit_code
    envelope["results"] = rendered.results
    envelope["timing_ms"] = round(1000 * (time.monotonic() - started), 3)
    if args.format == "json":
        print(json.dumps(envelope, sort_keys=True))
    elif args.format == "csv" and rendered.csv is not None:
        print(rendered.csv)
    else:
        print(rendered.text)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
