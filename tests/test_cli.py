import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from negbeta import analysis, dynamics
from negbeta.cli import _COMMANDS, parse_beta, run
from negbeta.dynamics import DEFAULT_PRECISION, PrecisionConfig
from negbeta.errors import MalformedBaseError, NegBetaError

DATA = pathlib.Path(__file__).parent / "data"


def invoke(argv, env=None, flags=()):
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "negbeta.cli", *argv],
        capture_output=True, text=True,
        env={**os.environ, **(env or {})},
    )
    return proc.returncode, proc.stdout, proc.stderr


def envelope(argv, env=None, flags=()):
    code, out, err = invoke([*argv, "--format", "json"], env=env, flags=flags)
    assert code == 0, err
    return json.loads(out)


def strip_timing(env):
    return {k: v for k, v in env.items() if k != "timing_ms"}


def test_analyze_text_contains_polynomial_and_value():
    code, out, _ = invoke(["analyze", "4321", "--format", "text"])
    assert code == 0
    assert "x^3 - 2x^2 - x + 1" in out
    assert "2.247" in out


def test_analyze_length_one_convention():
    env = envelope(["analyze", "1"])
    assert env["results"]["b_minus"] == "1"
    assert env["results"]["convention"] is True


def test_count_b1_text():
    code, out, _ = invoke(["count-b1", "6"])
    assert code == 0
    assert out.strip() == "2 5 12 19 34"


def test_spectrum_csv():
    code, out, _ = invoke(["spectrum", "3", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "b_minus,polynomial,permutations"
    assert lines[1].startswith("1,x - 1,123 132")
    assert lines[2].startswith("1.618034,x^2 - x - 1,312")


def test_invert_json():
    env = envelope(["invert", "(2)"])
    res = env["results"]
    assert res["pi"] == "1243"
    assert res["verified"] is True
    assert res["b_minus"] == "2"
    assert res["rho"] == "21" and res["y"] == [0, 2] and res["c"] == 2


def test_expansion_rational_and_poly_beta():
    code, out, _ = invoke(["expansion", "--beta", "2"])
    assert code == 0 and out.strip() == "(2)"
    code, out, _ = invoke(["expansion", "--beta", "poly:-1,-1,1:1"])
    assert code == 0 and out.strip() == "1(0)"
    code, out, _ = invoke(["expansion", "--beta", "7/3", "--digits", "10"])
    assert code == 0 and "not yet periodic" in out


def test_member_subcommand():
    code, out, _ = invoke(["member", "110010(2)", "--beta", "2"])
    assert code == 0 and out.strip() == "false"
    code, out, _ = invoke(["member", "110010(2)", "--beta", "21/10"])
    assert code == 0 and out.strip() == "true"


def test_pat_subcommand():
    code, out, _ = invoke(["pat", "1(100)", "4"])
    assert code == 0 and out.strip() == "3421"


def test_realize_subcommand():
    env = envelope(["realize", "4321"])
    assert env["results"]["min_alphabet"] == 3


def test_verify_subcommand():
    env = envelope(["verify", "1423"])
    assert env["results"]["passed"] is True


def test_extremal_subcommand():
    code, out, _ = invoke(["extremal", "4"])
    assert code == 0
    assert "2.247" in out and "4321" in out


def test_domain_error_exit_code():
    code, _, err = invoke(["analyze", "4421"])
    assert code == 2
    assert "malformed-permutation" in err


def test_malformed_word_exit_code():
    code, _, err = invoke(["invert", "abc"])
    assert code == 2


def test_envelope_deterministic_across_runs_and_jobs():
    first = envelope(["count-b1", "5"])
    second = envelope(["count-b1", "5"])
    jobs2 = envelope(["count-b1", "5", "--jobs", "2"])
    assert strip_timing(first) == strip_timing(second)
    assert strip_timing(first)["results"] == strip_timing(jobs2)["results"]


def test_envelope_schema_fields():
    env = envelope(["analyze", "3421"])
    assert env["schema"] == "negbeta/1"
    assert env["command"][0] == "analyze"
    assert "precision_bits" in env and "timing_ms" in env
    assert env["results"]["b_minus"] == "1"
    assert env["results"]["b1_exponent"] == 2


def test_precision_env_var_and_flag():
    env = envelope(["analyze", "3421"], env={"NEGBETA_PRECISION": "512"})
    assert env["precision_bits"] == 512
    env = envelope(["analyze", "3421", "--precision", "256"],
                   env={"NEGBETA_PRECISION": "512"})
    assert env["precision_bits"] == 256


def test_parse_beta_forms():
    p = PrecisionConfig()
    assert parse_beta("2", p).rational == 2
    assert parse_beta("21/10", p).rational.denominator == 10
    golden = parse_beta("poly:-1,-1,1:1", p)
    assert abs(float(golden) - 1.618033988) < 1e-8
    with pytest.raises(NegBetaError):
        parse_beta("poly:-1,-1,1:5", p)
    # x^2 - 3x + 1 has two real roots but only one above 1
    assert abs(float(parse_beta("poly:1,-3,1:1", p)) - 2.618033988) < 1e-8


def test_global_flags_accepted_before_subcommand():
    code, out, _ = invoke(["--format", "json", "count-b1", "4"])
    assert code == 0
    assert json.loads(out)["results"]["counts"] == [2, 5, 12]


@pytest.mark.parametrize("text", [
    "0/0", "1/0", "abc", "", "1/2/3", "poly:1,x:1", "poly:-1,-1,1:z",
    "poly::1", "poly:1:2:3", "poly:0:1",
    # a root index outside 1..#roots above 1: none, 0, and one past the last
    "poly:1,1:1", "poly:-2,0,1:0", "poly:-2,0,1:2",
])
def test_parse_beta_rejects_malformed_bases(text):
    with pytest.raises(MalformedBaseError):
        parse_beta(text, PrecisionConfig())


@pytest.mark.parametrize("beta", ["0/0", "abc", "poly:-1,-1,1:z",
                                  "poly:1,1:1", "poly:-2,0,1:0", "poly:-2,0,1:2"])
def test_malformed_base_exit_code(beta):
    code, _, err = invoke(["expansion", "--beta", beta])
    assert code == 2
    assert "malformed-base" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,golden", [
    (["expansion", "--beta", "poly:-2,1,0,-1,0,-2,1:1"], "expansion_degree_six.json"),
    (["verify", "4321"], "verify_4321.json"),
    (["verify", "14523"], "verify_14523.json"),
    (["spectrum", "6"], "spectrum_6.json"),
    (["extremal", "7"], "extremal_7.json"),
    (["count-b1", "8"], "count_b1_8.json"),
    (["analyze", "3421"], "analyze_3421.json"),
    (["analyze", "892364157"], "analyze_892364157.json"),
    (["analyze", "7325416"], "analyze_7325416.json"),
    (["analyze", "1423"], "analyze_1423.json"),
    (["analyze", "312"], "analyze_312.json"),
    (["analyze", "14,3,12,1,9,6,13,2,8,11,4,10,7,5"], "analyze_n14.json"),
    (["verify", "23541"], "verify_23541.json"),
    (["expansion", "--beta", "21/10", "--digits", "400"], "expansion_21_10.json"),
    (["expansion", "--beta", "3/2", "--digits", "300", "--no-period"],
     "expansion_3_2_no_period.json"),
    (["member", "1(0)", "--beta", "21/10"], "member_21_10.json"),
    (["verify", "526413"], "verify_526413.json"),
    # B-(1423) + 1/20, not an algebraic integer, so no period search
    (["member", "21(10)", "--beta", "poly:-379,-440,400:1"], "member_poly_shifted_1423.json"),
])
def test_output_matches_golden_envelope(argv, golden):
    expected = json.loads((DATA / golden).read_text())
    assert strip_timing(envelope(argv)) == expected


@pytest.mark.parametrize("argv", [["analyze", "7325416"], ["extremal", "6"], ["verify", "4321"],
                                  ["expansion", "--beta", "poly:-2,1,0,-1,0,-2,1:1"]])
def test_optimized_interpreter_gives_the_same_envelope(argv):
    # python -O strips assert statements; no check may depend on them
    assert strip_timing(envelope(argv, flags=["-O"])) == strip_timing(envelope(argv))


def test_verify_passes_its_precision_to_every_membership_oracle(monkeypatch, capsys):
    seen = []

    class Recording(analysis.MembershipOracle):
        def __init__(self, beta, precision=DEFAULT_PRECISION, **kwargs):
            seen.append(precision)
            super().__init__(beta, precision, **kwargs)

    monkeypatch.setattr(analysis, "MembershipOracle", Recording)
    assert run(["verify", "4321", "--precision", "512", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["passed"] is True
    # one oracle above the threshold, one below and one at it
    assert seen == [PrecisionConfig(start_bits=128, max_bits=512)] * 3


def test_invert_passes_its_precision_to_the_orbit_walk(monkeypatch, capsys):
    seen = []
    real = dynamics._arith_for

    def recording(beta, precision):
        seen.append(precision)
        return real(beta, precision)

    monkeypatch.setattr(dynamics, "_arith_for", recording)
    assert run(["invert", "21(0)", "--precision", "512", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["pi"] == "4321"
    # one walk, the one that decides the word before the candidate search
    assert seen == [PrecisionConfig(start_bits=128, max_bits=512)]


def test_expansion_no_period_prints_exactly_the_digits_asked():
    res = envelope(["expansion", "--beta", "2", "--no-period", "--digits", "10"])["results"]
    assert res["digits"] == [2] * 10 and res["periodic"] is False and res["word"] is None
    assert res["orbit_prefix_intervals"] == [["1/1", "1/1"]] * 10
    # without the flag the period is certified after one digit
    res = envelope(["expansion", "--beta", "2", "--digits", "10"])["results"]
    assert res["digits"] == [2] and res["word"] == "(2)"


@pytest.mark.parametrize("value", ["abc", "12.5", "-5"])
def test_malformed_precision_variable_is_a_typed_error(value):
    code, _, err = invoke(["analyze", "12", "--format", "json"], env={"NEGBETA_PRECISION": value})
    assert code == 2 and "Traceback" not in err
    assert json.loads(err)["error"]["reason"] == "error"


@pytest.mark.parametrize("argv", [["analyze", "12", "--precision", "-5"],
                                  ["expansion", "--beta", "2", "--precision", "0"],
                                  ["verify", "21", "--margin", "x"],
                                  ["verify", "4321", "--margin", "1/0"]])
def test_bad_precision_and_margin_are_typed_errors(argv):
    code, _, err = invoke([*argv, "--format", "json"])
    assert code == 2 and "Traceback" not in err
    assert json.loads(err)["error"]["reason"] == "error"


@pytest.mark.parametrize("argv", [["realize", "4321", "--max-prefix", "-3"],
                                  ["realize", "4321", "--max-period", "0"],
                                  ["realize", "4321", "--max-alphabet", "-1"],
                                  ["realize", "4321", "--max-alphabet", "0"],
                                  ["pat", "1(0)", "-2"],
                                  ["pat", "1(0)", "0"],
                                  ["spectrum", "0"],
                                  ["spectrum", "-3"],
                                  ["spectrum", "1"],
                                  ["expansion", "--beta", "2", "--digits", "-1"]])
def test_bad_search_bounds_and_pattern_lengths_are_typed_errors(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run([*argv, "--format", "json"]) == 2
    message = json.loads(err.getvalue())["error"]["message"]
    assert message.startswith(("search bounds need", "pattern length must be at least 1",
                               "spectrum needs n >= 2", "max_digits must be at least 0"))


@pytest.mark.parametrize("argv", [["count-b1", "1"],
                                  ["count-b1", "-2"],
                                  ["count-b1", "6", "--jobs", "0"],
                                  ["count-b1", "6", "--jobs", "-3"]])
def test_count_b1_rejects_short_lengths_and_job_counts(argv):
    code, _, err = invoke([*argv, "--format", "json"])
    assert code == 2 and "Traceback" not in err
    message = json.loads(err)["error"]["message"]
    assert message.startswith("count_b1 needs n_max >= 2 and jobs >= 1")


def test_pattern_longer_than_the_word_is_undefined_at_once():
    # tails 2 and 3 of 1(0) are both (0); nothing of length n is built
    proc = subprocess.run(
        [sys.executable, "-m", "negbeta.cli", "pat", "1(0)", "200000000", "--format", "json"],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    error = json.loads(proc.stderr)
    assert error["error"] == {"reason": "pattern-undefined",
                              "message": "tails 2 and 3 of 1(0) coincide"}
    assert error["timing_ms"] < 1000


def test_verify_whose_witness_search_runs_out_is_inconclusive():
    # a witness within 10^-6 of B-(4321) needs a longer word than the search
    # tries; running out refutes nothing, so there is no report to print
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run(["verify", "4321", "--margin", "1/1000000", "--format", "json"]) == 4
    error = json.loads(err.getvalue())["error"]
    assert error["reason"] == "search-inconclusive"
    assert error["message"] == ("no admissible witness for 4321 at margin 1/1000000 above B-: "
                                "searched the seeded candidates, then preperiod and period up to 8")


def test_verify_runs_at_the_margin_given(capsys):
    # a margin below 10^-9 is not rounded to 0, so the witness search runs
    # and runs out
    assert run(["verify", "312", "--margin", "1/2000000000", "--format", "json"]) == 4
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["reason"] == "search-inconclusive"
    assert error["message"].startswith("no admissible witness for 312 at margin 1/2000000000 ")
    # nor is a long decimal rounded to a nearby fraction
    assert run(["verify", "312", "--margin", "0.1234567890123", "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["margin"] == "1234567890123/10000000000000" and results["passed"] is True


_PERMS = st.integers(1, 6).flatmap(
    lambda n: st.permutations(range(1, n + 1))).map(lambda p: "".join(map(str, p)))
_JUNK = st.text("0123456789,()-/:xpoly ", max_size=8)
_WORDS = st.builds(lambda pre, per: "".join(map(str, pre)) + "(" + "".join(map(str, per)) + ")",
                   st.lists(st.integers(0, 4), max_size=3),
                   st.lists(st.integers(0, 4), min_size=1, max_size=4))
_BASES = st.sampled_from(["2", "3", "21/10", "3/2", "7/3", "1", "0", "-2", "1/0", "abc",
                          "poly:-1,-1,1:1", "poly:-1,-1,1:2", "poly:1,-3,1:1", "poly:0:1",
                          "poly:-2,1,0,-1,0,-2,1:1"])
_SIZES = st.integers(-2, 6)


@st.composite
def _argvs(draw):
    cmd = draw(st.sampled_from(sorted(_COMMANDS)))
    perm, word = draw(st.one_of(_PERMS, _JUNK)), draw(st.one_of(_WORDS, _JUNK))
    args = {
        "analyze": [perm],
        "spectrum": [str(draw(_SIZES))],
        "count-b1": [str(draw(_SIZES))],
        "extremal": [str(draw(_SIZES))],
        "invert": [word],
        "expansion": ["--beta", draw(_BASES), "--digits", str(draw(st.integers(-2, 50)))]
                     + draw(st.sampled_from([[], ["--no-period"]])),
        "member": [word, "--beta", draw(_BASES)],
        "pat": [word, str(draw(_SIZES))],
        "realize": [perm] + draw(st.lists(st.tuples(
            st.sampled_from(["--max-prefix", "--max-period", "--max-alphabet"]),
            st.sampled_from(["-1", "0", "3"])), max_size=2)
            .map(lambda flags: [x for flag in flags for x in flag])),
        "verify": [perm, "--margin", draw(st.sampled_from(
            ["1/20", "1/100", "1/3", "0", "-1/20", "x", "1/0", "", "nan", "inf"]))],
    }[cmd]
    flags = ["--format", "json"]
    if draw(st.booleans()):
        flags += ["--precision", str(draw(st.sampled_from([-5, 0, 1, 8, 64, 256, 4096])))]
    if draw(st.booleans()):
        flags += ["--jobs", str(draw(st.sampled_from([1, 2])))]
    if draw(st.booleans()):
        flags += ["--seed", str(draw(st.integers(-3, 3)))]
    return flags + [cmd, *args] if draw(st.booleans()) else [cmd, *args, *flags]


# values of the precision environment variable; None leaves it unset
_ENV_PRECISIONS = st.sampled_from([None, "", "64", "512", "0", "-5", "abc", "1e3", "12.5"])


@given(_argvs(), _ENV_PRECISIONS)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_argv_ends_in_a_documented_exit_code_with_json(argv, env_precision):
    out, err = io.StringIO(), io.StringIO()
    env = {} if env_precision is None else {"NEGBETA_PRECISION": env_precision}
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        if env_precision is None:
            os.environ.pop("NEGBETA_PRECISION", None)
        try:
            code = run(argv)
        except SystemExit as stop:  # argparse rejected the argv
            assert stop.code == 2
            return
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    json.loads(out.getvalue() if code == 0 else err.getvalue())
