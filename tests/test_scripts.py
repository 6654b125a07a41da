"""The checked-in scripts reproduce the worked examples with pinned output."""

import json
import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"

WORKED_EXAMPLES_EXPECTED = """\
pi = 3421
  circular   = 3142
  z          = 110
  m,ell,r    = 2,None,3
  collapsed  = false
  a          = (100)
  B-         = 1
  witness    = 1(100)
pi = 892364157
  circular   = 536174892
  z          = 33012102
  m,ell,r    = 2,5,1
  collapsed  = false
  a          = (30121023)
  polynomial = x^8 - 4x^7 + x^6 - 2x^5 + 3x^4 - 2x^3 + x^2 - 3x + 3
  B-         = 3.831
  witness    = 3(301210220)
pi = 453261
  circular   = 462531
  z          = 11001
  m,ell,r    = 5,None,4
  collapsed  = false
  a          = (10)
  polynomial = x^2 - 2x
  B-         = 2
  witness    = 110010(2)
pi = 7325416
  circular   = 6521473
  z          = 100100
  m,ell,r    = 1,4,1
  collapsed  = true
  a          = 211(210)
  polynomial = x^6 - 3x^5 + 2x^4 - x^3 - 1
  B-         = 2.343
  witness    = 211210(211)
pi = 1423
  circular   = 4312
  z          = 000
  m,ell,r    = 2,3,2
  collapsed  = true
  a          = 1(0)
  polynomial = x^2 - x - 1
  B-         = 1.618
  witness    = 0100000(1)
pi = 3142
  circular   = 4312
  z          = 001
  m,ell,r    = 3,2,1
  collapsed  = false
  a          = (100)
  B-         = 1
  witness    = 00100100(10011)
pi = 2314
  circular   = 4312
  z          = 000
  m,ell,r    = 4,2,None
  collapsed  = false
  a          = (0)
  B-         = 1
  witness    = 000(1)
pi = 4231
  circular   = 4312
  z          = 100
  m,ell,r    = 1,None,2
  collapsed  = false
  a          = 1(0)
  polynomial = x^2 - x - 1
  B-         = 1.618
  witness    = 100000(1)
"""

TABLE_EXPECTED = """\
B-        root of                 permutations
1         x - 1                   12, 21
1         x - 1                   123, 132, 213, 231, 321
1.618     x^2 - x - 1             312
1         x - 1                   1324, 1342, 1432, 2134, 2143, 2314, 2431, 3142, 3214, 3241, 3421, 4213
1.618     x^2 - x - 1             1423, 3412, 4231
1.755     x^3 - 2x^2 + x - 1      2341, 2413, 3124, 4123
1.839     x^3 - x^2 - x - 1       4132
2         x - 2                   1234, 1243, 4312
2.247     x^3 - 2x^2 - x + 1      4321
"""


def run_script(name: str) -> str:
    proc = subprocess.run([sys.executable, str(SCRIPTS / name)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_worked_examples_script_output_pinned():
    assert run_script("run_worked_examples.py") == WORKED_EXAMPLES_EXPECTED


def test_threshold_table_script_output_pinned():
    assert run_script("reproduce_threshold_table.py") == TABLE_EXPECTED


def test_cli_equivalence_script_prints_one_timeless_json_line_per_run():
    runs = [json.loads(line) for line in run_script("cli_equivalence.py").splitlines()]
    assert runs and all(set(r) == {"argv", "exit", "stdout", "stderr"} for r in runs)
    assert {r["argv"][0] for r in runs} == {"analyze", "spectrum", "count-b1", "extremal", "invert",
                                            "expansion", "member", "pat", "realize", "verify"}
    assert {r["argv"][-1] for r in runs} == {"json", "text", "csv"}
    envelopes = [r[stream] for r in runs for stream in ("stdout", "stderr")
                 if isinstance(r[stream], dict)]
    assert envelopes and not any("timing_ms" in e for e in envelopes)


def test_inverse_rule_evidence_quick_run_finds_no_mismatch():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "inverse_rule_evidence.py"), "--quick"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[:6] == ["corpus", "kind", "words", "late", "mismatch", "failed"]
    assert [row.split()[:6] for row in rows] == [["7,3,3,4", "expansions", "1606", "25", "0", "0"]]


def test_b_of_equivalence_quick_run_prints_one_line_per_word():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "b_of_equivalence.py"), "--quick"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(set(lines)) == 907
    assert "(21)  x^2 - 3x + 1  [1, -3, 1]  1  4  175693285/67108864  21961661/8388608  " \
        "2.618033988750" in lines
    assert "(210)  x^3 - 3x^2 + 2x  [0, 2, -3, 1]  2  2  2  2  2.000000000000" in lines


def test_expansion_certificate_evidence_quick_run_finds_no_mismatch():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "expansion_certificate_evidence.py"),
                           "--quick"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["corpus", "expansions", "others", "exact", "wider", "mismatch", "s"]
    assert [row.split()[:6] for row in rows] == [["4,3,3,4", "151", "12", "3", "0", "0"]]
