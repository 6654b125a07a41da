"""Tests of the benchmark itself (not part of the library's suite):

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from negbeta import analysis, inverse  # noqa: E402
from negbeta.permutations import Permutation  # noqa: E402


def bench(*args, cwd=ROOT, flags=()):
    return subprocess.run([sys.executable, *flags, os.path.join(HERE, "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=cwd)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tiny_run(workload: str, trace: int, seed: int = 1) -> dict:
    return result_of(bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                           "--trace", str(trace), "--tiny"))


def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_tiny_batch(name: str):
    wl = workloads.build(name, 7, tiny=True)
    tally = run.Tally()
    run.SpeedMeter().run_batch(wl, tally)
    return wl, tally


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_each_workload_runs_at_a_tiny_size(name):
    wl, tally = run_tiny_batch(name)
    assert tally.attempted == len(wl.ops) > 0
    assert tally.failed == 0


def test_corrupted_count_is_a_failure(monkeypatch):
    real = analysis.count_b1
    monkeypatch.setattr(analysis, "count_b1", lambda n, jobs=1: [c + 1 for c in real(n, jobs)])
    wl, tally = run_tiny_batch("enumerate")
    assert (tally.attempted, tally.failed) == (3, 1)


def test_corrupted_inverse_is_a_failure(monkeypatch):
    real = inverse.construct_state

    def wrong(w, check_expansion=True):
        state = real(w, check_expansion)
        n = state.result.n
        return type(state)(**{**state.__dict__, "result": Permutation(tuple(range(1, n + 1)))})

    monkeypatch.setattr(inverse, "construct_state", wrong)
    wl, tally = run_tiny_batch("query")
    inverts = sum(op.label.startswith("invert") for op in wl.ops)
    assert tally.attempted == len(wl.ops)
    assert 0 < tally.failed <= inverts


def test_failing_operation_does_not_stop_the_batch(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(analysis, "sandwich_check", boom)
    wl, tally = run_tiny_batch("certify")
    verifies = sum(op.label.startswith("verify") for op in wl.ops)
    assert (tally.attempted, tally.failed) == (len(wl.ops), verifies)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_metric_is_reported_and_declared(name):
    spec = contract()
    plain = tiny_run(name, 0)
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == declared
    traced = tiny_run(name, 1)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == declared
    assert name in {w["name"] for w in spec["workloads"]}


def test_every_layer_metric_has_a_target():
    with open(os.path.join(HERE, "layer_targets.json")) as fh:
        targets = json.load(fh)
    assert set(targets) == {m["name"] for m in contract()["per_layer"]}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(name):
    first, second = tiny_run(name, 1, seed=3), tiny_run(name, 1, seed=3)

    def counts(result):
        return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}

    assert counts(first) == counts(second)
    assert any(counts(first).values())


def test_tracer_restores_the_library():
    originals = {name: getattr(analysis, name) for name in ("analyze", "_search_realizing")}
    tracer = tracing.Tracer()
    tracer.install()
    assert analysis.analyze is not originals["analyze"]
    tracer.uninstall()
    assert {name: getattr(analysis, name) for name in originals} == originals


def test_refuses_optimized_python():
    proc = bench("--workload", "query", "--seed", "1", "--seconds", "0", "--tiny", flags=("-O",))
    assert proc.returncode != 0 and proc.stdout == ""


def test_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "query", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_certify_sample_is_seeded_and_balanced():
    costs = workloads.load_certify_costs()
    samples = [workloads.certify_sample(seed, costs) for seed in range(20)]
    assert samples[0] == workloads.certify_sample(0, costs)
    assert len({tuple(s) for s in samples}) > 10
    totals = [sum(costs["verify"][p] for p in s) for s in samples]
    assert max(totals) / min(totals) < 1.05
    assert len({s[-1] for s in samples}) == 1  # the slowest operation is fixed
