"""negbeta benchmark: one workload per run, closed loop, one client, one thread.

    python3 bench/run.py --workload {enumerate,query,certify} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  A run sets up (import, inputs from the seed, one warm-up
operation), then runs the workload's batch of operations again and again
until ``--seconds`` are used, checking every answer outside the timed region.
Human-readable lines start with ``#``; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Wrong answers and
unexpected exceptions count in ``failed``, over ``attempted``.

Timing.  On a host whose cores are shared with other tenants, the speed of
one core can drift by tens of percent over seconds (about 30% on a shared
2-vCPU virtual machine).  So every timed interval is scaled by a speed
probe: a fixed pure-Python reference work, independent of the library, timed
right before and right after the interval.
A time is reported as ``raw * REFERENCE_S / mean(probe)``, that is in seconds
of a machine on which the reference work takes REFERENCE_S.  A change to the
library moves the scaled times as it moves the raw ones; a change in the
machine's speed cancels.  The human-readable lines give the scale factors.

``--trace 0`` reports the end-to-end metrics:

* ``op_p50_ms``, ``op_p99_ms``: each operation's latency is the median of its
  repeats in the run; the percentiles (nearest rank) are taken over the
  batch's operations.
* ``wall_s``: the batch's time, as the sum of those per-operation medians.
* ``setup_s``: median of five set-ups, the run's own and four in fresh
  processes started one after another.
* ``peak_rss_mib``: peak resident memory of the measuring process.

``--trace 1`` alternates plain and traced batches and reports, per traced
batch, each layer's call count and self time (see tracing.py), and the
tracing overhead: traced over plain batch time, minus one.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
HASH_SEED = "0"
SETUP_SAMPLES = 5
REFERENCE_S = 0.010    # scaled times read as if reference_work took this long
PROBE_EVERY_S = 0.25   # seconds between two probes
WORKLOAD_NAMES = ("enumerate", "query", "certify")


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="negbeta benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, print the set-up time, exit (used for setup_s)")
    return ap.parse_args(argv)


def comparable_process(argv: list[str]) -> str | None:
    """Refuse conditions that change what is measured; fix the hash seed by
    re-executing this script in place (no child process)."""
    if sys.flags.optimize:
        return "refusing to run under python -O: it drops the asserts and measures another program"
    if not os.path.isfile(os.path.join(SRC, "negbeta", "__init__.py")):
        return f"no negbeta sources under {SRC}; run from a source checkout"
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *argv])
    return None


def reference_work():
    """Fixed pure-Python work of the library's kind (fractions, big and small
    integers, a dict) that does not touch the library."""
    acc = Fraction(0)
    big = 1
    table: dict[int, int] = {}
    for i in range(1, 1500):
        acc += Fraction(i % 97 + 1, 2 * i + 1) - Fraction(i % 13, 3 * i + 2)
        if acc.denominator > 1 << 256:
            acc = Fraction(acc.numerator % 1009, 1 + acc.denominator % 1013)
        big = (big * 7919 + i) % (1 << 512)
        table[i % 61] = table.get(i % 61, 0) + 1
    return acc, big, table


def probe() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def scale_between(before: float, after: float) -> float:
    return REFERENCE_S / ((before + after) / 2)


def set_up(name: str, seed: int, tiny: bool = False):
    """Import the library, build the inputs, run one warm-up operation.
    Returns the workload and the scaled set-up time; the warm-up answer is
    checked after the clock stops."""
    before = probe()
    started = time.perf_counter()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import mpmath  # noqa: F401  (part of the import cost a user pays)
    import negbeta

    import workloads

    wl = workloads.build(name, seed, tiny=tiny)
    warm = wl.warmup.run()
    elapsed = time.perf_counter() - started
    setup_s = elapsed * scale_between(before, probe())
    if not os.path.abspath(negbeta.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"negbeta imported from {negbeta.__file__}, not from {SRC}")
    if not wl.warmup.check(warm):
        raise SystemExit(f"warm-up operation gave a wrong answer: {wl.warmup.label}")
    return wl, setup_s


def fresh_setups(args, count: int) -> list[float]:
    """Set-up times of ``count`` fresh processes, run one after another."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only",
             *(["--tiny"] if args.tiny else [])],
            capture_output=True, text=True, timeout=170, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"set-up process failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class Tally:
    """Answers checked so far; a failure is logged and the run goes on."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, op, result, error: BaseException | None):
        self.attempted += 1
        ok = False
        if error is None:
            try:
                ok = bool(op.check(result))
            except Exception as exc:  # a check that crashes is a failed answer
                error = exc
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                detail = f": {type(error).__name__}: {error}" if error else ""
                print(f"# FAIL {op.label}{detail}", file=sys.stderr)


class SpeedMeter:
    """Operation latencies scaled by the machine's speed at the moment.

    An interval timer interrupts the run every PROBE_EVERY_S and runs the
    probe.  The time of the running operation since the last probe becomes a
    segment, scaled by the two probes around it; the probe's own time is in
    no segment.  So a long operation is scaled piece by piece, as the speed
    drifts under it.  When a tracer is installed, the probe's time is also
    taken out of the span it interrupted."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.scales: list[float] = []
        self.latency: list[float] = []
        self.pending: list[tuple[int, float]] = []  # (operation, raw seconds)
        self.current: int | None = None
        self.segment_start = 0.0
        self.busy = False
        self.deferred = False
        self.last_probe = probe()

    def tick(self, signum=None, frame=None):
        if self.busy:  # inside start/stop: run right after it
            self.deferred = True
            return
        now = time.perf_counter()
        if self.current is not None:
            self.pending.append((self.current, now - self.segment_start))
        p = probe()
        scale = scale_between(self.last_probe, p)
        self.scales.append(scale)
        for i, raw in self.pending:
            self.latency[i] += raw * scale
        self.pending.clear()
        self.last_probe = p
        after = time.perf_counter()
        if self.tracer is not None:
            self.tracer.exclude(after - now)
        self.segment_start = after

    def _guarded(self, update):
        self.busy = True
        update()
        self.busy = False
        if self.deferred:
            self.deferred = False
            self.tick()

    def start(self, i: int):
        def update():
            self.current = i
            self.segment_start = time.perf_counter()
        self._guarded(update)

    def stop(self):
        def update():
            self.pending.append((self.current, time.perf_counter() - self.segment_start))
            self.current = None
        self._guarded(update)

    def _check(self, tally: Tally, op, result, error):
        """Check an answer with tracing paused: the check's library calls are
        not the workload's."""
        if self.tracer is None:
            tally.record(op, result, error)
            return
        self.tracer.paused = True
        try:
            tally.record(op, result, error)
        finally:
            self.tracer.paused = False

    def run_batch(self, wl, tally: Tally) -> list[float]:
        """Run every operation of one batch and return their scaled
        latencies.  Only the operation is timed, not its check."""
        self.latency = [0.0] * len(wl.ops)
        previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            for i, op in enumerate(wl.ops):
                error = result = None
                self.start(i)
                try:
                    result = op.run()
                except Exception as exc:  # counted as a failure, the run goes on
                    error = exc
                self.stop()
                self._check(tally, op, result, error)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.tick()
        return self.latency


def per_op_medians(batches: list[list[float]]) -> list[float]:
    return [statistics.median(samples) for samples in zip(*batches)]


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def measure(wl, seconds: float, tracer, tally: Tally):
    """Batches until ``seconds`` are used: at least one, and with a tracer at
    least one plain and one traced, alternating.  Another batch starts only if,
    judged by the previous one, at least half of it fits in the time left, so
    a run lasts about ``seconds`` on average.  Returns the scaled latencies of
    each plain and each traced batch, the layer metrics of each traced batch
    and the speed scale factors."""
    plain, traced, layer_runs = [], [], []
    meter = SpeedMeter(tracer)
    started = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(traced) < len(plain)
        first_scale = len(meter.scales)
        if use_trace:
            tracer.install()
        t0 = time.perf_counter()
        try:
            lat = meter.run_batch(wl, tally)
        finally:
            if use_trace:
                tracer.uninstall()
        batch_total = time.perf_counter() - t0
        if use_trace:
            traced.append(lat)
            layer_runs.append(tracer.metrics(statistics.median(meter.scales[first_scale:])))
        else:
            plain.append(lat)
        elapsed = time.perf_counter() - started
        need_traced = tracer is not None and not traced
        if not need_traced and elapsed + batch_total / 2 > seconds:
            return plain, traced, layer_runs, meter.scales


def layer_metrics(layer_runs: list[dict], plain: list, traced: list) -> dict:
    """Counts from the first traced batch, times as the median over traced
    batches, and the tracing overhead.  Identical batches should give
    identical counts; a count that differs is reported, since it means the
    library carries state from one batch to the next."""
    out = {}
    for key, (value, unit) in layer_runs[0].items():
        if unit == "s":
            value = statistics.median(run[key][0] for run in layer_runs)
        elif any(run[key][0] != value for run in layer_runs[1:]):
            print(f"# note: {key} differs between traced batches: "
                  f"{[run[key][0] for run in layer_runs]}")
        out[key] = {"value": value, "unit": unit}
    overhead = sum(per_op_medians(traced)) / sum(per_op_medians(plain)) - 1
    out["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    return out


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    refusal = comparable_process(argv)
    if refusal:
        print(refusal, file=sys.stderr)
        return 2
    wl, own_setup = set_up(args.workload, args.seed, args.tiny)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    setups = [own_setup] + fresh_setups(args, SETUP_SAMPLES - 1)

    import tracing

    tally = Tally()
    plain, traced, layer_runs, scales = measure(
        wl, args.seconds, tracing.Tracer() if args.trace else None, tally)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = sorted(per_op_medians(plain))
    above_p99 = len(lat) - math.ceil(0.99 * len(lat))

    print(f"# workload={wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# python={platform.python_version()} nproc={os.cpu_count()} "
          f"loadavg={' '.join(f'{x:.2f}' for x in os.getloadavg())} "
          f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED')} gc={'on' if gc.isenabled() else 'off'}")
    print(f"# batches plain={len(plain)} traced={len(traced)}; {len(lat)} operations per batch, "
          f"each timed as the median of its {len(plain)} plain repeats; "
          f"{above_p99} operations above p99")
    print(f"# speed scale (reference s per measured s) over {len(scales)} probes: "
          f"median={statistics.median(scales):.4f} min={min(scales):.4f} max={max(scales):.4f}")
    print(f"# set-ups (s): {' '.join(f'{s:.4f}' for s in setups)}")
    print(f"# fail_ratio={tally.failed}/{tally.attempted}="
          f"{tally.failed / tally.attempted:.6g}")
    for key, value in wl.notes.items():
        print(f"# recorded {key} = {value}")
    if args.trace:
        metrics = layer_metrics(layer_runs, plain, traced)
    else:
        metrics = {
            "wall_s": {"value": sum(lat), "unit": "s"},
            "op_p50_ms": {"value": 1000 * percentile(lat, 50), "unit": "ms"},
            "op_p99_ms": {"value": 1000 * percentile(lat, 99), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    for key, m in metrics.items():
        print(f"# {key} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
