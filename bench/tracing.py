"""Per-layer tracing from outside the library.

``Tracer.install`` wraps the functions listed in ``LAYERS`` in every
``negbeta`` module that binds them (methods on their class), and
``uninstall`` puts the originals back, so an untraced batch runs the plain
library.  A wrapper opens a span: it counts the call and adds the span's
duration minus its child spans to the layer's self time.  A call into the
same layer from inside its own span (a public ``step`` reaching the arithmetic
``step``, a membership test reaching ``shift_membership``) stays one span.
Spans are aggregated per layer as they close rather than stored one by one:
the hot layers see millions of calls per batch.  Tracing pauses while the
benchmark checks an answer.  layer_targets.json names, for every per-layer
metric, the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import math
import sys
import time
from fractions import Fraction

# (layer, module, attribute) -- "Class.method" patches the class.
LAYERS = (
    ("words.canonicalize", "words", "canonicalize"),
    ("words.alt_lex_compare", "words", "alt_lex_compare"),
    ("words.sup_of_shifts", "words", "sup_of_shifts"),
    ("words.compare_with_u", "words", "compare_with_u"),
    ("permutations.a_sequence", "permutations", "a_sequence"),
    ("permutations.z_digits", "permutations", "z_digits"),
    ("algebraic.isolate_real_roots", "algebraic", "isolate_real_roots"),
    ("algebraic.refine", "algebraic", "AlgebraicNumber.refine"),
    ("algebraic.equals", "algebraic", "AlgebraicNumber.equals"),
    ("algebraic.compare", "algebraic", "AlgebraicNumber.compare"),
    ("algebraic.poly_gcd", "algebraic", "_poly_gcd"),
    ("dynamics.step", "dynamics", "_AlgebraicArith.step"),
    ("dynamics.step", "dynamics", "_RationalArith.step"),
    ("dynamics.is_zero", "dynamics", "_AlgebraicArith.is_zero"),
    ("dynamics.enclosure", "dynamics", "_AlgebraicArith.enclosure"),
    ("dynamics.membership", "dynamics", "MembershipOracle.contains"),
    ("dynamics.membership", "dynamics", "shift_membership"),
    ("dynamics.validate_expansion", "dynamics", "validate_expansion"),
    ("analysis.search", "analysis", "_search_realizing"),
    ("analysis.spectrum", "analysis", "spectrum"),
    ("analysis.count_b1", "analysis", "count_b1"),
    ("analysis.analyze", "analysis", "analyze"),
    ("inverse.construct_state", "inverse", "construct_state"),
    ("inverse.rho_of", "inverse", "rho_of"),
)

# Counted but not given a span of their own.
COUNTERS = (
    ("inverse.assemble", "inverse", "_assemble"),
)


class Layer:
    __slots__ = ("calls", "self_s", "hits", "max_bits")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.hits = 0        # true results, for equals and is_zero
        self.max_bits = 0    # largest -log2 width returned, for refine


def _width_bits(interval) -> int:
    lo, hi = interval
    width = Fraction(hi) - Fraction(lo)
    if width <= 0:
        return 0
    return math.floor(-math.log2(width.numerator) + math.log2(width.denominator))


def _observe_hits(layer: Layer, result):
    if result is True:
        layer.hits += 1


def _observe_bits(layer: Layer, result):
    bits = _width_bits(result)
    if bits > layer.max_bits:
        layer.max_bits = bits


OBSERVERS = {
    "algebraic.equals": _observe_hits,
    "dynamics.is_zero": _observe_hits,
    "algebraic.refine": _observe_bits,
}


class Tracer:
    def __init__(self):
        self.layers: dict[str, Layer] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [layer, time covered by child spans]
        self.paused = False  # set while the benchmark checks an answer

    def install(self):
        self.layers = {name: Layer() for name, _, _ in LAYERS + COUNTERS}
        for name, module, attr in LAYERS:
            self._patch(module, attr, self._span_wrapper(name))
        for name, module, attr in COUNTERS:
            self._patch(module, attr, self._count_wrapper(name))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def exclude(self, seconds: float):
        """Take time spent outside the library (a speed probe) out of the
        span it interrupted."""
        if self._stack:
            self._stack[-1][1] += seconds

    def _patch(self, module: str, attr: str, make):
        mod = sys.modules["negbeta." + module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name)
            original = owner.__dict__[meth]
            self._patches.append((owner, meth, original))
            setattr(owner, meth, make(original))
            return
        original = getattr(mod, attr)
        wrapped = make(original)
        for name, other in list(sys.modules.items()):
            if (name == "negbeta" or name.startswith("negbeta.")) \
                    and getattr(other, attr, None) is original:
                self._patches.append((other, attr, original))
                setattr(other, attr, wrapped)

    def _span_wrapper(self, name: str):
        stack = self._stack
        observe = OBSERVERS.get(name)
        perf = time.perf_counter
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                layer = tracer.layers[name]
                if tracer.paused or (stack and stack[-1][0] is layer):
                    return fn(*args, **kwargs)
                frame = [layer, 0.0]
                stack.append(frame)
                start = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = perf() - start
                    stack.pop()
                    layer.calls += 1
                    layer.self_s += duration - frame[1]
                    if stack:
                        stack[-1][1] += duration
                if observe is not None:
                    observe(layer, result)
                return result

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def _count_wrapper(self, name: str):
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                if not tracer.paused:
                    tracer.layers[name].calls += 1
                return fn(*args, **kwargs)

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def metrics(self, scale: float = 1.0) -> dict[str, tuple[float, str]]:
        """Per-layer values of the batch traced since the last install, self
        times multiplied by the batch's speed scale factor."""
        out: dict[str, tuple[float, str]] = {}
        for name, _, _ in LAYERS:
            layer = self.layers[name]
            out[name + ".calls"] = (layer.calls, "count")
            out[name + ".self_s"] = (layer.self_s * scale, "s")
        equals, is_zero = self.layers["algebraic.equals"], self.layers["dynamics.is_zero"]
        construct = self.layers["inverse.construct_state"]
        out["algebraic.refine.max_bits"] = (self.layers["algebraic.refine"].max_bits, "bits")
        out["algebraic.equals.hit_ratio"] = (_ratio(equals.hits, equals.calls), "ratio")
        out["dynamics.is_zero.zero_ratio"] = (_ratio(is_zero.hits, is_zero.calls), "ratio")
        out["inverse.candidates_per_word"] = (
            _ratio(self.layers["inverse.assemble"].calls, construct.calls), "ratio")
        return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
