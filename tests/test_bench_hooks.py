"""The library names the benchmark's tracer patches still exist.

``bench/tracing.py`` wraps functions and methods by name; a rename in the
library would break ``bench/run.py --trace 1`` without failing any test under
``tests/``, so every name it lists is resolved here.
"""

import importlib
import importlib.util
import pathlib

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracing", pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("module,attr", [(m, a) for _, m, a in tracing.LAYERS + tracing.COUNTERS])
def test_every_traced_name_resolves(module, attr):
    mod = importlib.import_module("negbeta." + module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer patches the method in the class's own namespace
        assert callable(getattr(mod, cls_name).__dict__[meth])
    else:
        assert callable(getattr(mod, attr))
