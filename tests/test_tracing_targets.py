"""The benchmark tracer's targets resolve against the library.

`benchmarks/tracing.py` names every traced function by module and
attribute and raises when one is gone; checking the names here makes a
deleted or renamed traced function fail the test suite, not only a
traced benchmark run.  The file is imported as it stands.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("qglab_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, a, _ in tracing.SPANS + tracing.COUNTERS], ids=lambda x: x
)
def test_traced_name_resolves(module, attr):
    owner, func = tracing._lookup(module, attr)
    assert callable(func) and getattr(owner, attr.rsplit(".", 1)[-1]) is func
