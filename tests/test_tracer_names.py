"""The benchmark tracer wraps package members by name; every name must resolve.

``bench/tracer.py`` is loaded by path and only its tables are read: nothing
is installed. A rename in ``primesrl`` that would leave a traced benchmark run
without its spans or counters fails here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("owner, attr", sorted({*tracer.SPANS, *tracer.COUNTED}))
def test_wrapped_function_resolves(owner, attr):
    function = getattr(importlib.import_module("primesrl." + owner), attr)
    assert inspect.isfunction(function)
    # a span around a generator function times only the generator's creation
    assert (owner, attr) not in tracer.SPANS or not inspect.isgeneratorfunction(function)


@pytest.mark.parametrize("cls_name", sorted(tracer.LABEL_PARSERS))
def test_wrapped_label_parser_is_a_classmethod(cls_name):
    cls = getattr(importlib.import_module("primesrl.model"), cls_name)
    assert isinstance(inspect.getattr_static(cls, "parse"), classmethod)
