"""The names the benchmark's tracer wraps must exist in the package.

``perfbench/tracer.py`` times the layers by replacing module attributes from
outside, so a cleanup that deletes or renames one of those names in ``src``
breaks every traced benchmark run.  This loads the tracer as it is and
checks each name it wraps, then installs and removes it once.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _modules(tracer):
    return {layer: importlib.import_module(f"domkit.{layer}") for layer in tracer.LAYERS}


def test_every_wrapped_name_exists(tracer):
    modules = _modules(tracer)
    wrapped = [(ns, attr) for ns, attr, *_ in tracer._SPANS + tracer._COUNTERS]
    assert wrapped
    missing = [f"domkit.{ns}.{attr}" for ns, attr in wrapped if not hasattr(modules[ns], attr)]
    assert missing == []
    assert callable(modules["lexicographic"].ProductSet.flatten)


def test_tracer_installs_and_restores(tracer):
    modules = _modules(tracer)
    before = {(ns, attr): getattr(modules[ns], attr) for ns, attr, *_ in tracer._SPANS}
    flatten = modules["lexicographic"].ProductSet.flatten
    t = tracer.Tracer(modules)
    t.install()
    try:
        assert modules["cli"].main is not before[("cli", "main")]
    finally:
        t.remove()
    assert {key: getattr(modules[key[0]], key[1]) for key in before} == before
    assert modules["lexicographic"].ProductSet.flatten is flatten
