"""The package names the benchmark's tracer wraps still exist in the form it
wraps them, so a refactor that drops one fails here and not only in a traced
benchmark run. The tracer module is read, never installed."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer_contract", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, *_ in tracer.FUNCTIONS],
                         ids=[f"{m}.{a}" for m, a, *_ in tracer.FUNCTIONS])
def test_every_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"cloudforecast.{module}"), attr))


@pytest.mark.parametrize("module, cls, attr", [(m, c, a) for m, c, a, *_ in tracer.METHODS],
                         ids=[f"{m}.{c}.{a}" for m, c, a, *_ in tracer.METHODS])
def test_every_traced_method_is_defined_on_its_class(module, cls, attr):
    # the tracer replaces the entry in the class's own namespace
    owner = getattr(importlib.import_module(f"cloudforecast.{module}"), cls)
    assert attr in vars(owner) and callable(getattr(owner, attr))


def test_the_store_load_is_still_a_classmethod():
    from cloudforecast.measurement import MeasurementStore

    assert isinstance(vars(MeasurementStore)["load"], classmethod)
