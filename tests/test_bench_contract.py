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


def _bench_names(filename):
    """The package names a benchmark module calls: each attribute chain on a
    module alias (`M.MeasurementStore.load`, alias `self.M` or `M`), as
    (module, attribute path), and each name imported `from cloudforecast…`."""
    import ast

    tree = ast.parse((TRACER.parent / filename).read_text())
    imported, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cloudforecast"):
            imported += [(node.module, (alias.name,)) for alias in node.names]
        # self.G, self.M, ... = geo, measurement, ...
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple):
            for target in node.targets:
                if isinstance(target, ast.Tuple):
                    for t, v in zip(target.elts, node.value.elts):
                        if isinstance(t, ast.Attribute) and isinstance(v, ast.Name):
                            aliases[t.attr] = f"cloudforecast.{v.id}"

    def chain(node):
        if isinstance(node, ast.Name):
            return [node.id] if node.id in aliases else None
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return [node.attr] if node.attr in aliases else None
            head = chain(node.value)
            return None if head is None else head + [node.attr]
        return None

    called = set()
    for node in ast.walk(tree):
        names = chain(node)
        if names and len(names) > 1:
            called.add((aliases[names[0]], tuple(names[1:])))
    return imported + sorted(called)


BENCH_NAMES = [(f, m, path) for f in ("workloads.py", "stubs.py") for m, path in _bench_names(f)]


def test_the_benchmark_calls_package_names():
    # the alias scan found the store, so the list below is not empty by accident
    assert ("workloads.py", "cloudforecast.measurement", ("MeasurementStore", "load")) in BENCH_NAMES
    assert ("stubs.py", "cloudforecast.services", ("make_node_server",)) in BENCH_NAMES


@pytest.mark.parametrize("filename, module, path", BENCH_NAMES,
                         ids=[f"{f}:{m}.{'.'.join(p)}" for f, m, p in BENCH_NAMES])
def test_every_name_the_benchmark_calls_exists(filename, module, path):
    owner = importlib.import_module(module)
    for attr in path:
        assert hasattr(owner, attr), f"{filename} uses {module}.{'.'.join(path)}"
        owner = getattr(owner, attr)
