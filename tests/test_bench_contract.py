"""The package names the benchmark's tracer wraps still exist in the form it
wraps them, so a refactor that drops one fails here and not only in a traced
benchmark run. The tracer module is read, never installed."""

import ast
import importlib
import importlib.util
import inspect
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


def _scan(filename):
    """A benchmark module's syntax tree, its module aliases (`self.G, self.M,
    ... = geo, measurement, ...`: alias -> package module) and a function
    that gives an expression's attribute chain on an alias (`self.M` or `M`)
    as a list of names, or None."""
    tree = ast.parse((TRACER.parent / filename).read_text())
    aliases = {}
    for node in ast.walk(tree):
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

    return tree, aliases, chain


def _bench_names(filename):
    """The package names a benchmark module calls: each attribute chain on a
    module alias (`M.MeasurementStore.load`, alias `self.M` or `M`), as
    (module, attribute path), and each name imported `from cloudforecast…`."""
    tree, aliases, chain = _scan(filename)
    imported = [(node.module, (alias.name,)) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cloudforecast")
                for alias in node.names]
    called = set()
    for node in ast.walk(tree):
        names = chain(node)
        if names and len(names) > 1:
            called.add((aliases[names[0]], tuple(names[1:])))
    return imported + sorted(called)


def _bench_calls(filename):
    """Each distinct call a benchmark module makes through a module alias,
    as (module, attribute path, positional count, keyword names) -> the
    first line it is on. A call that spreads `*args` or `**kwargs` is left
    out: its arguments are not known before it runs."""
    tree, aliases, chain = _scan(filename)
    calls = {}
    for node in sorted((n for n in ast.walk(tree) if isinstance(n, ast.Call)),
                       key=lambda n: n.lineno):
        names = chain(node.func)
        spread = any(isinstance(arg, ast.Starred) for arg in node.args) or \
            any(keyword.arg is None for keyword in node.keywords)
        if names and len(names) > 1 and not spread:
            key = (aliases[names[0]], tuple(names[1:]), len(node.args),
                   tuple(keyword.arg for keyword in node.keywords))
            calls.setdefault(key, node.lineno)
    return calls


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


BENCH_CALLS = [(f, line, *call) for f in ("workloads.py", "stubs.py")
               for call, line in _bench_calls(f).items()]


def _call_id(path, positional, keywords):
    """`ScoringConfig(0, shortlist_n=)`: the callee, its positional count and keywords."""
    return f"{'.'.join(path)}({', '.join([str(positional)] + [f'{k}=' for k in keywords])})"


def test_the_benchmark_calls_are_found():
    # the scan found the store's load and the scoring config, keywords and all
    found = [call[2:] for call in BENCH_CALLS]
    assert ("cloudforecast.measurement", ("MeasurementStore", "load"), 1, ()) in found
    assert ("cloudforecast.scoring", ("ScoringConfig",), 0, ("shortlist_n",)) in found


@pytest.mark.parametrize("filename, line, module, path, positional, keywords", BENCH_CALLS,
                         ids=[f"{f}:{_call_id(*call)}" for f, _, _, *call in BENCH_CALLS])
def test_every_benchmark_call_fits_its_callee(filename, line, module, path, positional, keywords):
    callee = importlib.import_module(module)
    for attr in path:
        callee = getattr(callee, attr)
    try:
        inspect.signature(callee).bind(*range(positional), **dict.fromkeys(keywords))
    except TypeError as exc:
        pytest.fail(f"{filename}:{line} calls {'.'.join(path)} with {positional} positional "
                    f"argument(s) and keywords {list(keywords)}: {exc}")
