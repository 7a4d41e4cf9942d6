import math
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudforecast import workflow
from cloudforecast.cli import main
from cloudforecast.errors import CycleError, NodeUnreachableError, SpecValidationError
from cloudforecast.executor import (
    Vantage,
    live_execute,
    run_experiment,
    simulate_execution,
    speedup_percent,
)
from cloudforecast.geo import Coordinate, Region, RegionCatalog
from cloudforecast.measurement import ProbeConfig, SyntheticNetworkModel, location_index
from cloudforecast.scoring import ScoringConfig
from cloudforecast.services import StubNodeHandler, make_node_server, start_in_thread
from cloudforecast.workflow import (
    WorkflowEdge,
    WorkflowNode,
    WorkflowSpec,
    parse_workflow,
    render_workflow,
    topological_order,
)
from helpers import EDGE_COORDS, longest_path_ms, per_edge_finish_ms

ZERO_MODEL = SyntheticNetworkModel(base_latency_ms=0.0, ms_per_100km=0.0, http_overhead_ms=0.0)
ORIGIN = Vantage("local", Coordinate(0, 0))


def _path_spec(service_times, name="path"):
    ids = [chr(ord("A") + i) for i in range(len(service_times))]
    nodes = tuple(
        WorkflowNode(
            id=i,
            endpoint=f"{i.lower()}.example.org",
            role="source" if k == 0 else "service",
            location=Coordinate(0, 0),
            service_time_ms=t,
        )
        for k, (i, t) in enumerate(zip(ids, service_times))
    )
    edges = tuple(WorkflowEdge(a, b) for a, b in zip(ids, ids[1:]))
    return WorkflowSpec(name=name, nodes=nodes, edges=edges)


def test_zero_latency_path_is_service_sum():
    spec = _path_spec([1, 2, 3])
    result = simulate_execution(spec, ORIGIN, ZERO_MODEL, location_index(spec))
    assert result.makespan_ms == 6.0


def test_single_node_makespan_is_its_service_time():
    spec = _path_spec([7])
    result = simulate_execution(spec, ORIGIN, ZERO_MODEL, location_index(spec))
    assert result.makespan_ms == 7.0


def test_colocated_vantage_adds_two_base_latencies_per_edge():
    # 3-node path, everything co-located, base 5 ms: 2 edges x (5+5) + services
    spec = _path_spec([10, 20, 30])
    model = SyntheticNetworkModel(base_latency_ms=5.0, ms_per_100km=1.0)
    result = simulate_execution(spec, ORIGIN, model, location_index(spec))
    assert result.makespan_ms == pytest.approx(10 + 20 + 30 + 2 * (5 + 5))


def test_finish_times_respect_topology():
    spec = _path_spec([5, 5, 5])
    result = simulate_execution(spec, ORIGIN, ZERO_MODEL, location_index(spec))
    assert result.finish_ms["A"] <= result.finish_ms["B"] <= result.finish_ms["C"]


def _random_dag(rng, max_nodes=8):
    n = rng.randint(1, max_nodes)
    ids = [f"n{i}" for i in range(n)]
    nodes = tuple(
        WorkflowNode(
            id=nid,
            endpoint=f"{nid}.example.org",
            location=Coordinate(0, 0),
            service_time_ms=float(rng.randint(1, 50)),
        )
        for nid in ids
    )
    edges = []
    for j in range(1, n):
        # every node gets at least one parent so the graph stays connected
        parents = rng.sample(range(j), k=min(j, rng.randint(1, 2)))
        edges.extend(WorkflowEdge(f"n{p}", f"n{j}") for p in parents)
    return WorkflowSpec(name="rand", nodes=nodes, edges=tuple(edges))


def test_simulation_matches_longest_path_oracle_on_random_dags():
    rng = random.Random(4242)
    for _ in range(50):
        spec = _random_dag(rng)
        result = simulate_execution(spec, ORIGIN, ZERO_MODEL, location_index(spec))
        assert result.makespan_ms == longest_path_ms(spec)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_simulation_matches_the_per_edge_latency_oracle_to_the_bit(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    nodes = tuple(
        WorkflowNode(id=f"n{i}", endpoint=f"n{i}.example.org", location=data.draw(EDGE_COORDS),
                     service_time_ms=data.draw(st.floats(min_value=0.0, max_value=500.0)))
        for i in range(n)
    )
    links = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=16))
    edges = tuple(WorkflowEdge(f"n{min(u, v)}", f"n{max(u, v)}") for u, v in links if u != v)
    spec = WorkflowSpec(name="edges", nodes=nodes, edges=edges)
    vantage = data.draw(EDGE_COORDS)
    model = SyntheticNetworkModel(*data.draw(st.tuples(*[st.floats(0.0, 100.0)] * 3)))
    result = simulate_execution(spec, Vantage("v", vantage), model, location_index(spec))
    expected = per_edge_finish_ms(spec, vantage, model)
    assert {k: v.hex() for k, v in result.finish_ms.items()} == {
        k: v.hex() for k, v in expected.items()
    }


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_finish_times_match_the_oracle_to_the_bit_in_topological_order(data):
    # ids in drawn order, so the lexicographic order ("n10" < "n2") is not the DAG's;
    # the first two never receive an edge, so there are at least two sources
    n = data.draw(st.integers(min_value=3, max_value=12))
    ids = data.draw(st.permutations([f"n{i}" for i in range(n)]))
    nodes = tuple(
        WorkflowNode(id=nid, endpoint=f"{nid}.example.org", location=data.draw(EDGE_COORDS),
                     service_time_ms=data.draw(st.floats(min_value=0.0, max_value=500.0)))
        for nid in data.draw(st.permutations(ids))
    )
    links = data.draw(st.lists(st.integers(2, n - 1).flatmap(
        lambda v: st.tuples(st.integers(0, v - 1), st.just(v))), max_size=20))
    if links:
        links += data.draw(st.lists(st.sampled_from(links), min_size=1, max_size=8))
    edges = tuple(WorkflowEdge(ids[u], ids[v]) for u, v in data.draw(st.permutations(links)))
    spec = WorkflowSpec(name="duplicated", nodes=nodes, edges=edges)
    vantage = data.draw(EDGE_COORDS)
    model = SyntheticNetworkModel(*data.draw(st.tuples(*[st.floats(0.0, 100.0)] * 3)))
    result = simulate_execution(spec, Vantage("v", vantage), model, location_index(spec))
    expected = per_edge_finish_ms(spec, vantage, model)
    assert {k: v.hex() for k, v in result.finish_ms.items()} == {
        k: v.hex() for k, v in expected.items()
    }
    assert list(result.finish_ms) == topological_order(spec)


def test_simulating_a_cycle_names_its_nodes_in_sorted_order():
    spec = _path_spec([1, 2, 3, 4])._replace(edges=(
        WorkflowEdge("A", "B"), WorkflowEdge("D", "C"), WorkflowEdge("C", "B"),
        WorkflowEdge("B", "D")))
    with pytest.raises(CycleError) as info:
        simulate_execution(spec, ORIGIN, ZERO_MODEL, location_index(spec))
    assert str(info.value) == "cycle involving nodes {B, C, D}"


def test_simulating_a_dangling_edge_words_it_as_topological_order_does():
    spec = _path_spec([1, 2])._replace(edges=(WorkflowEdge("A", "B"), WorkflowEdge("B", "Z")))
    with pytest.raises(SpecValidationError) as info:
        simulate_execution(spec, ORIGIN, ZERO_MODEL, location_index(spec))
    assert str(info.value) == "dangling edge B->Z: unknown node id"
    with pytest.raises(SpecValidationError) as by_order:
        topological_order(spec)
    assert str(by_order.value) == str(info.value)


# -- the spec's plan: one peel per spec -------------------------------------------

@pytest.fixture
def peels(monkeypatch):
    """The number of `workflow._peel` calls so far."""
    calls = []
    real = workflow._peel

    def counted(node_ids, edges):
        calls.append(None)
        return real(node_ids, edges)

    monkeypatch.setattr(workflow, "_peel", counted)
    return lambda: len(calls)


def test_a_parsed_spec_is_peeled_once_by_validation_for_every_later_reader(fig1_doc, peels):
    spec = parse_workflow(fig1_doc)
    assert peels() == 1
    locations = location_index(spec)
    first = simulate_execution(spec, ORIGIN, SyntheticNetworkModel(), locations)
    second = simulate_execution(spec, Vantage("v", Coordinate(40, -74)), SyntheticNetworkModel(),
                                locations)
    assert topological_order(spec) == list(first.finish_ms) == list(second.finish_ms)
    assert peels() == 1
    with pytest.raises(AttributeError):
        spec.plan = ((), ())


def test_a_spec_built_directly_is_peeled_on_its_first_simulation_only(peels):
    spec = _path_spec([1, 2, 3])
    assert peels() == 0
    for _ in range(2):
        assert simulate_execution(spec, ORIGIN, ZERO_MODEL, location_index(spec)).makespan_ms == 6
        assert peels() == 1


def test_a_replaced_spec_is_peeled_on_its_own(peels):
    spec = _path_spec([1, 2, 3])
    simulate_execution(spec, ORIGIN, ZERO_MODEL, location_index(spec))
    shorter = spec._replace(edges=spec.edges[:1])
    result = simulate_execution(shorter, ORIGIN, ZERO_MODEL, location_index(shorter))
    assert peels() == 2
    assert result.finish_ms == {"A": 1, "C": 3, "B": 3}
    assert simulate_execution(spec, ORIGIN, ZERO_MODEL, location_index(spec)).makespan_ms == 6
    assert peels() == 2


@pytest.mark.parametrize("edges, error, message", [
    ((("A", "B"), ("B", "C"), ("C", "A")), CycleError, "cycle involving nodes {A, B, C}"),
    ((("A", "B"), ("B", "Z")), SpecValidationError, "dangling edge B->Z: unknown node id"),
], ids=["cycle", "dangling-edge"])
def test_an_invalid_spec_raises_on_every_simulation(peels, edges, error, message):
    spec = _path_spec([1, 2, 3])._replace(edges=tuple(WorkflowEdge(a, b) for a, b in edges))
    for attempt in (1, 2):
        with pytest.raises(error) as info:
            simulate_execution(spec, ORIGIN, ZERO_MODEL, location_index(spec))
        assert str(info.value) == message
        assert peels() == attempt


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_parsed_spec_and_an_equal_spec_built_directly_finish_alike_to_the_bit(data):
    # ids in drawn order; every node after the first has an earlier parent
    n = data.draw(st.integers(min_value=1, max_value=10))
    ids = data.draw(st.permutations([f"n{i}" for i in range(n)]))
    links = [(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    if n > 1:  # more edges, repeated ones too
        links += data.draw(st.lists(st.integers(1, n - 1).flatmap(
            lambda v: st.tuples(st.integers(0, v - 1), st.just(v))), max_size=8))
    edges = tuple(WorkflowEdge(ids[u], ids[v]) for u, v in data.draw(st.permutations(links)))
    fed = {edge.dst for edge in edges}
    nodes = tuple(
        WorkflowNode(id=nid, endpoint=f"{nid}.example.org", location=data.draw(EDGE_COORDS),
                     role="service" if nid in fed else "source",
                     service_time_ms=data.draw(st.floats(min_value=0.0, max_value=500.0)))
        for nid in ids
    )
    direct = WorkflowSpec(name="alike", nodes=nodes, edges=edges)
    parsed = parse_workflow(render_workflow(direct))
    assert parsed == direct
    model = SyntheticNetworkModel(*data.draw(st.tuples(*[st.floats(0.0, 100.0)] * 3)))
    locations = location_index(direct)
    for at in data.draw(st.lists(EDGE_COORDS, min_size=2, max_size=4)):
        results = [simulate_execution(spec, Vantage("v", at), model, locations)
                   for spec in (parsed, direct)]
        hexed = [[(k, v.hex()) for k, v in r.finish_ms.items()] for r in results]
        assert hexed[0] == hexed[1]
        assert results[0].makespan_ms.hex() == results[1].makespan_ms.hex()


def test_a_repeated_node_id_simulates_as_its_last_node():
    # the last node with an id gives it its service time and location, and
    # the id finishes once, in the order of the spec without the earlier nodes
    a1 = WorkflowNode("A", "a1.example.org", location=Coordinate(0, 0), service_time_ms=1.0)
    a2 = WorkflowNode("A", "a2.example.org", location=Coordinate(20, 20), service_time_ms=5.0)
    b = WorkflowNode("B", "b.example.org", location=Coordinate(10, 10), service_time_ms=2.0)
    c = WorkflowNode("C", "c.example.org", location=Coordinate(-10, 40), service_time_ms=3.0)
    edges = (WorkflowEdge("A", "C"), WorkflowEdge("B", "C"))
    repeated = WorkflowSpec("repeated", (c, a1, b, a2), edges)
    once = WorkflowSpec("repeated", (c, b, a2), edges)
    locations = location_index(repeated)
    model = SyntheticNetworkModel()
    for at in (Coordinate(0, 0), Coordinate(40, -74), Coordinate(-33, 151)):
        got = simulate_execution(repeated, Vantage("v", at), model, locations)
        want = simulate_execution(once, Vantage("v", at), model, locations)
        assert [(k, v.hex()) for k, v in got.finish_ms.items()] == [
            (k, v.hex()) for k, v in want.finish_ms.items()]
        assert list(got.finish_ms) == ["A", "B", "C"] == topological_order(repeated)
        assert got.finish_ms["A"] == 5.0


def test_makespan_monotone_in_latency():
    rng = random.Random(77)
    for _ in range(20):
        spec = _random_dag(rng)
        locations = location_index(spec)
        slow = SyntheticNetworkModel(base_latency_ms=10.0, ms_per_100km=2.0)
        fast = SyntheticNetworkModel(base_latency_ms=1.0, ms_per_100km=0.5)
        m_slow = simulate_execution(spec, ORIGIN, slow, locations).makespan_ms
        m_fast = simulate_execution(spec, ORIGIN, fast, locations).makespan_ms
        assert m_slow >= m_fast


def _spread_spec():
    nodes = (
        WorkflowNode(id="A", endpoint="a.example.org", role="source",
                     location=Coordinate(10, 10), service_time_ms=5),
        WorkflowNode(id="B", endpoint="b.example.org",
                     location=Coordinate(20, 40), service_time_ms=5),
        WorkflowNode(id="C", endpoint="c.example.org",
                     location=Coordinate(-10, 60), service_time_ms=5),
    )
    return WorkflowSpec(
        name="spread", nodes=nodes, edges=(WorkflowEdge("A", "B"), WorkflowEdge("B", "C"))
    )


@given(scale=st.floats(min_value=0.1, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_best_region_invariant_to_latency_slope_scaling(scale):
    spec = _spread_spec()
    vantages = [
        Vantage("v1", Coordinate(15, 25)),
        Vantage("v2", Coordinate(-40, -120)),
        Vantage("v3", Coordinate(60, 170)),
    ]
    locations = location_index(spec)

    def argmin(model):
        spans = {
            v.id: simulate_execution(spec, v, model, locations).makespan_ms for v in vantages
        }
        return min(sorted(spans), key=spans.get)

    base = SyntheticNetworkModel(base_latency_ms=0.0, ms_per_100km=1.0)
    scaled = SyntheticNetworkModel(base_latency_ms=0.0, ms_per_100km=scale)
    assert argmin(base) == argmin(scaled)


def test_vantage_requires_id():
    with pytest.raises(ValueError):
        Vantage("", Coordinate(0, 0))


def test_speedup_values():
    assert speedup_percent(100, 100) == 0.0
    assert speedup_percent(288, 100) == pytest.approx(188.0)
    assert speedup_percent(150, 100) == pytest.approx(50.0)


def test_speedup_strictly_decreasing_in_candidate():
    assert speedup_percent(100, 50) > speedup_percent(100, 60) > speedup_percent(100, 100)


def test_speedup_rejects_non_positive():
    with pytest.raises(ValueError):
        speedup_percent(0, 10)
    with pytest.raises(ValueError):
        speedup_percent(10, 0)
    for baseline, candidate in ((math.inf, 10), (10, math.inf), (math.inf, math.inf)):
        with pytest.raises(ValueError, match="makespans must be finite"):
            speedup_percent(baseline, candidate)


def _experiment_catalog():
    return RegionCatalog(
        (
            Region("near", "near.example.org", Coordinate(10, 30)),
            Region("far-1", "far-1.example.org", Coordinate(-60, -150)),
            Region("far-2", "far-2.example.org", Coordinate(70, 120)),
        )
    )


def test_experiment_prefers_colocated_region():
    spec = _spread_spec()
    report = run_experiment(
        [spec],
        _experiment_catalog(),
        SyntheticNetworkModel(),
        Vantage("local", Coordinate(-55, -170)),  # deliberately distant
        ScoringConfig(),
    )
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.best_region == "near"
    assert row.speedup_pct > 0


def test_experiment_local_at_best_region_gives_zero_speedup():
    spec = _spread_spec()
    catalog = _experiment_catalog()
    best = catalog.by_id("near")
    report = run_experiment(
        [spec], catalog, SyntheticNetworkModel(), Vantage("local", best.location), ScoringConfig()
    )
    assert report.rows[0].speedup_pct == pytest.approx(0.0, abs=1e-9)


def test_experiment_mean_is_arithmetic_mean():
    specs = [_spread_spec(), _path_spec([10, 20, 30], name="p3"), _path_spec([5, 5], name="p2")]
    report = run_experiment(
        specs,
        _experiment_catalog(),
        SyntheticNetworkModel(),
        Vantage("local", Coordinate(-55, -170)),
        ScoringConfig(),
    )
    speedups = [row.speedup_pct for row in report.rows]
    assert report.mean_speedup_pct == pytest.approx(sum(speedups) / len(speedups))


def test_experiment_rejects_empty_workflow_set():
    with pytest.raises(ValueError):
        run_experiment([], _experiment_catalog(), SyntheticNetworkModel(), ORIGIN, ScoringConfig())


@pytest.fixture
def stub_nodes():
    servers = [make_node_server("127.0.0.1", 0) for _ in range(2)]
    for server in servers:
        start_in_thread(server)
    yield [f"http://127.0.0.1:{s.server_address[1]}" for s in servers]
    for server in servers:
        server.shutdown()
        server.server_close()


def test_live_execute_two_node_workflow(stub_nodes):
    spec = _path_spec([20, 30], name="live2")
    urls = {"A": stub_nodes[0], "B": stub_nodes[1]}
    result = live_execute(spec, urls, ProbeConfig(timeout_ms=2000))
    assert result.transport.value == "live"
    assert result.makespan_ms > 0
    assert result.finish_ms["A"] <= result.finish_ms["B"]
    assert result.makespan_ms >= 50.0  # at least the stub service delays


def test_simulate_live_with_repeat_lists_the_runs_that_average_to_its_makespan(
        stub_nodes, tmp_path, capsys):
    workflow = tmp_path / "live2.workflow"
    workflow.write_text(render_workflow(_path_spec([10, 10], name="live2")))
    code = main(["simulate", "-w", str(workflow), "--transport", "live",
                 "--node-url", f"A={stub_nodes[0]}", "--node-url", f"B={stub_nodes[1]}",
                 "--repeat", "2"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[:2] == ["workflow: live2", "vantage: live (live)"]
    makespan = float(lines[2].removeprefix("makespan_ms: "))
    assert lines[3].startswith("runs_ms: ")
    runs = [float(ms) for ms in lines[3].removeprefix("runs_ms: ").split(", ")]
    assert len(runs) == 2 and min(runs) >= 20.0
    assert makespan == pytest.approx(sum(runs) / 2, abs=1e-3)  # each printed to 3 places


def test_live_execute_single_source_only(stub_nodes):
    spec = WorkflowSpec(
        name="solo",
        nodes=(WorkflowNode(id="A", endpoint="a.example.org", role="source"),),
    )
    result = live_execute(spec, {"A": stub_nodes[0]}, ProbeConfig(timeout_ms=2000))
    assert result.makespan_ms > 0
    assert set(result.finish_ms) == {"A"}


def test_live_execute_fetches_each_node_once_over_a_duplicated_edge():
    gets = Counter()

    class CountingNode(StubNodeHandler):
        def _work(self):
            gets[self.server.server_address[1], self.query()["bytes"]] += 1
            super()._work()

        routes = {"/work": _work}

    servers = [make_node_server("127.0.0.1", 0) for _ in range(3)]
    for server in servers:
        server.RequestHandlerClass = CountingNode
        start_in_thread(server)
    try:
        a_to_b = WorkflowEdge("A", "B", payload_kb=1.0)
        edges = (a_to_b, a_to_b, WorkflowEdge("B", "C", payload_kb=1.0))
        spec = _path_spec([1, 1, 1], name="dup")._replace(edges=edges)
        ports = {nid: s.server_address[1] for nid, s in zip("ABC", servers)}
        live_execute(spec, {nid: f"http://127.0.0.1:{p}" for nid, p in ports.items()},
                     ProbeConfig(timeout_ms=2000))
    finally:
        for server in servers:
            server.shutdown()
            server.server_close()
    # one GET per node; both A -> B edges' payloads count toward A's output
    assert gets == {(ports["A"], "2048"): 1, (ports["B"], "1024"): 1, (ports["C"], "0"): 1}


def test_live_execute_unreachable_node_names_it():
    spec = _path_spec([1, 1], name="dead")
    urls = {"A": "http://127.0.0.1:1", "B": "http://127.0.0.1:1"}
    with pytest.raises(NodeUnreachableError, match="'A'"):
        live_execute(spec, urls, ProbeConfig(samples_per_pair=1, timeout_ms=200))


def test_live_execute_missing_url_rejected():
    spec = _path_spec([1, 1], name="nourl")
    with pytest.raises(NodeUnreachableError, match="'B'"):
        live_execute(spec, {"A": "http://127.0.0.1:1"}, ProbeConfig(timeout_ms=100))


def test_live_execute_asks_each_node_for_its_service_time_and_out_bytes(monkeypatch):
    spec = WorkflowSpec(
        name="fan",
        nodes=(
            WorkflowNode(id="A", endpoint="a.example.org", role="source", service_time_ms=5),
            WorkflowNode(id="B", endpoint="b.example.org", service_time_ms=7),
            WorkflowNode(id="C", endpoint="c.example.org", service_time_ms=11),
        ),
        edges=(
            WorkflowEdge("A", "B", payload_kb=1.5), WorkflowEdge("A", "C", payload_kb=0.25),
            WorkflowEdge("B", "C", payload_kb=2.0),
        ),
    )
    asked = {}

    def fetch(node_id, base_url, delay_ms, out_bytes, config):
        asked[node_id] = (delay_ms, out_bytes)
        return b""

    monkeypatch.setattr("cloudforecast.executor._fetch_node_output", fetch)
    live_execute(spec, {nid: "http://unused" for nid in "ABC"}, ProbeConfig())
    assert asked == {
        n.id: (n.service_time_ms,
               int(sum(e.payload_kb for e in spec.edges if e.src == n.id) * 1024))
        for n in spec.nodes
    }
    assert asked["A"] == (5, 1792) and asked["C"] == (11, 0)


def test_live_execute_pulls_a_fan_in_node_once_after_both_parents_over_a_repeated_edge(
        monkeypatch):
    spec = WorkflowSpec(
        name="fan-in",
        nodes=tuple(WorkflowNode(id=nid, endpoint=f"{nid.lower()}.example.org",
                                 role="service" if nid == "C" else "source") for nid in "ABC"),
        edges=(WorkflowEdge("A", "C"), WorkflowEdge("A", "C"), WorkflowEdge("B", "C")),
    )
    events = []

    def fetch(node_id, base_url, delay_ms, out_bytes, config):
        events.append(("start", node_id))
        if node_id == "B":  # A finishes first, and C must still wait for B
            time.sleep(0.2)
        events.append(("end", node_id))
        return b""

    monkeypatch.setattr("cloudforecast.executor._fetch_node_output", fetch)
    result = live_execute(spec, {nid: "http://unused" for nid in "ABC"}, ProbeConfig())
    assert [event for event in events if event[1] == "C"] == [("start", "C"), ("end", "C")]
    assert events.index(("start", "C")) > max(events.index(("end", "A")),
                                              events.index(("end", "B")))
    assert list(result.finish_ms) == ["A", "B", "C"]
