import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudforecast.candidates import (
    Leg,
    Metric,
    build_candidate_graph,
    dump_graph,
    enumerate_candidates,
    measurement_pairs,
)
from cloudforecast.geo import Coordinate, Region, RegionCatalog
from cloudforecast.workflow import WorkflowEdge, WorkflowNode, WorkflowSpec

US_EAST = Region("us-east-1", "ec2.us-east-1.amazonaws.com", Coordinate(38.95, -77.45))


def _fan_out_spec():
    nodes = tuple(
        WorkflowNode(id=i, endpoint=f"{i}.example.org", role=r)
        for i, r in (("A", "source"), ("B", "service"), ("C", "service"))
    )
    return WorkflowSpec(name="fan", nodes=nodes, edges=(WorkflowEdge("A", "B"), WorkflowEdge("A", "C")))


def test_example_workflow_expands_to_four_edges(fig1_spec):
    graph = build_candidate_graph(fig1_spec, US_EAST, Metric.PING)
    hub = US_EAST.probe_host
    assert [(e.src, e.dst) for e in graph.edges] == [
        ("wikimedia.org", hub),
        (hub, "http://princeton.edu/process"),
        ("http://princeton.edu/process", hub),
        (hub, "http://surrey.sfu.ca/process"),
    ]
    assert [e.leg for e in graph.edges] == [
        Leg.TO_ORCHESTRATOR,
        Leg.FROM_ORCHESTRATOR,
        Leg.TO_ORCHESTRATOR,
        Leg.FROM_ORCHESTRATOR,
    ]


def test_single_node_workflow_expands_to_nothing():
    spec = WorkflowSpec(name="solo", nodes=(WorkflowNode(id="A", endpoint="a.example.org"),))
    graph = build_candidate_graph(spec, US_EAST, Metric.DISTANCE)
    assert graph.edges == ()
    assert measurement_pairs(graph) == []


def test_fan_out_expansion_matches_brute_force():
    spec = _fan_out_spec()
    graph = build_candidate_graph(spec, US_EAST, Metric.PING)
    hub = US_EAST.probe_host
    # brute force: each workflow edge (u, v) contributes (u->hub, hub->v)
    expected = []
    for e in spec.edges:
        expected.append((f"{e.src}.example.org", hub))
        expected.append((hub, f"{e.dst}.example.org"))
    assert [(c.src, c.dst) for c in graph.edges] == expected
    assert all(hub in (c.src, c.dst) for c in graph.edges)


def test_candidate_edge_count_law(fig1_spec):
    for metric in Metric:
        graph = build_candidate_graph(fig1_spec, US_EAST, metric)
        assert len(graph.edges) == 2 * len(fig1_spec.edges)


def test_expansion_independent_of_metric(fig1_spec):
    ping = build_candidate_graph(fig1_spec, US_EAST, Metric.PING)
    http = build_candidate_graph(fig1_spec, US_EAST, Metric.HTTP_RTT)
    assert ping.edges == http.edges
    assert ping.metric != http.metric


def test_default_catalog_yields_24_graphs(fig1_spec, catalog):
    graphs = enumerate_candidates(fig1_spec, catalog, list(Metric))
    assert len(graphs) == 24


def test_single_region_single_metric(fig1_spec):
    catalog = RegionCatalog((US_EAST,))
    graphs = enumerate_candidates(fig1_spec, catalog, [Metric.PING])
    assert len(graphs) == 1


def test_enumeration_order_is_catalog_then_metric(fig1_spec):
    regions = tuple(
        Region(f"r{i}", f"r{i}.example.org", Coordinate(i, i)) for i in range(3)
    )
    graphs = enumerate_candidates(
        fig1_spec, RegionCatalog(regions), [Metric.HTTP_RTT, Metric.PING]
    )
    assert [(g.region.id, g.metric) for g in graphs] == [
        ("r0", Metric.PING),
        ("r0", Metric.HTTP_RTT),
        ("r1", Metric.PING),
        ("r1", Metric.HTTP_RTT),
        ("r2", Metric.PING),
        ("r2", Metric.HTTP_RTT),
    ]


def test_duplicate_metric_rejected(fig1_spec, catalog):
    with pytest.raises(ValueError, match="duplicate metric"):
        enumerate_candidates(fig1_spec, catalog, [Metric.PING, Metric.PING])


def test_empty_metrics_rejected(fig1_spec, catalog):
    with pytest.raises(ValueError, match="non-empty"):
        enumerate_candidates(fig1_spec, catalog, [])


def test_measurement_pairs_cover_and_dedup(fig1_spec):
    graph = build_candidate_graph(fig1_spec, US_EAST, Metric.PING)
    pairs = measurement_pairs(graph)
    assert len(pairs) == 4  # all distinct for a sequential workflow
    assert set(pairs) == {(e.src, e.dst) for e in graph.edges}


def test_measurement_pairs_dedup_shared_source():
    graph = build_candidate_graph(_fan_out_spec(), US_EAST, Metric.PING)
    pairs = measurement_pairs(graph)
    assert len(graph.edges) == 4
    assert len(pairs) == 3  # A->hub appears once
    assert pairs.count(("A.example.org", US_EAST.probe_host)) == 1


@given(
    region_count=st.integers(min_value=1, max_value=10),
    metric_mask=st.sets(st.sampled_from(list(Metric)), min_size=1),
    edge_count=st.integers(min_value=0, max_value=6),
)
@settings(max_examples=120, deadline=None)
def test_enumeration_count_law(region_count, metric_mask, edge_count):
    nodes = [WorkflowNode(id=f"n{i}", endpoint=f"n{i}.example.org") for i in range(edge_count + 1)]
    edges = [WorkflowEdge(f"n{i}", f"n{i+1}") for i in range(edge_count)]
    spec = WorkflowSpec(name="p", nodes=tuple(nodes), edges=tuple(edges))
    regions = tuple(
        Region(f"r{i}", f"r{i}.example.org", Coordinate(0, i)) for i in range(region_count)
    )
    graphs = enumerate_candidates(spec, RegionCatalog(regions), sorted(metric_mask))
    assert len(graphs) == region_count * len(metric_mask)
    hubs = {g.region.probe_host for g in graphs}
    for g in graphs:
        assert len(g.edges) == 2 * edge_count
        assert all(e.src in hubs or e.dst in hubs for e in g.edges)


def test_dump_format(fig1_spec):
    text = dump_graph(build_candidate_graph(fig1_spec, US_EAST, Metric.PING))
    lines = text.strip().splitlines()
    assert lines[0] == "# region=us-east-1 metric=ping"
    assert lines[1] == (
        "wikimedia.org -> ec2.us-east-1.amazonaws.com "
        "[to_orchestrator, wikimedia->princeton]"
    )
