import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudforecast.errors import CycleError, DocumentFormatError, SpecValidationError
from cloudforecast.workflow import (
    WorkflowEdge,
    WorkflowNode,
    WorkflowPattern,
    WorkflowSpec,
    default_node_pool,
    generate_random_workflow,
    parse_node_pool,
    parse_workflow,
    render_workflow,
    topological_order,
    validate_dag,
)
from conftest import FIG1_DOC
from helpers import NON_FINITE, all_topological_orders, with_raw_value

POOL = default_node_pool()


def _spec(nodes, edges):
    return WorkflowSpec(
        name="t",
        nodes=tuple(WorkflowNode(id=n, endpoint=f"{n}.example.org") for n in nodes),
        edges=tuple(WorkflowEdge(a, b) for a, b in edges),
    )


def test_parse_example_workflow(fig1_doc):
    spec = parse_workflow(fig1_doc)
    assert len(spec.nodes) == 3
    assert len(spec.edges) == 2
    node = {n.id: n for n in spec.nodes}
    assert node["wikimedia"].role.value == "source"
    assert node["princeton"].service_time_ms == 50


def test_parse_rejects_two_node_cycle():
    doc = json.dumps(
        {
            "name": "c",
            "nodes": [
                {"id": "A", "endpoint": "a.example.org", "role": "service"},
                {"id": "B", "endpoint": "b.example.org", "role": "service"},
            ],
            "edges": [{"from": "A", "to": "B"}, {"from": "B", "to": "A"}],
        }
    )
    with pytest.raises(SpecValidationError, match="cycle"):
        parse_workflow(doc)


def test_parse_single_node_workflow():
    doc = json.dumps(
        {
            "name": "solo",
            "nodes": [{"id": "A", "endpoint": "a.example.org", "role": "source"}],
            "edges": [],
        }
    )
    spec = parse_workflow(doc)
    assert len(spec.nodes) == 1 and not spec.edges


def test_parse_reports_syntax_position():
    with pytest.raises(DocumentFormatError, match=r"line \d+"):
        parse_workflow('{"name": "x", nodes: []}')


def test_parse_rejects_unknown_fields():
    doc = json.dumps(
        {
            "name": "x",
            "nodes": [{"id": "A", "endpoint": "a", "role": "source", "color": "red"}],
            "edges": [],
        }
    )
    with pytest.raises(DocumentFormatError, match="unknown field"):
        parse_workflow(doc)


def test_parse_rejects_bad_role():
    doc = json.dumps(
        {"name": "x", "nodes": [{"id": "A", "endpoint": "a", "role": "manager"}], "edges": []}
    )
    with pytest.raises(SpecValidationError, match="role"):
        parse_workflow(doc)


def test_parse_rejects_out_of_range_location():
    doc = json.dumps(
        {
            "name": "x",
            "nodes": [
                {"id": "A", "endpoint": "a", "role": "source",
                 "location": {"lat": 999, "lon": 0}}
            ],
            "edges": [],
        }
    )
    with pytest.raises(SpecValidationError, match="latitude"):
        parse_workflow(doc)


@pytest.mark.parametrize("raw, shown", NON_FINITE.values(), ids=list(NON_FINITE))
@pytest.mark.parametrize("path, field", [
    (("nodes", 1, "service_time_ms"), "nodes[1].service_time_ms"),
    (("edges", 0, "payload_kb"), "edges[0].payload_kb"),
    (("nodes", 1, "location", "lat"), "nodes[1].location.lat"),
])
def test_parse_rejects_a_number_that_is_not_a_finite_float(path, field, raw, shown):
    doc = with_raw_value(FIG1_DOC, path, raw)
    with pytest.raises(DocumentFormatError) as info:
        parse_workflow(doc)
    assert str(info.value) == f"{field}: expected a finite number, got {shown}"


@pytest.mark.parametrize("raw, shown", NON_FINITE.values(), ids=list(NON_FINITE))
def test_a_pool_node_rejects_a_number_that_is_not_a_finite_float(raw, shown):
    from cloudforecast.workflow import parse_node_pool

    pool = json.dumps({"nodes": [{"id": "A", "endpoint": "a.example.org", "role": "service",
                                  "service_time_ms": 5}]})
    with pytest.raises(DocumentFormatError) as info:
        parse_node_pool(with_raw_value(pool, ("nodes", 0, "service_time_ms"), raw))
    assert str(info.value) == f"nodes[0].service_time_ms: expected a finite number, got {shown}"


def test_a_pool_reads_a_negative_zero_service_time_as_zero():
    pool = parse_node_pool(json.dumps({"nodes": [
        {"id": "a", "endpoint": "a.example.org", "role": "source", "service_time_ms": -0.0},
        {"id": "b", "endpoint": "b.example.org", "role": "service", "service_time_ms": 2.5}]}))
    assert [node.service_time_ms.hex() for node in pool] == ["0x0.0p+0", (2.5).hex()]


def test_parse_rejects_missing_required_field():
    with pytest.raises(DocumentFormatError, match="missing required"):
        parse_workflow('{"name": "x", "nodes": []}')


def test_parse_rejects_non_list_nodes():
    with pytest.raises(SpecValidationError, match="must be lists"):
        parse_workflow('{"name": "x", "nodes": {}, "edges": []}')


def test_topological_order_rejects_dangling_edge():
    with pytest.raises(SpecValidationError, match="dangling"):
        topological_order(_spec("AB", [("A", "X")]))


def test_validate_ok_for_example(fig1_spec):
    assert validate_dag(fig1_spec) == []


def test_validate_reports_three_node_cycle():
    violations = validate_dag(_spec("ABC", [("A", "B"), ("B", "C"), ("C", "A")]))
    assert any("cycle" in v and "A, B, C" in v for v in violations)


def test_validate_reports_dangling_edge():
    violations = validate_dag(_spec("AB", [("A", "X")]))
    assert any("dangling" in v and "'X'" in v for v in violations)


def test_validate_enumerates_every_violation():
    spec = WorkflowSpec(
        name="bad",
        nodes=(
            WorkflowNode(id="A", endpoint="a"),
            WorkflowNode(id="A", endpoint=""),
            WorkflowNode(id="B", endpoint="b", service_time_ms=-1),
        ),
        edges=(WorkflowEdge("A", "A"), WorkflowEdge("B", "X")),
    )
    violations = validate_dag(spec)
    assert len(violations) >= 4  # duplicate id, empty endpoint, negative time, self-loop, dangling


def test_validate_source_with_incoming():
    spec = WorkflowSpec(
        name="s",
        nodes=(
            WorkflowNode(id="A", endpoint="a", role="service"),
            WorkflowNode(id="B", endpoint="b", role="source"),
        ),
        edges=(WorkflowEdge("A", "B"),),
    )
    assert any("source" in v for v in validate_dag(spec))


def test_validate_disconnected():
    assert any("connected" in v for v in validate_dag(_spec("AB", [])))


def test_topological_order_example(fig1_spec):
    assert topological_order(fig1_spec) == ["wikimedia", "princeton", "sfu"]


def test_topological_order_lexicographic_tiebreak():
    spec = WorkflowSpec(
        name="t",
        nodes=(WorkflowNode(id="B", endpoint="b"), WorkflowNode(id="A", endpoint="a")),
        edges=(),
    )
    assert topological_order(spec) == ["A", "B"]


def test_topological_order_diamond_is_lexicographically_least():
    edges = [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")]
    spec = _spec("ABCD", edges)
    orders = all_topological_orders(["A", "B", "C", "D"], edges)
    assert topological_order(spec) == min(orders)
    assert min(orders) == ["A", "B", "C", "D"]


def test_topological_order_raises_on_cycle():
    with pytest.raises(CycleError):
        topological_order(_spec("AB", [("A", "B"), ("B", "A")]))


def test_generate_sequential_five():
    spec = generate_random_workflow(WorkflowPattern.SEQUENTIAL, 5, POOL, seed=1)
    assert len(spec.nodes) == 5
    assert len(spec.edges) == 4
    assert validate_dag(spec) == []


def test_generate_smallest_fan_out():
    spec = generate_random_workflow(WorkflowPattern.FAN_OUT, 2, POOL, seed=0)
    assert len(spec.edges) == 1
    roles = {n.id: n.role.value for n in spec.nodes}
    assert roles[spec.edges[0].src] == "source"
    assert roles[spec.edges[0].dst] == "service"


def test_generate_fan_in_shape():
    spec = generate_random_workflow(WorkflowPattern.FAN_IN, 5, POOL, seed=2)
    sink = spec.edges[0].dst
    assert all(e.dst == sink for e in spec.edges)
    assert len(spec.edges) == 4
    assert sum(1 for n in spec.nodes if n.role.value == "source") == 4


def test_generate_is_deterministic():
    a = generate_random_workflow(WorkflowPattern.MIXED, 13, POOL, seed=7)
    b = generate_random_workflow(WorkflowPattern.MIXED, 13, POOL, seed=7)
    assert render_workflow(a) == render_workflow(b)


def test_generate_insufficient_pool():
    with pytest.raises(SpecValidationError, match="pool"):
        generate_random_workflow(WorkflowPattern.SEQUENTIAL, len(POOL) + 1, POOL, seed=0)


def test_pool_with_duplicate_ids_rejected():
    from cloudforecast.workflow import parse_node_pool

    doc = json.dumps(
        {
            "nodes": [
                {"id": "A", "endpoint": "a.example.org", "role": "service"},
                {"id": "A", "endpoint": "b.example.org", "role": "service"},
            ]
        }
    )
    with pytest.raises(SpecValidationError, match="duplicate"):
        parse_node_pool(doc)


@given(
    pattern=st.sampled_from(list(WorkflowPattern)),
    node_count=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=150, deadline=None)
def test_generated_workflows_are_always_valid(pattern, node_count, seed):
    spec = generate_random_workflow(pattern, node_count, POOL, seed)
    assert validate_dag(spec) == []
    if pattern is not WorkflowPattern.MIXED and node_count >= 1:
        assert len(spec.edges) == node_count - 1
    order = topological_order(spec)
    assert sorted(order) == sorted(n.id for n in spec.nodes)
    position = {nid: i for i, nid in enumerate(order)}
    assert all(position[e.src] < position[e.dst] for e in spec.edges)


@given(
    pattern=st.sampled_from(list(WorkflowPattern)),
    node_count=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_round_trip_parse_render(pattern, node_count, seed):
    spec = generate_random_workflow(pattern, node_count, POOL, seed)
    assert parse_workflow(render_workflow(spec)) == spec


def test_round_trip_example(fig1_spec):
    assert parse_workflow(render_workflow(fig1_spec)) == fig1_spec
