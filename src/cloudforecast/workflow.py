"""DAG workflow specifications: parsing, validation, topological order, random generation."""

import heapq
import json
import random
from collections import defaultdict
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Sequence

from .errors import CycleError, SpecValidationError
from .geo import Coordinate, bundled_text
from .jsondoc import as_number, as_string, check_fields, load_document


class NodeRole(str, Enum):
    SOURCE = "source"
    SERVICE = "service"


class WorkflowPattern(str, Enum):
    SEQUENTIAL = "sequential"
    FAN_IN = "fan_in"
    FAN_OUT = "fan_out"
    MIXED = "mixed"


@dataclass(frozen=True)
class WorkflowNode:
    id: str
    endpoint: str
    role: NodeRole = NodeRole.SERVICE
    location: Coordinate | None = None
    service_time_ms: float = 0.0

    def __post_init__(self):
        if not isinstance(self.role, NodeRole):
            object.__setattr__(self, "role", NodeRole(self.role))


@dataclass(frozen=True)
class WorkflowEdge:
    src: str
    dst: str
    payload_kb: float = 0.0


@dataclass(frozen=True)
class WorkflowSpec:
    name: str
    nodes: tuple[WorkflowNode, ...] = field(default_factory=tuple)
    edges: tuple[WorkflowEdge, ...] = field(default_factory=tuple)

    def node(self, node_id: str) -> WorkflowNode:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)

    def in_edges(self, node_id: str) -> list[WorkflowEdge]:
        return [e for e in self.edges if e.dst == node_id]

    def out_edges(self, node_id: str) -> list[WorkflowEdge]:
        return [e for e in self.edges if e.src == node_id]


def _node_violations(nodes: Iterable[WorkflowNode], label: str) -> list[str]:
    """Empty or duplicate ids, empty endpoints and negative service times."""
    violations: list[str] = []
    seen_ids: set[str] = set()
    for node in nodes:
        if not node.id:
            violations.append(f"{label} with empty id")
        elif node.id in seen_ids:
            violations.append(f"duplicate {label} id: {node.id}")
        seen_ids.add(node.id)
        if not node.endpoint:
            violations.append(f"{label} '{node.id}': empty endpoint")
        if node.service_time_ms < 0:
            violations.append(f"{label} '{node.id}': negative service_time_ms")
    return violations


def _peel(node_ids: Iterable[str], edges: Iterable[WorkflowEdge]) -> tuple[list[str], list[str]]:
    """Kahn peeling, ties broken lexicographically: (order, sorted ids left on a cycle)."""
    indeg = {nid: 0 for nid in node_ids}
    out = defaultdict(list)
    for edge in edges:
        indeg[edge.dst] += 1
        out[edge.src].append(edge.dst)
    heap = sorted(nid for nid, d in indeg.items() if d == 0)
    order: list[str] = []
    while heap:
        nid = heapq.heappop(heap)
        order.append(nid)
        for child in out[nid]:
            indeg[child] -= 1
            if indeg[child] == 0:
                heapq.heappush(heap, child)
    return order, sorted(nid for nid, d in indeg.items() if d > 0)


def validate_dag(spec: WorkflowSpec) -> list[str]:
    """Check every workflow invariant; returns all violations (empty list = ok)."""
    violations = _node_violations(spec.nodes, "node")

    known = {n.id for n in spec.nodes}
    usable_edges = []
    for edge in spec.edges:
        dangling = [nid for nid in (edge.src, edge.dst) if nid not in known]
        for nid in dangling:
            violations.append(f"dangling edge {edge.src}->{edge.dst}: unknown node id '{nid}'")
        if edge.src == edge.dst:
            violations.append(f"self-loop edge on node '{edge.src}'")
            continue
        if edge.payload_kb < 0:
            violations.append(f"edge {edge.src}->{edge.dst}: negative payload_kb")
        if not dangling:
            usable_edges.append(edge)

    _, cyclic = _peel(known, usable_edges)
    if cyclic:
        violations.append("cycle involving nodes {%s}" % ", ".join(cyclic))

    incoming = {e.dst for e in usable_edges}
    for node in spec.nodes:
        if node.role is NodeRole.SOURCE and node.id in incoming:
            violations.append(f"source node '{node.id}' has incoming edges")

    if len(spec.nodes) >= 2:
        neighbours = defaultdict(set)
        for edge in usable_edges:
            neighbours[edge.src].add(edge.dst)
            neighbours[edge.dst].add(edge.src)
        start = spec.nodes[0].id
        reached = {start}
        stack = [start]
        while stack:
            for other in neighbours[stack.pop()]:
                if other not in reached:
                    reached.add(other)
                    stack.append(other)
        if reached != known:
            violations.append("workflow is not weakly connected")

    return violations


def topological_order(spec: WorkflowSpec) -> list[str]:
    """Topological order of node ids, ties broken lexicographically."""
    known = {n.id for n in spec.nodes}
    for edge in spec.edges:
        if edge.src not in known or edge.dst not in known:
            raise SpecValidationError(
                f"dangling edge {edge.src}->{edge.dst}: unknown node id"
            )
    order, cyclic = _peel(known, spec.edges)
    if cyclic:
        raise CycleError("cycle involving nodes {%s}" % ", ".join(cyclic))
    return order


def _parse_node(entry: object, ctx: str) -> WorkflowNode:
    check_fields(entry, ["id", "endpoint", "role"], ["location", "service_time_ms"], ctx)
    role_text = as_string(entry["role"], f"{ctx}.role")
    try:
        role = NodeRole(role_text)
    except ValueError:
        raise SpecValidationError(f"{ctx}.role: must be 'source' or 'service', got {role_text!r}")
    location = None
    if "location" in entry:
        loc = check_fields(entry["location"], ["lat", "lon"], [], f"{ctx}.location")
        try:
            location = Coordinate(
                as_number(loc["lat"], f"{ctx}.location.lat"),
                as_number(loc["lon"], f"{ctx}.location.lon"),
            )
        except ValueError as exc:
            raise SpecValidationError(f"{ctx}.location: {exc}") from exc
    return WorkflowNode(
        id=as_string(entry["id"], f"{ctx}.id"),
        endpoint=as_string(entry["endpoint"], f"{ctx}.endpoint"),
        role=role,
        location=location,
        service_time_ms=as_number(entry.get("service_time_ms", 0.0), f"{ctx}.service_time_ms"),
    )


def parse_workflow(document: str) -> WorkflowSpec:
    """Parse and fully validate a workflow document."""
    data = load_document(document, "workflow")
    check_fields(data, ["name", "nodes", "edges"], [], "workflow")
    if not isinstance(data["nodes"], list) or not isinstance(data["edges"], list):
        raise SpecValidationError("workflow 'nodes' and 'edges' must be lists")
    nodes = tuple(_parse_node(entry, f"nodes[{i}]") for i, entry in enumerate(data["nodes"]))
    edges = []
    for i, entry in enumerate(data["edges"]):
        ctx = f"edges[{i}]"
        check_fields(entry, ["from", "to"], ["payload_kb"], ctx)
        edges.append(
            WorkflowEdge(
                src=as_string(entry["from"], f"{ctx}.from"),
                dst=as_string(entry["to"], f"{ctx}.to"),
                payload_kb=as_number(entry.get("payload_kb", 0.0), f"{ctx}.payload_kb"),
            )
        )
    spec = WorkflowSpec(
        name=as_string(data["name"], "workflow.name"),
        nodes=nodes,
        edges=tuple(edges),
    )
    violations = validate_dag(spec)
    if violations:
        raise SpecValidationError("; ".join(violations), violations=violations)
    return spec


def render_workflow(spec: WorkflowSpec) -> str:
    """Serialize a spec back to the canonical document form."""
    nodes = []
    for node in spec.nodes:
        entry: dict = {"id": node.id, "endpoint": node.endpoint, "role": node.role.value}
        if node.location is not None:
            entry["location"] = {"lat": node.location.lat, "lon": node.location.lon}
        if node.service_time_ms:
            entry["service_time_ms"] = node.service_time_ms
        nodes.append(entry)
    edges = []
    for edge in spec.edges:
        entry = {"from": edge.src, "to": edge.dst}
        if edge.payload_kb:
            entry["payload_kb"] = edge.payload_kb
        edges.append(entry)
    return json.dumps({"name": spec.name, "nodes": nodes, "edges": edges}, indent=2) + "\n"


def parse_node_pool(document: str) -> list[WorkflowNode]:
    """Parse a node pool document: {"nodes": [...]} with the workflow node schema."""
    data = load_document(document, "node pool")
    check_fields(data, ["nodes"], [], "pool")
    if not isinstance(data["nodes"], list):
        raise SpecValidationError("pool 'nodes' must be a list")
    nodes = [_parse_node(entry, f"nodes[{i}]") for i, entry in enumerate(data["nodes"])]
    violations = _node_violations(nodes, "pool node")
    if violations:
        raise SpecValidationError("; ".join(violations), violations=violations)
    return nodes


def default_node_pool() -> list[WorkflowNode]:
    """The bundled 16-host pool used by generate/experiment defaults."""
    return parse_node_pool(bundled_text("nodes.default"))


def _rerole(nodes: Sequence[WorkflowNode], edges: Sequence[WorkflowEdge]) -> tuple[WorkflowNode, ...]:
    # in-degree-0 nodes feed data in, so they become sources
    with_incoming = {e.dst for e in edges}
    return tuple(
        replace(n, role=NodeRole.SERVICE if n.id in with_incoming else NodeRole.SOURCE)
        for n in nodes
    )


def generate_random_workflow(
    pattern: WorkflowPattern,
    node_count: int,
    node_pool: Sequence[WorkflowNode],
    seed: int,
) -> WorkflowSpec:
    """Build a valid random workflow of the requested pattern; deterministic per seed."""
    if node_count < 1:
        raise SpecValidationError(f"node_count must be >= 1, got {node_count}")
    if len(node_pool) < node_count:
        raise SpecValidationError(
            f"node pool has {len(node_pool)} entries, need at least {node_count}"
        )
    rng = random.Random(seed)
    picked = rng.sample(list(node_pool), node_count)
    ids = [n.id for n in picked]
    edges: list[WorkflowEdge] = []

    if pattern is WorkflowPattern.SEQUENTIAL:
        edges = [WorkflowEdge(a, b) for a, b in zip(ids, ids[1:])]
    elif pattern is WorkflowPattern.FAN_OUT:
        edges = [WorkflowEdge(ids[0], child) for child in ids[1:]]
    elif pattern is WorkflowPattern.FAN_IN:
        edges = [WorkflowEdge(src, ids[-1]) for src in ids[:-1]]
    elif pattern is WorkflowPattern.MIXED:
        remaining = list(ids[1:])
        tail = ids[0]
        while remaining:
            k = min(rng.randint(1, 4), len(remaining))
            segment, remaining = remaining[:k], remaining[k:]
            kind = rng.choice(
                [WorkflowPattern.SEQUENTIAL, WorkflowPattern.FAN_IN, WorkflowPattern.FAN_OUT]
            )
            if kind is WorkflowPattern.SEQUENTIAL or k == 1:
                for nid in segment:
                    edges.append(WorkflowEdge(tail, nid))
                    tail = nid
            elif kind is WorkflowPattern.FAN_OUT:
                edges.extend(WorkflowEdge(tail, nid) for nid in segment)
                tail = segment[-1]
            else:  # fan-in: fresh sources plus the current tail joining into one node
                join = segment[-1]
                edges.extend(WorkflowEdge(nid, join) for nid in segment[:-1])
                edges.append(WorkflowEdge(tail, join))
                tail = join
    else:
        raise SpecValidationError(f"unknown pattern: {pattern}")

    spec = WorkflowSpec(
        name=f"{pattern.value}-{node_count}-seed{seed}",
        nodes=_rerole(picked, edges),
        edges=tuple(edges),
    )
    violations = validate_dag(spec)
    if violations:  # pragma: no cover - generator guarantees validity
        raise SpecValidationError("generated workflow invalid: " + "; ".join(violations))
    return spec


def node_locations(spec: WorkflowSpec) -> Iterable[tuple[str, Coordinate]]:
    """(endpoint, coordinate) pairs for every located node."""
    for node in spec.nodes:
        if node.location is not None:
            yield node.endpoint, node.location
