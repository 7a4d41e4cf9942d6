"""DAG workflow specifications: parsing, validation, topological order, random generation."""

import heapq
import json
import random
from collections import defaultdict
from enum import Enum
from functools import cached_property
from itertools import count
from math import isfinite
from typing import Iterable, NamedTuple, Sequence

from .errors import CycleError, SpecValidationError
from .geo import Coordinate, bundled_text
from .jsondoc import as_number, as_string, check_fields, field_sets, load_document
from .records import Checked


class NodeRole(str, Enum):
    SOURCE = "source"
    SERVICE = "service"


class WorkflowPattern(str, Enum):
    SEQUENTIAL = "sequential"
    FAN_IN = "fan_in"
    FAN_OUT = "fan_out"
    MIXED = "mixed"


class _WorkflowNodeFields(NamedTuple):  # the defaults are `WorkflowNode`'s
    id: str
    endpoint: str
    role: NodeRole
    location: Coordinate | None
    service_time_ms: float


class WorkflowNode(Checked, _WorkflowNodeFields):
    __slots__ = ()

    def __new__(
        cls,
        id: str,
        endpoint: str,
        role: NodeRole = NodeRole.SERVICE,
        location: Coordinate | None = None,
        service_time_ms: float = 0.0,
    ):
        # a role name becomes its member, since roles are told apart by identity
        role = role if type(role) is NodeRole else NodeRole(role)
        return tuple.__new__(cls, (id, endpoint, role, location, service_time_ms))


class WorkflowEdge(NamedTuple):
    src: str
    dst: str
    payload_kb: float = 0.0


class _WorkflowSpecFields(NamedTuple):  # the defaults are `WorkflowSpec`'s
    name: str
    nodes: tuple[WorkflowNode, ...] = ()
    edges: tuple[WorkflowEdge, ...] = ()


class WorkflowSpec(_WorkflowSpecFields):
    """A workflow: its name, nodes and edges. Its fields are read-only;
    `plan` is a memo, the DAG's peel, that the first reader fills, and
    `measurement.location_index` keeps its last table in the same way."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    @cached_property
    def plan(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """`_peel` of the nodes and edges, by node position: the topological
        order and each node's children, as tuples, since every reader shares
        them. A peel that raises is not kept, so every read of an invalid spec
        raises again."""
        order, children = _peel([node.id for node in self.nodes], self.edges)
        return tuple(order), tuple(map(tuple, children))


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


def _peel(node_ids: Sequence[str], edges: Iterable[WorkflowEdge]
          ) -> tuple[list[int], list[list[int]]]:
    """Kahn peeling by position in `node_ids`, ties broken lexicographically by
    id: (order, each position's children in edge order). A repeated id stands
    for its last position. Raises `SpecValidationError` on an edge with an
    unknown end and `CycleError`, naming the sorted ids left over, on a cycle."""
    position = {nid: i for i, nid in enumerate(node_ids)}
    indeg = [0] * len(node_ids)
    children: list[list[int]] = [[] for _ in node_ids]
    try:
        for src, dst, _ in edges:
            v = position[dst]
            children[position[src]].append(v)
            indeg[v] += 1
    except KeyError:
        raise SpecValidationError(f"dangling edge {src}->{dst}: unknown node id") from None
    heap = sorted(nid for nid, i in position.items() if not indeg[i])
    order: list[int] = []
    while heap:
        i = position[heapq.heappop(heap)]
        order.append(i)
        for v in children[i]:
            indeg[v] -= 1
            if not indeg[v]:
                heapq.heappush(heap, node_ids[v])
    if len(order) < len(position):
        raise CycleError("cycle involving nodes {%s}"
                         % ", ".join(sorted(nid for nid, i in position.items() if indeg[i])))
    return order, children


def validate_dag(spec: WorkflowSpec) -> list[str]:
    """Check every workflow invariant; returns all violations (empty list = ok)."""
    violations = _node_violations(spec.nodes, "node")
    if not spec.nodes:
        violations.append("workflow has no nodes")

    known = {n.id for n in spec.nodes}
    usable_edges = []
    for edge in spec.edges:
        usable = edge.src in known and edge.dst in known
        if not usable:
            violations.extend(f"dangling edge {edge.src}->{edge.dst}: unknown node id '{nid}'"
                              for nid in (edge.src, edge.dst) if nid not in known)
        if edge.src == edge.dst:
            violations.append(f"self-loop edge on node '{edge.src}'")
            continue
        if edge.payload_kb < 0:
            violations.append(f"edge {edge.src}->{edge.dst}: negative payload_kb")
        if usable:
            usable_edges.append(edge)

    try:  # with every edge usable, the peel is the spec's plan, kept for later readers
        if len(usable_edges) == len(spec.edges):
            spec.plan
        else:
            _peel([n.id for n in spec.nodes], usable_edges)
    except CycleError as exc:
        violations.append(str(exc))

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
    nodes = spec.nodes
    return [nodes[i].id for i in spec.plan[0]]


_WORKFLOW_FIELDS = field_sets(["name", "nodes", "edges"], [])
_NODE_FIELDS = field_sets(["id", "endpoint", "role"], ["location", "service_time_ms"])
_LOCATION_FIELDS = field_sets(["lat", "lon"], [])
_EDGE_FIELDS = field_sets(["from", "to"], ["payload_kb"])
_POOL_FIELDS = field_sets(["nodes"], [])


_ROLES = {role.value: role for role in NodeRole}


def _parse_node(entry: object, i: int) -> WorkflowNode:
    """`nodes[i]` of a document. Each field is checked inline, in the order
    errors are reported; the `jsondoc` helpers run only where a check fails,
    to word the error or to convert an int."""
    if type(entry) is not dict or not _NODE_FIELDS[0] <= entry.keys() <= _NODE_FIELDS[1]:
        check_fields(entry, _NODE_FIELDS, f"nodes[{i}]")
    text = entry["role"]
    role = _ROLES.get(text) if type(text) is str else as_string(text, f"nodes[{i}].role")
    if role is None:
        raise SpecValidationError(f"nodes[{i}].role: must be 'source' or 'service', got {text!r}")
    location = None
    if "location" in entry:
        loc = entry["location"]
        if type(loc) is not dict or not _LOCATION_FIELDS[0] <= loc.keys() <= _LOCATION_FIELDS[1]:
            check_fields(loc, _LOCATION_FIELDS, f"nodes[{i}].location")
        lat, lon = loc["lat"], loc["lon"]
        if not (type(lat) is float and isfinite(lat) and type(lon) is float and isfinite(lon)):
            lat = as_number(lat, f"nodes[{i}].location.lat")
            lon = as_number(lon, f"nodes[{i}].location.lon")
        try:
            location = Coordinate(lat, lon)
        except ValueError as exc:
            raise SpecValidationError(f"nodes[{i}].location: {exc}") from exc
    nid, endpoint, service = entry["id"], entry["endpoint"], entry.get("service_time_ms", 0.0)
    if type(nid) is not str or type(endpoint) is not str:
        as_string(nid, f"nodes[{i}].id")
        as_string(endpoint, f"nodes[{i}].endpoint")
    if not (type(service) is float and isfinite(service)):
        service = as_number(service, f"nodes[{i}].service_time_ms")
    # + 0.0 reads -0.0 as 0.0 and leaves every other float as it is
    return tuple.__new__(WorkflowNode, (nid, endpoint, role, location, service + 0.0))


def _parse_edge(entry: object, i: int) -> WorkflowEdge:
    """`edges[i]` of a document, checked as `_parse_node` checks a node."""
    if type(entry) is not dict or not _EDGE_FIELDS[0] <= entry.keys() <= _EDGE_FIELDS[1]:
        check_fields(entry, _EDGE_FIELDS, f"edges[{i}]")
    src, dst, payload = entry["from"], entry["to"], entry.get("payload_kb", 0.0)
    if type(src) is not str or type(dst) is not str:
        as_string(src, f"edges[{i}].from")
        as_string(dst, f"edges[{i}].to")
    if not (type(payload) is float and isfinite(payload)):
        payload = as_number(payload, f"edges[{i}].payload_kb")
    return tuple.__new__(WorkflowEdge, (src, dst, payload))


def parse_workflow(document: str) -> WorkflowSpec:
    """Parse and fully validate a workflow document."""
    data = load_document(document, "workflow")
    check_fields(data, _WORKFLOW_FIELDS, "workflow")
    if not isinstance(data["nodes"], list) or not isinstance(data["edges"], list):
        raise SpecValidationError("workflow 'nodes' and 'edges' must be lists")
    nodes = tuple(map(_parse_node, data["nodes"], count()))
    edges = tuple(map(_parse_edge, data["edges"], count()))
    spec = WorkflowSpec(as_string(data["name"], "workflow.name"), nodes, edges)
    violations = validate_dag(spec)
    if violations:
        raise SpecValidationError("; ".join(violations))
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
    check_fields(data, _POOL_FIELDS, "pool")
    if not isinstance(data["nodes"], list):
        raise SpecValidationError("pool 'nodes' must be a list")
    nodes = list(map(_parse_node, data["nodes"], count()))
    violations = _node_violations(nodes, "pool node")
    if violations:
        raise SpecValidationError("; ".join(violations))
    return nodes


def default_node_pool() -> list[WorkflowNode]:
    """The bundled 16-host pool used by generate/experiment defaults."""
    return parse_node_pool(bundled_text("nodes.default"))


def _rerole(nodes: Sequence[WorkflowNode], edges: Sequence[WorkflowEdge]) -> tuple[WorkflowNode, ...]:
    # in-degree-0 nodes feed data in, so they become sources
    with_incoming = {e.dst for e in edges}
    return tuple(
        n._replace(role=NodeRole.SERVICE if n.id in with_incoming else NodeRole.SOURCE)
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
