"""Expansion of workflows into per-(region, metric) candidate graphs.

Every data-flow edge (u, v) is split into two legs routed through the
candidate region's orchestrator: u -> region and region -> v, so each
candidate graph is a star around the region. Scoring needs only each graph's
pairs, one per unordered pair, and how many edges share each (`hub_legs`,
`weighted_pairs`); the edge lists remain as the debug view.
"""

from enum import Enum
from typing import NamedTuple, Sequence

from .geo import Region, RegionCatalog
from .workflow import WorkflowEdge, WorkflowSpec

Pair = tuple[str, str]


class Metric(str, Enum):
    DISTANCE = "distance"
    PING = "ping"
    HTTP_RTT = "http_rtt"


class Leg(str, Enum):
    TO_ORCHESTRATOR = "to_orchestrator"
    FROM_ORCHESTRATOR = "from_orchestrator"


class CandidateEdge(NamedTuple):
    src: str
    dst: str
    origin: WorkflowEdge
    leg: Leg

    @property
    def pair(self) -> Pair:
        return (self.src, self.dst)


class CandidateGraph(NamedTuple):
    region: Region
    metric: Metric
    edges: tuple[CandidateEdge, ...]


def build_candidate_graph(spec: WorkflowSpec, region: Region, metric: Metric) -> CandidateGraph:
    """Route every workflow edge through the region's orchestrator."""
    hub = region.probe_host
    endpoint = {node.id: node.endpoint for node in spec.nodes}
    edges = []
    for origin in spec.edges:
        edges.append(CandidateEdge(endpoint[origin.src], hub, origin, Leg.TO_ORCHESTRATOR))
        edges.append(CandidateEdge(hub, endpoint[origin.dst], origin, Leg.FROM_ORCHESTRATOR))
    return CandidateGraph(region=region, metric=metric, edges=tuple(edges))


def enumerate_candidates(
    spec: WorkflowSpec,
    catalog: RegionCatalog,
    metrics: Sequence[Metric],
) -> list[CandidateGraph]:
    """One candidate graph per (region, metric), in catalog then metric order."""
    if not metrics:
        raise ValueError("metrics must be non-empty")
    seen = set()
    for metric in metrics:
        if metric in seen:
            raise ValueError(f"duplicate metric: {metric.value}")
        seen.add(metric)
    ordered = [m for m in Metric if m in seen]
    return [
        build_candidate_graph(spec, region, metric)
        for region in catalog.regions
        for metric in ordered
    ]


def measurement_pairs(graph: CandidateGraph) -> list[Pair]:
    """Unique ordered endpoint pairs covering every candidate edge (first-seen order)."""
    pairs: list[Pair] = []
    seen: set[Pair] = set()
    for edge in graph.edges:
        if edge.pair not in seen:
            seen.add(edge.pair)
            pairs.append(edge.pair)
    return pairs


Legs = dict[tuple[str, bool], int]


def hub_legs(spec: WorkflowSpec) -> Legs:
    """The legs of every workflow edge routed through a hub, one per endpoint,
    as (endpoint, to_hub) -> multiplicity in first-seen edge order. Every
    metric is keyed by the unordered pair, and an endpoint's two legs are
    reversed pairs around any hub, so its second direction is counted in the
    first one seen."""
    endpoint = {node.id: node.endpoint for node in spec.nodes}
    legs: Legs = {}
    for origin in spec.edges:
        for end, to_hub in ((endpoint[origin.src], True), (endpoint[origin.dst], False)):
            leg = (end, not to_hub) if (end, not to_hub) in legs else (end, to_hub)
            legs[leg] = legs.get(leg, 0) + 1
    return legs


def weighted_pairs(legs: Legs, hub: str) -> dict[Pair, int]:
    """The measurement pairs of the candidate graph around `hub`, one per
    store key, each with the number of its candidate edges."""
    return {((end, hub) if to_hub else (hub, end)): n for (end, to_hub), n in legs.items()}


def dump_graph(graph: CandidateGraph) -> str:
    """Debug edge-list dump, one `src -> dst [leg, origin]` record per line."""
    lines = [f"# region={graph.region.id} metric={graph.metric.value}"]
    for edge in graph.edges:
        lines.append(
            f"{edge.src} -> {edge.dst} [{edge.leg.value}, {edge.origin.src}->{edge.origin.dst}]"
        )
    return "\n".join(lines) + "\n"
