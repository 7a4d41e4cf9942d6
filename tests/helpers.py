"""Independent oracles and small utilities shared by the test modules.

Everything here is deliberately implemented differently from the package so
that tests cross-check rather than mirror the production code paths.
"""

import itertools
import json
import math
from urllib.parse import urlparse

from hypothesis import strategies as st

from cloudforecast.candidates import Legs, Metric, Pair, weighted_pairs
from cloudforecast.errors import UnknownLocationError
from cloudforecast.geo import Coordinate, Region, RegionCatalog, haversine_km
from cloudforecast.measurement import Measurement
from cloudforecast.scoring import DEFAULT_FAILURE_PENALTY, GraphScore
from cloudforecast.workflow import WorkflowEdge, WorkflowNode, WorkflowSpec

EARTH_RADIUS_KM = 6371.0

# the metric sets `--metrics` can ask for: distance always, ping and HTTP at will
SUBSETS = {
    "all": frozenset(Metric),
    "distance+ping": frozenset({Metric.DISTANCE, Metric.PING}),
    "distance+http_rtt": frozenset({Metric.DISTANCE, Metric.HTTP_RTT}),
    "distance": frozenset({Metric.DISTANCE}),
}


def slc_km(a: Coordinate, b: Coordinate) -> float:
    """Spherical law of cosines distance (oracle for the haversine implementation)."""
    p1, p2 = math.radians(a.lat), math.radians(b.lat)
    dl = math.radians(b.lon - a.lon)
    cosine = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return EARTH_RADIUS_KM * math.acos(max(-1.0, min(1.0, cosine)))


def haversine_reference_km(a: Coordinate, b: Coordinate) -> float:
    """The haversine formula as the package's kernel wrote it before it took
    unit vectors: within 1e-14 relative of the true distance away from
    antipodes (oracle for `geo.km_row`'s accuracy)."""
    lat_a, lon_a, lat_b, lon_b = a.lat, a.lon, b.lat, b.lon
    h = (math.sin(math.radians(lat_b - lat_a) / 2.0) ** 2
         + math.cos(math.radians(lat_a)) * math.cos(math.radians(lat_b))
         * math.sin(math.radians(lon_b - lon_a) / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(min(1.0, h)))


def _unit_vector(c: Coordinate) -> tuple[float, float, float]:
    lat, lon = math.radians(c.lat), math.radians(c.lon)
    return (math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat))


def atan2_km(a: Coordinate, b: Coordinate) -> float:
    """R*atan2(|u x v|, u.v) of the coordinates' unit vectors: well conditioned
    at every angle, antipodes included (oracle for `geo.km_row` near them)."""
    (ux, uy, uz), (vx, vy, vz) = _unit_vector(a), _unit_vector(b)
    cross = math.hypot(uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx)
    return EARTH_RADIUS_KM * math.atan2(cross, ux * vx + uy * vy + uz * vz)


def urlparse_host_of(endpoint: str) -> str:
    """The host of an endpoint as `urlparse` alone reads it (oracle for
    `geo.host_of`, which splits plain endpoints itself)."""
    endpoint = endpoint.strip()
    parsed = urlparse(endpoint if "://" in endpoint else f"//{endpoint}")
    if not parsed.hostname:
        raise UnknownLocationError(f"cannot extract a host from endpoint {endpoint!r}")
    return parsed.hostname


def antipode(c: Coordinate) -> Coordinate:
    """The point opposite `c`, where `geo.km_row` measures from the antipode."""
    return Coordinate(-c.lat, c.lon - 180.0 if c.lon >= 0 else c.lon + 180.0)


# any coordinate, a pole, or a point on the +-180 degree seam
EDGE_COORDS = st.one_of(
    st.builds(Coordinate, st.floats(min_value=-90, max_value=90),
              st.floats(min_value=-180, max_value=180)),
    st.builds(Coordinate, st.sampled_from([-90.0, 90.0]), st.floats(min_value=-180, max_value=180)),
    st.builds(Coordinate, st.floats(min_value=-90, max_value=90), st.sampled_from([-180.0, 180.0])),
)


def all_topological_orders(node_ids: list[str], edges: list[tuple[str, str]]) -> list[list[str]]:
    """Brute-force enumeration of every topological order (small graphs only)."""
    orders = []
    for perm in itertools.permutations(node_ids):
        position = {nid: i for i, nid in enumerate(perm)}
        if all(position[u] < position[v] for u, v in edges):
            orders.append(list(perm))
    return orders


def longest_path_ms(spec: WorkflowSpec) -> float:
    """Independent critical-path service-time sum via path enumeration."""
    service = {n.id: n.service_time_ms for n in spec.nodes}
    children: dict[str, list[str]] = {n.id: [] for n in spec.nodes}
    for e in spec.edges:
        children[e.src].append(e.dst)

    def best_from(nid: str) -> float:
        if not children[nid]:
            return service[nid]
        return service[nid] + max(best_from(c) for c in children[nid])

    return max((best_from(n.id) for n in spec.nodes), default=0.0)


def per_edge_finish_ms(spec: WorkflowSpec, vantage: Coordinate, model) -> dict[str, float]:
    """Each node's finish time when every edge (u, v) costs
    `ping_ms(haversine_km(u, vantage)) + ping_ms(haversine_km(vantage, v))`,
    by recursion over each node's parents (oracle for `simulate_execution`,
    which computes one latency per node)."""
    node = {n.id: n for n in spec.nodes}
    incoming: dict[str, list[WorkflowEdge]] = {nid: [] for nid in node}
    for e in spec.edges:
        incoming[e.dst].append(e)
    finish: dict[str, float] = {}

    def ping_ms(km: float) -> float:
        return model.base_latency_ms + model.ms_per_100km * (km / 100.0)

    def finish_of(nid: str) -> float:
        if nid not in finish:
            arrivals = [
                finish_of(e.src) + ping_ms(haversine_km(node[e.src].location, vantage))
                + ping_ms(haversine_km(vantage, node[nid].location))
                for e in incoming[nid]
            ]
            service = node[nid].service_time_ms
            finish[nid] = service + max(arrivals) if arrivals else service
        return finish[nid]

    return {nid: finish_of(nid) for nid in node}


def canonical_key(pair: Pair, metric: Metric) -> tuple[str, str, Metric]:
    """The store key of a pair: every metric is keyed by the unordered pair."""
    return (*sorted(pair), metric)


def fold_pairs(pairs: dict[Pair, int]) -> dict[Pair, int]:
    """Merge each pair into the first-seen pair with the same endpoints,
    summing multiplicities: one entry per store key."""
    first: dict[frozenset, Pair] = {}
    folded: dict[Pair, int] = {}
    for pair, n in pairs.items():
        kept = first.setdefault(frozenset(pair), pair)
        folded[kept] = folded.get(kept, 0) + n
    return folded


def row_pairs(hubs: list[str], legs: Legs) -> list[Pair]:
    """The pairs of a synthetic batch in row form: each hub's `weighted_pairs` in turn."""
    return [pair for hub in hubs for pair in weighted_pairs(legs, hub)]


def folded_hub_pairs(spec: WorkflowSpec, hub: str) -> dict[Pair, int]:
    """Every edge's two legs around the hub as pairs, folded by `fold_pairs`
    (oracle for `weighted_pairs(hub_legs(spec), hub)`)."""
    endpoint = {node.id: node.endpoint for node in spec.nodes}
    pairs: dict[Pair, int] = {}
    for edge in spec.edges:
        for pair in ((endpoint[edge.src], hub), (hub, endpoint[edge.dst])):
            pairs[pair] = pairs.get(pair, 0) + 1
    return fold_pairs(pairs)


def score_pairs(
    region: str,
    metric: Metric,
    pairs: dict[Pair, int],
    measurements: dict[Pair, Measurement],
    failure_penalty: float = DEFAULT_FAILURE_PENALTY,
) -> GraphScore:
    """Each pair's value, or the failure penalty, times its multiplicity,
    summed correctly rounded; inf past the float range (oracle for the
    scores `rank_regions` forms from its flat rows)."""
    terms, failed = [], 0
    for pair, n in pairs.items():
        measurement = measurements[pair]
        terms.append(n * (measurement.value if measurement.success else failure_penalty))
        failed += 0 if measurement.success else n
    try:
        value = math.fsum(terms)
    except OverflowError:
        value = math.inf
    return GraphScore(region, metric, value, failed)


# JSON number texts a document must not take for a float, and how the error shows each
NON_FINITE = {
    "nan": ("NaN", "nan"),
    "inf": ("Infinity", "inf"),
    "-inf": ("-Infinity", "-inf"),
    "huge": ("1" + "0" * 400, "an integer too large for a float"),
}


def with_raw_value(document: str, path: tuple, raw: str) -> str:
    """The JSON document with the value at `path` (keys and indexes) replaced
    by the raw number text, which `json.dumps` could not write."""
    doc = json.loads(document)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = "@raw@"
    return json.dumps(doc).replace('"@raw@"', raw)


def json_dumps_line(m: Measurement) -> str:
    """A cache line as `MeasurementStore.save` once wrote it, with one
    `json.dumps` call per record: the record's fields as a dict in the file's
    sorted key order (reference for the store's formatted lines)."""
    return json.dumps({
        "dst": m.dst, "metric": m.metric.value, "note": m.note, "samples": m.samples,
        "src": m.src, "success": m.success, "taken_at": m.taken_at, "unit": m.unit,
        "value": m.value,
    })


def dict_report_json(report) -> str:
    """A report as `scoring.report_to_json` once wrote it: the whole report
    as one dict, given to one `json.dumps(indent=2)` call (reference for the
    formatted entries)."""
    def score(s):
        return None if s is None else s._asdict()

    return json.dumps({
        "workflow": report.workflow,
        "config": report.config,
        "provenance": report.provenance,
        "generated_at": report.generated_at,
        "entries": [
            {
                "rank": e.rank,
                "region": e.region,
                "final_score": e.final_score,
                "shortlisted": e.shortlisted,
                "distance_score": score(e.distance_score),
                "ping_score": score(e.ping_score),
                "http_score": score(e.http_score),
            }
            for e in report.entries
        ],
    }, indent=2) + "\n"


def fixed_value_provider(
    metric: Metric,
    values: dict[Pair, float],
    failures: set[Pair] | None = None,
    call_log: list | None = None,
):
    """Provider that serves prescribed per-pair values (unknown pairs fail)."""
    failures = failures or set()
    unit = "km" if metric is Metric.DISTANCE else "ms"

    def provider(pair: Pair) -> Measurement:
        if call_log is not None:
            call_log.append((pair, metric))
        ok = pair in values and pair not in failures
        return Measurement(
            src=pair[0],
            dst=pair[1],
            metric=metric,
            value=values.get(pair, 0.0) if ok else 0.0,
            unit=unit,
            samples=1,
            success=ok,
            taken_at=1.0e9,
            note="fixture",
        )

    return provider


def per_region_edge_providers(catalog, edge_values: dict[str, dict[Metric, float]]):
    """Providers where every candidate edge of region R under metric M weighs
    edge_values[R][M]; lets tests dial exact per-region scores."""
    by_host = {r.probe_host: r.id for r in catalog.regions}

    def make(metric: Metric):
        def provider(pair: Pair) -> Measurement:
            region_id = by_host.get(pair[0]) or by_host.get(pair[1])
            value = edge_values[region_id][metric]
            return Measurement(
                src=pair[0],
                dst=pair[1],
                metric=metric,
                value=value,
                unit="km" if metric is Metric.DISTANCE else "ms",
                samples=1,
                success=True,
                taken_at=1.0e9,
                note="fixture",
            )

        return provider

    return {metric: make(metric) for metric in Metric}


def average_ranks(values: list[float]) -> list[float]:
    """Ranks 1..n with ties sharing their average rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman(xs: list[float], ys: list[float]) -> float:
    """Spearman rank correlation with average ranks for ties."""
    rx, ry = average_ranks(xs), average_ranks(ys)
    n = len(rx)
    mx, my = sum(rx) / n, sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = math.sqrt(sum((a - mx) ** 2 for a in rx))
    vy = math.sqrt(sum((b - my) ** 2 for b in ry))
    if vx == 0 or vy == 0:
        return 1.0 if rx == ry else 0.0
    return cov / (vx * vy)


# -- random synthetic inputs for the ranking properties ----------------------------

HOSTS = [f"h{i}.example.net" for i in range(6)]
COORDS = st.tuples(st.floats(min_value=-60, max_value=60), st.floats(min_value=-179, max_value=179))


@st.composite
def synthetic_inputs(draw):
    """A random DAG whose nodes may share endpoints (one location per
    endpoint), and a catalog whose hubs may be node endpoints."""
    hosts = draw(st.lists(st.sampled_from(HOSTS), min_size=2, max_size=6, unique=True))
    where = {host: Coordinate(*draw(COORDS)) for host in hosts}
    n = draw(st.integers(min_value=2, max_value=8))
    endpoints = [draw(st.sampled_from(hosts)) for _ in range(n)]
    nodes = tuple(WorkflowNode(id=f"n{i}", endpoint=e, location=where[e])
                  for i, e in enumerate(endpoints))
    links = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=14))
    edges = tuple(dict.fromkeys(
        WorkflowEdge(f"n{min(u, v)}", f"n{max(u, v)}") for u, v in links if u != v
    ))
    region_hosts = draw(st.lists(st.sampled_from(hosts + ["r0.example.org", "r1.example.org"]),
                                 min_size=1, max_size=5, unique=True))
    catalog = RegionCatalog(tuple(
        Region(f"r{i}", host, where.get(host) or Coordinate(*draw(COORDS)))
        for i, host in enumerate(region_hosts)
    ))
    return WorkflowSpec(name="random", nodes=nodes, edges=edges), catalog
