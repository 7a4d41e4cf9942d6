import json
import math
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudforecast import measurement
from cloudforecast.candidates import (
    Metric,
    build_candidate_graph,
    hub_legs,
    measurement_pairs,
    weighted_pairs,
)
from cloudforecast.errors import MissingMeasurementError
from cloudforecast.geo import Coordinate, Region, RegionCatalog
from cloudforecast.measurement import (
    Measurement,
    MeasurementStore,
    ProbeConfig,
    SyntheticNetworkModel,
    agent_providers,
    location_index,
    synthetic_providers,
)
from cloudforecast.scoring import (
    GraphScore,
    RankingReport,
    ScoringConfig,
    final_score,
    rank_regions,
    render_report,
    report_to_json,
    score_graph,
    shortlist_by_distance,
)
from cloudforecast.workflow import WorkflowEdge, WorkflowNode, WorkflowSpec
from conftest import EXPECTED_RANKING, REFERENCE_FINAL_SCORES
from helpers import (
    CrcAgentClient,
    canonical_key,
    fixed_value_provider,
    fold_pairs,
    per_region_edge_providers,
    score_pairs,
)

REGION = Region("r1", "r1.example.org", Coordinate(0, 0))

PATH_SPEC = WorkflowSpec(
    name="path3",
    nodes=(
        WorkflowNode(id="A", endpoint="a.example.org", role="source"),
        WorkflowNode(id="B", endpoint="b.example.org"),
        WorkflowNode(id="C", endpoint="c.example.org"),
    ),
    edges=(WorkflowEdge("A", "B"), WorkflowEdge("B", "C")),
)


def _graph(metric=Metric.PING):
    return build_candidate_graph(PATH_SPEC, REGION, metric)


def _measure_all(graph, values, failures=frozenset()):
    provider = fixed_value_provider(graph.metric, values, set(failures))
    return {e.pair: provider(e.pair) for e in graph.edges}


def _pair_values(graph, per_edge):
    return {e.pair: v for e, v in zip(graph.edges, per_edge)}


def test_score_graph_sums_edge_values():
    graph = _graph()
    measurements = _measure_all(graph, _pair_values(graph, [10, 20, 30, 40]))
    score = score_graph(graph, measurements)
    assert score.value == 100.0
    assert score.failed_edges == 0


def test_score_graph_empty_graph_is_zero():
    solo = WorkflowSpec(name="solo", nodes=(WorkflowNode(id="A", endpoint="a.example.org"),))
    graph = build_candidate_graph(solo, REGION, Metric.PING)
    assert score_graph(graph, {}).value == 0.0


def test_score_graph_penalizes_failures():
    graph = _graph()
    values = _pair_values(graph, [10, 20, 30, 999])
    failed_pair = graph.edges[3].pair
    measurements = _measure_all(graph, values, failures={failed_pair})
    score = score_graph(graph, measurements, failure_penalty=1.0e8)
    assert score.value == pytest.approx(1.0e8 + 60.0)
    assert score.failed_edges == 1


def test_score_graph_missing_measurement_names_pair():
    graph = _graph()
    measurements = _measure_all(graph, _pair_values(graph, [1, 2, 3, 4]))
    del measurements[graph.edges[2].pair]
    with pytest.raises(MissingMeasurementError, match=graph.edges[2].src):
        score_graph(graph, measurements)


@given(
    per_edge=st.lists(
        st.floats(min_value=0.001, max_value=1e6), min_size=4, max_size=4
    ),
    c=st.floats(min_value=0.001, max_value=1e3),
)
def test_score_graph_is_linear(per_edge, c):
    graph = _graph()
    base = score_graph(graph, _measure_all(graph, _pair_values(graph, per_edge)))
    scaled = score_graph(
        graph, _measure_all(graph, _pair_values(graph, [v * c for v in per_edge]))
    )
    assert scaled.value == pytest.approx(c * base.value, rel=1e-9)


def _dscore(region, value):
    return GraphScore(region=region, metric=Metric.DISTANCE, value=value)


def test_shortlist_selects_n_smallest():
    scores = [_dscore("A", 100), _dscore("B", 50), _dscore("C", 200)]
    shortlisted, remainder = shortlist_by_distance(scores, 2)
    assert shortlisted == ["B", "A"]
    assert remainder == ["C"]


def test_shortlist_n_covering_everything():
    scores = [_dscore(r, i) for i, r in enumerate("ABCDEFGH")]
    shortlisted, remainder = shortlist_by_distance(scores, 8)
    assert len(shortlisted) == 8 and remainder == []


def test_a_shortlist_of_no_region_is_refused():
    with pytest.raises(ValueError, match="shortlist size must be >= 1"):
        shortlist_by_distance([_dscore("A", 10)], 0)


def test_shortlist_tie_breaks_lexicographically():
    shortlisted, remainder = shortlist_by_distance([_dscore("B", 10), _dscore("A", 10)], 1)
    assert shortlisted == ["A"] and remainder == ["B"]


def test_final_score_weighted_sum():
    ping = GraphScore("r", Metric.PING, 100.0)
    http = GraphScore("r", Metric.HTTP_RTT, 200.0)
    assert final_score(ping, http, ScoringConfig()) == 300.0
    assert final_score(ping, http, ScoringConfig(weight_ping=1, weight_http=0)) == 100.0


def test_a_sum_past_the_float_range_is_infinite():
    # two failed legs at a penalty near the float maximum
    measured = {("a", "h"): Measurement("a", "h", Metric.PING, 0.0, "ms", 1, False, 0.0),
                ("b", "h"): Measurement("b", "h", Metric.PING, 0.0, "ms", 1, False, 0.0)}
    pairs = {("a", "h"): 1, ("b", "h"): 1}
    score = score_pairs("r", Metric.PING, pairs, measured, failure_penalty=1.7e308)
    assert (score.value, score.failed_edges) == (math.inf, 2)
    http = GraphScore("r", Metric.HTTP_RTT, 5.0)
    # a weight of 0 leaves the infinite sum out, so the final score is no nan
    assert final_score(score, http, ScoringConfig(weight_ping=0.0)) == 5.0
    assert final_score(score, http, ScoringConfig()) == math.inf


def test_final_score_region_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        final_score(
            GraphScore("r1", Metric.PING, 1.0),
            GraphScore("r2", Metric.HTTP_RTT, 1.0),
            ScoringConfig(),
        )


def test_ranking_reproduces_reference_ranking(fig1_spec, catalog):
    edge_values = {
        region_id: {metric: score / 8.0 for metric in Metric}
        for region_id, score in REFERENCE_FINAL_SCORES.items()
    }
    providers = per_region_edge_providers(catalog, edge_values)
    report = rank_regions(
        fig1_spec, catalog, MeasurementStore(), providers, ScoringConfig(shortlist_n=8)
    )
    assert [e.region for e in report.entries] == EXPECTED_RANKING
    for entry in report.entries:
        assert entry.final_score == pytest.approx(
            REFERENCE_FINAL_SCORES[entry.region], rel=1e-9
        )
        assert entry.shortlisted
    assert [e.rank for e in report.entries] == list(range(1, 9))


def test_single_region_catalog_ranks_first(fig1_spec):
    catalog = RegionCatalog((Region("only", "only.example.org", Coordinate(0, 0)),))
    providers = per_region_edge_providers(catalog, {"only": {m: 1.0 for m in Metric}})
    report = rank_regions(fig1_spec, catalog, MeasurementStore(), providers, ScoringConfig())
    assert len(report.entries) == 1
    assert report.entries[0].rank == 1 and report.entries[0].shortlisted


def test_colocated_region_wins_under_synthetic_model(fig1_spec, catalog):
    # region co-located with every node vs the real geometry: brute-force argmin
    from cloudforecast.measurement import location_index, synthetic_providers, SyntheticNetworkModel

    near = Region("near", "wikimedia.org", Coordinate(37.79, -122.4))
    far = [
        Region(f"far{i}", f"far{i}.example.org", Coordinate(-60 + i, 150))
        for i in range(3)
    ]
    cat = RegionCatalog((near, *far))
    locations = location_index(fig1_spec, cat)
    providers = synthetic_providers(SyntheticNetworkModel(), locations)
    report = rank_regions(fig1_spec, cat, MeasurementStore(), providers, ScoringConfig())

    # independent check: evaluate every region's summed synthetic final score
    def brute_force_score(region):
        total = 0.0
        for metric in (Metric.PING, Metric.HTTP_RTT):
            graph = build_candidate_graph(fig1_spec, region, metric)
            for edge in graph.edges:
                m = providers[metric](edge.pair)
                total += m.value
        return total

    best = min(cat.regions, key=lambda r: (brute_force_score(r), r.id))
    assert report.entries[0].region == best.id == "near"


def test_region_probe_host_with_port_ranks(fig1_spec):
    # probe_host may carry a port; the region must still geolocate by its host
    from cloudforecast.measurement import location_index, synthetic_providers, SyntheticNetworkModel

    cat = RegionCatalog((Region("local", "127.0.0.101:9002", Coordinate(10.0, 20.0)),))
    providers = synthetic_providers(SyntheticNetworkModel(), location_index(fig1_spec, cat))
    report = rank_regions(fig1_spec, cat, MeasurementStore(), providers, ScoringConfig())
    assert [e.region for e in report.entries] == ["local"]
    entry = report.entries[0]
    assert entry.rank == 1 and entry.distance_score.value > 0.0


def test_non_shortlisted_ranked_by_distance(fig1_spec):
    regions = tuple(
        Region(f"r{i}", f"r{i}.example.org", Coordinate(0, 0)) for i in range(3)
    )
    catalog = RegionCatalog(regions)
    edge_values = {
        "r0": {Metric.DISTANCE: 10.0, Metric.PING: 500.0, Metric.HTTP_RTT: 500.0},
        "r1": {Metric.DISTANCE: 30.0, Metric.PING: 1.0, Metric.HTTP_RTT: 1.0},
        "r2": {Metric.DISTANCE: 20.0, Metric.PING: 1.0, Metric.HTTP_RTT: 1.0},
    }
    providers = per_region_edge_providers(catalog, edge_values)
    report = rank_regions(
        fig1_spec, catalog, MeasurementStore(), providers, ScoringConfig(shortlist_n=1)
    )
    assert [e.region for e in report.entries] == ["r0", "r2", "r1"]
    assert [e.shortlisted for e in report.entries] == [True, False, False]
    # non-shortlisted carry their distance sum as the ordering key
    assert report.entries[1].final_score == report.entries[1].distance_score.value
    assert report.entries[1].ping_score is None


def test_distance_only_ranking(fig1_spec):
    regions = tuple(
        Region(f"r{i}", f"r{i}.example.org", Coordinate(0, 0)) for i in range(2)
    )
    catalog = RegionCatalog(regions)
    edge_values = {
        "r0": {Metric.DISTANCE: 50.0},
        "r1": {Metric.DISTANCE: 5.0},
    }
    providers = {
        Metric.DISTANCE: per_region_edge_providers(
            catalog, {k: {**v, Metric.PING: 0, Metric.HTTP_RTT: 0} for k, v in edge_values.items()}
        )[Metric.DISTANCE]
    }
    report = rank_regions(fig1_spec, catalog, MeasurementStore(), providers, ScoringConfig())
    assert [e.region for e in report.entries] == ["r1", "r0"]
    assert report.entries[0].final_score == report.entries[0].distance_score.value


def test_ping_only_ranking_uses_ping_weight(fig1_spec):
    catalog = RegionCatalog(
        (Region("r0", "r0.example.org", Coordinate(0, 0)),
         Region("r1", "r1.example.org", Coordinate(0, 1)))
    )
    edge_values = {
        "r0": {Metric.DISTANCE: 1.0, Metric.PING: 10.0, Metric.HTTP_RTT: 0.0},
        "r1": {Metric.DISTANCE: 2.0, Metric.PING: 3.0, Metric.HTTP_RTT: 0.0},
    }
    full = per_region_edge_providers(catalog, edge_values)
    providers = {Metric.DISTANCE: full[Metric.DISTANCE], Metric.PING: full[Metric.PING]}
    config = ScoringConfig(weight_ping=2.0)
    report = rank_regions(fig1_spec, catalog, MeasurementStore(), providers, config)
    # 4 candidate edges x per-edge ping x weight 2
    assert report.entries[0].region == "r1"
    assert report.entries[0].final_score == pytest.approx(2.0 * 4 * 3.0)
    assert report.entries[0].http_score is None


def test_render_rejects_unknown_format():
    report = RankingReport(workflow="x", entries=(), config={}, provenance={})
    with pytest.raises(ValueError, match="unknown report format"):
        render_report(report, "xml")


def _report_doc(report):
    """The document a report renders to as JSON: every field of the report,
    of its entries and of their scores, entries as a list."""
    def score(s):
        return None if s is None else s._asdict()

    doc = report._asdict()
    doc["entries"] = [
        {**e._asdict(), "distance_score": score(e.distance_score),
         "ping_score": score(e.ping_score), "http_score": score(e.http_score)}
        for e in report.entries
    ]
    return doc


def test_json_round_trip_with_partial_scores(fig1_spec):
    regions = tuple(
        Region(f"r{i}", f"r{i}.example.org", Coordinate(0, i)) for i in range(3)
    )
    catalog = RegionCatalog(regions)
    edge_values = {rid: {m: float(i + 1) for m in Metric} for i, rid in enumerate([r.id for r in catalog.regions])}
    report = rank_regions(
        fig1_spec, catalog, MeasurementStore(),
        per_region_edge_providers(catalog, edge_values),
        ScoringConfig(shortlist_n=1),
    )
    assert report.entries[-1].ping_score is None  # non-shortlisted: distance only
    assert json.loads(report_to_json(report)) == _report_doc(report)


def _random_catalog(n):
    return RegionCatalog(
        tuple(Region(f"r{i}", f"r{i}.example.org", Coordinate(0, i)) for i in range(n))
    )


region_values = st.fixed_dictionaries(
    {
        Metric.DISTANCE: st.floats(min_value=0.1, max_value=1e5),
        Metric.PING: st.floats(min_value=0.1, max_value=1e5),
        Metric.HTTP_RTT: st.floats(min_value=0.1, max_value=1e5),
    }
)


@given(
    values=st.lists(region_values, min_size=2, max_size=6),
    c=st.floats(min_value=0.01, max_value=100.0),
)
@settings(max_examples=120, deadline=None)
def test_scale_argmin_invariance(values, c):
    catalog = _random_catalog(len(values))
    edge_values = {f"r{i}": v for i, v in enumerate(values)}
    scaled = {
        rid: {
            Metric.DISTANCE: v[Metric.DISTANCE],
            Metric.PING: v[Metric.PING] * c,
            Metric.HTTP_RTT: v[Metric.HTTP_RTT] * c,
        }
        for rid, v in edge_values.items()
    }
    base = rank_regions(
        PATH_SPEC, catalog, MeasurementStore(),
        per_region_edge_providers(catalog, edge_values), ScoringConfig(),
    )
    rescaled = rank_regions(
        PATH_SPEC, catalog, MeasurementStore(),
        per_region_edge_providers(catalog, scaled), ScoringConfig(),
    )
    assert [e.region for e in base.entries] == [e.region for e in rescaled.entries]


@given(
    values=st.lists(region_values, min_size=2, max_size=6),
    bump=st.floats(min_value=0.1, max_value=1e6),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_degrading_one_region_never_improves_its_rank(values, bump, data):
    catalog = _random_catalog(len(values))
    edge_values = {f"r{i}": dict(v) for i, v in enumerate(values)}
    victim = data.draw(st.sampled_from(sorted(edge_values)))
    metric = data.draw(st.sampled_from([Metric.PING, Metric.HTTP_RTT]))

    def rank_of(ev):
        report = rank_regions(
            PATH_SPEC, catalog, MeasurementStore(),
            per_region_edge_providers(catalog, ev), ScoringConfig(),
        )
        return next(e.rank for e in report.entries if e.region == victim)

    before = rank_of(edge_values)
    edge_values[victim][metric] += bump
    after = rank_of(edge_values)
    assert after >= before


@given(
    distances=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=10),
    n=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=150)
def test_shortlist_dominance(distances, n):
    scores = [_dscore(f"r{i}", v) for i, v in enumerate(distances)]
    shortlisted, remainder = shortlist_by_distance(scores, n)
    by_id = {s.region: s.value for s in scores}
    assert sorted(shortlisted + remainder) == sorted(by_id)
    if shortlisted and remainder:
        assert max(by_id[r] for r in shortlisted) <= min(by_id[r] for r in remainder)


@given(
    values=st.lists(region_values, min_size=1, max_size=8),
    n=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=120, deadline=None)
def test_ranking_is_contiguous_permutation(values, n):
    catalog = _random_catalog(len(values))
    edge_values = {f"r{i}": v for i, v in enumerate(values)}
    report = rank_regions(
        PATH_SPEC, catalog, MeasurementStore(),
        per_region_edge_providers(catalog, edge_values),
        ScoringConfig(shortlist_n=n),
    )
    assert sorted(e.region for e in report.entries) == sorted([r.id for r in catalog.regions])
    assert [e.rank for e in report.entries] == list(range(1, len(values) + 1))
    flags = [e.shortlisted for e in report.entries]
    assert flags == sorted(flags, reverse=True)  # shortlisted first


def test_render_table_first_row(fig1_spec, catalog):
    edge_values = {
        rid: {m: score / 8.0 for m in Metric}
        for rid, score in REFERENCE_FINAL_SCORES.items()
    }
    report = rank_regions(
        fig1_spec, catalog, MeasurementStore(),
        per_region_edge_providers(catalog, edge_values), ScoringConfig(),
    )
    table = render_report(report, "table")
    first_data_row = table.splitlines()[3]
    assert first_data_row.startswith("1")
    assert "us-east-1" in first_data_row


def test_render_empty_report_is_header_only():
    report = RankingReport(workflow="empty", entries=(), config={}, provenance={})
    table = render_report(report, "table")
    assert "rank" in table and len(table.splitlines()) == 3


def test_render_json_round_trip(fig1_spec, catalog):
    edge_values = {rid: {m: 1.0 for m in Metric} for rid in [r.id for r in catalog.regions]}
    report = rank_regions(
        fig1_spec, catalog, MeasurementStore(),
        per_region_edge_providers(catalog, edge_values), ScoringConfig(),
    )
    assert json.loads(report_to_json(report)) == _report_doc(report)


def test_render_csv_has_all_fields(fig1_spec, catalog):
    edge_values = {rid: {m: 2.0 for m in Metric} for rid in [r.id for r in catalog.regions]}
    report = rank_regions(
        fig1_spec, catalog, MeasurementStore(),
        per_region_edge_providers(catalog, edge_values), ScoringConfig(),
    )
    lines = render_report(report, "csv").splitlines()
    assert lines[0] == "rank,region,final_score,shortlisted,distance_km,ping_ms,http_ms,failed_edges"
    assert len(lines) == 9


def test_scoring_config_invariants():
    with pytest.raises(ValueError):
        ScoringConfig(weight_ping=0.0, weight_http=0.0)
    with pytest.raises(ValueError):
        ScoringConfig(shortlist_n=0)
    with pytest.raises(ValueError):
        ScoringConfig(failure_penalty=-1.0)


# -- the weighted-pair core against the per-edge sums ----------------------------

def _checksum_provider(metric, failing=frozenset()):
    """Symmetric fixture provider: the value is a checksum of the unordered
    pair; a pair fails when its endpoint set is in `failing` or by checksum."""

    def provider(pair):
        digest = zlib.crc32("|".join(sorted(pair)).encode())
        ok = frozenset(pair) not in failing and digest % 7 != 0
        return Measurement(
            src=pair[0], dst=pair[1], metric=metric, value=(digest % 997) + 0.25 if ok else 0.0,
            unit="km" if metric is Metric.DISTANCE else "ms", samples=1, success=ok,
            taken_at=1.0e9, note="fixture",
        )

    return provider


def _per_edge_score(spec, region, metric, provider, penalty):
    """The candidate graph's score summed edge by edge."""
    graph = build_candidate_graph(spec, region, metric)
    return score_graph(graph, {e.pair: provider(e.pair) for e in graph.edges}, penalty)


def _assert_matches_per_edge_sums(spec, catalog, providers, config):
    report = rank_regions(spec, catalog, MeasurementStore(), providers, config)
    for entry in report.entries:
        region = catalog.by_id(entry.region)
        for score in (entry.distance_score, entry.ping_score, entry.http_score):
            if score is None:
                continue
            want = _per_edge_score(
                spec, region, score.metric, providers[score.metric], config.failure_penalty
            )
            assert score.value == pytest.approx(want.value, rel=1e-12, abs=1e-9)
            assert score.failed_edges == want.failed_edges
    return report


SHARED = "shared.example.org"
HUB = "hub.example.org"

# A and B share one endpoint; C's endpoint is region "hubbed"'s probe host
SHARED_SPEC = WorkflowSpec(
    name="shared",
    nodes=(
        WorkflowNode(id="A", endpoint=SHARED, role="source"),
        WorkflowNode(id="B", endpoint=SHARED, role="source"),
        WorkflowNode(id="C", endpoint=HUB),
        WorkflowNode(id="D", endpoint="http://d.example.org/run"),
        WorkflowNode(id="E", endpoint="e.example.org:8080"),
    ),
    edges=(
        WorkflowEdge("A", "C"), WorkflowEdge("B", "C"), WorkflowEdge("C", "D"),
        WorkflowEdge("A", "D"), WorkflowEdge("B", "E"), WorkflowEdge("D", "E"),
    ),
)
SHARED_CATALOG = RegionCatalog(
    (
        Region("hubbed", HUB, Coordinate(0, 0)),
        Region("r1", "r1.example.org", Coordinate(0, 1)),
        Region("r2", "r2.example.org", Coordinate(0, 2)),
    )
)


def test_weighted_pairs_merge_shared_endpoints_and_hub_legs():
    legs = hub_legs(SHARED_SPEC)
    # A and B are the source of four edges; C and D are first seen as a
    # destination, and their later to-hub leg is counted in that one
    assert list(legs.items()) == [((SHARED, True), 4), ((HUB, False), 3),
                                  (("http://d.example.org/run", False), 3),
                                  (("e.example.org:8080", False), 2)]
    hubbed = weighted_pairs(legs, HUB)
    assert hubbed[(HUB, HUB)] == 3  # C -> hub once, hub -> C twice
    for region in SHARED_CATALOG.regions:
        pairs = weighted_pairs(legs, region.probe_host)
        graph = build_candidate_graph(SHARED_SPEC, region, Metric.PING)
        # the first-seen pair of each store key, in first-seen order
        assert list(pairs) == list(fold_pairs(dict.fromkeys(measurement_pairs(graph), 1)))
        assert sum(pairs.values()) == len(graph.edges) == 12


def test_rank_regions_equals_per_edge_sums_with_failures():
    # the shared endpoint fails towards r1 and the merged (hub, hub) pair fails in "hubbed"
    failing = frozenset({frozenset({SHARED, "r1.example.org"}), frozenset({HUB})})
    providers = {m: _checksum_provider(m, failing) for m in Metric}
    report = _assert_matches_per_edge_sums(
        SHARED_SPEC, SHARED_CATALOG, providers, ScoringConfig(failure_penalty=1.0e4)
    )
    failed = {e.region: e.distance_score.failed_edges for e in report.entries}
    assert failed["r1"] >= 4 and failed["hubbed"] >= 3


POOL = [f"h{i}.example.org" for i in range(5)]
COORDS = st.tuples(
    st.floats(min_value=-60, max_value=60), st.floats(min_value=-179, max_value=179)
)


@st.composite
def workflows(draw, min_nodes=1):
    """Random DAGs over a small endpoint pool, so nodes share endpoints (one
    location per endpoint)."""
    where = {host: Coordinate(*draw(COORDS)) for host in POOL}
    n = draw(st.integers(min_value=min_nodes, max_value=7))
    endpoints = [draw(st.sampled_from(POOL)) for _ in range(n)]
    nodes = tuple(WorkflowNode(id=f"n{i}", endpoint=e, location=where[e])
                  for i, e in enumerate(endpoints))
    links = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    edges = tuple(dict.fromkeys(
        WorkflowEdge(f"n{min(u, v)}", f"n{max(u, v)}") for u, v in links if u != v
    ))
    return WorkflowSpec(name="random", nodes=nodes, edges=edges)


@given(
    spec=workflows(),
    hosts=st.lists(st.sampled_from(POOL + ["r0.example.org", "r1.example.org"]),
                   min_size=1, max_size=4, unique=True),
    failing=st.sets(st.frozensets(st.sampled_from(POOL + ["r0.example.org"]), min_size=1,
                                  max_size=2), max_size=4),
    shortlist_n=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=150, deadline=None)
def test_rank_regions_equals_per_edge_sums_on_random_workflows(spec, hosts, failing, shortlist_n):
    catalog = RegionCatalog(
        tuple(Region(f"r{i}", host, Coordinate(0, i)) for i, host in enumerate(hosts))
    )
    providers = {m: _checksum_provider(m, frozenset(failing)) for m in Metric}
    config = ScoringConfig(shortlist_n=shortlist_n, failure_penalty=5.0e3)
    _assert_matches_per_edge_sums(spec, catalog, providers, config)


@given(
    spec=workflows(min_nodes=2),
    regions=st.lists(COORDS, min_size=1, max_size=5),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_edge_order_does_not_change_the_synthetic_report(spec, regions, data):
    catalog = RegionCatalog(
        tuple(Region(f"r{i}", f"r{i}.example.org", Coordinate(*c)) for i, c in enumerate(regions))
    )
    permuted = WorkflowSpec(
        name=spec.name, nodes=spec.nodes, edges=tuple(data.draw(st.permutations(spec.edges)))
    )

    def report(s):
        providers = synthetic_providers(SyntheticNetworkModel(), location_index(s, catalog))
        config = ScoringConfig(shortlist_n=2)
        return rank_regions(s, catalog, MeasurementStore(), providers, config)

    base, other = report(spec), report(permuted)
    assert [e.region for e in other.entries] == [e.region for e in base.entries]
    for a, b in zip(base.entries, other.entries):
        assert b.shortlisted == a.shortlisted
        assert b.final_score == a.final_score
        for x, y in ((a.distance_score, b.distance_score), (a.ping_score, b.ping_score),
                     (a.http_score, b.http_score)):
            assert (x is None) == (y is None)
            if x is not None:
                assert y.value == x.value


# hosts h2, h0, h0, h1, h0, h2: the sums of r0 and r1 fall within one unit
# in the last place, so an order-dependent sum ranks them by edge order
ULP_TIE_NODES = tuple(
    WorkflowNode(id=f"n{i}", endpoint=f"h{h}.example.org", location=Coordinate(0, lon))
    for i, (h, lon) in enumerate([(2, -8.453125), (0, 0), (0, 0), (1, 0), (0, 0),
                                  (2, -8.453125)])
)
ULP_TIE_CATALOG = RegionCatalog(
    (Region("r0", "r0.example.org", Coordinate(0, 0)),
     Region("r1", "r1.example.org", Coordinate(0, -0.5)))
)


def test_two_regions_one_ulp_apart_rank_the_same_under_any_edge_order():
    def ranking(edges):
        spec = WorkflowSpec(name="ulp-tie", nodes=ULP_TIE_NODES,
                            edges=tuple(WorkflowEdge("n0", f"n{v}") for v in edges))
        providers = synthetic_providers(SyntheticNetworkModel(),
                                        location_index(spec, ULP_TIE_CATALOG))
        report = rank_regions(spec, ULP_TIE_CATALOG, MeasurementStore(), providers,
                              ScoringConfig(shortlist_n=2))
        return [(e.region, e.final_score.hex(),
                 *(s.value.hex() for s in (e.distance_score, e.ping_score, e.http_score)))
                for e in report.entries]

    as_written, permuted = ranking([1, 3, 2]), ranking([3, 1, 2])
    assert permuted == as_written
    assert [row[0] for row in as_written] == ["r1", "r0"]


@given(
    spec=workflows(min_nodes=2),
    hosts=st.lists(st.sampled_from(POOL + ["r0.example.org", "r1.example.org"]),
                   min_size=1, max_size=4, unique=True),
    failing=st.sets(st.frozensets(st.sampled_from(POOL + ["r0.example.org"]), min_size=1,
                                  max_size=2), min_size=1, max_size=10),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_edge_order_does_not_change_a_report_with_failures(spec, hosts, failing, data):
    catalog = RegionCatalog(
        tuple(Region(f"r{i}", host, Coordinate(0, i)) for i, host in enumerate(hosts))
    )
    permuted = WorkflowSpec(
        name=spec.name, nodes=spec.nodes, edges=tuple(data.draw(st.permutations(spec.edges)))
    )
    # direction-free values with penalty terms: the per-pair `score_pairs` path;
    # 0.1 has bits below the values' last bit, so sums in edge order round apart
    providers = {m: _checksum_provider(m, frozenset(failing)) for m in Metric}
    config = ScoringConfig(shortlist_n=2, failure_penalty=0.1)

    def report(s):
        ranked = rank_regions(s, catalog, MeasurementStore(), providers, config)
        return report_to_json(ranked._replace(generated_at=None))

    assert report(permuted) == report(spec)


@given(
    spec=workflows(min_nodes=2),
    hosts=st.lists(st.sampled_from(POOL + ["r0.example.org"]), min_size=2, max_size=4,
                   unique=True),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_edge_order_does_not_change_an_agent_report(spec, hosts, data):
    # probe hosts drawn from the endpoint pool: a leg between an endpoint that
    # is one region's probe host and another region's probe host has two
    # agents, and `CrcAgentClient` answers differently from each. A region
    # probed at a node's host sits at that node's position.
    placed = {node.endpoint: node.location for node in spec.nodes}
    catalog = RegionCatalog(tuple(Region(f"r{i}", host, placed.get(host, Coordinate(0, i)))
                                  for i, host in enumerate(hosts)))
    permuted = WorkflowSpec(
        name=spec.name, nodes=spec.nodes, edges=tuple(data.draw(st.permutations(spec.edges)))
    )
    providers = agent_providers(catalog, ProbeConfig(samples_per_pair=1))

    def report(s):
        ranked = rank_regions(s, catalog, MeasurementStore(), providers, ScoringConfig(shortlist_n=2))
        return report_to_json(ranked._replace(generated_at=None))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measurement, "AgentClient", CrcAgentClient)
        assert report(permuted) == report(spec)


class CountingStore(MeasurementStore):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.gets = []

    def get_many(self, pairs, metric, now=None):
        pairs = list(pairs)
        self.gets.extend(canonical_key(pair, metric) for pair in pairs)
        return super().get_many(pairs, metric, now)


def test_rank_regions_looks_each_store_key_up_once():
    providers = {m: _checksum_provider(m) for m in Metric}
    calls = []
    counted = {m: (lambda pair, p=p: calls.append(pair) or p(pair)) for m, p in providers.items()}
    store = CountingStore()
    rank_regions(SHARED_SPEC, SHARED_CATALOG, store, counted, ScoringConfig())
    assert len(store.gets) == len(set(store.gets)) == len(store) == len(calls)
    hub = SHARED_CATALOG.by_id("r1").probe_host
    assert (hub, HUB) in calls  # edge A -> C routes hub -> C first
    assert (HUB, hub) not in calls  # the later (C, hub) leg is folded into it, not looked up


def test_fold_pairs_keeps_the_first_seen_pair_and_sums():
    pairs = {("e", "h"): 2, ("h", "f"): 1, ("h", "e"): 3, ("h", "h"): 4}
    assert fold_pairs(pairs) == {("e", "h"): 5, ("h", "f"): 1, ("h", "h"): 4}
    assert list(fold_pairs(pairs)) == [("e", "h"), ("h", "f"), ("h", "h")]
