"""The cold batch path: a ranking counts the workflow's legs once, an
endpoint's two directions folded into one, instead of folding each region's
pairs, and measures each metric as one batch over every region it scores,
`MeasurementStore.put_synthetic` checks a batch's values once by the rule
every `Measurement` keeps, and `collect_measurements` answers in pair order
whether or not pairs share a store key."""

import concurrent.futures
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudforecast import measurement, scoring
from cloudforecast.candidates import Metric, hub_legs, weighted_pairs
from cloudforecast.cli import main
from cloudforecast.geo import Coordinate, Region, RegionCatalog, default_region_catalog
from cloudforecast.measurement import (
    Measurement,
    MeasurementStore,
    SyntheticNetworkModel,
    check_measured,
    collect_measurements,
    synthetic_providers,
)
from cloudforecast.scoring import ScoringConfig, rank_regions
from cloudforecast.workflow import WorkflowEdge, WorkflowNode, WorkflowSpec, parse_workflow
from conftest import FIG1_DOC
from helpers import SUBSETS, canonical_key, folded_hub_pairs, synthetic_inputs

# node id -> endpoint: "a" and "c" share one, and "hub" is also a hub drawn below
NODES = {"a": "e0", "b": "e1", "c": "e0", "d": "hub", "f": "e2"}


def _spec(edges):
    return WorkflowSpec(name="legs",
                        nodes=tuple(WorkflowNode(id=n, endpoint=e) for n, e in NODES.items()),
                        edges=tuple(WorkflowEdge(src, dst) for src, dst in edges))


# -- counting the legs once ---------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(
    edges=st.lists(st.tuples(st.sampled_from(list(NODES)), st.sampled_from(list(NODES))),
                   max_size=8),
    hub=st.sampled_from(sorted(set(NODES.values())) + ["other"]),
)
def test_counting_the_legs_once_equals_folding_each_hubs_pairs(edges, hub):
    spec = _spec(edges)
    reference = folded_hub_pairs(spec, hub)
    assert list(weighted_pairs(hub_legs(spec), hub).items()) == list(reference.items())


def test_hub_legs_keeps_each_endpoints_first_seen_direction_and_sums():
    # e is first seen as a destination, f as a source, g as a destination
    spec = WorkflowSpec(name="dirs",
                        nodes=tuple(WorkflowNode(id=n, endpoint=n) for n in "efg"),
                        edges=(WorkflowEdge("f", "e"), WorkflowEdge("e", "g"),
                               WorkflowEdge("e", "f"), WorkflowEdge("g", "e")))
    assert list(hub_legs(spec).items()) == [(("f", True), 2), (("e", False), 4),
                                            (("g", False), 2)]


def test_hub_legs_counts_an_edge_between_two_nodes_of_one_endpoint_as_one_leg():
    # "a" and "c" share e0, so the edge's to-hub and from-hub legs are one store key
    legs = hub_legs(_spec([("a", "c"), ("c", "b")]))
    assert list(legs.items()) == [(("e0", True), 3), (("e1", False), 1)]
    assert list(weighted_pairs(legs, "hub").items()) == [(("e0", "hub"), 3), (("hub", "e1"), 1)]


SPEC = WorkflowSpec(
    name="folds",
    nodes=tuple(WorkflowNode(id=n, endpoint=e, location=Coordinate(*at))
                for n, e, at in [("a", "x.example.org", (0, 0)), ("b", "y.example.org", (1, 1)),
                                 ("c", "x.example.org", (0, 0)),
                                 ("d", "r1.example.org", (10, -10))]),
    edges=(WorkflowEdge("a", "b"), WorkflowEdge("b", "c"), WorkflowEdge("c", "d")),
)


@pytest.mark.parametrize("subset", sorted(SUBSETS))
def test_a_ranking_counts_the_legs_once_and_folds_no_regions_pairs(subset, monkeypatch):
    catalog = RegionCatalog(tuple(
        Region(f"r{i}", f"r{i}.example.org", Coordinate(10 * i, -10 * i)) for i in range(4)
    ))
    counted = []
    monkeypatch.setattr(scoring, "hub_legs", lambda spec: counted.append(spec) or hub_legs(spec))
    synthetic = synthetic_providers(SyntheticNetworkModel(), measurement.location_index(SPEC, catalog))
    providers = {metric: p for metric, p in synthetic.items() if metric in SUBSETS[subset]}
    report = rank_regions(SPEC, catalog, MeasurementStore(), providers, ScoringConfig(shortlist_n=2))
    assert counted == [SPEC]
    assert len(report.entries) == 4


@settings(max_examples=100, deadline=None)
@given(
    inputs=synthetic_inputs(),
    subset=st.sampled_from(sorted(SUBSETS)),
    shortlist_n=st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
    distance_provider=st.booleans(),
)
def test_a_ranking_looks_up_each_regions_folded_pairs_for_every_metric(inputs, subset,
                                                                        shortlist_n,
                                                                        distance_provider):
    spec, catalog = inputs
    metrics = SUBSETS[subset]
    locations = measurement.location_index(spec, catalog)
    providers = {metric: p for metric, p in synthetic_providers(SyntheticNetworkModel(),
                                                                 locations).items()
                 if metric in metrics}
    if distance_provider:  # measured through the store; otherwise computed without it
        providers[Metric.DISTANCE] = lambda pair: measurement.measure_distance(pair, locations)
    # a batch through a provider, or, with the distance computed, the synthetic
    # batch the store keeps from the distance pass's kilometre rows
    lookups, batches = [], {"provider": 0, "rows": 0}

    def provided(store, pairs, metric, *rest):
        lookups.append((metric, pairs))
        batches["provider"] += 1
        return collect_measurements(store, pairs, metric, *rest)

    def from_rows(store, pairs, values, metric):
        lookups.append((metric, pairs))
        batches["rows"] += 1
        return put_synthetic(store, pairs, values, metric)

    put_synthetic = MeasurementStore.put_synthetic
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(scoring, "collect_measurements", provided)
        monkeypatch.setattr(MeasurementStore, "put_synthetic", from_rows)
        report = rank_regions(spec, catalog, MeasurementStore(), providers,
                              ScoringConfig(shortlist_n=shortlist_n))

    def keys(region_id):  # one pair per store key, as the per-hub oracle folds them
        return list(folded_hub_pairs(spec, catalog.by_id(region_id).probe_host))

    # one lookup per provider's metric: distance over every region in catalog
    # order, then each other metric over the shortlist in distance order, the
    # regions' folded pairs concatenated
    shortlist = sorted((e for e in report.entries if e.shortlisted),
                       key=lambda e: (e.distance_score.value, e.region))
    expected = [(Metric.DISTANCE, [pair for region_id in [r.id for r in catalog.regions] for pair in keys(region_id)])
                ] if distance_provider else []
    expected += [
        (metric, [pair for e in shortlist for pair in keys(e.region)])
        for metric in (Metric.PING, Metric.HTTP_RTT) if metric in metrics
    ]
    assert lookups == expected
    measured = len(metrics) - 1  # ping and HTTP, as asked
    assert batches == ({"provider": 1 + measured, "rows": 0} if distance_provider
                       else {"provider": 0, "rows": measured})


def _ranked(report):
    """Everything a ranking reports but its time, with each score to the bit."""
    def exact(score):
        return None if score is None else (score.metric, score.value.hex(), score.failed_edges)

    return [(e.rank, e.region, e.shortlisted, e.final_score.hex(), exact(e.distance_score),
             exact(e.ping_score), exact(e.http_score)) for e in report.entries], report.provenance


@settings(max_examples=100, deadline=None)
@given(
    inputs=synthetic_inputs(),
    subset=st.sampled_from(sorted(SUBSETS)),
    shortlist_n=st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
    data=st.data(),
)
def test_permuting_the_catalog_leaves_the_ranking_unchanged(inputs, subset, shortlist_n, data):
    spec, catalog = inputs
    shuffled = RegionCatalog(tuple(data.draw(st.permutations(catalog.regions))))
    reports = []
    for regions in (catalog, shuffled):
        synthetic = synthetic_providers(SyntheticNetworkModel(),
                                        measurement.location_index(spec, regions))
        reports.append(rank_regions(spec, regions, MeasurementStore(),
                                    {metric: p for metric, p in synthetic.items()
                                     if metric in SUBSETS[subset]},
                                    ScoringConfig(shortlist_n=shortlist_n)))
    assert _ranked(reports[0]) == _ranked(reports[1])


# -- one probe pool per metric in the live modes ------------------------------------

@pytest.mark.parametrize("command", ["analyze", "probe"])
def test_a_local_run_builds_one_pool_per_metric_and_probes_each_key_once(command, fig1_file,
                                                                         capsys, monkeypatch):
    pools, pinged, fetched = [], [], []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(measurement.EchoProber, "probe",
                        lambda self, host, timeout_s: pinged.append(host) or 1.0)
    monkeypatch.setattr(measurement, "http_get_ms",
                        lambda url, timeout_s: fetched.append(url) or 2.0)
    code = main([command, "-w", fig1_file, "--probe-mode", "local", "--samples-per-pair", "1",
                 "--max-parallel-probes", "8"])
    assert code == 0, capsys.readouterr().err

    assert len(pools) <= len(Metric)
    spec, catalog = parse_workflow(FIG1_DOC), default_region_catalog()
    keys = {canonical_key(pair, Metric.PING) for region in catalog.regions
            for pair in weighted_pairs(hub_legs(spec), region.probe_host)}
    assert len(pinged) == len(fetched) == len(keys)


# -- one check per batch --------------------------------------------------------------

PAIR = ("a.example.org", "b.example.org")
CANDIDATES = [0.0, -0.0, 1.5, 1e308, -1e-300, -1.0, math.nan, math.inf, -math.inf]


def _measurement_error(value):
    try:
        Measurement(*PAIR, Metric.PING, value, "ms", 1, True, 1.0e9, "synthetic")
    except ValueError as exc:
        return str(exc)
    return None


def _batch_error(values):
    """`put_synthetic`'s error for the values of distinct pairs, None if it stores them."""
    store = MeasurementStore()
    pairs = [(f"h{i}.example.org", "hub.example.org") for i in range(len(values))]
    try:
        store.put_synthetic(pairs, list(values), Metric.PING)
    except ValueError as exc:
        assert len(store) == 0  # a refused batch stores nothing
        return str(exc)
    records = [store.get(pair, Metric.PING) for pair in pairs]
    assert all(type(m) is Measurement for m in records)
    assert [m.value for m in records] == list(values)
    return None


@pytest.mark.parametrize("value", CANDIDATES, ids=repr)
def test_put_synthetic_rejects_a_value_as_measurement_does(value):
    assert _batch_error([value]) == _measurement_error(value)


@settings(max_examples=150, deadline=None)
@given(values=st.lists(st.sampled_from(CANDIDATES), min_size=1, max_size=6))
def test_put_synthetic_rejects_a_batch_when_measurement_rejects_one_value(values):
    rejected = _batch_error(values) is not None
    assert rejected == any(_measurement_error(v) is not None for v in values)


def test_check_measured_is_the_rule_of_every_field():
    check_measured([], 1, True, 0.0, "ms", "ms")  # an empty batch has nothing to reject
    for args, message in [
        (((-1.0,), 1, True, 0.0), "successful measurement value must be >= 0"),
        (((1.0,), 0, True, 0.0), "samples must be >= 1"),
        (((1.0,), True, True, 0.0), "samples must be an integer, got True"),
        (((1.0,), 2.5, True, 0.0), "samples must be an integer, got 2.5"),
        (((1.0,), math.nan, True, 0.0), "samples must be an integer, got nan"),
        (((1.0,), math.inf, True, 0.0), "samples must be an integer, got inf"),
        (((1.0,), 1, "false", 0.0), "success must be true or false, got 'false'"),
        (((math.nan,), 1, True, 0.0), "successful measurement value must be finite, got nan"),
        (((1.0,), 1, True, math.inf), "taken_at must be a finite number, got inf"),
        (((1.0,), 1, True, "now"), "taken_at must be a finite number, got 'now'"),
        (((10**400,), 1, True, 0.0),
         "successful measurement value must be finite, got an integer too large for a float"),
        (((1.0,), 1, True, 10**400),
         "taken_at must be a finite number, got an integer too large for a float"),
    ]:
        with pytest.raises(ValueError) as info:
            check_measured(*args, "ms", "ms")
        assert str(info.value) == message
    for unit in ("km", None, 1):
        with pytest.raises(ValueError) as info:
            check_measured((1.0,), 1, True, 0.0, unit, "ms")
        assert str(info.value) == f"unit must be 'ms' for this metric, got {unit!r}"
    # a failure may carry any value, a non-finite one included
    check_measured((math.nan, -math.inf), 1, False, 0.0, "ms", "ms")


# -- pair order, whether or not pairs share a key ---------------------------------------

class Recorder:
    """Per-pair provider that records each pair it is asked for."""

    def __init__(self):
        self.asked = []

    def __call__(self, pair):
        self.asked.append(pair)
        s, d = pair
        return Measurement(s, d, Metric.PING, float(len(s + d)), "ms", 1, True, 1.0e12)


@pytest.mark.parametrize("pairs, asked", [
    ([("a", "b"), ("c", "a"), ("b", "c")], [("a", "b"), ("c", "a"), ("b", "c")]),
    ([("a", "b"), ("b", "a"), ("a", "b"), ("c", "a")], [("a", "b"), ("c", "a")]),
], ids=["each-its-own-miss", "shared-keys"])
def test_collect_measurements_answers_in_pair_order_either_way(pairs, asked):
    store, provider = MeasurementStore(), Recorder()
    measured = collect_measurements(store, pairs, Metric.PING, provider)
    assert provider.asked == asked
    assert list(measured) == list(dict.fromkeys(pairs))
    for (src, dst), m in measured.items():
        assert {m.src, m.dst} == {src, dst}
    assert len(store) == len(asked)
