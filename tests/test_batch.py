"""The batch measurement path: the store's `get_many` / `put_many`,
`collect_measurements` over a batch, the synthetic records, the tuple-built
`Measurement`, and the synthetic shortlist scored from the distance pass's
kilometre rows with its records stored by `MeasurementStore.put_synthetic`."""

import concurrent.futures
import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudforecast import measurement, scoring
from cloudforecast.candidates import Metric, hub_legs, weighted_pairs
from cloudforecast.cli import main
from cloudforecast.geo import (
    Coordinate,
    LocationTable,
    Region,
    RegionCatalog,
    default_region_catalog,
    km_row,
    prepare_point,
)
from cloudforecast.measurement import (
    Measurement,
    MeasurementStore,
    SyntheticNetworkModel,
    collect_measurements,
    location_index,
    synthetic_measure,
    synthetic_providers,
)
from cloudforecast.scoring import ScoringConfig, rank_regions
from cloudforecast.workflow import WorkflowEdge, WorkflowSpec, parse_workflow
from conftest import FIG1_DOC
from helpers import (SUBSETS, canonical_key, folded_hub_pairs, row_pairs, score_pairs,
                     synthetic_inputs)

MODEL = SyntheticNetworkModel()

GOOD = dict(src="a", dst="b", metric=Metric.PING, value=1.5, unit="ms", samples=2,
            success=True, taken_at=1.0e9, note="fixture")


def _m(src, dst, metric=Metric.PING, value=1.0, taken_at=None):
    taken_at = time.time() if taken_at is None else taken_at
    return Measurement(src, dst, metric, value, measurement.UNIT_BY_METRIC[metric], 1, True,
                       taken_at)


class Counting:
    """Per-pair provider that records each pair it measures."""

    def __init__(self, metric=Metric.PING):
        self.metric, self.pairs = metric, []

    def __call__(self, pair):
        self.pairs.append(pair)
        return _m(pair[0], pair[1], self.metric)


# -- Measurement: an immutable, checked value ------------------------------------

@pytest.mark.parametrize("field, bad, message", [
    ("value", -0.5, "successful measurement value must be >= 0"),
    ("samples", 0, "samples must be >= 1"),
])
def test_measurement_every_constructor_checks(field, bad, message):
    record = {**GOOD, field: bad}
    builds = {
        "positional": lambda: Measurement(*record.values()),
        "keyword": lambda: Measurement(**record),
        "mixed": lambda: Measurement("a", "b", **{k: v for k, v in record.items()
                                                  if k not in ("src", "dst")}),
        "_make": lambda: Measurement._make(record.values()),
        "_replace": lambda: Measurement(**GOOD)._replace(**{field: bad}),
    }
    for name, build in builds.items():
        with pytest.raises(ValueError, match=message):
            build()
            pytest.fail(f"{name} built {record}")


def test_measurement_failure_may_carry_any_value():
    assert Measurement(**{**GOOD, "value": -1.0, "success": False}).value == -1.0


def test_measurement_fields_and_default_note():
    m = Measurement(**{k: v for k, v in GOOD.items() if k != "note"})
    assert m.note == ""
    assert Measurement._fields == tuple(GOOD)
    assert Measurement(**GOOD)._replace(value=3.0).value == 3.0


def test_measurement_is_immutable():
    m = Measurement(**GOOD)
    for name in ("value", "success", "note"):
        with pytest.raises(AttributeError):
            setattr(m, name, 0)
    with pytest.raises(AttributeError):
        m.extra = 1
    assert m == Measurement(**GOOD)


def test_measurements_with_equal_fields_are_equal_and_hash_alike():
    a, b = Measurement(**GOOD), Measurement(*GOOD.values())
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    for field, other in (("value", 1.25), ("metric", Metric.HTTP_RTT), ("note", "")):
        c = Measurement(**{**GOOD, field: other})
        assert c != a


# -- the store's batch API --------------------------------------------------------

def test_get_many_maps_each_missing_key_to_its_first_pair_in_first_seen_order():
    store = MeasurementStore()
    hit = _m("a", "b")
    store.put_many([hit])
    pairs = [("c", "d"), ("b", "a"), ("d", "c"), ("a", "b"), ("f", "e"), ("c", "d")]
    found, first = store.get_many(pairs, Metric.PING)
    assert list(found) == [("b", "a"), ("a", "b")] and set(found.values()) == {hit}
    assert list(first.items()) == [(("c", "d"), 0), (("e", "f"), 4)]


def test_get_many_reads_the_clock_once(monkeypatch):
    store = MeasurementStore()
    store.put_many([_m("a", "b"), _m("c", "d")])
    clock = []
    monkeypatch.setattr(measurement.time, "time", lambda: clock.append(1) or 2.0e9 - 1)
    store.get_many([("a", "b"), ("c", "d"), ("e", "f")], Metric.PING)
    assert len(clock) == 1


def test_put_many_keys_each_measurement_by_its_own_pair():
    store = MeasurementStore()
    store.put_many([_m("b", "a"), _m("b", "a", Metric.HTTP_RTT), _m("c", "d", value=2.0)])
    assert len(store) == 3
    for metric in (Metric.PING, Metric.HTTP_RTT):  # both directions read the one entry
        assert store.get(("a", "b"), metric) is store.get(("b", "a"), metric)
        assert store.get(("a", "b"), metric).src == "b"
    assert store.get(("d", "c"), Metric.PING).value == 2.0
    assert store.get(("c", "d"), Metric.HTTP_RTT) is None  # each metric its own table


def _cache_with_an_expired_record(path):
    store = MeasurementStore()
    store.put_many([_m("a", "b", taken_at=time.time() - 100.0), _m("c", "d")])
    store.save(str(path))
    return MeasurementStore.load(str(path), ttl_s=50.0)


def test_an_expired_entry_read_through_get_many_is_dropped_and_the_file_rewritten(tmp_path):
    path = tmp_path / "probes.cache"
    store = _cache_with_an_expired_record(path)
    found, first = store.get_many([("a", "b"), ("c", "d")], Metric.PING)
    assert list(found) == [("c", "d")] and first == {("a", "b"): 0}
    assert len(store) == 1
    store.save(str(path))  # the eviction alone makes the file stale
    assert [json.loads(line)["src"] for line in path.read_text().splitlines()] == ["c"]


def test_an_expired_entry_is_measured_again_through_collect(tmp_path):
    store = _cache_with_an_expired_record(tmp_path / "probes.cache")
    provider = Counting()
    measured = collect_measurements(store, [("a", "b"), ("c", "d")], Metric.PING, provider)
    assert provider.pairs == [("a", "b")]
    assert measured[("a", "b")].taken_at > time.time() - 50.0
    assert len(store) == 2


# -- collect_measurements over a batch --------------------------------------------

BOTH_WAYS = [("x", "hub"), ("hub", "x"), ("hub", "y"), ("y", "hub"), ("hub", "hub")]


@pytest.mark.parametrize("max_parallel", [1, 4])
def test_both_directions_of_a_pair_in_one_batch_are_measured_once(max_parallel):
    store = MeasurementStore()
    provider = Counting()
    measured = collect_measurements(store, BOTH_WAYS, Metric.PING, provider, max_parallel)
    assert sorted(provider.pairs) == [("hub", "hub"), ("hub", "y"), ("x", "hub")]
    assert list(measured) == BOTH_WAYS
    assert measured[("hub", "x")] is measured[("x", "hub")]
    assert measured[("y", "hub")] is measured[("hub", "y")]
    assert len(store) == 3


def test_a_provider_is_asked_for_each_missing_key_once():
    store = MeasurementStore()
    store.put_many([_m("hub", "y")])
    provider = Counting()
    measured = collect_measurements(store, BOTH_WAYS, Metric.PING, provider, max_parallel=8)
    assert sorted(provider.pairs) == [("hub", "hub"), ("x", "hub")]
    assert list(measured) == BOTH_WAYS
    again = collect_measurements(store, BOTH_WAYS, Metric.PING, provider)
    assert again == measured and len(provider.pairs) == 2


def test_a_provider_returning_another_metric_is_refused():
    store = MeasurementStore()
    with pytest.raises(ValueError, match="provider returned distance, expected ping"):
        collect_measurements(store, BOTH_WAYS, Metric.PING, Counting(Metric.DISTANCE))
    assert len(store) == 0


def _counting_lookups(store):
    """Swap the store's tables for dicts that count the lookups made in
    them (white-box); returns the list each lookup's key is appended to."""
    lookups = []

    class Table(dict):
        def get(self, key, default=None):
            lookups.append(key)
            return super().get(key, default)

        def __getitem__(self, key):
            lookups.append(key)
            return super().__getitem__(key)

        def __contains__(self, key):
            lookups.append(key)
            return super().__contains__(key)

    store._entries = {metric: Table() for metric in Metric}
    return lookups


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_collect_looks_each_pair_up_once_in_an_empty_or_a_warm_table(warm):
    store = MeasurementStore()
    lookups = _counting_lookups(store)
    if warm:  # one entry of the metric, for none of the batch's pairs
        store.put_many([_m("p", "q")])
    collect_measurements(store, BOTH_WAYS, Metric.PING, Counting())
    assert len(lookups) == len(BOTH_WAYS)


# -- the synthetic records ----------------------------------------------------------

HOSTS = [f"h{i}.example.org" for i in range(6)]
coordinates = st.builds(Coordinate, st.floats(-90, 90), st.floats(-180, 180))


@settings(max_examples=60, deadline=None)
@given(
    coords=st.lists(coordinates, min_size=len(HOSTS), max_size=len(HOSTS)),
    hubs=st.lists(st.sampled_from(HOSTS), max_size=4),
    ends=st.dictionaries(st.sampled_from(HOSTS), st.tuples(st.booleans(), st.integers(1, 3)),
                         max_size=6),
    order=st.permutations([Metric.PING, Metric.HTTP_RTT]),
)
def test_put_synthetic_stores_the_per_pair_models_records_bit_for_bit(coords, hubs, ends, order):
    legs = {(end, to_hub): n for end, (to_hub, n) in ends.items()}  # as `hub_legs` gives them
    table = LocationTable(dict(zip(HOSTS, coords)))
    providers = synthetic_providers(MODEL, table)
    assert set(providers) == {Metric.PING, Metric.HTTP_RTT}  # ranking computes distance
    store = MeasurementStore()
    pairs = row_pairs(hubs, legs)
    # a fresh table takes rows whose pairs are each their own key, and no others
    distinct = len(set(hubs)) == len(hubs) and not set(hubs) & {end for end, _ in legs}
    for metric in order:  # the values as a ranking has them, from kilometre rows
        kms = [km_row([prepare_point(table.locate(src))], table.locate(dst))[0]
               for src, dst in pairs]
        values = measurement._synthetic_values(kms, metric, MODEL)
        assert store.put_synthetic(hubs, legs, values, metric) is distinct
        for pair in pairs:
            got = store.get(pair, metric)
            if not distinct:
                assert got is None
                continue
            want = providers[metric](pair)
            assert want.note == "synthetic"
            assert got._replace(taken_at=0.0) == want._replace(taken_at=0.0)
            assert got.value.hex() == want.value.hex()
    assert len(store) == (2 * len(pairs) if distinct else 0)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("ends", [HOSTS[1:], HOSTS], ids=["hub-not-an-endpoint", "hub-endpoint"])
def test_synthetic_batch_reads_the_clock_once_or_not_at_all(monkeypatch, warm, ends):
    # a stored batch reads it once for every record; a refused one (a warm
    # table, or an endpoint that is the hub) does not read it
    legs = {(h, False): 1 for h in ends}
    pairs = [(HOSTS[0], h) for h in ends]
    values = [float(i + 1) for i in range(len(pairs))]
    hit = _m(HOSTS[0], HOSTS[1], taken_at=1.0e9 - 1)
    store = MeasurementStore(ttl_s=1.0e12)  # the records outlive the pinned clock
    if warm:
        store.put_many([hit])
    clock = []
    monkeypatch.setattr(measurement.time, "time", lambda: clock.append(1) or 1.0e9)
    accepted = store.put_synthetic([HOSTS[0]], legs, values, Metric.PING)
    monkeypatch.undo()
    assert accepted is (not warm and HOSTS[0] not in ends)
    assert len(clock) == int(accepted)
    stored = [store.get(pair, Metric.PING) for pair in pairs]
    if accepted:
        assert {(m.taken_at, m.note) for m in stored} == {(1.0e9, "synthetic")}
    else:
        assert [m for m in stored if m is not None] == ([hit] if warm else [])


@pytest.mark.parametrize("shortlist_n", [None, 3])
def test_a_synthetic_ranking_computes_each_distance_once(fig1_spec, catalog, monkeypatch,
                                                         shortlist_n):
    # distance: one kilometre row per region through the kernel; ping and HTTP
    # of the shortlist read those kilometres, with no kernel call of their own
    calls = {scoring: [], measurement: []}
    for module, name in ((scoring, "km_row"), (measurement, "haversine_km")):
        kernel, log = getattr(module, name), calls[module]
        monkeypatch.setattr(module, name,
                            lambda a, b, kernel=kernel, log=log: log.append(1) or kernel(a, b))
    store = MeasurementStore()
    providers = synthetic_providers(MODEL, location_index(fig1_spec, catalog))
    report = rank_regions(fig1_spec, catalog, store, providers,
                          ScoringConfig(shortlist_n=shortlist_n))
    assert len(calls[scoring]) == len(catalog.regions)
    assert calls[measurement] == []
    shortlisted = {canonical_key(pair, Metric.PING) for e in report.entries if e.shortlisted
                   for pair in folded_hub_pairs(fig1_spec, catalog.by_id(e.region).probe_host)}
    assert len(store) == 2 * len(shortlisted)  # every key still measured and stored
    assert all(e.ping_score and e.http_score for e in report.entries if e.shortlisted)


# -- the synthetic ping and HTTP over the distance pass's kilometres -------------------

def _exact(report):
    """Every score of a ranking to the bit, with the order and the shortlist."""
    def bits(score):
        return None if score is None else (score.value.hex(), score.failed_edges)

    return [(e.rank, e.region, e.shortlisted, e.final_score.hex(), bits(e.distance_score),
             bits(e.ping_score), bits(e.http_score)) for e in report.entries]


def _per_pair_ranking(spec, catalog, table, config, store=None,
                      metrics=(Metric.PING, Metric.HTTP_RTT)):
    """The ranking through per-pair `synthetic_measure` providers over `table`
    (oracle: no batch, no kilometre rows), into `store` or a fresh one."""
    providers = {metric: lambda pair, metric=metric: synthetic_measure(pair, metric, MODEL, table)
                 for metric in metrics}
    store = MeasurementStore() if store is None else store
    return rank_regions(spec, catalog, store, providers, config)


def test_a_seeded_store_record_wins_over_the_reused_kilometres(fig1_spec, catalog):
    config = ScoringConfig(shortlist_n=3)
    table = location_index(fig1_spec, catalog)
    shortlist = [e.region for e in _per_pair_ranking(fig1_spec, catalog, table, config).entries
                 if e.shortlisted]
    legs = hub_legs(fig1_spec)
    pairs = [pair for region_id in shortlist
             for pair in weighted_pairs(legs, catalog.by_id(region_id).probe_host)]
    # every third pair of the shortlist holds a value the model never gives
    seeded = {(pair, metric): _m(*pair, metric=metric, value=7000.0 + i)
              for i, pair in enumerate(pairs[::3]) for metric in (Metric.PING, Metric.HTTP_RTT)}
    store = MeasurementStore()
    store.put_many(seeded.values())
    report = rank_regions(fig1_spec, catalog, store, synthetic_providers(MODEL, table), config)
    for entry in report.entries[:3]:
        weighted = weighted_pairs(legs, catalog.by_id(entry.region).probe_host)
        for metric, got in ((Metric.PING, entry.ping_score), (Metric.HTTP_RTT, entry.http_score)):
            measured = {pair: seeded.get((pair, metric))
                        or synthetic_measure(pair, metric, MODEL, table) for pair in weighted}
            want = score_pairs(entry.region, metric, weighted, measured)
            assert got.value.hex() == want.value.hex()
    assert len(store) == 2 * len(set(pairs))


def test_providers_over_another_table_measure_with_their_own_coordinates(fig1_spec, catalog):
    moved = fig1_spec._replace(nodes=tuple(
        node._replace(location=Coordinate(-node.location.lat, 179.0)) if i == 0 else node
        for i, node in enumerate(fig1_spec.nodes)))
    table = location_index(moved, catalog)
    assert table.entries != location_index(fig1_spec, catalog).entries
    for shortlist_n in (None, 3):
        config = ScoringConfig(shortlist_n=shortlist_n)
        report = rank_regions(fig1_spec, catalog, MeasurementStore(),
                              synthetic_providers(MODEL, table), config)
        assert _exact(report) == _exact(_per_pair_ranking(fig1_spec, catalog, table, config))


def test_a_provider_filed_under_another_metric_still_raises(fig1_spec, catalog):
    ping = synthetic_providers(MODEL, location_index(fig1_spec, catalog))[Metric.PING]
    with pytest.raises(ValueError, match="provider returned ping, expected http_rtt"):
        rank_regions(fig1_spec, catalog, MeasurementStore(),
                     {Metric.PING: ping, Metric.HTTP_RTT: ping}, ScoringConfig(shortlist_n=3))


def test_a_hub_endpoint_and_a_shared_probe_host_rank_as_the_per_pair_model(catalog):
    spec = parse_workflow(HUB_NODE_DOC)
    twin = catalog.regions[0]._replace(id="us-east-1-twin")  # the same probe host
    assert twin.probe_host == spec.nodes[2].endpoint
    both = RegionCatalog(catalog.regions + (twin,))
    table = location_index(spec, both)
    for shortlist_n in (None, 2, 4):
        config = ScoringConfig(shortlist_n=shortlist_n)
        report = rank_regions(spec, both, MeasurementStore(), synthetic_providers(MODEL, table),
                              config)
        assert _exact(report) == _exact(_per_pair_ranking(spec, both, table, config))


def _provider_calls(monkeypatch):
    """The metric of each `SyntheticProvider` call, in call order."""
    calls = []
    provide = measurement.SyntheticProvider.__call__
    monkeypatch.setattr(measurement.SyntheticProvider, "__call__",
                        lambda self, pair: calls.append(self.metric) or provide(self, pair))
    return calls


# the ways a ranking's rows are refused: records of its metrics already
# stored, by a cache file or by an earlier ranking, or rows whose pairs share
# keys (a region's probe host at a node endpoint, or two regions on one host)
REFUSED_RANKINGS = ["cache-holds-records", "second-ranking", "hub-endpoint", "shared-probe-host"]


@pytest.mark.parametrize("case", REFUSED_RANKINGS)
def test_a_refused_ranking_measures_each_missing_key_through_its_provider(case, catalog,
                                                                          monkeypatch, tmp_path):
    spec = parse_workflow(HUB_NODE_DOC if case == "hub-endpoint" else FIG1_DOC)
    if case == "shared-probe-host":
        catalog = RegionCatalog(catalog.regions + (catalog.regions[0]._replace(id="twin"),))
    table = location_index(spec, catalog)
    config = ScoringConfig()  # every region shortlisted: the shared keys are in the batch
    stores = []
    for _ in range(2):
        stores.append(MeasurementStore())
        if case == "cache-holds-records":  # a file with one record of each metric
            path = tmp_path / f"{len(stores)}.cache"
            stores[-1].put_many([_m("x", "y", metric)
                                 for metric in (Metric.PING, Metric.HTTP_RTT)])
            stores[-1].save(str(path))
            stores[-1] = MeasurementStore.load(str(path))
    if case == "second-ranking":
        rank_regions(spec, catalog, stores[0], synthetic_providers(MODEL, table), config)
        _per_pair_ranking(spec, catalog, table, config, stores[1])
    held = len(stores[0])
    measured = _provider_calls(monkeypatch)
    report = rank_regions(spec, catalog, stores[0], synthetic_providers(MODEL, table), config)
    assert _exact(report) == _exact(_per_pair_ranking(spec, catalog, table, config, stores[1]))
    assert _saved_records(stores[0]) == _saved_records(stores[1])
    # one provider call per key the store did not hold, none for a key it did
    assert len(measured) == len(stores[0]) - held
    assert measured.count(Metric.PING) == measured.count(Metric.HTTP_RTT)
    assert measured or case == "second-ranking"


# -- the shortlist scored from kilometre rows, its records stored by key ----------------

TTL_S = 3600.0


def _saved_records(store):
    """The store's records as `save` writes them, each without its time."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "store.cache"
        store.save(str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
    for record in records:
        assert isinstance(record.pop("taken_at"), float)
        record["value"] = float(record["value"]).hex()
    return records


@st.composite
def row_inputs(draw):
    """Drawn synthetic inputs with a twin region on another region's probe
    host and position, two regions whose probe hosts are node endpoints, and
    the records to seed: ping and HTTP values the model never gives, in either
    direction of their pair, one failed record and one expired one."""
    spec, catalog = draw(synthetic_inputs())
    edges = dict.fromkeys((WorkflowEdge("n0", "n1"),) + spec.edges)
    spec = WorkflowSpec(spec.name, spec.nodes, tuple(edges))
    twin_of = draw(st.sampled_from(catalog.regions))
    regions = catalog.regions + (Region("twin", twin_of.probe_host, twin_of.location),)
    # two hubs at node endpoints: each may be an endpoint of the other's pairs
    for i, node in enumerate(draw(st.lists(st.sampled_from(spec.nodes), min_size=2, max_size=2))):
        regions += (Region(f"at-node-{i}", node.endpoint, node.location),)
    catalog = RegionCatalog(tuple(draw(st.permutations(regions))))
    legs = hub_legs(spec)
    pairs = sorted({pair for region in catalog.regions
                    for pair in weighted_pairs(legs, region.probe_host)})
    seeded = st.tuples(st.sampled_from(pairs), st.sampled_from([Metric.PING, Metric.HTTP_RTT]),
                       st.booleans())
    now = time.time()

    def record(seed, value, success=True, taken_at=now):
        (src, dst), metric, reverse = seed
        if reverse:
            src, dst = dst, src
        return Measurement(src, dst, metric, value, "ms", 3, success, taken_at, "seeded")

    records = [record(seed, 7000.0 + i) for i, seed in enumerate(draw(st.lists(seeded)))]
    records += [record(draw(seeded), 0.0, success=False),
                record(draw(seeded), 9000.0, taken_at=now - 2 * TTL_S)]
    return spec, catalog, draw(st.permutations(records))


@settings(max_examples=150, deadline=None)
@given(
    inputs=row_inputs(),
    subset=st.sampled_from(sorted(SUBSETS)),
    shortlist_n=st.one_of(st.none(), st.integers(min_value=1, max_value=7)),
)
def test_rows_rank_and_store_as_the_per_pair_oracle(inputs, subset, shortlist_n):
    spec, catalog, records = inputs
    table = location_index(spec, catalog)
    config = ScoringConfig(shortlist_n=shortlist_n)
    metrics = [metric for metric in (Metric.PING, Metric.HTTP_RTT) if metric in SUBSETS[subset]]
    stores = []
    for _ in range(2):
        stores.append(MeasurementStore(ttl_s=TTL_S))
        stores[-1].put_many(records)
    providers = {metric: p for metric, p in synthetic_providers(MODEL, table).items()
                 if metric in metrics}
    report = rank_regions(spec, catalog, stores[0], providers, config)
    oracle = _per_pair_ranking(spec, catalog, table, config, stores[1], metrics)
    assert _exact(report) == _exact(oracle)
    assert report.provenance == oracle.provenance
    assert _saved_records(stores[0]) == _saved_records(stores[1])


def test_the_rows_measure_nothing_and_read_the_clock_once_per_metric(fig1_spec, catalog,
                                                                   monkeypatch, tmp_path):
    measured = _provider_calls(monkeypatch)
    clock = []

    def tick():
        clock.append(1)
        return 1.0e9 + len(clock) - 1

    monkeypatch.setattr(measurement.time, "time", tick)
    providers = synthetic_providers(MODEL, location_index(fig1_spec, catalog))
    for warm in (False, True):
        store = MeasurementStore(ttl_s=1.0e12)
        lookups = _counting_lookups(store)
        # one ping record: ping is refused as rows and measured through the
        # provider, one lookup per pair and one clock reading per missing key
        held = _m("wikimedia.org", "probe.us-east-1.example", taken_at=1.0)
        if warm:
            store.put_many([held])
        lookups.clear()
        clock.clear()
        measured.clear()
        report = rank_regions(fig1_spec, catalog, store, providers, ScoringConfig(shortlist_n=3))
        batch = [pair for e in report.entries if e.shortlisted
                 for pair in weighted_pairs(hub_legs(fig1_spec), catalog.by_id(e.region).probe_host)]
        misses = len({canonical_key(pair, Metric.PING) for pair in batch}
                     - {canonical_key((held.src, held.dst), Metric.PING)}) if warm else 0
        assert len(lookups) == (len(batch) if warm else 0)
        assert measured == [Metric.PING] * misses
        # ping (its lookup, then each missing key's record when warm), HTTP
        # and the report's time
        assert len(clock) == 3 + misses
        store.save(str(tmp_path / "rows.cache"))  # every record, built or not
        records = [json.loads(line) for line in (tmp_path / "rows.cache").read_text().splitlines()]
        times = {metric: sorted(r["taken_at"] for r in records if r["metric"] == metric.value)
                 for metric in (Metric.PING, Metric.HTTP_RTT)}
        if warm:
            assert times == {Metric.PING: [1.0] + [1.0e9 + 1 + i for i in range(misses)],
                             Metric.HTTP_RTT: [1.0e9 + 1 + misses] * len(batch)}
        else:
            assert times == {Metric.PING: [1.0e9] * len(batch),
                             Metric.HTTP_RTT: [1.0e9 + 1] * len(batch)}


def test_put_synthetic_refuses_a_value_measurement_refuses_and_stores_nothing():
    store = MeasurementStore()
    with pytest.raises(ValueError, match="successful measurement value must be >= 0"):
        store.put_synthetic(["d"], {("a", True): 1, ("c", True): 1}, [1.0, -1.0],
                            Metric.HTTP_RTT)
    assert len(store) == 0
    assert store.get_many([("a", "d"), ("c", "d")], Metric.HTTP_RTT)[0] == {}


# each start, then the rows of a batch a fresh table would take, or the hubs
# and legs that keep it from taking them
REFUSALS = {
    "table-holds-records": (Metric.PING, ["h1", "h2"], {("e", True): 1, ("f", False): 2}),
    "metric-pending": (Metric.HTTP_RTT, ["h1", "h2"], {("e", True): 1, ("f", False): 2}),
    "hubs-repeat": (Metric.HTTP_RTT, ["h1", "h1"], {("e", True): 1, ("f", False): 2}),
    "endpoint-is-a-hub": (Metric.HTTP_RTT, ["h1", "h2"], {("e", True): 1, ("h1", False): 2}),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_put_synthetic_refuses_a_batch_whose_keys_a_fresh_table_would_not_take(case, tmp_path):
    path = tmp_path / "probes.cache"
    held = MeasurementStore()
    held.put_many([_m("a", "b")])  # one ping record
    held.save(str(path))
    store = MeasurementStore.load(str(path))
    if case == "metric-pending":
        assert store.put_synthetic(["p"], {("q", True): 1}, [3.0], Metric.HTTP_RTT)
    metric, hubs, legs = REFUSALS[case]
    pairs = row_pairs(hubs, legs)
    before = (len(store), store._synced)
    assert store.put_synthetic(hubs, legs, [1.0] * len(pairs), metric) is False
    assert (len(store), store._synced) == before
    assert store.get_many(pairs, metric)[0] == {}
    inode = path.stat().st_ino
    store.save(str(path))  # a store still synced to the file it loaded does not rewrite it
    assert (path.stat().st_ino == inode) is (case != "metric-pending")


# -- the CLI over the batch path ------------------------------------------------------

def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# region us-east-1's probe host is node "c"'s endpoint; "a" and "d" share one endpoint
HUB_NODE_DOC = json.dumps({
    "name": "hub-node",
    "nodes": [
        {"id": "a", "endpoint": "svc-a.example.net", "role": "source",
         "location": {"lat": 10.0, "lon": 20.0}},
        {"id": "b", "endpoint": "http://svc-b.example.org/p", "role": "service",
         "location": {"lat": -30.0, "lon": 120.0}},
        {"id": "c", "endpoint": "ec2.us-east-1.amazonaws.com", "role": "service",
         "location": {"lat": 38.95, "lon": -77.45}},
        {"id": "d", "endpoint": "svc-a.example.net", "role": "service",
         "location": {"lat": 10.0, "lon": 20.0}},
        {"id": "e", "endpoint": "svc-e.example.com:8080", "role": "service",
         "location": {"lat": 50.0, "lon": 5.0}},
    ],
    "edges": [{"from": "a", "to": "c"}, {"from": "c", "to": "b"}, {"from": "a", "to": "b"},
              {"from": "b", "to": "d"}, {"from": "c", "to": "e"}, {"from": "d", "to": "e"}],
})


@pytest.fixture(params=["fig1", "hub-node"])
def workflow(request, tmp_path):
    path = tmp_path / "w.workflow"
    path.write_text(FIG1_DOC if request.param == "fig1" else HUB_NODE_DOC)
    return str(path)


def _probe_lines(spec, catalog, store):
    """`probe`'s lines from the per-pair model: one line per store key, in
    the direction its legs were first seen."""
    locations = location_index(spec, catalog)
    legs = hub_legs(spec)
    lines = []
    for metric in Metric:
        for region in catalog.regions:
            for pair in weighted_pairs(legs, region.probe_host):
                m = store.get(pair, metric)
                if m is None:
                    m = synthetic_measure(pair, metric, MODEL, locations)
                    store.put_many([m])
                lines.append(f"{metric.value:9} {region.id:16} {pair[0]} -> {pair[1]}  "
                             f"{m.value:.3f} {m.unit}  ok")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("parallel", ["1", "8"])
def test_probe_prints_each_pair_from_the_per_pair_model(workflow, parallel, capsys):
    spec = parse_workflow(Path(workflow).read_text())
    expected = _probe_lines(spec, default_region_catalog(), MeasurementStore())
    code, out, err = run_cli(["probe", "-w", workflow, "--max-parallel-probes", parallel], capsys)
    assert code == 0, err
    assert out == expected


@pytest.mark.parametrize("parallel", ["1", "4"])
def test_local_probe_sends_one_round_of_probes_per_store_key(workflow, parallel, lab, capsys):
    code, out, err = run_cli(["probe", "-w", workflow, "--probe-mode", "local",
                              "--samples-per-pair", "2", "--max-parallel-probes", parallel], capsys)
    assert code == 0, err
    spec = parse_workflow(Path(workflow).read_text())
    catalog = default_region_catalog()
    legs = hub_legs(spec)
    keys = {metric: {canonical_key(pair, metric) for region in catalog.regions
                     for pair in weighted_pairs(legs, region.probe_host)}
            for metric in (Metric.PING, Metric.HTTP_RTT)}
    assert len(lab.probes) == 2 * len(keys[Metric.PING])
    assert len(lab.gets) == 2 * len(keys[Metric.HTTP_RTT])
    assert "FAIL" not in out


def test_a_synthetic_probe_starts_no_thread_pool(fig1_file, monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    code, out, err = run_cli(["probe", "-w", fig1_file, "--max-parallel-probes", "8"], capsys)
    assert code == 0, err
    assert out and "FAIL" not in out


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_synthetic_analyze_output_does_not_depend_on_the_probe_fan_out(fig1_file, fmt,
                                                                       monkeypatch, capsys):
    argv = ["analyze", "-w", fig1_file, "--format", fmt, "--no-timestamps"]
    code, one, _ = run_cli(argv + ["--max-parallel-probes", "1"], capsys)

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    code8, eight, err = run_cli(argv + ["--max-parallel-probes", "8"], capsys)
    assert code == code8 == 0, err
    assert eight == one


def test_a_warm_synthetic_analyze_writes_nothing_to_its_own_cache(fig1_file, tmp_path,
                                                                  monkeypatch, capsys):
    cache = tmp_path / "probes.cache"
    argv = ["analyze", "-w", fig1_file, "--cache", str(cache), "--format", "json",
            "--no-timestamps"]
    code, cold, err = run_cli(argv, capsys)
    assert code == 0, err
    before = (cache.read_bytes(), cache.stat().st_mtime_ns, cache.stat().st_ino)

    def refuse(src, dst):
        raise AssertionError(f"rewrote {dst}")

    monkeypatch.setattr("cloudforecast.measurement.os.replace", refuse)
    code, warm, err = run_cli(argv, capsys)
    assert code == 0, err
    assert warm == cold
    assert (cache.read_bytes(), cache.stat().st_mtime_ns, cache.stat().st_ino) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig1.workflow", "probes.cache"]
