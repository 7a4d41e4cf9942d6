"""The batch measurement path: the store's `get_many` / `put_many`,
`collect_measurements` over a batch, the synthetic batch provider and the
tuple-built `Measurement`."""

import concurrent.futures
import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudforecast import measurement
from cloudforecast.candidates import METRIC_ORDER, Metric, hub_legs, weighted_pairs
from cloudforecast.cli import main
from cloudforecast.geo import Coordinate, LocationTable, default_region_catalog
from cloudforecast.measurement import (
    EchoProber,
    Measurement,
    MeasurementStore,
    SyntheticNetworkModel,
    collect_measurements,
    location_index,
    synthetic_measure,
    synthetic_providers,
)
from cloudforecast.scoring import ScoringConfig, rank_regions
from cloudforecast.workflow import parse_workflow
from conftest import FIG1_DOC

MODEL = SyntheticNetworkModel()

GOOD = dict(src="a", dst="b", metric=Metric.PING, value=1.5, unit="ms", samples=2,
            success=True, taken_at=1.0e9, note="fixture")


def _m(src, dst, metric=Metric.PING, value=1.0, taken_at=None):
    taken_at = time.time() if taken_at is None else taken_at
    return Measurement(src, dst, metric, value, "ms", 1, True, taken_at)


class Counting:
    """Per-pair provider that records each pair it measures."""

    def __init__(self, metric=Metric.PING):
        self.metric, self.pairs = metric, []

    def __call__(self, pair):
        self.pairs.append(pair)
        return _m(pair[0], pair[1], self.metric)


class CountingBatch(Counting):
    """Provider with `many`, recording each batch it is asked for."""

    def __init__(self, metric=Metric.PING, extra=0):
        super().__init__(metric)
        self.batches, self.extra = [], extra

    def many(self, pairs):
        self.batches.append(list(pairs))
        measured = [self(pair) for pair in pairs]
        if self.extra < 0:
            return measured[: self.extra]
        return measured + measured[: self.extra]


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

def test_get_many_groups_misses_by_key_in_first_seen_order():
    store = MeasurementStore()
    hit = _m("a", "b")
    store.put(hit)
    pairs = [("c", "d"), ("b", "a"), ("d", "c"), ("a", "b"), ("e", "f"), ("c", "d")]
    found, missing = store.get_many(pairs, Metric.PING)
    assert list(found) == [("b", "a"), ("a", "b")] and set(found.values()) == {hit}
    assert missing == {("c", "d", Metric.PING): [("c", "d"), ("d", "c"), ("c", "d")],
                       ("e", "f", Metric.PING): [("e", "f")]}
    assert list(missing) == [("c", "d", Metric.PING), ("e", "f", Metric.PING)]


def test_get_many_reads_the_clock_once(monkeypatch):
    store = MeasurementStore()
    store.put_many([_m("a", "b"), _m("c", "d")])
    clock = []
    monkeypatch.setattr(measurement.time, "time", lambda: clock.append(1) or 2.0e9 - 1)
    store.get_many([("a", "b"), ("c", "d"), ("e", "f")], Metric.PING)
    assert len(clock) == 1


def test_put_many_keys_each_measurement_by_its_own_pair():
    store = MeasurementStore(symmetric_metrics=frozenset({Metric.PING}))
    store.put_many([_m("b", "a"), _m("b", "a", Metric.HTTP_RTT), _m("c", "d", value=2.0)])
    assert len(store) == 3
    assert store.get(("a", "b"), Metric.PING).src == "b"
    assert store.get(("a", "b"), Metric.HTTP_RTT) is None  # asymmetric metric
    assert store.get(("b", "a"), Metric.HTTP_RTT) is not None


def _cache_with_an_expired_record(path):
    store = MeasurementStore()
    store.put_many([_m("a", "b", taken_at=time.time() - 100.0), _m("c", "d")])
    store.save(str(path))
    return MeasurementStore.load(str(path), ttl_s=50.0)


def test_an_expired_entry_read_through_get_many_is_dropped_and_the_file_rewritten(tmp_path):
    path = tmp_path / "probes.cache"
    store = _cache_with_an_expired_record(path)
    found, missing = store.get_many([("a", "b"), ("c", "d")], Metric.PING)
    assert list(found) == [("c", "d")] and list(missing) == [("a", "b", Metric.PING)]
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


def test_a_batch_provider_is_asked_for_each_missing_key_once():
    store = MeasurementStore()
    store.put(_m("hub", "y"))
    provider = CountingBatch()
    measured = collect_measurements(store, BOTH_WAYS, Metric.PING, provider, max_parallel=8)
    assert provider.batches == [[("x", "hub"), ("hub", "hub")]]
    assert list(measured) == BOTH_WAYS
    again = collect_measurements(store, BOTH_WAYS, Metric.PING, provider)
    assert again == measured and len(provider.batches) == 1


def test_an_asymmetric_store_measures_each_direction():
    store = MeasurementStore(symmetric_metrics=frozenset())
    provider = CountingBatch()
    collect_measurements(store, BOTH_WAYS, Metric.PING, provider)
    assert provider.batches == [BOTH_WAYS]


@pytest.mark.parametrize("provider", [Counting(Metric.DISTANCE), CountingBatch(Metric.DISTANCE)],
                         ids=["per-pair", "batch"])
def test_a_provider_returning_another_metric_is_refused(provider):
    store = MeasurementStore()
    with pytest.raises(ValueError, match="provider returned distance, expected ping"):
        collect_measurements(store, BOTH_WAYS, Metric.PING, provider)
    assert len(store) == 0


@pytest.mark.parametrize("extra", [-1, 1])
def test_a_batch_of_the_wrong_length_is_refused(extra):
    store = MeasurementStore()
    with pytest.raises(ValueError, match=r"provider measured \d+ pairs, asked for 3"):
        collect_measurements(store, BOTH_WAYS, Metric.PING, CountingBatch(extra=extra))
    assert len(store) == 0


def test_a_batch_provider_is_never_fanned_out(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    measured = collect_measurements(MeasurementStore(), BOTH_WAYS, Metric.PING,
                                    CountingBatch(), max_parallel=8)
    assert list(measured) == BOTH_WAYS


# -- the synthetic batch provider ---------------------------------------------------

HOSTS = [f"h{i}.example.org" for i in range(6)]
coordinates = st.builds(Coordinate, st.floats(-90, 90), st.floats(-180, 180))


@settings(max_examples=60, deadline=None)
@given(
    coords=st.lists(coordinates, min_size=len(HOSTS), max_size=len(HOSTS)),
    pairs=st.lists(st.tuples(st.sampled_from(HOSTS), st.sampled_from(HOSTS)), max_size=20),
    order=st.permutations(list(Metric)),
)
def test_synthetic_batch_equals_the_per_pair_model_bit_for_bit(coords, pairs, order):
    table = LocationTable(dict(zip(HOSTS, coords)))
    providers = synthetic_providers(MODEL, table)
    for metric in order:  # later metrics read the kilometres the first one computed
        batch = providers[metric].many(pairs)
        assert len(batch) == len(pairs)
        for got, pair in zip(batch, pairs):
            want = synthetic_measure(pair, metric, MODEL, table)
            assert got._replace(taken_at=0.0) == want._replace(taken_at=0.0)
            assert got.value.hex() == want.value.hex()
        assert len({m.taken_at for m in batch}) <= 1


def test_synthetic_batch_reads_the_clock_once(monkeypatch):
    table = LocationTable({h: Coordinate(i, i) for i, h in enumerate(HOSTS)})
    provider = synthetic_providers(MODEL, table)[Metric.PING]
    clock = []
    monkeypatch.setattr(measurement.time, "time", lambda: clock.append(1) or 1.0e9)
    batch = provider.many([(HOSTS[0], h) for h in HOSTS])
    assert len(clock) == 1 and {m.taken_at for m in batch} == {1.0e9}
    assert provider((HOSTS[0], HOSTS[1])).note == "synthetic"  # the per-pair call


@pytest.mark.parametrize("shortlist_n", [None, 3])
def test_a_synthetic_ranking_computes_each_distance_once(fig1_spec, catalog, monkeypatch,
                                                         shortlist_n):
    calls = []
    haversine = measurement.haversine_km
    monkeypatch.setattr(measurement, "haversine_km", lambda a, b: calls.append(1) or haversine(a, b))
    store = MeasurementStore()
    providers = synthetic_providers(MODEL, location_index(fig1_spec, catalog))
    rank_regions(fig1_spec, catalog, store, providers, ScoringConfig(shortlist_n=shortlist_n))
    legs = hub_legs(fig1_spec)
    distinct = {pair for region in catalog.regions
                for pair in store.fold_pairs(weighted_pairs(legs, region.probe_host),
                                             Metric.DISTANCE)}
    assert len(calls) == len(distinct)


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
    """`probe`'s lines from the per-pair model, with both directions of a pair
    showing the measurement of the first one seen."""
    locations = location_index(spec, catalog)
    legs = hub_legs(spec)
    lines = []
    for metric in METRIC_ORDER:
        for region in catalog.regions:
            for pair in weighted_pairs(legs, region.probe_host):
                m = store.get(pair, metric)
                if m is None:
                    m = synthetic_measure(pair, metric, MODEL, locations)
                    store.put(m)
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
def test_local_probe_sends_one_round_of_probes_per_store_key(workflow, parallel, monkeypatch,
                                                             capsys):
    probes, gets = [], []
    monkeypatch.setattr(EchoProber, "mode", "icmp")
    monkeypatch.setattr(EchoProber, "probe", lambda self, host, timeout_s: probes.append(host) or 1.0)
    monkeypatch.setattr(measurement, "http_get_ms", lambda url, timeout_s: gets.append(url) or 2.0)
    code, out, err = run_cli(["probe", "-w", workflow, "--probe-mode", "local",
                              "--samples-per-pair", "2", "--max-parallel-probes", parallel], capsys)
    assert code == 0, err
    spec = parse_workflow(Path(workflow).read_text())
    catalog = default_region_catalog()
    store = MeasurementStore()
    legs = hub_legs(spec)
    keys = {metric: {store.canonical_key(pair, metric) for region in catalog.regions
                     for pair in weighted_pairs(legs, region.probe_host)}
            for metric in (Metric.PING, Metric.HTTP_RTT)}
    assert len(probes) == 2 * len(keys[Metric.PING])
    assert len(gets) == 2 * len(keys[Metric.HTTP_RTT])
    assert "FAIL" not in out


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
