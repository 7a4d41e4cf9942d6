"""A synthetic batch's records are built only when something reads them:
`MeasurementStore.put_synthetic` keeps a pending row per metric, in the row
form it was given (hubs, legs and values), and every public call answers as
a store that built each pair's record at once, at the same clock reading."""

import json
import os
import random
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudforecast import measurement, scoring
from cloudforecast.candidates import Metric, hub_legs, weighted_pairs
from cloudforecast.geo import Coordinate, Region, RegionCatalog
from cloudforecast.measurement import (
    UNIT_BY_METRIC,
    Measurement,
    MeasurementStore,
    SyntheticNetworkModel,
    _synthetic_records,
    collect_measurements,
    location_index,
    synthetic_providers,
)
from cloudforecast.scoring import ScoringConfig, rank_regions
from cloudforecast.workflow import WorkflowEdge, WorkflowNode, WorkflowSpec
from helpers import row_pairs

MODEL = SyntheticNetworkModel()
NOW = 1.0e9
TTL_S = 100.0
HOSTS = ("a", "b", "c", "d")
METRICS = (Metric.PING, Metric.HTTP_RTT)


class EagerStore(MeasurementStore):
    """The per-pair reference: its `put_synthetic` takes a batch when its
    metric's table is empty, its hubs distinct and none of them an
    endpoint, and then inserts every pair's record at once."""

    def put_synthetic(self, hubs, legs, values, metric):
        if (self._entries[metric] or len(set(hubs)) < len(hubs)
                or set(hubs) & {end for end, _ in legs}):
            return False
        self.put_many(_synthetic_records(row_pairs(hubs, legs), values, metric, time.time()))
        return True


def _counting_records(monkeypatch):
    """The metric of each `_synthetic_records` call, in call order."""
    calls = []

    def counted(pairs, values, metric, now):
        calls.append(metric)
        return _synthetic_records(pairs, values, metric, now)

    monkeypatch.setattr(measurement, "_synthetic_records", counted)
    return calls


def test_a_cold_synthetic_ranking_builds_no_records(fig1_spec, catalog, monkeypatch, tmp_path):
    calls = _counting_records(monkeypatch)
    store = MeasurementStore()
    providers = synthetic_providers(MODEL, location_index(fig1_spec, catalog))
    report = rank_regions(fig1_spec, catalog, store, providers, ScoringConfig())
    assert calls == []
    assert report.provenance["cache_entries"] == len(store) == 48  # 8 regions x 3 legs x 2
    # a read builds the records of its own metric only, and `save` the rest
    pair = next(iter(weighted_pairs(hub_legs(fig1_spec), catalog.regions[0].probe_host)))
    assert store.get(pair, Metric.HTTP_RTT).note == "synthetic"
    assert calls == [Metric.HTTP_RTT]
    store.save(str(tmp_path / "fig1.cache"))
    assert calls == [Metric.HTTP_RTT, Metric.PING]
    assert len((tmp_path / "fig1.cache").read_text().splitlines()) == len(store) == 48


def _stress_inputs(nodes=200, regions=64, seed=41):
    """A workflow of `nodes` random endpoints, each after a random earlier
    one and some after two, and a catalog of `regions` random regions."""
    rng = random.Random(seed)

    def place():
        return Coordinate(rng.uniform(-60, 70), rng.uniform(-180, 180))

    spec = WorkflowSpec(
        name="stress",
        nodes=tuple(WorkflowNode(id=f"n{i}", endpoint=f"n{i}.example.org", location=place())
                    for i in range(nodes)),
        edges=tuple(WorkflowEdge(f"n{rng.randrange(i)}", f"n{i}")
                    for i in range(1, nodes) for _ in range(1 + (i % 5 == 0))))
    catalog = RegionCatalog(tuple(Region(f"r{j}", f"probe.r{j}.example", place())
                                  for j in range(regions)))
    return spec, catalog


def test_a_fresh_stress_scale_ranking_builds_no_pair_and_no_record(monkeypatch, tmp_path):
    spec, catalog = _stress_inputs()
    calls = _counting_records(monkeypatch)
    built = []
    for module in (scoring, measurement):
        monkeypatch.setattr(module, "weighted_pairs",
                            lambda legs, hub: built.append(hub) or weighted_pairs(legs, hub))
    store = MeasurementStore()
    providers = synthetic_providers(MODEL, location_index(spec, catalog))
    report = rank_regions(spec, catalog, store, providers, ScoringConfig(shortlist_n=16))
    assert built == [] and calls == []
    legs = hub_legs(spec)
    assert report.provenance["cache_entries"] == len(store) == 2 * 16 * len(legs)
    # `get_many` builds its own metric's pairs and records, and `save` the rest
    hubs = [catalog.by_id(e.region).probe_host for e in report.entries if e.shortlisted]
    pairs = row_pairs(hubs, legs)
    assert len(store.get_many(pairs, Metric.PING)[0]) == len(pairs)
    assert calls == [Metric.PING] and sorted(built) == sorted(hubs)
    store.save(str(tmp_path / "stress.cache"))
    assert calls == [Metric.PING, Metric.HTTP_RTT] and sorted(built) == sorted(hubs * 2)
    assert len((tmp_path / "stress.cache").read_text().splitlines()) == len(store)


def test_a_pending_row_keeps_the_rows_given_when_it_was_stored():
    store = MeasurementStore()
    hubs, legs, values = ["b", "d"], {("a", True): 1}, [1.0, 2.0]
    assert store.put_synthetic(hubs, legs, values, Metric.PING)
    hubs[0], values[0] = "x", 9.0
    legs[("z", True)] = 1
    assert len(store) == 2
    assert store.get(("b", "a"), Metric.PING).value == 1.0
    assert store.get(("a", "x"), Metric.PING) is None
    assert store.get(("z", "b"), Metric.PING) is None
    assert len(store) == 2


ROUNDS = 100


def _valued(value, metric):
    """A per-pair provider of the synthetic record of `value`, now."""
    return lambda pair: _synthetic_records([pair], [value], metric, time.time())[0]


def test_concurrent_batches_store_and_count_each_key_once(tmp_path):
    path = str(tmp_path / "synthetic.cache")
    store = MeasurementStore()
    hosts = [f"h{i:02d}" for i in range(12)]

    def batch(worker, i):
        """Rows around two hubs over an endpoint of the batch's own, then a
        window of endpoints that other batches use as hubs, in either
        direction; every other batch's window holds its second hub."""
        start, to_hub = (worker * 7 + i * 5) % len(hosts), bool((worker + i) % 3)
        ends = [f"w{worker}-i{i:03d}"] + (hosts + hosts)[start + 1 + i % 2:start + 5 + i % 2]
        hubs = (hosts + hosts)[start:start + 2]
        return hubs, {(end, to_hub): 1 for end in ends}, METRICS[(worker + i) % 2]

    stored = set()  # (metric, key) of every record the batches store
    for worker in range(8):
        for i in range(ROUNDS):
            hubs, legs, metric = batch(worker, i)
            stored.update((metric, tuple(sorted(pair))) for pair in row_pairs(hubs, legs))
    counts, misses = [], []

    def work(worker):
        for i in range(ROUNDS):
            hubs, legs, metric = batch(worker, i)
            pairs = row_pairs(hubs, legs)
            # a batch the store refuses as rows is measured key by key, as a ranking does
            if not store.put_synthetic(hubs, legs, [float(worker)] * len(pairs), metric):
                collect_measurements(store, pairs, metric, _valued(float(worker), metric))
            counts.append(len(store))
            if store.get(pairs[0], metric) is None:  # the batch's own key
                misses.append(pairs[0])
            if i % 10 == 0:
                store.save(path)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert misses == []
    assert len(counts) == 8 * ROUNDS and max(counts) <= len(stored)  # a key is never counted twice
    store.save(path)
    assert len(store) == len(MeasurementStore.load(path)) == len(stored)


def test_concurrent_lookups_evict_while_batches_store_and_each_key_ends_once(
        fig1_spec, catalog, tmp_path):
    """`get_many` drops expired entries while batches of the same keys are
    stored, as rows when the emptied table takes them and key by key
    otherwise: no key is lost or stored twice."""
    legs = hub_legs(fig1_spec)
    hubs = [region.probe_host for region in catalog.regions]
    pairs = row_pairs(hubs, legs)
    keys = {tuple(sorted(pair)) for pair in pairs}
    path = str(tmp_path / "evicted.cache")

    def trial():
        store = MeasurementStore(ttl_s=TTL_S)
        stale = time.time() - 2 * TTL_S
        store.put_many(Measurement(src, dst, Metric.PING, 1.0, "ms", 1, True, stale, "stale")
                       for src, dst in sorted(keys)[::2])
        start = threading.Barrier(8)
        counts = []

        def work(worker):
            start.wait()
            for _ in range(5):
                if worker % 2:
                    store.get_many(pairs, Metric.PING)
                elif not store.put_synthetic(hubs, legs, [float(worker)] * len(pairs),
                                             Metric.PING):
                    collect_measurements(store, pairs, Metric.PING,
                                         _valued(float(worker), Metric.PING))
                counts.append(len(store))

        threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert max(counts) <= len(keys)  # a key is never counted twice
        now = time.time()
        for key in keys:
            entry = store.get(key, Metric.PING)
            assert entry.note == "synthetic" and now - entry.taken_at <= TTL_S
        assert len(store) == len(keys)
        store.save(path)
        with open(path, encoding="utf-8") as f:
            saved = [tuple(sorted((r["src"], r["dst"]))) for r in map(json.loads, f)]
        assert sorted(saved) == sorted(keys)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            trial()
    finally:
        sys.setswitchinterval(interval)


# -- every public call answers as the eager store ------------------------------

pairs_strategy = st.lists(st.tuples(st.sampled_from(HOSTS), st.sampled_from(HOSTS)), max_size=8)
metrics = st.sampled_from(METRICS)
# seconds past NOW at which a call is made: records stored at NOW expire after TTL_S
offsets = st.sampled_from([0.0, 1.0, TTL_S, 2 * TTL_S])


@st.composite
def records(draw):
    """Ping and HTTP records, some failed, some stored the other way round."""
    src, dst = draw(st.tuples(st.sampled_from(HOSTS), st.sampled_from(HOSTS)))
    metric = draw(metrics)
    success = draw(st.booleans())
    value = draw(st.floats(0.0, 1e4)) if success else 0.0
    taken_at = NOW + draw(st.sampled_from([-2 * TTL_S, 0.0, 1.0]))
    return Measurement(src, dst, metric, value, UNIT_BY_METRIC[metric], 2, success, taken_at,
                       "seeded")


@st.composite
def synthetic_batches(draw):
    """Rows: hubs with repeats, and legs, one direction per endpoint as
    `hub_legs` gives them, whose endpoints may be hubs or another host."""
    hubs = draw(st.lists(st.sampled_from(HOSTS), min_size=1, max_size=3))
    ends = draw(st.dictionaries(st.sampled_from(HOSTS + ("e",)),
                                st.tuples(st.booleans(), st.integers(1, 3)), min_size=1, max_size=4))
    legs = {(end, to_hub): n for end, (to_hub, n) in ends.items()}
    size = len(hubs) * len(legs)
    values = draw(st.lists(st.floats(0.0, 1e4), min_size=size, max_size=size))
    if draw(st.integers(0, 7)) == 0:  # a negative value is refused, by both stores alike
        values[draw(st.integers(0, size - 1))] = -1.0
    return hubs, legs, values, draw(metrics)


calls = st.one_of(
    st.tuples(st.just("get"), st.tuples(st.sampled_from(HOSTS), st.sampled_from(HOSTS)),
              metrics, offsets),
    st.tuples(st.just("get_many"), pairs_strategy, metrics, offsets),
    st.tuples(st.just("len")),
    st.tuples(st.just("put_many"), st.lists(records(), max_size=3)),
    st.tuples(st.just("put_synthetic"), synthetic_batches(), offsets),
    st.tuples(st.just("save"), offsets),
)


def _answer(store, call, path):
    """What the store answers to the call, and the bytes of its file after a `save`."""
    kind = call[0]
    if kind == "get":
        return repr(store.get(call[1], call[2]))
    if kind == "get_many":
        found, first = store.get_many(call[1], call[2])
        return repr(found), repr(first)
    if kind == "len":
        return len(store)
    if kind == "put_many":
        return store.put_many(call[1])
    if kind == "put_synthetic":
        hubs, legs, values, metric = call[1]
        try:
            return repr(store.put_synthetic(list(hubs), dict(legs), list(values), metric))
        except ValueError as exc:
            return f"ValueError: {exc}"
    store.save(path)
    with open(path, "rb") as fh:
        return fh.read()


@settings(max_examples=300, deadline=None)
@given(
    start=st.sampled_from(["empty", "warm", "expired", "pending"]),
    seeded=st.lists(records(), min_size=1, max_size=6),
    pending=synthetic_batches(),
    batch=synthetic_batches(),
    sequence=st.lists(calls, max_size=8),
)
def test_every_call_answers_as_a_store_given_the_records_at_once(start, seeded, pending, batch,
                                                                  sequence):
    """Row form answers as the per-pair reference from an empty store, one
    with live or expired records, and one with another batch pending."""
    stores = [MeasurementStore(ttl_s=TTL_S), EagerStore(ttl_s=TTL_S)]
    if start in ("warm", "expired"):
        age = 2 * TTL_S if start == "expired" else 0.0
        for store in stores:
            store.put_many(m._replace(taken_at=NOW - age) for m in seeded)
    first = [("put_synthetic", pending, 0.0)] if start == "pending" else []
    clock = [NOW]
    with tempfile.TemporaryDirectory() as scratch, pytest.MonkeyPatch.context() as mp:
        mp.setattr(measurement.time, "time", lambda: clock[0])
        paths = [os.path.join(scratch, name) for name in ("deferred.cache", "eager.cache")]
        for call in [*first, ("put_synthetic", batch, 0.0), *sequence]:
            clock[0] = NOW + (call[-1] if call[0] in ("get", "get_many", "put_synthetic",
                                                      "save") else 0.0)
            answers = [_answer(store, call, path) for store, path in zip(stores, paths)]
            assert answers[0] == answers[1], call
        clock[0] = NOW
        assert _answer(stores[0], ("save",), paths[0]) == _answer(stores[1], ("save",), paths[1])
