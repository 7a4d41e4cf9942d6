"""A synthetic batch's records are built only when something reads them:
`MeasurementStore.put_synthetic` keeps a pending row per metric, and every
public call answers as a store that built the records at once, at the same
clock reading."""

import json
import os
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudforecast import measurement
from cloudforecast.candidates import Metric, hub_legs, weighted_pairs
from cloudforecast.measurement import (
    UNIT_BY_METRIC,
    Measurement,
    MeasurementStore,
    SyntheticNetworkModel,
    _synthetic_records,
    location_index,
    synthetic_providers,
)
from cloudforecast.scoring import ScoringConfig, rank_regions

MODEL = SyntheticNetworkModel()
NOW = 1.0e9
TTL_S = 100.0
HOSTS = ("a", "b", "c", "d")
METRICS = (Metric.PING, Metric.HTTP_RTT)


class EagerStore(MeasurementStore):
    """The store whose `put_synthetic` builds and inserts every record at once."""

    def put_synthetic(self, pairs, values, metric):
        now = time.time()
        found, first = self.get_many(pairs, metric, now)
        if first:
            keep = list(first.values())
            self.put_many(_synthetic_records([pairs[i] for i in keep],
                                             [values[i] for i in keep], metric, now))
        return found


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


def test_a_pending_row_keeps_the_values_given_when_it_was_stored():
    store = MeasurementStore()
    pairs, values = [("a", "b"), ("c", "d")], [1.0, 2.0]
    store.put_synthetic(pairs, values, Metric.PING)
    pairs[0], values[0] = ("x", "y"), 9.0
    assert store.get(("b", "a"), Metric.PING).value == 1.0
    assert store.get(("x", "y"), Metric.PING) is None


ROUNDS = 100


def test_concurrent_batches_store_and_count_each_key_once(tmp_path):
    path = str(tmp_path / "synthetic.cache")
    store = MeasurementStore()
    keys = [(f"h{i:02d}", f"h{j:02d}") for i in range(12) for j in range(i, 12)]

    def batch(worker, i):
        """A key of the batch's own, then a window of keys that other batches
        share, some pairs the other way round."""
        start = (worker * 7 + i * 5) % len(keys)
        pairs = [(f"w{worker}", f"i{i:03d}")] + (keys + keys)[start:start + 20]
        return [pair[::-1] if (worker + i) % 3 else pair for pair in pairs], METRICS[(worker + i) % 2]

    stored = set()  # (metric, key) of every record the batches store
    for worker in range(8):
        for i in range(ROUNDS):
            pairs, metric = batch(worker, i)
            stored.update((metric, tuple(sorted(pair))) for pair in pairs)
    counts, misses = [], []

    def work(worker):
        for i in range(ROUNDS):
            pairs, metric = batch(worker, i)
            store.put_synthetic(pairs, [float(worker)] * len(pairs), metric)
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
    """`get_many` drops expired entries while `put_synthetic` looks the same
    keys up and stores the missing ones: no key is lost or stored twice."""
    legs = hub_legs(fig1_spec)
    pairs = [pair for region in catalog.regions
             for pair in weighted_pairs(legs, region.probe_host)]
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
                else:
                    store.put_synthetic(pairs, [float(worker)] * len(pairs), Metric.PING)
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
    pairs = draw(pairs_strategy.filter(bool))
    values = draw(st.lists(st.floats(0.0, 1e4), min_size=len(pairs), max_size=len(pairs)))
    if draw(st.integers(0, 7)) == 0:  # a negative value is refused, by both stores alike
        values[draw(st.integers(0, len(values) - 1))] = -1.0
    return pairs, values, draw(metrics)


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
        pairs, values, metric = call[1]
        try:
            return repr(store.put_synthetic(list(pairs), list(values), metric))
        except ValueError as exc:
            return f"ValueError: {exc}"
    store.save(path)
    with open(path, "rb") as fh:
        return fh.read()


@settings(max_examples=300, deadline=None)
@given(
    start=st.sampled_from(["empty", "warm", "expired"]),
    seeded=st.lists(records(), min_size=1, max_size=6),
    batch=synthetic_batches(),
    sequence=st.lists(calls, max_size=8),
)
def test_every_call_answers_as_a_store_given_the_records_at_once(start, seeded, batch,
                                                                  sequence):
    stores = [MeasurementStore(ttl_s=TTL_S), EagerStore(ttl_s=TTL_S)]
    if start != "empty":
        age = 2 * TTL_S if start == "expired" else 0.0
        for store in stores:
            store.put_many(m._replace(taken_at=NOW - age) for m in seeded)
    clock = [NOW]
    with tempfile.TemporaryDirectory() as scratch, pytest.MonkeyPatch.context() as mp:
        mp.setattr(measurement.time, "time", lambda: clock[0])
        paths = [os.path.join(scratch, name) for name in ("deferred.cache", "eager.cache")]
        for call in [("put_synthetic", batch, 0.0), *sequence]:
            clock[0] = NOW + (call[-1] if call[0] in ("get", "get_many", "put_synthetic",
                                                      "save") else 0.0)
            answers = [_answer(store, call, path) for store, path in zip(stores, paths)]
            assert answers[0] == answers[1], call
        clock[0] = NOW
        assert _answer(stores[0], ("save",), paths[0]) == _answer(stores[1], ("save",), paths[1])
