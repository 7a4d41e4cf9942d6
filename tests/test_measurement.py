import gc
import json
import math
import os
import socket
import sys
import tempfile
import threading
import time
import tracemalloc

from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudforecast import measurement
from cloudforecast.candidates import Metric
from cloudforecast.errors import DocumentFormatError, UnknownLocationError
from cloudforecast.geo import EARTH_RADIUS_KM, Coordinate, LocationTable
from cloudforecast.measurement import (
    Aggregator,
    Measurement,
    MeasurementStore,
    ProbeConfig,
    SyntheticNetworkModel,
    aggregate,
    as_url,
    collect_measurements,
    measure_distance,
    measure_http_rtt,
    measure_latency,
    synthetic_measure,
)
from cloudforecast.scoring import ScoringConfig
from cloudforecast.services import make_node_server, start_in_thread
from helpers import NON_FINITE, canonical_key, slc_km

TABLE = LocationTable(
    {
        "a.example.org": Coordinate(0.0, 0.0),
        "b.example.org": Coordinate(0.0, 0.0),
        "far.example.org": Coordinate(0.0, 180.0),
        "paris.example.org": Coordinate(48.8566, 2.3522),
    }
)

MODEL = SyntheticNetworkModel()


def test_aggregate_mean():
    assert aggregate([1, 2, 3, 4, 5], Aggregator.MEAN) == 3.0


def test_aggregate_min():
    assert aggregate([30, 10, 20], Aggregator.MIN) == 10


def test_aggregate_median():
    assert aggregate([30, 10, 20], Aggregator.MEDIAN) == 20


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        aggregate([], Aggregator.MEAN)


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=20))
def test_aggregator_bounds(values):
    assert min(values) <= aggregate(values, Aggregator.MEDIAN) <= max(values)
    assert min(values) <= aggregate(values, Aggregator.MEAN) <= max(values)
    assert aggregate(values, Aggregator.MIN) == min(values)


def test_distance_of_colocated_pair_is_zero():
    m = measure_distance(("a.example.org", "b.example.org"), TABLE)
    assert m.success and m.value == 0.0 and m.unit == "km" and m.samples == 1


def test_distance_antipodal():
    m = measure_distance(("a.example.org", "far.example.org"), TABLE)
    assert m.value == pytest.approx(math.pi * EARTH_RADIUS_KM, rel=1e-12)


def test_distance_agrees_with_independent_oracle():
    m = measure_distance(("a.example.org", "paris.example.org"), TABLE)
    oracle = slc_km(Coordinate(0, 0), Coordinate(48.8566, 2.3522))
    assert m.value == pytest.approx(oracle, rel=0.005)


def test_distance_unknown_location():
    with pytest.raises(UnknownLocationError):
        measure_distance(("a.example.org", "nowhere.example.org"), TABLE)


def test_synthetic_ping_colocated_is_base_latency():
    m = synthetic_measure(("a.example.org", "b.example.org"), Metric.PING, MODEL, TABLE)
    assert m.value == MODEL.base_latency_ms


def test_synthetic_http_colocated_adds_overhead():
    m = synthetic_measure(("a.example.org", "b.example.org"), Metric.HTTP_RTT, MODEL, TABLE)
    assert m.value == MODEL.base_latency_ms + MODEL.http_overhead_ms


def test_synthetic_ping_at_1000km():
    lon = math.degrees(1000.0 / EARTH_RADIUS_KM)
    table = LocationTable(
        {"a.example.org": Coordinate(0, 0), "x.example.org": Coordinate(0, lon)}
    )
    m = synthetic_measure(("a.example.org", "x.example.org"), Metric.PING, MODEL, table)
    assert m.value == pytest.approx(15.0, rel=1e-9)


def test_synthetic_is_pure():
    pair = ("a.example.org", "paris.example.org")
    m1 = synthetic_measure(pair, Metric.PING, MODEL, TABLE)
    m2 = synthetic_measure(pair, Metric.PING, MODEL, TABLE)
    assert (m1.value, m1.success, m1.samples) == (m2.value, m2.success, m2.samples)


@given(
    lat=st.floats(min_value=-90, max_value=90, allow_nan=False),
    lon=st.floats(min_value=-180, max_value=180, allow_nan=False),
)
@settings(max_examples=100)
def test_synthetic_http_dominates_ping(lat, lon):
    table = LocationTable(
        {"o.example.org": Coordinate(0, 0), "p.example.org": Coordinate(lat, lon)}
    )
    pair = ("o.example.org", "p.example.org")
    ping = synthetic_measure(pair, Metric.PING, MODEL, table)
    http = synthetic_measure(pair, Metric.HTTP_RTT, MODEL, table)
    assert http.value >= ping.value
    assert ping.value >= MODEL.base_latency_ms


def test_synthetic_ping_monotone_in_distance():
    values = []
    for lon in (0.0, 10.0, 60.0, 120.0, 179.0):
        table = LocationTable(
            {"o.example.org": Coordinate(0, 0), "p.example.org": Coordinate(0, lon)}
        )
        values.append(
            synthetic_measure(("o.example.org", "p.example.org"), Metric.PING, MODEL, table).value
        )
    assert values == sorted(values)


def test_model_rejects_jitter_and_negatives():
    with pytest.raises(TypeError):
        SyntheticNetworkModel(jitter=1.0)
    with pytest.raises(ValueError):
        SyntheticNetworkModel(base_latency_ms=-1)


def _measurement(src="s", dst="d", metric=Metric.PING, value=1.0, taken_at=None):
    return Measurement(
        src=src,
        dst=dst,
        metric=metric,
        value=value,
        unit=measurement.UNIT_BY_METRIC[metric],
        samples=1,
        success=True,
        taken_at=time.time() if taken_at is None else taken_at,
    )


class CountingProvider:
    def __init__(self, value=7.0, metric=Metric.PING):
        self.calls = 0
        self.metric = metric
        self.value = value

    def __call__(self, pair):
        self.calls += 1
        return _measurement(pair[0], pair[1], self.metric, self.value)


def test_cache_hit_skips_provider():
    store = MeasurementStore(ttl_s=60)
    provider = CountingProvider()
    m1 = collect_measurements(store, [("a", "b")], Metric.PING, provider)[("a", "b")]
    m2 = collect_measurements(store, [("a", "b")], Metric.PING, provider)[("a", "b")]
    assert provider.calls == 1
    assert m1 == m2


def test_expired_entry_reinvokes_provider():
    store = MeasurementStore(ttl_s=0.01)
    provider = CountingProvider()
    collect_measurements(store, [("a", "b")], Metric.PING, provider)[("a", "b")]
    time.sleep(0.03)
    collect_measurements(store, [("a", "b")], Metric.PING, provider)[("a", "b")]
    assert provider.calls == 2


def test_symmetric_metric_shares_cache_entry():
    store = MeasurementStore(ttl_s=60)
    provider = CountingProvider()
    collect_measurements(store, [("a", "b")], Metric.PING, provider)[("a", "b")]
    collect_measurements(store, [("b", "a")], Metric.PING, provider)[("b", "a")]
    assert provider.calls == 1


def test_store_persistence_round_trip(tmp_path):
    path = str(tmp_path / "probes.cache")
    store = MeasurementStore(ttl_s=3600)
    store.put_many([_measurement("a", "b", Metric.PING, 12.5)])
    store.put_many([_measurement("a", "b", Metric.DISTANCE, 440.0)])
    store.save(path)
    loaded = MeasurementStore.load(path, ttl_s=3600)
    assert len(loaded) == 2
    assert loaded.get(("a", "b"), Metric.PING).value == 12.5
    assert loaded.get(("b", "a"), Metric.DISTANCE).value == 440.0


def test_store_load_missing_file_is_empty(tmp_path):
    store = MeasurementStore.load(str(tmp_path / "nope.cache"))
    assert len(store) == 0


def test_store_load_later_record_wins(tmp_path):
    path = tmp_path / "dup.cache"
    store = MeasurementStore(ttl_s=3600)
    store.put_many([_measurement("a", "b", Metric.PING, 1.0)])
    store.save(str(path))
    first = path.read_text()
    store.put_many([_measurement("a", "b", Metric.PING, 2.0)])
    store.save(str(path))
    # simulate an appended file: old record first, new record after
    path.write_text(first + path.read_text())
    loaded = MeasurementStore.load(str(path))
    assert loaded.get(("a", "b"), Metric.PING).value == 2.0


@pytest.mark.parametrize(
    "record, message",
    [
        ('{"bogus": 1, "dst": "b", "metric": "ping", "note": "", "samples": 1, "src": "a", '
         '"success": true, "taken_at": 1.0, "unit": "ms", "value": 2.0}',
         "unknown field(s): bogus"),
        ('{"dst": "b", "metric": "ping", "samples": 1, "src": "a", '
         '"success": true, "taken_at": 1.0, "unit": "ms"}', "missing required field(s): value"),
        ('{"dst": "b", "samples": 1, "src": "a", '
         '"success": true, "taken_at": 1.0, "unit": "ms", "value": 2.0}',
         "missing required field(s): metric"),
        ('["a", "b"]', "expected an object"),
        ("{not json", "not a JSON record"),
    ],
    ids=["unknown-field", "missing-field", "missing-metric", "not-an-object", "non-json"],
)
def test_store_load_bad_record_names_file_and_line(tmp_path, record, message):
    path = tmp_path / "bad.cache"
    store = MeasurementStore(ttl_s=3600)
    store.put_many([_measurement("a", "b", Metric.PING, 1.0)])
    store.save(str(path))
    path.write_text(path.read_text() + "\n" + record + "\n")
    with pytest.raises(DocumentFormatError) as info:
        MeasurementStore.load(str(path))
    assert str(info.value).startswith(f"{path}:3: ")
    assert message in str(info.value)


def test_store_save_failing_halfway_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "probes.cache"
    store = MeasurementStore(ttl_s=3600)
    store.put_many([_measurement("a", "b", Metric.PING, 1.0)])
    store.save(str(path))
    old = path.read_text()
    store.put_many([_measurement("c", "d", Metric.PING, 2.0)])

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("cloudforecast.measurement.os.replace", fail)
    with pytest.raises(OSError, match="disk full"):
        store.save(str(path))
    assert path.read_text() == old
    assert [p.name for p in tmp_path.iterdir()] == ["probes.cache"]  # no temp file left


def test_store_save_failing_while_writing_lines_keeps_old_file(tmp_path):
    path = tmp_path / "probes.cache"
    store = MeasurementStore(ttl_s=3600)
    store.put_many([_measurement("a", "b", Metric.PING, 1.0)])
    store.save(str(path))
    old = path.read_bytes()
    # enough lines before the bad one that some reach the temp file first
    store.put_many(_measurement(f"c{i:05}", "d", Metric.PING, 2.0) for i in range(3000))
    store.put_many([_measurement("z", "zz", Metric.PING, 3.0)._replace(note=object())])
    with pytest.raises(TypeError, match="not JSON serializable"):
        store.save(str(path))
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["probes.cache"]  # no temp file left


def test_store_save_and_load_hold_less_than_a_copy_of_the_file(tmp_path):
    now = time.time()
    store = MeasurementStore(ttl_s=3600)
    store.put_many(_measurement(f"node-{i % 500}.example.org", f"probe.r{i // 500}.example",
                                (Metric.PING, Metric.HTTP_RTT)[i % 2], 1.0 + i / 7, now)
                   for i in range(20000))
    assert len(store) == 20000
    path = tmp_path / "probes.cache"
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        store.save(str(path))
        save_peak = tracemalloc.get_traced_memory()[1] - start
        size = path.stat().st_size
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        loaded = MeasurementStore.load(str(path))
        gc.collect()
        load_kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    # the lines are written as they are formatted, not joined first
    assert save_peak < size
    # each distinct string of the file is held once
    assert load_kept < 1.6 * size
    first = loaded.get(("node-0.example.org", "probe.r0.example"), Metric.PING, now=now)
    second = loaded.get(("node-0.example.org", "probe.r1.example"), Metric.PING, now=now)
    assert first.src is second.src


def test_store_save_writes_sorted_record_fields(tmp_path):
    path = tmp_path / "probes.cache"
    store = MeasurementStore(ttl_s=3600)
    taken_at = float(int(time.time()))  # recent: `save` leaves out expired records
    store.put_many([_measurement("a", "b", Metric.PING, 1.5, taken_at=taken_at)])
    store.save(str(path))
    assert path.read_text() == (
        '{"dst": "b", "metric": "ping", "note": "", "samples": 1, "src": "a", '
        f'"success": true, "taken_at": {taken_at!r}, "unit": "ms", "value": 1.5}}\n'
    )


def _write_cache(path, *measurements):
    """Save the measurements to `path` and set the file's mtime far back, so
    any rewrite shows in `st_mtime_ns`."""
    store = MeasurementStore(ttl_s=3600)
    for m in measurements:
        store.put_many([m])
    store.save(str(path))
    os.utime(path, ns=(10**9, 10**9))


def _refuse_replace(monkeypatch):
    def refuse(src, dst):
        raise AssertionError(f"rewrote {dst}")

    monkeypatch.setattr("cloudforecast.measurement.os.replace", refuse)


def test_store_save_of_unchanged_entries_leaves_the_file_untouched(tmp_path, monkeypatch):
    path = tmp_path / "probes.cache"
    _write_cache(path, _measurement("a", "b", Metric.PING, 1.0),
                 _measurement("c", "a", Metric.DISTANCE, 2.0))
    before = (path.read_bytes(), path.stat().st_mtime_ns)
    loaded = MeasurementStore.load(str(path))
    assert loaded.get(("a", "c"), Metric.DISTANCE).value == 2.0  # a hit changes nothing
    fresh = MeasurementStore()
    fresh.put_many([_measurement("a", "b", Metric.PING, 1.0)])
    fresh.save(str(tmp_path / "fresh.cache"))
    _refuse_replace(monkeypatch)
    loaded.save(str(path))
    loaded.save(str(path))
    fresh.save(str(tmp_path / "fresh.cache"))  # its last save wrote that file
    assert (path.read_bytes(), path.stat().st_mtime_ns) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.cache", "probes.cache"]


def test_store_save_leaves_out_expired_records_no_lookup_evicts(tmp_path):
    fresh = _measurement("a", "b", Metric.PING, 1.0)
    stale = _measurement("c", "d", Metric.PING, 2.0, taken_at=time.time() - 7200)

    def saved(name, ttl_s, *measurements):
        store = MeasurementStore(ttl_s=ttl_s)
        store.put_many(measurements)
        store.save(str(tmp_path / name))
        return tmp_path / name

    wanted = saved("fresh.cache", 3600, fresh).read_text()
    assert saved("from-memory.cache", 3600, fresh, stale).read_text() == wanted
    path = saved("probes.cache", 10**6, fresh, stale)  # neither record expires under this TTL
    assert len(path.read_text().splitlines()) == 2
    # no lookup asks for (c, d), so only the save can drop it
    MeasurementStore.load(str(path), ttl_s=3600).save(str(path))
    assert path.read_text() == wanted


def _put_one(store, path):
    store.put_many([_measurement("x", "y", Metric.PING, 3.0)])
    return path


def _evict_one(store, path):
    assert store.get(("a", "b"), Metric.PING, now=time.time() + 7200) is None
    return path


def _other_path(store, path):
    return path.with_name("other.cache")


@pytest.mark.parametrize("change", [_put_one, _evict_one, _other_path],
                         ids=["put", "ttl-eviction", "other-path"])
def test_store_save_writes_after_a_change_or_to_another_path(tmp_path, change):
    path = tmp_path / "probes.cache"
    _write_cache(path, _measurement("a", "b", Metric.PING, 1.0))
    store = MeasurementStore.load(str(path))
    target = change(store, path)
    store.save(str(target))
    assert target.stat().st_mtime_ns != 10**9
    assert len(MeasurementStore.load(str(target))) == len(store)


def test_store_save_writes_when_the_file_was_replaced_since_load(tmp_path):
    path = tmp_path / "probes.cache"
    _write_cache(path, _measurement("a", "b", Metric.PING, 1.0))
    store = MeasurementStore.load(str(path))
    ours = path.read_text()
    _write_cache(path, _measurement("c", "d", Metric.PING, 2.0))  # another writer
    store.save(str(path))
    assert path.read_text() == ours


def test_store_save_compacts_a_file_with_duplicate_keys(tmp_path):
    path = tmp_path / "dup.cache"
    _write_cache(path, _measurement("a", "b", Metric.PING, 1.0, taken_at=100.0))
    first = path.read_text()
    _write_cache(path, _measurement("a", "b", Metric.PING, 2.0, taken_at=100.0))
    last = path.read_text()
    path.write_text(first + last)
    MeasurementStore.load(str(path)).save(str(path))
    assert path.read_text() == last


def test_store_load_of_a_missing_file_then_save_creates_it(tmp_path):
    path = tmp_path / "new.cache"
    store = MeasurementStore.load(str(path))
    store.save(str(path))
    assert path.exists() and path.read_text() == ""
    store.put_many([_measurement("a", "b", Metric.PING, 1.0)])
    store.save(str(path))
    assert len(MeasurementStore.load(str(path))) == 1


def test_store_concurrent_puts_and_saves_lose_no_entry(tmp_path):
    path = str(tmp_path / "probes.cache")
    store = MeasurementStore()
    for i in range(300):  # so that each save serializes for a while
        store.put_many([_measurement("base", f"d{i}", Metric.PING, 1.0)])
    store.save(path)

    def work(worker):
        for i in range(20):
            store.put_many([_measurement(f"w{worker}", f"d{i}", Metric.PING, 1.0)])
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
    store.save(path)  # a save that raced a put must not have marked the file current
    assert len(MeasurementStore.load(path)) == 300 + 8 * 20


_GOOD = ('{"dst": "b", "metric": "ping", "note": "", "samples": 1, "src": "a", '
         '"success": true, "taken_at": 1.0, "unit": "ms", "value": 2.0}')


@pytest.mark.parametrize(
    "record, message",
    [
        (_GOOD.replace('"ping"', '"warp"'), "'warp' is not a valid Metric"),
        (_GOOD.replace('"ping"', '["ping"]'), "['ping'] is not a valid Metric"),
        (_GOOD.replace('"samples": 1', '"samples": 0'), "samples must be >= 1"),
        (_GOOD.replace("2.0", "-2.0"), "successful measurement value must be >= 0"),
        (_GOOD + " {}", "not a JSON record: Extra data"),
        ('"text"', "expected an object, got str"),
    ],
    ids=["unknown-metric", "unhashable-metric", "zero-samples", "negative-value",
         "trailing-data", "string"],
)
def test_store_load_rejects_invalid_values_naming_file_and_line(tmp_path, record, message):
    path = tmp_path / "bad.cache"
    path.write_text(f"{_GOOD}\n\n  {record}  \n")
    with pytest.raises(DocumentFormatError) as info:
        MeasurementStore.load(str(path))
    assert str(info.value) == f"{path}:3: {message}"


@pytest.mark.parametrize(
    "config, field",
    [
        (SyntheticNetworkModel, "base_latency_ms"),
        (SyntheticNetworkModel, "ms_per_100km"),
        (SyntheticNetworkModel, "http_overhead_ms"),
        (ProbeConfig, "timeout_ms"),
        (ProbeConfig, "samples_per_pair"),
        (ProbeConfig, "max_parallel_probes"),
        (ScoringConfig, "weight_ping"),
        (ScoringConfig, "weight_http"),
        (ScoringConfig, "failure_penalty"),
    ],
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_configs_reject_non_finite_values(config, field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        config(**{field: value})
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        config()._replace(**{field: value})


@pytest.mark.parametrize("field", ["samples_per_pair", "max_parallel_probes"])
def test_probe_config_rejects_an_integer_too_large_for_a_float(field):
    with pytest.raises(ValueError, match=f"{field} must be finite, got an integer too large"):
        ProbeConfig(**{field: 10**400})


def test_provider_invocations_bounded_by_distinct_keys():
    import random as _random

    rng = _random.Random(5150)
    hosts = [f"h{i}" for i in range(5)]
    for _ in range(30):
        store = MeasurementStore(ttl_s=60)
        providers = {m: CountingProvider(metric=m) for m in Metric}
        keys = set()
        for _ in range(rng.randint(1, 40)):
            pair = (rng.choice(hosts), rng.choice(hosts))
            metric = rng.choice(list(Metric))
            keys.add(canonical_key(pair, metric))
            collect_measurements(store, [pair], metric, providers[metric])[pair]
        assert sum(p.calls for p in providers.values()) <= len(keys)


def test_collect_measurements_parallel_fanout():
    store = MeasurementStore(ttl_s=60)
    provider = CountingProvider()
    pairs = [(f"s{i}", f"d{i}") for i in range(8)]
    first = collect_measurements(store, pairs, Metric.PING, provider, max_parallel=4)
    assert set(first) == set(pairs)
    assert provider.calls == 8
    again = collect_measurements(store, pairs, Metric.PING, provider, max_parallel=4)
    assert provider.calls == 8  # all cache hits
    assert again == first


def test_latency_loopback_smoke():
    config = ProbeConfig(samples_per_pair=3, timeout_ms=500)
    m = measure_latency(("here", "127.0.0.1"), config, measurement.EchoProber())
    assert m.success
    assert m.value < 5.0
    assert m.metric is Metric.PING


def test_tcp_fallback_counts_refusal_as_round_trip():
    from cloudforecast.measurement import EchoProber

    prober = EchoProber()
    prober._mode = "tcp-connect"  # force the fallback path
    config = ProbeConfig(samples_per_pair=2, timeout_ms=500)
    m = measure_latency(("here", "127.0.0.1"), config, prober)
    # no listener on loopback 80/443: the RST is still one measured round trip
    assert m.success
    assert m.value < 50.0
    assert m.note == "echo/tcp-connect"


def test_latency_unroutable_fails_within_budget(monkeypatch):
    # A silent destination built on loopback: a listener that never accepts,
    # with its accept queue filled, so the kernel drops further SYNs and
    # every probe connect runs to its timeout. No outside address can be
    # trusted to stay silent (192.0.2.1 is a live gateway on some networks).
    import cloudforecast.measurement
    from cloudforecast.measurement import EchoProber

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    fillers = []
    try:
        listener.bind(("127.0.0.1", 0))
        listener.listen(0)
        port = listener.getsockname()[1]
        for _ in range(8):
            filler = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            filler.setblocking(False)
            fillers.append(filler)
            filler.connect_ex(("127.0.0.1", port))
        time.sleep(0.05)  # let the fillers' handshakes settle into the queue

        check = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        check.settimeout(0.2)
        try:
            check.connect(("127.0.0.1", port))
        except socket.timeout:
            pass  # silent, as the test needs
        except OSError as exc:
            pytest.skip(f"a full accept queue is refused here, not silent: {exc!r}")
        else:
            pytest.skip("a full accept queue still accepts connects here")
        finally:
            check.close()

        monkeypatch.setattr(cloudforecast.measurement, "_TCP_PROBE_PORTS", (port,))
        prober = EchoProber()
        prober._mode = "tcp-connect"  # loopback always answers ICMP
        config = ProbeConfig(samples_per_pair=2, timeout_ms=100)
        start = time.perf_counter()
        m = measure_latency(("here", "127.0.0.1"), config, prober)
        elapsed = time.perf_counter() - start
        assert not m.success
        assert m.note == "echo/tcp-connect"
        assert elapsed < 2.0  # samples x timeout + generous slack
    finally:
        for filler in fillers:
            filler.close()
        listener.close()


def test_latency_unresolvable_host_fails():
    config = ProbeConfig(samples_per_pair=1, timeout_ms=100)
    m = measure_latency(("here", "blackhole.invalid"), config, measurement.EchoProber())
    assert not m.success


def test_http_rtt_loopback_smoke():
    server = make_node_server("127.0.0.1", 0)
    start_in_thread(server)
    try:
        port = server.server_address[1]
        config = ProbeConfig(samples_per_pair=2, timeout_ms=1000)
        m = measure_http_rtt(("here", f"http://127.0.0.1:{port}/v1/health"), config)
        assert m.success and m.value > 0.0
    finally:
        server.shutdown()
        server.server_close()


def test_http_rtt_counts_error_response_as_round_trip():
    # any completed response counts, here the stub node's 404 for an unknown path
    server = make_node_server("127.0.0.1", 0)
    start_in_thread(server)
    try:
        port = server.server_address[1]
        config = ProbeConfig(samples_per_pair=2, timeout_ms=1000)
        m = measure_http_rtt(("here", f"http://127.0.0.1:{port}/nope"), config)
        assert m.success and m.samples == 2
        assert m.note == "http-get"
    finally:
        server.shutdown()
        server.server_close()


def test_http_rtt_closed_port_fails():
    config = ProbeConfig(samples_per_pair=1, timeout_ms=100)
    m = measure_http_rtt(("here", "http://127.0.0.1:1/"), config)
    assert not m.success


@pytest.mark.parametrize("endpoint, url", [
    ("h.example.org", "http://h.example.org/"),
    ("h.example.org:8080", "http://h.example.org:8080/"),
    ("127.0.0.7", "http://127.0.0.7/"),
    ("http://h.example.org", "http://h.example.org/"),
    ("https://h.example.org/x?y=1#z", "https://h.example.org/x?y=1#z"),
    ("http://h.example.org?x=1", "http://h.example.org/?x=1"),
    ("http://h.example.org#f", "http://h.example.org/#f"),
    ("http://h.example.org:80?q=a/b", "http://h.example.org:80/?q=a/b"),
    ("h.example.org?x=1#f/g", "http://h.example.org/?x=1#f/g"),
])
def test_as_url_gives_a_root_path_and_keeps_the_query_and_fragment(endpoint, url):
    assert as_url(endpoint) == url
    given_parts = urlsplit(endpoint if "://" in endpoint else f"http://{endpoint}")
    assert urlsplit(url)._replace(path="") == given_parts._replace(path="")


@settings(max_examples=100)
@given(host=st.from_regex(r"[a-z0-9][a-z0-9.-]{0,20}", fullmatch=True),
       port=st.one_of(st.just(""), st.integers(1, 65535).map(lambda p: f":{p}")))
def test_as_url_of_a_plain_host_or_host_port_appends_the_root_path(host, port):
    assert as_url(f"{host}{port}") == f"http://{host}{port}/"
    assert as_url(f"http://{host}{port}") == f"http://{host}{port}/"


def test_an_http_probe_sends_the_query_of_its_endpoint(lab):
    m = measure_http_rtt(("here", "http://h.example.org?x=1"), ProbeConfig(samples_per_pair=1))
    assert m.success and lab.gets == ["http://h.example.org/?x=1"]


# a 64-character label is no DNS name: encoding it fails before any packet is sent
UNENCODABLE = "a" * 64 + ".example.org"


def _no_connect(sock, address):
    raise AssertionError(f"connect to {address} attempted")


def test_echo_probe_of_an_unencodable_host_is_a_failed_sample(monkeypatch):
    from cloudforecast.measurement import EchoProber

    monkeypatch.setattr(socket.socket, "connect", _no_connect)
    assert EchoProber().probe(UNENCODABLE, 0.1) is None


def test_http_get_of_an_unencodable_host_is_a_failed_sample(monkeypatch):
    from cloudforecast.measurement import http_get_ms

    monkeypatch.setattr(socket.socket, "connect", _no_connect)
    assert http_get_ms(f"http://{UNENCODABLE}/", 0.1) is None


@pytest.mark.parametrize("ttl", [float("nan"), float("inf"), -float("inf")])
def test_store_rejects_a_non_finite_ttl(tmp_path, ttl):
    # `age > nan` is always false, so a nan TTL would never expire an entry
    with pytest.raises(ValueError, match="ttl_s must be finite"):
        MeasurementStore(ttl_s=ttl)
    with pytest.raises(ValueError, match="ttl_s must be finite"):
        MeasurementStore.load(str(tmp_path / "missing.cache"), ttl_s=ttl)


def test_probe_config_takes_an_aggregator_name():
    config = ProbeConfig(aggregator="median")
    assert config.aggregator is Aggregator.MEDIAN
    assert aggregate([1.0, 2.0, 9.0], config.aggregator) == 2.0
    with pytest.raises(ValueError):
        ProbeConfig(aggregator="mode")


@pytest.mark.parametrize("port", [0, -1, 65536])
def test_agent_providers_reject_a_port_out_of_range(catalog, port):
    from cloudforecast.measurement import agent_providers

    with pytest.raises(ValueError, match=f"agent_port must be in 1..65535, got {port}"):
        agent_providers(catalog, ProbeConfig(), agent_port=port)


# a cache record that would rank with a nan, count a string as a success, never
# expire, or hold a count or unit no measurement has
HUGE, TOO_LARGE = NON_FINITE["huge"]
POISONED = {
    "nan-value": ("value", "NaN", "successful measurement value must be finite, got nan"),
    "inf-value": ("value", "Infinity", "successful measurement value must be finite, got inf"),
    "string-success": ("success", '"false"', "success must be true or false, got 'false'"),
    "nan-taken-at": ("taken_at", "NaN", "taken_at must be a finite number, got nan"),
    "inf-taken-at": ("taken_at", "-Infinity", "taken_at must be a finite number, got -inf"),
    "huge-value": ("value", HUGE, f"successful measurement value must be finite, got {TOO_LARGE}"),
    "huge-taken-at": ("taken_at", HUGE, f"taken_at must be a finite number, got {TOO_LARGE}"),
    "bool-samples": ("samples", "true", "samples must be an integer, got True"),
    "float-samples": ("samples", "2.5", "samples must be an integer, got 2.5"),
    "nan-samples": ("samples", "NaN", "samples must be an integer, got nan"),
    "inf-samples": ("samples", "Infinity", "samples must be an integer, got inf"),
    "string-samples": ("samples", '"2"', "samples must be an integer, got '2'"),
    "null-unit": ("unit", "null", "unit must be 'ms' for this metric, got None"),
    "distance-unit": ("unit", '"km"', "unit must be 'ms' for this metric, got 'km'"),
    "negative-value": ("value", "-1e-300", "successful measurement value must be >= 0"),
    "zero-samples": ("samples", "0", "samples must be >= 1"),
}


@pytest.mark.parametrize("field, value, message", POISONED.values(), ids=list(POISONED))
def test_store_load_rejects_a_poisoned_record_naming_file_and_line(tmp_path, field, value,
                                                                    message):
    fields = {"dst": '"b"', "metric": '"ping"', "note": '""', "samples": "1", "src": '"a"',
              "success": "true", "taken_at": "1.0", "unit": '"ms"', "value": "2.0"}
    good = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
    fields[field] = value
    poisoned = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
    path = tmp_path / "poisoned.cache"
    first = good.replace('"ping"', '"distance"').replace('"ms"', '"km"')
    path.write_text(first + "\n" + poisoned + "\n")
    with pytest.raises(DocumentFormatError) as info:
        MeasurementStore.load(str(path))
    assert str(info.value) == f"{path}:2: {message}"


# any JSON scalar, with the edges of `load`'s one test for the usual record
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.just(10**400),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.sampled_from(["ms", "km"]), st.text(max_size=3),
)
# each field of a usual record; a drawn record takes any scalar in some fields
USUAL = {"value": st.floats(min_value=0.0, allow_infinity=False), "samples": st.integers(1),
         "success": st.just(True), "taken_at": st.floats(allow_nan=False, allow_infinity=False)}


@given(metric=st.sampled_from(Metric), data=st.data())
@settings(max_examples=300, deadline=None)
def test_store_load_of_one_record_is_the_measurement_built_from_it(metric, data):
    usual = dict(USUAL, unit=st.just(measurement.UNIT_BY_METRIC[metric]))
    odd = data.draw(st.sets(st.sampled_from(sorted(usual)), max_size=2), label="odd fields")
    record = {"dst": "b", "metric": metric.value, "note": "n", "src": "a",
              **{name: data.draw(SCALARS if name in odd else usual[name], label=name)
                 for name in sorted(usual)}}
    try:
        expected = Measurement(**dict(record, metric=metric))
    except (TypeError, ValueError) as exc:
        expected = exc
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "one.cache")
        with open(path, "w") as fh:
            fh.write(json.dumps(record) + "\n")
        if isinstance(expected, Exception):
            with pytest.raises(DocumentFormatError) as info:
                MeasurementStore.load(path)
            assert str(info.value) == f"{path}:1: {expected}"
            return
        loaded = MeasurementStore.load(path).get(("a", "b"), metric, now=record["taken_at"])
    # repr tells 1 from 1.0 and True, and -0.0 from 0.0
    assert list(map(repr, loaded)) == list(map(repr, expected))


def test_store_load_keeps_a_failed_record_whatever_its_value(tmp_path):
    path = tmp_path / "failed.cache"
    path.write_text('{"dst": "b", "metric": "ping", "note": "echo/tcp-connect", "samples": 5, '
                    '"src": "a", "success": false, "taken_at": 1.0e12, "unit": "ms", '
                    '"value": NaN}\n')
    loaded = MeasurementStore.load(str(path)).get(("a", "b"), Metric.PING, now=1.0e12)
    assert loaded.success is False and math.isnan(loaded.value)
