"""Edge-weight measurement: distance, echo latency, HTTP round-trip, synthetic model.

Providers are callables `(src, dst) -> Measurement` for one metric; one may
also carry `many(pairs) -> list[Measurement]`, which measures a batch in one
call. Live probe failures never raise; they come back as success=False
measurements so scoring can penalize unreachable endpoints instead of
aborting the analysis.
"""

import json
import math
import operator
import os
import struct
import sys
import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, NamedTuple

from .candidates import Legs, Metric, Pair
from .errors import DocumentFormatError
from .geo import (
    LocationTable,
    RegionCatalog,
    build_location_table,
    haversine_km,
    host_of,
)
from .jsondoc import check_fields
from .workflow import WorkflowSpec, node_locations

PairProvider = Callable[[Pair], "Measurement"]

UNIT_BY_METRIC = {Metric.DISTANCE: "km", Metric.PING: "ms", Metric.HTTP_RTT: "ms"}

_TCP_PROBE_PORTS = (80, 443)

DEFAULT_TTL_S = 3600.0
DEFAULT_AGENT_PORT = 9001


def lazy_requests(module_globals: dict, name: str):
    """The body of a PEP 562 module `__getattr__` for a module that sends GETs.

    `requests` is imported on its first access and kept as the module's
    attribute, so a synthetic run, which sends none, never loads it. Call
    sites read the attribute through the module when they run, so a
    replacement set on the module (a test's stand-in, a tracing proxy) is the
    one they call."""
    if name != "requests":
        raise AttributeError(f"module {module_globals['__name__']!r} has no attribute {name!r}")
    import requests

    module_globals["requests"] = requests
    return requests


def __getattr__(name: str):
    return lazy_requests(globals(), name)


def _requests():
    """This module's `requests` attribute as it is now (see `lazy_requests`)."""
    return sys.modules[__name__].requests


class Aggregator(str, Enum):
    MEAN = "mean"
    MEDIAN = "median"
    MIN = "min"


def aggregate(values: list[float], aggregator: Aggregator) -> float:
    import statistics
    if not values:
        raise ValueError("cannot aggregate zero samples")
    if aggregator is Aggregator.MEAN:
        # clamp: summation rounding may push fmean one ulp past the extremes
        return min(max(statistics.fmean(values), min(values)), max(values))
    if aggregator is Aggregator.MEDIAN:
        return statistics.median(values)
    return min(values)


def check_finite(config, names: tuple[str, ...]) -> None:
    """Reject a nan or infinite value in any of the named numeric fields."""
    for name in names:
        value = getattr(config, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class ProbeConfig:
    samples_per_pair: int = 5
    timeout_ms: float = 3000.0
    aggregator: Aggregator = Aggregator.MEAN
    max_parallel_probes: int = 8

    def __post_init__(self):
        # a name becomes its member, since `aggregate` tells them apart by identity
        object.__setattr__(self, "aggregator", Aggregator(self.aggregator))
        check_finite(self, ("samples_per_pair", "timeout_ms", "max_parallel_probes"))
        if self.samples_per_pair < 1:
            raise ValueError("samples_per_pair must be >= 1")
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive")
        if self.max_parallel_probes < 1:
            raise ValueError("max_parallel_probes must be >= 1")


class _MeasurementFields(NamedTuple):
    src: str
    dst: str
    metric: Metric
    value: float
    unit: str
    samples: int
    success: bool
    taken_at: float
    note: str = ""


class Measurement(_MeasurementFields):
    """One measured value of a pair: an immutable tuple, cheap to build in
    bulk, that every constructor (positional, keyword, `_make`, `_replace`)
    checks."""

    __slots__ = ()

    def __new__(cls, src, dst, metric, value, unit, samples, success, taken_at, note=""):
        check_measured((value,), samples, success, taken_at)
        return tuple.__new__(cls, (src, dst, metric, value, unit, samples, success, taken_at, note))

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through it too
        return cls(*iterable)


_isfinite = math.isfinite


def check_measured(values, samples, success, taken_at) -> None:
    """The rule every measurement keeps, for values that share the other
    fields: a successful value is finite and >= 0, there is at least one
    sample, success is a bool and the time is finite. `Measurement` checks
    its one value with it, a batch builder all of a batch's values at once
    before building the rows unchecked."""
    if success and values and min(values) < 0:
        raise ValueError("successful measurement value must be >= 0")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if success is not True and success is not False:
        raise ValueError(f"success must be true or false, got {success!r}")
    # the sum of finite values overflows only past 1.7e308: then each is checked
    if success and not _isfinite(sum(values)) and not all(map(_isfinite, values)):
        bad = next(value for value in values if not _isfinite(value))
        raise ValueError(f"successful measurement value must be finite, got {bad}")
    try:
        finite = _isfinite(taken_at)
    except TypeError:
        finite = False
    if not finite:  # a nan time would never expire: `age > ttl` is always false
        raise ValueError(f"taken_at must be a finite number, got {taken_at!r}")


# fields a measurement cache record must have; `note` is optional
_RECORD_FIELDS = ("src", "dst", "metric", "value", "unit", "samples", "success", "taken_at")


def _measurement(
    pair: Pair, metric: Metric, value: float, samples: int, note: str, success: bool = True
) -> Measurement:
    """A measurement of the pair taken now, in the metric's unit."""
    return Measurement(
        src=pair[0],
        dst=pair[1],
        metric=metric,
        value=value,
        unit=UNIT_BY_METRIC[metric],
        samples=samples,
        success=success,
        taken_at=time.time(),
        note=note,
    )


def _failed(pair: Pair, metric: Metric, samples: int, note: str) -> Measurement:
    return _measurement(pair, metric, 0.0, max(1, samples), note, success=False)


@dataclass(frozen=True)
class SyntheticNetworkModel:
    """Deterministic stand-in for live probing: latency grows linearly with distance."""

    base_latency_ms: float = 5.0
    ms_per_100km: float = 1.0
    http_overhead_ms: float = 20.0

    def __post_init__(self):
        names = ("base_latency_ms", "ms_per_100km", "http_overhead_ms")
        check_finite(self, names)
        for name in names:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def ping_ms(self, km: float) -> float:
        return self.base_latency_ms + self.ms_per_100km * (km / 100.0)

    def http_ms(self, km: float) -> float:
        return self.ping_ms(km) + self.http_overhead_ms


class MeasurementStore:
    """TTL cache of measurements: one table per metric, keyed by the
    (src, dst) pair.

    A symmetric metric keeps one entry per unordered pair, under the pair
    with the smaller endpoint first (`canonical_key`). Thread-safe;
    concurrent misses may probe twice (last write wins). The store remembers
    the cache file its entries equal, so saving them back to it writes
    nothing.
    """

    def __init__(
        self,
        ttl_s: float = DEFAULT_TTL_S,
        symmetric_metrics: frozenset[Metric] = frozenset(Metric),
    ):
        self.ttl_s = ttl_s
        # a nan TTL would never expire an entry: `age > nan` is always false
        check_finite(self, ("ttl_s",))
        if ttl_s <= 0:
            raise ValueError("ttl_s must be positive")
        self.symmetric_metrics = symmetric_metrics
        self._entries: dict[Metric, dict[Pair, Measurement]] = {metric: {} for metric in Metric}
        self._lock = threading.Lock()
        # identity of the file whose records equal the entries, if any
        self._synced: tuple[int, int, int, int] | None = None

    def canonical_key(self, pair: Pair, metric: Metric) -> tuple[str, str, Metric]:
        # the rule is written out again, per key, in `_lookup`, `put_many` and `load`
        src, dst = pair
        if metric in self.symmetric_metrics and dst < src:
            src, dst = dst, src
        return (src, dst, metric)

    def fold_pairs(self, pairs: dict[Pair, int], metric: Metric) -> dict[Pair, int]:
        """Merge each pair into an earlier one with the same key, summing their
        multiplicities, so every key is looked up once. For an asymmetric
        metric no two pairs share a key and `pairs` comes back as it is. A
        ranking folds the legs once instead (`fold_legs`); this per-hub fold
        is the reference the tests hold that to."""
        if metric not in self.symmetric_metrics:
            return pairs
        folded: dict[Pair, int] = {}
        for (src, dst), n in pairs.items():
            if (dst, src) in folded:  # the only other pair with this key
                folded[(dst, src)] += n
            else:
                folded[(src, dst)] = n
        return folded

    def fold_legs(self, legs: Legs, metric: Metric) -> Legs:
        """`fold_pairs` done once for every hub: an endpoint's two legs map to
        reversed pairs around any hub, so for a symmetric metric the later
        leg merges into the first-seen one, and `weighted_pairs` of the result
        equals `fold_pairs` of `weighted_pairs`, order and multiplicities
        alike."""
        if metric not in self.symmetric_metrics:
            return legs
        folded: Legs = {}
        for (endpoint, to_hub), n in legs.items():
            if (endpoint, not to_hub) in folded:
                folded[(endpoint, not to_hub)] += n
            else:
                folded[(endpoint, to_hub)] = n
        return folded

    def get(self, pair: Pair, metric: Metric, now: float | None = None) -> Measurement | None:
        return self._lookup((pair,), metric, now)[0].get(pair)

    def get_many(
        self, pairs: Iterable[Pair], metric: Metric, now: float | None = None
    ) -> tuple[dict[Pair, Measurement], dict[tuple[str, str, Metric], list[Pair]]]:
        """The unexpired entries of the pairs, in pair order, and the other
        pairs grouped by store key, in first-seen order. An expired entry is
        dropped from the store. A subclass that overrides `get` has each
        lookup made through it."""
        if type(self).get is MeasurementStore.get:
            return self._lookup(pairs, metric, now)
        now = time.time() if now is None else now
        found: dict[Pair, Measurement] = {}
        missing: dict[tuple[str, str, Metric], list[Pair]] = {}
        for pair in pairs:
            entry = self.get(pair, metric, now)
            if entry is None:
                missing.setdefault(self.canonical_key(pair, metric), []).append(pair)
            else:
                found[pair] = entry
        return found, missing

    def _lookup(self, pairs, metric, now):
        """`get_many` in one pass under the lock, at one clock reading."""
        now = time.time() if now is None else now
        symmetric, ttl_s = metric in self.symmetric_metrics, self.ttl_s
        found: dict[Pair, Measurement] = {}
        missing: dict[tuple[str, str, Metric], list[Pair]] = {}
        with self._lock:
            table = self._entries[metric]
            for pair in pairs:
                key = (pair[1], pair[0]) if symmetric and pair[1] < pair[0] else pair
                entry = table.get(key)
                if entry is not None and now - entry.taken_at > ttl_s:
                    del table[key]
                    self._synced = None
                    entry = None
                if entry is None:
                    missing.setdefault((*key, metric), []).append(pair)
                else:
                    found[pair] = entry
        return found, missing

    def put(self, measurement: Measurement) -> None:
        self.put_many((measurement,))

    def put_many(self, measurements: Iterable[Measurement]) -> None:
        """Store each measurement under the key of its own pair and metric, in
        one pass under the lock."""
        symmetric = self.symmetric_metrics
        with self._lock:
            tables = self._entries
            for m in measurements:
                src, dst, metric = m.src, m.dst, m.metric
                if metric in symmetric and dst < src:
                    src, dst = dst, src
                tables[metric][(src, dst)] = m
                self._synced = None

    def __len__(self) -> int:
        with self._lock:
            return sum(map(len, self._entries.values()))

    def save(self, path: str) -> None:
        """One JSON record per key, sorted, so repeated runs reuse probes.

        Nothing is written when `path` is still the file the entries were
        loaded from or last saved to. Otherwise the file is replaced
        atomically: a failed save leaves the old one."""
        with self._lock:
            if self._synced is not None and self._synced == _file_identity(path):
                return
            # sorted by (src, dst, metric) key: a stable sort by pair of the
            # tables taken in metric order
            entries = [
                entry for metric in sorted(self._entries) for entry in self._entries[metric].items()
            ]
            entries.sort(key=_pair_of_entry)
            # record fields in sorted order, as the file format has them
            lines = [
                json.dumps({
                    "dst": m.dst, "metric": m.metric.value, "note": m.note,
                    "samples": m.samples, "src": m.src, "success": m.success,
                    "taken_at": m.taken_at, "unit": m.unit, "value": m.value,
                })
                for _, m in entries
            ]
            tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
            try:
                with open(tmp, "w") as fh:
                    fh.write("\n".join(lines) + ("\n" if lines else ""))
                os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
            self._synced = _file_identity(path)

    @classmethod
    def load(
        cls,
        path: str,
        ttl_s: float = DEFAULT_TTL_S,
        symmetric_metrics: frozenset[Metric] = frozenset(Metric),
    ) -> "MeasurementStore":
        """Read a cache file; on duplicate keys the later record wins."""
        store = cls(ttl_s=ttl_s, symmetric_metrics=symmetric_metrics)
        try:
            fh = open(path)
        except FileNotFoundError:
            return store
        # the store is not shared yet, so records go straight into its tables
        tables = store._entries
        records = 0
        with fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:  # json.loads of the stripped line, without its per-call set-up
                    record, end = _raw_decode(line)
                    if end != len(line):
                        raise json.JSONDecodeError("Extra data", line, end)
                except json.JSONDecodeError as exc:
                    raise DocumentFormatError(
                        f"{path}:{lineno}: not a JSON record: {exc.msg}"
                    ) from exc
                try:
                    record.setdefault("note", "")  # AttributeError: not an object
                    if len(record) != 9:  # a field missing or unknown: `_bad_record` names it
                        raise KeyError
                    (src, dst, metric, value, unit, samples, success, taken_at,
                     note) = _record_values(record)
                    if not (isinstance(src, str) and isinstance(dst, str)):
                        raise TypeError  # worded by `_bad_record`
                    metric = _METRIC_BY_VALUE[metric]
                    check_measured((value,), samples, success, taken_at)
                    m = _new_measurement(
                        Measurement, (src, dst, metric, value, unit, samples, success, taken_at, note)
                    )
                    if metric in symmetric_metrics and dst < src:
                        src, dst = dst, src
                    tables[metric][(src, dst)] = m
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    raise _bad_record(record, f"{path}:{lineno}", exc) from exc
                records += 1
            if records == len(store):  # no record was overridden by a later one
                store._synced = _file_identity(fh.fileno())
        return store


_METRIC_BY_VALUE = {metric.value: metric for metric in Metric}
# a record's values in `Measurement` field order
_record_values = operator.itemgetter(*_RECORD_FIELDS, "note")
_pair_of_entry = operator.itemgetter(0)
# builds a `Measurement` from values already passed through `check_measured`
_new_measurement = tuple.__new__
_raw_decode = json.JSONDecoder().raw_decode


def _file_identity(file: str | int) -> tuple[int, int, int, int] | None:
    """Device, inode, size and mtime of a path or open descriptor; None if missing."""
    try:
        st = os.stat(file)
    except FileNotFoundError:
        return None
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


def _bad_record(record, where: str, exc: Exception) -> DocumentFormatError:
    """The load error for a record that is not a valid measurement, worded
    as the field check, `Metric(...)`, the endpoint type check or
    `Measurement(...)` words it."""
    check_fields(record, _RECORD_FIELDS, ("note",), where)
    try:
        Metric(record["metric"])
    except ValueError as metric_exc:
        exc = metric_exc
    for name in ("src", "dst"):
        if not isinstance(record[name], str):
            exc = f"{name} must be a string, got {record[name]!r}"
            break
    return DocumentFormatError(f"{where}: {exc}")


def location_index(spec: WorkflowSpec, catalog: RegionCatalog | None = None) -> LocationTable:
    """Host -> coordinate table over workflow nodes and (optionally) catalog regions."""
    region_entries = (
        ((r.probe_host, r.location) for r in catalog.regions) if catalog else ()
    )
    return build_location_table(node_locations(spec), region_entries)


def measure_distance(pair: Pair, locations: LocationTable) -> Measurement:
    """Great-circle distance between the pair's endpoint coordinates."""
    a = locations.locate(pair[0])
    b = locations.locate(pair[1])
    return _measurement(pair, Metric.DISTANCE, haversine_km(a, b), 1, "haversine")


def synthetic_measure(
    pair: Pair,
    metric: Metric,
    model: SyntheticNetworkModel,
    locations: LocationTable,
) -> Measurement:
    """Deterministic model measurement derived purely from coordinates."""
    a = locations.locate(pair[0])
    b = locations.locate(pair[1])
    (value,) = _synthetic_values([haversine_km(a, b)], metric, model)
    return _measurement(pair, metric, value, 1, "synthetic")


def _synthetic_values(kms: list[float], metric: Metric, model: SyntheticNetworkModel) -> list[float]:
    """The model's value of the metric for each great-circle distance."""
    if metric is Metric.DISTANCE:
        return kms
    formula = model.ping_ms if metric is Metric.PING else model.http_ms
    return [formula(km) for km in kms]


class SyntheticProvider:
    """The synthetic model's provider of one metric. Called with a pair it is
    `synthetic_measure`; `many` measures a batch at one clock reading from
    `km`, the kilometres of each pair, which the providers of one
    `synthetic_providers` call share, so each pair's distance is computed
    once for all three metrics."""

    def __init__(
        self,
        metric: Metric,
        model: SyntheticNetworkModel,
        locations: LocationTable,
        km: dict[Pair, float],
    ):
        self.metric, self.model, self.locations, self.km = metric, model, locations, km

    def __call__(self, pair: Pair) -> Measurement:
        return synthetic_measure(pair, self.metric, self.model, self.locations)

    def many(self, pairs: list[Pair]) -> list[Measurement]:
        locate, memo = self.locations.locate, self.km
        kms = []
        for pair in pairs:
            km = memo.get(pair)
            if km is None:
                km = memo[pair] = haversine_km(locate(pair[0]), locate(pair[1]))
            kms.append(km)
        metric, unit, now = self.metric, UNIT_BY_METRIC[self.metric], time.time()
        values = _synthetic_values(kms, metric, self.model)
        check_measured(values, 1, True, now)
        new = _new_measurement
        return [
            new(Measurement, (src, dst, metric, value, unit, 1, True, now, "synthetic"))
            for (src, dst), value in zip(pairs, values)
        ]


def _icmp_checksum(data: bytes) -> int:
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack("!%dH" % (len(data) // 2), data))
    total = (total >> 16) + (total & 0xFFFF)
    total += total >> 16
    return ~total & 0xFFFF


class EchoProber:
    """Best-effort echo probe: unprivileged ICMP datagram when available,
    otherwise TCP connect time to port 80/443. In the TCP fallback an RST
    reply still measures one round trip and is credited to the destination,
    even when a router on the path sent it; any other error on every port
    (a timeout, ENETUNREACH, EHOSTUNREACH) counts as a failed sample."""

    def __init__(self):
        self._mode: str | None = None
        self._seq = 0
        self._lock = threading.Lock()

    @property
    def mode(self) -> str:
        if self._mode is None:
            self._mode = "icmp" if self._icmp_usable() else "tcp-connect"
        return self._mode

    def _icmp_usable(self) -> bool:
        # capability self-test: one echo against loopback
        return self._icmp_once("127.0.0.1", 0.25) is not None

    def _next_seq(self) -> int:
        with self._lock:
            self._seq = (self._seq + 1) & 0xFFFF
            return self._seq

    def _icmp_once(self, ip: str, timeout_s: float) -> float | None:
        import socket  # only probing uses it, and it is imported before any clock starts
        try:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM, socket.IPPROTO_ICMP)
        except OSError:
            return None
        try:
            sock.settimeout(timeout_s)
            seq = self._next_seq()
            payload = b"cloudforecast-echo"
            header = struct.pack("!BBHHH", 8, 0, 0, 0, seq)
            packet = struct.pack(
                "!BBHHH", 8, 0, _icmp_checksum(header + payload), 0, seq
            ) + payload
            start = time.perf_counter()
            sock.sendto(packet, (ip, 0))
            sock.recvfrom(2048)
            return (time.perf_counter() - start) * 1000.0
        except OSError:
            return None
        finally:
            sock.close()

    def _tcp_once(self, ip: str, timeout_s: float) -> float | None:
        import socket
        deadline = time.perf_counter() + timeout_s
        for port in _TCP_PROBE_PORTS:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return None
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.settimeout(remaining)
            start = time.perf_counter()
            try:
                sock.connect((ip, port))
                return (time.perf_counter() - start) * 1000.0
            except ConnectionRefusedError:
                # RST received: the host answered, so this is a round trip
                return (time.perf_counter() - start) * 1000.0
            except OSError:
                continue
            finally:
                sock.close()
        return None

    def probe(self, host: str, timeout_s: float) -> float | None:
        """One echo round trip in ms, or None on failure."""
        import socket
        try:
            ip = socket.getaddrinfo(host, None, socket.AF_INET, socket.SOCK_STREAM)[0][4][0]
        except socket.gaierror:
            return None
        if self.mode == "icmp":
            return self._icmp_once(ip, timeout_s)
        return self._tcp_once(ip, timeout_s)


_default_prober = EchoProber()


def sample_rtts(once: Callable[[], float | None], samples: int) -> list[float]:
    """Run one probe `samples` times; keep the round trips (ms) that completed."""
    return [rtt for rtt in (once() for _ in range(samples)) if rtt is not None]


def _from_rtts(
    pair: Pair, metric: Metric, rtts: list[float], config: ProbeConfig, note: str
) -> Measurement:
    """Aggregate the completed round trips; no round trip at all is a failure."""
    if not rtts:
        return _failed(pair, metric, config.samples_per_pair, note)
    return _measurement(pair, metric, aggregate(rtts, config.aggregator), len(rtts), note)


def measure_latency(
    pair: Pair,
    config: ProbeConfig,
    prober: EchoProber | None = None,
) -> Measurement:
    """Echo-probe the pair's dst; aggregate successful round trips."""
    prober = prober or _default_prober
    host = host_of(pair[1])
    timeout_s = config.timeout_ms / 1000.0
    rtts = sample_rtts(lambda: prober.probe(host, timeout_s), config.samples_per_pair)
    return _from_rtts(pair, Metric.PING, rtts, config, f"echo/{prober.mode}")


def as_url(endpoint: str) -> str:
    """Default scheme http and path / for bare hostnames."""
    if "://" not in endpoint:
        endpoint = f"http://{endpoint}"
    if endpoint.count("/") == 2:  # scheme://host with no path
        endpoint += "/"
    return endpoint


def http_get_ms(url: str, timeout_s: float) -> float | None:
    """One timed GET in ms; any completed response counts, a transport error is None."""
    http = _requests()
    start = time.perf_counter()
    try:
        http.get(url, timeout=timeout_s)
    except http.RequestException:
        return None
    return (time.perf_counter() - start) * 1000.0


def measure_http_rtt(pair: Pair, config: ProbeConfig) -> Measurement:
    """Timed GET requests against the pair's dst; any completed response counts."""
    url = as_url(pair[1])
    timeout_s = config.timeout_ms / 1000.0
    rtts = sample_rtts(lambda: http_get_ms(url, timeout_s), config.samples_per_pair)
    return _from_rtts(pair, Metric.HTTP_RTT, rtts, config, "http-get")


class AgentClient:
    """Client for the remote probe-agent wire protocol."""

    def __init__(self, base_url: str, request_timeout_s: float = 60.0):
        self.base_url = base_url.rstrip("/")
        self.request_timeout_s = request_timeout_s

    def _call(self, endpoint: str, params: dict) -> dict:
        response = _requests().get(
            f"{self.base_url}{endpoint}", params=params, timeout=self.request_timeout_s
        )
        response.raise_for_status()
        return response.json()

    def health(self) -> bool:
        try:
            return bool(self._call("/v1/health", {}).get("ok"))
        except _requests().RequestException:
            return False

    def ping(self, host: str, samples: int, timeout_ms: float) -> dict:
        return self._call(
            "/v1/ping", {"host": host, "samples": samples, "timeout_ms": int(timeout_ms)}
        )

    def http(self, url: str, samples: int, timeout_ms: float) -> dict:
        return self._call(
            "/v1/http", {"url": url, "samples": samples, "timeout_ms": int(timeout_ms)}
        )


def get_or_measure(
    store: MeasurementStore,
    pair: Pair,
    metric: Metric,
    provider: PairProvider,
) -> Measurement:
    """Return the unexpired cached measurement or invoke the provider and cache it."""
    return collect_measurements(store, [pair], metric, provider)[pair]


def collect_measurements(
    store: MeasurementStore,
    pairs: list[Pair],
    metric: Metric,
    provider: PairProvider,
    max_parallel: int = 1,
) -> dict[Pair, Measurement]:
    """Measure (or fetch from cache) every pair as one batch: one store
    lookup, one measurement per missing store key, one store write. A
    provider with `many` measures the batch in one call; a per-pair provider
    is fanned out over up to `max_parallel` threads."""
    found, missing = store.get_many(pairs, metric)
    if not missing:
        return found
    # every pair its own miss: the misses are the pairs, in pair order
    alone = len(missing) == len(pairs)
    measured = _measure_each(
        provider, pairs if alone else [group[0] for group in missing.values()], max_parallel
    )
    for m in measured:
        if m.metric is not metric:
            raise ValueError(f"provider returned {m.metric.value}, expected {metric.value}")
    store.put_many(measured)
    if alone:
        return dict(zip(pairs, measured))
    for group, m in zip(missing.values(), measured):
        for pair in group:
            found[pair] = m
    return {pair: found[pair] for pair in pairs}


def _measure_each(provider: PairProvider, pairs: list[Pair], max_parallel: int) -> list[Measurement]:
    """One measurement per pair, in pair order."""
    many = getattr(provider, "many", None)
    if many is not None:
        measured = list(many(pairs))
        if len(measured) != len(pairs):
            raise ValueError(f"provider measured {len(measured)} pairs, asked for {len(pairs)}")
        return measured
    if max_parallel <= 1 or len(pairs) <= 1:
        return [provider(pair) for pair in pairs]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=min(max_parallel, len(pairs))) as pool:
        return list(pool.map(provider, pairs))


def synthetic_providers(
    model: SyntheticNetworkModel,
    locations: LocationTable,
) -> dict[Metric, SyntheticProvider]:
    km: dict[Pair, float] = {}
    return {metric: SyntheticProvider(metric, model, locations, km) for metric in Metric}


def local_providers(
    config: ProbeConfig,
    locations: LocationTable,
    prober: EchoProber | None = None,
) -> dict[Metric, PairProvider]:
    """Probe each pair's dst from the analysis machine (vantage approximation)."""
    prober = prober or EchoProber()
    return {
        Metric.DISTANCE: lambda pair: measure_distance(pair, locations),
        Metric.PING: lambda pair: measure_latency(pair, config, prober),
        Metric.HTTP_RTT: lambda pair: measure_http_rtt(pair, config),
    }


def agent_providers(
    catalog: RegionCatalog,
    config: ProbeConfig,
    locations: LocationTable,
    agent_port: int = DEFAULT_AGENT_PORT,
) -> dict[Metric, PairProvider]:
    """Ask the probe agent at the pair's region side to measure the other side."""
    if not 0 < agent_port < 65536:
        raise ValueError(f"agent_port must be in 1..65535, got {agent_port}")
    region_hosts = {region.probe_host for region in catalog.regions}
    samples, timeout_ms = config.samples_per_pair, config.timeout_ms
    request_timeout_s = (samples * timeout_ms) / 1000.0 + 10.0

    def split(pair: Pair) -> tuple[str, str] | None:
        if pair[0] in region_hosts:
            return pair[0], pair[1]
        if pair[1] in region_hosts:
            return pair[1], pair[0]
        return None

    def via_agent(
        pair: Pair, metric: Metric, ask: Callable[[AgentClient, str], dict], note: str
    ) -> Measurement:
        sides = split(pair)
        if sides is None:
            return _failed(pair, metric, samples, "agent/no-region-side")
        region_host, target = sides
        try:
            # probe_host may carry a port for probing; the agent has its own port
            agent = AgentClient(f"http://{host_of(region_host)}:{agent_port}", request_timeout_s)
            reply = ask(agent, target)
        except _requests().HTTPError as exc:  # the agent answered, and refused
            return _failed(pair, metric, samples, f"agent/http-{exc.response.status_code}")
        except (_requests().RequestException, ValueError):
            return _failed(pair, metric, samples, "agent/unreachable")
        rtts = [float(v) for v in reply.get("rtts_ms", [])]
        return _from_rtts(pair, metric, rtts if reply.get("ok") else [], config, note)

    return {
        Metric.DISTANCE: lambda pair: measure_distance(pair, locations),
        Metric.PING: lambda pair: via_agent(
            pair, Metric.PING, lambda a, t: a.ping(host_of(t), samples, timeout_ms), "agent/ping"
        ),
        Metric.HTTP_RTT: lambda pair: via_agent(
            pair, Metric.HTTP_RTT, lambda a, t: a.http(as_url(t), samples, timeout_ms), "agent/http"
        ),
    }
