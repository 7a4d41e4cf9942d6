"""Edge-weight measurement: distance, echo latency, HTTP round-trip, synthetic model.

Providers are callables `(src, dst) -> Measurement` for one metric. Every
mode's providers measure ping and HTTP only: ranking computes distance from
the coordinates (`measure_distance` is its per-pair form). Live probe
failures never raise; they come back as success=False measurements so
scoring can penalize unreachable endpoints instead of aborting the analysis.
"""

import json
import math
import operator
import os
import struct
import sys
import threading
import time
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Sequence

from .candidates import Legs, Metric, Pair, weighted_pairs
from .errors import DocumentFormatError
from .geo import (
    LONGEST_KM,
    LocationTable,
    RegionCatalog,
    build_location_table,
    haversine_km,
    host_of,
)
from .jsondoc import (TOO_LARGE, check_fields, decode_error, field_sets, json_value,
                      load_document, utf8_errors)
from .records import Checked
from .workflow import WorkflowSpec

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
    """Reject a nan or infinite value, or an integer too large for a float,
    in any of the named numeric fields."""
    for name in names:
        value = getattr(config, name)
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite, value = False, TOO_LARGE
        if not finite:
            raise ValueError(f"{name} must be finite, got {value}")


def check_count(config, names: tuple[str, ...]) -> None:
    """Reject a value of any of the named count fields that is not an `int`
    (a bool is refused too), and then one below 1."""
    for name in names:
        value = getattr(config, name)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value}")
        if value < 1:
            raise ValueError(f"{name} must be >= 1")


class _ProbeConfigFields(NamedTuple):  # the defaults are `ProbeConfig`'s
    samples_per_pair: int
    timeout_ms: float
    aggregator: Aggregator
    max_parallel_probes: int


class ProbeConfig(Checked, _ProbeConfigFields):
    __slots__ = ()

    def __new__(
        cls,
        samples_per_pair: int = 5,
        timeout_ms: float = 3000.0,
        aggregator: Aggregator = Aggregator.MEAN,
        max_parallel_probes: int = 8,
    ):
        # a name becomes its member, since `aggregate` tells them apart by identity
        self = tuple.__new__(
            cls, (samples_per_pair, timeout_ms, Aggregator(aggregator), max_parallel_probes)
        )
        check_finite(self, ("samples_per_pair", "timeout_ms", "max_parallel_probes"))
        check_count(self, ("samples_per_pair", "max_parallel_probes"))
        if timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive")
        return self


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


class Measurement(Checked, _MeasurementFields):
    """One measured value of a pair: an immutable tuple, cheap to build in
    bulk, that every constructor (positional, keyword, `_make`, `_replace`)
    checks."""

    __slots__ = ()

    def __new__(cls, src, dst, metric, value, unit, samples, success, taken_at, note=""):
        check_measured((value,), samples, success, taken_at, unit, UNIT_BY_METRIC.get(metric))
        return tuple.__new__(cls, (src, dst, metric, value, unit, samples, success, taken_at, note))


_isfinite = math.isfinite


def check_measured(values, samples, success, taken_at, unit, metric_unit) -> None:
    """The rule every measurement keeps, for values that share the other
    fields: a successful value is finite and >= 0, `samples` is an integer
    (not a bool) >= 1, success is a bool, the time is finite and the unit is
    `metric_unit`, the unit of the measurement's metric. `Measurement` checks
    its one value with it, a batch builder all of a batch's values at once
    before building the rows unchecked."""
    if success and values and min(values) < 0:
        raise ValueError("successful measurement value must be >= 0")
    if type(samples) is not int or samples < 1:  # one test on the path every record takes
        if not isinstance(samples, int) or isinstance(samples, bool):
            raise ValueError(f"samples must be an integer, got {samples!r}")
        if samples < 1:
            raise ValueError("samples must be >= 1")
    if unit != metric_unit:
        raise ValueError(f"unit must be {metric_unit!r} for this metric, got {unit!r}")
    if success is not True and success is not False:
        raise ValueError(f"success must be true or false, got {success!r}")
    try:
        # the sum of finite values overflows only past 1.7e308: then each is checked
        if success and not _isfinite(sum(values)) and not all(map(_isfinite, values)):
            bad = next(value for value in values if not _isfinite(value))
            raise ValueError(f"successful measurement value must be finite, got {bad}")
    except OverflowError:  # an integer value past the float range
        raise ValueError(f"successful measurement value must be finite, got {TOO_LARGE}") from None
    try:
        finite = _isfinite(taken_at)
    except TypeError:
        finite = False
    except OverflowError:
        raise ValueError(f"taken_at must be a finite number, got {TOO_LARGE}") from None
    if not finite:  # a nan time would never expire: `age > ttl` is always false
        raise ValueError(f"taken_at must be a finite number, got {taken_at!r}")


# fields a measurement cache record must have; `note` is optional
_RECORD_FIELDS = ("src", "dst", "metric", "value", "unit", "samples", "success", "taken_at")
_RECORD_FIELD_SETS = field_sets(_RECORD_FIELDS, ["note"])


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


class _SyntheticNetworkModelFields(NamedTuple):  # the defaults are `SyntheticNetworkModel`'s
    base_latency_ms: float
    ms_per_100km: float
    http_overhead_ms: float


class SyntheticNetworkModel(Checked, _SyntheticNetworkModelFields):
    """Deterministic stand-in for live probing: latency grows linearly with
    distance, by the formula `_synthetic_values` applies. The constants must
    give a finite latency at every great-circle distance."""

    __slots__ = ()

    def __new__(
        cls, base_latency_ms: float = 5.0, ms_per_100km: float = 1.0, http_overhead_ms: float = 20.0
    ):
        self = tuple.__new__(cls, (base_latency_ms, ms_per_100km, http_overhead_ms))
        check_finite(self, cls._fields)
        for name in cls._fields:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        # the formula grows with the distance, and HTTP is the larger value
        if not _isfinite(_synthetic_values([LONGEST_KM], Metric.HTTP_RTT, self)[0]):
            raise ValueError(
                "base_latency_ms + ms_per_100km * km / 100 + http_overhead_ms must be finite"
                f" at the longest great-circle distance ({LONGEST_KM:.1f} km)"
            )
        return self


class MeasurementStore:
    """TTL cache of measurements: one table per metric, keyed by the
    unordered pair, stored with the smaller endpoint first.

    Thread-safe; concurrent misses may probe twice (last write wins). The
    store remembers the cache file its entries equal, so saving them back
    to it writes nothing. A batch `put_synthetic` accepts is kept as it
    was given, hubs, legs and values, with its clock reading, as one
    pending row per metric, which `len` counts. Its pairs, keys and records
    are built when something first reads its metric's table (`get_many`,
    `get`), writes any table (`put_many`) or saves them (`save`).
    """

    def __init__(self, ttl_s: float = DEFAULT_TTL_S):
        self.ttl_s = ttl_s
        # a nan TTL would never expire an entry: `age > nan` is always false
        check_finite(self, ("ttl_s",))
        if ttl_s <= 0:
            raise ValueError("ttl_s must be positive")
        self._entries: dict[Metric, dict[Pair, Measurement]] = {metric: {} for metric in Metric}
        # metric -> a synthetic batch's hubs, legs and values and its clock
        # reading; the metric's table is empty while it is pending
        self._pending: dict[Metric, tuple[tuple[str, ...], Legs, list[float], float]] = {}
        self._lock = threading.Lock()
        # identity of the file whose records equal the unexpired entries, if any
        self._synced: tuple[int, int, int, int] | None = None

    def _settle(self, *metrics: Metric) -> None:
        """Insert the records of the metrics' pending rows into their empty
        tables, each pair's under its own key; the caller holds the lock."""
        for metric in metrics:
            hubs, legs, values, now = self._pending.pop(metric)
            pairs = [pair for hub in hubs for pair in weighted_pairs(legs, hub)]
            self._entries[metric].update(zip(
                [(dst, src) if dst < src else (src, dst) for src, dst in pairs],
                _synthetic_records(pairs, values, metric, now)))

    def get(self, pair: Pair, metric: Metric, now: float | None = None) -> Measurement | None:
        return self.get_many((pair,), metric, now)[0].get(pair)

    def get_many(
        self, pairs: Sequence[Pair], metric: Metric, now: float | None = None
    ) -> tuple[dict[Pair, Measurement], dict[Pair, int]]:
        """The unexpired entries of the pairs, by pair, and each store key
        with none mapped to the index of its first pair, in first-seen order:
        one pass under the lock, at one clock reading. An expired entry is
        dropped from the store. The metric's pending row is settled first."""
        now = time.time() if now is None else now
        found: dict[Pair, Measurement] = {}
        first: dict[Pair, int] = {}
        with self._lock:
            if metric in self._pending:
                self._settle(metric)
            table, ttl_s = self._entries[metric], self.ttl_s
            for i, pair in enumerate(pairs):
                key = (pair[1], pair[0]) if pair[1] < pair[0] else pair
                entry = table.get(key)
                if entry is not None and now - entry.taken_at > ttl_s:
                    del table[key]
                    self._synced = None
                    entry = None
                if entry is None:
                    first.setdefault(key, i)
                else:
                    found[pair] = entry
        return found, first

    def put_many(self, measurements: Iterable[Measurement]) -> None:
        """Store each measurement under the key of its own pair and metric, in
        one pass under the lock, after every pending row is settled."""
        with self._lock:
            self._settle(*self._pending)
            tables = self._entries
            for m in measurements:
                src, dst = m.src, m.dst
                tables[m.metric][(dst, src) if dst < src else (src, dst)] = m
                self._synced = None

    def put_synthetic(self, hubs: Sequence[str], legs: Legs, values: list[float],
                      metric: Metric) -> bool:
        """Store a synthetic batch of the metric in row form, when every one
        of its pairs is a key the store does not hold: the pairs are
        `weighted_pairs(legs, hub)` of each hub in turn, over legs with one
        direction per endpoint as `hub_legs` gives them, and `values` theirs
        in that order. That holds, and the batch is kept as the metric's
        pending row, when the metric's table is empty with nothing pending,
        the hubs are distinct and no endpoint is a hub; the values are then
        checked by the rule every `Measurement` keeps, and one clock reading
        is every record's time. Otherwise nothing is stored and the answer
        is False: the caller measures the batch through
        `collect_measurements`. A batch that stores nothing keeps the store
        synced."""
        with self._lock:
            if (self._entries[metric] or metric in self._pending
                    or len(set(hubs)) != len(hubs)
                    or not {end for end, _ in legs}.isdisjoint(hubs)):
                return False
            now, unit = time.time(), UNIT_BY_METRIC[metric]
            check_measured(values, 1, True, now, unit, unit)
            if values:
                # copies: the records are built later, from the rows given now
                self._pending[metric] = (tuple(hubs), dict(legs), list(values), now)
                self._synced = None
        return True

    def __len__(self) -> int:
        """The number of keys stored, pending ones included: a pending row's
        keys are distinct and its table empty, so each is counted once."""
        with self._lock:
            return (sum(map(len, self._entries.values()))
                    + sum(len(hubs) * len(legs) for hubs, legs, *_ in self._pending.values()))

    def save(self, path: str) -> None:
        """One JSON record per unexpired key, sorted, so later runs reuse probes.

        Nothing is written when `path` is still the file the entries were
        loaded from or last saved to. Otherwise each line goes to a temporary
        file as it is formatted, so no copy of the whole text is held, and
        that file replaces `path` atomically: a failed save leaves the old one."""
        with self._lock:
            if self._synced is not None and self._synced == _file_identity(path):
                return
            self._settle(*self._pending)
            now, ttl_s = time.time(), self.ttl_s
            # sorted by (src, dst, metric) key: a stable sort by pair of the
            # tables taken in metric order
            entries = [
                entry for metric in sorted(self._entries) for entry in self._entries[metric].items()
                if not now - entry[1].taken_at > ttl_s
            ]
            entries.sort(key=_pair_of_entry)
            # record fields in sorted order, as the file format has them; each
            # line is the `json.dumps` of the record as a dict, to the byte
            lines = (
                f'{{"dst": {json_value(dst)}, "metric": {json_value(metric.value)}, '
                f'"note": {json_value(note)}, "samples": {json_value(samples)}, '
                f'"src": {json_value(src)}, "success": {"true" if success else "false"}, '
                f'"taken_at": {json_value(taken_at)}, "unit": {json_value(unit)}, '
                f'"value": {json_value(value)}}}\n'
                for _, (src, dst, metric, value, unit, samples, success, taken_at, note) in entries
            )
            tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    fh.writelines(lines)
                os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
            self._synced = _file_identity(path)

    @classmethod
    def load(cls, path: str, ttl_s: float = DEFAULT_TTL_S) -> "MeasurementStore":
        """Read a cache file; on duplicate keys the later record wins. The
        next `save` rewrites a file that holds an expired record. Records
        share one object per distinct string of the file; one test passes
        the usual record, and `check_measured` checks any other."""
        store = cls(ttl_s=ttl_s)
        try:
            fh = open(path, encoding="utf-8")
        except FileNotFoundError:
            return store
        # the store is not shared yet, so records go straight into its tables:
        # a metric's value -> its member, its unit and its table
        tables = {metric.value: (metric, unit, store._entries[metric])
                  for metric, unit in UNIT_BY_METRIC.items()}
        # a string -> its first copy; only strings, since 1, 1.0 and true are
        # equal keys that the file writes differently
        share, inf = {}.setdefault, math.inf
        records, now, expired = 0, time.time(), False
        with fh, utf8_errors(path):
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:  # json.loads of the stripped line, without its per-call set-up
                    record, end = _raw_decode(line)
                    if end != len(line):
                        raise json.JSONDecodeError("Extra data", line, end)
                except (RecursionError, ValueError) as exc:  # a JSONDecodeError too
                    raise DocumentFormatError(
                        f"{path}:{lineno}: not a JSON record: {decode_error(exc)}"
                    ) from exc
                try:
                    record.setdefault("note", "")  # AttributeError: not an object
                    if len(record) != 9:  # a field missing or unknown: `_bad_record` names it
                        raise KeyError
                    (src, dst, metric, value, unit, samples, success, taken_at,
                     note) = _record_values(record)
                    metric, unit_of_metric, table = tables[metric]
                    if not (type(src) is str and type(dst) is str and unit == unit_of_metric
                            and type(samples) is int and samples >= 1 and success is True
                            and type(value) is float and 0.0 <= value < inf
                            and type(taken_at) is float and -inf < taken_at < inf):
                        if not (isinstance(src, str) and isinstance(dst, str)):
                            raise TypeError  # worded by `_bad_record`
                        check_measured((value,), samples, success, taken_at, unit, unit_of_metric)
                    if type(note) is str:
                        note = share(note, note)
                    src, dst = share(src, src), share(dst, dst)
                    m = _new_measurement(Measurement, (src, dst, metric, value, unit_of_metric,
                                                       samples, success, taken_at, note))
                    table[(dst, src) if dst < src else (src, dst)] = m
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    raise _bad_record(record, f"{path}:{lineno}", exc) from exc
                records += 1
                expired = expired or now - taken_at > ttl_s
            if records == len(store) and not expired:  # none overridden by a later one
                store._synced = _file_identity(fh.fileno())
        return store


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
    check_fields(record, _RECORD_FIELD_SETS, where)
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
    """Host -> coordinate table over workflow nodes and (optionally) catalog
    regions. The last table built is kept on the spec with the catalog object
    it was built for, as `WorkflowSpec.plan` is kept, so a ranking reuses the
    table its caller built; no reader writes to a table's `entries`."""
    kept = spec.__dict__.get("_locations")
    if kept is not None and kept[0] is catalog:
        return kept[1]
    table = build_location_table(
        ((n.endpoint, n.location) for n in spec.nodes if n.location is not None),
        ((r.probe_host, r.location) for r in catalog.regions) if catalog else ())
    spec.__dict__["_locations"] = (catalog, table)
    return table


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
    values = _synthetic_values([haversine_km(a, b)], metric, model)
    return _synthetic_records([pair], values, metric, time.time())[0]


def _synthetic_values(kms: list[float], metric: Metric, model: SyntheticNetworkModel) -> list[float]:
    """The model's value of the metric for each great-circle distance, the
    one place its formula is written: ping is `base + slope * km/100`, and
    HTTP that ping plus the overhead."""
    if metric is Metric.DISTANCE:
        return kms
    base, slope = model.base_latency_ms, model.ms_per_100km
    pings = [base + slope * (km / 100.0) for km in kms]
    if metric is Metric.PING:
        return pings
    overhead = model.http_overhead_ms
    return [ping + overhead for ping in pings]


def _synthetic_records(
    pairs: list[Pair], values: list[float], metric: Metric, now: float
) -> list[Measurement]:
    """The synthetic record of each pair with its value, taken at `now`: the
    values are checked once, by the rule every `Measurement` keeps, and the
    records built unchecked."""
    unit = UNIT_BY_METRIC[metric]
    check_measured(values, 1, True, now, unit, unit)
    new = _new_measurement
    return [
        new(Measurement, (src, dst, metric, value, unit, 1, True, now, "synthetic"))
        for (src, dst), value in zip(pairs, values)
    ]


class SyntheticProvider:
    """The synthetic model's provider of one metric: called with a pair, it
    is `synthetic_measure`. When `locations` has the entries of its distance
    pass's table, `rank_regions` gives the model's values of the kilometres
    it already has to `MeasurementStore.put_synthetic`, and calls it only
    for the keys of a batch the store refuses."""

    def __init__(self, metric: Metric, model: SyntheticNetworkModel, locations: LocationTable):
        self.metric, self.model, self.locations = metric, model, locations

    def __call__(self, pair: Pair) -> Measurement:
        return synthetic_measure(pair, self.metric, self.model, self.locations)


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
        except (socket.gaierror, UnicodeError):  # unknown, or not encodable as a DNS name
            return None
        if self.mode == "icmp":
            return self._icmp_once(ip, timeout_s)
        return self._tcp_once(ip, timeout_s)


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


def measure_latency(pair: Pair, config: ProbeConfig, prober: EchoProber) -> Measurement:
    """Echo-probe the pair's dst; aggregate successful round trips."""
    host = host_of(pair[1])
    timeout_s = config.timeout_ms / 1000.0
    rtts = sample_rtts(lambda: prober.probe(host, timeout_s), config.samples_per_pair)
    return _from_rtts(pair, Metric.PING, rtts, config, f"echo/{prober.mode}")


def as_url(endpoint: str) -> str:
    """Default scheme http, and path / where the authority has none: at the
    end, or before the query or fragment, which are kept as they are."""
    if "://" not in endpoint:
        endpoint = f"http://{endpoint}"
    scheme, _, rest = endpoint.partition("://")
    end = len(rest.split("/", 1)[0].split("?", 1)[0].split("#", 1)[0])
    if rest[end:end + 1] != "/":
        endpoint = f"{scheme}://{rest[:end]}/{rest[end:]}"
    return endpoint


def http_get_ms(url: str, timeout_s: float) -> float | None:
    """One timed GET in ms; any completed response counts, a transport error is None."""
    http = _requests()
    start = time.perf_counter()
    try:
        http.get(url, timeout=timeout_s)
    except (http.RequestException, ValueError):  # urllib3's LocationParseError is a ValueError
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
        # decoded here, so a body that is not JSON, or is past the decoder's
        # limits, raises a document error, not requests' (a transport error)
        return load_document(response.content, "agent reply")

    def ping(self, host: str, samples: int, timeout_ms: float) -> dict:
        return self._call(
            "/v1/ping", {"host": host, "samples": samples, "timeout_ms": int(timeout_ms)}
        )

    def http(self, url: str, samples: int, timeout_ms: float) -> dict:
        return self._call(
            "/v1/http", {"url": url, "samples": samples, "timeout_ms": int(timeout_ms)}
        )


def collect_measurements(
    store: MeasurementStore,
    pairs: list[Pair],
    metric: Metric,
    provider: PairProvider,
    max_parallel: int = 1,
) -> dict[Pair, Measurement]:
    """Measure (or fetch from cache) every pair as one batch: one store
    lookup, one measurement per missing store key, from its first pair,
    fanned out over up to `max_parallel` threads, and one store write."""
    found, first = store.get_many(pairs, metric)
    if not first:
        return found
    misses = [pairs[i] for i in first.values()]
    if max_parallel <= 1 or len(misses) <= 1:
        measured = [provider(pair) for pair in misses]
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=min(max_parallel, len(misses))) as pool:
            measured = list(pool.map(provider, misses))
    for m in measured:
        if m.metric is not metric:
            raise ValueError(f"provider returned {m.metric.value}, expected {metric.value}")
    store.put_many(measured)
    by_key = dict(zip(first, measured))
    return {pair: found[pair] if pair in found
            else by_key[(pair[1], pair[0]) if pair[1] < pair[0] else pair] for pair in pairs}


def synthetic_providers(
    model: SyntheticNetworkModel,
    locations: LocationTable,
) -> dict[Metric, SyntheticProvider]:
    """The model's ping and HTTP providers over the location table."""
    return {metric: SyntheticProvider(metric, model, locations)
            for metric in (Metric.PING, Metric.HTTP_RTT)}


def local_providers(config: ProbeConfig, locations: LocationTable) -> dict[Metric, PairProvider]:
    """Probe each pair's dst from the analysis machine (vantage approximation)."""
    prober = EchoProber()
    return {
        Metric.PING: lambda pair: measure_latency(pair, config, prober),
        Metric.HTTP_RTT: lambda pair: measure_http_rtt(pair, config),
    }


def agent_providers(
    catalog: RegionCatalog, config: ProbeConfig, agent_port: int = DEFAULT_AGENT_PORT
) -> dict[Metric, PairProvider]:
    """Ask the probe agent at the pair's region side to measure the other side.
    When both sides are region probe hosts, the one that sorts first measures,
    so the agent does not depend on the pair's direction."""
    if not 0 < agent_port < 65536:
        raise ValueError(f"agent_port must be in 1..65535, got {agent_port}")
    region_hosts = {region.probe_host for region in catalog.regions}
    samples, timeout_ms = config.samples_per_pair, config.timeout_ms
    request_timeout_s = (samples * timeout_ms) / 1000.0 + 10.0

    def split(pair: Pair) -> tuple[str, str] | None:
        for agent, target in sorted((pair, pair[::-1])):
            if agent in region_hosts:
                return agent, target
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
        except DocumentFormatError:  # not JSON text, or past the decoder's limits
            return _failed(pair, metric, samples, "agent/bad-reply")
        except (_requests().RequestException, ValueError):
            return _failed(pair, metric, samples, "agent/unreachable")
        # a reply is an object whose rtts_ms lists finite non-negative numbers
        rtts = reply.get("rtts_ms", []) if isinstance(reply, dict) else None
        if not isinstance(rtts, list) or not all(
            type(v) in (int, float) and 0 <= v <= sys.float_info.max for v in rtts
        ):
            return _failed(pair, metric, samples, "agent/bad-reply")
        rtts = [float(v) for v in rtts] if reply.get("ok") else []
        return _from_rtts(pair, metric, rtts, config, note)

    return {
        Metric.PING: lambda pair: via_agent(
            pair, Metric.PING, lambda a, t: a.ping(host_of(t), samples, timeout_ms), "agent/ping"
        ),
        Metric.HTTP_RTT: lambda pair: via_agent(
            pair, Metric.HTTP_RTT, lambda a, t: a.http(as_url(t), samples, timeout_ms), "agent/http"
        ),
    }
