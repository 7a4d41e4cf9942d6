"""Benchmark-side tracing of cloudforecast's public functions.

`Tracer.install()` rebinds module and class attributes of the loaded
cloudforecast modules to timing wrappers; `uninstall()` puts the originals
back, so untraced operations run the unmodified code. Every wrapped call adds
its duration and self time (duration minus the time of wrapped calls nested
in it on the same thread) to per-thread counters. Calls above the per-pair
hot path also record a span (id, name, operation id, parent span, start,
end); spans stay in memory until the run writes them out. The hot per-pair
functions (geo lookups, store lookups, synthetic providers) keep counters
only, which bounds memory at stress sizes.
"""

import itertools
import os
import socket
import statistics
import sys
import threading
import time

perf = time.perf_counter

PROBE_STALL_S = 0.5
CONNECT_STALL_S = 1.0


def _provider_result(tracer, stats, args, result):
    tracer.bump(stats, f"measurement.provider_calls.{result.metric.value}")
    if not result.success:
        tracer.bump(stats, "measurement.provider_failed")
    src, dst = sorted((result.src, result.dst))
    tracer.keys.add((src, dst, result.metric.value))


def _store_get_result(tracer, stats, args, result):
    tracer.bump(stats, "measurement.store_misses" if result is None else "measurement.store_hits")


def _rank_result(tracer, stats, args, result):
    tracer.facts["store_entries"] = result.provenance["cache_entries"]


def _save_result(tracer, stats, args, result):
    tracer.facts["cache_bytes"] = os.path.getsize(args[1])


def _graph_result(tracer, stats, args, result):
    tracer.bump(stats, "candidates.edges_built", len(result.edges))


def _pairs_result(tracer, stats, args, result):
    tracer.bump(stats, "candidates.pairs", len(result))


def _collect_name(args):
    return f"measurement.collect_measurements.{args[2].value}"


# (module, attribute, records spans, result hook); a callable name replaces
# the attribute in the counter key.
FUNCTIONS = [
    ("workflow", "parse_workflow", True, None),
    ("workflow", "validate_dag", True, None),
    ("workflow", "topological_order", True, None),
    ("geo", "host_of", False, None),
    ("geo", "haversine_km", False, None),
    ("geo", "resolve_location", False, None),
    ("candidates", "build_candidate_graph", True, _graph_result),
    ("candidates", "measurement_pairs", True, _pairs_result),
    ("measurement", "location_index", True, None),
    ("measurement", "synthetic_providers", True, None),
    ("measurement", "local_providers", True, None),
    ("measurement", "collect_measurements", True, None),
    ("measurement", "synthetic_measure", False, _provider_result),
    ("measurement", "measure_distance", False, _provider_result),
    ("measurement", "measure_latency", True, _provider_result),
    ("measurement", "measure_http_rtt", True, _provider_result),
    ("scoring", "rank_regions", True, _rank_result),
    ("scoring", "score_graph", True, None),
    ("scoring", "shortlist_by_distance", True, None),
    ("scoring", "render_report", True, None),
    ("executor", "simulate_execution", True, None),
    ("executor", "live_execute", True, None),
]

# (module, class, attribute, records spans, result hook)
METHODS = [
    ("measurement", "MeasurementStore", "get", False, _store_get_result),
    ("measurement", "MeasurementStore", "load", True, None),
    ("measurement", "MeasurementStore", "save", True, _save_result),
    ("measurement", "EchoProber", "probe", True, None),
]

# Plain GETs go through the module's `requests` attribute; a proxy separates
# the probe GETs from the executor's node GETs.
HTTP_GET = "measurement.http_get"
GET_SITES = [("measurement", HTTP_GET), ("executor", "executor.node_get")]

NAMES = {"collect_measurements": _collect_name}

_ABSENT = object()


class _RequestsProxy:
    def __init__(self, real, get):
        self._real = real
        self.get = get

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, op, parent, start, end)
        self.keys = set()  # unique measurement keys the providers produced
        self.facts = {}
        self.op = None
        self.op_cur = 0  # innermost open span of the operation's thread
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_stats = []
        self._patches = []

    # -- counters -------------------------------------------------------------

    def _stats(self):
        d = self._local.__dict__
        stats = d.get("stats")
        if stats is None:
            stats = d["stats"] = {}
            self._thread_stats.append(stats)
        return stats

    @staticmethod
    def bump(stats, key, n=1):
        rec = stats.get(key)
        if rec is None:
            rec = stats[key] = [0, 0.0, 0.0]
        rec[0] += n

    def merged(self):
        total = {}
        for stats in list(self._thread_stats):
            for key, (calls, dur, own) in list(stats.items()):
                rec = total.setdefault(key, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += dur
                rec[2] += own
        return total

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, name, span=True, on_result=None):
        tracer, local = self, self._local

        def traced(*args, **kwargs):
            d = local.__dict__
            stats = d.get("stats") or tracer._stats()
            acc0 = d.get("acc", 0.0)
            if span:
                sid = next(tracer._ids)
                prev = d.get("cur", 0)
                is_op = d.get("is_op", False)
                # a pool worker's first span hangs under the span that submitted it
                parent = prev or (0 if is_op else tracer.op_cur)
                d["cur"] = sid
                if is_op:
                    tracer.op_cur = sid
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                inner = d.get("acc", 0.0) - acc0
                d["acc"] = acc0 + dt
                key = name(args) if callable(name) else name
                rec = stats.get(key)
                if rec is None:
                    rec = stats[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - inner
                if span:
                    d["cur"] = prev
                    if is_op:
                        tracer.op_cur = prev
                    tracer.spans.append((sid, key, tracer.op, parent, t0, t1))
            if on_result is not None:
                on_result(tracer, stats, args, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every listed function wherever a loaded cloudforecast module
        holds a reference to it, plus the listed methods and socket connects."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cloudforecast" or n.startswith("cloudforecast."))]
        for mod_name, attr, span, hook in FUNCTIONS:
            original = getattr(sys.modules[f"cloudforecast.{mod_name}"], attr)
            name = NAMES.get(attr, f"{mod_name}.{attr}")
            wrapped = self.wrap(original, name, span, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        for mod_name, cls_name, attr, span, hook in METHODS:
            cls = getattr(sys.modules[f"cloudforecast.{mod_name}"], cls_name)
            raw = cls.__dict__[attr]
            name = f"{mod_name}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self.wrap(raw.__func__, name, span, hook)))
            else:
                self._patch(cls, attr, self.wrap(raw, name, span, hook))
        for mod_name, name in GET_SITES:
            module = sys.modules[f"cloudforecast.{mod_name}"]
            real = module.requests
            self._patch(module, "requests", _RequestsProxy(real, self.wrap(real.get, name)))
        self._patch(socket.socket, "connect", self._connect_wrapper(socket.socket.connect))

    def _connect_wrapper(self, connect):
        tracer = self

        def traced_connect(sock, address):
            t0 = perf()
            try:
                return connect(sock, address)
            finally:
                stats = tracer._stats()
                tracer.bump(stats, "services.connects")
                if perf() - t0 >= CONNECT_STALL_S:
                    tracer.bump(stats, "services.connect_stalls")

        return traced_connect

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- operations -----------------------------------------------------------

    def begin_op(self, op_id):
        d = self._local.__dict__
        d["is_op"] = True
        self.op = op_id
        self.keys = set()
        self.facts = {}
        self._first_span = len(self.spans)
        self._root = next(self._ids)
        self.op_cur = self._root
        d["cur"] = self._root
        self._before = self.merged()
        self._t0 = perf()

    def end_op(self):
        """Close the operation's root span and return its per-op record."""
        t1 = perf()
        d = self._local.__dict__
        d["cur"] = 0
        self.op_cur = 0
        self.spans.append((self._root, "op", self.op, 0, self._t0, t1))
        after = self.merged()
        stats = {}
        for key, rec in after.items():
            old = self._before.get(key, [0, 0.0, 0.0])
            if rec[0] != old[0]:
                stats[key] = [rec[0] - old[0], rec[1] - old[1], rec[2] - old[2]]
        spans = self.spans[self._first_span:]
        top = sum(end - start for _, _, _, parent, start, end in spans if parent == self._root)
        return {
            "coverage": top / (t1 - self._t0) if t1 > self._t0 else 0.0,
            "stats": stats,
            "unique_keys": len(self.keys),
            "facts": dict(self.facts),
            "probe_s": [e - s for _, n, _, _, s, e in spans if n == PROBE],
            "get_s": [e - s for _, n, _, _, s, e in spans if n == HTTP_GET],
        }


# -- per-layer metrics ----------------------------------------------------------

METRICS = ("distance", "ping", "http_rtt")
STORE_GET = "measurement.MeasurementStore.get"
PROBE = "measurement.EchoProber.probe"
GEO = ("geo.host_of", "geo.haversine_km", "geo.resolve_location")


def _calls(rec, key):
    return rec["stats"].get(key, [0, 0.0, 0.0])[0]


def _ms(rec, *keys, own=False):
    return 1000.0 * sum(rec["stats"].get(k, [0, 0.0, 0.0])[2 if own else 1] for k in keys)


def _ran(rec, *keys):
    return any(_calls(rec, k) for k in keys)


def _ratio(num, den):
    return num / den if den else None


def _provider_calls(rec):
    return sum(_calls(rec, f"measurement.provider_calls.{m}") for m in METRICS)


def _timed(*keys, own=False):
    """Per-op milliseconds of the wrapped calls, or None if none ran."""
    return lambda r: _ms(r, *keys, own=own) if _ran(r, *keys) else None


def _count(key, ran=None):
    """Per-op count of `key`; None if `ran` (default: `key`) never fired."""
    return lambda r: _calls(r, key) if _ran(r, ran or key) else None


# name -> (unit, per-op value, None when the layer did not run in that op)
PER_OP = {
    "workflow.parse_ms": ("ms", _timed("workflow.parse_workflow")),
    "workflow.topo_ms": ("ms", _timed("workflow.topological_order")),
    "geo.host_of_calls": ("count", _count("geo.host_of")),
    "geo.haversine_calls": ("count", _count("geo.haversine_km")),
    "geo.self_ms": ("ms", _timed(*GEO, own=True)),
    "candidates.build_ms": ("ms", _timed("candidates.build_candidate_graph")),
    "candidates.edges_built": ("count", _count("candidates.edges_built")),
    "candidates.pairs": ("count", _count("candidates.pairs")),
    **{f"measurement.collect_ms.{m}": ("ms", _timed(f"measurement.collect_measurements.{m}"))
       for m in METRICS},
    **{f"measurement.provider_calls.{m}": ("count", _count(f"measurement.provider_calls.{m}"))
       for m in METRICS},
    "measurement.store_hits": ("count", _count("measurement.store_hits", STORE_GET)),
    "measurement.store_misses": ("count", _count("measurement.store_misses", STORE_GET)),
    "measurement.hit_ratio": ("ratio", lambda r: _ratio(_calls(r, "measurement.store_hits"),
                                                        _calls(r, STORE_GET))),
    "measurement.store_entries": ("count", lambda r: r["facts"].get("store_entries")),
    "measurement.cache_load_ms": ("ms", _timed("measurement.MeasurementStore.load")),
    "measurement.cache_save_ms": ("ms", _timed("measurement.MeasurementStore.save")),
    "measurement.cache_bytes": ("bytes", lambda r: r["facts"].get("cache_bytes")),
    "measurement.probes_sent": ("count", _count(PROBE)),
    "measurement.probe_stalls": ("count", lambda r: sum(s >= PROBE_STALL_S for s in r["probe_s"])
                                 if _ran(r, PROBE) else None),
    "measurement.http_gets": ("count", _count(HTTP_GET)),
    "measurement.useful_ratio": ("ratio", lambda r: _ratio(r["unique_keys"], _provider_calls(r))),
    "measurement.failed_share": ("ratio", lambda r: _ratio(_calls(r, "measurement.provider_failed"),
                                                           _provider_calls(r))),
    "scoring.rank_ms": ("ms", _timed("scoring.rank_regions")),
    "scoring.score_ms": ("ms", _timed("scoring.score_graph", own=True)),
    "scoring.render_ms": ("ms", _timed("scoring.render_report")),
    "executor.simulate_ms": ("ms", _timed("executor.simulate_execution")),
    "executor.live_ms": ("ms", _timed("executor.live_execute")),
    "executor.node_gets": ("count", _count("executor.node_get")),
    "services.connect_stalls": ("count", _count("services.connect_stalls", "services.connects")),
    "trace.layer_coverage": ("ratio", lambda r: r["coverage"]),
}


def layer_metrics(records):
    """Median over the traced operations in which each layer ran (0 if none);
    probe and GET latencies are medians over all calls of the run."""
    out = {}
    for name, (unit, fn) in PER_OP.items():
        values = [v for v in (fn(r) for r in records) if v is not None]
        out[name] = (statistics.median(values) if values else 0.0, unit)
    probes = [s for r in records for s in r["probe_s"]]
    gets = [s for r in records for s in r["get_s"]]
    out["measurement.probe_ms_p50"] = (1000.0 * statistics.median(probes) if probes else 0.0, "ms")
    out["measurement.http_get_ms_p50"] = (1000.0 * statistics.median(gets) if gets else 0.0, "ms")
    return out
