"""Compare what two checkouts of cloudforecast output, byte for byte.

    python3 tools/compare_outputs.py PARENT_DIR CHANGE_DIR
    python3 tools/compare_outputs.py --digest TREE > tests/output_digests.txt

Each tree runs in interpreters of its own, with `PYTHONPATH=<tree>/src` and
no CLOUDFORECAST_* settings, in a scratch directory of its own. The outputs
compared are:

- `analyze` of the tree's samples/fig1.workflow as table, json and csv with
  `--no-timestamps`, and with `--metrics distance` and with
  `--metrics distance,ping --shortlist 3`;
- `experiment --seed 7`: its stdout, experiment.csv and speedup_chart.dat;
- `simulate --vantage us-east-1`, and `--vantage 40,-74 --format json`;
- `simulate` as table and json through `cloudforecast.cli.main`, of this
  tool's own samples/fig1.workflow from every default region, and of a
  workflow whose node `a` has the service time -0.0 from 0,0;
- synthetic `probe` of fig1;
- the `float.hex` of every score, with the config and the provenance, of
  rankings of inputs from bench/workloads.py's generators (200 nodes x 64
  regions at seed 41 with shortlist 16, and 60 x 30 with shortlist 7),
  under each metric set and with the edges as written and reversed; and of
  the simulated finish times of every node from every region and from 0,0;
- the bytes of `render_report(report, "json")`, with `generated_at` pinned,
  of each of those rankings, of a ranking of the 60 x 30 input whose
  synthetic model's base latency (1e307 ms) makes every ping, HTTP and
  final score overflow to inf, and of a ranking of that input over its
  catalog with region ids that need escaping (quote, backslash, control,
  non-ASCII and line-separator characters);
- on the 60 x 30 input as written, the same finish times of two specs built
  directly, not parsed, so never validated: one with the parsed spec's
  fields, and one that adds a second node under the id of its fourth, with
  another endpoint, location and service time;
- on the 200 x 64 input as written, the `float.hex` of a ranking whose
  store is seeded with ping and HTTP records the model never gives, and of
  a ranking whose synthetic providers locate a moved first node;
- `analyze --probe-mode agent --format json` of a three-node workflow one
  of whose endpoints is another region's probe host, with the edges as
  written and reversed, through `cloudforecast.cli.main` with a stand-in
  `AgentClient` that answers `1 + crc32(f"{base_url}>{target}") % 100` ms,
  so the report shows which agent measured each leg;
- the exit code, stdout and stderr of the command that reads each malformed
  workflow, pool and catalog document of tests/malformed_documents.py (taken
  from this tool's own checkout, so both trees get the same corpus), and of
  `analyze` of its empty workflow, through `cloudforecast.cli.main`. Error
  wording is thereby an output the tool guards;
- the bytes `MeasurementStore.save` writes for the records of
  tests/cache_corpus.py (taken from this tool's own checkout), loaded from
  a cache file and saved to a new path;
- the exit code, stdout and stderr of `analyze` of this tool's
  samples/fig1.workflow with a `--cache` file of one record whose `samples`
  is not a positive integer (true, 2.5, NaN, Infinity, 0), whose `unit` is
  not its metric's (null, km for a ping) or whose successful value is
  negative (-1e-300), through `cloudforecast.cli.main`;
- with `time.time` pinned, the bytes `MeasurementStore.save` writes after a
  synthetic ranking of this tool's samples/fig1.workflow (default catalog
  and config) and of the 200 x 64 input as written, over three stores: an
  empty one, one seeded with ping and HTTP records the model never gives,
  some stored the other way round and one of them failed, and one holding
  an expired record of a shortlisted pair; the cache file after
  `analyze --cache` of that fig1 through `cloudforecast.cli.main`, run
  twice over the same file; the bytes `save` writes after two synthetic
  rankings of that fig1 over one store, the first with shortlist 3 and the
  second with shortlist 5, so the second one's reads build the first one's
  records; and the cache file after a synthetic `probe --cache` of that fig1;
- with `time.time` pinned, for two synthetic inputs in which two
  shortlisted regions share a store key (a workflow two of whose endpoints
  are region probe hosts, and fig1 over a catalog in which two regions
  share one probe host): the report of `analyze --format json --cache`
  with shortlist 3 and then 6 over one file, the file after each run, and
  the stdout of `probe`;
- with `time.time` pinned, `EchoProber.probe` and `measurement.http_get_ms`
  replaced by stand-ins that answer `1 + crc32(host or url) % 100` ms and
  the prober's mode fixed as icmp, through `cloudforecast.cli.main`: the
  report of `analyze --probe-mode local --format json --cache` of this
  tool's samples/fig1.workflow, run twice over the same file, with the
  cache file after each run; the stdout of `probe --probe-mode local` of
  that fig1; and the stdout and cache file of `probe --probe-mode local
  --cache` of a workflow two of whose endpoints are region probe hosts, so
  two regions share the store key between them. These run the per-pair
  `collect_measurements` path, with its probe fan-out, over a cold and a
  warm store. Then, with eu-west-1's
  probe host answering neither stand-in, the report of
  `analyze --probe-mode local --format json --no-timestamps` of that fig1,
  so a failed leg's penalty and `failed_edges` are compared too;
- the exit code, stdout and stderr of `experiment` and of
  `simulate --vantage us-east-1` of a two-node workflow with
  `--base-latency-ms 1e308`, whose every path's latency overflows to inf,
  through `cloudforecast.cli.main`;
- the exit code, stdout and stderr, through `cloudforecast.cli.main`, of
  `experiment --probe-mode agent` and `generate -p sequential -n 2
  --format json` (a flag of a setting the command does not read), of
  `experiment` with both a recipe (one invalid entry) and a
  `--workflow-dir` holding fig1, and of `analyze --metrics distance` and
  `simulate` where one host is placed at two coordinates: by a region
  probed at fig1's source node's host (`--vantage b`), and by two endpoints
  of one workflow (`--vantage 10,10`); and of `analyze --metrics distance`
  of fig1 with a catalog of two regions probed at one host at different
  coordinates. No `agent` or `node` case is run,
  since a tree that accepts the flag starts serving.

It also prints, for each tree, whether every generated ranking's dump with
the edges reversed is bit-identical to the one with the edges as written
(`order-free  parent: no  change: yes`).

With `--digest TREE` it prints, after a header naming the interpreter and
platform (the `float.hex` outputs depend on the libm), one
`name sha256 size` line per output of that one tree, each hash and size
taken of the output's UTF-8 bytes. tests/output_digests.txt holds those
lines for the committed tree, and a tier-1 test compares them.

The generators are imported from the tree's bench/ directory and only
called. Exit status: 0 when every output is the same and both trees are
order-free, 1 when an output differs or a tree's rankings change with the
order of its edges, 2 when a command fails in either tree.
"""

import contextlib
import difflib
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import zlib

CLI = [
    ("analyze-table", ["analyze", "-w", "{fig1}", "--no-timestamps"]),
    ("analyze-json", ["analyze", "-w", "{fig1}", "--no-timestamps", "--format", "json"]),
    ("analyze-csv", ["analyze", "-w", "{fig1}", "--no-timestamps", "--format", "csv"]),
    ("analyze-distance", ["analyze", "-w", "{fig1}", "--no-timestamps", "--metrics", "distance"]),
    ("analyze-distance-ping-3", ["analyze", "-w", "{fig1}", "--no-timestamps",
                                 "--metrics", "distance,ping", "--shortlist", "3",
                                 "--format", "json"]),
    ("experiment", ["experiment", "--seed", "7", "--out-dir", "{out}"]),
    ("simulate-region", ["simulate", "-w", "{fig1}", "--vantage", "us-east-1"]),
    ("simulate-coordinate", ["simulate", "-w", "{fig1}", "--vantage", "40,-74",
                             "--format", "json"]),
    ("probe", ["probe", "-w", "{fig1}"]),
]
EXPERIMENT_FILES = ("experiment.csv", "speedup_chart.dat")
# (nodes, regions, seed, shortlist) of the generated rankings
GENERATED = ((200, 64, 41, 16), (60, 30, 41, 7))
# this tool's own tests/, whose corpora both trees get
TESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests")


class CommandFailed(Exception):
    pass


def _env(tree: str, *paths: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CLOUDFORECAST_")}
    env["PYTHONPATH"] = os.pathsep.join(os.path.join(tree, p) for p in paths)
    return env


def _run(argv: list[str], tree: str, cwd: str, *paths: str) -> str:
    proc = subprocess.run(argv, cwd=cwd, env=_env(tree, *paths), capture_output=True,
                          text=True, timeout=600)
    if proc.returncode != 0:
        raise CommandFailed(f"{tree}: {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def collect(tree: str) -> dict[str, str]:
    """Every compared output of the tree, by name."""
    tree = os.path.abspath(tree)
    outputs = {}
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as scratch:
        fields = {"fig1": os.path.join(tree, "samples", "fig1.workflow"),
                  "out": os.path.join(scratch, "out")}
        for name, args in CLI:
            argv = [sys.executable, "-m", "cloudforecast.cli", *(a.format(**fields) for a in args)]
            outputs[name] = _run(argv, tree, scratch, "src")
        for file in EXPERIMENT_FILES:
            with open(os.path.join(fields["out"], file)) as fh:
                outputs[f"experiment/{file}"] = fh.read()
        argv = [sys.executable, os.path.abspath(__file__), "--dump-generated"]
        outputs.update(json.loads(_run(argv, tree, scratch, "src", "bench")))
    return outputs


def dump_generated() -> dict[str, str]:
    """The rankings and simulations of the generated inputs, every float as
    `float.hex`, from the package and generators on `sys.path`."""
    import random

    from cloudforecast import executor, geo, measurement, scoring, workflow
    from cloudforecast.candidates import Metric
    from workloads import gen_regions, gen_workflow, stress_hosts

    def hexed(value):
        if isinstance(value, float):
            return value.hex()
        if hasattr(value, "_asdict"):
            return hexed(value._asdict())
        if isinstance(value, dict):
            return {k: hexed(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [hexed(v) for v in value]
        return value

    def dumped(report):
        return json.dumps(hexed({
            "config": report.config,
            "provenance": report.provenance,
            "entries": report.entries,
        }), indent=1)

    def rendered(report):
        return scoring.render_report(report._replace(generated_at=PINNED_TIME), "json")

    metric_sets = {"all": tuple(Metric), "distance+ping": (Metric.DISTANCE, Metric.PING),
                   "distance+http_rtt": (Metric.DISTANCE, Metric.HTTP_RTT),
                   "distance": (Metric.DISTANCE,)}
    model = measurement.SyntheticNetworkModel()
    outputs = {}
    for n, r, seed, shortlist in GENERATED:
        rng = random.Random(seed)
        doc = gen_workflow(rng, f"generated-{n}x{r}-seed{seed}", stress_hosts(rng, n))
        regions = gen_regions(rng, [f"probe.region-{j:03d}.cloud.example" for j in range(r)])
        catalog = geo.load_region_catalog(json.dumps({"regions": regions}))
        config = scoring.ScoringConfig(shortlist_n=shortlist)
        for order, edges in (("as-written", doc["edges"]), ("reversed", doc["edges"][::-1])):
            spec = workflow.parse_workflow(json.dumps(dict(doc, edges=edges)))
            locations = measurement.location_index(spec, catalog)
            providers = measurement.synthetic_providers(model, locations)
            for metrics_name, metrics in metric_sets.items():
                chosen = {m: p for m, p in providers.items() if m in metrics}
                report = scoring.rank_regions(spec, catalog, measurement.MeasurementStore(),
                                              chosen, config)
                outputs[f"rank/{n}x{r}/{order}/{metrics_name}"] = dumped(report)
                outputs[f"rank/{n}x{r}/{order}/{metrics_name}/json"] = rendered(report)
            if (n, r, order) == (200, 64, "as-written"):
                outputs.update(special_rankings(spec, catalog, config, model, dumped))
                outputs.update(synthetic_caches(f"{n}x{r}", spec, catalog, config, model))
            vantages = [executor.Vantage("local", geo.Coordinate(0.0, 0.0))]
            vantages += [executor.Vantage(g.id, g.location) for g in catalog.regions]

            def simulated(spec, locations):
                return json.dumps(hexed({
                    v.id: executor.simulate_execution(spec, v, model, locations).finish_ms
                    for v in vantages
                }), indent=1)

            outputs[f"simulate/{n}x{r}/{order}"] = simulated(spec, locations)
            if (n, r, order) == (60, 30, "as-written"):
                outputs.update(report_outputs(spec, catalog, config, rendered))
                direct = workflow.WorkflowSpec(spec.name, spec.nodes, spec.edges)
                outputs[f"simulate/{n}x{r}/direct"] = simulated(direct, locations)
                twin = spec.nodes[3]._replace(endpoint="twin.example.org", service_time_ms=7.25,
                                              location=geo.Coordinate(-33.9, 151.2))
                repeated = workflow.WorkflowSpec(spec.name, spec.nodes + (twin,), spec.edges)
                outputs[f"simulate/{n}x{r}/direct-repeated-id"] = simulated(
                    repeated, measurement.location_index(repeated, catalog))
    outputs.update(simulate_outputs())
    outputs.update(malformed_outputs())
    outputs.update(agent_rankings())
    outputs.update(cache_outputs())
    outputs.update(fig1_synthetic_caches(model))
    outputs.update(collision_outputs())
    outputs.update(local_outputs())
    outputs.update(overflow_outputs())
    outputs.update(refusal_outputs())
    return outputs


def run_main(argv: list[str]) -> tuple[int, str, str]:
    """`cloudforecast.cli.main(argv)` in this process: (exit code, stdout, stderr)."""
    import io

    from cloudforecast import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's refusals
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# node a's service time is written as -0.0
NEGATIVE_ZERO_DOC = {
    "name": "negative-zero",
    "nodes": [
        {"id": "a", "endpoint": "a.example.org", "role": "source",
         "location": {"lat": 10, "lon": 10}, "service_time_ms": -0.0},
        {"id": "b", "endpoint": "b.example.org", "role": "service",
         "location": {"lat": 20, "lon": 20}, "service_time_ms": 1.5},
    ],
    "edges": [{"from": "a", "to": "b"}],
}


def simulate_outputs() -> dict[str, str]:
    """`simulate` as table and json of this tool's samples/fig1.workflow from
    every default region, and of `NEGATIVE_ZERO_DOC`, written to the working
    directory, from 0,0."""
    from cloudforecast import geo

    fig1 = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "samples",
                        "fig1.workflow")
    runs = {f"fig1/{r.id}": (fig1, r.id) for r in geo.default_region_catalog().regions}
    with open("negative-zero.workflow", "w") as fh:
        json.dump(NEGATIVE_ZERO_DOC, fh)
    runs["negative-zero/0,0"] = ("negative-zero.workflow", "0,0")
    outputs = {}
    for name, (workflow, vantage) in runs.items():
        for fmt in ("table", "json"):
            code, out, err = run_main(["simulate", "-w", workflow, "--vantage", vantage,
                                       "--format", fmt])
            if code != 0:
                raise CommandFailed(f"simulate of {name} as {fmt} exited {code}:\n{err}")
            outputs[f"simulate/{name}/{fmt}"] = out
    return outputs


def malformed_outputs() -> dict[str, str]:
    """What the CLI does with each malformed document, and with the empty
    workflow, written under bad/ in the working directory."""
    sys.path.insert(0, TESTS)
    from malformed_documents import COMMANDS, EMPTY_WORKFLOW, MALFORMED, WORKFLOW, document_text

    cases = [(name, kind, document) for name, kind, document, *_ in MALFORMED]
    cases.append(("empty-workflow", "workflow", EMPTY_WORKFLOW))
    os.makedirs("bad", exist_ok=True)
    good = os.path.join("bad", "good.workflow")
    with open(good, "w") as fh:
        fh.write(document_text(WORKFLOW))
    outputs = {}
    for name, kind, document in cases:
        path = os.path.join("bad", f"{name}.json")
        with open(path, "w") as fh:
            fh.write(document_text(document))
        code, out, err = run_main([a.format(path=path, good=good) for a in COMMANDS[kind]])
        outputs[f"malformed/{name}"] = f"exit {code}\n--- stdout\n{out}--- stderr\n{err}"
    return outputs


# node y's endpoint is region b's probe host, at b's position: region a's leg
# to it has two agents
AGENT_DOC = {
    "name": "agent-order",
    "nodes": [
        {"id": "x", "endpoint": "x.example.org", "role": "source",
         "location": {"lat": 10, "lon": 10}},
        {"id": "y", "endpoint": "b.example.org", "role": "service",
         "location": {"lat": 20, "lon": 20}},
        {"id": "z", "endpoint": "z.example.org", "role": "service",
         "location": {"lat": 30, "lon": 30}},
    ],
    "edges": [{"from": "y", "to": "z"}, {"from": "x", "to": "y"}],
}
AGENT_REGIONS = {"regions": [
    {"id": "a", "probe_host": "a.example.org", "lat": 0, "lon": 0},
    {"id": "b", "probe_host": "b.example.org", "lat": 20, "lon": 20},
]}


class CrcAgentClient:
    """Sends nothing: a round trip is a checksum of the agent's URL and the target."""

    def __init__(self, base_url, request_timeout_s=60.0):
        self.base_url = base_url

    def _reply(self, target):
        return {"ok": True, "rtts_ms": [1 + zlib.crc32(f"{self.base_url}>{target}".encode()) % 100]}

    def ping(self, host, samples, timeout_ms):
        return self._reply(host)

    def http(self, url, samples, timeout_ms):
        return self._reply(url)


def agent_rankings() -> dict[str, str]:
    """`analyze --probe-mode agent` of `AGENT_DOC` with the edges as written
    and reversed, answered by `CrcAgentClient`."""
    from cloudforecast import measurement

    measurement.AgentClient = CrcAgentClient
    outputs = {}
    with tempfile.TemporaryDirectory(prefix="compare-outputs-agent-") as scratch:
        regions = os.path.join(scratch, "regions.json")
        with open(regions, "w") as fh:
            json.dump(AGENT_REGIONS, fh)
        for order, edges in (("as-written", AGENT_DOC["edges"]),
                             ("reversed", AGENT_DOC["edges"][::-1])):
            workflow = os.path.join(scratch, f"{order}.workflow")
            with open(workflow, "w") as fh:
                json.dump(dict(AGENT_DOC, edges=edges), fh)
            code, out, _ = run_main(["analyze", "-w", workflow, "--regions", regions,
                                     "--probe-mode", "agent", "--samples-per-pair", "1",
                                     "--format", "json", "--no-timestamps"])
            if code != 0:
                raise CommandFailed(f"agent-mode analyze of {order} edges exited {code}")
            outputs[f"rank/agent-order/{order}/agent"] = out
    return outputs


# a cache record of fig1's first leg to us-east-1, and the odd values given
# to one of its fields in turn
CACHE_RECORD = {"dst": "probe.us-east-1.example", "metric": "ping", "note": "", "samples": 1,
                "src": "wikimedia.org", "success": True, "taken_at": 4102444800, "unit": "ms",
                "value": 12.5}
REFUSED_CACHE_FIELDS = {"bool-samples": ("samples", True), "float-samples": ("samples", 2.5),
                        "nan-samples": ("samples", float("nan")),
                        "inf-samples": ("samples", float("inf")),
                        "null-unit": ("unit", None), "distance-unit": ("unit", "km"),
                        "negative-value": ("value", -1e-300), "zero-samples": ("samples", 0)}


def cache_outputs() -> dict[str, str]:
    """The file `MeasurementStore.save` writes after loading the corpus of
    tests/cache_corpus.py, written as cache/corpus.cache in the working
    directory, and what `analyze` does with each record of
    `REFUSED_CACHE_FIELDS`, written under cache/ too."""
    sys.path.insert(0, TESTS)
    from cache_corpus import corpus_text

    from cloudforecast import measurement

    os.makedirs("cache", exist_ok=True)
    corpus, saved = os.path.join("cache", "corpus.cache"), os.path.join("cache", "saved.cache")
    with open(corpus, "w") as fh:
        fh.write(corpus_text())
    measurement.MeasurementStore.load(corpus).save(saved)
    with open(saved, "rb") as fh:
        outputs = {"cache/corpus-saved": fh.read().decode("latin-1")}  # one char per byte
    fig1 = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "samples",
                        "fig1.workflow")
    for name, (field, value) in REFUSED_CACHE_FIELDS.items():
        path = os.path.join("cache", f"{name}.cache")
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(CACHE_RECORD, **{field: value})) + "\n")
        code, out, err = run_main(["analyze", "-w", fig1, "--cache", path, "--no-timestamps"])
        outputs[f"cache/refused/{name}"] = f"exit {code}\n--- stdout\n{out}--- stderr\n{err}"
    return outputs


# the clock of the synthetic cache outputs: 2100-01-01
PINNED_TIME = 4102444800.0


@contextlib.contextmanager
def pinned_clock():
    """`time.time` returns `PINNED_TIME` in this interpreter until the block ends."""
    real = time.time
    time.time = lambda: PINNED_TIME
    try:
        yield
    finally:
        time.time = real


def synthetic_caches(name, spec, catalog, config, model) -> dict[str, str]:
    """With the clock pinned, the file `save` writes after a synthetic ranking
    of the spec into an empty store, into one seeded with ping and HTTP
    records the model never gives for every third pair of the shortlist
    (every other one stored the other way round, the second one failed), and
    into one holding an expired ping record of the shortlist's first pair;
    each written under cache/synthetic/ in the working directory."""
    from cloudforecast import measurement, scoring
    from cloudforecast.candidates import Metric, hub_legs, weighted_pairs

    providers = measurement.synthetic_providers(model, measurement.location_index(spec, catalog))
    reference = scoring.rank_regions(spec, catalog, measurement.MeasurementStore(), providers,
                                     config)
    legs = hub_legs(spec)
    pairs = [pair for e in reference.entries if e.shortlisted
             for pair in weighted_pairs(legs, catalog.by_id(e.region).probe_host)]

    def record(i, pair, metric, taken_at=PINNED_TIME):
        src, dst = pair[::-1] if i % 2 else pair
        return measurement.Measurement(src, dst, metric, 0.0 if i == 1 else 5000.0 + i, "ms", 2,
                                       i != 1, taken_at, "seeded")

    expired_at = PINNED_TIME - 2 * measurement.DEFAULT_TTL_S
    stores = {
        "empty": [],
        "seeded": [record(i, pair, metric) for i, pair in enumerate(pairs[::3])
                   for metric in (Metric.PING, Metric.HTTP_RTT)],
        "expired": [record(0, pairs[0], Metric.PING, taken_at=expired_at)],
    }
    os.makedirs(os.path.join("cache", "synthetic"), exist_ok=True)
    outputs = {}
    with pinned_clock():
        for store_name, records in stores.items():
            store = measurement.MeasurementStore()
            store.put_many(records)
            scoring.rank_regions(spec, catalog, store, providers, config)
            path = os.path.join("cache", "synthetic", f"{name}-{store_name}.cache")
            store.save(path)
            with open(path, "rb") as fh:
                outputs[f"cache/synthetic/{name}/{store_name}"] = fh.read().decode("latin-1")
    return outputs


def fig1_synthetic_caches(model) -> dict[str, str]:
    """`synthetic_caches` of this tool's samples/fig1.workflow over the
    default catalog and config, and, with the clock pinned: the cache file
    after `analyze --cache` of it, run twice over the same file; the file
    `save` writes after rankings with shortlists 3 and then 5 over one
    store; and the cache file after `probe --cache` of it."""
    from cloudforecast import geo, measurement, scoring, workflow

    fig1 = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "samples",
                        "fig1.workflow")
    with open(fig1) as fh:
        spec = workflow.parse_workflow(fh.read())
    catalog = geo.default_region_catalog()
    outputs = synthetic_caches("fig1", spec, catalog, scoring.ScoringConfig(), model)
    directory = os.path.join("cache", "synthetic")
    path = os.path.join(directory, "fig1-analyze.cache")
    with pinned_clock():
        for run in ("first", "second"):
            code, _, err = run_main(["analyze", "-w", fig1, "--cache", path, "--no-timestamps"])
            if code != 0:
                raise CommandFailed(f"{run} analyze --cache of fig1 exited {code}:\n{err}")
        store = measurement.MeasurementStore()
        providers = measurement.synthetic_providers(model, measurement.location_index(spec, catalog))
        for shortlist in (3, 5):
            scoring.rank_regions(spec, catalog, store, providers,
                                 scoring.ScoringConfig(shortlist_n=shortlist))
        store.save(os.path.join(directory, "fig1-two-rankings.cache"))
        code, _, err = run_main(["probe", "-w", fig1, "--cache",
                                 os.path.join(directory, "fig1-probe.cache")])
        if code != 0:
            raise CommandFailed(f"probe --cache of fig1 exited {code}:\n{err}")
    for name, file in (("analyze-twice", "fig1-analyze.cache"),
                       ("two-rankings", "fig1-two-rankings.cache"),
                       ("probe", "fig1-probe.cache")):
        with open(os.path.join(directory, file), "rb") as fh:
            outputs[f"cache/synthetic/fig1/{name}"] = fh.read().decode("latin-1")
    return outputs


def crc_ms(name: str) -> float:
    """A stand-in round trip: `1 + crc32(name) % 100` ms."""
    return float(1 + zlib.crc32(name.encode()) % 100)


# the probe host of the default catalog's eu-west-1
DOWN_HOST = "ec2.eu-west-1.amazonaws.com"

# A and B are the probe hosts of eu-west-1 and us-east-1, so those regions
# share the store key of the pair between them, whose first pair is another
# in catalog order than in distance order
HUB_ENDPOINT_DOC = {
    "name": "hub-endpoints",
    "nodes": [
        {"id": "A", "endpoint": DOWN_HOST, "role": "source",
         "location": {"lat": 53.33, "lon": -6.25}},
        {"id": "B", "endpoint": "ec2.us-east-1.amazonaws.com", "role": "source",
         "location": {"lat": 38.95, "lon": -77.45}},
        {"id": "C", "endpoint": "http://www.ucl.ac.uk/process", "role": "service",
         "location": {"lat": 51.52, "lon": -0.13}},
    ],
    "edges": [{"from": "A", "to": "C"}, {"from": "B", "to": "C"}],
}


def local_outputs() -> dict[str, str]:
    """With the clock pinned and the echo probe and the GET answered by
    `crc_ms`, `analyze --probe-mode local` of this tool's
    samples/fig1.workflow twice over one cache file, written under
    cache/local/ in the working directory, `probe --probe-mode local` of
    it, and `probe --probe-mode local --cache` of `HUB_ENDPOINT_DOC`,
    written there too; then, with `DOWN_HOST` answering neither stand-in,
    `analyze --probe-mode local` of fig1 once more."""
    from cloudforecast import measurement

    measurement.EchoProber.mode = "icmp"
    measurement.EchoProber.probe = lambda self, host, timeout_s: crc_ms(host)
    measurement.http_get_ms = lambda url, timeout_s: crc_ms(url)
    fig1 = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "samples",
                        "fig1.workflow")
    os.makedirs(os.path.join("cache", "local"), exist_ok=True)
    path = os.path.join("cache", "local", "fig1-analyze.cache")
    outputs = {}
    with pinned_clock():
        for run in ("first", "second"):
            code, out, err = run_main(["analyze", "-w", fig1, "--probe-mode", "local",
                                       "--format", "json", "--cache", path])
            if code != 0:
                raise CommandFailed(f"{run} local analyze --cache of fig1 exited {code}:\n{err}")
            outputs[f"local/fig1/analyze-{run}"] = out
            with open(path, "rb") as fh:
                outputs[f"local/fig1/analyze-{run}.cache"] = fh.read().decode("latin-1")
        code, out, err = run_main(["probe", "-w", fig1, "--probe-mode", "local"])
        if code != 0:
            raise CommandFailed(f"local probe of fig1 exited {code}:\n{err}")
        outputs["local/fig1/probe"] = out
        hub = os.path.join("cache", "local", "hub-endpoints.workflow")
        with open(hub, "w") as fh:
            json.dump(HUB_ENDPOINT_DOC, fh)
        code, out, err = run_main(["probe", "-w", hub, "--probe-mode", "local",
                                   "--cache", f"{hub}.cache"])
        if code != 0:
            raise CommandFailed(f"local probe --cache of hub-endpoints exited {code}:\n{err}")
        outputs["local/hub-endpoints/probe"] = out
        with open(f"{hub}.cache", "rb") as fh:
            outputs["local/hub-endpoints/probe.cache"] = fh.read().decode("latin-1")
    measurement.EchoProber.probe = lambda self, host, timeout_s: (
        None if host == DOWN_HOST else crc_ms(host))
    measurement.http_get_ms = lambda url, timeout_s: None if DOWN_HOST in url else crc_ms(url)
    code, out, err = run_main(["analyze", "-w", fig1, "--probe-mode", "local", "--format", "json",
                               "--no-timestamps"])
    if code != 0:
        raise CommandFailed(f"local analyze of fig1 with {DOWN_HOST} down exited {code}:\n{err}")
    outputs["local/fig1/analyze-host-down"] = out
    return outputs


def collision_outputs() -> dict[str, str]:
    """With the clock pinned, for `HUB_ENDPOINT_DOC` over the default catalog
    and for this tool's samples/fig1.workflow over the default catalog plus
    us-west-2-twin, at us-west-2's probe host and position, both synthetic
    and written under collision/ in the working directory: the report of
    `analyze --format json --cache` with shortlist 3 and then 6 over one
    cache file, that file after each run, and `probe`. In both inputs two
    shortlisted regions share a store key."""
    from cloudforecast import geo

    regions = [{"id": r.id, "probe_host": r.probe_host, "lat": r.location.lat,
                "lon": r.location.lon} for r in geo.default_region_catalog().regions]
    regions += [dict(r, id="us-west-2-twin") for r in regions if r["id"] == "us-west-2"]
    fig1 = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "samples",
                        "fig1.workflow")
    os.makedirs("collision", exist_ok=True)
    hub, twin = (os.path.join("collision", name) for name in ("hub.workflow", "twin.json"))
    for path, doc in ((hub, HUB_ENDPOINT_DOC), (twin, {"regions": regions})):
        with open(path, "w") as fh:
            json.dump(doc, fh)
    outputs = {}
    with pinned_clock():
        for name, inputs in (("hub-endpoint", ["-w", hub]),
                             ("twin-hub", ["-w", fig1, "-r", twin])):
            cache = os.path.join("collision", f"{name}.cache")
            for run, shortlist in (("first", "3"), ("second", "6")):
                code, out, err = run_main(["analyze", *inputs, "--format", "json", "--cache", cache,
                                           "--shortlist", shortlist, "--no-timestamps"])
                if code != 0:
                    raise CommandFailed(f"{run} analyze --cache of {name} exited {code}:\n{err}")
                outputs[f"collision/{name}/analyze-{run}"] = out
                with open(cache, "rb") as fh:
                    outputs[f"collision/{name}/analyze-{run}.cache"] = fh.read().decode("latin-1")
            code, out, err = run_main(["probe", *inputs])
            if code != 0:
                raise CommandFailed(f"probe of {name} exited {code}:\n{err}")
            outputs[f"collision/{name}/probe"] = out
    return outputs


# a two-node workflow; with `--base-latency-ms 1e308` every path's latency is inf
OVERFLOW_DOC = {
    "name": "pair",
    "nodes": [
        {"id": "X", "endpoint": "x.example.org", "role": "source",
         "location": {"lat": 48.85, "lon": 2.35}},
        {"id": "Y", "endpoint": "y.example.org", "role": "service",
         "location": {"lat": 35.68, "lon": 139.69}},
    ],
    "edges": [{"from": "X", "to": "Y"}],
}


def overflow_outputs() -> dict[str, str]:
    """What `experiment` and `simulate` do with `OVERFLOW_DOC`, written under
    overflow/ in the working directory, at `--base-latency-ms 1e308`."""
    os.makedirs(os.path.join("overflow", "flows"), exist_ok=True)
    workflow = os.path.join("overflow", "flows", "pair.workflow")
    with open(workflow, "w") as fh:
        json.dump(OVERFLOW_DOC, fh)
    runs = {
        "experiment": ["experiment", "--workflow-dir", os.path.dirname(workflow),
                       "--out-dir", os.path.join("overflow", "out")],
        "simulate": ["simulate", "-w", workflow, "--vantage", "us-east-1"],
    }
    outputs = {}
    for name, argv in runs.items():
        code, out, err = run_main(argv + ["--base-latency-ms", "1e308"])
        outputs[f"overflow/{name}"] = f"exit {code}\n--- stdout\n{out}--- stderr\n{err}"
    return outputs


# a host placed at two coordinates, by a region's probe host and fig1's source
# node, by the probe hosts of two regions, and by two endpoints of one workflow
REGION_AT_FIG1_SOURCE = {"regions": [
    {"id": "a", "probe_host": "wikimedia.org", "lat": 0, "lon": 0},
    {"id": "b", "probe_host": "b.example", "lat": 10, "lon": 10},
]}
TWO_REGIONS_AT_ONE_HOST = {"regions": [
    {"id": "r1", "probe_host": "r1.example.org", "lat": 1.0, "lon": 2.0},
    {"id": "r2", "probe_host": "http://R1.example.org:8080/", "lat": -3.0, "lon": 4.0},
]}
ONE_HOST_TWO_PLACES = {
    "name": "one-host",
    "nodes": [
        {"id": "x", "endpoint": "x.example", "role": "source", "location": {"lat": 10, "lon": 10}},
        {"id": "y", "endpoint": "x.example:8080", "role": "service",
         "location": {"lat": 50, "lon": 50}},
    ],
    "edges": [{"from": "x", "to": "y"}],
}


def refusal_outputs() -> dict[str, str]:
    """What the CLI does, under refusals/ in the working directory, with a
    flag of a setting the command does not read, a recipe with a workflow
    directory, and a host placed at two coordinates."""
    fig1 = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "samples",
                        "fig1.workflow")
    path = {name: os.path.join("refusals", name)
            for name in ("flows", "out", "recipe.json", "regions.json", "two-regions.json",
                         "one-host.workflow")}
    os.makedirs(path["flows"], exist_ok=True)
    with open(fig1) as fh, open(os.path.join(path["flows"], "fig1.workflow"), "w") as copy:
        copy.write(fh.read())
    for name, doc in (("recipe.json", [{"pattern": "zigzag", "nodes": 3}]),
                      ("regions.json", REGION_AT_FIG1_SOURCE),
                      ("two-regions.json", TWO_REGIONS_AT_ONE_HOST),
                      ("one-host.workflow", ONE_HOST_TWO_PLACES)):
        with open(path[name], "w") as fh:
            json.dump(doc, fh)
    runs = {
        "experiment-probe-mode-agent": ["experiment", "--probe-mode", "agent",
                                        "--out-dir", path["out"]],
        "generate-format-json": ["generate", "-p", "sequential", "-n", "2", "--format", "json"],
        "experiment-recipe-and-workflow-dir": ["experiment", "--recipe", path["recipe.json"],
                                               "--workflow-dir", path["flows"],
                                               "--out-dir", path["out"]],
        "host-at-two-places/region/analyze": ["analyze", "-w", fig1, "-r", path["regions.json"],
                                              "--metrics", "distance", "--no-timestamps"],
        "host-at-two-places/region/simulate": ["simulate", "-w", fig1,
                                               "-r", path["regions.json"], "--vantage", "b"],
        "host-at-two-places/regions/analyze": ["analyze", "-w", fig1,
                                               "-r", path["two-regions.json"],
                                               "--metrics", "distance", "--no-timestamps"],
        "host-at-two-places/nodes/analyze": ["analyze", "-w", path["one-host.workflow"],
                                             "--metrics", "distance", "--no-timestamps"],
        "host-at-two-places/nodes/simulate": ["simulate", "-w", path["one-host.workflow"],
                                              "--vantage", "10,10"],
    }
    outputs = {}
    for name, argv in runs.items():
        code, out, err = run_main(argv)
        outputs[f"refusal/{name}"] = f"exit {code}\n--- stdout\n{out}--- stderr\n{err}"
    return outputs


def special_rankings(spec, catalog, config, model, dumped) -> dict[str, str]:
    """A ranking from a store seeded with ping and HTTP records the model
    never gives, for every third pair of the shortlist, and one with
    synthetic providers over a table where the first node has moved."""
    from cloudforecast import geo, measurement, scoring
    from cloudforecast.candidates import Metric, hub_legs, weighted_pairs

    locations = measurement.location_index(spec, catalog)
    providers = measurement.synthetic_providers(model, locations)
    reference = scoring.rank_regions(spec, catalog, measurement.MeasurementStore(), providers,
                                     config)
    legs = hub_legs(spec)
    pairs = [pair for e in reference.entries if e.shortlisted
             for pair in weighted_pairs(legs, catalog.by_id(e.region).probe_host)]
    store = measurement.MeasurementStore()
    now = time.time()
    store.put_many(measurement.Measurement(src, dst, metric, 5000.0 + i, "ms", 1, True, now)
                   for i, (src, dst) in enumerate(pairs[::3])
                   for metric in (Metric.PING, Metric.HTTP_RTT))
    seeded = scoring.rank_regions(spec, catalog, store, providers, config)
    first = spec.nodes[0]
    moved = spec._replace(nodes=(first._replace(location=geo.Coordinate(
        -first.location.lat, 0.0 if first.location.lon < 0 else -179.5)),) + spec.nodes[1:])
    elsewhere = measurement.synthetic_providers(model, measurement.location_index(moved, catalog))
    return {
        "rank/200x64/seeded-store": dumped(seeded),
        "rank/200x64/moved-node-providers": dumped(scoring.rank_regions(
            spec, catalog, measurement.MeasurementStore(), elsewhere, config)),
    }


# region ids whose JSON strings need escapes
ESCAPED_IDS = ['quote"d', "back\\slash", "tab\tbell\x07", "caf\u00e9", "\u6771\u4eac",
               "line\u2028sep", "nul\x00"]


def report_outputs(spec, catalog, config, rendered) -> dict[str, str]:
    """The JSON report of a synthetic ranking whose every measured score
    overflows to inf, and of one over the catalog with escaped region ids."""
    from cloudforecast import geo, measurement, scoring

    def ranked(catalog, model):
        providers = measurement.synthetic_providers(model, measurement.location_index(spec, catalog))
        return rendered(scoring.rank_regions(spec, catalog, measurement.MeasurementStore(),
                                             providers, config))

    renamed = geo.RegionCatalog(tuple(
        region._replace(id=f"{ESCAPED_IDS[j % len(ESCAPED_IDS)]}-{j}")
        for j, region in enumerate(catalog.regions)))
    return {
        "report/60x30/overflow": ranked(catalog, measurement.SyntheticNetworkModel(1e307)),
        "report/60x30/escaped-ids": ranked(renamed, measurement.SyntheticNetworkModel()),
    }


def order_free(outputs: dict[str, str]) -> bool:
    """Whether each generated ranking is the same with its edges reversed."""
    return all(dump == outputs[name.replace("/as-written/", "/reversed/")]
               for name, dump in outputs.items()
               if name.startswith("rank/") and "/as-written/" in name)


def digest_header() -> str:
    """The first line of a digest listing: the interpreter and platform it was made on."""
    return (f"# python {sys.version_info.major}.{sys.version_info.minor} "
            f"{sys.platform} {platform.machine()}")


def digest_lines(outputs: dict[str, str]) -> list[str]:
    """`name sha256 size` of each output's UTF-8 bytes."""
    lines = []
    for name, text in outputs.items():
        data = text.encode()
        lines.append(f"{name} {hashlib.sha256(data).hexdigest()} {len(data)}")
    return lines


def main(argv: list[str]) -> int:
    if argv == ["--dump-generated"]:  # the child `collect` starts in each tree
        print(json.dumps(dump_generated()))
        return 0
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    digest = argv[0] == "--digest"
    try:
        trees = [collect(tree) for tree in argv[digest:]]
    except CommandFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if digest:
        print("\n".join([digest_header(), *digest_lines(trees[0])]))
        return 0
    parent, change = trees
    differing = [name for name in parent if parent[name] != change.get(name)]
    for name in parent:
        print(f"{'DIFFERS' if name in differing else 'same':8} {name}")
    for name in differing:
        diff = difflib.unified_diff(parent[name].splitlines(), change[name].splitlines(),
                                    f"parent/{name}", f"change/{name}", lineterm="", n=1)
        print("\n".join(list(diff)[:40]))
    free = order_free(parent), order_free(change)
    yes = {True: "yes", False: "no"}
    print(f"order-free  parent: {yes[free[0]]}  change: {yes[free[1]]}")
    print(f"{len(differing)} of {len(parent)} outputs differ")
    return 1 if differing or not all(free) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
