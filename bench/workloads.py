"""The benchmark's four workloads: generated inputs, one timed operation each,
and the output checks that run after the timed part of every operation.

A workload's `setup()` is one set-up repetition (the runner times several);
`op(i, traced)` runs operation i and returns (timings in ms, check). The
check raises when the output is wrong; it runs outside the timed region.
"""

import http.client
import json
import os
import random
import selectors
import subprocess
import sys
import time

import oracle

perf = time.perf_counter

# Loopback addresses of the stub nodes: workflow nodes from .11, regions from .101.
NODE_BASE, REGION_BASE = 11, 101
STUB_PORT = 80
LOCAL = (0.0, 0.0)  # the `experiment` default local vantage


def child_env(root):
    """Environment for cloudforecast processes: the checkout's sources, and
    no CLOUDFORECAST_* settings leaking in from the caller."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CLOUDFORECAST_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _coord(rng):
    return round(rng.uniform(-55.0, 65.0), 4), round(rng.uniform(-180.0, 180.0), 4)


def gen_workflow(rng, name, hosts, service_time=True):
    """A mixed DAG (chains, fan-out, fan-in) over one node per host.

    Node i > 0 takes a parent among the last eight non-fresh nodes, and one
    time in four a second one; one node in twelve starts as a fresh source
    that feeds the next node. Edges only point forward, so the graph is
    acyclic, and every node reaches node 0, so it is weakly connected.
    """
    n = len(hosts)
    nodes, edges, anchored, fresh = [], [], [0], []
    for i in range(n):
        lat, lon = _coord(rng)
        nodes.append({
            "id": f"n{i:04d}",
            "endpoint": hosts[i],
            "role": "service",
            "location": {"lat": lat, "lon": lon},
            "service_time_ms": round(rng.uniform(5.0, 80.0), 1) if service_time else 0.0,
        })
        if i == 0:
            continue
        if not fresh and i < n - 1 and rng.random() < 1 / 12:
            fresh.append(i)
            continue
        parents = {rng.choice(anchored[-8:])}
        if rng.random() < 0.25:
            parents.add(rng.choice(anchored[-8:]))
        parents.update(fresh)
        fresh = []
        for p in sorted(parents):
            edges.append({"from": f"n{p:04d}", "to": f"n{i:04d}",
                          "payload_kb": rng.choice([1, 4, 16, 64])})
        anchored.append(i)
    with_parents = {e["to"] for e in edges}
    for node in nodes:
        if node["id"] not in with_parents:
            node["role"] = "source"
    return {"name": name, "nodes": nodes, "edges": edges}


def gen_regions(rng, probe_hosts):
    regions = []
    for j, host in enumerate(probe_hosts):
        lat, lon = _coord(rng)
        regions.append({"id": f"region-{j:03d}", "probe_host": host, "lat": lat, "lon": lon})
    return regions


def stress_hosts(rng, n):
    """Distinct hosts in the three endpoint forms the package accepts."""
    tag = f"{rng.randrange(16 ** 4):04x}"
    forms = ("svc-{i}.{t}.example.net", "http://svc-{i}.{t}.example.org/process",
             "svc-{i}.{t}.example.com:8080")
    return [forms[i % 3].format(i=i, t=tag) for i in range(n)]


class InProcess:
    """Shared set-up of the workloads that call the package in this process."""

    in_process = True
    cpu_bound = True

    def __init__(self, root):
        self.root = root
        from cloudforecast import executor, geo, measurement, scoring, workflow
        self.G, self.M, self.S, self.W, self.X = geo, measurement, scoring, workflow, executor
        self.model = measurement.SyntheticNetworkModel()

    def import_in_child(self):
        """Start a fresh interpreter that imports the package, as a process
        starting this workload does. It is part of every set-up repetition:
        this process imports only once, and one import timed alone spread
        0.36 of its median across runs."""
        t0 = perf()
        subprocess.run([sys.executable, "-c", "import cloudforecast"], cwd=self.root,
                       env=child_env(self.root), check=True, capture_output=True, timeout=60)
        self.child_s = perf() - t0

    def provenance(self):
        return {"prober_mode": self.M.EchoProber().mode}

    def close(self):
        pass


class Stress(InProcess):
    """stress-cold / stress-warm: the synthetic ranking at stress scale."""

    def __init__(self, root, seed, sizes, warm, tmp):
        super().__init__(root)
        self.warm = warm
        self.cache_path = os.path.join(tmp, "stress.cache")
        rng = random.Random(seed)
        n, r = sizes["nodes"], sizes["regions"]
        self.doc = gen_workflow(rng, f"stress-{n}x{r}-seed{seed}", stress_hosts(rng, n))
        self.text = json.dumps(self.doc, indent=1)
        self.regions = gen_regions(rng, [f"probe.region-{j:03d}.cloud.example" for j in range(r)])
        self.shortlist_n = max(1, r // 4)
        self.expected = oracle.expected_ranking(self.doc, self.regions, self.shortlist_n)
        self.makespans = {}

    def provenance(self):
        return dict(super().provenance(), shortlist_n=self.shortlist_n, edges=len(self.doc["edges"]))

    def setup(self):
        self.import_in_child()
        self.catalog = self.G.load_region_catalog(json.dumps({"regions": self.regions}))
        self.config = self.S.ScoringConfig(shortlist_n=self.shortlist_n)
        if self.warm:
            spec = self.W.parse_workflow(self.text)
            providers = self.M.synthetic_providers(self.model, self.M.location_index(spec, self.catalog))
            store = self.M.MeasurementStore()
            self.S.rank_regions(spec, self.catalog, store, providers, self.config)
            store.save(self.cache_path)
            self.entries = len(store)

    def _expected_makespan(self, region_id):
        if region_id not in self.makespans:
            if region_id == "local":
                vantage = LOCAL
            else:
                region = next(r for r in self.regions if r["id"] == region_id)
                vantage = (region["lat"], region["lon"])
            self.makespans[region_id] = oracle.simulated_makespan(self.doc, vantage)
        return self.makespans[region_id]

    def op(self, i, traced):
        G, M, S, W, X = self.G, self.M, self.S, self.W, self.X
        calls = [0]

        def counted(provider):
            def call(pair):
                calls[0] += 1
                return provider(pair)
            return call

        t0 = perf()
        spec = W.parse_workflow(self.text)
        locations = M.location_index(spec, self.catalog)
        providers = M.synthetic_providers(self.model, locations)
        if self.warm:
            providers = {metric: counted(p) for metric, p in providers.items()}
            store = M.MeasurementStore.load(self.cache_path)
        else:
            store = M.MeasurementStore()
        report = S.rank_regions(spec, self.catalog, store, providers, self.config)
        if self.warm:
            store.save(self.cache_path)
        rendered = S.render_report(report, "json")
        t1 = perf()
        best = self.catalog.by_id(report.entries[0].region)
        local = X.simulate_execution(spec, X.Vantage("local", G.Coordinate(*LOCAL)), self.model, locations)
        remote = X.simulate_execution(spec, X.Vantage(best.id, best.location), self.model, locations)
        t2 = perf()

        def check():
            if self.warm and calls[0]:
                raise oracle.OracleMismatch(f"warm cache: {calls[0]} provider calls, expected 0")
            if self.warm and len(store) != self.entries:
                raise oracle.OracleMismatch(f"warm cache holds {len(store)} entries, expected {self.entries}")
            oracle.check_report_json(json.loads(rendered), self.expected)
            oracle.check_makespan(local.makespan_ms, self._expected_makespan("local"), "local vantage")
            oracle.check_makespan(remote.makespan_ms, self._expected_makespan(best.id), best.id)

        return {"analyze_ms": 1e3 * (t1 - t0), "experiment_ms": 1e3 * (t2 - t0),
                "makespan_ms": 1e3 * (t2 - t1)}, check


class Loopback(InProcess):
    """loopback-live: local probe mode and live execution against stub nodes."""

    cpu_bound = False  # its time is socket waits and ~1 s retransmit timers

    def __init__(self, root, seed, sizes):
        super().__init__(root)
        rng = random.Random(seed)
        n, r = sizes["nodes"], sizes["regions"]
        self.node_hosts = [f"127.0.0.{NODE_BASE + i}" for i in range(n)]
        self.region_hosts = [f"127.0.0.{REGION_BASE + j}" for j in range(r)]
        self.doc = gen_workflow(rng, f"loopback-{n}x{r}-seed{seed}", self.node_hosts, service_time=False)
        self.regions = gen_regions(rng, self.region_hosts)
        self.expected = oracle.expected_ranking(self.doc, self.regions)
        self.node_urls = {node["id"]: f"http://{node['endpoint']}" for node in self.doc["nodes"]}
        nproc = os.cpu_count() or 1
        self.probe_config = self.M.ProbeConfig(samples_per_pair=2, max_parallel_probes=nproc)
        self.helper = None

    def setup(self):
        self.close()
        self.import_in_child()
        self.spec = self.W.parse_workflow(json.dumps(self.doc))
        self.catalog = self.G.load_region_catalog(json.dumps({"regions": self.regions}))
        self.helper = start_stubs(self.root, self.node_hosts + self.region_hosts)

    def op(self, i, traced):
        M, S, X = self.M, self.S, self.X
        t0 = perf()
        locations = M.location_index(self.spec, self.catalog)
        providers = M.local_providers(self.probe_config, locations)
        store = M.MeasurementStore()
        report = S.rank_regions(self.spec, self.catalog, store, providers, S.ScoringConfig(),
                                self.probe_config.max_parallel_probes)
        t1 = perf()
        result = X.live_execute(self.spec, self.node_urls, self.probe_config)
        t2 = perf()

        def check():
            if self.helper.poll() is not None:
                raise RuntimeError(f"stub helper exited with code {self.helper.returncode}")
            got = sorted(e.region for e in report.entries)
            if got != sorted(self.expected["scores"]):
                raise oracle.OracleMismatch(f"regions missing from the ranking: {got}")
            for e in report.entries:
                for score in (e.distance_score, e.ping_score, e.http_score):
                    if score is None or score.failed_edges:
                        raise oracle.OracleMismatch(f"{e.region}: failed or missing score {score}")
                want = self.expected["scores"][e.region]["distance"]
                if not oracle.close(e.distance_score.value, want):
                    raise oracle.OracleMismatch(f"{e.region}: distance {e.distance_score.value!r}, expected {want!r}")
            if sorted(result.finish_ms) != sorted(self.node_urls) or result.makespan_ms <= 0:
                raise oracle.OracleMismatch(f"live execution finished {sorted(result.finish_ms)}")

        return {"analyze_ms": 1e3 * (t1 - t0), "experiment_ms": 1e3 * (t2 - t0),
                "makespan_ms": result.makespan_ms}, check

    def close(self):
        if self.helper is not None:
            stop_stubs(self.helper)
            self.helper = None


def start_stubs(root, hosts, timeout_s=30.0):
    """Start the stub helper process and wait until every stub answers
    GET /v1/health. The helper exits when its standard input closes."""
    helper = subprocess.Popen(
        [sys.executable, os.path.join(root, "bench", "stubs.py"), *hosts],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=root, env=child_env(root), text=True,
    )
    try:
        deadline = time.monotonic() + timeout_s
        with selectors.DefaultSelector() as sel:
            sel.register(helper.stdout, selectors.EVENT_READ)
            if not sel.select(timeout_s):
                raise RuntimeError("stub helper did not report ready")
        line = helper.stdout.readline().strip()
        if line != "ready":
            raise RuntimeError(f"stub helper failed to start (exit {helper.wait(5)})")
        for host in hosts:
            while not _healthy(host):
                if time.monotonic() > deadline:
                    raise RuntimeError(f"stub {host}:{STUB_PORT} not healthy")
                time.sleep(0.05)
    except BaseException:
        stop_stubs(helper)
        raise
    return helper


def _healthy(host):
    conn = http.client.HTTPConnection(host, STUB_PORT, timeout=5)
    try:
        conn.request("GET", "/v1/health")
        response = conn.getresponse()
        return response.status == 200 and json.loads(response.read()).get("ok") is True
    except OSError:
        return False
    finally:
        conn.close()


def stop_stubs(helper):
    if helper.stdin and not helper.stdin.closed:
        helper.stdin.close()
    try:
        helper.wait(timeout=5)
    except subprocess.TimeoutExpired:
        helper.kill()
        helper.wait()
    helper.stdout.close()


class PaperCli:
    """paper-cli: fresh `cloudforecast` processes at the paper's scale.

    Operations rotate through `analyze` of the fig1 sample, `experiment` with
    the default recipe, and `simulate` of fig1 from its rank-1 region (the
    executor checking the ranking). Each is timed from spawn to exit.
    """

    in_process = False
    cpu_bound = True
    KINDS = ("analyze", "experiment", "simulate")
    TIMING = {"analyze": "analyze_ms", "experiment": "experiment_ms", "simulate": "makespan_ms"}
    # what the `cloudforecast` console script runs
    LAUNCH = "import sys; from cloudforecast.cli import run; sys.argv[0] = 'cloudforecast'; run()"

    def __init__(self, root, seed, tmp):
        self.root = root
        self.env = child_env(root)
        self.fig1 = os.path.join("samples", "fig1.workflow")
        with open(os.path.join(root, self.fig1)) as fh:
            self.doc = json.load(fh)
        with open(os.path.join(root, "src", "cloudforecast", "data", "regions.default")) as fh:
            regions = json.load(fh)["regions"]
        self.expected = oracle.expected_ranking(self.doc, regions)
        best = next(r for r in regions if r["id"] == self.expected["order"][0])
        self.best_makespan = oracle.simulated_makespan(self.doc, (best["lat"], best["lon"]))
        self.args = {
            "analyze": ["analyze", "-w", self.fig1],
            "experiment": ["experiment", "--seed", str(seed), "--out-dir", os.path.join(tmp, "experiment")],
            "simulate": ["simulate", "-w", self.fig1, "--vantage", best["id"]],
        }
        self.reference = None
        self.trace_file = os.path.join(tmp, "child-trace.json")

    def _run(self, kind, traced=False):
        if traced:
            argv = [sys.executable, os.path.join(self.root, "bench", "cli_child.py"), self.trace_file]
        else:
            argv = [sys.executable, "-c", self.LAUNCH]
        t0 = perf()
        proc = subprocess.run(argv + self.args[kind], cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=120)
        return 1e3 * (perf() - t0), proc

    def setup(self):
        for kind in self.KINDS:
            _, proc = self._run(kind)
            if proc.returncode != 0:
                raise RuntimeError(f"{kind} exited {proc.returncode}: {proc.stderr.strip()}")
            if kind == "experiment" and self.reference is None:
                self.reference = proc.stdout

    def _check(self, kind, proc):
        if proc.returncode != 0:
            raise RuntimeError(f"{kind} exited {proc.returncode}: {proc.stderr.strip()}")
        if kind == "analyze":
            oracle.check_table(proc.stdout, self.expected)
        elif kind == "experiment":
            if self.reference is not None and proc.stdout != self.reference:
                raise oracle.OracleMismatch("experiment output differs from the first run's")
            if "mean speedup:" not in proc.stdout:
                raise oracle.OracleMismatch("experiment printed no mean speedup")
        else:
            makespan = next(float(line.split()[1]) for line in proc.stdout.splitlines()
                            if line.startswith("makespan_ms:"))
            if abs(makespan - self.best_makespan) > 5e-4 + oracle.REL_TOL * self.best_makespan:
                raise oracle.OracleMismatch(f"simulate makespan {makespan}, expected {self.best_makespan!r}")

    def op(self, i, traced):
        kind = self.KINDS[i % len(self.KINDS)]
        ms, proc = self._run(kind, traced)
        timings = {self.TIMING[kind]: ms, "kind": kind}
        if traced and proc.returncode == 0:
            with open(self.trace_file) as fh:
                timings["trace"] = json.load(fh)
        return timings, lambda: self._check(kind, proc)

    def provenance(self):
        return {"prober_mode": "not used (synthetic mode)"}

    def close(self):
        pass
