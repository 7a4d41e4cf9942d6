"""Start-up cost and the `requests` attribute contract of the modules that send GETs.

`measurement` and `executor` import `requests` on first use, so a synthetic
run never loads it, and each keeps it as its own module attribute, which a
tracer or a test may replace. The standard-library modules that only probes,
thread pools and live runs use are imported by the code that uses them, and
before any clock it reads starts; so is `csv`, which only CSV output uses.
The records are `NamedTuple`s, so no command loads `dataclasses` or, with
it, `inspect`. Each check runs in a fresh interpreter, since other tests
import `requests` and the services into this one.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_fresh(script: str, *args: str, flags: tuple[str, ...] = ()) -> None:
    """Run `script` with `args` in a new interpreter, started with `flags`,
    with the package on its path."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("CLOUDFORECAST_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *flags, "-c", script, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr


COLD_START = r"""
import contextlib, io, sys

HEAVY = ("requests", "urllib3", "http.server", "concurrent.futures", "statistics", "socket",
         "dataclasses", "inspect")

def loaded():
    return [name for name in HEAVY if name in sys.modules]

import cloudforecast
assert loaded() == [], loaded()
from cloudforecast import cli
assert loaded() == [], loaded()
outputs = {}
for argv in (["analyze", "-w", "samples/fig1.workflow"],
             ["simulate", "-w", "samples/fig1.workflow", "--vantage", "us-east-1"],
             ["experiment", "--out-dir", sys.argv[1]],
             ["probe", "-w", "samples/fig1.workflow"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    outputs[argv[0]] = out.getvalue()
    assert loaded() == [], (argv, loaded())
assert len(outputs["analyze"].splitlines()) == 11, outputs["analyze"]
assert outputs["simulate"] and outputs["experiment"] and outputs["probe"], outputs

# the first GET imports `requests` itself
from cloudforecast.measurement import http_get_ms
from cloudforecast.services import make_node_server, start_in_thread
server = make_node_server("127.0.0.1", 0)
start_in_thread(server)
assert "requests" not in sys.modules
host, port = server.server_address
assert http_get_ms(f"http://{host}:{port}/v1/health", 5.0) is not None
server.shutdown()
server.server_close()

import requests
from cloudforecast import executor, measurement
assert measurement.requests is requests
assert executor.requests is requests
"""


def test_synthetic_analyze_loads_no_http_client_and_a_cold_get_works(tmp_path):
    run_fresh(COLD_START, str(tmp_path))


NO_SITE = r"""
import contextlib, io, sys

UNUSED = ("socket", "statistics", "concurrent.futures", "pathlib", "importlib.resources",
          "dataclasses", "inspect")

def loaded():
    return [name for name in UNUSED if name in sys.modules]

assert loaded() == [], loaded()
from cloudforecast import cli
for argv in (["analyze", "-w", "samples/fig1.workflow"],
             ["simulate", "-w", "samples/fig1.workflow", "--vantage", "us-east-1"],
             ["experiment", "--out-dir", sys.argv[1]]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    assert out.getvalue(), argv
    assert loaded() == [], (argv, loaded())
"""


def test_synthetic_commands_load_no_unused_stdlib_module_without_site(tmp_path):
    # -S: no site hook (a .pth file may import importlib.resources and pathlib)
    run_fresh(NO_SITE, str(tmp_path), flags=("-S",))


ANALYZE_AND_PROBE = r"""
import contextlib, io, sys

import cloudforecast
assert "cloudforecast.executor" not in sys.modules
from cloudforecast import cli
for argv in (["analyze", "-w", "samples/fig1.workflow"],
             ["analyze", "-w", "samples/fig1.workflow", "--format", "json"],
             ["probe", "-w", "samples/fig1.workflow"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    assert out.getvalue(), argv
    assert "csv" not in sys.modules, argv
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["analyze", "-w", "samples/fig1.workflow", "--format", "csv"]) == 0
assert "csv" in sys.modules
"""


def test_analyze_and_probe_load_no_csv_and_the_package_loads_no_executor():
    # -S, as above; the CLI itself still loads the executor, whose functions
    # bench/cli_child.py's tracer wraps right after importing it
    run_fresh(ANALYZE_AND_PROBE, flags=("-S",))


STAND_INS = r"""
import pytest
from cloudforecast import executor, measurement
from cloudforecast.candidates import Metric
from cloudforecast.errors import NodeUnreachableError
from cloudforecast.geo import Coordinate, Region, RegionCatalog
from cloudforecast.measurement import ProbeConfig


class Response:
    def __init__(self, url):
        # a probe agent answers JSON, a workflow node its output
        self.content = b'{"ok": true, "rtts_ms": [1.0]}' if "/v1/" in url else b"out"

    def raise_for_status(self):
        pass


class StandIn:
    class RequestException(Exception):
        pass

    class HTTPError(RequestException):
        def __init__(self, status_code):
            super().__init__(status_code)
            self.response = type("Reply", (), {"status_code": status_code})

    def __init__(self):
        self.urls = []

    def get(self, url, params=None, timeout=None):
        self.urls.append(url)
        if "down" in url:
            raise self.RequestException(url)
        if "refuses" in url:
            raise self.HTTPError(503)
        return Response(url)


probe_gets, node_gets = StandIn(), StandIn()
config = ProbeConfig(samples_per_pair=1, timeout_ms=100)
catalog = RegionCatalog((Region("up", "up.test", Coordinate(0, 0)),
                         Region("down", "down.test", Coordinate(0, 0)),
                         Region("refuses", "refuses.test", Coordinate(0, 0))))
ping = measurement.agent_providers(catalog, config, agent_port=9)[Metric.PING]

with pytest.MonkeyPatch.context() as mp:
    mp.setattr(measurement, "requests", probe_gets)
    mp.setattr(executor, "requests", node_gets)
    assert measurement.http_get_ms("http://up.test/", 1.0) is not None
    assert measurement.http_get_ms("http://down.test/", 1.0) is None
    assert ping(("up.test", "target.test")).success
    assert ping(("down.test", "target.test")).note == "agent/unreachable"
    assert ping(("refuses.test", "target.test")).note == "agent/http-503"
    assert executor._fetch_node_output("n", "http://up.test", 0, 3, config) == b"out"
    with pytest.raises(NodeUnreachableError):
        executor._fetch_node_output("n", "http://down.test", 0, 3, config)

assert probe_gets.urls == [
    "http://up.test/", "http://down.test/",
    "http://up.test:9/v1/ping", "http://down.test:9/v1/ping", "http://refuses.test:9/v1/ping",
], probe_gets.urls
assert node_gets.urls == ["http://up.test/work", "http://down.test/work"], node_gets.urls

import requests
assert measurement.requests is requests and executor.requests is requests
"""


def test_each_module_sends_its_gets_through_its_own_requests_attribute():
    run_fresh(STAND_INS)


LIVE_CLOCK = r"""
import sys
import time
from cloudforecast import executor
from cloudforecast.measurement import ProbeConfig
from cloudforecast.workflow import WorkflowEdge, WorkflowNode, WorkflowSpec

EARLY = ("requests", "concurrent.futures")
assert not any(name in sys.modules for name in EARLY)
loaded_at_clock = []


class Clock:
    def perf_counter(self):
        loaded_at_clock.append(all(name in sys.modules for name in EARLY))
        return time.perf_counter()


def fetch(node_id, base_url, delay_ms, out_bytes, config):
    return b""


executor.time = Clock()
executor._fetch_node_output = fetch
spec = WorkflowSpec("two", (WorkflowNode("A", "a.test"), WorkflowNode("B", "b.test")),
                    (WorkflowEdge("A", "B", 1),))
result = executor.live_execute(spec, {"A": "http://a.test", "B": "http://b.test"},
                               ProbeConfig(timeout_ms=100))
assert set(result.finish_ms) == {"A", "B"}
assert loaded_at_clock and all(loaded_at_clock), loaded_at_clock
"""


def test_a_live_run_imports_requests_before_its_clock_starts():
    run_fresh(LIVE_CLOCK)


PROBE_CLOCK = r"""
import sys
import time
from cloudforecast import measurement
from cloudforecast.measurement import ProbeConfig

assert "socket" not in sys.modules
loaded_at_clock = []


class Clock:
    time = staticmethod(time.time)

    def perf_counter(self):
        loaded_at_clock.append("socket" in sys.modules)
        return time.perf_counter()


measurement.time = Clock()
prober = measurement.EchoProber()
prober._mode = {"self-test": None}.get(sys.argv[1], sys.argv[1])
m = measurement.measure_latency(("here", "127.0.0.1"), ProbeConfig(samples_per_pair=2,
                                                                   timeout_ms=250), prober)
assert m.note == f"echo/{prober.mode}", m
assert all(loaded_at_clock), loaded_at_clock
assert loaded_at_clock or prober.mode == "icmp", "the tcp-connect probe reads the clock"
"""


@pytest.mark.parametrize("mode", ["self-test", "icmp", "tcp-connect"])
def test_an_echo_probe_imports_socket_before_its_clock_starts(mode):
    # loopback only; with unprivileged ICMP refused, a forced icmp probe fails before timing
    run_fresh(PROBE_CLOCK, mode)
