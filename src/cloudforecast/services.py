"""Long-running loopback-friendly HTTP services: the probe agent and the stub workflow node.

Wire protocols:
  agent: GET /v1/ping?host=<h>&samples=<n>&timeout_ms=<t> -> {"ok", "rtts_ms", "failures"}
         GET /v1/http?url=<u>&samples=<n>&timeout_ms=<t>  -> same shape
         GET /v1/health -> {"ok": true}
  node:  GET /work?delay_ms=<n>&bytes=<n> -> n pseudo-random bytes after the delay
         GET /v1/health -> {"ok": true}
A parameter outside its range (see the MAX_* bounds) is answered with 400.
"""

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qs, urlparse

from .measurement import EchoProber, as_url, http_get_ms, sample_rtts

# Upper bounds on request parameters, so one request cannot hold a handler
# thread or stream data without limit; a larger value is answered with 400.
MAX_SAMPLES = 100  # agent: probes per request
MAX_TIMEOUT_MS = 60_000  # agent: per-probe timeout
MAX_DELAY_MS = 600_000  # node: service time
MAX_BYTES = 1 << 30  # node: payload size


class _JsonRequestHandler(BaseHTTPRequestHandler):
    """Answers /v1/health, a path of `routes` (path -> method that sends the
    answer), or 404; a bad or missing parameter is answered with 400."""

    protocol_version = "HTTP/1.1"
    routes: dict[str, Callable] = {}

    def do_GET(self):
        path = urlparse(self.path).path
        route = self.routes.get(path)
        try:
            if path == "/v1/health":
                self.send_json(200, {"ok": True})
            elif route is not None:
                route(self)
            else:
                self.send_json(404, {"ok": False, "error": f"unknown path {path}"})
        except (ValueError, KeyError) as exc:
            self.send_json(400, {"ok": False, "error": str(exc)})

    def log_message(self, format, *args):  # quiet by default
        pass

    def send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def query(self) -> dict[str, str]:
        raw = parse_qs(urlparse(self.path).query)
        return {key: values[-1] for key, values in raw.items()}

    def int_param(
        self, params: dict, name: str, default: int, maximum: int, minimum: int = 0
    ) -> int:
        value = int(params.get(name, default))
        if value < minimum:
            raise ValueError(f"{name} must be >= {minimum}")
        if value > maximum:
            raise ValueError(f"{name} must be <= {maximum}")
        return value


class AgentHandler(_JsonRequestHandler):
    """Probes targets on behalf of a remote analyzer."""

    def _ping(self) -> None:
        params = self.query()
        host = params["host"]
        prober: EchoProber = self.server.prober  # type: ignore[attr-defined]
        self._sampled(params, lambda timeout_s: prober.probe(host, timeout_s))

    def _http(self) -> None:
        params = self.query()
        url = as_url(params["url"])
        self._sampled(params, lambda timeout_s: http_get_ms(url, timeout_s))

    def _sampled(self, params: dict, probe: Callable[[float], float | None]) -> None:
        samples = self.int_param(params, "samples", 5, MAX_SAMPLES, minimum=1)
        timeout_s = self.int_param(params, "timeout_ms", 3000, MAX_TIMEOUT_MS, minimum=1) / 1000.0
        rtts = sample_rtts(lambda: probe(timeout_s), samples)
        self.send_json(200, {"ok": bool(rtts), "rtts_ms": rtts, "failures": samples - len(rtts)})

    routes = {"/v1/ping": _ping, "/v1/http": _http}


class StubNodeHandler(_JsonRequestHandler):
    """Minimal workflow node: burns service time, then emits a payload."""

    def _work(self):
        params = self.query()
        delay_ms = self.int_param(params, "delay_ms", 0, MAX_DELAY_MS)
        size = self.int_param(params, "bytes", 0, MAX_BYTES)
        if delay_ms:
            time.sleep(delay_ms / 1000.0)
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(size))
        self.end_headers()
        remaining = size
        while remaining > 0:
            chunk = os.urandom(min(remaining, 65536))
            self.wfile.write(chunk)
            remaining -= len(chunk)

    routes = {"/work": _work}


class _Server(ThreadingHTTPServer):
    # socketserver's default backlog of 5 overflows under a burst of probe
    # connects, and each dropped SYN stalls its client for a ~1 s retransmit
    request_queue_size = 128


def make_agent_server(host: str, port: int) -> ThreadingHTTPServer:
    server = _Server((host, port), AgentHandler)
    server.prober = EchoProber()  # type: ignore[attr-defined]
    return server


def make_node_server(host: str, port: int) -> ThreadingHTTPServer:
    return _Server((host, port), StubNodeHandler)


def start_in_thread(server: ThreadingHTTPServer) -> threading.Thread:
    """Run a server on a daemon thread (used by tests and embedders)."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread
