import math
import socket
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests

from cloudforecast.candidates import Metric
from cloudforecast.geo import Coordinate, Region, RegionCatalog
from cloudforecast.measurement import AgentClient, ProbeConfig, agent_providers
from cloudforecast.services import (
    MAX_BYTES,
    MAX_DELAY_MS,
    MAX_SAMPLES,
    MAX_TIMEOUT_MS,
    make_agent_server,
    make_node_server,
    start_in_thread,
)


@pytest.fixture(scope="module")
def agent():
    server = make_agent_server("127.0.0.1", 0)
    start_in_thread(server)
    yield server.server_address
    server.shutdown()
    server.server_close()


@pytest.fixture(scope="module")
def node():
    server = make_node_server("127.0.0.1", 0)
    start_in_thread(server)
    yield server.server_address
    server.shutdown()
    server.server_close()


def _url(addr, path):
    return f"http://{addr[0]}:{addr[1]}{path}"


def test_agent_health(agent):
    reply = requests.get(_url(agent, "/v1/health"), timeout=2).json()
    assert reply == {"ok": True}


def test_agent_ping_loopback(agent):
    reply = requests.get(
        _url(agent, "/v1/ping"),
        params={"host": "127.0.0.1", "samples": 3, "timeout_ms": 500},
        timeout=5,
    ).json()
    assert reply["ok"] is True
    assert len(reply["rtts_ms"]) == 3
    assert reply["failures"] == 0
    assert all(rtt < 5.0 for rtt in reply["rtts_ms"])


def test_agent_ping_unresolvable_host(agent):
    reply = requests.get(
        _url(agent, "/v1/ping"),
        params={"host": "blackhole.invalid", "samples": 1, "timeout_ms": 100},
        timeout=5,
    ).json()
    assert reply["ok"] is False
    assert reply["failures"] == 1


def test_agent_http_probe(agent, node):
    reply = requests.get(
        _url(agent, "/v1/http"),
        params={"url": _url(node, "/v1/health"), "samples": 2, "timeout_ms": 1000},
        timeout=10,
    ).json()
    assert reply["ok"] is True and len(reply["rtts_ms"]) == 2


def test_agent_http_probe_counts_error_response(agent, node):
    # the node answers 404 for an unknown path: a completed round trip all the same
    reply = requests.get(
        _url(agent, "/v1/http"),
        params={"url": _url(node, "/nope"), "samples": 2, "timeout_ms": 1000},
        timeout=10,
    ).json()
    assert reply["ok"] is True
    assert reply["failures"] == 0 and len(reply["rtts_ms"]) == 2


def test_agent_http_probe_failure_counts(agent):
    reply = requests.get(
        _url(agent, "/v1/http"),
        params={"url": "http://127.0.0.1:1/", "samples": 2, "timeout_ms": 200},
        timeout=5,
    ).json()
    assert reply["ok"] is False
    assert reply["rtts_ms"] == []
    assert reply["failures"] == 2


def test_agent_missing_param_is_400(agent):
    response = requests.get(_url(agent, "/v1/ping"), timeout=2)
    assert response.status_code == 400
    assert response.json()["ok"] is False


def test_agent_unknown_path_is_404(agent):
    assert requests.get(_url(agent, "/v1/nope"), timeout=2).status_code == 404


def test_node_health_and_work(node):
    assert requests.get(_url(node, "/v1/health"), timeout=2).json() == {"ok": True}
    start = time.perf_counter()
    response = requests.get(
        _url(node, "/work"), params={"delay_ms": 50, "bytes": 1024}, timeout=5
    )
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    assert response.status_code == 200
    assert len(response.content) == 1024
    assert elapsed_ms >= 50.0


def test_node_work_defaults(node):
    response = requests.get(_url(node, "/work"), timeout=2)
    assert response.status_code == 200
    assert response.content == b""


def test_node_negative_params_rejected(node):
    response = requests.get(_url(node, "/work"), params={"bytes": -1}, timeout=2)
    assert response.status_code == 400


@pytest.mark.parametrize(
    "server, path, params, name, cap",
    [
        ("agent", "/v1/ping", {"host": "127.0.0.1", "timeout_ms": 100}, "samples", MAX_SAMPLES),
        ("agent", "/v1/http", {"url": "http://127.0.0.1:1/", "samples": 1}, "timeout_ms",
         MAX_TIMEOUT_MS),
        ("node", "/work", {}, "delay_ms", MAX_DELAY_MS),
        ("node", "/work", {}, "bytes", MAX_BYTES),
    ],
)
def test_parameter_above_its_cap_is_400(request, server, path, params, name, cap):
    addr = request.getfixturevalue(server)
    response = requests.get(_url(addr, path), params={**params, name: cap + 1}, timeout=5)
    assert response.status_code == 400
    assert response.json() == {"ok": False, "error": f"{name} must be <= {cap}"}


def test_bind_conflict_raises(node):
    with pytest.raises(OSError):
        make_node_server("127.0.0.1", node[1])


def test_agent_client_wrapper(agent):
    client = AgentClient(f"http://{agent[0]}:{agent[1]}")
    reply = client.ping("127.0.0.1", samples=2, timeout_ms=500)
    assert reply["ok"] and len(reply["rtts_ms"]) == 2


def test_agent_providers_end_to_end(agent, node):
    # a single "region" whose agent runs on loopback; the workflow node is the stub
    region = Region("loop", "127.0.0.1", Coordinate(0, 0))
    catalog = RegionCatalog((region,))
    node_url = _url(node, "")
    providers = agent_providers(
        catalog, ProbeConfig(samples_per_pair=2, timeout_ms=1000), agent_port=agent[1]
    )
    ping = providers[Metric.PING]((node_url, "127.0.0.1"))
    assert ping.success and ping.value < 50.0
    http = providers[Metric.HTTP_RTT](("127.0.0.1", _url(node, "/v1/health")))
    assert http.success and http.value > 0.0


def test_agent_providers_fail_without_region_side(agent):
    region = Region("loop", "127.0.0.1", Coordinate(0, 0))
    catalog = RegionCatalog((region,))
    providers = agent_providers(
        catalog, ProbeConfig(samples_per_pair=1, timeout_ms=200), agent_port=agent[1]
    )
    m = providers[Metric.PING](("x.example.org", "y.example.org"))
    assert not m.success and "no-region-side" in m.note


def test_agent_error_reply_is_reported_with_its_status(agent):
    region = Region("loop", "127.0.0.1", Coordinate(0, 0))
    catalog = RegionCatalog((region,))
    too_many = ProbeConfig(samples_per_pair=MAX_SAMPLES + 1, timeout_ms=200)
    providers = agent_providers(catalog, too_many, agent[1])
    for metric in (Metric.PING, Metric.HTTP_RTT):
        m = providers[metric](("127.0.0.1", "127.0.0.1"))
        assert not m.success and m.note == "agent/http-400"
    # no agent listening is a transport error
    closed = agent_providers(catalog, ProbeConfig(samples_per_pair=1, timeout_ms=200),
                             agent_port=1)
    m = closed[Metric.PING](("127.0.0.1", "127.0.0.1"))
    assert not m.success and m.note == "agent/unreachable"


# replies an agent must not be trusted with: not an object, or rtts_ms not a
# list of finite non-negative numbers
BAD_REPLIES = {
    "list": [12.0],
    "number-rtts": {"ok": True, "rtts_ms": 5},
    "string-rtt": {"ok": True, "rtts_ms": ["x"]},
    "negative-rtt": {"ok": True, "rtts_ms": [-1.0]},
    "nan-rtt": {"ok": True, "rtts_ms": [math.nan]},
    "inf-rtt": {"ok": True, "rtts_ms": [math.inf]},
    "bool-rtt": {"ok": True, "rtts_ms": [True]},
    "huge-int-rtt": {"ok": True, "rtts_ms": [10**400]},
}


def _loopback_agent_providers(samples=1, **kwargs):
    """Agent providers for one region on loopback (`agent_port` in kwargs)."""
    catalog = RegionCatalog((Region("loop", "127.0.0.1", Coordinate(0, 0)),))
    return agent_providers(catalog, ProbeConfig(samples_per_pair=samples, timeout_ms=200),
                           **kwargs)


def _replying_agent(monkeypatch, reply):
    monkeypatch.setattr(AgentClient, "ping", lambda self, *args: reply)
    monkeypatch.setattr(AgentClient, "http", lambda self, *args: reply)
    return _loopback_agent_providers(samples=2)


@pytest.mark.parametrize("reply", BAD_REPLIES.values(), ids=list(BAD_REPLIES))
@pytest.mark.parametrize("metric", [Metric.PING, Metric.HTTP_RTT])
def test_a_malformed_agent_reply_is_a_failed_measurement(monkeypatch, metric, reply):
    m = _replying_agent(monkeypatch, reply)[metric](("127.0.0.1", "target.example.org"))
    assert not m.success and m.note == "agent/bad-reply"


@pytest.mark.parametrize("metric", [Metric.PING, Metric.HTTP_RTT])
def test_a_well_formed_agent_reply_is_aggregated(monkeypatch, metric):
    reply = {"ok": True, "rtts_ms": [0, 3.0], "failures": 0}
    m = _replying_agent(monkeypatch, reply)[metric](("127.0.0.1", "target.example.org"))
    assert m.success and m.value == 1.5 and m.samples == 2


class _FixedReply(BaseHTTPRequestHandler):
    """Answers every GET with the server's `reply`: (status, body)."""

    def do_GET(self):
        status, body = self.server.reply
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def fixed_agent():
    """A loopback agent that answers every GET with its `reply`."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FixedReply)
    start_in_thread(server)
    yield server
    server.shutdown()
    server.server_close()


AGENT_ANSWERS = {
    "html": ((200, b"<html>not json</html>"), "agent/bad-reply"),
    "not-utf8": ((200, b"\x80\xff not json"), "agent/bad-reply"),
    "empty": ((200, b""), "agent/bad-reply"),
    # past the decoder's limits: nesting depth, and the digits of an integer
    "deep": ((200, b"[" * 100_000), "agent/bad-reply"),
    "digits": ((200, b'{"ok": true, "rtts_ms": [' + b"7" * 5000 + b"]}"), "agent/bad-reply"),
    "unavailable": ((503, b"<html>busy</html>"), "agent/http-503"),
}


@pytest.mark.parametrize("answer", AGENT_ANSWERS.values(), ids=list(AGENT_ANSWERS))
@pytest.mark.parametrize("metric", [Metric.PING, Metric.HTTP_RTT])
def test_an_agent_answer_that_is_not_json_is_a_failed_measurement(fixed_agent, metric, answer):
    fixed_agent.reply, note = answer
    port = fixed_agent.server_address[1]
    m = _loopback_agent_providers(agent_port=port)[metric](("127.0.0.1", "target.example.org"))
    assert not m.success and m.note == note


@pytest.mark.parametrize("metric", [Metric.PING, Metric.HTTP_RTT])
def test_a_refused_agent_port_is_unreachable(metric):
    m = _loopback_agent_providers(agent_port=1)[metric](("127.0.0.1", "target.example.org"))
    assert not m.success and m.note == "agent/unreachable"


@pytest.mark.parametrize("make_server", [make_agent_server, make_node_server])
def test_server_accept_queue_holds_a_burst_of_connects(make_server):
    # nothing accepts yet, so every connect must wait in the listen backlog;
    # with socketserver's default of 5 the rest lose their SYN and time out
    server = make_server("127.0.0.1", 0)
    clients = []
    try:
        for _ in range(32):
            clients.append(socket.create_connection(server.server_address, timeout=0.5))
    finally:
        for client in clients:
            client.close()
        server.server_close()
    assert len(clients) == 32
