"""The one stand-in network of the probing modes' tests and of
`tools/compare_outputs.py`: an echo probe, a GET or an agent call sends
nothing and answers `crc_ms` of what it asks for, so each host, URL and
agent has a round trip of its own, the same in every run.

`install` binds it at the package's three network seams: `EchoProber.probe`
(with the prober's mode fixed as icmp), `measurement.http_get_ms` and
`measurement.AgentClient`. Tests of those seams themselves talk to real
sockets instead."""

import zlib
from typing import Callable, Iterable, NamedTuple

from cloudforecast import measurement
from cloudforecast.geo import host_of


def crc_ms(name: str) -> float:
    """The round trip (ms) the lab answers for a host, a URL or an
    `agent>target` pair."""
    return 1.0 + zlib.crc32(name.encode()) % 100


class CrcAgentClient:
    """Stand-in for `measurement.AgentClient`: every round trip is
    `crc_ms(f"{base_url}>{target}")`, so two agents measuring the same pair
    answer differently."""

    def __init__(self, base_url: str, request_timeout_s: float = 60.0):
        self.base_url = base_url

    def ping(self, host: str, samples: int, timeout_ms: float) -> dict:
        return {"ok": True, "rtts_ms": [crc_ms(f"{self.base_url}>{host}")] * samples}

    def http(self, url: str, samples: int, timeout_ms: float) -> dict:
        return {"ok": True, "rtts_ms": [crc_ms(f"{self.base_url}>{url}")] * samples}


class Lab(NamedTuple):
    """Each host echo-probed and each URL fetched, in the order asked."""
    probes: list[str]
    gets: list[str]


def install(set_attr: Callable, down: Iterable[str] = ()) -> Lab:
    """Answer the package's probes, GETs and agent calls from the lab, through
    `set_attr` (pytest's `monkeypatch.setattr`, or the builtin `setattr` for a
    process that keeps the lab). A host in `down` answers neither an echo
    probe nor a GET."""
    lab, down = Lab([], []), frozenset(down)

    def probe(self, host: str, timeout_s: float) -> float | None:
        lab.probes.append(host)
        return None if host in down else crc_ms(host)

    def http_get_ms(url: str, timeout_s: float) -> float | None:
        lab.gets.append(url)
        return None if host_of(url) in down else crc_ms(url)

    set_attr(measurement.EchoProber, "mode", "icmp")
    set_attr(measurement.EchoProber, "probe", probe)
    set_attr(measurement, "http_get_ms", http_get_ms)
    set_attr(measurement, "AgentClient", CrcAgentClient)
    return lab
