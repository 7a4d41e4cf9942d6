"""Bare-bones workflow execution: deterministic simulation and live runs against stub nodes.

The timing model: a node may start once every input has arrived; each edge
(u, v) costs lat(u -> vantage) + lat(vantage -> v) because all data moves
through the orchestrator; transfers overlap fully (no bandwidth contention).
"""

import csv
import io
import math
import sys
import time
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .errors import NodeUnreachableError
from .geo import Coordinate, LocationTable, RegionCatalog, haversine_km, resolve_location
from .measurement import (
    MeasurementStore,
    ProbeConfig,
    SyntheticNetworkModel,
    lazy_requests,
    location_index,
    synthetic_providers,
)
from .scoring import ScoringConfig, rank_regions
from .workflow import WorkflowSpec, topological_order


def __getattr__(name: str):
    # this module's own `requests` attribute, so node GETs are told apart from probe GETs
    return lazy_requests(globals(), name)


def _requests():
    """This module's `requests` attribute as it is now (see `lazy_requests`)."""
    return sys.modules[__name__].requests


class Transport(str, Enum):
    SIMULATED = "simulated"
    LIVE = "live"


@dataclass(frozen=True)
class Vantage:
    """Where the orchestrator runs: "local" or a region id, plus its position."""

    id: str
    location: Coordinate

    def __post_init__(self):
        if not self.id:
            raise ValueError("vantage id must be non-empty")


@dataclass(frozen=True)
class ExecutionResult:
    workflow: str
    vantage: str
    makespan_ms: float
    finish_ms: Mapping[str, float]
    transport: Transport


@dataclass(frozen=True)
class ExperimentRow:
    workflow: str
    baseline_ms: float
    best_region: str
    best_ms: float
    speedup_pct: float


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[ExperimentRow, ...]
    mean_speedup_pct: float


def simulate_execution(
    spec: WorkflowSpec,
    vantage: Vantage,
    model: SyntheticNetworkModel,
    locations: LocationTable,
) -> ExecutionResult:
    """Deterministic makespan under the synthetic latency model."""
    order = topological_order(spec)
    coords = {}
    service: dict[str, float] = {}
    for node in spec.nodes:
        coords[node.id] = resolve_location(node.endpoint, locations, fallback=node.location)
        service[node.id] = node.service_time_ms

    def leg_ms(a: Coordinate, b: Coordinate) -> float:
        return model.ping_ms(haversine_km(a, b))

    in_edges: dict[str, list] = {nid: [] for nid in order}
    for edge in spec.edges:
        in_edges[edge.dst].append(edge)

    finish: dict[str, float] = {}
    for nid in order:
        incoming = in_edges[nid]
        if not incoming:
            finish[nid] = service[nid]
            continue
        arrival = max(
            finish[e.src]
            + leg_ms(coords[e.src], vantage.location)
            + leg_ms(vantage.location, coords[e.dst])
            for e in incoming
        )
        finish[nid] = service[nid] + arrival

    makespan = max(finish.values(), default=0.0)
    return ExecutionResult(
        workflow=spec.name,
        vantage=vantage.id,
        makespan_ms=makespan,
        finish_ms=finish,
        transport=Transport.SIMULATED,
    )


def _fetch_node_output(
    node_id: str,
    base_url: str,
    delay_ms: float,
    out_bytes: int,
    config: ProbeConfig,
) -> bytes:
    timeout_s = (config.timeout_ms + delay_ms) / 1000.0 + 1.0
    url = f"{base_url.rstrip('/')}/work"
    http = _requests()
    try:
        response = http.get(
            url,
            params={"delay_ms": int(delay_ms), "bytes": out_bytes},
            timeout=timeout_s,
        )
        response.raise_for_status()
        return response.content
    except http.RequestException as exc:
        raise NodeUnreachableError(node_id, str(exc)) from exc


def live_execute(
    spec: WorkflowSpec,
    node_urls: Mapping[str, str],
    config: ProbeConfig,
) -> ExecutionResult:
    """Orchestrate the workflow against live stub nodes, pulling each node's
    output once all of its inputs have been pulled; wall-clock makespan."""
    order = topological_order(spec)
    for nid in order:
        if nid not in node_urls:
            raise NodeUnreachableError(nid, "no URL configured")

    service = {node.id: node.service_time_ms for node in spec.nodes}
    pending_parents = {nid: set() for nid in order}
    children: dict[str, list[str]] = {nid: [] for nid in order}
    out_kb = dict.fromkeys(order, 0)
    for edge in spec.edges:
        pending_parents[edge.dst].add(edge.src)
        children[edge.src].append(edge.dst)
        out_kb[edge.src] += edge.payload_kb

    finish_ms: dict[str, float] = {}
    # import both before the clock starts, not inside the first timed GET
    from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
    _requests()
    start = time.perf_counter()
    ready = [nid for nid in order if not pending_parents[nid]]
    running = {}
    with ThreadPoolExecutor(max_workers=config.max_parallel_probes) as pool:
        while ready or running:
            for nid in ready:
                running[
                    pool.submit(
                        _fetch_node_output,
                        nid,
                        node_urls[nid],
                        service[nid],
                        int(out_kb[nid] * 1024),
                        config,
                    )
                ] = nid
            ready = []
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                nid = running.pop(future)
                future.result()  # NodeUnreachableError propagates and aborts
                finish_ms[nid] = (time.perf_counter() - start) * 1000.0
                for child in children[nid]:
                    pending_parents[child].discard(nid)
                    if not pending_parents[child] and child not in finish_ms:
                        ready.append(child)

    makespan = max(finish_ms.values(), default=0.0)
    return ExecutionResult(
        workflow=spec.name,
        vantage="live",
        makespan_ms=makespan,
        finish_ms=finish_ms,
        transport=Transport.LIVE,
    )


def speedup_percent(baseline_ms: float, candidate_ms: float) -> float:
    """(baseline / candidate - 1) * 100; 188% means baseline is 2.88x candidate."""
    if baseline_ms <= 0 or candidate_ms <= 0:
        raise ValueError(
            f"makespans must be positive, got baseline={baseline_ms}, candidate={candidate_ms}"
        )
    return (baseline_ms / candidate_ms - 1.0) * 100.0


def run_experiment(
    specs: Sequence[WorkflowSpec],
    catalog: RegionCatalog,
    model: SyntheticNetworkModel,
    local: Vantage,
    config: ScoringConfig,
) -> ExperimentReport:
    """Rank each workflow, then compare simulated local vs rank-1-region execution."""
    if not specs:
        raise ValueError("no workflows to run")
    store = MeasurementStore()
    rows = []
    for spec in specs:
        locations = location_index(spec, catalog)
        providers = synthetic_providers(model, locations)
        report = rank_regions(spec, catalog, store, providers, config)
        best_id = report.entries[0].region
        best_region = catalog.by_id(best_id)
        baseline = simulate_execution(spec, local, model, locations)
        candidate = simulate_execution(
            spec, Vantage(best_region.id, best_region.location), model, locations
        )
        rows.append(
            ExperimentRow(
                workflow=spec.name,
                baseline_ms=baseline.makespan_ms,
                best_region=best_id,
                best_ms=candidate.makespan_ms,
                speedup_pct=speedup_percent(baseline.makespan_ms, candidate.makespan_ms),
            )
        )
    return ExperimentReport(
        rows=tuple(rows),
        mean_speedup_pct=math.fsum(row.speedup_pct for row in rows) / len(rows),
    )


def experiment_csv(report: ExperimentReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["workflow", "baseline_ms", "best_region", "best_ms", "speedup_pct"])
    for row in report.rows:
        writer.writerow(
            [
                row.workflow,
                f"{row.baseline_ms:.3f}",
                row.best_region,
                f"{row.best_ms:.3f}",
                f"{row.speedup_pct:.3f}",
            ]
        )
    return out.getvalue()


def chart_data(report: ExperimentReport) -> str:
    """Bar-chart-ready rows: workflow name and speedup percentage."""
    lines = ["# workflow speedup_pct"]
    lines.extend(f"{row.workflow} {row.speedup_pct:.3f}" for row in report.rows)
    return "\n".join(lines) + "\n"
