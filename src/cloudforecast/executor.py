"""Bare-bones workflow execution: deterministic simulation and live runs against stub nodes.

The timing model: a node may start once every input has arrived; each edge
(u, v) costs lat(u -> vantage) + lat(vantage -> v) because all data moves
through the orchestrator; transfers overlap fully (no bandwidth contention).
A simulation computes one kilometre, so one latency, per node, in one
`km_row` over the nodes: the kernel gives the same bits in either direction,
so a node's leg to the vantage and its leg back cost the same. It walks the
spec's `plan`, the DAG peel that validation already made (`parse_workflow`
peels each spec once; a spec built directly peels on its first simulation,
which also refuses a dangling edge or a cycle), by node position, and pushes
each node's finish time plus both legs of an edge to each child, keeping the
latest: a node finishes at its service time when nothing arrives, and at
service + latest arrival otherwise.
"""

import io
import math
import sys
import time
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

from .candidates import Metric
from .errors import NodeUnreachableError, SpecValidationError
from .geo import (Coordinate, LocationTable, RegionCatalog, km_row, prepare_point,
                  resolve_location)
from .measurement import (
    MeasurementStore,
    ProbeConfig,
    SyntheticNetworkModel,
    _synthetic_values,
    lazy_requests,
    location_index,
    synthetic_providers,
)
from .records import Checked
from .scoring import ScoringConfig, rank_regions
from .workflow import WorkflowSpec


def __getattr__(name: str):
    # this module's own `requests` attribute, so node GETs are told apart from probe GETs
    return lazy_requests(globals(), name)


def _requests():
    """This module's `requests` attribute as it is now (see `lazy_requests`)."""
    return sys.modules[__name__].requests


class Transport(str, Enum):
    SIMULATED = "simulated"
    LIVE = "live"


class _VantageFields(NamedTuple):
    id: str
    location: Coordinate


class Vantage(Checked, _VantageFields):
    """Where the orchestrator runs: "local" or a region id, plus its position."""

    __slots__ = ()

    def __new__(cls, id: str, location: Coordinate):
        if not id:
            raise ValueError("vantage id must be non-empty")
        return tuple.__new__(cls, (id, location))


class ExecutionResult(NamedTuple):
    workflow: str
    vantage: str
    makespan_ms: float
    finish_ms: Mapping[str, float]
    transport: Transport


class ExperimentRow(NamedTuple):
    workflow: str
    baseline_ms: float
    best_region: str
    best_ms: float
    speedup_pct: float


class ExperimentReport(NamedTuple):
    rows: tuple[ExperimentRow, ...]
    mean_speedup_pct: float


def simulate_execution(
    spec: WorkflowSpec,
    vantage: Vantage,
    model: SyntheticNetworkModel,
    locations: LocationTable,
) -> ExecutionResult:
    """Deterministic makespan under the synthetic latency model."""
    order, children = spec.plan
    nodes = spec.nodes
    kms = km_row([prepare_point(resolve_location(node.endpoint, locations)) for node in nodes],
                 vantage.location)
    hub_ms = _synthetic_values(kms, Metric.PING, model)

    arrival: list[float | None] = [None] * len(nodes)  # None: nothing has arrived
    finish = [0.0] * len(nodes)
    for i in order:
        at = arrival[i]
        done = nodes[i].service_time_ms if at is None else nodes[i].service_time_ms + at
        finish[i] = done
        sent = done + hub_ms[i]
        for child in children[i]:
            at = sent + hub_ms[child]
            if arrival[child] is None or at > arrival[child]:
                arrival[child] = at

    finish_ms = {nodes[i].id: finish[i] for i in order}
    return ExecutionResult(spec.name, vantage.id, max(finish_ms.values(), default=0.0), finish_ms,
                           Transport.SIMULATED)


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
    order, children = spec.plan
    nodes = spec.nodes
    for i in order:
        if nodes[i].id not in node_urls:
            raise NodeUnreachableError(nodes[i].id, "no URL configured")

    # inputs still to arrive, by position, one per edge: a repeated edge is
    # counted twice and, being twice in its parent's child list, released once
    pending = [0] * len(nodes)
    for child_list in children:
        for child in child_list:
            pending[child] += 1
    out_kb = dict.fromkeys((node.id for node in nodes), 0)
    for edge in spec.edges:
        out_kb[edge.src] += edge.payload_kb

    finish_ms: dict[str, float] = {}
    # import both before the clock starts, not inside the first timed GET
    from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
    _requests()
    start = time.perf_counter()
    ready = [i for i in order if not pending[i]]
    running = {}
    with ThreadPoolExecutor(max_workers=config.max_parallel_probes) as pool:
        while ready or running:
            for i in ready:
                node = nodes[i]
                running[
                    pool.submit(
                        _fetch_node_output,
                        node.id,
                        node_urls[node.id],
                        node.service_time_ms,
                        int(out_kb[node.id] * 1024),
                        config,
                    )
                ] = i
            ready = []
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                i = running.pop(future)
                future.result()  # NodeUnreachableError propagates and aborts
                finish_ms[nodes[i].id] = (time.perf_counter() - start) * 1000.0
                for child in children[i]:
                    pending[child] -= 1
                    if not pending[child]:
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
    if not (0 < baseline_ms < math.inf and 0 < candidate_ms < math.inf):  # inf: an overflowed path
        rule = "positive" if baseline_ms <= 0 or candidate_ms <= 0 else "finite"
        raise ValueError(
            f"makespans must be {rule}, got baseline={baseline_ms}, candidate={candidate_ms}"
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
    rows = []
    for spec in specs:
        # a store of its own: another workflow may put the same endpoint elsewhere
        locations = location_index(spec, catalog)
        providers = synthetic_providers(model, locations)
        report = rank_regions(spec, catalog, MeasurementStore(), providers, config)
        best_id = report.entries[0].region
        best_region = catalog.by_id(best_id)
        baseline = simulate_execution(spec, local, model, locations)
        candidate = simulate_execution(
            spec, Vantage(best_region.id, best_region.location), model, locations
        )
        try:  # a path that takes no time, or overflows to inf, has no speedup
            speedup = speedup_percent(baseline.makespan_ms, candidate.makespan_ms)
        except ValueError as exc:
            raise SpecValidationError(f"workflow {spec.name!r}: {exc}") from None
        rows.append(
            ExperimentRow(
                workflow=spec.name,
                baseline_ms=baseline.makespan_ms,
                best_region=best_id,
                best_ms=candidate.makespan_ms,
                speedup_pct=speedup,
            )
        )
    return ExperimentReport(
        rows=tuple(rows),
        mean_speedup_pct=math.fsum(row.speedup_pct for row in rows) / len(rows),
    )


def experiment_csv(report: ExperimentReport) -> str:
    import csv

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
