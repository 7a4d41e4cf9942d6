"""Scoring of candidate graphs, distance shortlisting, and the ranked region report."""

import io
import json
import math
import time
from operator import mul
from typing import Mapping, NamedTuple

from .candidates import CandidateGraph, Metric, Pair, hub_legs, weighted_pairs
from .errors import MissingMeasurementError
from .geo import RegionCatalog, km_row, prepare_point
from .jsondoc import json_value
from .measurement import (
    Measurement,
    MeasurementStore,
    PairProvider,
    SyntheticProvider,
    _synthetic_values,
    check_count,
    check_finite,
    collect_measurements,
    location_index,
)
from .records import Checked
from .workflow import WorkflowSpec

DEFAULT_FAILURE_PENALTY = 1.0e8


class GraphScore(NamedTuple):
    region: str
    metric: Metric
    value: float
    failed_edges: int = 0


class _ScoringConfigFields(NamedTuple):  # the defaults are `ScoringConfig`'s
    shortlist_n: int | None
    weight_ping: float
    weight_http: float
    failure_penalty: float


class ScoringConfig(Checked, _ScoringConfigFields):
    __slots__ = ()

    def __new__(
        cls,
        shortlist_n: int | None = None,  # None = whole catalog
        weight_ping: float = 1.0,
        weight_http: float = 1.0,
        failure_penalty: float = DEFAULT_FAILURE_PENALTY,
    ):
        self = tuple.__new__(cls, (shortlist_n, weight_ping, weight_http, failure_penalty))
        check_finite(self, ("weight_ping", "weight_http", "failure_penalty"))
        if shortlist_n is not None:
            check_count(self, ("shortlist_n",))
        if weight_ping < 0 or weight_http < 0:
            raise ValueError("metric weights must be non-negative")
        if weight_ping + weight_http <= 0:
            raise ValueError("weight_ping + weight_http must be positive")
        if failure_penalty < 0:
            raise ValueError("failure_penalty must be non-negative")
        return self


class RankingEntry(NamedTuple):
    region: str
    final_score: float
    shortlisted: bool
    rank: int
    distance_score: GraphScore | None = None
    ping_score: GraphScore | None = None
    http_score: GraphScore | None = None


class RankingReport(NamedTuple):
    workflow: str
    entries: tuple[RankingEntry, ...]
    config: dict
    provenance: dict
    generated_at: float | None = None


def score_graph(
    graph: CandidateGraph,
    measurements: Mapping[Pair, Measurement],
    failure_penalty: float = DEFAULT_FAILURE_PENALTY,
) -> GraphScore:
    """The sequential per-edge reference sum of a candidate graph; failed edges cost the penalty."""
    total = 0.0
    failed = 0
    for edge in graph.edges:
        measurement = measurements.get(edge.pair)
        if measurement is None:
            raise MissingMeasurementError(
                f"no measurement for pair {edge.src} -> {edge.dst} ({graph.metric.value})"
            )
        if measurement.success:
            total += measurement.value
        else:
            total += failure_penalty
            failed += 1
    return GraphScore(region=graph.region.id, metric=graph.metric, value=total, failed_edges=failed)


def _leg_sum(weights, values) -> float:
    """Every score's sum of multiplicity x value per leg, correctly rounded, so
    order-free; inf where the sum is past the float range (no term is negative)."""
    try:
        return math.fsum(map(mul, weights, values))
    except OverflowError:  # fsum's "intermediate overflow"
        return math.inf


def shortlist_by_distance(
    distance_scores: list[GraphScore],
    n: int,
) -> tuple[list[str], list[str]]:
    """The n distance-smallest region ids, then the rest, both in distance order."""
    if n < 1:
        raise ValueError("shortlist size must be >= 1")
    ordered = sorted(distance_scores, key=lambda s: (s.value, s.region))
    ids = [s.region for s in ordered]
    return ids[:n], ids[n:]


def final_score(ping: GraphScore | None, http: GraphScore | None, config: ScoringConfig) -> float:
    """Weighted sum of whichever of the ping and HTTP sums were measured
    (penalties already folded in); 0.0 if neither was. A sum with weight 0
    is left out, so an infinite one adds no nan."""
    if ping and http and ping.region != http.region:
        raise ValueError(f"region mismatch: {ping.region} vs {http.region}")
    return sum((weight * score.value for weight, score
                in ((config.weight_ping, ping), (config.weight_http, http)) if score and weight),
               0.0)


def rank_regions(
    spec: WorkflowSpec,
    catalog: RegionCatalog,
    store: MeasurementStore,
    providers: Mapping[Metric, PairProvider],
    config: ScoringConfig,
    max_parallel: int = 1,
) -> RankingReport:
    """Distance-shortlist, then score shortlisted regions by ping+HTTP.

    The providers mapping decides which of ping and HTTP are evaluated.
    Distance, computed from the coordinates without the store unless a
    distance provider is passed, scores every region, and ranks those not
    shortlisted after the shortlist. Each score is the `_leg_sum` over the
    region's unique (endpoint, hub) pairs, weighted by the edges each
    carries, so edge order changes no bit of it while a pair's value does
    not depend on its direction. A region's pairs are its legs, so all
    regions share one weight list. A metric is one batch over the pairs of
    the regions it scores (all for distance, the shortlist for ping and
    HTTP) and one flat list of values over it, in leg order. When the
    metric's provider is a `SyntheticProvider` of that metric over the
    pass's `location_index(spec, catalog)`, the values are the model's of
    the computed pass's kilometres, given to `MeasurementStore.put_synthetic`
    as rows (the regions' hubs and the legs), so a fresh store takes them
    with no pair built. Otherwise, or when the store refuses them, they are
    every pair's measurement from `collect_measurements`, a failed one
    replaced by the failure penalty with its leg's edges counted as failed.
    Either way the scores, records and store are those of
    `collect_measurements` with the provider.
    """
    legs = hub_legs(spec)
    weights = list(legs.values())
    size = len(weights)
    hub_of = {region.id: region.probe_host for region in catalog.regions}
    pairs_of: dict[str, dict[Pair, int]] = {}
    kms_of: dict[str, list[float]] = {}  # region -> its legs' kilometres, in leg order
    from_rows: set[Metric] = set()  # the metrics whose values start from `kms_of`

    def batch_of(region_ids: list[str]) -> list[Pair]:
        pairs_of.update((r, weighted_pairs(legs, hub_of[r])) for r in region_ids
                        if r not in pairs_of)
        return [pair for region_id in region_ids for pair in pairs_of[region_id]]

    def scored(metric: Metric, region_ids: list[str]) -> dict[str, GraphScore]:
        if metric not in providers:
            return {}
        failed = [0] * len(region_ids)
        values = None
        if metric in from_rows:
            kms = [km for region_id in region_ids for km in kms_of[region_id]]
            values = _synthetic_values(kms, metric, providers[metric].model)
            if not store.put_synthetic([hub_of[r] for r in region_ids], legs, values, metric):
                values = None
        if values is None:
            batch = batch_of(region_ids)
            answers = collect_measurements(store, batch, metric, providers[metric], max_parallel)
            values = []
            for i, pair in enumerate(batch):
                measurement = answers[pair]
                if measurement.success:
                    values.append(measurement.value)
                else:
                    values.append(config.failure_penalty)
                    failed[i // size] += weights[i % size]
        return {region_id: GraphScore(region_id, metric,
                                      _leg_sum(weights, values[k * size:(k + 1) * size]), failed[k])
                for k, region_id in enumerate(region_ids)}

    distance_scores = scored(Metric.DISTANCE, list(hub_of))
    if Metric.DISTANCE not in providers:
        # from the coordinates: `km_row` gives the same bits either way round a leg
        table = location_index(spec, catalog)
        from_rows.update(metric for metric, p in providers.items()
                         if type(p) is SyntheticProvider and p.metric is metric
                         and p.locations.entries == table.entries)
        points = [prepare_point(table.locate(end)) for end, _ in legs]
        for region in catalog.regions:
            kms = km_row(points, table.locate(region.probe_host))
            if from_rows:
                kms_of[region.id] = kms
            distance_scores[region.id] = GraphScore(region.id, Metric.DISTANCE,
                                                    _leg_sum(weights, kms))
    n = min(config.shortlist_n or len(catalog.regions), len(catalog.regions))
    shortlisted_ids, remainder_ids = shortlist_by_distance(list(distance_scores.values()), n)

    ping_scores = scored(Metric.PING, shortlisted_ids)
    http_scores = scored(Metric.HTTP_RTT, shortlisted_ids)

    # a distance-only analysis ranks the shortlist by distance
    final = {r: s.value for r, s in distance_scores.items()}
    if ping_scores or http_scores:
        final.update((r, final_score(ping_scores.get(r), http_scores.get(r), config))
                     for r in shortlisted_ids)
    shortlisted_ids.sort(key=lambda r: (final[r], r))

    entries = tuple(
        RankingEntry(
            region=region_id,
            final_score=final[region_id],
            shortlisted=i < n,
            rank=i + 1,
            distance_score=distance_scores[region_id],
            ping_score=ping_scores.get(region_id),
            http_score=http_scores.get(region_id),
        )
        for i, region_id in enumerate(shortlisted_ids + remainder_ids)
    )

    measured = [distance_scores, ping_scores, http_scores]
    provenance = {
        "graphs_scored": sum(len(scores) for scores in measured),
        "failed_edges": sum(s.failed_edges for scores in measured for s in scores.values()),
        "metrics": sorted({Metric.DISTANCE.value, *(m.value for m in providers)}),
        "cache_entries": len(store),
    }
    return RankingReport(
        workflow=spec.name,
        entries=entries,
        config=config._asdict(),
        provenance=provenance,
        generated_at=time.time(),
    )


def _score_json(s: GraphScore | None) -> str:
    return "null" if s is None else (
        f'{{\n        "region": {json_value(s.region)},\n        "metric": '
        f'{json_value(s.metric.value)},\n        "value": {json_value(s.value)},\n'
        f'        "failed_edges": {json_value(s.failed_edges)}\n      }}')


def report_to_json(report: RankingReport) -> str:
    """`json.dumps(indent=2)` of the report as a document, to the byte: the
    head through `json.dumps` itself, then each entry as one string over
    the scalars `json_value` writes as `json.dumps` does."""
    head = json.dumps({"workflow": report.workflow, "config": report.config,
                       "provenance": report.provenance, "generated_at": report.generated_at,
                       "entries": []}, indent=2)
    entries = ",\n".join(
        f'    {{\n      "rank": {json_value(e.rank)},\n      "region": {json_value(e.region)},\n'
        f'      "final_score": {json_value(e.final_score)},\n      "shortlisted": '
        f'{"true" if e.shortlisted else "false"},\n      "distance_score": '
        f'{_score_json(e.distance_score)},\n      "ping_score": {_score_json(e.ping_score)},\n'
        f'      "http_score": {_score_json(e.http_score)}\n    }}' for e in report.entries)
    # the head ends in `"entries": []\n}`
    return f"{head[:-4]}[\n{entries}\n  ]\n}}\n" if entries else head + "\n"


def render_report(report: RankingReport, format: str = "table") -> str:
    """Render as `table` (rank/region/final_score/shortlisted), `json`, or `csv`."""
    if format == "json":
        return report_to_json(report)
    if format == "csv":
        import csv

        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            [
                "rank",
                "region",
                "final_score",
                "shortlisted",
                "distance_km",
                "ping_ms",
                "http_ms",
                "failed_edges",
            ]
        )
        for e in report.entries:
            failed = sum(
                s.failed_edges for s in (e.distance_score, e.ping_score, e.http_score) if s
            )
            writer.writerow(
                [
                    e.rank,
                    e.region,
                    f"{e.final_score:.3f}",
                    str(e.shortlisted).lower(),
                    "" if e.distance_score is None else f"{e.distance_score.value:.3f}",
                    "" if e.ping_score is None else f"{e.ping_score.value:.3f}",
                    "" if e.http_score is None else f"{e.http_score.value:.3f}",
                    failed,
                ]
            )
        return out.getvalue()
    if format != "table":
        raise ValueError(f"unknown report format: {format!r}")

    header = ("rank", "region", "final_score", "shortlisted")
    rows = [
        (str(e.rank), e.region, f"{e.final_score:.3f}", str(e.shortlisted).lower())
        for e in report.entries
    ]
    widths = [max(len(col), *(len(row[i]) for row in rows)) if rows else len(col)
              for i, col in enumerate(header)]
    lines = [f"workflow: {report.workflow}"]
    lines.append("  ".join(col.ljust(widths[i]) for i, col in enumerate(header)).rstrip())
    lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(header))).rstrip())
    return "\n".join(lines) + "\n"
