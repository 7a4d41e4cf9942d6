"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -rA` to see the per-criterion
lines. Everything is offline except the two loopback smoke tests.
"""

import random
import time

import pytest
import requests

from cloudforecast.candidates import Metric, enumerate_candidates
from cloudforecast.cli import main as cli_main
from cloudforecast.executor import Vantage, simulate_execution
from cloudforecast.geo import (
    Coordinate,
    Region,
    RegionCatalog,
    default_region_catalog,
    haversine_km,
)
from cloudforecast.measurement import (
    MeasurementStore,
    SyntheticNetworkModel,
    location_index,
    synthetic_providers,
)
from cloudforecast.scoring import GraphScore, ScoringConfig, rank_regions, shortlist_by_distance
from cloudforecast.services import make_agent_server, make_node_server, start_in_thread
from cloudforecast.workflow import (
    WorkflowEdge,
    WorkflowNode,
    WorkflowPattern,
    WorkflowSpec,
    default_node_pool,
    generate_random_workflow,
)
from conftest import EXPECTED_RANKING, REFERENCE_FINAL_SCORES
from helpers import longest_path_ms, per_region_edge_providers, slc_km, spearman

PAPER_SIZES = (2, 3, 4, 5, 7, 10, 12, 13)


def _passed(line: str) -> None:
    print(f"ACCEPTANCE PASS: {line}")


def _chain_spec(edge_count: int) -> WorkflowSpec:
    nodes = tuple(
        WorkflowNode(id=f"n{i}", endpoint=f"n{i}.example.org") for i in range(edge_count + 1)
    )
    edges = tuple(WorkflowEdge(f"n{i}", f"n{i+1}") for i in range(edge_count))
    return WorkflowSpec(name="chain", nodes=nodes, edges=edges)


def test_criterion_1_candidate_enumeration_law(fig1_spec, catalog):
    graphs = enumerate_candidates(fig1_spec, catalog, list(Metric))
    assert len(graphs) == 24

    rng = random.Random(101)
    metrics = list(Metric)
    for _ in range(120):
        region_count = rng.randint(1, 12)
        subset = rng.sample(metrics, rng.randint(1, 3))
        edge_count = rng.randint(0, 6)
        spec = _chain_spec(edge_count)
        regions = RegionCatalog(
            tuple(
                Region(f"r{i}", f"r{i}.example.org", Coordinate(0, i % 179))
                for i in range(region_count)
            )
        )
        graphs = enumerate_candidates(spec, regions, subset)
        assert len(graphs) == region_count * len(subset)
        for graph in graphs:
            assert len(graph.edges) == 2 * edge_count
    _passed("criterion 1 - enumeration yields |regions| x |metrics| graphs (24 for 8x3)")


def test_criterion_2_reference_ranking_order(fig1_spec, catalog):
    edge_values = {
        region_id: {metric: score / 8.0 for metric in Metric}
        for region_id, score in REFERENCE_FINAL_SCORES.items()
    }
    providers = per_region_edge_providers(catalog, edge_values)
    report = rank_regions(
        fig1_spec, catalog, MeasurementStore(), providers, ScoringConfig(shortlist_n=8)
    )
    for entry in report.entries:
        assert entry.final_score == pytest.approx(
            REFERENCE_FINAL_SCORES[entry.region], rel=1e-9
        )
    assert [entry.region for entry in report.entries] == EXPECTED_RANKING
    _passed("criterion 2 - fixture scores reproduce the reference ranking order exactly")


def test_criterion_3_haversine_oracle_and_metric_properties():
    rng = random.Random(271828)

    def random_point():
        return Coordinate(rng.uniform(-90, 90), rng.uniform(-180, 180))

    checked = 0
    while checked < 1000:
        a, b = random_point(), random_point()
        oracle = slc_km(a, b)
        if oracle <= 1.0:
            continue
        got = haversine_km(a, b)
        assert abs(got - oracle) / oracle < 0.005
        checked += 1

    for _ in range(1000):
        a, b, c = random_point(), random_point(), random_point()
        d_ab, d_ba = haversine_km(a, b), haversine_km(b, a)
        assert d_ab >= 0.0
        assert d_ab == d_ba
        assert haversine_km(a, a) == 0.0
        assert haversine_km(a, c) <= d_ab + haversine_km(b, c) + 1e-6
    _passed("criterion 3 - haversine within 0.5% of the oracle; metric laws hold")


def test_criterion_4_rankings_predict_simulated_makespan():
    pool = default_node_pool()
    catalog = default_region_catalog()
    assert len(catalog.regions) >= 6
    model = SyntheticNetworkModel()
    config = ScoringConfig()

    correlations = []
    cases = 0
    for pattern in WorkflowPattern:
        for size, seed_base in ((s, b) for s in PAPER_SIZES for b in (0, 1)):
            spec = generate_random_workflow(
                pattern, size, pool, seed=seed_base * 1000 + size * 17 + 1
            )
            locations = location_index(spec, catalog)
            providers = synthetic_providers(model, locations)
            report = rank_regions(spec, catalog, MeasurementStore(), providers, config)

            makespans = {
                region.id: simulate_execution(
                    spec, Vantage(region.id, region.location), model, locations
                ).makespan_ms
                for region in catalog.regions
            }
            first = report.entries[0].region
            last = report.entries[-1].region
            assert makespans[first] <= makespans[last], (
                f"{spec.name}: rank-1 {first} slower than rank-last {last}"
            )

            ordered = [entry.region for entry in report.entries]
            finals = [entry.final_score for entry in report.entries]
            spans = [makespans[region_id] for region_id in ordered]
            correlations.append(spearman(finals, spans))
            cases += 1

    assert cases >= 30
    mean_rho = sum(correlations) / len(correlations)
    assert mean_rho >= 0.8, f"mean Spearman {mean_rho:.3f} < 0.8"
    _passed(
        f"criterion 4 - rank-1 beat rank-last in {cases}/{cases} workflows; "
        f"mean Spearman {mean_rho:.3f} >= 0.8"
    )


def test_criterion_5_experiment_harness_shape(tmp_path, capsys):
    dir1, dir2 = tmp_path / "a", tmp_path / "b"
    argv = ["experiment", "--local=-48,-170", "--seed", "9"]
    assert cli_main(argv + ["--out-dir", str(dir1)]) == 0
    summary = capsys.readouterr().out
    assert cli_main(argv + ["--out-dir", str(dir2)]) == 0
    capsys.readouterr()

    csv1 = (dir1 / "experiment.csv").read_bytes()
    assert csv1 == (dir2 / "experiment.csv").read_bytes(), "seeded runs must be byte-identical"

    rows = csv1.decode().strip().splitlines()[1:]
    assert len(rows) >= 8
    speedups = [float(row.split(",")[4]) for row in rows]
    assert all(s > 0 for s in speedups), "distant local vantage must always lose"

    printed_mean = float(summary.split("mean speedup:")[1].strip().rstrip("%"))
    hand_mean = sum(speedups) / len(speedups)
    assert abs(printed_mean - hand_mean) < 0.005, "summary mean must match the CSV rows"
    _passed(
        f"criterion 5 - {len(rows)} speedups all > 0; CSV byte-identical; "
        f"mean {printed_mean:.3f}% cross-checks"
    )


def test_criterion_6_scoring_properties():
    rng = random.Random(606)
    spec = _chain_spec(2)

    def random_catalog():
        n = rng.randint(2, 8)
        return RegionCatalog(
            tuple(
                Region(f"r{i}", f"r{i}.example.org", Coordinate(0, i)) for i in range(n)
            )
        )

    def random_edge_values(catalog):
        return {
            region.id: {metric: rng.uniform(0.1, 1e5) for metric in Metric}
            for region in catalog.regions
        }

    def ranking(catalog, edge_values, n=None):
        return rank_regions(
            spec,
            catalog,
            MeasurementStore(),
            per_region_edge_providers(catalog, edge_values),
            ScoringConfig(shortlist_n=n),
        )

    for _ in range(100):  # scale argmin invariance (no failures)
        catalog = random_catalog()
        values = random_edge_values(catalog)
        c = rng.uniform(0.01, 100.0)
        scaled = {
            rid: {
                Metric.DISTANCE: v[Metric.DISTANCE],
                Metric.PING: v[Metric.PING] * c,
                Metric.HTTP_RTT: v[Metric.HTTP_RTT] * c,
            }
            for rid, v in values.items()
        }
        assert [e.region for e in ranking(catalog, values).entries] == [
            e.region for e in ranking(catalog, scaled).entries
        ]

    for _ in range(100):  # single-edge degradation never improves the rank
        catalog = random_catalog()
        values = random_edge_values(catalog)
        victim = rng.choice([r.id for r in catalog.regions])
        metric = rng.choice([Metric.PING, Metric.HTTP_RTT])
        before = next(
            e.rank for e in ranking(catalog, values).entries if e.region == victim
        )
        values[victim][metric] += rng.uniform(0.1, 1e6)
        after = next(
            e.rank for e in ranking(catalog, values).entries if e.region == victim
        )
        assert after >= before

    for _ in range(100):  # shortlist dominance
        count = rng.randint(1, 10)
        scores = [
            GraphScore(f"r{i}", Metric.DISTANCE, rng.uniform(0, 1e6)) for i in range(count)
        ]
        n = rng.randint(1, count)
        shortlisted, remainder = shortlist_by_distance(scores, n)
        by_id = {s.region: s.value for s in scores}
        assert sorted(shortlisted + remainder) == sorted(by_id)
        if remainder:
            assert max(by_id[r] for r in shortlisted) <= min(by_id[r] for r in remainder)

    for _ in range(100):  # contiguous-rank permutation
        catalog = random_catalog()
        values = random_edge_values(catalog)
        n = rng.randint(1, len(catalog.regions))
        report = ranking(catalog, values, n=n)
        assert sorted(e.region for e in report.entries) == sorted([r.id for r in catalog.regions])
        assert [e.rank for e in report.entries] == list(range(1, len([r.id for r in catalog.regions]) + 1))
        flags = [e.shortlisted for e in report.entries]
        assert flags == sorted(flags, reverse=True)
    _passed("criterion 6 - scale invariance, monotonicity, dominance, permutation (100 cases each)")


def test_criterion_7_simulation_matches_longest_path_oracle():
    rng = random.Random(707)
    zero = SyntheticNetworkModel(base_latency_ms=0.0, ms_per_100km=0.0, http_overhead_ms=0.0)
    for _ in range(50):
        n = rng.randint(1, 8)
        nodes = tuple(
            WorkflowNode(
                id=f"n{i}",
                endpoint=f"n{i}.example.org",
                location=Coordinate(0, 0),
                service_time_ms=float(rng.randint(0, 100)),
            )
            for i in range(n)
        )
        edges = []
        for j in range(1, n):
            for parent in rng.sample(range(j), k=min(j, rng.randint(1, 2))):
                edges.append(WorkflowEdge(f"n{parent}", f"n{j}"))
        spec = WorkflowSpec(name="dag", nodes=nodes, edges=tuple(edges))
        result = simulate_execution(
            spec, Vantage("local", Coordinate(0, 0)), zero, location_index(spec)
        )
        assert result.makespan_ms == longest_path_ms(spec)
    _passed("criterion 7 - zero-latency makespan equals the longest-path oracle on 50 DAGs")


def test_criterion_8_loopback_smoke():
    node = make_node_server("127.0.0.1", 0)
    agent = make_agent_server("127.0.0.1", 0)
    start_in_thread(node)
    start_in_thread(agent)
    try:
        node_port = node.server_address[1]
        start = time.perf_counter()
        response = requests.get(
            f"http://127.0.0.1:{node_port}/work",
            params={"delay_ms": 50, "bytes": 1024},
            timeout=5,
        )
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        assert response.status_code == 200
        assert len(response.content) == 1024
        assert elapsed_ms >= 50.0

        agent_port = agent.server_address[1]
        reply = requests.get(
            f"http://127.0.0.1:{agent_port}/v1/ping",
            params={"host": "127.0.0.1", "samples": 3, "timeout_ms": 1000},
            timeout=10,
        ).json()
        assert reply["ok"] is True
        mean_rtt = sum(reply["rtts_ms"]) / len(reply["rtts_ms"])
        assert mean_rtt < 5.0
    finally:
        node.shutdown()
        node.server_close()
        agent.shutdown()
        agent.server_close()
    _passed("criterion 8 - stub node served 1024 B after >= 50 ms; agent pinged loopback < 5 ms")
