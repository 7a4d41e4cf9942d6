import json
import os
import select
import signal
import subprocess
import sys
import urllib.request
import zlib
from collections import Counter
from pathlib import Path

import pytest

from cloudforecast import measurement
from cloudforecast.cli import main
from cloudforecast.geo import Coordinate, default_region_catalog, haversine_km, host_of
from cloudforecast.measurement import EchoProber, as_url
from cloudforecast.workflow import parse_workflow
from conftest import FIG1_DOC
from helpers import NON_FINITE, CrcAgentClient, crc_rtt_ms, with_raw_value


def run_cli(argv, capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TWO_NODE_DOC = json.dumps(
    {
        "name": "pair",
        "nodes": [
            {"id": "X", "endpoint": "x.example.org", "role": "source",
             "location": {"lat": 48.85, "lon": 2.35}},
            {"id": "Y", "endpoint": "y.example.org", "role": "service",
             "location": {"lat": 35.68, "lon": 139.69}},
        ],
        "edges": [{"from": "X", "to": "Y"}],
    }
)


def test_analyze_synthetic_table(fig1_file, capsys):
    code, out, err = run_cli(["analyze", "-w", fig1_file], capsys)
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[1].startswith("rank")
    assert len(lines) == 3 + 8  # title + header + rule + 8 regions


def test_analyze_readme_sample_file(capsys):
    from pathlib import Path

    sample = Path(__file__).resolve().parent.parent / "samples" / "fig1.workflow"
    code, out, err = run_cli(["analyze", "-w", str(sample)], capsys)
    assert code == 0, err
    assert len(out.strip().splitlines()) == 11


def test_analyze_short_region_flag(fig1_file, tmp_path, capsys):
    regions = tmp_path / "regions.json"
    regions.write_text(json.dumps({"regions": [
        {"id": r.id, "probe_host": r.probe_host, "lat": r.location.lat, "lon": r.location.lon}
        for r in default_region_catalog().regions
    ]}))
    code, out, _ = run_cli(["analyze", "-w", fig1_file, "-r", str(regions)], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 11


def test_analyze_cyclic_workflow_exits_2(tmp_path, capsys):
    doc = json.dumps(
        {
            "name": "c",
            "nodes": [
                {"id": "A", "endpoint": "a.example.org", "role": "service"},
                {"id": "B", "endpoint": "b.example.org", "role": "service"},
            ],
            "edges": [{"from": "A", "to": "B"}, {"from": "B", "to": "A"}],
        }
    )
    path = tmp_path / "cyclic.workflow"
    path.write_text(doc)
    code, _, err = run_cli(["analyze", "-w", str(path)], capsys)
    assert code == 2
    assert "cycle" in err


def test_analyze_missing_locations_exits_3(tmp_path, capsys):
    doc = json.dumps(
        {
            "name": "nl",
            "nodes": [
                {"id": "A", "endpoint": "a.example.org", "role": "source"},
                {"id": "B", "endpoint": "b.example.org", "role": "service"},
            ],
            "edges": [{"from": "A", "to": "B"}],
        }
    )
    path = tmp_path / "noloc.workflow"
    path.write_text(doc)
    code, _, err = run_cli(["analyze", "-w", str(path)], capsys)
    assert code == 3
    assert "location" in err


def test_analyze_distance_only_matches_hand_ranking(tmp_path, capsys):
    path = tmp_path / "pair.workflow"
    path.write_text(TWO_NODE_DOC)
    code, out, _ = run_cli(
        ["analyze", "-w", str(path), "--metrics", "distance", "--format", "csv"], capsys
    )
    assert code == 0
    got_order = [line.split(",")[1] for line in out.strip().splitlines()[1:]]

    x, y = Coordinate(48.85, 2.35), Coordinate(35.68, 139.69)
    scores = {
        r.id: haversine_km(x, r.location) + haversine_km(r.location, y)
        for r in default_region_catalog().regions
    }
    expected = sorted(scores, key=lambda rid: (scores[rid], rid))
    assert got_order == expected


def test_analyze_json_and_determinism(fig1_file, capsys):
    argv = ["analyze", "-w", fig1_file, "--format", "json", "--no-timestamps"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical without timestamps
    doc = json.loads(out1)
    assert doc["generated_at"] is None
    assert doc["provenance"]["probe_mode"] == "synthetic"
    assert len(doc["entries"]) == 8


def test_analyze_out_file_and_dump(fig1_file, tmp_path, capsys):
    out_file = tmp_path / "report.txt"
    dump_file = tmp_path / "candidates.txt"
    code, out, _ = run_cli(
        ["analyze", "-w", fig1_file, "--out", str(out_file),
         "--dump-candidates", str(dump_file)],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert "rank" in out_file.read_text()
    headers = [l for l in dump_file.read_text().splitlines() if l.startswith("# region=")]
    assert len(headers) == 24  # 8 regions x 3 metrics


def test_analyze_cache_round_trip(fig1_file, tmp_path, capsys):
    cache = tmp_path / "probes.cache"
    code, _, _ = run_cli(["analyze", "-w", fig1_file, "--cache", str(cache)], capsys)
    assert code == 0
    first = cache.read_text()
    assert first.strip()
    code, _, _ = run_cli(["analyze", "-w", fig1_file, "--cache", str(cache)], capsys)
    assert code == 0
    assert cache.read_text() == first  # reused, not re-measured differently


def test_analyze_rejects_bad_metric(fig1_file, capsys):
    code, _, err = run_cli(["analyze", "-w", fig1_file, "--metrics", "warp"], capsys)
    assert code == 2
    assert "unknown metric" in err


def test_analyze_shortlist_flag(fig1_file, capsys):
    code, out, _ = run_cli(
        ["analyze", "-w", fig1_file, "--shortlist", "3", "--format", "csv"], capsys
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [row[3] for row in rows] == ["true"] * 3 + ["false"] * 5


def test_generate_is_deterministic_and_valid(tmp_path, capsys):
    out1, out2 = tmp_path / "a.workflow", tmp_path / "b.workflow"
    code1, _, _ = run_cli(
        ["generate", "-p", "sequential", "-n", "13", "--seed", "3", "--out", str(out1)], capsys
    )
    code2, _, _ = run_cli(
        ["generate", "-p", "sequential", "-n", "13", "--seed", "3", "--out", str(out2)], capsys
    )
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    spec = parse_workflow(out1.read_text())
    assert len(spec.nodes) == 13


def test_generate_zero_nodes_is_usage_error(capsys):
    code, _, err = run_cli(["generate", "-p", "sequential", "-n", "0"], capsys)
    assert code == 2


def test_generate_pool_too_small(capsys):
    code, _, err = run_cli(["generate", "-p", "sequential", "-n", "17"], capsys)
    assert code == 2
    assert "pool" in err


def test_simulate_latlon_vantage(fig1_file, capsys):
    code, out, _ = run_cli(
        ["simulate", "-w", fig1_file, "--vantage", "40.0,-100.0"], capsys
    )
    assert code == 0
    assert "makespan_ms:" in out


def test_simulate_region_vantage_json(fig1_file, capsys):
    code, out, _ = run_cli(
        ["simulate", "-w", fig1_file, "--vantage", "us-east-1", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["vantage"] == "us-east-1"
    assert doc["transport"] == "simulated"
    assert doc["makespan_ms"] > 0
    assert set(doc["finish_ms"]) == {"wikimedia", "princeton", "sfu"}


def test_simulate_reads_a_negative_zero_service_time_as_zero(tmp_path, capsys):
    workflow = tmp_path / "zero.workflow"
    workflow.write_text(json.dumps({"name": "zero", "nodes": [
        {"id": "a", "endpoint": "a.example.org", "role": "source",
         "location": {"lat": 0, "lon": 0}, "service_time_ms": -0.0}], "edges": []}))
    argv = ["simulate", "-w", str(workflow), "--vantage", "0,0"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert "makespan_ms: 0.000\n" in out and "  a: 0.000\n" in out and "-0" not in out
    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0
    assert '"a": 0.0' in out and "-0" not in out


def test_simulate_unknown_vantage(fig1_file, capsys):
    code, _, err = run_cli(["simulate", "-w", fig1_file, "--vantage", "mars-1"], capsys)
    assert code == 2
    assert "vantage" in err


def test_experiment_default_recipe_deterministic(tmp_path, capsys):
    dir1, dir2 = tmp_path / "run1", tmp_path / "run2"
    argv = ["experiment", "--local=-48,-170", "--seed", "5"]
    code1, out1, _ = run_cli(argv + ["--out-dir", str(dir1)], capsys)
    code2, out2, _ = run_cli(argv + ["--out-dir", str(dir2)], capsys)
    assert code1 == code2 == 0
    csv1 = (dir1 / "experiment.csv").read_bytes()
    assert csv1 == (dir2 / "experiment.csv").read_bytes()
    assert len(csv1.decode().strip().splitlines()) == 10  # header + 9 recipe workflows
    assert "mean speedup:" in out1
    assert (dir1 / "speedup_chart.dat").exists()


def test_experiment_workflow_dir(tmp_path, fig1_file, capsys):
    wf_dir = tmp_path / "flows"
    wf_dir.mkdir()
    (wf_dir / "one.workflow").write_text(FIG1_DOC)
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        ["experiment", "--workflow-dir", str(wf_dir), "--local=-48,-170",
         "--out-dir", str(out_dir)],
        capsys,
    )
    assert code == 0
    assert "image-pipeline" in (out_dir / "experiment.csv").read_text()


def _one_edge_flow(name, lat, lon):
    """Both endpoints at one place, so the region nearest it is the best."""
    nodes = [{"id": nid, "endpoint": f"{nid}.example.net", "role": role,
              "location": {"lat": lat, "lon": lon}}
             for nid, role in (("src", "source"), ("dst", "service"))]
    return json.dumps({"name": name, "nodes": nodes, "edges": [{"from": "src", "to": "dst"}]})


def test_experiment_workflows_that_place_one_endpoint_apart_do_not_share_measurements(
        tmp_path, capsys):
    # the same two endpoints, at New York in one workflow and at Tokyo in the other
    flows = {"a-newyork": (40.71, -74.01), "b-tokyo": (35.68, 139.69)}
    best = {}
    for run, names in (("together", list(flows)), ("alone", ["b-tokyo"])):
        wf_dir = tmp_path / run
        wf_dir.mkdir()
        for name in names:
            (wf_dir / f"{name}.workflow").write_text(_one_edge_flow(name, *flows[name]))
        code, _, err = run_cli(["experiment", "--workflow-dir", str(wf_dir),
                                "--out-dir", str(tmp_path / f"out-{run}")], capsys)
        assert code == 0, err
        rows = (tmp_path / f"out-{run}" / "experiment.csv").read_text().splitlines()[1:]
        best[run] = {row.split(",")[0]: row.split(",")[2] for row in rows}
    assert best["together"] == {"a-newyork": "us-east-1", "b-tokyo": "ap-northeast-1"}
    assert best["alone"] == {"b-tokyo": "ap-northeast-1"}


@pytest.mark.parametrize("out_dir", ["", "new/nested"])
def test_experiment_reads_the_dir_in_name_order_and_writes_where_told(tmp_path, monkeypatch,
                                                                       capsys, out_dir):
    wf_dir = tmp_path / "flows"
    wf_dir.mkdir()
    names = ["e.json", "d.workflow", "c.json", "b.workflow", "a.json", "f.txt", "g.workflow.bak"]
    for name in names:
        (wf_dir / name).write_text(FIG1_DOC.replace("image-pipeline", f"flow-{name[0]}"))
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(
        ["experiment", "--workflow-dir", str(wf_dir), "--out-dir", out_dir], capsys
    )
    assert code == 0, err
    flows = [f"flow-{letter}" for letter in "abcde"]
    assert [line.split(":")[0] for line in out.splitlines()[:-2]] == flows
    rows = (tmp_path / out_dir / "experiment.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["workflow", *flows]
    assert (tmp_path / out_dir / "speedup_chart.dat").exists()


def test_experiment_empty_dir_is_error(tmp_path, capsys):
    wf_dir = tmp_path / "empty"
    wf_dir.mkdir()
    code, _, err = run_cli(
        ["experiment", "--workflow-dir", str(wf_dir), "--out-dir", str(tmp_path / "o")], capsys
    )
    assert code == 2
    assert "at least one workflow" in err


def test_an_experiment_whose_workflow_takes_no_time_exits_2_naming_it(tmp_path, capsys):
    wf_dir = tmp_path / "flows"
    wf_dir.mkdir()
    (wf_dir / "pair.workflow").write_text(TWO_NODE_DOC)
    code, out, err = run_cli(["experiment", "--workflow-dir", str(wf_dir), "--base-latency-ms",
                              "0", "--ms-per-100km", "0", "--out-dir", str(tmp_path / "o")],
                             capsys)
    assert (code, out) == (2, "")
    assert err == ("error: workflow 'pair': makespans must be positive, "
                   "got baseline=0.0, candidate=0.0\n")


def test_an_experiment_whose_latencies_overflow_exits_2_naming_it(tmp_path, capsys):
    wf_dir = tmp_path / "flows"
    wf_dir.mkdir()
    (wf_dir / "pair.workflow").write_text(TWO_NODE_DOC)
    # every path's latency is past the float range: no speedup, not "nan%"
    code, out, err = run_cli(["experiment", "--workflow-dir", str(wf_dir), "--base-latency-ms",
                              "1e308", "--out-dir", str(tmp_path / "o")], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: workflow 'pair': makespans must be finite, "
                   "got baseline=inf, candidate=inf\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, call", [
    (["analyze"], "rank_regions"),
    (["simulate", "--vantage", "us-east-1"], "simulate_execution"),
    (["experiment", "--workflow-dir", "{dir}", "--out-dir", "{dir}"], "run_experiment"),
])
def test_a_value_error_from_a_fault_is_not_reported_as_a_usage_error(
        fig1_file, tmp_path, monkeypatch, command, call):
    from cloudforecast import cli

    def fault(*args, **kwargs):
        raise ValueError("a fault, not an input")

    monkeypatch.setattr(cli, call, fault)
    argv = [a.format(dir=os.path.dirname(fig1_file)) for a in command]
    if command[0] != "experiment":
        argv += ["-w", fig1_file]
    with pytest.raises(ValueError, match="a fault, not an input"):
        main(argv)


def test_analyze_probe_failures_are_ranked_not_fatal(tmp_path, capsys):
    # local mode against unresolvable hosts: every ping/http probe fails, yet
    # the analysis completes with penalty-dominated scores and exit code 0
    workflow = tmp_path / "dead.workflow"
    workflow.write_text(
        json.dumps(
            {
                "name": "dead",
                "nodes": [
                    {"id": "A", "endpoint": "a.blackhole.invalid", "role": "source",
                     "location": {"lat": 0, "lon": 0}},
                    {"id": "B", "endpoint": "b.blackhole.invalid", "role": "service",
                     "location": {"lat": 1, "lon": 1}},
                ],
                "edges": [{"from": "A", "to": "B"}],
            }
        )
    )
    regions = tmp_path / "regions.json"
    regions.write_text(
        json.dumps(
            {"regions": [{"id": "r1", "probe_host": "r1.blackhole.invalid",
                          "lat": 2, "lon": 2}]}
        )
    )
    code, out, err = run_cli(
        ["analyze", "-w", str(workflow), "--regions", str(regions),
         "--probe-mode", "local", "--samples-per-pair", "1", "--timeout-ms", "100",
         "--format", "csv"],
        capsys,
    )
    assert code == 0, err
    row = out.strip().splitlines()[1].split(",")
    assert float(row[2]) >= 1.0e8  # failure penalties dominate
    assert int(row[7]) > 0  # failed edges reported


def test_simulate_live_with_repeat(tmp_path, capsys):
    from cloudforecast.services import make_node_server, start_in_thread

    servers = [make_node_server("127.0.0.1", 0) for _ in range(2)]
    for server in servers:
        start_in_thread(server)
    try:
        workflow = tmp_path / "live.workflow"
        workflow.write_text(
            json.dumps(
                {
                    "name": "live",
                    "nodes": [
                        {"id": "A", "endpoint": "a.example.org", "role": "source",
                         "service_time_ms": 10},
                        {"id": "B", "endpoint": "b.example.org", "role": "service",
                         "service_time_ms": 10},
                    ],
                    "edges": [{"from": "A", "to": "B"}],
                }
            )
        )
        urls = [f"http://127.0.0.1:{s.server_address[1]}" for s in servers]
        code, out, _ = run_cli(
            ["simulate", "-w", str(workflow), "--transport", "live",
             "--node-url", f"A={urls[0]}", "--node-url", f"B={urls[1]}",
             "--repeat", "2", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["transport"] == "live"
        assert len(doc["runs_ms"]) == 2
        assert doc["makespan_ms"] == pytest.approx(sum(doc["runs_ms"]) / 2)
    finally:
        for server in servers:
            server.shutdown()
            server.server_close()


def _loopback_workflow_and_catalog(tmp_path, node_port):
    workflow = tmp_path / "loop.workflow"
    workflow.write_text(
        json.dumps(
            {
                "name": "loop",
                "nodes": [
                    {"id": "A", "endpoint": f"http://127.0.0.1:{node_port}/a",
                     "role": "source", "location": {"lat": 0, "lon": 0}},
                    {"id": "B", "endpoint": f"http://127.0.0.1:{node_port}/b",
                     "role": "service", "location": {"lat": 0, "lon": 0}},
                ],
                "edges": [{"from": "A", "to": "B"}],
            }
        )
    )
    regions = tmp_path / "regions.json"
    regions.write_text(
        json.dumps(
            {"regions": [{"id": "loop-1", "probe_host": f"127.0.0.1:{node_port}",
                          "lat": 0, "lon": 0}]}
        )
    )
    return str(workflow), str(regions)


def test_analyze_local_mode_against_loopback(tmp_path, capsys):
    from cloudforecast.services import make_node_server, start_in_thread

    node = make_node_server("127.0.0.1", 0)
    start_in_thread(node)
    try:
        workflow, regions = _loopback_workflow_and_catalog(tmp_path, node.server_address[1])
        code, out, err = run_cli(
            ["analyze", "-w", workflow, "--regions", regions, "--probe-mode", "local",
             "--samples-per-pair", "1", "--timeout-ms", "1000", "--format", "csv"],
            capsys,
        )
        assert code == 0, err
        row = out.strip().splitlines()[1].split(",")
        assert row[1] == "loop-1"
        assert float(row[2]) < 1.0e8  # no failure penalties on loopback
        assert int(row[7]) == 0
    finally:
        node.shutdown()
        node.server_close()


@pytest.mark.parametrize("metric", ["ping", "http_rtt"])
def test_analyze_local_mode_sinks_the_edge_to_an_unencodable_host(metric, tmp_path, capsys):
    # a 64-character DNS label cannot be encoded: a failed probe, not an error
    from pathlib import Path

    from cloudforecast.services import make_node_server, start_in_thread

    node = make_node_server("127.0.0.1", 0)
    start_in_thread(node)
    try:
        workflow, regions = _loopback_workflow_and_catalog(tmp_path, node.server_address[1])
        doc = json.loads(Path(workflow).read_text())
        doc["nodes"][1]["endpoint"] = f"http://{'a' * 64}.example.org/b"
        Path(workflow).write_text(json.dumps(doc))
        code, out, err = run_cli(
            ["analyze", "-w", workflow, "--regions", regions, "--probe-mode", "local",
             "--metrics", metric, "--samples-per-pair", "1", "--timeout-ms", "1000",
             "--format", "csv"],
            capsys,
        )
        assert code == 0, err
        row = out.strip().splitlines()[1].split(",")
        assert float(row[2]) >= 1.0e8  # the failure penalty
        assert int(row[7]) == 1  # only the edge to the unencodable host
    finally:
        node.shutdown()
        node.server_close()


def test_analyze_agent_mode_against_loopback(tmp_path, capsys):
    from cloudforecast.services import make_agent_server, make_node_server, start_in_thread

    node = make_node_server("127.0.0.1", 0)
    agent = make_agent_server("127.0.0.1", 0)
    start_in_thread(node)
    start_in_thread(agent)
    try:
        workflow, regions = _loopback_workflow_and_catalog(tmp_path, node.server_address[1])
        code, out, err = run_cli(
            ["analyze", "-w", workflow, "--regions", regions, "--probe-mode", "agent",
             "--agent-port", str(agent.server_address[1]),
             "--samples-per-pair", "1", "--timeout-ms", "1000", "--format", "csv"],
            capsys,
        )
        assert code == 0, err
        row = out.strip().splitlines()[1].split(",")
        assert row[1] == "loop-1"
        assert float(row[2]) < 1.0e8
        assert int(row[7]) == 0
    finally:
        for server in (node, agent):
            server.shutdown()
            server.server_close()


# node y's endpoint is region b's probe host, at b's position, so region a's
# leg to it runs between two probe hosts, and either agent could measure it
AGENT_ORDER_DOC = {
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
AGENT_ORDER_REGIONS = {"regions": [
    {"id": "a", "probe_host": "a.example.org", "lat": 0, "lon": 0},
    {"id": "b", "probe_host": "b.example.org", "lat": 20, "lon": 20},
]}


def test_agent_mode_measures_a_leg_between_probe_hosts_from_the_host_that_sorts_first(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(measurement, "AgentClient", CrcAgentClient)
    regions = tmp_path / "regions.json"
    regions.write_text(json.dumps(AGENT_ORDER_REGIONS))
    outputs = []
    for edges in (AGENT_ORDER_DOC["edges"], AGENT_ORDER_DOC["edges"][::-1]):
        workflow = tmp_path / "workflow.json"
        workflow.write_text(json.dumps(dict(AGENT_ORDER_DOC, edges=edges)))
        code, out, err = run_cli(
            ["analyze", "-w", str(workflow), "--regions", str(regions), "--probe-mode", "agent",
             "--samples-per-pair", "1", "--format", "json", "--no-timestamps"],
            capsys,
        )
        assert code == 0, err
        outputs.append(out)
    assert outputs[1] == outputs[0]
    ping = {e["region"]: e["ping_score"]["value"] for e in json.loads(outputs[0])["entries"]}
    # a's agent measures x, z and, sorting before b.example.org, the leg to y twice
    agent = "http://a.example.org:9001"
    assert ping["a"] == (crc_rtt_ms(agent, "x.example.org") + crc_rtt_ms(agent, "z.example.org")
                         + 2 * crc_rtt_ms(agent, "b.example.org"))


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


@pytest.mark.parametrize("case, argv, message", [
    pytest.param("region", ["analyze", "--metrics", "distance"],
                 "host 'wikimedia.org' is placed at two coordinates: endpoint "
                 "'wikimedia.org' at (37.79, -122.4) and endpoint 'wikimedia.org' at (0.0, 0.0)",
                 id="region-analyze"),
    pytest.param("region", ["simulate", "--vantage", "b"],
                 "host 'wikimedia.org' is placed at two coordinates", id="region-simulate"),
    pytest.param("regions", ["analyze", "--metrics", "distance"],
                 "host 'r1.example.org' is placed at two coordinates: endpoint "
                 "'r1.example.org' at (1.0, 2.0) and endpoint 'http://R1.example.org:8080/' at "
                 "(-3.0, 4.0)", id="regions-analyze"),
    pytest.param("regions", ["simulate", "--vantage", "r2"],
                 "host 'r1.example.org' is placed at two coordinates", id="regions-simulate"),
    pytest.param("nodes", ["analyze", "--metrics", "distance"],
                 "host 'x.example' is placed at two coordinates: endpoint 'x.example' at "
                 "(10.0, 10.0) and endpoint 'x.example:8080' at (50.0, 50.0)", id="nodes-analyze"),
    pytest.param("nodes", ["simulate", "--vantage", "10,10"],
                 "host 'x.example' is placed at two coordinates", id="nodes-simulate"),
])
def test_a_host_placed_at_two_coordinates_exits_2_naming_it_and_both_endpoints(
        fig1_file, tmp_path, capsys, case, argv, message):
    regions = tmp_path / "regions.json"
    regions.write_text(json.dumps(REGION_AT_FIG1_SOURCE if case == "region"
                                  else TWO_REGIONS_AT_ONE_HOST))
    workflow = tmp_path / "one-host.workflow"
    workflow.write_text(json.dumps(ONE_HOST_TWO_PLACES))
    where = ["-w", str(workflow)] if case == "nodes" else ["-w", fig1_file, "-r", str(regions)]
    code, out, err = run_cli(argv + where, capsys)
    assert code == 2 and out == ""
    assert message in err


def test_probe_prints_measurements(fig1_file, capsys):
    code, out, _ = run_cli(["probe", "-w", fig1_file, "--metrics", "distance"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8 * 3  # 8 regions x 3 store keys
    assert all("ok" in line for line in lines)


def test_a_synthetic_probe_derives_ping_and_http_from_its_distances(fig1_file, capsys,
                                                                    monkeypatch):
    calls = []
    monkeypatch.setattr(measurement, "haversine_km",
                        lambda a, b: calls.append((a, b)) or haversine_km(a, b))
    code, out, err = run_cli(["probe", "-w", fig1_file], capsys)
    assert code == 0, err
    lines = out.strip().splitlines()
    assert Counter(line.split()[0] for line in lines) == {"distance": 24, "ping": 24,
                                                          "http_rtt": 24}
    assert len(calls) == 24  # one kilometre evaluation per printed distance


def test_local_probe_prints_each_measured_pair_once_with_its_destinations_answer(
        fig1_file, capsys, monkeypatch):
    def answer(name):  # a different round trip for each host or URL
        return 1.0 + zlib.crc32(name.encode()) % 100

    monkeypatch.setattr(EchoProber, "mode", "icmp")
    monkeypatch.setattr(EchoProber, "probe", lambda self, host, timeout_s: answer(host))
    monkeypatch.setattr(measurement, "http_get_ms", lambda url, timeout_s: answer(url))
    code, out, err = run_cli(["probe", "-w", fig1_file, "--probe-mode", "local",
                              "--samples-per-pair", "1"], capsys)
    assert code == 0, err
    keys = []
    for line in out.splitlines():
        metric, region, src, _, dst, value, _, _ = line.split()
        keys.append((metric, region, frozenset((src, dst))))
        if metric != "distance":  # the value probed is the destination's
            probed = host_of(dst) if metric == "ping" else as_url(dst)
            assert float(value) == answer(probed), line
    # every (metric, region, store key) once: 8 regions x 3 keys per metric
    assert len(keys) == len(set(keys)) == 8 * 3 * 3
    assert Counter(metric for metric, _, _ in keys) == {"distance": 24, "ping": 24, "http_rtt": 24}


def test_env_overrides_default_format(fig1_file, capsys, monkeypatch):
    monkeypatch.setenv("CLOUDFORECAST_FORMAT", "csv")
    code, out, _ = run_cli(["analyze", "-w", fig1_file], capsys)
    assert code == 0
    assert out.startswith("rank,region,")


def test_flag_overrides_config_file(fig1_file, tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"format": "json"}))
    code, out, _ = run_cli(
        ["analyze", "-w", fig1_file, "--config", str(config), "--format", "csv"], capsys
    )
    assert code == 0
    assert out.startswith("rank,region,")


def test_config_file_applies_when_no_flag(fig1_file, tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"format": "csv", "shortlist_n": 2}))
    code, out, _ = run_cli(["analyze", "-w", fig1_file, "--config", str(config)], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert sum(1 for row in rows if row[3] == "true") == 2


def test_config_file_unknown_key_rejected(fig1_file, tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"formats": "csv"}))
    code, _, err = run_cli(["analyze", "-w", fig1_file, "--config", str(config)], capsys)
    assert code == 2
    assert "unknown key" in err


def test_bad_env_integer_rejected(fig1_file, capsys, monkeypatch):
    monkeypatch.setenv("CLOUDFORECAST_SAMPLES_PER_PAIR", "lots")
    code, _, err = run_cli(["analyze", "-w", fig1_file], capsys)
    assert code == 2
    assert "samples_per_pair" in err


def test_a_bad_environment_setting_names_its_variable(fig1_file, no_setting_env, capsys,
                                                      monkeypatch):
    monkeypatch.setenv("CLOUDFORECAST_SEED", "abc")
    code, out, err = run_cli(["analyze", "-w", fig1_file], capsys)
    assert (code, out, err) == (2, "", "error: CLOUDFORECAST_SEED: seed must be an integer, "
                                       "got 'abc'\n")


@pytest.mark.parametrize(
    "flag, field",
    [
        ("--weight-ping", "weight_ping"),
        ("--weight-http", "weight_http"),
        ("--failure-penalty", "failure_penalty"),
        ("--base-latency-ms", "base_latency_ms"),
        ("--ms-per-100km", "ms_per_100km"),
        ("--http-overhead-ms", "http_overhead_ms"),
        ("--timeout-ms", "timeout_ms"),
    ],
)
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_setting_exits_2(fig1_file, capsys, flag, field, value):
    code, out, err = run_cli(["analyze", "-w", fig1_file, "--format", "json", flag, value], capsys)
    assert code == 2
    assert out == ""
    assert f"{field} must be finite" in err


@pytest.mark.parametrize("command", [
    ["analyze", "-w", "{workflow}"],
    ["experiment", "--out-dir", "{out}"],
    ["probe", "-w", "{workflow}"],
    ["simulate", "-w", "{workflow}"],
], ids=lambda argv: argv[0])
def test_model_constants_that_overflow_a_latency_exit_2(fig1_file, tmp_path, capsys, command):
    argv = [a.format(workflow=fig1_file, out=tmp_path / "out") for a in command]
    code, out, err = run_cli(argv + ["--ms-per-100km", "1e308"], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: base_latency_ms + ms_per_100km * km / 100 + http_overhead_ms must be"
                   " finite at the longest great-circle distance (20015.1 km)\n")


def test_a_score_past_the_float_range_is_infinite_and_ranks_last(tmp_path, capsys):
    workflow = tmp_path / "pair.workflow"
    workflow.write_text(TWO_NODE_DOC)
    # every leg is 1e308 ms: a region's sum over its two legs overflows
    code, out, err = run_cli(["analyze", "-w", str(workflow), "--format", "json",
                              "--base-latency-ms", "1e308", "--ms-per-100km", "0",
                              "--http-overhead-ms", "0", "--shortlist", "3"], capsys)
    assert code == 0, err
    entries = json.loads(out)["entries"]
    assert [e["final_score"] for e in entries[:3]] == [float("inf")] * 3
    assert [e["ping_score"]["value"] for e in entries[:3]] == [float("inf")] * 3
    assert [e["rank"] for e in entries] == list(range(1, 9))


@pytest.mark.parametrize("source", ["flag", "env", "config"])
@pytest.mark.parametrize("field", ["samples_per_pair", "max_parallel_probes"])
def test_an_integer_setting_too_large_for_a_float_exits_2(fig1_file, no_setting_env, tmp_path,
                                                          capsys, monkeypatch, source, field):
    huge = "1" + "0" * 400
    argv = ["analyze", "-w", fig1_file]
    if source == "flag":
        argv += ["--" + field.replace("_", "-"), huge]
    elif source == "env":
        monkeypatch.setenv("CLOUDFORECAST_" + field.upper(), huge)
    else:
        config = tmp_path / "conf.json"
        config.write_text(f'{{"{field}": {huge}}}')
        argv += ["--config", str(config)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"error: {field} must be finite, got an integer too large for a float\n"


@pytest.mark.parametrize("raw, shown", NON_FINITE.values(), ids=list(NON_FINITE))
@pytest.mark.parametrize("command", ["simulate", "analyze"])
def test_a_workflow_number_that_is_not_a_finite_float_exits_2_naming_the_field(
    fig1_file, no_setting_env, capsys, command, raw, shown
):
    with open(fig1_file) as f:
        doc = f.read()
    with open(fig1_file, "w") as f:
        f.write(with_raw_value(doc, ("nodes", 1, "service_time_ms"), raw))
    argv = [command, "-w", fig1_file] + (["--vantage", "us-east-1"] if command == "simulate" else [])
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err == (f"error: {fig1_file}: nodes[1].service_time_ms: "
                   f"expected a finite number, got {shown}\n")


def test_corrupt_cache_file_exits_2_naming_file_and_line(fig1_file, tmp_path, capsys):
    cache = tmp_path / "probes.cache"
    code, _, _ = run_cli(["analyze", "-w", fig1_file, "--cache", str(cache)], capsys)
    assert code == 0
    lines = cache.read_text().splitlines()
    lines[1] = lines[1].replace('"note"', '"notes"')
    cache.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["analyze", "-w", fig1_file, "--cache", str(cache)], capsys)
    assert code == 2 and out == ""
    assert f"{cache}:2: unknown field(s): notes" in err


@pytest.mark.parametrize("field, message", [
    ("value", "successful measurement value must be finite"),
    ("taken_at", "taken_at must be a finite number"),
], ids=["huge-value", "huge-taken-at"])
def test_a_cache_number_too_large_for_a_float_exits_2_naming_file_and_line(
        fig1_file, tmp_path, capsys, field, message):
    cache = tmp_path / "probes.cache"
    code, _, _ = run_cli(["analyze", "-w", fig1_file, "--cache", str(cache)], capsys)
    assert code == 0
    raw, shown = NON_FINITE["huge"]
    lines = cache.read_text().splitlines()
    lines[1] = with_raw_value(lines[1], (field,), raw)
    cache.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["analyze", "-w", fig1_file, "--cache", str(cache)], capsys)
    assert code == 2 and out == ""
    assert f"{cache}:2: {message}, got {shown}" in err and "Traceback" not in err


@pytest.mark.parametrize("field, raw, message", [
    ("samples", "true", "samples must be an integer, got True"),
    ("samples", "2.5", "samples must be an integer, got 2.5"),
    ("samples", "NaN", "samples must be an integer, got nan"),
    ("samples", "Infinity", "samples must be an integer, got inf"),
    ("samples", "0", "samples must be >= 1"),
    ("unit", "null", "unit must be 'ms' for this metric, got None"),
    ("unit", '"km"', "unit must be 'ms' for this metric, got 'km'"),
], ids=["bool-samples", "float-samples", "nan-samples", "inf-samples", "zero-samples",
        "null-unit", "distance-unit"])
def test_a_cache_record_with_bad_samples_or_unit_exits_2_naming_file_and_line(
        fig1_file, tmp_path, capsys, field, raw, message):
    cache = tmp_path / "probes.cache"
    code, _, _ = run_cli(["analyze", "-w", fig1_file, "--cache", str(cache)], capsys)
    assert code == 0
    lines = cache.read_text().splitlines()
    lines[1] = with_raw_value(lines[1], (field,), raw)
    cache.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["analyze", "-w", fig1_file, "--cache", str(cache)], capsys)
    assert (code, out, err) == (2, "", f"error: {cache}:2: {message}\n")


def test_analyze_cache_rerun_leaves_the_file_untouched(fig1_file, tmp_path, capsys):
    cache = tmp_path / "probes.cache"
    code, first_out, _ = run_cli(["analyze", "-w", fig1_file, "--cache", str(cache)], capsys)
    assert code == 0
    os.utime(cache, ns=(10**9, 10**9))  # any rewrite now shows in the mtime
    before = (cache.read_bytes(), cache.stat().st_mtime_ns)
    code, out, _ = run_cli(["analyze", "-w", fig1_file, "--cache", str(cache)], capsys)
    assert code == 0 and out == first_out
    assert (cache.read_bytes(), cache.stat().st_mtime_ns) == before


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"samples_per_pair": 1e999}', "samples_per_pair must be an integer, got inf"),
        ('{"samples_per_pair": 2.5}', "samples_per_pair must be an integer, got 2.5"),
        ('{"samples_per_pair": true}', "samples_per_pair must be an integer, got True"),
        ('{"shortlist_n": 2.7}', "shortlist_n must be an integer"),
        ('{"max_parallel_probes": 2.0}', "max_parallel_probes must be an integer"),
        ('{"seed": null}', "seed must be an integer"),
        ('{"timeout_ms": true}', "timeout_ms must be a number, got True"),
        ('{"cache": 5}', "cache must be a string, got 5"),
        ('{"metrics": ["ping"]}', "metrics must be a string"),
    ],
    ids=["overflow", "fraction", "bool", "shortlist-fraction", "integral-float", "null-seed",
         "bool-number", "fd-cache", "list-metrics"],
)
def test_config_file_value_must_have_its_settings_type(fig1_file, tmp_path, capsys, text,
                                                       message):
    config = tmp_path / "conf.json"
    config.write_text(text)
    code, out, err = run_cli(["analyze", "-w", fig1_file, "--config", str(config)], capsys)
    assert code == 2 and out == ""
    assert f"config file: {message}" in err


@pytest.mark.parametrize("text", ["[1]", '["format"]', '"csv"'])
def test_config_file_that_is_not_an_object_exits_2(fig1_file, tmp_path, capsys, text):
    config = tmp_path / "conf.json"
    config.write_text(text)
    code, out, err = run_cli(["analyze", "-w", fig1_file, "--config", str(config)], capsys)
    assert code == 2 and out == ""
    assert "config file: expected an object" in err


def test_config_file_accepts_nulls_for_unset_defaults_and_numbers(fig1_file, tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text('{"shortlist_n": null, "samples_per_pair": 3, "cache": null, '
                      '"timeout_ms": 100}')
    code, out, err = run_cli(["analyze", "-w", fig1_file, "--config", str(config)], capsys)
    assert code == 0, err
    assert out.count("true") == 8  # every region shortlisted


def test_unreadable_config_file_rejected(fig1_file, capsys):
    code, _, err = run_cli(["analyze", "-w", fig1_file, "--config", "/nope/conf.json"], capsys)
    assert code == 2
    assert "config" in err


def test_config_file_syntax_error_rejected(fig1_file, tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text("{not json")
    code, _, err = run_cli(["analyze", "-w", fig1_file, "--config", str(config)], capsys)
    assert code == 2


def test_generate_with_custom_pool(tmp_path, capsys):
    pool = tmp_path / "pool.json"
    pool.write_text(
        json.dumps(
            {
                "nodes": [
                    {"id": f"n{i}", "endpoint": f"n{i}.example.org", "role": "service",
                     "location": {"lat": i, "lon": i}, "service_time_ms": 5}
                    for i in range(4)
                ]
            }
        )
    )
    out = tmp_path / "wf.json"
    code, _, _ = run_cli(
        ["generate", "-p", "fan_out", "-n", "4", "--pool", str(pool), "--out", str(out)], capsys
    )
    assert code == 0
    spec = parse_workflow(out.read_text())
    assert {n.id for n in spec.nodes} <= {"n0", "n1", "n2", "n3"}


def test_probe_cache_persists(fig1_file, tmp_path, capsys):
    cache = tmp_path / "probe.cache"
    code, _, _ = run_cli(
        ["probe", "-w", fig1_file, "--metrics", "ping", "--cache", str(cache)], capsys
    )
    assert code == 0
    assert cache.read_text().strip()


def test_simulate_bad_node_url_rejected(fig1_file, capsys):
    code, _, err = run_cli(
        ["simulate", "-w", fig1_file, "--transport", "live", "--node-url", "garbage"], capsys
    )
    assert code == 2
    assert "node-id=URL" in err


@pytest.mark.parametrize("argv, flag", [
    (["--repeat", "3"], "--repeat"),
    (["--transport", "simulated", "--repeat", "2"], "--repeat"),
    (["--node-url", "a=http://x"], "--node-url"),
    (["--vantage", "us-east-1", "--node-url", "a=http://x", "--node-url", "b=http://y"],
     "--node-url"),
    (["--transport", "live", "--vantage", "us-east-1"], "--vantage"),
    (["--transport", "live", "--vantage", "0,0", "--repeat", "2"], "--vantage"),
], ids=["repeat", "simulated-repeat", "node-url", "node-urls", "live-vantage",
        "live-vantage-repeat"])
def test_simulate_refuses_a_flag_its_transport_ignores(fig1_file, argv, flag, capsys):
    code, out, err = run_cli(["simulate", "-w", fig1_file, *argv], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and flag in err and "Traceback" not in err


def test_simulate_accepts_one_repeat_under_either_transport(fig1_file, capsys):
    code, out, err = run_cli(["simulate", "-w", fig1_file, "--repeat", "1"], capsys)
    assert code == 0, err
    assert "runs_ms" not in out
    # live with one repeat and no node URL gets as far as the missing URL
    code, out, err = run_cli(["simulate", "-w", fig1_file, "--transport", "live",
                              "--repeat", "1"], capsys)
    assert code == 1
    assert "no URL configured" in err


def test_experiment_custom_recipe_file(tmp_path, capsys):
    recipe = tmp_path / "recipe.json"
    recipe.write_text(
        json.dumps(
            {
                "workflows": [
                    {"pattern": "sequential", "nodes": 3, "seed": 1},
                    {"pattern": "fan_in", "nodes": 4, "seed": 2},
                ]
            }
        )
    )
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        ["experiment", "--recipe", str(recipe), "--local=-48,-170",
         "--out-dir", str(out_dir)],
        capsys,
    )
    assert code == 0
    rows = (out_dir / "experiment.csv").read_text().strip().splitlines()
    assert len(rows) == 3  # header + 2 recipe entries


@pytest.mark.parametrize("recipe", ["zigzag", "default"])
def test_experiment_refuses_a_recipe_with_a_workflow_dir(tmp_path, fig1_file, capsys, recipe):
    flows = tmp_path / "flows"
    flows.mkdir()
    (flows / "fig1.workflow").write_text(FIG1_DOC)
    if recipe == "zigzag":
        recipe = tmp_path / "recipe.json"
        recipe.write_text('[{"pattern": "zigzag", "nodes": 3}]')
    out_dir = tmp_path / "out"
    code, out, err = run_cli(["experiment", "--recipe", str(recipe), "--workflow-dir", str(flows),
                              "--out-dir", str(out_dir)], capsys)
    assert code == 2 and out == ""
    assert "argument --workflow-dir: not allowed with argument --recipe" in err
    assert not out_dir.exists()


def test_bad_probe_mode_env_rejected(fig1_file, capsys, monkeypatch):
    monkeypatch.setenv("CLOUDFORECAST_PROBE_MODE", "psychic")
    code, _, err = run_cli(["analyze", "-w", fig1_file], capsys)
    assert code == 2
    assert "probe_mode" in err


def test_unknown_flag_rejected(fig1_file, capsys):
    code, _, err = run_cli(["analyze", "-w", fig1_file, "--nope"], capsys)
    assert code == 2


def test_node_bind_conflict_exits_1(capsys):
    from cloudforecast.services import make_node_server

    server = make_node_server("127.0.0.1", 0)
    try:
        port = server.server_address[1]
        code, _, err = run_cli(["node", "--listen", f"127.0.0.1:{port}"], capsys)
        assert code == 1
        assert "bind" in err
    finally:
        server.server_close()


@pytest.mark.parametrize("command, label", [("node", "stub node"), ("agent", "agent")])
def test_a_server_on_port_0_prints_the_port_it_bound_and_stops_on_sigint(command, label):
    root = Path(__file__).resolve().parent.parent
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("CLOUDFORECAST_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "cloudforecast.cli", command, "--listen",
                             "127.0.0.1:0"], cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        assert select.select([proc.stdout], [], [], 30)[0], "no line within 30 s"
        line = proc.stdout.readline()
        prefix = f"{label} listening on 127.0.0.1:"
        assert line.startswith(prefix) and line.endswith("\n"), line
        port = int(line[len(prefix):])
        assert port != 0
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/v1/health", timeout=10) as reply:
            assert json.loads(reply.read()) == {"ok": True}
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=30)
        assert (proc.returncode, out, err) == (0, "", "")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def test_bad_listen_spec_exits_2(capsys):
    code, _, err = run_cli(["agent", "--listen", "nonsense"], capsys)
    assert code == 2


@pytest.mark.parametrize("command", ["agent", "node"])
def test_listen_port_out_of_range_exits_2(command, capsys):
    code, _, err = run_cli([command, "--listen", "127.0.0.1:70000"], capsys)
    assert code == 2
    assert "port in 0..65535" in err and "Traceback" not in err


_SCORING_FLAGS = ["--shortlist", "--weight-ping", "--weight-http", "--failure-penalty"]
_PROBE_FLAGS = ["--samples-per-pair", "--timeout-ms", "--aggregator", "--max-parallel-probes"]
_MODEL_FLAGS = ["--base-latency-ms", "--ms-per-100km", "--http-overhead-ms"]

# the setting flags, --config and --out each command takes: one for each
# setting it reads, --config where it reads one, --out where it prints a file
COMMAND_FLAGS = {
    "analyze": ["--probe-mode", "--regions", "--format", "--cache", "--metrics", *_SCORING_FLAGS,
                *_PROBE_FLAGS, *_MODEL_FLAGS, "--agent-port", "--config", "--out"],
    "probe": ["--probe-mode", "--regions", "--format", "--cache", "--metrics", *_PROBE_FLAGS,
              *_MODEL_FLAGS, "--agent-port", "--config", "--out"],
    "generate": ["--seed", "--pool", "--config", "--out"],
    "simulate": ["--regions", "--format", *_PROBE_FLAGS, *_MODEL_FLAGS, "--config", "--out"],
    "experiment": ["--regions", "--format", "--seed", *_SCORING_FLAGS, *_MODEL_FLAGS, "--pool",
                   "--local", "--config"],
    "agent": [],
    "node": [],
}


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_every_command_has_help(command, capsys):
    code, out, _ = run_cli([command, "--help"], capsys)
    assert code == 0
    assert "usage:" in out
    options = " " + " ".join(out.split("options:", 1)[1].split()) + " "
    listed = [flag for flag in FLAG_VALUES if f" {flag} " in options]
    assert sorted(listed) == sorted(COMMAND_FLAGS[command])


# Every setting that has a flag, as (name, argv before the value, text, value).
# The config-file form of a numeric value is its JSON number, so "2" checks that
# a JSON integer becomes a float for a float setting.
SETTING_CASES = [
    ("probe_mode", ["--probe-mode"], "local", "local"),
    ("regions", ["-r"], "cat.json", "cat.json"),
    ("format", ["--format"], "csv", "csv"),
    ("seed", ["--seed"], "7", 7),
    ("cache", ["--cache"], "p.cache", "p.cache"),
    ("metrics", ["--metrics"], "ping", "ping"),
    ("shortlist_n", ["--shortlist"], "3", 3),
    ("weight_ping", ["--weight-ping"], "2", 2.0),
    ("weight_http", ["--weight-http"], "0.5", 0.5),
    ("failure_penalty", ["--failure-penalty"], "5", 5.0),
    ("samples_per_pair", ["--samples-per-pair"], "3", 3),
    ("timeout_ms", ["--timeout-ms"], "250", 250.0),
    ("aggregator", ["--aggregator"], "median", "median"),
    ("max_parallel_probes", ["--max-parallel-probes"], "2", 2),
    ("base_latency_ms", ["--base-latency-ms"], "1.5", 1.5),
    ("ms_per_100km", ["--ms-per-100km"], "2", 2.0),
    ("http_overhead_ms", ["--http-overhead-ms"], "7", 7.0),
    ("agent_port", ["--agent-port"], "9100", 9100),
    ("pool", ["--pool"], "pool.json", "pool.json"),
    ("local", ["--local"], "10,20", "10,20"),
]


# a value for every setting flag, --config and --out
FLAG_VALUES = {("--regions" if flag == ["-r"] else flag[0]): text
               for _, flag, text, _ in SETTING_CASES}
FLAG_VALUES.update({"--config": "c.json", "--out": "out.txt"})


@pytest.fixture
def no_setting_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("CLOUDFORECAST_"):
            monkeypatch.delenv(key)


def _settings_from(argv):
    from cloudforecast.cli import build_parser, load_settings

    return load_settings(build_parser().parse_args(argv))


@pytest.mark.parametrize("name, flag, text, value", SETTING_CASES,
                         ids=[case[0] for case in SETTING_CASES])
def test_flag_environment_and_config_file_give_the_same_value(
    no_setting_env, tmp_path, monkeypatch, name, flag, text, value
):
    # a command that takes the setting's flag
    command = ["experiment"] if name in ("seed", "pool", "local") else ["analyze", "-w", "unused"]
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({name: json.loads(text) if isinstance(value, (int, float))
                                  else text}))
    from_config = _settings_from(command + ["--config", str(config)])[name]
    from_flag = _settings_from(command + flag + [text])[name]
    monkeypatch.setenv(f"CLOUDFORECAST_{name.upper()}", text)
    from_env = _settings_from(command)[name]
    for got in (from_flag, from_env, from_config):
        assert got == value and type(got) is type(value)


def test_cache_ttl_from_environment_and_config_file_is_a_float(no_setting_env, tmp_path,
                                                               monkeypatch):
    config = tmp_path / "conf.json"
    config.write_text('{"cache_ttl_s": 60}')
    from_config = _settings_from(["analyze", "-w", "unused", "--config", str(config)])
    monkeypatch.setenv("CLOUDFORECAST_CACHE_TTL_S", "60")
    from_env = _settings_from(["analyze", "-w", "unused"])
    for got in (from_config["cache_ttl_s"], from_env["cache_ttl_s"]):
        assert got == 60.0 and type(got) is float


# (name, flag, bad text, bad config-file value, message); the agent_port cases
# run in agent mode against a loopback catalog, so no host outside is asked
BAD_VALUES = [
    ("probe_mode", "--probe-mode", "psychic", "psychic", "probe_mode must be one of"),
    ("format", "--format", "xml", "xml", "format must be one of"),
    ("aggregator", "--aggregator", "mode", "mode", "aggregator must be one of"),
    ("seed", "--seed", "x", 1.5, "seed must be an integer"),
    ("timeout_ms", "--timeout-ms", "soon", "soon", "timeout_ms must be a number"),
    ("weight_ping", "--weight-ping", "heavy", "heavy", "weight_ping must be a number"),
    ("samples_per_pair", "--samples-per-pair", "0", 0, "samples_per_pair must be >= 1"),
    ("shortlist_n", "--shortlist", "0", 0, "shortlist_n must be >= 1"),
    ("max_parallel_probes", "--max-parallel-probes", "0", 0,
     "max_parallel_probes must be >= 1"),
    ("agent_port", "--agent-port", "0", 0, "agent_port must be in 1..65535, got 0"),
    ("agent_port", "--agent-port", "70000", 70000, "agent_port must be in 1..65535, got 70000"),
    ("metrics", "--metrics", "", "", "metrics list is empty"),
    ("metrics", "--metrics", "ping,ping", "ping,ping", "duplicate metric: ping"),
]


@pytest.mark.parametrize("source", ["flag", "env", "config"])
@pytest.mark.parametrize("name, flag, text, doc_value, message", BAD_VALUES,
                         ids=[f"{case[0]}-{case[2]}" for case in BAD_VALUES])
def test_bad_setting_is_refused_from_every_source_before_any_work(
    no_setting_env, tmp_path, capsys, monkeypatch, source, name, flag, text, doc_value, message
):
    import cloudforecast.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started with a bad setting")

    for work in ("rank_regions", "generate_random_workflow"):
        monkeypatch.setattr(cli, work, no_work)
    workflow, regions = _loopback_workflow_and_catalog(tmp_path, 1)
    # a command that takes the setting's flag
    argv = (["generate", "-p", "sequential", "-n", "2"] if name == "seed"
            else ["analyze", "-w", workflow, "-r", regions])
    if name == "agent_port":
        argv += ["--probe-mode", "agent"]
    if source == "flag":
        argv += [flag, text]
    elif source == "env":
        monkeypatch.setenv(f"CLOUDFORECAST_{name.upper()}", text)
    else:
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({name: doc_value}))
        argv += ["--config", str(config)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert message in err


def test_environment_format_is_checked_before_simulating(fig1_file, no_setting_env, capsys,
                                                         monkeypatch):
    import cloudforecast.cli as cli

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated with a bad format")

    monkeypatch.setattr(cli, "simulate_execution", no_simulation)
    monkeypatch.setenv("CLOUDFORECAST_FORMAT", "xml")
    code, out, err = run_cli(["simulate", "-w", fig1_file], capsys)
    assert code == 2 and out == ""
    assert "format must be one of ('table', 'json', 'csv'), got 'xml'" in err


def test_service_commands_check_settings_before_starting(no_setting_env, capsys, monkeypatch):
    import cloudforecast.cli as cli

    def no_server(*args, **kwargs):
        raise AssertionError("started serving with a bad setting")

    monkeypatch.setattr(cli, "_serve", no_server)
    monkeypatch.setenv("CLOUDFORECAST_SEED", "x")
    for command in ("agent", "node"):
        code, _, err = run_cli([command, "--listen", "127.0.0.1:0"], capsys)
        assert code == 2
        assert "seed must be an integer, got 'x'" in err


def _option_help(help_text, flag):
    """One option's entry in `--help` output, whitespace normalized."""
    options = " ".join(help_text.split("options:", 1)[1].split())
    start = options.index(flag + " ")
    end = options.find(" -", start + len(flag))
    return options[start:] if end < 0 else options[start:end]


def _declared_help_defaults():
    from cloudforecast.measurement import ProbeConfig, SyntheticNetworkModel
    from cloudforecast.scoring import ScoringConfig

    probe, scoring, model = ProbeConfig(), ScoringConfig(), SyntheticNetworkModel()
    return {
        "--probe-mode": "synthetic",
        "--regions": "bundled 8-region catalog",
        "--format": "table",
        "--seed": 0,
        "--shortlist": "all",
        "--weight-ping": scoring.weight_ping,
        "--weight-http": scoring.weight_http,
        "--failure-penalty": scoring.failure_penalty,
        "--samples-per-pair": probe.samples_per_pair,
        "--timeout-ms": probe.timeout_ms,
        "--aggregator": probe.aggregator.value,
        "--max-parallel-probes": probe.max_parallel_probes,
        "--base-latency-ms": model.base_latency_ms,
        "--ms-per-100km": model.ms_per_100km,
        "--http-overhead-ms": model.http_overhead_ms,
        "--agent-port": 9001,
        "--pool": "bundled pool",
        "--metrics": "distance,ping,http_rtt",
        "--local": "0,0",
    }


# the flags with no default, so `--help` shows none for them
_NO_HELP_DEFAULT = ("--cache", "--config", "--out")


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_help_shows_each_setting_default_as_declared(command, capsys):
    code, out, _ = run_cli([command, "--help"], capsys)
    assert code == 0
    defaults = _declared_help_defaults()
    for flag in COMMAND_FLAGS[command]:
        shown = _option_help(out, flag)
        if flag in _NO_HELP_DEFAULT:
            assert "(default:" not in shown, flag
        else:
            assert f"(default: {defaults[flag]})" in shown, flag
    assert "--cache-ttl" not in out.split("options:", 1)[1]


_COMMAND_ARGV = {
    "analyze": ["analyze", "-w", "{fig1}"],
    "probe": ["probe", "-w", "{fig1}"],
    "generate": ["generate", "-p", "sequential", "-n", "2"],
    "simulate": ["simulate", "-w", "{fig1}"],
    "experiment": ["experiment", "--out-dir", "{out}"],
    "agent": ["agent", "--listen", "127.0.0.1:0"],
    "node": ["node", "--listen", "127.0.0.1:0"],
}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in COMMAND_FLAGS for flag in FLAG_VALUES
    if flag not in COMMAND_FLAGS[command]
])
def test_a_flag_of_a_setting_the_command_does_not_read_exits_2_before_any_work(
    fig1_file, tmp_path, capsys, monkeypatch, command, flag
):
    import cloudforecast.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError(f"{command} started with {flag}")

    for name in ("cmd_analyze", "cmd_probe", "cmd_generate", "cmd_simulate", "cmd_experiment",
                 "_serve"):
        monkeypatch.setattr(cli, name, no_work)
    out_dir = tmp_path / "out"
    argv = [a.format(fig1=fig1_file, out=out_dir) for a in _COMMAND_ARGV[command]]
    code, out, err = run_cli(argv + [flag, FLAG_VALUES[flag]], capsys)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {flag} {FLAG_VALUES[flag]}" in err
    assert not out_dir.exists()


# the TTL has no flag: it is set from the environment or a config file
@pytest.mark.parametrize("value, message", [
    pytest.param("nan", "ttl_s must be finite, got nan", id="nan"),
    pytest.param("inf", "ttl_s must be finite, got inf", id="inf"),
    pytest.param("0", "ttl_s must be positive", id="0"),
])
def test_non_finite_cache_ttl_exits_2(fig1_file, tmp_path, no_setting_env, capsys, monkeypatch,
                                      value, message):
    cache = tmp_path / "probes.cache"
    monkeypatch.setenv("CLOUDFORECAST_CACHE_TTL_S", value)
    code, out, err = run_cli(["analyze", "-w", fig1_file, "--cache", str(cache)], capsys)
    assert code == 2 and out == ""
    assert message in err
    assert not cache.exists()


@pytest.mark.parametrize(
    "local, message",
    [("91,0", "local: latitude out of range [-90, 90]: 91.0"),
     ("0,181", "local: longitude out of range [-180, 180]: 181.0"),
     ("north", "local: expected 'lat,lon', got 'north'")],
)
def test_experiment_local_out_of_range_names_the_coordinate_error(tmp_path, capsys, local,
                                                                  message):
    out_dir = tmp_path / "out"
    code, out, err = run_cli(["experiment", f"--local={local}", "--out-dir", str(out_dir)], capsys)
    assert code == 2 and out == ""
    assert message in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "vantage, code, message",
    [("91,0", 2, "vantage: latitude out of range [-90, 90]: 91.0"),
     ("0,181", 2, "vantage: longitude out of range [-180, 180]: 181.0"),
     ("north", 2, "vantage 'north' is neither 'lat,lon' nor a region id"),
     ("us-east-1", 0, "")],
)
def test_simulate_vantage_out_of_range_names_the_coordinate_error(fig1_file, no_setting_env,
                                                                  capsys, vantage, code,
                                                                  message):
    got, out, err = run_cli(["simulate", "-w", fig1_file, "--vantage", vantage], capsys)
    assert got == code
    if code:
        assert out == "" and message in err
    else:
        assert f"vantage: {vantage} (simulated)" in out


# (command, format it lacks, the layouts it has)
MISSING_FORMATS = [("simulate", "csv", "table or json"), ("probe", "json", "table"),
                   ("probe", "csv", "table"), ("experiment", "json", "table")]


@pytest.mark.parametrize("source", ["flag", "env", "config"])
@pytest.mark.parametrize("command, fmt, layouts", MISSING_FORMATS,
                         ids=[f"{case[0]}-{case[1]}" for case in MISSING_FORMATS])
def test_format_a_command_lacks_is_refused_from_every_source_before_any_work(
    fig1_file, no_setting_env, tmp_path, capsys, monkeypatch, source, command, fmt, layouts
):
    import cloudforecast.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError(f"{command} started with format {fmt}")

    for name in ("_load_workflow", "_experiment_specs"):
        monkeypatch.setattr(cli, name, no_work)
    argv = [command, "--out-dir", str(tmp_path)] if command == "experiment" else [
        command, "-w", fig1_file]
    if source == "flag":
        argv += ["--format", fmt]
    elif source == "env":
        monkeypatch.setenv("CLOUDFORECAST_FORMAT", fmt)
    else:
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"format": fmt}))
        argv += ["--config", str(config)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert f"format: {command} prints {layouts}, not '{fmt}'" in err


@pytest.mark.parametrize("command, fmt", [("probe", "table"), ("experiment", "table"),
                                          ("generate", "json")])
def test_format_a_command_has_or_ignores_is_accepted(fig1_file, no_setting_env, tmp_path,
                                                     capsys, monkeypatch, command, fmt):
    argv = {"probe": ["probe", "-w", fig1_file, "--metrics", "distance"],
            "experiment": ["experiment", "--out-dir", str(tmp_path)],
            "generate": ["generate", "-p", "sequential", "-n", "2"]}[command]
    if command == "generate":  # no --format flag; a format from the environment is ignored
        monkeypatch.setenv("CLOUDFORECAST_FORMAT", fmt)
    else:
        argv += ["--format", fmt]
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    assert out


@pytest.mark.parametrize("doc, message", [
    ('{"x": 1}', "{path}: unknown field(s): x"),
    ('{"workflows": {"pattern": "mixed"}}', "{path}: workflows: expected a list of workflows"),
    ('[{"nodes": 3}]', "{path}[0]: missing required field(s): pattern"),
    ('[5]', "{path}[0]: expected an object, got int"),
    ('{"workflows": [{"pattern": "sequential", "nodes": 3}, {"pattern": "zigzag", "nodes": 3}]}',
     "{path}: workflows[1].pattern: expected one of sequential, fan_in, fan_out, mixed, "
     "got 'zigzag'"),
    ('[{"pattern": "mixed", "nodes": "3"}]', "{path}[0].nodes: expected an integer, got '3'"),
    ('[{"pattern": "mixed", "nodes": 3, "seed": 1.5}]',
     "{path}[0].seed: expected an integer, got 1.5"),
    ('[{"pattern": "mixed", "nodes": 0}]', "{path}[0]: node_count must be >= 1, got 0"),
    ("[{", "{path}: invalid recipe: line 1, column 3"),
], ids=["unknown-field", "not-a-list", "missing-pattern", "not-an-object", "bad-pattern",
        "string-nodes", "float-seed", "zero-nodes", "not-json"])
def test_experiment_bad_recipe_exits_2_naming_file_entry_and_field(tmp_path, capsys, doc,
                                                                    message):
    recipe = tmp_path / "recipe.json"
    recipe.write_text(doc)
    code, out, err = run_cli(
        ["experiment", "--recipe", str(recipe), "--out-dir", str(tmp_path / "o")], capsys
    )
    assert code == 2 and out == ""
    assert err.startswith("error: " + message.format(path=recipe))
    assert "Traceback" not in err


def test_experiment_bad_workflow_in_dir_exits_2_naming_the_file(tmp_path, capsys):
    wf_dir = tmp_path / "flows"
    wf_dir.mkdir()
    (wf_dir / "a.workflow").write_text(FIG1_DOC)
    (wf_dir / "b.json").write_text("{not json")
    code, _, err = run_cli(
        ["experiment", "--workflow-dir", str(wf_dir), "--out-dir", str(tmp_path / "o")], capsys
    )
    assert code == 2
    assert err.startswith(f"error: {wf_dir / 'b.json'}: invalid workflow: line 1, column 2")


@pytest.mark.parametrize("argv, doc, message", [
    (["analyze", "-w", "{bad}"], "{bad",
     "invalid workflow: line 1, column 2: Expecting property name enclosed in double quotes"),
    (["analyze", "-w", "FIG1", "--regions", "{bad}"], "[1]",
     "catalog: expected an object, got list"),
    (["generate", "-p", "sequential", "-n", "3", "--pool", "{bad}"], "[1]",
     "pool: expected an object, got list"),
], ids=["workflow", "regions", "pool"])
def test_a_bad_document_exits_2_naming_its_file(fig1_file, tmp_path, capsys, argv, doc,
                                                message):
    bad = tmp_path / "bad.doc"
    bad.write_text(doc)
    argv = [{"{bad}": str(bad), "FIG1": fig1_file}.get(arg, arg) for arg in argv]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: {message}\n"


def test_analyze_with_a_nan_cache_record_exits_2_instead_of_ranking_nan(fig1_file, tmp_path,
                                                                         capsys):
    cache = tmp_path / "probes.cache"
    assert run_cli(["analyze", "-w", fig1_file, "--cache", str(cache)], capsys)[0] == 0
    records = [json.loads(line) for line in cache.read_text().splitlines()]
    lineno = next(i for i, r in enumerate(records, 1) if r["metric"] == "ping")
    for record in records:
        if record["metric"] == "ping":
            record["value"] = float("nan")
    cache.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, err = run_cli(["analyze", "-w", fig1_file, "--cache", str(cache)], capsys)
    assert code == 2 and out == ""
    assert err == (f"error: {cache}:{lineno}: "
                   "successful measurement value must be finite, got nan\n")
