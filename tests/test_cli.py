import json
import os

import pytest

from cloudforecast import Coordinate, default_region_catalog, haversine_km, parse_workflow
from cloudforecast.cli import main
from conftest import FIG1_DOC


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
    from cloudforecast.geo import default_region_catalog, render_region_catalog

    regions = tmp_path / "regions.json"
    regions.write_text(render_region_catalog(default_region_catalog()))
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


def test_experiment_empty_dir_is_error(tmp_path, capsys):
    wf_dir = tmp_path / "empty"
    wf_dir.mkdir()
    code, _, err = run_cli(
        ["experiment", "--workflow-dir", str(wf_dir), "--out-dir", str(tmp_path / "o")], capsys
    )
    assert code == 2
    assert "at least one workflow" in err


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


def test_probe_prints_measurements(fig1_file, capsys):
    code, out, _ = run_cli(["probe", "-w", fig1_file, "--metrics", "distance"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8 * 4  # 8 regions x 4 pairs
    assert all("ok" in line for line in lines)


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
        ["probe", "-w", fig1_file, "--metrics", "distance", "--cache", str(cache)], capsys
    )
    assert code == 0
    assert cache.read_text().strip()


def test_simulate_bad_node_url_rejected(fig1_file, capsys):
    code, _, err = run_cli(
        ["simulate", "-w", fig1_file, "--transport", "live", "--node-url", "garbage"], capsys
    )
    assert code == 2
    assert "node-id=URL" in err


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


def test_bad_listen_spec_exits_2(capsys):
    code, _, err = run_cli(["agent", "--listen", "nonsense"], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "command", ["analyze", "probe", "generate", "simulate", "experiment", "agent", "node"]
)
def test_every_command_has_help(command, capsys):
    code, out, _ = run_cli([command, "--help"], capsys)
    assert code == 0
    assert "usage:" in out
    assert "--probe-mode" in out
