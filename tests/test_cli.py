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
    command = ["experiment"] if name == "local" else ["analyze", "-w", "unused"]
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
]


@pytest.mark.parametrize("source", ["flag", "env", "config"])
@pytest.mark.parametrize("name, flag, text, doc_value, message", BAD_VALUES,
                         ids=[f"{case[0]}-{case[2]}" for case in BAD_VALUES])
def test_bad_setting_is_refused_from_every_source_before_any_work(
    no_setting_env, tmp_path, capsys, monkeypatch, source, name, flag, text, doc_value, message
):
    import cloudforecast.cli as cli

    def no_ranking(*args, **kwargs):
        raise AssertionError("ranking started with a bad setting")

    monkeypatch.setattr(cli, "rank_regions", no_ranking)
    workflow, regions = _loopback_workflow_and_catalog(tmp_path, 1)
    argv = ["analyze", "-w", workflow, "-r", regions]
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
    from cloudforecast import ProbeConfig, ScoringConfig, SyntheticNetworkModel

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
    }


@pytest.mark.parametrize(
    "command", ["analyze", "probe", "generate", "simulate", "experiment", "agent", "node"]
)
def test_help_shows_each_setting_default_as_declared(command, capsys):
    code, out, _ = run_cli([command, "--help"], capsys)
    assert code == 0
    defaults = _declared_help_defaults()
    if command in ("analyze", "probe"):
        defaults["--metrics"] = "distance,ping,http_rtt"
    if command == "experiment":
        defaults["--local"] = "0,0"
    for flag, default in defaults.items():
        assert f"(default: {default})" in _option_help(out, flag), flag
    options = out.split("options:", 1)[1]
    assert ("--metrics " in options) == (command in ("analyze", "probe"))
    assert ("--local " in options) == (command == "experiment")
    assert "--cache-ttl" not in options


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_cache_ttl_exits_2(fig1_file, tmp_path, no_setting_env, capsys, monkeypatch,
                                      value):
    cache = tmp_path / "probes.cache"
    monkeypatch.setenv("CLOUDFORECAST_CACHE_TTL_S", value)
    code, out, err = run_cli(["analyze", "-w", fig1_file, "--cache", str(cache)], capsys)
    assert code == 2 and out == ""
    assert f"ttl_s must be finite, got {value}" in err
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
                                                     capsys, command, fmt):
    argv = {"probe": ["probe", "-w", fig1_file, "--metrics", "distance"],
            "experiment": ["experiment", "--out-dir", str(tmp_path)],
            "generate": ["generate", "-p", "sequential", "-n", "2"]}[command]
    code, out, err = run_cli(argv + ["--format", fmt], capsys)
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
