"""Command-line entry point: analyze, probe, generate, simulate, experiment, agent, node.

Configuration precedence: flags > CLOUDFORECAST_* environment > --config file > defaults.
Synthetic probe mode is the default so analyses are reproducible and offline.
"""

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .candidates import (
    METRIC_ORDER,
    Metric,
    dump_graph,
    enumerate_candidates,
    hub_legs,
    weighted_pairs,
)
from .errors import (
    CatalogError,
    CloudForecastError,
    DocumentFormatError,
    NodeUnreachableError,
    SpecValidationError,
    UnknownLocationError,
)
from .executor import (
    Transport,
    Vantage,
    chart_data,
    experiment_csv,
    live_execute,
    run_experiment,
    simulate_execution,
)
from .geo import Coordinate, default_region_catalog, load_region_catalog
from .measurement import (
    Aggregator,
    MeasurementStore,
    ProbeConfig,
    SyntheticNetworkModel,
    agent_providers,
    collect_measurements,
    local_providers,
    location_index,
    synthetic_providers,
)
from .scoring import ScoringConfig, rank_regions, render_report
from .services import make_agent_server, make_node_server
from .workflow import (
    WorkflowPattern,
    default_node_pool,
    generate_random_workflow,
    parse_node_pool,
    parse_workflow,
    render_workflow,
)

ENV_PREFIX = "CLOUDFORECAST_"

DEFAULTS: dict = {
    "probe_mode": "synthetic",
    "regions": None,
    "format": "table",
    "seed": 0,
    "cache": None,
    "cache_ttl_s": 3600.0,
    "metrics": "distance,ping,http_rtt",
    "shortlist_n": None,
    "weight_ping": 1.0,
    "weight_http": 1.0,
    "failure_penalty": 1.0e8,
    "samples_per_pair": 5,
    "timeout_ms": 3000.0,
    "aggregator": "mean",
    "max_parallel_probes": 8,
    "base_latency_ms": 5.0,
    "ms_per_100km": 1.0,
    "http_overhead_ms": 20.0,
    "agent_port": 9001,
    "pool": None,
    "local": "0,0",
}

PROBE_MODES = ("synthetic", "local", "agent")

INT_SETTINGS = frozenset({"seed", "shortlist_n", "samples_per_pair", "max_parallel_probes",
                          "agent_port"})


def _cast(key: str, value: str):
    """Coerce env/config-file strings to the type of the default."""
    try:
        if key in INT_SETTINGS:
            return int(value)
        if isinstance(DEFAULTS[key], float):
            return float(value)
    except ValueError:
        raise ValueError(f"invalid value for {key!r}: {value!r}")
    return value


def _config_value(key: str, value):
    """A config-file value checked against its setting's type. Strings are
    cast as environment values are; null only keeps a None default."""
    if isinstance(value, str):
        return _cast(key, value)
    default = DEFAULTS[key]
    if key in INT_SETTINGS:
        kind, ok = "an integer", type(value) is int  # not a bool, not 2.0
    elif isinstance(default, float):
        kind, ok = "a number", type(value) in (int, float)
    else:
        kind, ok = "a string", False
    if not (ok or (value is None and default is None)):
        raise ValueError(f"config file: {key} must be {kind}, got {value!r}")
    return value


def load_settings(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, environment and flags (in that order)."""
    settings = dict(DEFAULTS)

    config_path = getattr(args, "config", None) or os.environ.get(ENV_PREFIX + "CONFIG")
    if config_path:
        try:
            file_values = json.loads(Path(config_path).read_text())
        except OSError as exc:
            raise ValueError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file: line {exc.lineno}: {exc.msg}")
        if not isinstance(file_values, dict):
            raise ValueError(f"config file: expected an object, got {type(file_values).__name__}")
        unknown = sorted(set(file_values) - set(DEFAULTS))
        if unknown:
            raise ValueError(f"config file: unknown key(s): {', '.join(unknown)}")
        for key, value in file_values.items():
            settings[key] = _config_value(key, value)

    for key in DEFAULTS:
        env_value = os.environ.get(ENV_PREFIX + key.upper())
        if env_value is not None:
            settings[key] = _cast(key, env_value)

    for key in DEFAULTS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            settings[key] = flag_value

    if settings["probe_mode"] not in PROBE_MODES:
        raise ValueError(f"probe_mode must be one of {PROBE_MODES}, got {settings['probe_mode']!r}")
    return settings


def probe_config_from(settings: dict) -> ProbeConfig:
    return ProbeConfig(
        samples_per_pair=int(settings["samples_per_pair"]),
        timeout_ms=float(settings["timeout_ms"]),
        aggregator=Aggregator(settings["aggregator"]),
        max_parallel_probes=int(settings["max_parallel_probes"]),
    )


def scoring_config_from(settings: dict) -> ScoringConfig:
    n = settings["shortlist_n"]
    return ScoringConfig(
        shortlist_n=None if n is None else int(n),
        weight_ping=float(settings["weight_ping"]),
        weight_http=float(settings["weight_http"]),
        failure_penalty=float(settings["failure_penalty"]),
    )


def model_from(settings: dict) -> SyntheticNetworkModel:
    return SyntheticNetworkModel(
        base_latency_ms=float(settings["base_latency_ms"]),
        ms_per_100km=float(settings["ms_per_100km"]),
        http_overhead_ms=float(settings["http_overhead_ms"]),
    )


def _load_catalog(settings: dict):
    path = settings["regions"]
    if path is None:
        return default_region_catalog()
    return load_region_catalog(Path(path).read_text())


def _load_workflow(path: str):
    return parse_workflow(Path(path).read_text())


def _load_pool(settings: dict):
    path = settings["pool"]
    if path is None:
        return default_node_pool()
    return parse_node_pool(Path(path).read_text())


def _parse_metrics(text: str) -> list[Metric]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise ValueError("metrics list is empty")
    metrics = []
    for name in names:
        try:
            metric = Metric(name)
        except ValueError:
            raise ValueError(
                f"unknown metric {name!r} (choose from distance, ping, http_rtt)"
            )
        if metric in metrics:
            raise ValueError(f"duplicate metric: {name}")
        metrics.append(metric)
    return metrics


def _parse_latlon(text: str) -> Coordinate:
    try:
        lat_text, lon_text = text.split(",", 1)
        return Coordinate(float(lat_text), float(lon_text))
    except (ValueError, TypeError):
        raise ValueError(f"expected 'lat,lon', got {text!r}")


def _parse_listen(text: str) -> tuple[str, int]:
    host, _, port_text = text.rpartition(":")
    if not host or not port_text.isdigit():
        raise ValueError(f"expected 'host:port', got {text!r}")
    return host, int(port_text)


def _build_providers(mode: str, settings: dict, spec, catalog, metrics: list[Metric]):
    locations = location_index(spec, catalog)
    pconfig = probe_config_from(settings)
    if mode == "synthetic":
        providers = synthetic_providers(model_from(settings), locations)
    elif mode == "local":
        providers = local_providers(pconfig, locations)
    else:
        providers = agent_providers(
            catalog, pconfig, locations, agent_port=int(settings["agent_port"])
        )
    wanted = set(metrics) | {Metric.DISTANCE}  # shortlisting always needs distance
    return {metric: providers[metric] for metric in METRIC_ORDER if metric in wanted}


def _open_store(settings: dict) -> tuple[MeasurementStore, str | None]:
    cache = settings["cache"]
    ttl = float(settings["cache_ttl_s"])
    if cache:
        return MeasurementStore.load(cache, ttl_s=ttl), cache
    return MeasurementStore(ttl_s=ttl), None


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _analysis_setup(args: argparse.Namespace):
    """Settings, workflow, catalog, metrics, providers, store, cache path and
    probe fan-out shared by `analyze` and `probe`."""
    settings = load_settings(args)
    spec = _load_workflow(args.workflow)
    catalog = _load_catalog(settings)
    metrics = _parse_metrics(settings["metrics"])
    mode = settings["probe_mode"]
    providers = _build_providers(mode, settings, spec, catalog, metrics)
    store, cache_path = _open_store(settings)
    max_parallel = 1 if mode == "synthetic" else probe_config_from(settings).max_parallel_probes
    return settings, spec, catalog, metrics, providers, store, cache_path, max_parallel


def cmd_analyze(args: argparse.Namespace) -> int:
    settings, spec, catalog, metrics, providers, store, cache_path, max_parallel = (
        _analysis_setup(args)
    )
    if args.dump_candidates:
        graphs = enumerate_candidates(spec, catalog, metrics)
        Path(args.dump_candidates).write_text("".join(dump_graph(g) for g in graphs))

    report = rank_regions(
        spec, catalog, store, providers, scoring_config_from(settings), max_parallel
    )
    report = replace(report, provenance={**report.provenance, "probe_mode": settings["probe_mode"]})
    if args.no_timestamps:
        report = replace(report, generated_at=None)
    if cache_path:
        store.save(cache_path)
    _emit(render_report(report, settings["format"]), args.out)
    return 0


def cmd_probe(args: argparse.Namespace) -> int:
    _, spec, catalog, _, providers, store, cache_path, max_parallel = _analysis_setup(args)
    legs = hub_legs(spec)
    lines = []
    for metric in METRIC_ORDER:
        if metric not in providers:
            continue
        for region in catalog.regions:
            pairs = list(weighted_pairs(legs, region.probe_host))
            measured = collect_measurements(store, pairs, metric, providers[metric], max_parallel)
            for pair, m in measured.items():
                status = "ok" if m.success else "FAIL"
                lines.append(
                    f"{metric.value:9} {region.id:16} {pair[0]} -> {pair[1]}  "
                    f"{m.value:.3f} {m.unit}  {status}"
                )
    if cache_path:
        store.save(cache_path)
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    settings = load_settings(args)
    pool = _load_pool(settings)
    spec = generate_random_workflow(
        WorkflowPattern(args.pattern), args.nodes, pool, int(settings["seed"])
    )
    _emit(render_workflow(spec), args.out)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    settings = load_settings(args)
    spec = _load_workflow(args.workflow)
    runs_ms: list[float] = []

    if args.transport == Transport.LIVE.value:
        node_urls = {}
        for item in args.node_url or []:
            node_id, _, url = item.partition("=")
            if not node_id or not url:
                raise ValueError(f"expected 'node-id=URL', got {item!r}")
            node_urls[node_id] = url
        config = probe_config_from(settings)
        for _ in range(args.repeat):
            result = live_execute(spec, node_urls, config)
            runs_ms.append(result.makespan_ms)
    else:
        catalog = None
        vantage_text = args.vantage or settings["local"]
        try:
            vantage = Vantage("local", _parse_latlon(vantage_text))
        except ValueError:
            catalog = _load_catalog(settings)
            try:
                region = catalog.by_id(vantage_text)
            except KeyError:
                raise ValueError(
                    f"vantage {vantage_text!r} is neither 'lat,lon' nor a region id"
                )
            vantage = Vantage(region.id, region.location)
        locations = location_index(spec, catalog)
        result = simulate_execution(spec, vantage, model_from(settings), locations)
        runs_ms.append(result.makespan_ms)

    mean_makespan = sum(runs_ms) / len(runs_ms)
    if settings["format"] == "json":
        doc = {
            "workflow": result.workflow,
            "vantage": result.vantage,
            "transport": result.transport.value,
            "makespan_ms": mean_makespan,
            "finish_ms": dict(sorted(result.finish_ms.items())),
        }
        if len(runs_ms) > 1:
            doc["runs_ms"] = runs_ms
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = [
            f"workflow: {result.workflow}",
            f"vantage: {result.vantage} ({result.transport.value})",
            f"makespan_ms: {mean_makespan:.3f}",
        ]
        if len(runs_ms) > 1:
            lines.append("runs_ms: " + ", ".join(f"{ms:.3f}" for ms in runs_ms))
        lines += [
            f"  {node_id}: {finish:.3f}" for node_id, finish in sorted(result.finish_ms.items())
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


DEFAULT_RECIPE = (
    [{"pattern": "sequential", "nodes": n} for n in (2, 3, 4, 5, 7, 10, 12)]
    + [{"pattern": "mixed", "nodes": 13}, {"pattern": "mixed", "nodes": 13}]
)


def _experiment_specs(args: argparse.Namespace, settings: dict) -> list:
    if args.workflow_dir:
        paths = sorted(
            p for p in Path(args.workflow_dir).iterdir()
            if p.suffix in (".workflow", ".json")
        )
        specs = [parse_workflow(p.read_text()) for p in paths]
    else:
        if args.recipe == "default":
            recipe = DEFAULT_RECIPE
        else:
            doc = json.loads(Path(args.recipe).read_text())
            recipe = doc["workflows"] if isinstance(doc, dict) else doc
        pool = _load_pool(settings)
        base_seed = int(settings["seed"])
        specs = [
            generate_random_workflow(
                WorkflowPattern(entry["pattern"]),
                int(entry["nodes"]),
                pool,
                int(entry.get("seed", base_seed + i)),
            )
            for i, entry in enumerate(recipe)
        ]
    if not specs:
        raise ValueError("experiment needs at least one workflow")
    return specs


def cmd_experiment(args: argparse.Namespace) -> int:
    settings = load_settings(args)
    specs = _experiment_specs(args, settings)
    catalog = _load_catalog(settings)
    local = Vantage("local", _parse_latlon(settings["local"]))
    report = run_experiment(
        specs, catalog, model_from(settings), local, scoring_config_from(settings)
    )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "experiment.csv").write_text(experiment_csv(report))
    (out_dir / "speedup_chart.dat").write_text(chart_data(report))

    speedups = [row.speedup_pct for row in report.rows]
    for row in report.rows:
        sys.stdout.write(
            f"{row.workflow}: baseline {row.baseline_ms:.3f} ms, "
            f"best {row.best_region} {row.best_ms:.3f} ms, speedup {row.speedup_pct:.3f}%\n"
        )
    sys.stdout.write(f"speedup range: {min(speedups):.3f}% .. {max(speedups):.3f}%\n")
    sys.stdout.write(f"mean speedup: {report.mean_speedup_pct:.3f}%\n")
    return 0


def _serve(make_server, listen: str, label: str) -> int:
    host, port = _parse_listen(listen)
    try:
        server = make_server(host, port)
    except OSError as exc:
        sys.stderr.write(f"error: cannot bind {listen}: {exc}\n")
        return 1
    sys.stdout.write(f"{label} listening on {host}:{port}\n")
    sys.stdout.flush()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def cmd_agent(args: argparse.Namespace) -> int:
    return _serve(make_agent_server, args.listen, "agent")


def cmd_node(args: argparse.Namespace) -> int:
    return _serve(make_node_server, args.listen, "stub node")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--probe-mode", dest="probe_mode", choices=PROBE_MODES,
                        help="measurement source (default: synthetic)")
    shared.add_argument("-r", "--regions",
                        help="region catalog file (default: bundled 8-region catalog)")
    shared.add_argument("--out", help="write output to this file instead of stdout")
    shared.add_argument("--format", choices=("table", "json", "csv"),
                        help="output format (default: table)")
    shared.add_argument("--seed", type=int, help="random seed (default: 0)")
    shared.add_argument("--config", help="JSON config file merged below env and flags")
    shared.add_argument("--cache", help="measurement cache file reused across runs")
    shared.add_argument("--samples-per-pair", dest="samples_per_pair", type=_positive_int,
                        help="probes per endpoint pair (default: 5)")
    shared.add_argument("--timeout-ms", dest="timeout_ms", type=float,
                        help="per-probe timeout (default: 3000)")
    shared.add_argument("--aggregator", choices=tuple(a.value for a in Aggregator),
                        help="sample aggregation (default: mean)")
    shared.add_argument("--max-parallel-probes", dest="max_parallel_probes", type=_positive_int,
                        help="probe fan-out bound (default: 8)")
    shared.add_argument("--shortlist", dest="shortlist_n", type=_positive_int,
                        help="evaluate ping/HTTP only for the n distance-closest regions "
                             "(default: all)")
    shared.add_argument("--weight-ping", dest="weight_ping", type=float,
                        help="ping weight in the final score (default: 1.0)")
    shared.add_argument("--weight-http", dest="weight_http", type=float,
                        help="HTTP weight in the final score (default: 1.0)")
    shared.add_argument("--failure-penalty", dest="failure_penalty", type=float,
                        help="score added per failed edge (default: 1e8)")
    shared.add_argument("--base-latency-ms", dest="base_latency_ms", type=float,
                        help="synthetic model base latency (default: 5.0)")
    shared.add_argument("--ms-per-100km", dest="ms_per_100km", type=float,
                        help="synthetic model slope (default: 1.0)")
    shared.add_argument("--http-overhead-ms", dest="http_overhead_ms", type=float,
                        help="synthetic model HTTP overhead (default: 20.0)")
    shared.add_argument("--agent-port", dest="agent_port", type=_positive_int,
                        help="probe-agent port in agent mode (default: 9001)")
    shared.add_argument("--pool", help="node pool file for generation (default: bundled pool)")

    parser = argparse.ArgumentParser(
        prog="cloudforecast",
        description="Rank cloud regions by predicted workflow execution time.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[shared],
                       help="rank regions for a workflow")
    p.add_argument("-w", "--workflow", required=True, help="workflow file")
    p.add_argument("--metrics", help="comma list of distance,ping,http_rtt (default: all)")
    p.add_argument("--dump-candidates", help="write the candidate-graph edge lists to this file")
    p.add_argument("--no-timestamps", action="store_true", help="omit timestamps from the report")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("probe", parents=[shared],
                       help="measure all workflow/region pairs and print them")
    p.add_argument("-w", "--workflow", required=True)
    p.add_argument("--metrics", help="comma list of distance,ping,http_rtt (default: all)")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("generate", parents=[shared], help="generate a random workflow")
    p.add_argument("-p", "--pattern", required=True,
                   choices=tuple(pattern.value for pattern in WorkflowPattern))
    p.add_argument("-n", "--nodes", required=True, type=_positive_int)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("simulate", parents=[shared],
                       help="execute a workflow (simulated or live) and report makespan")
    p.add_argument("-w", "--workflow", required=True)
    p.add_argument("--vantage", help="'lat,lon' or a region id (default: the local setting)")
    p.add_argument("--transport", choices=tuple(t.value for t in Transport),
                   default=Transport.SIMULATED.value)
    p.add_argument("--node-url", action="append",
                   help="node-id=URL mapping for live transport (repeatable)")
    p.add_argument("--repeat", type=_positive_int, default=1,
                   help="live runs to execute; the reported makespan is their mean")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("experiment", parents=[shared],
                       help="rank + simulate a batch of workflows and report speedups")
    p.add_argument("--recipe", default="default",
                   help="'default' or a JSON recipe file (default: bundled recipe)")
    p.add_argument("--workflow-dir", help="run every .workflow/.json file in this directory")
    p.add_argument("--local", help="local vantage as 'lat,lon' (default: 0,0)")
    p.add_argument("--out-dir", default=".", help="directory for experiment.csv and chart data")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("agent", parents=[shared], help="run the probe agent service")
    p.add_argument("--listen", default="127.0.0.1:9001", help="host:port to bind")
    p.set_defaults(func=cmd_agent)

    p = sub.add_parser("node", parents=[shared], help="run a stub workflow node")
    p.add_argument("--listen", default="127.0.0.1:9002", help="host:port to bind")
    p.set_defaults(func=cmd_node)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DocumentFormatError, SpecValidationError, CatalogError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except UnknownLocationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (NodeUnreachableError, CloudForecastError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
