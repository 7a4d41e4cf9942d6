"""Command-line entry point: analyze, probe, generate, simulate, experiment, agent, node.

Configuration precedence: flags > CLOUDFORECAST_* environment > --config file > defaults.
Synthetic probe mode is the default so analyses are reproducible and offline.
"""

import argparse
import json
import math
import os
import sys
import time
from typing import NamedTuple

from .candidates import (
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
    SpecValidationError,
    UnknownLocationError,
    UsageError,
)
# loaded with the CLI, though only `simulate` and `experiment` run it:
# bench/cli_child.py installs its tracer right after importing this module,
# and the tracer wraps the functions of a loaded `cloudforecast.executor`
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
from .jsondoc import as_int, as_string, check_fields, field_sets, load_document, utf8_errors
from .measurement import (
    DEFAULT_AGENT_PORT,
    DEFAULT_TTL_S,
    Aggregator,
    MeasurementStore,
    ProbeConfig,
    SyntheticNetworkModel,
    agent_providers,
    local_providers,
    location_index,
    measure_distance,
    synthetic_providers,
)
from .scoring import ScoringConfig, rank_regions, render_report
from .workflow import (
    WorkflowPattern,
    default_node_pool,
    generate_random_workflow,
    parse_node_pool,
    parse_workflow,
    render_workflow,
)

ENV_PREFIX = "CLOUDFORECAST_"

KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}


class Setting(NamedTuple):
    """A setting's name, default, type, help, flag spellings and allowed values.
    Range checks are left to the configs that use the value."""

    name: str
    default: object
    kind: type  # int, float or str
    help: str = ""
    flags: tuple[str, ...] | None = None  # None: --name-with-dashes
    choices: tuple[str, ...] | None = None

    def convert(self, value):
        """The one check of a flag, environment or config-file value: a string is
        parsed; JSON must have the type (an integer is also a number), null only
        keeps a None default. The error is argparse's, which shows its message."""
        if value is None and self.default is None:
            return None
        try:
            if isinstance(value, str):
                value = self.kind(value)
            elif self.kind is float and type(value) is int:
                value = float(value)
            elif type(value) is not self.kind:  # not a bool for an integer, nor 2.0
                raise ValueError
        except (ValueError, OverflowError):
            wanted = KIND_NAMES[self.kind]
        else:
            if self.choices is None or value in self.choices:
                return value
            wanted = f"one of {self.choices}"
        raise argparse.ArgumentTypeError(f"{self.name} must be {wanted}, got {value!r}")


# the probe, scoring and synthetic-model defaults are their records' own
_PROBE, _SCORING, _MODEL = ProbeConfig(), ScoringConfig(), SyntheticNetworkModel()

SETTINGS = {setting.name: setting for setting in (
    Setting("probe_mode", "synthetic", str, "measurement source",
            choices=("synthetic", "local", "agent")),
    Setting("regions", None, str, "region catalog file (default: bundled 8-region catalog)",
            flags=("-r", "--regions")),
    Setting("format", "table", str, "output format", choices=("table", "json", "csv")),
    Setting("seed", 0, int, "random seed"),
    Setting("cache", None, str, "measurement cache file reused across runs"),
    Setting("cache_ttl_s", DEFAULT_TTL_S, float),
    Setting("metrics", "distance,ping,http_rtt", str, "comma list of distance,ping,http_rtt"),
    Setting("shortlist_n", _SCORING.shortlist_n, int, "evaluate ping/HTTP only for the n "
            "distance-closest regions (default: all)", flags=("--shortlist",)),
    Setting("weight_ping", _SCORING.weight_ping, float, "ping weight in the final score"),
    Setting("weight_http", _SCORING.weight_http, float, "HTTP weight in the final score"),
    Setting("failure_penalty", _SCORING.failure_penalty, float, "score added per failed edge"),
    Setting("samples_per_pair", _PROBE.samples_per_pair, int, "probes per endpoint pair"),
    Setting("timeout_ms", _PROBE.timeout_ms, float, "per-probe timeout"),
    Setting("aggregator", _PROBE.aggregator.value, str, "sample aggregation",
            choices=tuple(a.value for a in Aggregator)),
    Setting("max_parallel_probes", _PROBE.max_parallel_probes, int, "probe fan-out bound"),
    Setting("base_latency_ms", _MODEL.base_latency_ms, float, "synthetic model base latency"),
    Setting("ms_per_100km", _MODEL.ms_per_100km, float, "synthetic model slope"),
    Setting("http_overhead_ms", _MODEL.http_overhead_ms, float, "synthetic model HTTP overhead"),
    Setting("agent_port", DEFAULT_AGENT_PORT, int, "probe-agent port in agent mode"),
    Setting("pool", None, str, "node pool file for generation (default: bundled pool)"),
    Setting("local", "0,0", str, "local vantage as 'lat,lon'"),
)}

DEFAULTS: dict = {name: setting.default for name, setting in SETTINGS.items()}

# The flags each command takes: one for each setting it reads, then "config"
# where it reads one and "out" where it prints a report or document. The
# environment and a config file still set, and are checked for, every
# setting of every command.
COMMAND_FLAGS = {
    "analyze": ("probe_mode", "regions", "format", "cache", "metrics", *ScoringConfig._fields,
                *ProbeConfig._fields, *SyntheticNetworkModel._fields, "agent_port",
                "config", "out"),
    "probe": ("probe_mode", "regions", "format", "cache", "metrics", *ProbeConfig._fields,
              *SyntheticNetworkModel._fields, "agent_port", "config", "out"),
    "generate": ("seed", "pool", "config", "out"),
    # a live run reads the probe timeout and fan-out only
    "simulate": ("regions", "format", "timeout_ms", "max_parallel_probes",
                 *SyntheticNetworkModel._fields, "config", "out"),
    "experiment": ("regions", "format", "seed", *ScoringConfig._fields,
                   *SyntheticNetworkModel._fields, "pool", "local", "config"),
    "agent": (),
    "node": (),
}


def load_settings(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, environment and flags (in that order).
    Flags were converted when parsed; the other sources are converted here."""
    settings = dict(DEFAULTS)

    def converted(key: str, value, source: str):
        try:
            return SETTINGS[key].convert(value)
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"{source}: {exc}") from None

    config_path = getattr(args, "config", None) or os.environ.get(ENV_PREFIX + "CONFIG")
    if config_path:
        try:
            file_values = _read_file(config_path, lambda text: load_document(text, "config file"))
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}")
        source = f"{config_path}: config file"
        if not isinstance(file_values, dict):
            raise UsageError(f"{source}: expected an object, got {type(file_values).__name__}")
        unknown = sorted(set(file_values) - set(SETTINGS))
        if unknown:
            raise UsageError(f"{source}: unknown key(s): {', '.join(unknown)}")
        for key, value in file_values.items():
            settings[key] = converted(key, value, source)

    for key in SETTINGS:
        env_name = ENV_PREFIX + key.upper()
        if env_name in os.environ:
            settings[key] = converted(key, os.environ[env_name], env_name)
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            settings[key] = flag_value

    formats = getattr(args, "formats", None)  # set by the commands that lack a layout
    if formats is not None and settings["format"] not in formats:
        raise UsageError(
            f"format: {args.command} prints {' or '.join(formats)}, not {settings['format']!r}"
        )
    return settings


def _checked(build, *args, **kwargs):
    """`build(*args, **kwargs)`, where `build` checks settings: its ValueError
    is a `UsageError`."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def config_from(cls, settings: dict):
    """A probe, scoring or synthetic-model config from the settings named as its fields."""
    return _checked(cls, **{name: settings[name] for name in cls._fields})


def _read_file(path: str, parse):
    """`parse` of the text of the file at `path`, read as UTF-8; a document
    error names the file."""
    with open(path, encoding="utf-8") as f, utf8_errors(path):
        text = f.read()
    try:
        return parse(text)
    except (DocumentFormatError, SpecValidationError, CatalogError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _write_file(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", errors="backslashreplace") as f:
        f.write(text)


def _load_catalog(settings: dict):
    path = settings["regions"]
    if path is None:
        return default_region_catalog()
    return _read_file(path, load_region_catalog)


def _load_workflow(path: str):
    return _read_file(path, parse_workflow)


def _load_pool(settings: dict):
    path = settings["pool"]
    if path is None:
        return default_node_pool()
    return _read_file(path, parse_node_pool)


def _parse_metrics(text: str) -> list[Metric]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise UsageError("metrics list is empty")
    metrics = []
    for name in names:
        try:
            metric = Metric(name)
        except ValueError:
            raise UsageError(
                f"metrics: unknown metric {name!r} (choose from distance, ping, http_rtt)"
            )
        if metric in metrics:
            raise UsageError(f"metrics: duplicate metric: {name}")
        metrics.append(metric)
    return metrics


def _coordinate(text: str, field: str) -> Coordinate | None:
    """The coordinate of a 'lat,lon' text, or None if it is not shaped so;
    well-formed but out of range gives Coordinate's error, under the field."""
    try:
        lat_text, lon_text = text.split(",", 1)
        lat, lon = float(lat_text), float(lon_text)
    except ValueError:
        return None
    try:
        return Coordinate(lat, lon)
    except ValueError as exc:
        raise UsageError(f"{field}: {exc}") from None


def _parse_listen(text: str) -> tuple[str, int]:
    host, _, port_text = text.rpartition(":")
    if not host or not port_text.isdigit() or int(port_text) > 65535:
        raise UsageError(f"expected 'host:port' with a port in 0..65535, got {text!r}")
    return host, int(port_text)


def _open_store(settings: dict) -> MeasurementStore:
    store = _checked(MeasurementStore, ttl_s=settings["cache_ttl_s"])
    cache = settings["cache"]
    return MeasurementStore.load(cache, ttl_s=store.ttl_s) if cache else store


def _emit(text: str, out: str | None) -> None:
    if out:
        _write_file(out, text)
    else:
        sys.stdout.write(text)


def _analysis_setup(args: argparse.Namespace, settings: dict):
    """Workflow, catalog, metrics, locations, providers, store and probe fan-out."""
    spec = _load_workflow(args.workflow)
    catalog = _load_catalog(settings)
    metrics = _parse_metrics(settings["metrics"])
    pconfig = config_from(ProbeConfig, settings)
    locations = location_index(spec, catalog)
    if settings["probe_mode"] == "synthetic":
        providers = synthetic_providers(config_from(SyntheticNetworkModel, settings), locations)
    elif settings["probe_mode"] == "local":
        providers = local_providers(pconfig, locations)
    else:
        providers = _checked(agent_providers, catalog, pconfig, agent_port=settings["agent_port"])
    # ping before HTTP; distance has no provider, ranking computes it from the coordinates
    providers = {metric: p for metric, p in providers.items() if metric in metrics}
    store = _open_store(settings)
    return spec, catalog, metrics, locations, providers, store, pconfig.max_parallel_probes


def cmd_analyze(args: argparse.Namespace, settings: dict) -> int:
    spec, catalog, metrics, _, providers, store, max_parallel = _analysis_setup(args, settings)
    if args.dump_candidates:
        graphs = enumerate_candidates(spec, catalog, metrics)
        _write_file(args.dump_candidates, "".join(dump_graph(g) for g in graphs))

    report = rank_regions(
        spec, catalog, store, providers, config_from(ScoringConfig, settings), max_parallel
    )
    report = report._replace(provenance={**report.provenance, "probe_mode": settings["probe_mode"]})
    if args.no_timestamps:
        report = report._replace(generated_at=None)
    if settings["cache"]:
        store.save(settings["cache"])
    _emit(render_report(report, settings["format"]), args.out)
    return 0


def cmd_probe(args: argparse.Namespace, settings: dict) -> int:
    spec, catalog, _, locations, providers, store, max_parallel = _analysis_setup(args, settings)
    # every entry a whole-catalog ranking stores or finds is unexpired at a clock read before it
    now = time.time()
    rank_regions(spec, catalog, store, providers, ScoringConfig(), max_parallel)
    legs = hub_legs(spec)
    pairs_of = {region.id: weighted_pairs(legs, region.probe_host) for region in catalog.regions}
    batch = [pair for pairs in pairs_of.values() for pair in pairs]
    lines = []
    for metric in (Metric.DISTANCE, *providers):
        if metric is Metric.DISTANCE:  # computed from the coordinates, never stored
            measured = {pair: measure_distance(pair, locations) for pair in batch}
        else:
            measured = store.get_many(batch, metric, now)[0]
        for region_id, pairs in pairs_of.items():
            for pair in pairs:
                m = measured[pair]
                status = "ok" if m.success else "FAIL"
                lines.append(
                    f"{metric.value:9} {region_id:16} {pair[0]} -> {pair[1]}  "
                    f"{m.value:.3f} {m.unit}  {status}"
                )
    if settings["cache"]:
        store.save(settings["cache"])
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_generate(args: argparse.Namespace, settings: dict) -> int:
    pool = _load_pool(settings)
    spec = generate_random_workflow(
        WorkflowPattern(args.pattern), args.nodes, pool, settings["seed"]
    )
    _emit(render_workflow(spec), args.out)
    return 0


def cmd_simulate(args: argparse.Namespace, settings: dict) -> int:
    live = args.transport == Transport.LIVE.value
    # a flag the chosen transport would ignore is refused
    if live and args.vantage is not None:
        raise UsageError("--vantage applies only to --transport simulated")
    for flag, given in (("--repeat", args.repeat != 1), ("--node-url", bool(args.node_url))):
        if given and not live:
            raise UsageError(f"{flag} applies only to --transport live")
    spec = _load_workflow(args.workflow)
    runs_ms: list[float] = []

    if live:
        node_urls = {}
        for item in args.node_url or []:
            node_id, _, url = item.partition("=")
            if not node_id or not url:
                raise UsageError(f"expected 'node-id=URL', got {item!r}")
            node_urls[node_id] = url
        config = config_from(ProbeConfig, settings)
        for _ in range(args.repeat):
            result = live_execute(spec, node_urls, config)
            runs_ms.append(result.makespan_ms)
    else:
        catalog = None
        vantage_text = args.vantage or settings["local"]
        location = _coordinate(vantage_text, "vantage")
        if location is not None:
            vantage = Vantage("local", location)
        else:
            catalog = _load_catalog(settings)
            try:
                region = catalog.by_id(vantage_text)
            except KeyError:
                raise UsageError(f"vantage {vantage_text!r} is neither 'lat,lon' nor a region id")
            vantage = Vantage(region.id, region.location)
        locations = location_index(spec, catalog)
        model = config_from(SyntheticNetworkModel, settings)
        result = simulate_execution(spec, vantage, model, locations)
        runs_ms.append(result.makespan_ms)

    mean_makespan = math.fsum(runs_ms) / len(runs_ms)
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
_RECIPE_FIELDS = field_sets(["workflows"], [])
_RECIPE_ENTRY_FIELDS = field_sets(["pattern", "nodes"], ["seed"])


def _read_recipe(path: str) -> tuple[str, list]:
    """A recipe file's entries, checked, and the name of their list in error
    messages. The file holds the list, or an object with it under
    "workflows"; each entry is {"pattern", "nodes", optional "seed"}."""
    doc = _read_file(path, lambda text: load_document(text, "recipe"))
    where = path
    if isinstance(doc, dict):
        check_fields(doc, _RECIPE_FIELDS, path)
        doc, where = doc["workflows"], f"{path}: workflows"
    if not isinstance(doc, list):
        raise DocumentFormatError(f"{where}: expected a list of workflows, got {type(doc).__name__}")
    patterns = [p.value for p in WorkflowPattern]
    for i, entry in enumerate(doc):
        ctx = f"{where}[{i}]"
        check_fields(entry, _RECIPE_ENTRY_FIELDS, ctx)
        if as_string(entry["pattern"], f"{ctx}.pattern") not in patterns:
            raise DocumentFormatError(
                f"{ctx}.pattern: expected one of {', '.join(patterns)}, got {entry['pattern']!r}"
            )
        as_int(entry["nodes"], f"{ctx}.nodes")
        if "seed" in entry:
            as_int(entry["seed"], f"{ctx}.seed")
    return where, doc


def _experiment_specs(args: argparse.Namespace, settings: dict) -> list:
    if args.workflow_dir:
        names = sorted(name for name in os.listdir(args.workflow_dir)
                       if os.path.splitext(name)[1] in (".workflow", ".json"))
        specs = [_load_workflow(os.path.join(args.workflow_dir, name)) for name in names]
    else:
        if args.recipe in (None, "default"):
            where, recipe = "default recipe", DEFAULT_RECIPE
        else:
            where, recipe = _read_recipe(args.recipe)
        pool = _load_pool(settings)
        specs = []
        for i, entry in enumerate(recipe):
            try:
                specs.append(generate_random_workflow(
                    WorkflowPattern(entry["pattern"]),
                    entry["nodes"],
                    pool,
                    entry.get("seed", settings["seed"] + i),
                ))
            except SpecValidationError as exc:
                raise SpecValidationError(f"{where}[{i}]: {exc}") from exc
    if not specs:
        raise UsageError("experiment needs at least one workflow")
    return specs


def cmd_experiment(args: argparse.Namespace, settings: dict) -> int:
    location = _coordinate(settings["local"], "local")
    if location is None:
        raise UsageError(f"local: expected 'lat,lon', got {settings['local']!r}")
    local = Vantage("local", location)
    specs = _experiment_specs(args, settings)
    catalog = _load_catalog(settings)
    report = run_experiment(
        specs, catalog, config_from(SyntheticNetworkModel, settings), local,
        config_from(ScoringConfig, settings),
    )

    os.makedirs(args.out_dir or os.curdir, exist_ok=True)  # '' is the current directory
    _write_file(os.path.join(args.out_dir, "experiment.csv"), experiment_csv(report))
    _write_file(os.path.join(args.out_dir, "speedup_chart.dat"), chart_data(report))

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
    host, port = server.server_address  # the port bound, where `listen` asked for 0
    sys.stdout.write(f"{label} listening on {host}:{port}\n")
    sys.stdout.flush()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


# the services, and with them http.server, load only for the commands that serve
def cmd_agent(args: argparse.Namespace, settings: dict) -> int:
    from .services import make_agent_server

    return _serve(make_agent_server, args.listen, "agent")


def cmd_node(args: argparse.Namespace, settings: dict) -> int:
    from .services import make_node_server

    return _serve(make_node_server, args.listen, "stub node")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _add_flag(parser: argparse.ArgumentParser, name: str) -> None:
    if name == "out":
        parser.add_argument("--out", help="write output to this file instead of stdout")
    elif name == "config":
        parser.add_argument("--config", help="JSON config file merged below env and flags")
    else:
        s = SETTINGS[name]
        shown = s.help if s.default is None else f"{s.help} (default: {s.default})"
        parser.add_argument(*s.flags or ["--" + name.replace("_", "-")], dest=name,
                            type=s.convert, choices=s.choices, help=shown)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloudforecast",
        description="Rank cloud regions by predicted workflow execution time.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(command: str, help: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(command, help=help, **kwargs)
        for name in COMMAND_FLAGS[command]:
            _add_flag(p, name)
        p.set_defaults(parser=p)
        return p

    p = add_command("analyze", "rank regions for a workflow")
    p.add_argument("-w", "--workflow", required=True, help="workflow file")
    p.add_argument("--dump-candidates", help="write the candidate-graph edge lists to this file")
    p.add_argument("--no-timestamps", action="store_true", help="omit timestamps from the report")
    p.set_defaults(func=cmd_analyze)

    p = add_command("probe", "measure all workflow/region pairs and print them")
    p.add_argument("-w", "--workflow", required=True)
    p.set_defaults(func=cmd_probe, formats=("table",))

    p = add_command("generate", "generate a random workflow")
    p.add_argument("-p", "--pattern", required=True,
                   choices=tuple(pattern.value for pattern in WorkflowPattern))
    p.add_argument("-n", "--nodes", required=True, type=_positive_int)
    p.set_defaults(func=cmd_generate)

    p = add_command("simulate", "execute a workflow (simulated or live) and report makespan")
    p.add_argument("-w", "--workflow", required=True)
    p.add_argument("--vantage", help="'lat,lon' or a region id, for simulated transport "
                   "(default: the local setting)")
    p.add_argument("--transport", choices=tuple(t.value for t in Transport),
                   default=Transport.SIMULATED.value)
    p.add_argument("--node-url", action="append",
                   help="node-id=URL mapping, for live transport (repeatable)")
    p.add_argument("--repeat", type=_positive_int, default=1,
                   help="live runs to execute, for live transport; the reported makespan "
                   "is their mean")
    p.set_defaults(func=cmd_simulate, formats=("table", "json"))

    # no abbreviations: `experiment --out F` is refused, not read as `--out-dir F`
    p = add_command("experiment", "rank + simulate a batch of workflows and report speedups",
                    allow_abbrev=False)
    workflows = p.add_mutually_exclusive_group()
    workflows.add_argument("--recipe",
                           help="'default' or a JSON recipe file (default: bundled recipe)")
    workflows.add_argument("--workflow-dir",
                           help="run every .workflow/.json file in this directory")
    p.add_argument("--out-dir", default=".", help="directory for experiment.csv and chart data")
    p.set_defaults(func=cmd_experiment, formats=("table",))

    p = add_command("agent", "run the probe agent service")
    p.add_argument("--listen", default=f"127.0.0.1:{DEFAULT_AGENT_PORT}", help="host:port to bind")
    p.set_defaults(func=cmd_agent)

    p = add_command("node", "run a stub workflow node")
    p.add_argument("--listen", default="127.0.0.1:9002", help="host:port to bind")
    p.set_defaults(func=cmd_node)

    return parser


def main(argv: list[str] | None = None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:  # reported with the usage of the command they follow
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:  # every command's settings are checked before it starts
        return args.func(args, load_settings(args))
    except (DocumentFormatError, SpecValidationError, CatalogError, UsageError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except UnknownLocationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (CloudForecastError, OSError) as exc:  # NodeUnreachableError included
        sys.stderr.write(f"error: {exc}\n")
        return 1


def run() -> None:
    # UTF-8 under any locale, as every file is written; a lone surrogate as its escape
    sys.stdout.reconfigure(encoding="utf-8", errors="backslashreplace")
    raise SystemExit(main())


if __name__ == "__main__":
    run()
