"""cloudforecast benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is imported from the checkout's src/. One run
sets up the workload several times (set-up time is the median), then runs
operations back to back, one client, each starting when the previous one
ended, until S seconds have passed. Every operation's output is checked
against the benchmark's own reference (oracle.py). The last line of standard
output is one JSON object: correct, attempted, failed and the metrics. With
--trace 0 those are the end-to-end metrics; with --trace 1 every other
operation runs with tracing installed and the metrics are per layer. Times
on the CPU-bound workloads are reported at a reference host speed
(speed.py); the raw ones are kept in the run's .bench_out file. Details,
including known program defects the workloads keep visible, are in
bench/README.md.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper-cli", "stress-cold", "stress-warm", "loopback-live")
SIZES = {
    "paper-cli": {"workflow": "samples/fig1.workflow", "regions": 8, "experiment_recipe": "default"},
    "stress-cold": {"nodes": 200, "regions": 64},
    "stress-warm": {"nodes": 200, "regions": 64},
    "loopback-live": {"nodes": 12, "regions": 8, "stubs": 20, "samples_per_pair": 2},
}
TOY_SIZES = {"nodes": 6, "regions": 4}
SETUP_REPEATS = 5
CLI_REPEATS = 5
MACHINE_NOTE = ("no machine setting was changed: no cache drops, no CPU pinning, "
                "no cgroup, sysctl or network changes")

perf = time.perf_counter


def tail(values):
    """The highest percentile with at least ten samples beyond it, never below
    the median: (value, percentile). Below 20 samples that is the median."""
    xs = sorted(values)
    n = len(xs)
    if n >= 20:
        return xs[n - 11], 100.0 * (n - 10) / n
    return statistics.median(xs), 50.0


def src_digest(root):
    h = hashlib.sha256()
    base = os.path.join(root, "src", "cloudforecast")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, base).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_sha(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def read_text(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def make_workload(name, seed, toy, tmp):
    import workloads

    sizes = dict(SIZES[name], **(TOY_SIZES if toy and name != "paper-cli" else {}))
    if name == "paper-cli":
        return workloads.PaperCli(ROOT, seed, tmp), sizes
    if name == "loopback-live":
        return workloads.Loopback(ROOT, seed, sizes), sizes
    return workloads.Stress(ROOT, seed, sizes, warm=name == "stress-warm", tmp=tmp), sizes


def cli_floor(env):
    """Median wall time of fresh interpreters: bare, and importing cloudforecast.cli."""
    times = {"pass": [], "import cloudforecast.cli": []}
    for _ in range(CLI_REPEATS):
        for code in times:
            t0 = perf()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                           capture_output=True, timeout=60)
            times[code].append(1e3 * (perf() - t0))
    return statistics.median(times["pass"]), statistics.median(times["import cloudforecast.cli"])


def run_one(args):
    import speed
    import tracer
    import workloads

    tmp = os.path.join(ROOT, ".bench_out", f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    wl = None
    try:
        wl, sizes = make_workload(args.workload, args.seed, args.toy, tmp)
        child_cal = speed.ChildCalibration(ROOT)
        cal = speed.Calibration() if wl.in_process else child_cal
        # a set-up is child processes (the package import, CLI commands) plus
        # in-process work; each part is scaled by the passes that track it
        # passes at each boundary: before the first set-up and after each one
        setup_parts, setup_cal_ms, child_cal_ms = [], [], []
        for k in range(SETUP_REPEATS + 1):
            if wl.cpu_bound:
                setup_cal_ms.append(cal.passes(cal.SETUP))
                child_cal_ms.append(child_cal.passes(child_cal.SETUP))
            if k == SETUP_REPEATS:
                break
            gc.collect()
            t0 = perf()
            wl.setup()
            total = perf() - t0
            in_child = wl.child_s if wl.in_process else total
            setup_parts.append((total - in_child, in_child))
        setup_times = []
        for k, (own, in_child) in enumerate(setup_parts):
            if wl.cpu_bound:
                own *= cal.factor(setup_cal_ms[k] + setup_cal_ms[k + 1])
                in_child *= child_cal.factor(child_cal_ms[k] + child_cal_ms[k + 1])
            setup_times.append(own + in_child)
        setup_s = statistics.median(setup_times)

        trace = tracer.Tracer() if args.trace else None
        cli_ms = cli_floor(workloads.child_env(ROOT)) if args.trace else None

        timings, records, spans = [], [], []
        attempted = failed = 0
        deadline = perf() + args.seconds
        while attempted == 0 or (perf() < deadline and (args.ops is None or attempted < args.ops)):
            i = attempted
            traced = bool(args.trace) and i % 2 == 0
            attempted += 1
            in_process_trace = traced and wl.in_process
            if wl.in_process:
                # every operation starts from the same heap; its own
                # collections still fall inside the timed region
                gc.collect()
            try:
                before = cal.passes(cal.BEFORE) if wl.cpu_bound else None
                if in_process_trace:
                    trace.install()
                    trace.begin_op(i)
                t0 = perf()
                try:
                    result, check = wl.op(i // 2 if args.trace else i, traced)
                finally:
                    wall_ms = 1e3 * (perf() - t0)
                    record = trace.end_op() if in_process_trace else None
                    if in_process_trace:
                        trace.uninstall()
                result.update(wall_ms=wall_ms, traced=traced)
                if wl.cpu_bound:
                    result["calibration_ms"] = before + cal.passes(cal.AFTER)
                check()
            except Exception as exc:  # an operation that raises counts as failed
                failed += 1
                if failed <= 3:
                    sys.stderr.write(f"operation {i}: {type(exc).__name__}: {exc}\n")
                continue
            record = record or result.pop("trace", None)
            if traced and record is not None:
                # a CLI child numbers its spans from 1 under operation 0
                spans.extend([s[0], s[1], i, *s[3:]] for s in record.pop("spans", ()))
                records.append(record)
            timings.append(result)

        if wl.cpu_bound:
            to_reference_speed(timings, cal)
        if args.trace:
            spans = trace.spans if wl.in_process else spans
            metrics = tracer.layer_metrics(records)
            metrics["cli.interpreter_ms"] = (cli_ms[0], "ms")
            metrics["cli.import_ms"] = (cli_ms[1], "ms")
            metrics["trace.overhead_pct"] = (overhead_pct(timings), "%")
            notes = {}
        else:
            metrics, notes = end_to_end(timings, setup_s, wl.in_process)
        calibration = {
            "pass": type(cal).__name__,
            "reference_ms": cal.REFERENCE_MS,
            "applied": wl.cpu_bound,
            "setup_passes_ms": setup_cal_ms,
            "setup_child_passes_ms": child_cal_ms,
            "setup_parts_raw_s": setup_parts,
            "op_pass_ms_median": statistics.median(
                [ms for t in timings for ms in t.get("calibration_ms", ())] or [0.0]),
        }
        prov = provenance(args, sizes, wl, attempted, failed, notes, setup_times, calibration)
        write_results(args, prov, metrics, timings, spans)
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(tmp, ignore_errors=True)

    for name, (value, unit) in sorted(metrics.items()):
        note = notes.get(name, "")
        print(f"{args.workload:14} {name:34} {value:14.4f} {unit:6} {note}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def end_to_end(timings, setup_s, in_process):
    metrics = {"setup_s": (setup_s, "s")}
    notes = {}

    def samples(key):
        return [t[key] for t in timings if key in t] or [0.0]

    def raw_median(key):
        raw = [t["raw"][key] for t in timings if key in t.get("raw", {})]
        return f", raw median {statistics.median(raw):.1f}" if raw else ""

    for base in ("analyze", "experiment"):
        values = samples(f"{base}_ms")
        value, pct = tail(values)
        metrics[f"{base}_ms_p50"] = (statistics.median(values), "ms")
        metrics[f"{base}_ms_tail"] = (value, "ms")
        notes[f"{base}_ms_p50"] = f"n={len(values)}" + raw_median(f"{base}_ms")
        notes[f"{base}_ms_tail"] = f"p{pct:.1f} of n={len(values)}"
    values = samples("makespan_ms")
    metrics["live_makespan_ms_p50"] = (statistics.median(values), "ms")
    notes["live_makespan_ms_p50"] = f"n={len(values)}" + raw_median("makespan_ms")
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    metrics["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024.0, "MB")
    notes["peak_rss_mb"] = "this process" if in_process else "largest CLI child"
    return metrics, notes


def to_reference_speed(timings, cal):
    """Scale every operation's timings by the factor of its own calibration
    passes (speed.py), keeping the raw ones under "raw"."""
    for t in timings:
        factor = cal.factor(t["calibration_ms"])
        t["raw"] = {k: v for k, v in t.items() if k.endswith("_ms") and k != "calibration_ms"}
        t.update((k, factor * v) for k, v in t["raw"].items())


def overhead_pct(timings):
    """Traced over untraced wall time, summed over the per-kind medians."""
    walls = {}
    for t in timings:
        walls.setdefault((t.get("kind", "op"), t["traced"]), []).append(t["wall_ms"])
    kinds = [k for k, traced in walls if traced and (k, False) in walls]
    if not kinds:
        return 0.0
    on = sum(statistics.median(walls[(k, True)]) for k in kinds)
    off = sum(statistics.median(walls[(k, False)]) for k in kinds)
    return 100.0 * (on / off - 1.0)


def provenance(args, sizes, wl, attempted, failed, notes, setup_times, calibration):
    prov = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "toy": args.toy,
        "sizes": sizes,
        "attempted": attempted,
        "failed": failed,
        "failed_ops_share": failed / attempted,
        "setup_repeats_s": setup_times,
        "calibration": calibration,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        "src_sha256": src_digest(ROOT),
        "ping_group_range": read_text("/proc/sys/net/ipv4/ping_group_range"),
        "loop": "closed, one client in one process",
        "machine": MACHINE_NOTE,
        "metric_notes": notes,
        **wl.provenance(),
    }
    if args.workload == "loopback-live":
        prov["network"] = "stub nodes on 127.0.0.0/8 port 80: traffic crosses loopback, not a real link"
    return prov


def write_results(args, prov, metrics, timings, spans):
    out = os.path.join(ROOT, ".bench_out")
    os.makedirs(out, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out, stem + ".json"), "w") as fh:
        json.dump({"provenance": prov, "metrics": metrics, "operations": timings}, fh, indent=1,
                  sort_keys=True)
    if args.trace:
        with open(os.path.join(out, stem + ".spans.jsonl"), "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")


def run_all(args):
    """Each workload in its own process, so each set-up starts cold."""
    results, ok = {}, True
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.toy:
            argv.append("--toy")
        if args.ops is not None:
            argv += ["--ops", str(args.ops)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            ok = False
        results[name] = result
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results.values() if r),
        "failed": sum(r["failed"] for r in results.values() if r),
        "workloads": results,
    }))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="6 nodes x 4 regions instead of the benchmark sizes (smoke test)")
    parser.add_argument("--ops", type=int, help="stop after this many operations")
    args = parser.parse_args(argv)

    for needed in (os.path.join("src", "cloudforecast", "__init__.py"), os.path.join("samples", "fig1.workflow")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.stderr.write(f"error: {needed} not found under {ROOT}; run from a cloudforecast checkout\n")
            return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except KeyboardInterrupt:
        return 130
    except Exception as exc:
        sys.stderr.write(f"error: {args.workload} set-up failed: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
