"""Host-speed calibration for the CPU-bound workloads.

The shared virtual machines this benchmark runs on change speed by up to 2x
in phases of seconds to minutes: the same stress operation took 700 ms and
1400 ms within one run, and a fixed pure-Python loop moved the same way on
either vCPU, with little steal time. A run-level median cannot average out a
phase longer than the run, so each CPU-bound operation is bracketed by
calibration passes, fixed pieces of the benchmark's own work (never the
package's), and its timings are reported at a reference speed:

    reported_ms = measured_ms * REFERENCE_MS / mean(pass_ms)

where REFERENCE_MS is what a pass takes on a quiet 2-vCPU host. A change to
the package moves the operation and not the passes, so it shows in full; a
host phase moves both and cancels. The raw timings and pass times are kept
beside the reported ones.

In-process operations use an in-process pass, two before and two after the
operation. CLI operations use a child-process pass, one just before the
operation: a child can run on the other vCPU, and an in-process pass
correlated with CLI times at only 0.14 (log scale, 365 operations), a child
pass at 0.76. Set-up repetitions are scaled by passes taken around them.
"""

import gc
import json
import random
import subprocess
import sys
import time

import oracle
from workloads import child_env, gen_regions, gen_workflow

perf = time.perf_counter


class Calibration:
    """In-process pass: the oracle's reference ranking of a fixed 40-node x
    16-region input (float and trigonometry in Python, dicts) and JSON round
    trips of that input (the C codec and allocation)."""

    REFERENCE_MS = 6.5
    BEFORE, AFTER = 2, 2  # passes around each operation
    SETUP = 5  # passes before the set-ups and after each one

    def __init__(self):
        rng = random.Random(0)
        self.doc = gen_workflow(rng, "calibration", [f"cal-{i}" for i in range(40)])
        self.regions = gen_regions(rng, [f"cal-region-{j}" for j in range(16)])
        self.text = json.dumps({"workflow": self.doc, "regions": self.regions})
        self.expected = oracle.expected_ranking(self.doc, self.regions, 4)

    def pass_ms(self):
        # no collection inside the pass: its cost would depend on how much the
        # package's operation left on the heap, not on the host's speed
        gc.disable()
        try:
            t0 = perf()
            ranking = oracle.expected_ranking(self.doc, self.regions, 4)
            for _ in range(10):
                doc = json.loads(json.dumps(json.loads(self.text)))
            ms = 1e3 * (perf() - t0)
        finally:
            gc.enable()
        if ranking["order"] != self.expected["order"] or len(doc["regions"]) != len(self.regions):
            raise RuntimeError("calibration pass computed a different result")
        return ms

    def passes(self, n):
        return [self.pass_ms() for _ in range(n)]

    def factor(self, passes_ms):
        """Scale from measured to reference-speed time for work done between
        these passes. The mean, not the median: a pass catches the host in a
        fast or a slow state, and the work in between sees their average."""
        return self.REFERENCE_MS / (sum(passes_ms) / len(passes_ms))


class ChildCalibration(Calibration):
    """Child-process pass: a fresh interpreter that imports standard-library
    modules the CLI also loads and compiles oracle.py three times, as a CLI
    process starts up and compiles the package."""

    REFERENCE_MS = 90.0
    BEFORE, AFTER = 1, 0
    SETUP = 1
    CODE = ("import argparse, concurrent.futures, dataclasses, email.parser, http.client, json, "
            "random, urllib.parse\n"
            "src = open('bench/oracle.py').read()\n"
            "for _ in range(3):\n"
            "    compile(src, 'oracle.py', 'exec')\n")

    def __init__(self, root):
        self.root = root
        self.env = child_env(root)

    def pass_ms(self):
        t0 = perf()
        # with a timeout and no pipes, waiting for the child polls in steps of
        # up to 50 ms; with pipes it blocks until the child closes them
        subprocess.run([sys.executable, "-c", self.CODE], cwd=self.root, env=self.env,
                       check=True, capture_output=True, timeout=60)
        return 1e3 * (perf() - t0)
