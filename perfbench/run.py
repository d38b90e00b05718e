"""Closed-loop benchmark of the superproj engine.

    python3 perfbench/run.py --workload law_suites --seed 1 --seconds 25 --trace 0

One caller issues each item only after the previous one returns, with no
threads.  The workload's item set is built from the seed; a pass replays the
whole set in a fresh interpreter (``worker.py``).  Passes repeat while the
next one is expected to end within ``--seconds``, and there is always at least
one.  The first pass's outputs are checked, outside that budget, and every
later pass must reproduce them exactly.

Timings are corrected for the machine's speed drift with a reference kernel
(``calibration.py``).  ``wall_s`` sums each item's median corrected latency
over the passes, and ``item_p50_ms`` is the median of those per-item figures.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
spends half the budget on untraced passes, then makes one traced pass and
prints the per-layer metrics of that pass.  The last line of standard output
is the result JSON; the lines before it are a readable report and the run
metadata.  The engine is imported from ``src/`` next to this directory; when
that is missing the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from time import perf_counter

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("law_suites", "cech_wide", "closed_forms")
SETUP_RUNS = 5  # plus one cold start per untraced pass
SYMPY_RUNS = 3
PASS_TIMEOUT_S = 150


class RunError(Exception):
    """The engine is missing, or a pass could not run to its end."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _python(args, timeout=PASS_TIMEOUT_S):
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        timeout=timeout, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RunError(f"{' '.join(args[:3])} exited {proc.returncode}: "
                       f"{proc.stderr.strip()[-2000:]}")
    return proc


# -- set-up ------------------------------------------------------------------

def measure_setup(runs: int) -> list:
    """Corrected cold starts of fresh interpreters, after one unmeasured run
    that writes bytecode."""
    _python([WORKER, "setup"])
    return [json.loads(_python([WORKER, "setup"]).stdout)["setup_s"] for _ in range(runs)]


def measure_sympy_import(runs: int) -> list:
    """Seconds the engine's import spends importing sympy (0 when it does not)."""
    samples = []
    for _ in range(runs):
        seconds = 0.0
        for line in _python(["-X", "importtime", WORKER, "setup"]).stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "sympy":
                seconds = int(parts[1]) / 1e6
        samples.append(seconds)
    return samples


# -- passes ------------------------------------------------------------------

class Run:
    """The passes of one run over one item set, and their outcomes."""

    def __init__(self, workload: str, seed: int, scale: float):
        self.args = [WORKER, workload, str(seed), str(scale)]
        self.labels = None
        self.reference = None  # outputs of the checked first pass
        self.attempted = 0
        self.failed = 0
        self.errors = []  # (label, reason) of failed items
        self.latencies = []  # per untraced pass, corrected seconds per item
        self.setup_samples = []  # corrected cold starts of the pass workers
        self.peak_rss_mb = 0.0

    def one_pass(self, mode: str) -> dict:
        """Run one pass in a fresh worker; mode is check, replay or trace."""
        out = json.loads(_python(self.args + [mode]).stdout.strip().splitlines()[-1])
        outputs = out["outputs"]
        self.attempted += len(outputs)
        if mode == "check":
            self.labels, self.reference = out["labels"], outputs
            bad = {i: reason for i, reason in out["failures"]}
        else:
            bad = {i: f"output {o!r} differs from the first pass"
                   for i, o in enumerate(outputs) if o != self.reference[i]}
        self.failed += len(bad)
        self.errors += [(self.labels[i], reason) for i, reason in sorted(bad.items())]
        out["corrected"] = [
            seconds * calibration.REFERENCE_S / kernel
            for seconds, kernel in zip(out["latencies"], out["kernels"])
        ]
        if mode != "trace":
            self.latencies.append(out["corrected"])
            self.setup_samples.append(out["setup_s"])
            self.peak_rss_mb = max(self.peak_rss_mb, out["peak_rss_mb"])
        return out

    def replay(self, budget: float):
        """Untraced passes, the first one checked, while the next is expected
        to end within budget.  Time spent checking is not charged to it."""
        spent = 0.0
        while True:
            t0 = perf_counter()
            out = self.one_pass("check" if self.reference is None else "replay")
            last = perf_counter() - t0 - out["check_s"]
            spent += last
            if spent + last > budget:
                return

    def item_latencies(self) -> list:
        """Each item's median corrected latency over the untraced passes."""
        return [statistics.median(lat) for lat in zip(*self.latencies)]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


# -- metadata ----------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_lines() -> int:
    total = 0
    for dirpath, _, names in os.walk(SRC):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def run_metadata(workload: str, seed: int) -> dict:
    try:
        sympy_version = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "sympy": sympy_version,
        "git_commit": _git_commit(),
        "src_lines": _src_lines(),
    }


# -- one run -----------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
        setup_runs: int = SETUP_RUNS) -> dict:
    """One benchmark run: the result object, report lines and metadata."""
    if not os.path.isfile(os.path.join(SRC, "superproj", "__init__.py")):
        raise RunError(f"no engine source at {SRC}")
    spec = load_spec()
    bench = Run(workload, seed, scale)
    if trace:
        sympy_s = statistics.median(measure_sympy_import(min(setup_runs, SYMPY_RUNS)))
        bench.replay(seconds / 2)
        traced = bench.one_pass("trace")
        per_item = bench.item_latencies()
        values = dict(traced["layers"], **{
            "setup.sympy_import_s": sympy_s,
            "trace.overhead_ratio": sum(traced["corrected"]) / sum(per_item),
        })
    else:
        setup_samples = measure_setup(setup_runs)
        bench.replay(seconds)
        per_item = bench.item_latencies()
        values = {
            "setup_s": statistics.median(setup_samples + bench.setup_samples),
            "wall_s": sum(per_item),
            "item_p50_ms": 1000 * statistics.median(per_item),
            "peak_rss_mb": bench.peak_rss_mb,
        }
    specs = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}

    report = [
        f"workload {workload}: {len(per_item)} items per pass, {len(bench.latencies)} "
        f"untraced passes, {bench.attempted} items attempted, {bench.failed} failed",
        f"fail_ratio = {bench.failed / bench.attempted} (failed / attempted)",
    ]
    if len(per_item) >= 100:
        report.append(f"item_p90_ms = {1000 * percentile(per_item, 0.9)} ms "
                      f"(nearest rank over {len(per_item)} items)")
    else:
        report.append(f"item_p90_ms not reported: {len(per_item)} items, fewer than 100")
    report += [f"{name} = {m['value']} {m['unit']}" for name, m in metrics.items()]
    report += [f"FAILED {label}: {reason}" for label, reason in bench.errors[:20]]
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    return {"result": result, "report": report,
            "meta": run_metadata(workload, seed), "failed_items": bench.errors}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RunError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 2
    for line in out["report"]:
        print(line)
    print("meta " + json.dumps(out["meta"], sort_keys=True))
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
