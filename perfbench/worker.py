"""One pass over a workload's item set, in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <scale> <mode>
    python3 perfbench/worker.py setup

Every worker first times its cold start: ``import superproj`` plus the
fixture load, as every CLI call pays it.  ``setup`` stops there.  Otherwise
``mode`` is ``check`` (time the pass, then check every output), ``replay``
(time only) or ``trace`` (time under the tracer).  The worker prints one JSON
object: the corrected cold start, the latency, reference-kernel time and
output signature of each item, the peak resident memory after the pass, and,
per mode, the failed checks or the per-layer metrics.

Each pass runs in its own interpreter so that no cache survives from one
pass to the next (sympy's expression cache included): every pass costs what
a fresh caller pays.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import perf_counter

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
CALIBRATE_EVERY_S = 0.05


def cold_start() -> float:
    """Corrected seconds of the first engine import in this interpreter."""
    t0 = perf_counter()
    sys.path.insert(0, SRC)
    import superproj  # noqa: F401
    from superproj.golden import load_records

    load_records()
    seconds = perf_counter() - t0
    return seconds * calibration.REFERENCE_S / calibration.kernel_seconds()


def time_pass(items, tracer=None):
    """Run every item once; return (latencies, kernel times, outputs).

    The reference kernel runs whenever ``CALIBRATE_EVERY_S`` of item time has
    passed, and each item gets the mean kernel time of the two runs that
    bracket it.  An item that raises yields ``{"raised": repr(exc)}``.
    """
    latencies, kernels, outputs = [], [], []
    if tracer is not None:
        tracer.install()
    try:
        before, since = calibration.kernel_seconds(), 0.0
        for n, item in enumerate(items, 1):
            t0 = perf_counter()
            try:
                out = item.run()
            except Exception as exc:  # a raising item is a failed item
                out = {"raised": repr(exc)}
            latencies.append(perf_counter() - t0)
            outputs.append(out)
            since += latencies[-1]
            if since >= CALIBRATE_EVERY_S or n == len(items):
                after = calibration.kernel_seconds()
                kernels += [(before + after) / 2] * (n - len(kernels))
                before, since = after, 0.0
    finally:
        if tracer is not None:
            tracer.remove()
    return latencies, kernels, outputs


def check_outputs(items, outputs) -> list:
    """(index, reason) for every output that fails its item's check."""
    failures = []
    for i, (item, out) in enumerate(zip(items, outputs)):
        if isinstance(out, dict) and "raised" in out:
            failures.append((i, out["raised"]))
            continue
        try:
            ok = item.check(out, item.expected)
        except Exception as exc:  # a check that cannot run fails the item
            failures.append((i, f"check raised {exc!r}"))
            continue
        if not ok:
            failures.append((i, f"output {out!r} fails its check"))
    return failures


def main(argv) -> int:
    setup_s = cold_start()
    if argv == ["setup"]:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    workload, seed, scale, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    import tracing
    import workloads

    items = workloads.WORKLOADS[workload](seed, scale)
    tracer = tracing.Tracer() if mode == "trace" else None
    latencies, kernels, outputs = time_pass(items, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    t0 = perf_counter()
    failures = check_outputs(items, outputs) if mode == "check" else []
    check_s = perf_counter() - t0
    print(json.dumps({
        "setup_s": setup_s,
        "labels": [item.label for item in items],
        "latencies": latencies,
        "kernels": kernels,
        "outputs": outputs,
        "peak_rss_mb": peak_rss_mb,
        "failures": failures,
        "check_s": check_s,
        "layers": tracer.metrics() if tracer is not None else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
