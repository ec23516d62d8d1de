"""One benchmark pass in a fresh process: import covrad, build the
workload's codes, run its jobs, then check every answer.

    python3 perfbench/bench_pass.py --workload NAME --seed N --trace 0|1 [--recheck]
    python3 perfbench/bench_pass.py --workload NAME --setup-only

covrad is imported from the `src` directory next to this one; run.py sets
PYTHONPATH and the BLAS thread pins.  The last line of standard output is
one JSON object with the pass's measurements and verdicts.  Every pass
compares its answers with the expected values; with --recheck it also runs
the independent-oracle rechecks, which are slower.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

import bench_trace
import bench_workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def _usage():
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime,
            s.ru_maxrss, c.ru_maxrss)


def _environment(cv):
    import numpy as np
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas, "covrad": cv.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def run_pass(cv, workload, seed: int, trace: bool, import_s: float,
             setup_only: bool = False, recheck: bool = True) -> dict:
    """Build, time and check one pass of `workload` with the imported
    covrad package `cv`.  `import_s` is what importing covrad cost."""
    tracer = bench_trace.Tracer(timing=trace)
    with tracer.installed(cv):
        t = time.perf_counter()
        codes = workload.build(cv)
        setup_s = import_s + time.perf_counter() - t
        if setup_only:
            return {"setup_s": setup_s}
        inputs = (workload.make_inputs(cv, codes, random.Random(seed))
                  if workload.make_inputs else {})
        outcomes = []
        cpu0 = _usage()[0]
        start = time.perf_counter()
        for job in workload.jobs:
            tracer.job = job.name
            try:
                result, error = job.run(cv, codes, inputs), None
            except Exception as exc:  # a failed job is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            outcomes.append((result, tracer.take_seen(), error))
        end = time.perf_counter()
        cpu1, rss_self, rss_children = _usage()
    verdicts = bench_workloads.gate(cv, workload, codes, inputs, outcomes,
                                    random.Random(f"{seed}/gate"), recheck)
    out = {
        "setup_s": setup_s,
        "wall_s": end - start,
        "cpu_s": cpu1 - cpu0,
        # ru_maxrss is in KiB: the pass process plus its largest child
        "peak_rss_mb": (rss_self + rss_children) / 1024,
        "verdicts": [v.__dict__ for v in verdicts],
        "rechecked": recheck,
        "absent": tracer.absent,
        "env": _environment(cv),
    }
    if trace:
        out["layers"] = bench_trace.layer_metrics(tracer.spans, start, end)
        out["spans"] = bench_trace.span_table(tracer.spans)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(bench_workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--recheck", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import covrad
    import_s = time.perf_counter() - t0
    if SRC not in Path(covrad.__file__).resolve().parents:
        print(f"covrad imported from {covrad.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    out = run_pass(covrad, bench_workloads.WORKLOADS[args.workload],
                   args.seed, bool(args.trace), import_s, args.setup_only,
                   args.recheck)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
