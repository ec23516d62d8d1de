"""covrad benchmark: run one workload in fresh processes, check every answer,
and print its metrics.

    python3 perfbench/run.py --workload subset-decoding --seed 1 --seconds 50 --trace 0

With --trace 0 it reports the end-to-end metrics (wall_s, setup_s, cpu_s,
peak_rss_mb); with --trace 1 the per-layer metrics from spans taken at
covrad's module boundaries.  Every pass is a fresh Python process, as a
command-line user pays for it, with OpenBLAS and OpenMP pinned to one
thread.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 1 when any
job failed or answered wrongly, 2 when covrad's sources are missing.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402

SETUP_REPS = 8        # setup-only processes per untraced run
RUN_LIMIT_S = 170.0   # every run ends well inside 180 s
PASS_TIMEOUT_S = 150.0
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
LAYER_UNITS = {
    "gf.field_s": "s", "code.construct_s": "s",
    "sweeps.ops_build_s": "s", "sweeps.ops_builds": "count",
    "sweeps.ops_cache_hit_ratio": "ratio", "sweeps.ops_bytes": "bytes",
    "dist.mds_stack_s": "s", "dist.mds_stack_bytes": "bytes",
    "dist.decode_calls": "count", "dist.decode_self_s": "s",
    "dist.decode_ms_per_call": "ms",
    "sweeps.tails_s": "s", "sweeps.cosets": "count",
    "sweeps.kernel_self_s": "s", "sweeps.row_subset_products": "count",
    "sweeps.kernel_rate": "1/s", "sweeps.floor_s": "s",
    "sweeps.candidates": "count", "sweeps.truncated": "count",
    "dist.deep_holes_post_s": "s", "dist.deep_hole_reps": "count",
    "sweeps.driver_self_s": "s", "sweeps.worker_cpu_s": "s",
    "sweeps.busy_cores": "cores",
    "sweeps.bfs_s": "s", "sweeps.bfs_words": "count",
    **{f"sweeps.bfs_level.{w}": "count" for w in range(bench_trace.BFS_LEVELS)},
    "sweeps.bfs_yield": "ratio", "sweeps.bfs_words_per_s": "1/s",
    "trace.other_s": "s", "trace.overhead_s": "s", "fail_frac": "ratio",
}


def _child_env():
    env = dict(os.environ, **BLAS_PINS, PYTHONPATH=str(SRC))
    # an installed covrad has its bytecode compiled; let the warm-up write it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _pass(workload, seed, trace, setup_only, timeout, recheck=False):
    """Run bench_pass.py in its own process group; kill the group (pool
    workers included) if it outlives `timeout`.  Returns the parsed result,
    or None if the process failed."""
    cmd = [sys.executable, str(HERE / "bench_pass.py"), "--workload",
           workload, "--seed", str(seed), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    if recheck:
        cmd.append("--recheck")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=_child_env(), cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"pass timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        try:  # reap anything the pass left behind in its group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0 or not out.strip():
        print(f"pass exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


def _median(passes, key):
    return statistics.median(p[key] for p in passes)


def measure(workload, seed, seconds, trace):
    """Run passes until the next one would overrun `seconds`; returns
    (untraced passes, traced passes, setup samples, failed processes).

    The first completed pass also runs the oracle rechecks, after its timed
    region; the later passes only compare answers with the expected values,
    so more of the run goes into timed work."""
    begin = time.perf_counter()

    def left():
        return RUN_LIMIT_S - (time.perf_counter() - begin)

    setups, plain, traced, broken = [], [], [], 0

    def setup_samples(count):
        nonlocal broken
        for _ in range(count):
            r = _pass(workload.name, seed, False, True,
                      min(PASS_TIMEOUT_S, left()))
            if r is None:
                broken += 1
            else:
                setups.append(r["setup_s"])

    # warm-up: byte-compiles covrad once, so no timed import pays for it
    _pass(workload.name, seed, False, True, min(PASS_TIMEOUT_S, left()))
    # set-up samples before and after the passes, so that they span the run
    if not trace:
        setup_samples(SETUP_REPS // 2)
    t_measure = time.perf_counter()
    took = []  # process time of each pass; the recheck pass is the longest
    while True:
        # traced runs alternate untraced and traced passes, both needed
        want_trace = trace and len(traced) < len(plain)
        done = plain and (not trace or traced)
        spent = time.perf_counter() - t_measure
        longest = max(took[1:] or took or [0.0])
        if done and (spent + longest > seconds or longest > left()):
            break
        recheck = not (plain or traced)
        t = time.perf_counter()
        r = _pass(workload.name, seed, want_trace, False,
                  min(PASS_TIMEOUT_S, left()), recheck)
        took.append(time.perf_counter() - t)
        if r is None:
            broken += 1
            if left() < max(took) or not (plain or traced):
                break
            continue
        (traced if want_trace else plain).append(r)
        if not want_trace:
            setups.append(r["setup_s"])
    if not trace:
        setup_samples(SETUP_REPS - SETUP_REPS // 2)
    return plain, traced, setups, broken


def report(workload, plain, traced, setups, broken, trace) -> dict:
    """Print each pass, verdict and metric; return the result object.

    A job counts as failed when it raised, answered wrongly or failed a
    recheck; a pass process that died counts all of its jobs as failed."""
    passes = plain + traced
    njobs = len(workload.jobs)
    attempted = njobs * (len(passes) + broken)
    failed = njobs * broken
    print(f"workload {workload.name}: {workload.why}")
    print(f"{len(plain)} untraced and {len(traced)} traced passes, "
          f"{len(setups)} setup samples, {broken} pass processes failed")
    print("environment", json.dumps(passes[0]["env"]))
    for job in workload.jobs:
        print(f"expected for {job.name}: " + "; ".join(
            f"{k} = {v} ({src})" for k, (v, src) in job.expect.items()))
    for i, p in enumerate(passes):
        kind = "traced" if "layers" in p else "untraced"
        kind += ", rechecked" if p["rechecked"] else ""
        print(f"pass {i} ({kind}): "
              f"wall {p['wall_s']:.4f} s, cpu {p['cpu_s']:.4f} s, "
              f"peak rss {p['peak_rss_mb']:.1f} MiB, setup {p['setup_s']:.4f} s")
        for v in p["verdicts"]:
            failed += not v["ok"]
            state = "ok" if v["ok"] else "FAIL " + "; ".join(v["problems"])
            if v["unchecked"]:
                state += f" (unchecked: {', '.join(v['unchecked'])})"
            print(f"pass {i} {v['job']}: {state}")
    absent = sorted({a for p in passes for a in p["absent"]})
    if absent:
        print("absent layers (reported as 0):", ", ".join(absent))

    if trace:
        layers = {k: statistics.median(p["layers"][k] for p in traced)
                  for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = (_median(traced, "wall_s")
                                      - _median(plain, "wall_s"))
        layers["fail_frac"] = failed / attempted
        metrics = {k: (layers[k], unit) for k, unit in LAYER_UNITS.items()}
        for row in traced[0]["spans"]:
            print(f"span {row['span']} in {row['job']}: {row['calls']} calls, "
                  f"{row['total_s']:.4f} s total, {row['self_s']:.4f} s self")
    else:
        metrics = {k: (_median(plain, k), unit)
                   for k, unit in END_TO_END.items() if k != "setup_s"}
        metrics["setup_s"] = (statistics.median(setups), "s")
        print(f"fail_frac {failed / attempted} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(bench_workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "covrad" / "__init__.py").is_file():
        print(f"covrad sources not found under {SRC}", file=sys.stderr)
        return 2

    workload = bench_workloads.WORKLOADS[args.workload]
    plain, traced, setups, broken = measure(workload, args.seed,
                                            args.seconds, bool(args.trace))
    if not plain or (args.trace and not traced):
        print("no pass completed", file=sys.stderr)
        return 2
    print(f"seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}")
    result = report(workload, plain, traced, setups, broken, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
