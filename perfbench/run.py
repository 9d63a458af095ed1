#!/usr/bin/env python3
"""Benchmark of the hexcube package: end-to-end and per-layer numbers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one process each
    python3 perfbench/run.py ... --smoke         # cut-down sizes, runs in seconds

Run it from the repository root; it imports `hexcube` from `src/` and from
nowhere else.  A run builds the workload's inputs from the seed, then
repeats a pass (library call plus verification against known answers)
while the next pass is expected to end within --seconds, at least once.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones (medians over
the passes):

  wall_s       library call to verified result, set-up excluded
  setup_s      interpreter start, `import hexcube` and building the inputs,
               timed in fresh processes before and after the passes (median)
  peak_rss_mb  peak resident memory of this process
  items_per_s  isomorphism classes (or check reports) per second of wall_s

fail_ratio (failed / attempted verifications) is printed by name and carried
by the `failed` and `attempted` fields.  With --trace 1 the run makes one
untraced pass and then one pass with spans around each layer's public
functions, and the metrics are the per-layer ones (see spans.py).  Spans
and a result record with the environment go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
NAMES = ("survey-q4-n40", "fullerene-q5-n32", "check-gc")
SETUP_REPEATS = 6  # before the passes, and as many again after them


def import_hexcube():
    """Import hexcube from this checkout's src/, or exit with an error."""
    pkg = os.path.join(SRC, "hexcube")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        sys.exit(f"error: no hexcube package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import hexcube

    if os.path.dirname(os.path.abspath(hexcube.__file__)) != pkg:
        sys.exit(f"error: imported hexcube from {hexcube.__file__}, not {pkg}")
    return hexcube


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="cut-down sizes for a quick check")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def common_flags(args) -> list[str]:
    flags = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return flags + (["--smoke"] if args.smoke else [])


def time_setup(args, repeats: int) -> list[float]:
    """Wall times of fresh processes that only import hexcube and build the
    inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--setup-probe"] + common_flags(args)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def environment(np_version: str) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fp:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fp if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    rev = dirty = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             env=git_env, capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            rev = lines[1]
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=ROOT, env=git_env, capture_output=True, text=True,
                                    timeout=30)
            dirty = bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_rev": rev,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": np_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def one_pass(wl, data, tracer=None):
    """Prepare fresh inputs, then time the library call and its verification."""
    inputs = wl.prepare(data)
    t0 = time.perf_counter()
    result = tracer.span("workload", wl.run, inputs) if tracer else wl.run(inputs)
    checks = wl.checks(result)
    return time.perf_counter() - t0, checks, wl.items(result)


def load_workload(args):
    hexcube = import_hexcube()
    import workloads

    return hexcube, (workloads.SMOKE if args.smoke else workloads.WORKLOADS)[args.workload]


def run_workload(args) -> dict:
    """Run one workload in this process; returns the result record."""
    hexcube, wl = load_workload(args)
    import numpy as np

    # set-up is timed before and after the passes, so that its median spans
    # the run as the passes do; the first probe, untimed, compiles bytecode
    setup_times = time_setup(args, SETUP_REPEATS + 1)[1:] if args.trace == 0 else []
    data = wl.build(args.seed)
    walls, checked = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        wall, checks, items = one_pass(wl, data)
        walls.append(wall)
        checked.append(checks)
        if args.trace or time.perf_counter() + statistics.median(walls) > deadline:
            break
    wall_s = statistics.median(walls)
    tracer = None
    if args.trace == 0:
        setup_times += time_setup(args, SETUP_REPEATS)
        metrics = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "items_per_s": items / wall_s,
        }
    else:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        try:
            traced_wall, checks, _ = one_pass(wl, wl.build(args.seed), tracer)
        finally:
            tracer.uninstall()
        checked.append(checks)
        metrics = tracer.layer_metrics(wall_s, traced_wall)
    failures = [name for checks in checked for name, ok in checks.items() if not ok]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": args.trace,
        "walls_s": walls,
        "setup_times_s": setup_times,
        "attempted": sum(map(len, checked)),
        "failed": len(failures),
        "failed_checks": failures,
        "peak_rss_mb": peak_rss_mb(),
        "hexcube": hexcube.__version__,
        "env": environment(np.__version__),
        "metrics": metrics,
    }
    if tracer is not None:
        record["self_s_by_span"] = tracer.self_times()
        os.makedirs(OUT, exist_ok=True)
        tracer.save(os.path.join(OUT, f"spans-{args.workload}.npz"), record)
    return record


def declared_metrics(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(record: dict) -> dict:
    """Print the record for a reader; return the closing JSON object."""
    units = declared_metrics(record["trace"])
    if set(units) != set(record["metrics"]):
        sys.exit(f"error: metrics {sorted(record['metrics'])} differ from BENCHMARK.json")
    print(f"workload={record['workload']} seed={record['seed']} trace={record['trace']} "
          f"smoke={record['smoke']} passes={len(record['walls_s'])}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for name, value in record["metrics"].items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  fail_ratio = {record['failed'] / record['attempted']:.6g} ratio "
          f"({record['failed']} of {record['attempted']} verifications failed)")
    for name in record["failed_checks"]:
        print(f"  FAILED {name}")
    if "self_s_by_span" in record:
        print("self time by span: " + ", ".join(
            f"{k}={v:.3f}s" for k, v in record["self_s_by_span"].items()))
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()},
    }


def run_all(args) -> dict:
    """Every workload in a fresh process of its own, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name] + common_flags(args)
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited with code {proc.returncode}")
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    return merged


def main(argv=None) -> int:
    args = parse_args(argv)
    # one thread everywhere, so that no library starts a pool of its own
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.setup_probe:
        _, wl = load_workload(args)
        wl.prepare(wl.build(args.seed))
        return 0
    if args.workload == "all":
        final = run_all(args)
    else:
        record = run_workload(args)
        final = report(record)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fp:
            json.dump(record, fp, indent=1, sort_keys=True)
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
