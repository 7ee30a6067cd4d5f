"""risalloc benchmark: one workload per run, metrics as one JSON line.

Run from the root of a risalloc checkout:

    python3 perfbench/run.py --workload desk_pipeline --seed 1 --seconds 55 --trace 0

The benchmark imports risalloc from ``src/`` of the working directory and
nothing else. It repeats the workload's passes until ``--seconds`` have
passed, checks every output, prints every metric by name and unit, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` that line holds the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` its per-layer metrics, taken from spans around every public
function of risalloc's modules. A traced run alternates untraced and traced
passes on the same inputs, so it also measures the tracing overhead.

A full report (every metric, the environment) goes to
``.perfbench_results/`` and the spans of the latest traced run of each
workload to ``.perfbench_results/spans-<workload>.npz``. Inputs are scratch
files under ``.perfbench_work/``, removed at exit.
"""

import os

# BLAS threads are fixed here, before numpy loads, so that every run uses the
# same count whatever the machine; one thread is <= nproc everywhere.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Claims of a gain must also hold on this seed, which no tuning run uses.
HELD_OUT_SEED = 7919
# Set-up is timed in fresh processes, half before the timed passes and half
# after them, so that its median spans the run's stretch of host speed.
SETUP_REPEATS = (6, 5)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="smallest inputs, for the smoke test; not a measurement")
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the inputs, then exit (timed by the parent)")
    return p.parse_args(argv)


def import_library(root: Path):
    """Import risalloc from root/src only; exit non-zero if it is not there."""
    src = root / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import risalloc
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import risalloc from {src}: {exc}")
    if Path(risalloc.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: risalloc was imported from {risalloc.__file__}, not {src}")
    return risalloc


def measure_setup(args, repeats) -> list:
    """Wall times of fresh processes that import risalloc and build the inputs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                        "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else []),
                       check=True)
        times.append(time.perf_counter() - t0)
    return times


def git_commit(root: Path):
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def environment(args, root: Path) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "held_out_seed": HELD_OUT_SEED,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": int(BLAS_THREADS), "platform": platform.platform(),
            "git_commit": git_commit(root)}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    import_library(root)
    import numpy as np
    import layers
    import reference
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    cls = workloads.WORKLOADS[args.workload]
    work = root / ".perfbench_work" / str(os.getpid())
    if args.setup_only:
        try:
            cls(args.seed, work, args.smoke)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0

    setup_times = [] if args.trace else measure_setup(args, SETUP_REPEATS[0])
    tracer = Tracer() if args.trace else None
    run = workloads.Run(tracer, reference.Yardstick(*cls.yardstick_repeats))
    try:
        workload = cls(args.seed, work, args.smoke)
        if tracer is not None:
            tracer.install()
        untraced_wall, traced_wall = [], []
        t_start = time.perf_counter()
        p = 0
        while p == 0 or time.perf_counter() - t_start < args.seconds:
            for traced in ([False, True] if tracer else [False]):
                run.traced = traced
                n_walls = len(run.samples.get("wall_s", []))
                with run.op(f"{args.workload} pass {p}"):
                    workload.run_pass(p, run)
                walls = run.samples.get("wall_s", [])
                if len(walls) > n_walls:
                    (traced_wall if traced else untraced_wall).append(walls[-1])
            p += 1
            if p == 1:
                first_pass_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        run.traced = False
        if tracer is not None:
            tracer.uninstall()
        workload.finish(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    env = environment(args, root)
    results = root / ".perfbench_results"
    results.mkdir(exist_ok=True)
    if tracer is None:
        report = workloads.common_report(run)
        report.update(workload.report(run))
        setup_times += measure_setup(args, SETUP_REPEATS[1])
        report["setup_s"] = ("s", "lower", statistics.median(setup_times))
        report["peak_rss_mb"] = ("MB", "lower", first_pass_rss_mb)
        report["peak_rss_mb_all_passes"] = ("MB", "lower",
                                            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        wanted = spec["end_to_end"]
    else:
        report = layers.fill_absent(
            layers.per_layer_report(tracer, len(traced_wall), untraced_wall, traced_wall),
            spec["per_layer"])
        tracer.write(results / f"spans-{args.workload}.npz")
        wanted = spec["per_layer"]

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{run.attempted} operations, {run.failed} failed")
    print("environment: " + json.dumps(env, sort_keys=True))
    for name in sorted(report):
        unit, better, value = report[name][:3]
        extra = f" {json.dumps(report[name][3])}" if len(report[name]) > 3 else ""
        print(f"  {name} = {value} {unit} ({better} is better){extra}")
    workloads.log_errors(run)

    full = {"environment": env, "attempted": run.attempted, "failed": run.failed,
            "errors": run.errors, "pass_walls": run.samples.get("wall_s", []),
            "pass_yardstick_s": run.samples.get("pass_yardstick_s", []),
            "yardstick_s": {k: v for k, v in run.samples.items() if k.startswith("yardstick.")},
            "metrics": {k: {"value": v[2], "unit": v[0], "better": v[1],
                            **(v[3] if len(v) > 3 else {})} for k, v in report.items()}}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1, sort_keys=True) + "\n")

    metrics = {}
    missing = []
    for m in wanted:
        value = report.get(m["name"], (m["unit"], m["better"], None))[2]
        if value is None or not np.isfinite(value):
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for name in missing:
        print(f"perfbench: metric {name} has no value", file=sys.stderr)
    correct = run.failed == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
