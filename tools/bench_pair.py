"""Paired benchmark runs of two risalloc checkouts, summarised as one JSON file.

For every seed, run ``perfbench/run.py --trace 0`` once in each checkout, for
the ``run_seconds`` that the parent's BENCHMARK.json sets, one after the
other, alternating which side goes first (the first seed starts with the
parent). Each run's end-to-end metrics come from the
JSON line it prints last. The result records every pair, each side's median
and quartiles, and per metric how many pairs the change won.

    python3 tools/bench_pair.py PARENT_DIR CHANGE_DIR --workload desk_pipeline \\
        --seeds 7919 1 2 3 4 5 6 7 8 9 --out BENCH_14.json

The output file holds one entry per workload; a run for another workload
adds its entry and keeps the others. Only the standard library is used.

A gain on a metric holds when the change wins at least nine tenths of the
pairs (ties count for neither side), the medians differ, in the better
direction, by more than the parent's interquartile range, and the change
fails no more operations in total than the parent. Quartiles are
``statistics.quantiles(values, n=4)`` (the exclusive method).

A metric holds its ground when the change's median is worse than the
parent's by no more than the metric's ``bound`` in BENCHMARK.json, taken
as a fraction of the parent's median, and the change fails no more
operations in total than the parent. This is the no-regression half of
the benchmark's gate; it is reported for every metric as ``within_bound``.

A metric is ``resolved`` when the parent's interquartile range is no wider
than that bound (``bound`` times the parent's median). When it is wider,
"within bound" cannot be told apart from the parent's own run-to-run noise.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--out", type=Path, required=True, help="JSON file to write or extend")
    return p.parse_args(argv)


def source_digest(root: Path) -> str:
    """sha256 over the paths and bytes of every .py file under src/."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    run_s = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pair: {root}: {' '.join(cmd)} exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    report = json.loads((root / ".perfbench_results"
                         / f"{workload}-seed{seed}-trace0.json").read_text())
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "run_s": round(run_s, 1),
            "environment": report["environment"]}


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(pairs, metric: str, better: str, bound: float, failed: dict) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    sides = {s: [p[s]["metrics"][metric] for p in pairs] for s in SIDES}
    stats = {s: summarise(v) for s, v in sides.items()}
    # a positive gain is an improvement, whichever direction is better
    gains = [sign * (a - b) for a, b in zip(sides["parent"], sides["change"])]
    wins = sum(g > 0 for g in gains)
    losses = sum(g < 0 for g in gains)
    median_gain = sign * (stats["parent"]["median"] - stats["change"]["median"])
    parent_iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
    no_more_failures = failed["change"] <= failed["parent"]
    allowed = bound * abs(stats["parent"]["median"])
    return {"better": better, **stats,
            "change_over_parent_median": stats["change"]["median"] / stats["parent"]["median"],
            "wins": wins, "losses": losses, "ties": len(pairs) - wins - losses,
            "parent_iqr": parent_iqr, "bound": bound,
            "within_bound": -median_gain <= allowed and no_more_failures,
            "resolved": parent_iqr <= allowed,
            "gain_holds": (wins >= 0.9 * len(pairs) and median_gain > parent_iqr
                           and no_more_failures)}


def main(argv=None) -> int:
    args = parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["parent"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(roots[side], args.workload, seed, seconds)
            print(f"{args.workload} seed {seed} {side}: {pair[side]['metrics']} "
                  f"failed {pair[side]['failed']}", flush=True)
        pairs.append(pair)

    failed = {s: sum(p[s]["failed"] for p in pairs) for s in SIDES}
    entry = {"command": f"perfbench/run.py --workload {args.workload} --seed <seed> "
                        f"--seconds {seconds:g} --trace 0",
             "source_sha256": {s: source_digest(r) for s, r in roots.items()},
             "failed": failed,
             "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in SIDES},
             "metrics": {m["name"]: compare(pairs, m["name"], m["better"], m["bound"], failed)
                         for m in spec["end_to_end"]},
             "pairs": pairs}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    doc["workloads"][args.workload] = entry
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name, stats in entry["metrics"].items():
        print(f"{args.workload} {name}: parent {stats['parent']['median']:.4g} "
              f"change {stats['change']['median']:.4g} wins {stats['wins']}/{len(pairs)} "
              f"gain holds: {stats['gain_holds']} within bound: {stats['within_bound']} "
              f"resolved: {stats['resolved']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
