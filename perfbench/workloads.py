"""The benchmark workloads, each a closed loop with one client.

A run repeats passes until its time is up. Pass ``p`` of a run with seed
``s`` draws its inputs from ``SeedSequence([s, p])`` only, so a seed fixes
every input of the run. The timed part of a pass is what a user waits for;
the checks on its outputs run after it, untimed, and every operation that
raises, returns a non-zero exit code, gives a non-finite value or fails a
check counts as failed. The benchmark's yardstick (``reference.Yardstick``)
is timed just before and after each timed block, and ``wall_ref`` is the
run's timed seconds over the yardstick seconds around them.

Library functions are always looked up through their module at call time,
so a traced run sees the benchmark's own calls as well as the library's.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from risalloc import allocation, bcd, brute, channel, cli, config, dataio, features, metrics, mlp

import reference

# Percentiles tried for a tail, highest first; a tail needs ten samples beyond it.
TAIL_LADDER = (99.0, 90.0, 50.0)
TAIL_BEYOND = 10
# The floor of acceptance criterion 04 on the median of binarized bcd utility
# over oracle utility. A run fails the check when a one-sided sign test
# rejects "the median ratio is at least the floor" at this level. Testing
# the raw sample median instead would fail by chance: 28 % of 60 toy
# instances sit below the floor, although their median is 0.97.
ORACLE_RATIO_FLOOR = 0.90
ORACLE_SIGN_TEST_LEVEL = 0.01


def derived_seed(*entropy) -> int:
    """A 31-bit seed (valid as a CLI flag) from the run seed and indices."""
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0] >> 1)


def per_sample_seed(seed: int, index: int) -> int:
    """Solver seed that `risalloc compare` uses for sample ``index``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, dtype=np.uint64)[0])


def tail(values):
    """(value, percentile, samples beyond it) for the highest ladder percentile
    with at least ten samples beyond it. Too few samples give the maximum,
    marked as percentile 100 with none beyond; no samples give None."""
    n = len(values)
    if n == 0:
        return None, None, 0
    for q in TAIL_LADDER:
        beyond = int(n - np.ceil(n * q / 100.0))
        if beyond >= TAIL_BEYOND:
            return float(np.percentile(values, q)), q, beyond
    return float(np.max(values)), 100.0, 0


def median(values):
    return float(np.median(values)) if len(values) else None


class Op:
    ok = True

    def check(self, ok):
        self.ok = self.ok and bool(ok)


class Run:
    """Operation counts and raw samples of one run."""

    def __init__(self, tracer, yardstick):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list] = {}
        self.traced = False
        self.yardstick = yardstick

    def add(self, key, value):
        self.samples.setdefault(key, []).append(value)

    def extend(self, key, values):
        self.samples.setdefault(key, []).extend(values)

    @contextlib.contextmanager
    def op(self, label):
        """One attempted operation; an exception or a failed check fails it."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_index = self.attempted
        op = Op()
        try:
            yield op
        except Exception:  # the benchmark must count a failure, not stop
            op.ok = False
            self.errors.append(f"{label}: {traceback.format_exc(limit=3)}")
        else:
            if not op.ok:
                self.errors.append(f"{label}: check failed")
        if not op.ok:
            self.failed += 1

    @contextlib.contextmanager
    def timed(self, key=None):
        """Time a block of the pass that a user waits for; trace it when tracing.

        The box gets the block's seconds as ``s`` and the mean yardstick
        time around it as ``yard``."""
        before = self.yardstick.seconds()
        if self.tracer is not None:
            self.tracer.recording = self.traced
        t0 = time.perf_counter()
        box = {}
        try:
            yield box
        finally:
            box["s"] = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.recording = False
            after = self.yardstick.seconds()
            for part in before:
                self.extend(f"yardstick.{part}_s", (before[part], after[part]))
            box["yard"] = 0.5 * (sum(before.values()) + sum(after.values()))
            if key is not None:
                self.add(key, box["s"])


def _ref_utility(ch, w, theta, xi, alpha, noise):
    th = theta.theta if hasattr(theta, "theta") else theta
    x = xi.xi if hasattr(xi, "xi") else xi
    return reference.utility(ch.h_direct, ch.g_ris, ch.h_rb, np.asarray(w), th, x, alpha, noise)


class DeskPipeline:
    """`risalloc generate → train → compare` on the desk profile, in-process.

    Training is capped at 20 epochs: the epoch at which early stopping ends
    a full run depends on the data (66 to 192 epochs over desk seeds 0-3),
    so an uncapped pass would measure the seed, not the code. Twenty is
    below the stopping patience, so every pass trains exactly 20 epochs.
    """

    name = "desk_pipeline"
    remade = 3
    yardstick_repeats = (400, 15)

    def __init__(self, seed, work_dir, smoke=False):
        self.seed = seed
        self.work = Path(work_dir)
        self.n_train, self.n_val, self.epochs = (8, 4, 2) if smoke else (200, 50, 20)
        self.noise = config.desk_config().noise_watts
        self.alpha = 1.0

    def run_pass(self, p, run: Run):
        base = self.work / "desk"
        ds, ckpt, table = base / "ds", base / "model.ckpt", base / "cmp.csv"
        ds_seed = derived_seed(self.seed, p)
        commands = {
            "generate": ["generate", "--profile", "desk", "--n-train", str(self.n_train),
                         "--n-val", str(self.n_val), "--seed", str(ds_seed), "--out", str(ds)],
            "train": ["train", "--data", str(ds), "--out", str(ckpt),
                      "--max-epochs", str(self.epochs)],
            "compare": ["compare", "--data", str(ds), "--scheme", "uniform", "--scheme", "bcd",
                        "--scheme", "nn+pca", "--model", str(ckpt), "--out", str(table)],
        }
        base.mkdir(parents=True, exist_ok=True)
        wall, yard = 0.0, []
        for cmd, argv in commands.items():
            rc = None
            with run.op(f"cli {cmd}") as op:
                sink = io.StringIO()
                with run.timed(f"cli.{cmd}_s") as t, contextlib.redirect_stdout(sink):
                    rc = cli.main(argv)
                op.check(rc == 0)
                wall += t["s"]
                yard.append(t["yard"])
            if rc != 0:
                return
        run.add("wall_s", wall)
        run.add("pass_yardstick_s", float(np.mean(yard)))
        run.add("train_s", run.samples["cli.train_s"][-1])
        run.add("generate_samples_per_s", (self.n_train + self.n_val) / run.samples["cli.generate_s"][-1])
        if not run.traced:
            self._verify(ds, ds_seed, ckpt, table, p, run)
        shutil.rmtree(base)

    def _verify(self, ds, ds_seed, ckpt, table, p, run: Run):
        """Re-read the dataset, re-solve the compared split and check both."""
        with run.op("desk load") as op:
            t0 = time.perf_counter()
            samples, manifest = dataio.load_dataset(ds)
            seconds = time.perf_counter() - t0
            size = sum((ds / n).stat().st_size for n in ("records.bin", "manifest.json"))
            run.add("load_mb_per_s", size / 1e6 / seconds)
            op.check(len(samples) == self.n_train + self.n_val)
        picks = np.random.default_rng([self.seed, p]).choice(len(samples), self.remade, replace=False)
        for idx in picks:
            with run.op("desk bit-exact reload") as op:
                again = dataio.make_sample(config.desk_config(), dataio.sample_seed(ds_seed, int(idx)))
                op.check(samples[idx].seed == again.seed and _same_bits(samples[idx], again))
        _, val = dataio.train_val_split(samples, manifest)
        model, pca, _ = mlp.load_checkpoint(ckpt)
        with open(table) as f:
            reported = {r["scheme"]: float(r["mean_utility"]) for r in csv.DictReader(f)}
        utils = {"uniform": [], "bcd": [], "nn+pca": []}
        for i, s in enumerate(val):
            ch, w = s.channels, s.w
            L = int(round(np.sqrt(ch.num_elements)))
            per = bcd.BcdOptions(seed=per_sample_seed(0, i))  # compare's default --seed 0
            with run.op("desk uniform") as op:
                fixed = allocation.uniform_contiguous(ch.num_users, L)
                theta, xi, trace = bcd.bcd_optimize(ch, w, self.alpha, self.noise, per, fixed_alloc=fixed)
                op.check(reference.monotone(trace.objectives) and reference.feasible(theta.theta, xi.xi))
                utils["uniform"].append(_ref_utility(ch, w, theta, xi, self.alpha, self.noise))
            with run.op("desk bcd") as op:
                t0 = time.perf_counter()
                theta, xi, trace = bcd.bcd_optimize(ch, w, self.alpha, self.noise, per)
                run.add("bcd_solve_ms", 1e3 * (time.perf_counter() - t0))
                run.extend("bcd_iter_ms", 1e3 * np.asarray(trace.seconds[1:]))
                op.check(reference.monotone(trace.objectives) and reference.feasible(theta.theta, xi.xi))
                utils["bcd"].append(_ref_utility(ch, w, theta, xi, self.alpha, self.noise))
            with run.op("desk nn+pca") as op:
                t0 = time.perf_counter()
                z = features.pca_transform(pca, features.flatten_features(ch))
                theta_b, xi_b, _ = mlp.mlp_forward(model, z, train_mode=False)
                alloc = allocation.project_feasible(xi_b[0])
                run.add("nn_infer_ms", 1e3 * (time.perf_counter() - t0))
                op.check(reference.feasible(theta_b[0], alloc.xi))
                utils["nn+pca"].append(_ref_utility(ch, w, theta_b[0], alloc, self.alpha, self.noise))
        with run.op("desk cmp.csv utilities") as op:
            for scheme, values in utils.items():
                op.check(reference.close(float(np.mean(values)), reported[scheme]))
        u = {k: np.asarray(v) for k, v in utils.items()}
        run.extend("bcd_gain", u["bcd"] - u["uniform"])
        run.extend("nn_gain", u["nn+pca"] - u["uniform"])

    def finish(self, run: Run):
        pass

    def report(self, run: Run) -> dict:
        return {
            "train_s": ("s", "lower", median(run.samples.get("train_s", []))),
            "generate_samples_per_s": ("1/s", "higher", median(run.samples.get("generate_samples_per_s", []))),
            "load_mb_per_s": ("MB/s", "higher", median(run.samples.get("load_mb_per_s", []))),
            "nn_infer_ms_p50": ("ms", "lower", median(run.samples.get("nn_infer_ms", []))),
            "bcd_gain_over_uniform": ("utility", "higher", _mean(run.samples.get("bcd_gain", []))),
            "nn_gain_over_uniform": ("utility", "higher", _mean(run.samples.get("nn_gain", []))),
        }


def toy_channels(rng, num_users=2, num_antennas=2, side=3):
    """O(1) complex Gaussian channels, the criterion-04 instance family."""
    n_elem = side * side

    def draw(shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    return channel.ChannelSet(
        h_direct=draw((num_users, num_antennas)), g_ris=draw((num_users, n_elem)),
        h_rb=draw((n_elem, num_antennas)), los_flags=np.ones((num_users, 2), dtype=bool),
        clamped=np.zeros((num_users, 2), dtype=bool), bs_ris_clamped=False)


class ToyOracle:
    """Solver against the exhaustive oracle on criterion-04 toy instances.

    A pass solves one instance. The solver runs its full budget of 200 outer
    iterations: it stops early only if an iteration leaves the objective
    exactly unchanged. With the default tolerance an instance stops anywhere
    from 27 iterations to the cap, so a pass would measure how soon the
    seed's instances converge rather than the code; the budget is the same
    cap, as the desk workload's epoch cap is below its patience.
    """

    name = "toy_oracle"
    yardstick_repeats = (600, 0)
    alpha = 0.5
    noise = 0.05
    nu = 8
    solver = bcd.BcdOptions(tol=float(np.finfo(float).tiny))

    def __init__(self, seed, work_dir, smoke=False):
        self.seed = seed
        self.inputs = self.pass_inputs(0)

    def pass_inputs(self, p):
        ch = toy_channels(np.random.default_rng([self.seed, p]))
        return ch, allocation.mrt_beamformers(ch, 1.0).w

    def run_pass(self, p, run: Run):
        ch, w = self.inputs if p == 0 else self.pass_inputs(p)
        wall, yard = 0.0, []
        with run.op("toy bcd") as op:
            with run.timed() as t:
                theta, xi, trace = bcd.bcd_optimize(ch, w, self.alpha, self.noise, self.solver)
            run.add("bcd_solve_ms", 1e3 * t["s"])
            wall += t["s"]
            yard.append(t["yard"])
            with run.timed() as t:
                hard = allocation.binarize(xi.xi)
                u_bcd = metrics.sum_utility(ch, theta, hard, w, self.alpha, self.noise)
            wall += t["s"]
            yard.append(t["yard"])
            run.extend("bcd_iter_ms", 1e3 * np.asarray(trace.seconds[1:]))
            op.check(reference.monotone(trace.objectives)
                      and reference.feasible(theta.theta, xi.xi)
                      and reference.feasible(theta.theta, hard.xi)
                      and reference.close(u_bcd, _ref_utility(ch, w, theta, hard, self.alpha, self.noise)))
        with run.op("toy brute") as op:
            with run.timed("brute_solve_s") as t:
                b_theta, b_alloc, u_brute = brute.brute_force(ch, w, self.alpha, self.noise, nu=self.nu)
            wall += t["s"]
            yard.append(t["yard"])
            if not run.traced:
                best = reference.exhaustive_best(ch.h_direct, ch.g_ris, ch.h_rb, w,
                                                 self.alpha, self.noise, self.nu)
                op.check(reference.feasible(b_theta.theta, b_alloc.xi)
                          and reference.close(u_brute, _ref_utility(ch, w, b_theta, b_alloc, self.alpha, self.noise))
                          and reference.close(u_brute, best) and u_brute > 0)
                run.add("bcd_over_brute", u_bcd / u_brute)
        run.add("wall_s", wall)
        run.add("pass_yardstick_s", float(np.mean(yard)))

    def finish(self, run: Run):
        ratios = run.samples.get("bcd_over_brute", [])
        with run.op("toy bcd/brute median ratio") as op:
            n = len(ratios)
            above = sum(r >= ORACLE_RATIO_FLOOR for r in ratios)
            p_value = sum(math.comb(n, i) for i in range(above + 1)) / 2 ** n
            op.check(n > 0 and p_value >= ORACLE_SIGN_TEST_LEVEL)

    def report(self, run: Run) -> dict:
        return {
            "brute_solve_s_p50": ("s", "lower", median(run.samples.get("brute_solve_s", []))),
            "bcd_over_brute_median": ("ratio", "higher", median(run.samples.get("bcd_over_brute", []))),
        }


def _same_bits(a, b) -> bool:
    pairs = [(a.deployment.ue_positions, b.deployment.ue_positions),
             (a.deployment.blockages, b.deployment.blockages),
             (a.channels.h_direct, b.channels.h_direct), (a.channels.g_ris, b.channels.g_ris),
             (a.channels.h_rb, b.channels.h_rb), (a.channels.los_flags, b.channels.los_flags),
             (a.channels.clamped, b.channels.clamped), (np.asarray(a.w), np.asarray(b.w))]
    return (a.channels.bs_ris_clamped == b.channels.bs_ris_clamped
            and all(x.shape == y.shape and np.asarray(x, dtype=y.dtype).tobytes() == y.tobytes()
                    for x, y in pairs))


def _ratio_of_sums(num, den):
    return float(np.sum(num) / np.sum(den)) if len(num) and len(num) == len(den) else None


def _mean(values):
    return float(np.mean(values)) if len(values) else None


WORKLOADS = {w.name: w for w in (DeskPipeline, ToyOracle)}


def common_report(run: Run) -> dict:
    """Metrics every workload reports, besides setup_s and peak_rss_mb."""
    solve = run.samples.get("bcd_solve_ms", [])
    iters = run.samples.get("bcd_iter_ms", [])
    solve_tail, solve_q, solve_n = tail(solve)
    iter_tail, iter_q, iter_n = tail(iters)
    return {
        "wall_s": ("s", "lower", median(run.samples.get("wall_s", []))),
        "wall_ref": ("ref", "lower", _ratio_of_sums(run.samples.get("wall_s", []),
                                                     run.samples.get("pass_yardstick_s", []))),
        "failed_frac": ("failed/attempted", "lower", run.failed / max(run.attempted, 1)),
        "bcd_solve_ms_p50": ("ms", "lower", median(solve)),
        "bcd_solve_ms_tail": ("ms", "lower", solve_tail,
                              {"percentile": solve_q, "beyond": solve_n, "samples": len(solve)}),
        "bcd_iter_ms_p50": ("ms", "lower", median(iters)),
        "bcd_iter_ms_tail": ("ms", "lower", iter_tail,
                             {"percentile": iter_q, "beyond": iter_n, "samples": len(iters)}),
    }


def log_errors(run: Run, limit=5):
    for err in run.errors[:limit]:
        print(err, file=sys.stderr)
