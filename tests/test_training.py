import numpy as np
import pytest

import oracles
from risalloc import (Deployment, PhaseConfig, PlateauScheduler, Sample,
                      TrainOptions, mrt_beamformers, nn_loss, nn_loss_and_grads,
                      objective_value_and_gradients, project_feasible,
                      project_feasible_with_vjp, sum_utility, train)

NOISE = 0.05


def toy_sample(seed):
    ch = oracles.toy_channels(seed=seed)
    w = mrt_beamformers(ch, 1.0).w
    dep = Deployment(np.zeros((2, 3)), np.zeros((0, 5)))
    return Sample(seed=seed, deployment=dep, channels=ch, w=w)


def test_loss_single_sample_is_negated_utility():
    s = toy_sample(0)
    rng = np.random.default_rng(1)
    theta = rng.uniform(0, np.pi, size=4)
    xi_raw = rng.uniform(0, 1, size=(2, 2))
    loss = nn_loss(theta[None], xi_raw[None], [s.channels], [s.w], alpha=1.0,
                   noise_linear=NOISE)
    util = sum_utility(s.channels, PhaseConfig(theta), project_feasible(xi_raw),
                       s.w, alpha=1.0, noise_linear=NOISE)
    assert loss == pytest.approx(-util, rel=1e-12)


def test_loss_batch_mean_of_duplicates():
    s = toy_sample(2)
    theta = np.full(4, 0.3)
    xi = np.full((2, 2), 0.4)
    one = nn_loss(theta[None], xi[None], [s.channels], [s.w], 2.0, NOISE)
    three = nn_loss(np.tile(theta, (3, 1)), np.tile(xi, (3, 1, 1)),
                    [s.channels] * 3, [s.w] * 3, 2.0, NOISE)
    assert three == pytest.approx(one, rel=1e-12)


def test_loss_batch_size_mismatch():
    s = toy_sample(3)
    with pytest.raises(ValueError):
        nn_loss_and_grads(np.zeros((2, 4)), np.zeros((1, 2, 2)),
                          [s.channels], [s.w], 1.0, NOISE)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_loss_gradients_match_finite_differences(alpha):
    samples = [toy_sample(s) for s in (4, 5)]
    chs = [s.channels for s in samples]
    ws = [s.w for s in samples]
    rng = np.random.default_rng(6)
    theta = rng.uniform(0.1, np.pi - 0.1, size=(2, 4))
    # keep the raw shares strictly inside the projection's smooth region
    xi = rng.uniform(0.05, 0.4, size=(2, 2, 2))
    loss, dt, dx = nn_loss_and_grads(theta, xi, chs, ws, alpha, NOISE)
    eps = 1e-6
    for arr, grad in ((theta, dt), (xi, dx)):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = arr[idx]
            arr[idx] = keep + eps
            lp = nn_loss(theta, xi, chs, ws, alpha, NOISE)
            arr[idx] = keep - eps
            lm = nn_loss(theta, xi, chs, ws, alpha, NOISE)
            arr[idx] = keep
            fd = (lp - lm) / (2 * eps)
            assert abs(grad[idx] - fd) <= 1e-5 * max(1.0, abs(fd))


def test_scheduler_improvement_resets():
    s = PlateauScheduler(0.01, decay=0.33, lr_patience=3, stop_patience=5)
    assert s.update(1.0) == (True, False, False)
    assert s.update(1.2) == (False, False, False)
    assert s.update(1.1) == (False, False, False)
    assert s.update(0.9) == (True, False, False)   # strict improvement resets
    assert s.lr_wait == 0 and s.stop_wait == 0
    assert s.update(0.9) == (False, False, False)  # equal is not improvement


def test_scheduler_decay_and_stop_timing():
    s = PlateauScheduler(1.0, decay=0.33, lr_patience=10, stop_patience=40)
    s.update(1.0)
    for i in range(1, 40):
        improved, decayed, stop = s.update(1.0 + i)
        assert not improved and not stop
        assert decayed == (i % 10 == 0)
    improved, decayed, stop = s.update(100.0)
    assert stop and decayed   # 40th miss is also the 4th decay point
    assert s.learning_rate == pytest.approx(0.33 ** 4, rel=1e-12)


def test_scheduler_validation():
    with pytest.raises(ValueError):
        PlateauScheduler(0.01, decay=0.33, lr_patience=0, stop_patience=40)
    with pytest.raises(ValueError):
        PlateauScheduler(0.01, decay=1.0, lr_patience=10, stop_patience=40)


@pytest.mark.parametrize("bad", [
    dict(batch_size=1), dict(max_epochs=0), dict(learning_rate=0.0),
    dict(alpha=0.0),
])
def test_train_options_validation(bad):
    with pytest.raises(ValueError):
        TrainOptions(**bad)


def _fit(seed=0, epochs=30):
    train_set = [toy_sample(100 + i) for i in range(16)]
    val_set = [toy_sample(900 + i) for i in range(4)]
    opts = TrainOptions(alpha=1.0, learning_rate=0.01, batch_size=8,
                        max_epochs=epochs, hidden=(16, 16, 16, 16),
                        use_pca=False, seed=seed)
    return train(train_set, val_set, NOISE, opts), train_set, val_set


def test_train_overfits_small_set():
    result, _, _ = _fit(epochs=200)
    losses = [row["train_loss"] for row in result.history]
    assert losses[-1] < losses[0]
    assert result.best_val_loss <= result.history[0]["val_loss"]
    assert result.best_epoch == min(
        range(len(result.history)), key=lambda i: result.history[i]["val_loss"])


def test_train_history_contract():
    result, _, _ = _fit(epochs=12)
    assert len(result.history) == 12
    for i, row in enumerate(result.history):
        assert row["epoch"] == i
        assert set(row) == {"epoch", "train_loss", "val_loss", "learning_rate"}
        assert np.isfinite(row["train_loss"]) and np.isfinite(row["val_loss"])
    assert result.history[0]["learning_rate"] == 0.01


def test_train_deterministic():
    r1, _, _ = _fit(seed=3, epochs=8)
    r2, _, _ = _fit(seed=3, epochs=8)
    assert r1.history == r2.history
    for a, b in zip(r1.model.weights, r2.model.weights):
        assert np.array_equal(a, b)


def test_train_seed_changes_trajectory():
    r1, _, _ = _fit(seed=0, epochs=4)
    r2, _, _ = _fit(seed=1, epochs=4)
    assert r1.history != r2.history


def test_train_requires_minimum_samples():
    val = [toy_sample(1)]
    with pytest.raises(ValueError):
        train([toy_sample(0)], val, NOISE, TrainOptions(max_epochs=1, use_pca=False))
    with pytest.raises(ValueError):
        train([toy_sample(0), toy_sample(2)], [], NOISE,
              TrainOptions(max_epochs=1, use_pca=False))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_batched_loss_and_grads_match_per_sample_loop(alpha):
    samples = [toy_sample(seed) for seed in range(5)]
    chs, ws = [s.channels for s in samples], [s.w for s in samples]
    rng = np.random.default_rng(3)
    theta = rng.uniform(0, np.pi, size=(5, 4))
    xi = rng.normal(0.4, 0.6, size=(5, 2, 2))
    loss, d_theta, d_xi = nn_loss_and_grads(theta, xi, chs, ws, alpha, NOISE)

    ref_loss, ref_theta, ref_xi = 0.0, np.zeros_like(theta), np.zeros_like(xi)
    for q in range(5):
        proj, vjp = project_feasible_with_vjp(xi[q])
        value, g_theta, g_xi = objective_value_and_gradients(chs[q], theta[q], proj, ws[q], alpha, NOISE)
        ref_loss -= value / 5
        ref_theta[q] = -g_theta / 5
        ref_xi[q] = -vjp(g_xi) / 5
    assert loss == ref_loss
    assert d_theta.tobytes() == ref_theta.tobytes()
    assert d_xi.tobytes() == ref_xi.tobytes()
    assert nn_loss(theta, xi, chs, ws, alpha, NOISE) == loss
