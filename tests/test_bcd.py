import json

import numpy as np
import pytest

import oracles
from risalloc import (Allocation, BcdOptions, ScenarioConfig, bcd_optimize, binarize,
                      brute_force, desk_config, load_dataset, make_sample, mrt_beamformers,
                      objective_value_and_gradients, sample_seed, sum_utility,
                      uniform_contiguous)
from risalloc.allocation import _project_columns
from risalloc.bcd import _line_ascend
from risalloc.cli import main

NOISE = 0.05


def _fd_check(ch, w, alpha, theta, xi, rel=1e-4, eps=1e-6):
    value, dtheta, dxi = objective_value_and_gradients(
        ch, theta, Allocation(xi), w, alpha, NOISE)

    def val(th, xa):
        v, _, _ = objective_value_and_gradients(ch, th, Allocation(xa), w, alpha, NOISE)
        return v

    for i in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += eps
        tm[i] -= eps
        fd = (val(tp, xi) - val(tm, xi)) / (2 * eps)
        assert dtheta[i] == pytest.approx(fd, rel=rel, abs=1e-9)
    for k in range(xi.shape[0]):
        for c in range(xi.shape[1]):
            xp, xm = xi.copy(), xi.copy()
            xp[k, c] += eps
            xm[k, c] -= eps
            fd = (val(theta, xp) - val(theta, xm)) / (2 * eps)
            assert dxi[k, c] == pytest.approx(fd, rel=rel, abs=1e-9)
    return value


def test_gradients_single_element():
    ch = oracles.toy_channels(num_users=1, num_antennas=1, side=1, seed=0)
    w = mrt_beamformers(ch, 1.0).w
    theta = np.array([1.1])
    xi = np.array([[0.7]])
    _fd_check(ch, w, 1.0, theta, xi)


def test_gradients_small_instance_every_coordinate():
    rng = np.random.default_rng(1)
    for trial in range(3):
        ch = oracles.toy_channels(num_users=2, num_antennas=2, side=2, seed=20 + trial)
        w = mrt_beamformers(ch, 1.0).w
        theta = rng.uniform(0.1, np.pi - 0.1, 4)
        xi = rng.uniform(0.1, 0.45, (2, 2))
        for alpha in (0.5, 1.0, 2.0):
            _fd_check(ch, w, alpha, theta, xi)


def test_gradient_zero_when_surface_severed():
    ch = oracles.toy_channels(seed=2)
    w = mrt_beamformers(ch, 1.0).w
    _, dtheta, _ = objective_value_and_gradients(ch, np.full(4, 0.5), Allocation(np.zeros((2, 2))),
                                                 w, 1.0, NOISE)
    assert np.all(dtheta == 0.0)


def test_gradient_zero_in_floored_rate_region():
    # a user with a zero channel sits on the rate floor; its gradient path is cut
    ch = oracles.toy_channels(seed=3)
    ch.h_direct[1] = 0.0
    ch.g_ris[1] = 0.0
    w = np.zeros((2, 2), dtype=complex)
    w[0] = mrt_beamformers(oracles.toy_channels(seed=3), 1.0).w[0]
    value, dtheta, dxi = objective_value_and_gradients(
        ch, np.full(4, 0.2), Allocation(np.full((2, 2), 0.2)), w, 2.0, NOISE)
    assert np.isfinite(value)
    assert np.all(np.isfinite(dtheta)) and np.all(np.isfinite(dxi))


def test_objective_requires_positive_noise():
    ch = oracles.toy_channels(seed=4)
    w = mrt_beamformers(ch, 1.0).w
    with pytest.raises(ValueError):
        objective_value_and_gradients(ch, np.zeros(4), Allocation(np.zeros((2, 2))),
                                      w, 1.0, 0.0)


def test_bcd_trace_monotone_and_feasible():
    for seed in range(4):
        ch = oracles.toy_channels(seed=40 + seed)
        w = mrt_beamformers(ch, 1.0).w
        theta, xi, trace = bcd_optimize(ch, w, 1.0, NOISE, BcdOptions(seed=seed))
        obj = np.asarray(trace.objectives)
        assert np.all(np.diff(obj) >= -1e-9)
        assert np.all((theta.theta >= 0.0) & (theta.theta <= np.pi))
        xi.validate()
        assert len(trace.seconds) == len(trace.objectives)


def test_bcd_improves_from_start():
    ch = oracles.toy_channels(seed=50)
    w = mrt_beamformers(ch, 1.0).w
    _, _, trace = bcd_optimize(ch, w, 1.0, NOISE, BcdOptions(seed=1))
    assert trace.objectives[-1] > trace.objectives[0]


def test_bcd_fixed_allocation_stays_pinned():
    ch = oracles.toy_channels(num_users=2, side=2, seed=51)
    w = mrt_beamformers(ch, 1.0).w
    fixed = uniform_contiguous(2, 2)
    theta, xi, trace = bcd_optimize(ch, w, 1.0, NOISE, BcdOptions(seed=2),
                                    fixed_alloc=fixed)
    assert np.array_equal(xi.xi, fixed.xi)
    assert np.all(np.diff(trace.objectives) >= -1e-9)


def test_bcd_stops_immediately_without_surface_signal():
    ch = oracles.toy_channels(seed=52)
    ch.g_ris[:] = 0.0
    w = mrt_beamformers(ch, 1.0).w
    fixed = uniform_contiguous(2, 2)
    _, _, trace = bcd_optimize(ch, w, 1.0, NOISE, BcdOptions(seed=0), fixed_alloc=fixed)
    assert len(trace.objectives) == 2  # start plus one confirming iteration
    assert trace.objectives[0] == pytest.approx(trace.objectives[1], abs=1e-15)


def test_bcd_single_user_single_column_assigns():
    ch = oracles.toy_channels(num_users=1, num_antennas=2, side=1, seed=53)
    w = mrt_beamformers(ch, 1.0).w
    theta, xi, _ = bcd_optimize(ch, w, 1.0, NOISE, BcdOptions(seed=3))
    hard = binarize(xi.xi)
    assert hard.xi.tolist() == [[1.0]]
    # exhaustive reference: assignment is weakly optimal over the grid
    _, brute_alloc, brute_val = brute_force(ch, w, 1.0, NOISE, nu=8)
    assert brute_alloc.xi.tolist() == [[1.0]]
    assert sum_utility(ch, theta, hard, w, 1.0, NOISE) >= brute_val - 1e-6


def test_bcd_tolerance_ordering():
    ch = oracles.toy_channels(seed=54)
    w = mrt_beamformers(ch, 1.0).w
    loose = bcd_optimize(ch, w, 1.0, NOISE, BcdOptions(tol=1e-3, seed=4))[2]
    tight = bcd_optimize(ch, w, 1.0, NOISE, BcdOptions(tol=1e-7, seed=4))[2]
    assert len(loose.objectives) <= len(tight.objectives)


def test_bcd_deterministic_per_seed():
    ch = oracles.toy_channels(seed=55)
    w = mrt_beamformers(ch, 1.0).w
    a = bcd_optimize(ch, w, 1.0, NOISE, BcdOptions(seed=5))
    b = bcd_optimize(ch, w, 1.0, NOISE, BcdOptions(seed=5))
    assert np.array_equal(a[0].theta, b[0].theta)
    assert np.array_equal(a[1].xi, b[1].xi)
    assert a[2].objectives == b[2].objectives


def test_bcd_aborts_on_non_finite_channels():
    ch = oracles.toy_channels(seed=56)
    ch.h_direct[0, 0] = np.inf
    w = mrt_beamformers(oracles.toy_channels(seed=56), 1.0).w
    with np.errstate(invalid="ignore"), pytest.raises(RuntimeError):
        bcd_optimize(ch, w, 1.0, NOISE, BcdOptions(seed=0))


def test_trace_csv_format(tmp_path):
    scenario = ScenarioConfig(n_bs_antennas=2, ris_side=2, num_ues=2)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"scenario": scenario.to_dict()}))
    data = tmp_path / "ds"
    assert main(["generate", "--config", str(cfg), "--n-train", "1", "--n-val", "1",
                 "--seed", "57", "--out", str(data)]) == 0
    out = tmp_path / "run"
    assert main(["bcd", "--data", str(data), "--max-outer-iters", "3", "--tol", "1e-12",
                 "--seed", "6", "--out", str(out)]) == 0
    samples, manifest = load_dataset(data)
    _, _, trace = bcd_optimize(samples[0].channels, samples[0].w, 1.0,
                               manifest.config.noise_watts,
                               BcdOptions(max_outer_iters=3, tol=1e-12, seed=6))
    lines = (out / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "iteration,objective,seconds"
    assert len(lines) == len(trace.objectives) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(trace.objectives[0])


@pytest.mark.parametrize("block,sign,step0,first,trials", [
    (0, 1.0, 0.1, 1, 1),      # accepted at the first trial
    (1, 1.0, 100.0, 6, 4),    # inside the first call, columns on the simplex face
    (1, 1.0, 300.0, 2, 6),    # inside the second call, columns on the simplex face
    (0, -1.0, 0.1, 1, 30),    # every trial rejected, over both calls
    (1, -1.0, 0.1, 30, 30),   # every trial rejected in one call
    (0, 0.0, 0.1, 1, 1),      # zero gradient: the trial is the point itself
])
def test_stacked_line_search_matches_serial(block, sign, step0, first, trials):
    ch = oracles.toy_channels(num_users=2, num_antennas=2, side=3, seed=4000)
    w = mrt_beamformers(ch, 1.0).w
    point = [np.random.default_rng(0).uniform(0.0, np.pi, 9), np.full((2, 3), 0.5)]
    f_x, *grads = objective_value_and_gradients(ch, *point, w, 0.5, NOISE)
    grads[block] = sign * grads[block]
    project = [lambda t: np.clip(t, 0.0, np.pi), lambda x: _project_columns(x)[0]][block]

    def at(z):
        return [z, point[1]] if block == 0 else [point[0], z]

    ladder = np.cumprod([step0] + [0.5] * 29)
    got, f_got, g_got, n_got = _line_ascend(
        point[block], f_x, grads, block, project,
        lambda z: objective_value_and_gradients(ch, *at(z), w, 0.5, NOISE), ladder, first)
    ref, f_ref, n_ref = oracles.line_ascend_serial(
        point[block], grads[block], project, lambda z: sum_utility(ch, *at(z), w, 0.5, NOISE),
        f_x, step0)
    assert n_got == n_ref == trials
    assert got.tobytes() == ref.tobytes() and f_got == f_ref
    g_ref = grads if trials == 30 else objective_value_and_gradients(ch, *at(ref), w, 0.5, NOISE)[1:]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(g_got, g_ref))
    if block == 1 and sign > 0:
        assert _project_columns(point[1] + ladder[trials - 1] * grads[1])[1].any()


def _same_solve(got, ref):
    theta, xi, trace = got
    return (theta.theta.tobytes(), xi.xi.tobytes(), trace.objectives) == \
        (ref[0].tobytes(), ref[1].tobytes(), ref[2])


def _check_against_serial(ch, w, alpha, noise, fixed):
    assert _same_solve(bcd_optimize(ch, w, alpha, noise), oracles.bcd_serial(ch, w, alpha, noise))
    assert _same_solve(bcd_optimize(ch, w, alpha, noise, fixed_alloc=fixed),
                       oracles.bcd_serial(ch, w, alpha, noise, fixed_alloc=fixed))


@pytest.mark.parametrize("seed", range(4000, 4020))
def test_bcd_matches_serial_reference_on_criterion_04_seeds(seed):
    # default options, as criterion 04 runs them; 12 of these 20 seeds use the full budget
    ch = oracles.toy_channels(num_users=2, num_antennas=2, side=3, seed=seed)
    _check_against_serial(ch, mrt_beamformers(ch, 1.0).w, 0.5, NOISE, uniform_contiguous(2, 3))


def test_bcd_matches_serial_reference_on_a_desk_sample():
    config = desk_config()
    s = make_sample(config, sample_seed(0, 3))
    _check_against_serial(s.channels, s.w, 1.0, config.noise_watts, uniform_contiguous(3, 8))
