import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from risalloc import (Allocation, BcdOptions, ScenarioConfig, bcd_optimize, bcd_optimize_many,
                      binarize, brute_force, desk_config, load_dataset, make_sample,
                      mrt_beamformers, objective_value_and_gradients, sample_seed, sum_utility,
                      uniform_contiguous)
from risalloc import allocation as allocation_module
from risalloc import bcd as bcd_module
from risalloc.allocation import _simplex_columns
from risalloc.bcd import _line_ascend
from risalloc.cli import _per_sample_seed, main
from risalloc.metrics import _bind, _map_bytes

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
    (2, 1.0, 1.0, 1, 2),      # Frank-Wolfe toward the vertex, unprojected: second call
])
def test_stacked_line_search_matches_serial(block, sign, step0, first, trials):
    # block 0 moves the phases, 1 the shares along their gradient, 2 the shares
    # toward the vertex s, as bcd_optimize does
    ch = oracles.toy_channels(num_users=2, num_antennas=2, side=3, seed=4000)
    w = mrt_beamformers(ch, 1.0).w
    point = [np.random.default_rng(0).uniform(0.0, np.pi, 9), np.full((2, 3), 0.5)]
    f_x, *grads = objective_value_and_gradients(ch, *point, w, 0.5, NOISE)
    moving = min(block, 1)
    grads[moving] = sign * grads[moving]
    direction = grads[moving]
    if block == 2:
        stacked, go = bcd_module._vertex_direction(point[1][None], grads[1][None])
        direction = stacked[0]
        ref_direction = oracles.vertex_direction_serial(point[1], grads[1])
        assert go.tolist() == [True] and direction.tobytes() == ref_direction.tobytes()
    project = [lambda t: np.clip(t, 0.0, np.pi), lambda x: _simplex_columns(x)[0],
               lambda x: x][block]

    def at(z):
        return [z, point[1]] if moving == 0 else [point[0], z]

    def score(trials, rows):  # a stack of one drop: trials (T, 1, ...)
        return [out[:, None] for out in
                objective_value_and_gradients(ch, *at(trials[:, 0]), w, 0.5, NOISE)]

    ladder = np.cumprod([step0] + [0.5] * 29)
    _, ok, got, f_got, *g_got, n_got, longest = _line_ascend(
        point[moving][None], np.array([f_x]), direction[None], project, score, ladder, first)
    got, f_got, n_got = got[0], f_got[0], n_got[0]
    assert longest == n_got
    ref, f_ref, n_ref = oracles.line_ascend_serial(
        point[moving], direction, project, lambda z: sum_utility(ch, *at(z), w, 0.5, NOISE),
        f_x, step0)
    assert n_got == n_ref == trials
    assert got.tobytes() == ref.tobytes() and f_got == f_ref
    assert ok.tolist() == [trials < 30]  # with nothing accepted, no outputs to hand on
    if trials < 30:
        g_ref = objective_value_and_gradients(ch, *at(ref), w, 0.5, NOISE)[1:]
        assert all(a[0].tobytes() == b.tobytes() for a, b in zip(g_got, g_ref, strict=True))
    if block == 1 and sign > 0:
        assert _simplex_columns(point[1] + ladder[trials - 1] * grads[1])[1].any()
    if block == 2:  # every Frank-Wolfe trial is feasible as it stands
        Allocation(got).validate()


def _same_solve(got, ref):
    theta, xi, trace = got
    return (theta.theta.tobytes(), xi.xi.tobytes(), trace.objectives) == \
        (ref[0].tobytes(), ref[1].tobytes(), ref[2])


def _criterion_04_instance(seed):
    ch = oracles.toy_channels(num_users=2, num_antennas=2, side=3, seed=seed)
    return ch, mrt_beamformers(ch, 1.0).w


@pytest.fixture(scope="module")
def criterion_04_solves():
    """Criterion 04's 40 solves at default options, run once for the tests
    below: seed -> (fixed allocation, solve, kernel calls it made) for the
    free and then the pinned allocation."""
    calls = []
    kernel = bcd_module.objective_value_and_gradients
    solves = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bcd_module, "objective_value_and_gradients",
                      lambda *args: calls.append(None) or kernel(*args))
        for seed in range(4000, 4020):
            ch, w = _criterion_04_instance(seed)
            solves[seed] = []
            for fixed in (None, uniform_contiguous(2, 3)):
                calls.clear()
                solve = bcd_optimize(ch, w, 0.5, NOISE, fixed_alloc=fixed)
                solves[seed].append((fixed, solve, len(calls)))
    return solves


@pytest.mark.parametrize("seed", range(4000, 4020))
def test_bcd_matches_serial_reference_on_criterion_04_seeds(criterion_04_solves, seed):
    # default options, as criterion 04 runs them; 12 of these 20 seeds use the full budget
    ch, w = _criterion_04_instance(seed)
    for fixed, solve, _ in criterion_04_solves[seed]:
        assert _same_solve(solve, oracles.bcd_serial(ch, w, 0.5, NOISE, fixed_alloc=fixed))


def test_bcd_matches_serial_reference_on_a_desk_sample():
    config = desk_config()
    s = make_sample(config, sample_seed(0, 3))
    for fixed in (None, uniform_contiguous(3, 8)):
        assert _same_solve(
            bcd_optimize(s.channels, s.w, 1.0, config.noise_watts, fixed_alloc=fixed),
            oracles.bcd_serial(s.channels, s.w, 1.0, config.noise_watts, fixed_alloc=fixed))


def test_bcd_line_searches_cost_about_one_kernel_call(criterion_04_solves):
    # criterion 04's 40 solves; a nominal search is one of the inner steps of
    # each block of each outer iteration
    total_calls = total_searches = 0
    free = []  # (kernel calls per outer iteration, seed, calls, searches)
    for seed, runs in criterion_04_solves.items():
        for fixed, solve, calls in runs:
            iterations = len(solve[2].objectives) - 1
            blocks = 2 if fixed is None else 1
            searches = iterations * BcdOptions().inner_steps_per_block * blocks
            total_calls += calls
            total_searches += searches
            if fixed is None:
                free.append((calls / iterations, seed, calls, searches))
    assert total_calls <= 1.1 * total_searches
    # The free solve with the fewest calls per outer iteration, whose sweeps
    # end earliest: some at the share vertex, where the serial solver stops
    # too, others at a search that accepts nothing, after which the serial
    # solver, which never stops early, keeps scoring the same rejected
    # trials. The two agree.
    _, seed, calls, searches = min(free)
    assert calls < searches
    ch, w = _criterion_04_instance(seed)
    assert _same_solve(criterion_04_solves[seed][0][1], oracles.bcd_serial(ch, w, 0.5, NOISE))


def _desk_val_drop(j):
    """Desk seed-0 validation drop j and the solver options ``compare``
    gives it."""
    config = desk_config()
    s = make_sample(config, sample_seed(0, 200 + j))  # after the 200 training drops
    return s, config.noise_watts, BcdOptions(seed=_per_sample_seed(0, j))


@pytest.fixture(scope="module")
def desk_val_solves():
    """bcd on desk seed-0 validation drops 0-9, as ``compare`` runs it."""
    solves = []
    for j in range(10):
        s, noise, opts = _desk_val_drop(j)
        solves.append((s, noise, bcd_optimize(s.channels, s.w, 1.0, noise, opts)))
    return solves


def test_bcd_share_answers_are_feasible_and_vertices_binarize_to_themselves(
        criterion_04_solves, desk_val_solves):
    toy = [runs[0][1][1].xi for runs in criterion_04_solves.values()]
    desk = [xi.xi for _, _, (_, xi, _) in desk_val_solves]
    for xi in toy + desk:
        Allocation(xi).validate()
        if np.isin(xi, (0.0, 1.0)).all():
            assert binarize(xi).xi.tobytes() == xi.tobytes()
    assert all(np.isin(xi, (0.0, 1.0)).all() for xi in desk)  # every desk solve ends at a vertex


def test_bcd_binarized_answer_beats_the_surface_off_on_desk(desk_val_solves):
    for s, noise, (theta, xi, _) in desk_val_solves:
        hard = sum_utility(s.channels, theta, binarize(xi.xi), s.w, 1.0, noise)
        off = sum_utility(s.channels, theta, Allocation(np.zeros_like(xi.xi)), s.w, 1.0, noise)
        assert hard > off


def test_bcd_never_projects_the_shares(monkeypatch):
    def refuse(*args):
        raise AssertionError("the simplex projection ran")

    monkeypatch.setattr(allocation_module, "_simplex_columns", refuse)
    monkeypatch.setattr(bcd_module, "_simplex_columns", refuse, raising=False)
    bcd_optimize(*_criterion_04_instance(4000), 0.5, NOISE)
    s, noise, opts = _desk_val_drop(0)
    bcd_optimize(s.channels, s.w, 1.0, noise, opts)


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (2, 4), (1, 3)])
def test_bcd_refuses_a_fixed_allocation_of_the_wrong_shape(monkeypatch, shape):
    ch, w = _criterion_04_instance(4000)  # K = 2 users, L = 3 columns
    monkeypatch.setattr(bcd_module, "objective_value_and_gradients",
                        lambda *args: pytest.fail("the solve started"))
    with pytest.raises(ValueError) as err:
        bcd_optimize(ch, w, 0.5, NOISE, fixed_alloc=Allocation(np.full(shape, 0.25)))
    assert str(shape) in str(err.value) and "(2, 3)" in str(err.value)


def _block_instances():
    """Criterion 04's first five toys and desk sample 3: (ch, w, noise)."""
    for seed in range(4000, 4005):
        yield *_criterion_04_instance(seed), NOISE
    config = desk_config()
    s = make_sample(config, sample_seed(0, 3))
    yield s.channels, s.w, config.noise_watts


def _random_point(ch, rng, Q):
    theta = rng.uniform(0.0, np.pi, size=(Q, ch.num_elements))
    xi = rng.uniform(size=(Q, ch.num_users, ch.side))
    return theta, xi / np.maximum(xi.sum(axis=-2, keepdims=True), 1.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("Q", [1, 5])
def test_block_map_scoring_agrees_with_the_general_kernel(alpha, Q):
    def close(got, want):  # to 1e-12 of the largest entry
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    rng = np.random.default_rng(Q)
    for ch, w, noise in _block_instances():
        problem = _bind(ch.g_ris, ch.h_rb, ch.h_direct, w, grads=True)
        theta, xi = _random_point(ch, rng, Q)
        # the phases move: shares xi[0] fixed; then the shares move: phases theta[0] fixed
        for bound, th, x, moving in ((problem.with_shares(xi[0]), theta, xi[0], 0),
                                     (problem.with_phases(theta[0]), theta[0], xi, 1)):
            values, grad, H = objective_value_and_gradients(ch, th, x, w, alpha, noise, bound)
            for q in range(Q):
                at = (th[q], x) if moving == 0 else (th, x[q])
                want = objective_value_and_gradients(ch, *at, w, alpha, noise)
                assert abs(values[q] - want[0]) <= 1e-13 * abs(want[0])
                close(grad[q], want[1 + moving])
                # the gradient of the fixed block, from the trial's H
                close(bound.fixed_gradient(H[q], *at), want[2 - moving])


def test_block_map_scoring_does_not_depend_on_the_stack():
    # 2048 desk trials: every complex temporary of a call, down to the (Q, K, K)
    # ones, passes numpy's 256 KiB threshold for reusing temporaries in place
    config = desk_config()
    s = make_sample(config, sample_seed(0, 3))
    ch, w = s.channels, s.w
    problem = _bind(ch.g_ris, ch.h_rb, ch.h_direct, w, grads=True)
    theta, xi = _random_point(ch, np.random.default_rng(7), 2048)
    for bound, th, x, moving in ((problem.with_shares(xi[0]), theta, xi[0], 0),
                                 (problem.with_phases(theta[0]), theta[0], xi, 1)):
        stack = objective_value_and_gradients(ch, th, x, w, 1.0, config.noise_watts, bound)
        for q in (0, 1023, 2047):
            at = (th[q], x) if moving == 0 else (th, x[q])
            alone = objective_value_and_gradients(ch, *at, w, 1.0, config.noise_watts, bound)
            assert alone[0] == stack[0][q]
            rows = [out[q] for out in stack[1:]]
            assert all(a.tobytes() == b.tobytes() for a, b in zip(alone[1:], rows, strict=True))


def _chunk_matches_one_drop_solves(chunk, one_drop):
    """Each drop's theta, xi, objectives and stop reason from a lockstep
    solve against its own one-drop solve, bit for bit."""
    assert len(chunk) == len(one_drop)
    for (theta, xi, trace), (ref_theta, ref_xi, ref_trace) in zip(chunk, one_drop):
        assert theta.theta.tobytes() == ref_theta.theta.tobytes()
        assert xi.xi.tobytes() == ref_xi.xi.tobytes()
        assert trace.objectives == ref_trace.objectives
        assert trace.stop_reason == ref_trace.stop_reason
        assert len(trace.seconds) == len(trace.objectives)


def _lockstep_gate(family):
    """Lockstep solves against one-drop solves, both in this process; run at
    one BLAS thread by the test below. "criterion_04": all 20 toys in one
    chunk, free and pinned, alpha 0.5; their solves stop at different outer
    iterations. A 21st toy with a severed surface stops at a bitwise fixed
    point while the others keep sweeping. "desk": desk val drops 0-9 in
    chunks of 3, 3, 3 and 1, free and pinned, at alpha 0.5, 1 and 2."""
    with pytest.MonkeyPatch.context() as patch:
        if family == "criterion_04":
            instances = [_criterion_04_instance(seed) for seed in range(4000, 4020)]
            severed, w = _criterion_04_instance(4003)
            severed.g_ris[:] = 0
            instances.append((severed, w))
            for fixed in (None, uniform_contiguous(2, 3)):
                counts = {"first": 0, "rest": 0}  # drops that rejected a whole stack
                first_accepted = bcd_module._first_accepted

                def spy(values, f_x, skipped):
                    accepted, *rest = first_accepted(values, f_x, skipped)
                    if skipped == 0 and values.shape[1] > 1:  # a first stack with other drops
                        counts["first"] += int(np.count_nonzero(~accepted))
                    elif skipped:  # the rest of the ladder
                        counts["rest"] += int(np.count_nonzero(~accepted))
                    return accepted, *rest

                patch.setattr(bcd_module, "_first_accepted", spy)
                chunk = bcd_optimize_many([ch for ch, _ in instances], [w for _, w in instances],
                                          [0] * len(instances), 0.5, NOISE, fixed_alloc=fixed)
                patch.undo()
                _chunk_matches_one_drop_solves(chunk, [
                    bcd_optimize(ch, w, 0.5, NOISE, fixed_alloc=fixed) for ch, w in instances])
                assert len({len(trace.objectives) for _, _, trace in chunk}) > 1
                assert counts["first"] > 0  # the second call for some drops only
                if fixed is None:
                    stops = {trace.stop_reason for _, _, trace in chunk}
                    assert stops == {"tolerance", "iteration cap"}
                    assert counts["rest"] > 0  # drops that left a sweep on a failed search
            return
        drops = [_desk_val_drop(j) for j in range(10)]
        noise = drops[0][1]
        channels, ws = [s.channels for s, _, _ in drops], [s.w for s, _, _ in drops]
        seeds = [opts.seed for _, _, opts in drops]
        patch.setattr(bcd_module, "CHUNK_BYTES", 3 * _map_bytes(channels[0]) + 1)
        for alpha in (0.5, 1.0, 2.0):
            for fixed in (None, uniform_contiguous(3, 8)):
                chunk = bcd_optimize_many(channels, ws, seeds, alpha, noise, fixed_alloc=fixed)
                _chunk_matches_one_drop_solves(chunk, [
                    bcd_optimize(s.channels, s.w, alpha, noise, opts, fixed_alloc=fixed)
                    for s, _, opts in drops])


@pytest.mark.parametrize("family", ["criterion_04", "desk"])
def test_lockstep_solves_match_one_drop_solves_at_one_blas_thread(family):
    one = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    paths = [str(Path(__file__).parent), str(Path(bcd_module.__file__).resolve().parents[1])]
    env = {**os.environ, **one,
           "PYTHONPATH": os.pathsep.join(filter(None, [*paths, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", f"import test_bcd; test_bcd._lockstep_gate({family!r})"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_lockstep_kernel_calls_count_the_stacked_calls_a_drop_took_part_in(criterion_04_solves):
    # a one-drop solve's calls are its own; a lockstep drop never takes part in
    # more calls than its solve alone makes, since a longer first stack can only
    # spare it a second call
    seeds = list(range(4000, 4020))
    instances = [_criterion_04_instance(seed) for seed in seeds]
    chunk = bcd_optimize_many([ch for ch, _ in instances], [w for _, w in instances],
                              [0] * len(seeds), 0.5, NOISE)
    for seed, (_, _, trace) in zip(seeds, chunk):
        _, solve, calls = criterion_04_solves[seed][0]
        assert solve[2].kernel_calls == calls
        assert 0 < trace.kernel_calls <= calls
    assert sum(trace.kernel_calls for _, _, trace in chunk) < sum(
        runs[0][2] for runs in criterion_04_solves.values())


def test_lockstep_chunks_are_sized_by_the_map_budget(monkeypatch):
    calls = []
    solve = bcd_module._solve
    monkeypatch.setattr(bcd_module, "_solve", lambda chs, *args: calls.append(len(chs)) or
                        solve(chs, *args))
    s, noise, _ = _desk_val_drop(0)
    per_drop = _map_bytes(s.channels)
    assert bcd_module.CHUNK_BYTES // per_drop >= 50  # a desk val split is one chunk
    full = ScenarioConfig()
    assert bcd_module.CHUNK_BYTES // _map_bytes(
        make_sample(full, sample_seed(0, 0)).channels) < 50  # a full-profile one is not
    monkeypatch.setattr(bcd_module, "CHUNK_BYTES", 2 * per_drop)
    bcd_optimize_many([s.channels] * 5, [s.w] * 5, [1, 2, 3, 4, 5], 1.0, noise,
                      BcdOptions(max_outer_iters=1))
    assert calls == [2, 2, 1]
