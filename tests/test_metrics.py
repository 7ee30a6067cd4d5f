import numpy as np
import pytest

import oracles
from risalloc import (Allocation, RATE_FLOOR, alpha_mean_throughput, alpha_utility,
                      desk_config, expand_columns, make_sample, mrt_beamformers,
                      objective_value_and_gradients, sample_seed, sum_utility, user_rates)
from risalloc.metrics import _bind_drops, _map_bytes, _objective


def test_expand_columns_replication():
    assert expand_columns(np.array([[1.0, 0.0]])).tolist() == [[1.0, 1.0, 0.0, 0.0]]
    assert np.all(expand_columns(np.zeros((3, 4))) == 0)
    out = expand_columns(np.array([[0.2, 0.5, 0.3]]))
    assert out.shape == (1, 9)
    assert out.tolist()[0][:3] == [0.2, 0.2, 0.2]


def test_allocation_validation():
    Allocation(np.array([[0.5, 0.5], [0.5, 0.4]])).validate()
    with pytest.raises(ValueError):
        Allocation(np.array([[-0.1, 0.0]])).validate()
    with pytest.raises(ValueError):
        Allocation(np.array([[0.6], [0.6]])).validate()  # column sum > 1
    with pytest.raises(ValueError, match="2-D"):
        Allocation(np.zeros(3))


def test_zero_shares_sever_surface():
    ch = oracles.toy_channels(seed=1)
    w = mrt_beamformers(ch, 1.0).w
    theta = np.random.default_rng(2).uniform(0, np.pi, 4)
    severed = oracles.toy_channels(seed=1)
    severed.g_ris[:] = 0.0
    rates = user_rates(ch, theta, np.zeros((2, 2)), w, 0.1)
    assert np.allclose(rates, user_rates(severed, np.zeros(4), np.full((2, 2), 0.5), w, 0.1))


def test_sinr_single_user_no_interference():
    # one user: the rate is log2(1 + SINR) and nothing interferes
    ch = oracles.toy_channels(num_users=1, seed=7)
    w = mrt_beamformers(ch, 1.0).w
    expected = abs(np.dot(ch.h_direct[0], w[0])) ** 2 / 0.3
    (r,) = user_rates(ch, np.zeros(4), np.zeros((1, 2)), w, 0.3)
    assert 2.0 ** r - 1.0 == pytest.approx(expected, rel=1e-12)


def test_sinr_zero_beam():
    ch = oracles.toy_channels(seed=8)
    w = np.zeros((2, 2), dtype=complex)
    assert np.all(user_rates(ch, np.zeros(4), np.zeros((2, 2)), w, 1.0) == 0.0)


def test_rate_frozen_points():
    # one user, so the rate is log2(1 + SINR) with no sharing factor
    ch = oracles.toy_channels(num_users=1, seed=9)
    w = np.array([[1.0 + 0j, 0.0]])
    noise = abs(np.dot(ch.h_direct[0], w[0])) ** 2
    # SINR 1 -> log2(2) = 1
    assert user_rates(ch, np.zeros(4), np.zeros((1, 2)), w, noise)[0] == pytest.approx(1.0)
    # SINR 3 -> log2(4) = 2
    assert user_rates(ch, np.zeros(4), np.zeros((1, 2)), w, noise / 3.0)[0] == pytest.approx(2.0)


def test_alpha_utility_frozen_points():
    assert alpha_utility(1.0, 1.0) == pytest.approx(0.0)
    assert alpha_utility(2.0, 2.0) == pytest.approx(-0.5)
    assert alpha_utility(4.0, 0.5) == pytest.approx(4.0)


def test_alpha_utility_floor():
    assert alpha_utility(0.0, 1.0) == pytest.approx(np.log(RATE_FLOOR))
    assert alpha_utility(0.0, 2.0) == pytest.approx(-1.0 / RATE_FLOOR)
    v = alpha_utility(np.array([0.0, 1.0]), 1.0)
    assert v[0] == pytest.approx(np.log(RATE_FLOOR)) and v[1] == pytest.approx(0.0)


def test_alpha_mean_throughput_frozen_points():
    rates = np.array([1.0, 4.0])
    assert alpha_mean_throughput(rates, 1.0, 1.0) == pytest.approx(2.0)          # geometric
    assert alpha_mean_throughput(rates, 2.0, 1.0) == pytest.approx(1.6)          # harmonic
    assert alpha_mean_throughput(np.full(5, 0.7), 3.0, 2e6) == pytest.approx(1.4e6)


def test_alpha_mean_throughput_alpha_one_continuity():
    rates = np.array([0.3, 1.7, 0.9])
    at_one = alpha_mean_throughput(rates, 1.0, 5e7)
    near = alpha_mean_throughput(rates, 1.0 + 1e-6, 5e7)
    assert near == pytest.approx(at_one, rel=1e-4)
    near_lo = alpha_mean_throughput(rates, 1.0 - 1e-6, 5e7)
    assert near_lo == pytest.approx(at_one, rel=1e-4)


def test_alpha_mean_throughput_monotone_in_alpha():
    rates = np.array([0.2, 0.9, 2.5])
    vals = [alpha_mean_throughput(rates, a, 1e6) for a in (0.5, 1.0, 2.0, 4.0)]
    assert np.all(np.diff(vals) <= 1e-6)


def test_sum_utility_bandwidth_free():
    ch = oracles.toy_channels(seed=10)
    w = mrt_beamformers(ch, 2.0).w
    theta = np.random.default_rng(11).uniform(0, np.pi, 4)
    xi = np.full((2, 2), 0.4)
    u = sum_utility(ch, theta, xi, w, 1.0, 1e-3)
    assert np.isfinite(u)  # no bandwidth parameter exists to vary


def test_metrics_match_straight_line_oracle():
    rng = np.random.default_rng(12)
    for trial in range(5):
        ch = oracles.toy_channels(seed=100 + trial)
        w = mrt_beamformers(ch, 1.5).w
        theta = rng.uniform(0, np.pi, 4)
        xi = rng.uniform(0, 0.5, (2, 2))
        mask = oracles.element_mask(xi)
        noise = 0.017
        rates = user_rates(ch, theta, xi, w, noise)
        for k in range(2):
            assert rates[k] == pytest.approx(
                oracles.rate_value(ch, theta, mask, w, k, noise), rel=1e-12)
            assert 2.0 ** (2 * rates[k]) - 1.0 == pytest.approx(
                oracles.sinr_value(ch, theta, mask, w, k, noise), rel=1e-12)
        for alpha in (0.5, 1.0, 2.0):
            assert sum_utility(ch, theta, xi, w, alpha, noise) == pytest.approx(
                oracles.total_utility(ch, theta, mask, w, alpha, noise), rel=1e-12)


def test_user_rates_vector_matches_scalar():
    ch = oracles.toy_channels(num_users=3, num_antennas=2, side=2, seed=13)
    w = mrt_beamformers(ch, 1.0).w
    theta = np.random.default_rng(14).uniform(0, np.pi, 4)
    xi = np.random.default_rng(15).uniform(0, 0.33, (3, 2))
    vec = user_rates(ch, theta, xi, w, 1e-2)
    mask = oracles.element_mask(xi)
    for k in range(3):
        assert vec[k] == pytest.approx(oracles.rate_value(ch, theta, mask, w, k, 1e-2), rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
def test_value_only_path_matches_gradient_path(alpha):
    chs = [oracles.toy_channels(num_users=3, num_antennas=2, side=3, seed=s) for s in range(4)]
    ws = [mrt_beamformers(ch, 1.0).w for ch in chs]
    rng = np.random.default_rng(11)
    theta = rng.uniform(0, np.pi, size=(4, 9))
    xi = rng.uniform(0, 1 / 3, size=(4, 3, 3))   # three users: columns sum below 1
    xi[0] = 0.0                                  # no surface share at all
    stacked = [np.stack(arrs) for arrs in ([c.g_ris for c in chs], [c.h_rb for c in chs],
                                           [c.h_direct for c in chs], ws)]
    values = _objective(*stacked, theta, xi, 0.05, alpha)
    grad_values, _, _ = _objective(*stacked, theta, xi, 0.05, alpha, grads=True)
    assert values.tobytes() == grad_values.tobytes()
    for q in range(4):
        value, _, _ = objective_value_and_gradients(chs[q], theta[q], xi[q], ws[q], alpha, 0.05)
        assert sum_utility(chs[q], theta[q], xi[q], ws[q], alpha, 0.05) == value == values[q]


def test_map_bytes_are_the_block_maps_one_drop_binds():
    # the byte count that sizes bcd's lockstep chunks
    s = make_sample(desk_config(), sample_seed(0, 0))
    ch = s.channels
    problem = _bind_drops([ch], [s.w], grads=True)
    phase_map = problem.with_shares(np.full((1, ch.num_users, ch.side), 1.0 / ch.num_users))
    share_map = problem.with_phases(np.zeros((1, ch.num_elements)))
    assert _map_bytes(ch) == sum(m.nbytes for m in (phase_map.M, phase_map.Mt,
                                                    share_map.N, share_map.Nt))


def test_bind_drops_refuses_lists_of_different_lengths():
    ch = oracles.toy_channels(seed=1)
    w = mrt_beamformers(ch, 1.0).w
    with pytest.raises(ValueError, match="batch sizes disagree"):
        _bind_drops([ch, ch], [w])
