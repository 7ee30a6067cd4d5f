import numpy as np
import pytest

import oracles
from risalloc import (BudgetExceededError, brute, brute_force, enumeration_count,
                      mrt_beamformers, sum_utility)

NOISE = 0.05


def test_enumeration_count_formula():
    assert enumeration_count(1, 1, 1, 2) == 4          # {assign, off} x {0, pi}
    assert enumeration_count(2, 3, 9, 8) == 13824      # 3^3 column picks, 8^3 shared phases
    assert enumeration_count(2, 2, 4, 3) == 729        # tiny surface: per-element phases
    assert enumeration_count(1, 2, 4, 2) == 64         # 2^2 column picks, 2^4 phases


def test_budget_refusal_carries_counts():
    ch = oracles.toy_channels(num_users=2, side=3, seed=0)
    w = mrt_beamformers(ch, 1.0).w
    with pytest.raises(BudgetExceededError) as err:
        brute_force(ch, w, 1.0, NOISE, nu=8, budget=100)
    assert err.value.evaluations == 13824
    assert err.value.budget == 100
    assert "13824" in str(err.value)


def test_single_element_matches_hand_enumeration():
    ch = oracles.toy_channels(num_users=1, num_antennas=2, side=1, seed=1)
    w = mrt_beamformers(ch, 1.0).w
    best_theta, best_alloc, best_val = brute_force(ch, w, 1.0, NOISE, nu=2)
    # enumerate the same 4 configurations directly
    candidates = []
    for assign in ([[1.0]], [[0.0]]):
        for phase in (0.0, np.pi):
            val = sum_utility(ch, np.array([phase]), np.array(assign), w, 1.0, NOISE)
            candidates.append((val, assign, phase))
    expected = max(candidates, key=lambda t: t[0])
    assert best_val == pytest.approx(expected[0], rel=1e-12)
    assert best_alloc.xi.tolist() == expected[1]
    assert best_theta.theta[0] == pytest.approx(expected[2])


def test_returned_value_is_feasible_maximum():
    ch = oracles.toy_channels(num_users=2, num_antennas=2, side=2, seed=2)
    w = mrt_beamformers(ch, 1.0).w
    theta, alloc, val = brute_force(ch, w, 0.5, NOISE, nu=3)
    alloc.validate()
    assert np.all((theta.theta >= 0.0) & (theta.theta <= np.pi))
    assert val == pytest.approx(sum_utility(ch, theta, alloc, w, 0.5, NOISE), rel=1e-12)
    # no enumerated configuration beats it
    rng = np.random.default_rng(3)
    for _ in range(20):
        cols = rng.integers(0, 3, size=2)  # 2 is "off"
        xi = np.zeros((2, 2))
        for c, u in enumerate(cols):
            if u < 2:
                xi[u, c] = 1.0
        phases = rng.choice(np.linspace(0, np.pi, 3), size=4)
        assert sum_utility(ch, phases, xi, w, 0.5, NOISE) <= val + 1e-9


def test_nu_one_pins_phases_at_zero():
    ch = oracles.toy_channels(num_users=2, side=2, seed=4)
    w = mrt_beamformers(ch, 1.0).w
    theta, _, _ = brute_force(ch, w, 1.0, NOISE, nu=1)
    assert np.all(theta.theta == 0.0)


def test_small_surface_gets_per_element_phases():
    ch = oracles.toy_channels(num_users=2, side=2, seed=5)
    w = mrt_beamformers(ch, 1.0).w
    theta, _, _ = brute_force(ch, w, 1.0, NOISE, nu=3)
    assert theta.theta.shape == (4,)
    assert len(set(np.round(theta.theta, 9))) > 1  # phases differ per element


def test_larger_surface_shares_column_phase():
    ch = oracles.toy_channels(num_users=1, num_antennas=1, side=3, seed=6)
    w = mrt_beamformers(ch, 1.0).w
    theta, _, _ = brute_force(ch, w, 1.0, NOISE, nu=2, budget=10**6)
    t = theta.theta.reshape(3, 3)
    assert np.allclose(t, t[:, :1])  # constant within each 3-element block


def test_grid_refinement_never_hurts():
    ch = oracles.toy_channels(num_users=2, side=2, seed=7)
    w = mrt_beamformers(ch, 1.0).w
    # {0, pi} is a subset of {0, pi/2, pi}, which is a subset of nu=5
    v2 = brute_force(ch, w, 1.0, NOISE, nu=2)[2]
    v3 = brute_force(ch, w, 1.0, NOISE, nu=3)[2]
    v5 = brute_force(ch, w, 1.0, NOISE, nu=5)[2]
    assert v3 >= v2 - 1e-12
    assert v5 >= v3 - 1e-12


def test_degenerate_ties_resolve_to_first_configuration():
    ch = oracles.toy_channels(num_users=2, side=2, seed=8)
    ch.g_ris[:] = 0.0
    ch.h_direct[:] = np.array([[1.0 + 0j, 0.5], [0.5, 1.0 + 0j]])
    w = mrt_beamformers(ch, 1.0).w
    theta, alloc, _ = brute_force(ch, w, 1.0, NOISE, nu=2)
    # every configuration scores the same; the first one wins
    assert alloc.xi.tolist() == [[1.0, 1.0], [0.0, 0.0]]
    assert np.all(theta.theta == 0.0)


def test_nu_must_be_positive():
    ch = oracles.toy_channels(seed=10)
    w = mrt_beamformers(ch, 1.0).w
    with pytest.raises(ValueError):
        brute_force(ch, w, 1.0, NOISE, nu=0)


# The ids of the first seven rows keep their earlier four-field form, whose
# third field chose whether the search could leave a column off; every row
# now searches "off" too.
@pytest.mark.parametrize("chunk", [4096, 5])
@pytest.mark.parametrize("users,side,nu,seed,degenerate", [
    pytest.param(2, 3, 3, 33, False, id="3-3-True-False"),
    pytest.param(2, 3, 1, 31, False, id="3-1-True-False"),
    pytest.param(2, 3, 2, 32, False, id="3-2-False-False"),
    pytest.param(2, 2, 3, 23, False, id="2-3-True-False"),
    pytest.param(2, 2, 1, 21, False, id="2-1-False-False"),
    pytest.param(2, 2, 2, 22, True, id="2-2-False-True"),
    pytest.param(2, 2, 3, 23, True, id="2-3-True-True"),
    pytest.param(3, 3, 3, 333, False, id="three-users-3-3"),
    pytest.param(1, 2, 4, 124, False, id="one-user-2-4"),
    pytest.param(2, 3, 8, 4000, False, id="benchmark-grid-3-8"),  # toy_oracle's grid, criterion 04's seed
])
def test_batched_search_matches_per_configuration_loop(monkeypatch, chunk, users, side, nu, seed,
                                                        degenerate):
    monkeypatch.setattr(brute, "_CHUNK", chunk)
    ch = oracles.toy_channels(num_users=users, side=side, seed=seed)
    if degenerate:                               # every phase configuration ties
        ch.g_ris[:] = 0.0
    w = mrt_beamformers(ch, 1.0).w
    theta, alloc, u = brute_force(ch, w, 0.7, NOISE, nu=nu)
    ref_theta, ref_xi, ref_u = oracles.brute_force_loop(ch, w, 0.7, NOISE, nu)
    assert u == ref_u
    assert theta.theta.tobytes() == ref_theta.tobytes()
    assert alloc.xi.tobytes() == ref_xi.tobytes()
