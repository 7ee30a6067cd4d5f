import numpy as np
import pytest

from risalloc import Deployment, ScenarioConfig, deploy, deploy_blockages, deploy_ues, is_blocked


CFG = ScenarioConfig()


def test_fixed_count_positions_in_area():
    pos = deploy_ues(ScenarioConfig(num_ues=4), seed=3)
    assert pos.shape == (4, 3)
    assert np.all(pos[:, :2] >= 0.0) and np.all(pos[:, :2] <= CFG.area_side)
    assert np.all(pos[:, 2] == CFG.ue_height)


def test_deploy_ues_deterministic():
    a = deploy_ues(CFG, seed=11)
    b = deploy_ues(CFG, seed=11)
    c = deploy_ues(CFG, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_blockage_zero_intensity():
    blk = deploy_blockages(ScenarioConfig(blockage_density=0.0), seed=0)
    assert blk.shape == (0, 5)


def test_blockage_poisson_mean():
    # intensity 10/km^2 over 0.01 km^2 -> mean 0.1
    counts = [deploy_blockages(CFG, seed=s).shape[0] for s in range(10000)]
    assert 0.08 < np.mean(counts) < 0.12


def test_blockage_fields_in_range():
    cfg = ScenarioConfig(blockage_density=5000.0)
    blk = deploy_blockages(cfg, seed=1)
    assert blk.shape[0] > 0
    assert np.all(blk[:, 0] >= 0) and np.all(blk[:, 0] <= cfg.area_side)
    assert np.all(blk[:, 1] >= 0) and np.all(blk[:, 1] <= cfg.area_side)
    assert np.all(blk[:, 2] > 0) and np.all(blk[:, 3] > 0)
    assert np.all(blk[:, 4] >= 0) and np.all(blk[:, 4] < np.pi)
    # exponential sizes: sample means near the configured means
    big = deploy_blockages(ScenarioConfig(blockage_density=200000.0), seed=2)
    assert abs(np.mean(big[:, 2]) - cfg.blockage_mean_length) < 1.5
    assert abs(np.mean(big[:, 3]) - cfg.blockage_mean_width) < 1.5


def test_deploy_bundles_both():
    d = deploy(CFG, seed=9)
    assert isinstance(d, Deployment)
    assert d.ue_positions.shape == (3, 3)
    assert d.blockages.shape[1] == 5
    d2 = deploy(CFG, seed=9)
    assert np.array_equal(d.ue_positions, d2.ue_positions)
    assert np.array_equal(d.blockages, d2.blockages)


def test_is_blocked_empty_list():
    assert not is_blocked((0, 0, 10), (10, 0, 1.5), np.zeros((0, 5)))


def test_is_blocked_axis_aligned_hit():
    # rectangle centered (5,0), 2 long along x, 2 wide: the segment runs through it
    rect = np.array([[5.0, 0.0, 2.0, 2.0, 0.0]])
    assert is_blocked((0, 0), (10, 0), rect)


def test_is_blocked_axis_aligned_miss():
    rect = np.array([[5.0, 5.0, 2.0, 2.0, 0.0]])
    assert not is_blocked((0, 0), (10, 0), rect)


def test_is_blocked_rotated_rectangle():
    # long axis rotated to y: occupies |x-5| <= 0.25, |y| <= 1
    rect = np.array([[5.0, 0.0, 2.0, 0.5, np.pi / 2]])
    assert is_blocked((0, 0.6), (10, 0.6), rect)
    assert not is_blocked((0, 1.5), (10, 1.5), rect)


def test_is_blocked_endpoint_inside():
    rect = np.array([[0.0, 0.0, 4.0, 4.0, 0.3]])
    assert is_blocked((0, 0), (50, 50), rect)


def test_is_blocked_short_segment_outside():
    rect = np.array([[5.0, 0.0, 2.0, 2.0, 0.0]])
    assert not is_blocked((0, 0), (3, 0), rect)


def test_is_blocked_rejects_coincident_endpoints():
    with pytest.raises(ValueError):
        is_blocked((1, 2, 3), (1, 2, 3), np.zeros((0, 5)))


def test_blocked_uses_ground_plane_only():
    # heights differ but the 2D track is identical, so the answer matches
    rect = np.array([[5.0, 0.0, 2.0, 2.0, 0.0]])
    assert is_blocked((0, 0, 10.0), (10, 0, 1.5), rect)
    assert is_blocked((0, 0, 0.0), (10, 0, 99.0), rect)
