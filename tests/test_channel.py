import numpy as np
import pytest

import oracles
from risalloc import (ChannelSet, Deployment, Sample, ScenarioConfig, TrainOptions,
                      bcd_optimize, breakpoint_distance, brute_force, mrt_beamformers,
                      pathloss_umi_los, pathloss_umi_nlos, steering_vector_upa,
                      synth_channels, train)
from risalloc.channel import bs_panel_shape

H_BS, H_UE, FC = 10.0, 1.5, 28.0


def test_breakpoint_frozen_value():
    # 4 * (10-1) * (1.5-1) * 28e9 / 3e8
    assert breakpoint_distance(10.0, 1.5, 28e9) == pytest.approx(1680.0, rel=1e-6)


def test_breakpoint_linearity_and_domain():
    assert breakpoint_distance(10.0, 1.5, 56e9) == pytest.approx(3360.0, rel=1e-12)
    with pytest.raises(ValueError):
        breakpoint_distance(1.0, 1.5, 28e9)
    with pytest.raises(ValueError):
        breakpoint_distance(10.0, 0.9, 28e9)


def test_los_frozen_values():
    # near-branch: 32.4 + 21*log10(100) + 20*log10(28)
    assert pathloss_umi_los(100.0, 100.0, FC, H_BS, H_UE, 0.0) == pytest.approx(
        103.3431606268444, abs=1e-9)
    # exact decade: 32.4 + 21 + 0
    assert pathloss_umi_los(10.0, 10.0, 1.0, H_BS, H_UE, 0.0) == pytest.approx(53.4, abs=1e-12)
    # far branch, d2d past the 1680 m breakpoint
    assert pathloss_umi_los(1700.0, 1700.0, FC, H_BS, H_UE, 0.0) == pytest.approx(
        129.28013551514638, abs=1e-9)


def test_nlos_frozen_value():
    assert pathloss_umi_nlos(100.0, 100.0, FC, H_BS, H_UE, 0.0) == pytest.approx(
        123.82446606758927, abs=1e-9)


def test_nlos_is_max_of_branches():
    # an extreme receiver height drives the excess-loss branch below LOS
    los = pathloss_umi_los(100.0, 100.0, FC, H_BS, 150.0, 0.0)
    assert pathloss_umi_nlos(100.0, 100.0, FC, H_BS, 150.0, 0.0) == pytest.approx(los)
    # at reference height the -0.3*(h-1.5) correction vanishes
    a = pathloss_umi_nlos(200.0, 200.0, FC, H_BS, 1.5, 0.0)
    b = 35.3 * np.log10(200.0) + 22.4 + 21.3 * np.log10(FC)
    assert a == pytest.approx(b, abs=1e-9)


def test_shadow_added_once_outside_max():
    base = pathloss_umi_nlos(100.0, 100.0, FC, H_BS, H_UE, 0.0)
    assert pathloss_umi_nlos(100.0, 100.0, FC, H_BS, H_UE, 7.25) == pytest.approx(base + 7.25)
    base_los = pathloss_umi_los(100.0, 100.0, FC, H_BS, H_UE, 0.0)
    assert pathloss_umi_los(100.0, 100.0, FC, H_BS, H_UE, -3.0) == pytest.approx(base_los - 3.0)


def test_pathloss_domain_errors():
    for bad in (9.99, 5000.1):
        with pytest.raises(ValueError):
            pathloss_umi_los(bad, bad, FC, H_BS, H_UE, 0.0)
        with pytest.raises(ValueError):
            pathloss_umi_nlos(bad, bad, FC, H_BS, H_UE, 0.0)


def test_los_monotone_within_branches():
    near = [pathloss_umi_los(d, d, FC, H_BS, H_UE, 0.0) for d in np.linspace(10, 1600, 40)]
    far = [pathloss_umi_los(d, d, FC, H_BS, H_UE, 0.0) for d in np.linspace(1700, 5000, 40)]
    assert np.all(np.diff(near) > 0)
    assert np.all(np.diff(far) > 0)


def test_nlos_never_below_los():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = rng.uniform(10, 5000)
        los = pathloss_umi_los(d, d, FC, H_BS, H_UE, 0.0)
        nlos = pathloss_umi_nlos(d, d, FC, H_BS, H_UE, 0.0)
        assert nlos >= los - 1e-12


def test_steering_broadside_and_scalar():
    v = steering_vector_upa(3, 4, 0.0, 1.2)
    assert v.shape == (12,)
    assert np.allclose(v, 1.0)
    assert steering_vector_upa(1, 1, 0.7, -0.3) == pytest.approx(1.0)


def test_steering_unit_modulus_and_layout():
    elev, azim = 0.9, -2.1
    v = steering_vector_upa(2, 3, elev, azim)
    assert np.allclose(np.abs(v), 1.0, atol=1e-12)
    # row-major: entry index l maps to grid point (l // cols, l % cols)
    for l in range(6):
        p, q = divmod(l, 3)
        expected = np.exp(1j * 2 * np.pi * 0.5 * (
            p * np.sin(elev) * np.cos(azim) + q * np.sin(elev) * np.sin(azim)))
        assert v[l] == pytest.approx(expected, abs=1e-12)


def _one_ue_deployment(xy, blockages=None):
    pos = np.array([[xy[0], xy[1], 1.5]])
    blk = np.zeros((0, 5)) if blockages is None else np.asarray(blockages, dtype=float)
    return Deployment(pos, blk)


def test_synth_deterministic_and_shaped():
    cfg = ScenarioConfig(ris_side=4)
    dep = Deployment(np.array([[70.0, 20.0, 1.5], [30.0, 80.0, 1.5]]), np.zeros((0, 5)))
    a = synth_channels(cfg, dep, seed=5)
    b = synth_channels(cfg, dep, seed=5)
    assert a.h_direct.shape == (2, 4) and a.g_ris.shape == (2, 16) and a.h_rb.shape == (16, 4)
    assert np.array_equal(a.h_direct, b.h_direct)
    assert np.array_equal(a.g_ris, b.g_ris)
    assert np.array_equal(a.h_rb, b.h_rb)
    c = synth_channels(cfg, dep, seed=6)
    assert not np.array_equal(a.h_direct, c.h_direct)


def test_hop_block_is_rank_one_with_los_amplitude():
    cfg = ScenarioConfig(ris_side=4, shadow_sigma=0.0)
    ch = synth_channels(cfg, _one_ue_deployment((70, 20)), seed=0)
    s = np.linalg.svd(ch.h_rb, compute_uv=False)
    assert s[1] < 1e-12 * s[0]
    # amplitude pinned by the LOS model at the fixed hop geometry (35.36 m, level)
    assert np.allclose(np.abs(ch.h_rb), 2.0275156345824696e-05, rtol=1e-9)


def test_direct_rows_have_constant_modulus():
    cfg = ScenarioConfig(ris_side=4, shadow_sigma=0.0)
    ch = synth_channels(cfg, _one_ue_deployment((70, 20)), seed=0)
    mods = np.abs(ch.h_direct[0])
    assert np.allclose(mods, mods[0], rtol=1e-12)
    d3d = np.linalg.norm(np.array([70, 20, 1.5]) - np.array([0, 0, 10.0]))
    d2d = np.hypot(70, 20)
    from risalloc import pathloss_umi_los as plos
    assert mods[0] == pytest.approx(10 ** (-plos(d2d, d3d, 28.0, 10.0, 1.5, 0.0) / 20))


def test_short_link_clamped_and_flagged():
    cfg = ScenarioConfig(ris_side=4, shadow_sigma=0.0)
    ch = synth_channels(cfg, _one_ue_deployment((0.5, 0.0)), seed=0)
    assert bool(ch.clamped[0, 0])
    # clamped to 10 m 2D with the vertical offset kept: d3d = hypot(10, 8.5)
    assert np.abs(ch.h_direct[0, 0]) == pytest.approx(5.739292681106593e-05, rel=1e-9)
    assert not ch.bs_ris_clamped


def test_blockage_classification_drives_nlos():
    cfg = ScenarioConfig(ris_side=4, shadow_sigma=0.0)
    ue = (70.0, 0.0)
    # wall across the direct path only (the surface sits off at (25, 25))
    wall = [[35.0, 0.0, 1.0, 8.0, 0.0]]
    blocked = synth_channels(cfg, _one_ue_deployment(ue, wall), seed=0)
    open_ = synth_channels(cfg, _one_ue_deployment(ue), seed=0)
    assert not blocked.los_flags[0, 0] and blocked.los_flags[0, 1]
    assert open_.los_flags[0, 0]
    # extra pathloss shrinks the direct amplitude, surface leg untouched
    assert np.abs(blocked.h_direct[0, 0]) < np.abs(open_.h_direct[0, 0])
    assert np.allclose(blocked.g_ris, open_.g_ris)


def test_shadowing_scales_amplitude_only():
    cfg0 = ScenarioConfig(ris_side=4, shadow_sigma=0.0)
    cfg4 = ScenarioConfig(ris_side=4, shadow_sigma=4.0)
    dep = _one_ue_deployment((70, 20))
    a = synth_channels(cfg0, dep, seed=3)
    b = synth_channels(cfg4, dep, seed=3)
    ratio = b.h_direct[0] / a.h_direct[0]
    assert np.allclose(ratio.imag, 0.0, atol=1e-15)
    assert np.allclose(ratio.real, ratio.real[0])
    assert ratio.real[0] > 0


def _six_element_sample(seed):
    ch = oracles.toy_channels(side=3, seed=seed)
    ch = ChannelSet(ch.h_direct, ch.g_ris[:, :6], ch.h_rb[:6], ch.los_flags, ch.clamped)
    return Sample(seed, Deployment(np.zeros((2, 3)), np.zeros((0, 5))), ch,
                  mrt_beamformers(ch, 1.0).w)


def test_surface_side():
    assert oracles.toy_channels(side=3).side == 3
    with pytest.raises(ValueError, match="square"):
        _six_element_sample(0).channels.side


@pytest.mark.parametrize("solve", [
    lambda s: bcd_optimize(s.channels, s.w, 1.0, 0.05),
    lambda s: brute_force(s.channels, s.w, 1.0, 0.05, nu=2),
    lambda s: train([s, _six_element_sample(1)], [_six_element_sample(2)], 0.05,
                    TrainOptions(max_epochs=1, hidden=(4,), use_pca=False)),
], ids=["bcd", "brute", "train"])
def test_column_solvers_reject_non_square_surface(solve):
    with pytest.raises(ValueError, match="square"):
        solve(_six_element_sample(0))


@pytest.mark.parametrize("n,shape", [(4, (2, 2)), (5, (1, 5)), (10, (2, 5))])
def test_bs_panel_shape_is_the_most_square_factorization(n, shape):
    assert bs_panel_shape(n) == shape
