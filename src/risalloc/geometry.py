"""Seeded placement of users and blockages, plus ground-plane LOS testing.

Users follow a Poisson point process conditioned on the configured count,
which keeps feature dimensions constant downstream. Blockages are
rectangles with exponentially distributed side lengths and uniform
orientation, and a link counts as blocked when its ground-plane segment
crosses any rectangle.

A drop's users and blockages come from the first two words of
SeedSequence(seed), each through its own generator. Dataset synthesis
derives the sequence once per drop, builds the deployment from those words
through ``_deploy``, and gives the third word to the channel's shadowing. It
runs ``is_blocked`` leg by leg, and only on drops that hold a rectangle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig


@dataclass
class Deployment:
    """One drop: UE positions (K x 3, meters) and blockage rectangles.

    Each blockage row is (center_x, center_y, length, width, orientation)
    with orientation the angle of the length axis in radians.
    """

    ue_positions: np.ndarray
    blockages: np.ndarray

    @property
    def num_ues(self) -> int:
        return int(self.ue_positions.shape[0])


def deploy_ues(config: ScenarioConfig, seed: int) -> np.ndarray:
    """Drop exactly ``num_ues`` users uniformly over the service square at
    ue_height."""
    rng = np.random.default_rng(seed)
    n = config.num_ues
    pos = np.empty((n, 3))
    pos[:, :2] = rng.uniform(0.0, config.area_side, size=(n, 2))
    pos[:, 2] = config.ue_height
    return pos


def deploy_blockages(config: ScenarioConfig, seed: int) -> np.ndarray:
    """Drop rectangles: Poisson count, uniform centers and orientation,
    exponential length and width. Returns an (n, 5) array."""
    rng = np.random.default_rng(seed)
    n = int(rng.poisson(config.blockage_density * config.area_km2))
    if n == 0:
        return np.zeros((0, 5))
    centers = rng.uniform(0.0, config.area_side, size=(n, 2))
    lengths = rng.exponential(config.blockage_mean_length, size=n)
    widths = rng.exponential(config.blockage_mean_width, size=n)
    orients = rng.uniform(0.0, np.pi, size=n)
    return np.column_stack([centers, lengths, widths, orients])


def deploy(config: ScenarioConfig, seed: int) -> Deployment:
    """UE and blockage drops from one seed, via independent child streams:
    the first two words of SeedSequence(seed)."""
    return _deploy(config, *np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64).tolist())


def _deploy(config: ScenarioConfig, ue_seed: int, blk_seed: int) -> Deployment:
    """The drop that deploy gives the seed whose first two words are these."""
    return Deployment(deploy_ues(config, ue_seed), deploy_blockages(config, blk_seed))


def is_blocked(tx, rx, blockages) -> bool:
    """True iff the ground-plane segment from tx to rx crosses any rectangle.

    Endpoints inside a rectangle count as crossing. Positions may be 2-D or
    3-D; only x, y matter.
    """
    tx = np.asarray(tx, dtype=float)
    rx = np.asarray(rx, dtype=float)
    if np.array_equal(tx, rx):
        raise ValueError("tx and rx coincide; the link direction is undefined")
    p0, p1 = tx[:2], rx[:2]
    for cx, cy, length, width, ang in np.asarray(blockages, dtype=float).reshape(-1, 5):
        if _segment_hits_rect(p0, p1, np.array([cx, cy]), 0.5 * length, 0.5 * width, ang):
            return True
    return False


def _segment_hits_rect(p0, p1, center, half_len, half_wid, angle) -> bool:
    # rotate the segment into the rectangle's frame, then slab-test the box
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, s], [-s, c]])
    q0 = rot @ (p0 - center)
    q1 = rot @ (p1 - center)
    return _segment_hits_aabb(q0, q1, half_len, half_wid)


def _segment_hits_aabb(q0, q1, hx, hy) -> bool:
    # Liang-Barsky: clip the parametric segment against each slab
    d = q1 - q0
    t0, t1 = 0.0, 1.0
    for axis, half in ((0, hx), (1, hy)):
        if abs(d[axis]) < 1e-15:
            if abs(q0[axis]) > half:
                return False
            continue
        ta = (-half - q0[axis]) / d[axis]
        tb = (half - q0[axis]) / d[axis]
        if ta > tb:
            ta, tb = tb, ta
        t0 = max(t0, ta)
        t1 = min(t1, tb)
        if t0 > t1:
            return False
    return True
