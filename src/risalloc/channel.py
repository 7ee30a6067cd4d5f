"""Urban-microcell pathloss, planar-array steering, and CSI synthesis.

Pathloss follows the street-canyon model: a two-slope LOS law that switches
at the breakpoint distance, and an NLOS law taken as the maximum of the LOS
value and a steeper urban term, with one shadow-fading draw added per link
outside the max. Amplitudes are 10^(-PL/20). The transmitter panel lies in
the xz-plane, the reflecting surface in the xy-plane; steering phases use
half-wavelength element spacing.

The link helpers take a scalar link or arrays of links, elementwise, so each
formula has one copy. ``synth_channels`` runs the stacked core
``_synth_stack`` on one drop: the core draws each drop's shadowing from that
drop's own generator, computes the transmitter-to-surface hop and both panel
responses once, and takes each link kind (direct, surface-to-user) for all
users of all drops in one array pass, with the same bits as one link at a
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ENV_HEIGHT, MAX_DIST_2D, SPEED_OF_LIGHT, ScenarioConfig
from .geometry import Deployment, is_blocked

MIN_DIST_2D = 10.0      # model validity floor; shorter links are clamped
ELEMENT_SPACING = 0.5   # array spacing in wavelengths


@dataclass
class ChannelSet:
    """Per-drop CSI shared by every optimizer.

    h_direct: (K, N) transmitter-to-user rows.
    g_ris:    (K, L2) rows holding the conjugated surface-to-user response,
              so the effective channel is g_ris[k] * (mask * phases) @ h_rb.
    h_rb:     (L2, N) transmitter-to-surface matrix (rank 1 by construction).
    los_flags / clamped: (K, 2) booleans, columns = (direct link, surface-to-user link).
    bs_ris_clamped: True when the fixed transmitter-to-surface hop sat under
    the 10 m validity floor and was clamped.
    """

    h_direct: np.ndarray
    g_ris: np.ndarray
    h_rb: np.ndarray
    los_flags: np.ndarray
    clamped: np.ndarray
    bs_ris_clamped: bool = False

    @property
    def num_users(self) -> int:
        return int(self.h_direct.shape[0])

    @property
    def num_elements(self) -> int:
        return int(self.h_rb.shape[0])

    @property
    def side(self) -> int:
        """L for the L x L surface; column shares need a square surface."""
        L = math.isqrt(self.num_elements)
        if L * L != self.num_elements:
            raise ValueError(f"the surface must be square, got {self.num_elements} elements")
        return L


def breakpoint_distance(h_tx, h_rx, fc_hz: float):
    """Distance where the two-slope LOS law changes regime.

    4 * (h_tx - 1)(h_rx - 1) * fc / c, with heights in meters above the 1 m
    effective environment height and fc in Hz.
    """
    if fc_hz <= 0:
        raise ValueError("carrier frequency must be positive")
    if np.any(np.asarray(h_tx) <= ENV_HEIGHT) or np.any(np.asarray(h_rx) <= ENV_HEIGHT):
        raise ValueError("antenna heights must exceed the 1 m environment height")
    return 4.0 * (h_tx - ENV_HEIGHT) * (h_rx - ENV_HEIGHT) * fc_hz / SPEED_OF_LIGHT


def _check_distances(d2d, d3d):
    d2d = np.asarray(d2d)
    outside = ~((MIN_DIST_2D <= d2d) & (d2d <= MAX_DIST_2D))
    if outside.any():
        raise ValueError(f"2-D distance {d2d[outside].flat[0]:.3f} m outside the model range "
                         "[10, 5000] m")
    if np.any(d3d < d2d):
        raise ValueError("3-D distance cannot be smaller than the 2-D distance")


def pathloss_umi_los(d2d, d3d, fc_ghz: float, h_bs, h_ue, shadow_db=0.0):
    """Line-of-sight pathloss in dB, two-slope in the 2-D distance."""
    _check_distances(d2d, d3d)
    bp = breakpoint_distance(h_bs, h_ue, fc_ghz * 1e9)
    near = 32.4 + 21.0 * np.log10(d3d) + 20.0 * np.log10(fc_ghz)
    far = (32.4 + 40.0 * np.log10(d3d) + 20.0 * np.log10(fc_ghz)
           - 9.5 * np.log10(bp ** 2 + (h_bs - h_ue) ** 2))
    return np.where(d2d <= bp, near, far) + shadow_db


def pathloss_umi_nlos(d2d, d3d, fc_ghz: float, h_bs, h_ue, shadow_db=0.0):
    """Non-line-of-sight pathloss in dB.

    max(LOS value, urban NLOS term), with the shadow draw added once,
    outside the max.
    """
    los = pathloss_umi_los(d2d, d3d, fc_ghz, h_bs, h_ue)
    nlos = 35.3 * np.log10(d3d) + 22.4 + 21.3 * np.log10(fc_ghz) - 0.3 * (h_ue - 1.5)
    return np.maximum(los, nlos) + shadow_db


def steering_vector_upa(rows: int, cols: int, elevation, azimuth) -> np.ndarray:
    """Unit-modulus planar-array response, flattened row-major over (p, q).

    Entry (p, q) is exp(j 2 pi d (p sin(el) cos(az) + q sin(el) sin(az))),
    with d = ELEMENT_SPACING and elevation measured from the array boresight;
    elevation 0 gives the all-ones broadside vector. Arrays of angles give
    one response per angle pair, along a new last axis.
    """
    if rows < 1 or cols < 1:
        raise ValueError("array dimensions must be >= 1")
    el = np.asarray(elevation, dtype=float)[..., None, None]
    az = np.asarray(azimuth, dtype=float)[..., None, None]
    u = np.sin(el) * np.cos(az)
    w = np.sin(el) * np.sin(az)
    p = np.arange(rows)[:, None]
    q = np.arange(cols)[None, :]
    phase = 2.0 * np.pi * ELEMENT_SPACING * (p * u + q * w)
    return np.exp(1j * phase).reshape(*el.shape[:-2], rows * cols)


# panel frames: (in-plane axis 1, in-plane axis 2, boresight normal)
_BS_FRAME = (np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]))   # xz-plane
_RIS_FRAME = (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]))  # xy-plane


def direction_angles(src, dst, frame) -> tuple:
    """(elevation, azimuth) of the unit vector src->dst in the panel frame.

    Elevation in [0, pi] from the boresight; azimuth in [-pi, pi] between
    the two in-plane axes. src and dst may be stacks of points along
    leading axes.
    """
    d = np.asarray(dst, dtype=float) - np.asarray(src, dtype=float)
    # the length as a stack of one-row products, which round like the
    # one-vector norm (norm(..., axis=-1) does not)
    norm = np.sqrt(d[..., None, :] @ d[..., :, None])[..., 0]
    if np.any(norm == 0):
        raise ValueError("coincident endpoints have no direction")
    along = (d / norm) @ np.column_stack(frame)   # components on (u1, u2, normal)
    elevation = np.arccos(np.clip(along[..., 2], -1.0, 1.0))
    azimuth = np.arctan2(along[..., 1], along[..., 0])
    return elevation, azimuth


def bs_panel_shape(n_antennas: int) -> tuple:
    """Most-square factorization of the antenna count, rows <= cols."""
    if n_antennas < 1:
        raise ValueError("antenna count must be >= 1")
    r = int(np.sqrt(n_antennas))
    while n_antennas % r:
        r -= 1
    return r, n_antennas // r


def _link_geometry(a, b):
    """(d2d, d3d, clamped): distances with the 10 m validity floor applied,
    for one link or a stack of them along leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d2d = np.hypot(b[..., 0] - a[..., 0], b[..., 1] - a[..., 1])
    clamped = d2d < MIN_DIST_2D
    d2d = np.where(clamped, MIN_DIST_2D, d2d)
    return d2d, np.hypot(d2d, b[..., 2] - a[..., 2]), clamped


def _amplitudes(pl):
    """10^(-PL/20) link by link, through Python's pow: numpy's power rounds
    differently on a few percent of inputs."""
    pl = np.asarray(pl)
    return np.array([10.0 ** (-v / 20.0) for v in pl.ravel().tolist()]).reshape(pl.shape)


def _blocked(src, ue, deployments) -> np.ndarray:
    """(drops, users) flags: the leg from src to each user crosses one of its
    drop's blockages. Drops without blockages need no test."""
    out = np.zeros(ue.shape[:2], dtype=bool)
    for i, dep in enumerate(deployments):
        if np.size(dep.blockages):
            out[i] = [is_blocked(src, p, dep.blockages) for p in ue[i]]
    return out


def synth_channels(config: ScenarioConfig, deployment: Deployment, seed: int) -> ChannelSet:
    """Synthesize the three channel blocks for one drop.

    The transmitter-to-surface hop is always LOS; user links are classified
    by blockage crossing. One shadow draw per link, in a fixed order
    (surface hop, then per-user direct, then per-user surface legs) so the
    output is a pure function of (config, deployment, seed). This is the
    stacked core on a stack of one drop.
    """
    return _unstack(_synth_stack(config, [deployment], [seed]))[0]


def _synth_stack(config: ScenarioConfig, deployments, seeds) -> ChannelSet:
    """synth_channels for a stack of drops with the same user count, as one
    ChannelSet whose arrays carry a leading drop axis (bs_ris_clamped, a
    function of the config, stays one flag). Drop i holds the bits of
    synth_channels(config, deployments[i], seeds[i])."""
    ue = np.array([d.ue_positions for d in deployments], dtype=float)  # (drops, K, 3)
    K = ue.shape[1]
    if K < 1:
        raise ValueError("deployment has no users")
    N = config.n_bs_antennas
    L = config.ris_side
    fc = config.carrier_freq
    bs = np.asarray(config.bs_position, dtype=float)
    ris = np.asarray(config.ris_position, dtype=float)

    # one generator per drop, whose one draw of 2K + 1 values holds the hop's,
    # then the K direct legs', then the K surface legs', as three draws would
    shadow = np.array([np.random.default_rng(s).normal(0.0, config.shadow_sigma, size=2 * K + 1)
                       for s in seeds])

    rows, cols = bs_panel_shape(N)

    # fixed transmitter-to-surface hop, always LOS; only its shadowing varies by drop
    d2d, d3d, hop_clamped = _link_geometry(bs, ris)
    pl_hop = pathloss_umi_los(d2d, d3d, fc, config.bs_height, ris[2], shadow[:, 0])
    a_surface = steering_vector_upa(L, L, *direction_angles(ris, bs, _RIS_FRAME))
    a_panel = steering_vector_upa(rows, cols, *direction_angles(bs, ris, _BS_FRAME))
    h_rb = _amplitudes(pl_hop)[:, None, None] * np.outer(a_surface, np.conj(a_panel))

    legs = []  # (LOS flags, clamped flags, amplitudes, responses), each (drops, K, ...)
    for src, h_src, frame, shape, leg_shadow in (
            (bs, config.bs_height, _BS_FRAME, (rows, cols), shadow[:, 1:K + 1]),
            (ris, ris[2], _RIS_FRAME, (L, L), shadow[:, K + 1:])):
        los = ~_blocked(src, ue, deployments)
        d2d, d3d, clamped = _link_geometry(src, ue)
        pl = np.where(los, pathloss_umi_los(d2d, d3d, fc, h_src, ue[..., 2], leg_shadow),
                      pathloss_umi_nlos(d2d, d3d, fc, h_src, ue[..., 2], leg_shadow))
        response = steering_vector_upa(*shape, *direction_angles(src, ue, frame))
        legs.append((los, clamped, _amplitudes(pl)[..., None], response))
    (los_d, clamped_d, amp_d, direct), (los_r, clamped_r, amp_r, surface) = legs

    return ChannelSet(amp_d * direct, amp_r * np.conj(surface), h_rb,
                      np.stack([los_d, los_r], axis=-1), np.stack([clamped_d, clamped_r], axis=-1),
                      bool(hop_clamped))


def _unstack(stack: ChannelSet) -> list:
    """The drops of a stacked ChannelSet, as views into its arrays."""
    return [ChannelSet(*arrays, stack.bs_ris_clamped)
            for arrays in zip(stack.h_direct, stack.g_ris, stack.h_rb, stack.los_flags,
                              stack.clamped)]
