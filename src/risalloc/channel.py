"""Urban-microcell pathloss, planar-array steering, and CSI synthesis.

Pathloss follows the street-canyon model: a two-slope LOS law that switches
at the breakpoint distance, and an NLOS law taken as the maximum of the LOS
value and a steeper urban term, with one shadow-fading draw added per link
outside the max. Amplitudes are 10^(-PL/20). The transmitter panel lies in
the xz-plane, the reflecting surface in the xy-plane; steering phases use
half-wavelength element spacing.
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


def breakpoint_distance(h_tx: float, h_rx: float, fc_hz: float) -> float:
    """Distance where the two-slope LOS law changes regime.

    4 * (h_tx - 1)(h_rx - 1) * fc / c, with heights in meters above the 1 m
    effective environment height and fc in Hz.
    """
    if fc_hz <= 0:
        raise ValueError("carrier frequency must be positive")
    if h_tx <= ENV_HEIGHT or h_rx <= ENV_HEIGHT:
        raise ValueError("antenna heights must exceed the 1 m environment height")
    return 4.0 * (h_tx - ENV_HEIGHT) * (h_rx - ENV_HEIGHT) * fc_hz / SPEED_OF_LIGHT


def _check_distances(d2d: float, d3d: float):
    if not MIN_DIST_2D <= d2d <= MAX_DIST_2D:
        raise ValueError(f"2-D distance {d2d:.3f} m outside the model range [10, 5000] m")
    if d3d < d2d:
        raise ValueError("3-D distance cannot be smaller than the 2-D distance")


def pathloss_umi_los(d2d: float, d3d: float, fc_ghz: float,
                     h_bs: float, h_ue: float, shadow_db: float = 0.0) -> float:
    """Line-of-sight pathloss in dB, two-slope in the 2-D distance."""
    _check_distances(d2d, d3d)
    bp = breakpoint_distance(h_bs, h_ue, fc_ghz * 1e9)
    if d2d <= bp:
        pl = 32.4 + 21.0 * np.log10(d3d) + 20.0 * np.log10(fc_ghz)
    else:
        pl = (32.4 + 40.0 * np.log10(d3d) + 20.0 * np.log10(fc_ghz)
              - 9.5 * np.log10(bp ** 2 + (h_bs - h_ue) ** 2))
    return float(pl + shadow_db)


def pathloss_umi_nlos(d2d: float, d3d: float, fc_ghz: float,
                      h_bs: float, h_ue: float, shadow_db: float = 0.0) -> float:
    """Non-line-of-sight pathloss in dB.

    max(LOS value, urban NLOS term), with the shadow draw added once,
    outside the max.
    """
    _check_distances(d2d, d3d)
    los = pathloss_umi_los(d2d, d3d, fc_ghz, h_bs, h_ue, 0.0)
    nlos = 35.3 * np.log10(d3d) + 22.4 + 21.3 * np.log10(fc_ghz) - 0.3 * (h_ue - 1.5)
    return float(max(los, nlos) + shadow_db)


def steering_vector_upa(rows: int, cols: int, elevation: float, azimuth: float) -> np.ndarray:
    """Unit-modulus planar-array response, flattened row-major over (p, q).

    Entry (p, q) is exp(j 2 pi d (p sin(el) cos(az) + q sin(el) sin(az))),
    with d = ELEMENT_SPACING and elevation measured from the array boresight;
    elevation 0 gives the all-ones broadside vector.
    """
    if rows < 1 or cols < 1:
        raise ValueError("array dimensions must be >= 1")
    u = np.sin(elevation) * np.cos(azimuth)
    w = np.sin(elevation) * np.sin(azimuth)
    p = np.arange(rows)[:, None]
    q = np.arange(cols)[None, :]
    phase = 2.0 * np.pi * ELEMENT_SPACING * (p * u + q * w)
    return np.exp(1j * phase).reshape(-1)


# panel frames: (in-plane axis 1, in-plane axis 2, boresight normal)
_BS_FRAME = (np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]))   # xz-plane
_RIS_FRAME = (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]))  # xy-plane


def direction_angles(src, dst, frame) -> tuple:
    """(elevation, azimuth) of the unit vector src->dst in the panel frame.

    Elevation in [0, pi] from the boresight; azimuth in [-pi, pi] between
    the two in-plane axes.
    """
    u1, u2, normal = frame
    d = np.asarray(dst, dtype=float) - np.asarray(src, dtype=float)
    norm = np.linalg.norm(d)
    if norm == 0:
        raise ValueError("coincident endpoints have no direction")
    d = d / norm
    elevation = float(np.arccos(np.clip(d @ normal, -1.0, 1.0)))
    azimuth = float(np.arctan2(d @ u2, d @ u1))
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
    """(d2d, d3d, clamped): distances with the 10 m validity floor applied."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d2d = float(np.hypot(b[0] - a[0], b[1] - a[1]))
    dz = b[2] - a[2]
    if d2d < MIN_DIST_2D:
        return MIN_DIST_2D, float(np.hypot(MIN_DIST_2D, dz)), True
    return d2d, float(np.hypot(d2d, dz)), False


def _user_link(src, h_src: float, frame, shape, ue, shadow_db: float, fc: float, blockages):
    """One user leg from the panel at src: (LOS flag, clamped flag, amplitude,
    panel response toward the user). The leg is LOS unless a blockage
    crosses it; NLOS legs take the NLOS law."""
    los = not is_blocked(src, ue, blockages)
    d2d, d3d, clamped = _link_geometry(src, ue)
    law = pathloss_umi_los if los else pathloss_umi_nlos
    pl = law(d2d, d3d, fc, h_src, ue[2], shadow_db)
    response = steering_vector_upa(*shape, *direction_angles(src, ue, frame))
    return los, clamped, 10.0 ** (-pl / 20.0), response


def synth_channels(config: ScenarioConfig, deployment: Deployment, seed: int) -> ChannelSet:
    """Synthesize the three channel blocks for one drop.

    The transmitter-to-surface hop is always LOS; user links are classified
    by blockage crossing. One shadow draw per link, in a fixed order
    (surface hop, then per-user direct, then per-user surface legs) so the
    output is a pure function of (config, deployment, seed).
    """
    rng = np.random.default_rng(seed)
    K = deployment.num_ues
    if K < 1:
        raise ValueError("deployment has no users")
    N = config.n_bs_antennas
    L = config.ris_side
    L2 = config.total_elements
    fc = config.carrier_freq
    bs = np.asarray(config.bs_position, dtype=float)
    ris = np.asarray(config.ris_position, dtype=float)
    ue = deployment.ue_positions

    shadow_hop = float(rng.normal(0.0, config.shadow_sigma))
    shadow_direct = rng.normal(0.0, config.shadow_sigma, size=K)
    shadow_ris = rng.normal(0.0, config.shadow_sigma, size=K)

    rows, cols = bs_panel_shape(N)

    # fixed transmitter-to-surface hop, always LOS
    d2d, d3d, hop_clamped = _link_geometry(bs, ris)
    pl_hop = pathloss_umi_los(d2d, d3d, fc, config.bs_height, ris[2], shadow_hop)
    amp_hop = 10.0 ** (-pl_hop / 20.0)
    a_surface = steering_vector_upa(L, L, *direction_angles(ris, bs, _RIS_FRAME))
    a_panel = steering_vector_upa(rows, cols, *direction_angles(bs, ris, _BS_FRAME))
    h_rb = amp_hop * np.outer(a_surface, np.conj(a_panel))

    h_direct = np.zeros((K, N), dtype=complex)
    g_ris = np.zeros((K, L2), dtype=complex)
    los_flags = np.zeros((K, 2), dtype=bool)
    clamped = np.zeros((K, 2), dtype=bool)

    for k in range(K):
        los_flags[k, 0], clamped[k, 0], amp, response = _user_link(
            bs, config.bs_height, _BS_FRAME, (rows, cols), ue[k], shadow_direct[k], fc,
            deployment.blockages)
        h_direct[k] = amp * response
        los_flags[k, 1], clamped[k, 1], amp, response = _user_link(
            ris, ris[2], _RIS_FRAME, (L, L), ue[k], shadow_ris[k], fc, deployment.blockages)
        g_ris[k] = amp * np.conj(response)

    return ChannelSet(h_direct, g_ris, h_rb, los_flags, clamped, hop_clamped)
