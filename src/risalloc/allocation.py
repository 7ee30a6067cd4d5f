"""Feasibility projection, binarization, baseline allocations, and MRT beams."""

from __future__ import annotations

import numpy as np

from .channel import ChannelSet
from .config import ConfigError
from .metrics import Allocation, Beamformers


def _project_columns(x: np.ndarray):
    """Projection of every column (axis -2) onto {z in [0,1]^K : sum z <= 1}.

    The box bound is implied, so the set is the solid unit simplex: columns
    whose clipped entries sum to at most 1 are only clipped, the rest all
    go to the face at once by the sort-based threshold (Duchi et al., ICML
    2008; Condat, Math. Prog. 2016). Returns (projection, per-column simplex
    flag, active-entry mask); the last two feed the training pullback.
    """
    x = np.asarray(x, dtype=float)
    K = x.shape[-2]
    clipped = np.maximum(x, 0.0)
    on_simplex = np.add.reduce(clipped, -2) > 1.0
    srt = np.sort(x, axis=-2)[..., ::-1, :]
    rows = np.arange(K)[:, None]
    level = (srt.cumsum(axis=-2) - 1.0) / (rows + 1)  # the threshold if the top k + 1 stay
    meets = srt - level > 0
    rho = K - 1 - meets[..., ::-1, :].argmax(axis=-2, keepdims=True)  # last index meeting it
    # tau = level at rho, gathered column by column
    tau = level.swapaxes(-1, -2)[(rows == rho).swapaxes(-1, -2)].reshape(rho.shape)
    z = np.maximum(x - tau, 0.0)
    face = on_simplex[..., None, :]
    return np.where(face, z, clipped), on_simplex, np.where(face, z > 0, x > 0.0)


def project_feasible(xi_raw: np.ndarray) -> Allocation:
    """Nearest feasible relaxed allocation, column by column."""
    proj, _, _ = _project_columns(xi_raw)
    return Allocation(proj)


def project_feasible_with_vjp(xi_raw: np.ndarray):
    """Projection plus a pullback for gradients.

    Takes one (K, L) allocation or a (Q, K, L) stack. Returns (projected
    array, vjp) where vjp maps an upstream gradient at the projected point
    to a gradient at the raw input: identity on active entries for
    untouched columns, and mean-subtraction over the active set for columns
    that landed on the simplex face.
    """
    x = np.asarray(xi_raw, dtype=float)
    proj, on_simplex, active = _project_columns(x)
    face = on_simplex[..., None, :]
    counts = np.maximum(active.sum(axis=-2, keepdims=True), 1)

    def vjp(upstream: np.ndarray) -> np.ndarray:
        g = np.where(active, np.asarray(upstream, dtype=float), 0.0)
        means = g.sum(axis=-2, keepdims=True) / counts
        return np.where(face, np.where(active, g - means, 0.0), g)

    return proj, vjp


def binarize(xi: np.ndarray) -> Allocation:
    """Round relaxed column shares to a hard assignment.

    Each column goes entirely to its largest share when that share is at
    least 0.5, otherwise it stays unassigned. Ties break toward the
    smallest user index.
    """
    arr = np.asarray(xi, dtype=float)
    out = np.zeros_like(arr)
    winners = np.argmax(arr, axis=0)
    cols = np.arange(arr.shape[1])
    taken = cols[arr[winners, cols] >= 0.5]
    out[winners[taken], taken] = 1.0
    return Allocation(out)


def uniform_contiguous(num_users: int, num_columns: int) -> Allocation:
    """Baseline: floor(L/K) consecutive columns per user, leftovers off."""
    if num_users < 1 or num_columns < 1:
        raise ValueError("user and column counts must be >= 1")
    if num_users > num_columns:
        raise ConfigError(f"the uniform split gives each user whole columns and needs K <= L, "
                          f"got K = {num_users} users and L = {num_columns} columns")
    share = num_columns // num_users
    xi = np.zeros((num_users, num_columns))
    for k in range(num_users):
        xi[k, k * share:(k + 1) * share] = 1.0
    return Allocation(xi)


def mrt_beamformers(ch: ChannelSet, tx_power_watts: float) -> Beamformers:
    """Matched beams: w_k = sqrt(P_t/K) conj(h_k)/||h_k||, fixed thereafter."""
    if tx_power_watts <= 0:
        raise ValueError("transmit power must be positive")
    norms = np.linalg.norm(ch.h_direct, axis=1)
    if np.any(norms == 0):
        raise ValueError("a user has a zero direct channel; matched beams are undefined")
    scale = np.sqrt(tx_power_watts / ch.num_users)
    return Beamformers(scale * np.conj(ch.h_direct) / norms[:, None])
