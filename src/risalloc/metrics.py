"""Allocation masking, rates, and fairness objectives.

The objective lives in one private kernel, ``_objective``, over stacked
instances, with a value-only and a gradient path. Its one-channel callers
are ``user_rates`` and ``sum_utility`` here and
``bcd.objective_value_and_gradients``, which also scores stacks of trials.
``_objective`` binds its problem (``_bind``) and evaluates it
(``_evaluate``); the solver binds once per solve and reuses the binding.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelSet

RATE_FLOOR = 1e-12  # keeps log/power utilities finite when a user gets nothing

_FEAS_EPS = 1e-9  # slack for float noise out of the projection

_LN2 = float(np.log(2.0))


@dataclass
class PhaseConfig:
    """Per-element reflection phases, radians in [0, pi]."""

    theta: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float).reshape(-1)


@dataclass
class Allocation:
    """Per-user element shares.

    xi is (K, L): entry (k, c) is user k's share of surface column c, in
    [0, 1], and each column's shares sum to at most 1.
    """

    xi: np.ndarray

    def __post_init__(self):
        self.xi = np.asarray(self.xi, dtype=float)
        if self.xi.ndim != 2:
            raise ValueError("xi must be 2-D (users x columns)")

    def validate(self) -> "Allocation":
        if np.any(self.xi < -_FEAS_EPS) or np.any(self.xi > 1.0 + _FEAS_EPS):
            raise ValueError("allocation entries must lie in [0, 1]")
        if np.any(self.xi.sum(axis=0) > 1.0 + _FEAS_EPS):
            raise ValueError("column shares must sum to at most 1")
        return self


@dataclass
class Beamformers:
    """Transmit beam matrix, row k aimed at user k; ||w_k||^2 = P_t / K."""

    w: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=complex)


def expand_columns(xi) -> np.ndarray:
    """Spread column shares onto elements: (K, L) -> (K, L*L).

    Element l belongs to column l // L, so each column's share repeats over
    L consecutive element indices: row [1, 0] with L = 2 becomes [1, 1, 0, 0].
    Accepts a single row as well.
    """
    arr = np.asarray(xi, dtype=float)
    reps = arr.shape[-1]
    return np.repeat(arr, reps, axis=arr.ndim - 1)


@dataclass(slots=True)
class _Bound:
    """The kernel's inputs bound to one problem (a channel, or a stack of
    them) with the products that no phase or share changes, plus at most
    one block's fixed factor. Built by _bind, then with_shares for a block
    that moves only the phases, or with_phases for one that moves only the
    shares."""

    g_ris: np.ndarray
    h_rb: np.ndarray
    h_direct: np.ndarray
    w_t: np.ndarray                    # w^T: S = e @ w_t
    own: np.ndarray | None             # (K, K) selector of each user's own beam
    B: np.ndarray | None               # B[i, l] = (h_rb w_i)_l
    mask: np.ndarray | None = None     # expand_columns(xi) for fixed shares
    phase: np.ndarray | None = None    # e^{j theta} for fixed phases
    g_phase: np.ndarray | None = None  # g_ris e^{j theta} for fixed phases

    def with_shares(self, xi) -> "_Bound":
        return replace(self, mask=expand_columns(xi))

    def with_phases(self, theta) -> "_Bound":
        phase = np.exp(1j * theta)
        return replace(self, phase=phase, g_phase=self.g_ris * phase[..., None, :])


def _bind(g_ris, h_rb, h_direct, w, grads: bool = False) -> _Bound:
    """Bind one problem for _evaluate; own and B, which only the gradient
    path reads, are built when grads is True. Shapes as in _objective."""
    own = np.eye(w.shape[-2], dtype=bool) if grads else None
    B = w @ h_rb.swapaxes(-1, -2) if grads else None
    return _Bound(g_ris, h_rb, h_direct, w.swapaxes(-1, -2), own, B)


def _objective(g_ris, h_rb, h_direct, w, theta, xi, noise_linear: float,
               alpha: float | None = None, grads: bool = False):
    """Rates (Q, K) when alpha is None, else utilities (Q,); grads=True adds
    the exact gradients wrt phases (Q, L2) and column shares (Q, K, L).

    Inputs broadcast over a leading batch shape (Q,), absent for one
    instance: g_ris (Q, K, L2), h_rb (Q, L2, N), h_direct and w (Q, K, N),
    theta (Q, L2), column shares xi (Q, K, L), spread onto the elements by
    expand_columns. Users pinned at the rate floor contribute zero gradient,
    so an all-zero allocation zeroes dtheta.
    """
    return _evaluate(_bind(g_ris, h_rb, h_direct, w, grads), theta, xi, noise_linear, alpha, grads)


def _evaluate(b: _Bound, theta, xi, noise_linear: float, alpha: float | None = None,
              grads: bool = False):
    """The one body of _objective, on a bound problem; a block factor bound
    into b stands in for the mask or phase factors theta or xi would give."""
    if noise_linear < 0 or (grads and noise_linear == 0):
        raise ValueError("noise power must be non-negative, and positive for gradients")
    mask = expand_columns(xi) if b.mask is None else b.mask
    phase = np.exp(1j * theta) if b.phase is None else b.phase
    # e_k: user k's effective row
    e = (b.g_ris * (mask * phase[..., None, :])) @ b.h_rb + b.h_direct
    S = e @ b.w_t  # S[k, i] = e_k . w_i
    P = np.abs(S) ** 2
    num = P.diagonal(axis1=-2, axis2=-1)
    den = np.add.reduce(P, -1) - num + noise_linear
    sig = num / den
    K = S.shape[-1]
    gain = 1.0 + sig
    rates = np.log2(gain) / K
    if alpha is None:
        return rates
    values = np.add.reduce(alpha_utility(rates, alpha), -1)
    if not grads:
        return values

    floored = np.maximum(rates, RATE_FLOOR)
    du_drate = np.where(rates > RATE_FLOOR, floored ** (-alpha), 0.0)
    drate_dsinr = 1.0 / (K * _LN2 * gain)
    q = (du_drate * drate_dsinr / den)[..., :, None]
    # dU/d|S_ki|^2: q_k on the diagonal, -q_k * SINR_k off it
    G = np.where(b.own, q, -q * sig[..., :, None])
    g_phase = b.g_ris * phase[..., None, :] if b.g_phase is None else b.g_phase
    C = g_phase * ((G * np.conj(S)) @ b.B)  # (Q, K, L2)
    dtheta = -2.0 * np.imag(np.add.reduce(mask * C, -2))
    L = np.shape(xi)[-1]
    dxi = 2.0 * np.add.reduce(np.real(C).reshape(C.shape[:-1] + (L, L)), -1)
    return values, dtheta, dxi


def _single(ch: ChannelSet, w, theta, xi):
    """Kernel inputs for one channel and the (K, N) beam matrix w; theta may
    be a PhaseConfig, xi an Allocation, or either one a stack of trials,
    theta (Q, L2) or xi (Q, K, L)."""
    theta = theta.theta if isinstance(theta, PhaseConfig) else np.asarray(theta, dtype=float)
    theta = theta if theta.ndim == 2 else theta.reshape(-1)
    xi = xi.xi if isinstance(xi, Allocation) else xi
    return ch.g_ris, ch.h_rb, ch.h_direct, w, theta, xi


def user_rates(ch: ChannelSet, theta, xi, w, noise_linear: float) -> np.ndarray:
    """Normalized per-user rates (1/K) log2(1 + SINR_k) for all users at once."""
    return _objective(*_single(ch, w, theta, xi), noise_linear)


def alpha_utility(r, alpha: float):
    """Fairness utility of a rate: r^(1-alpha)/(1-alpha), natural log at alpha=1.

    Rates are floored at RATE_FLOOR first so the value stays finite.
    Vectorizes over arrays.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    r = np.maximum(np.asarray(r, dtype=float), RATE_FLOOR)
    if alpha == 1.0:
        out = np.log(r)
    else:
        out = r ** (1.0 - alpha) / (1.0 - alpha)
    return float(out) if out.ndim == 0 else out


def sum_utility(ch: ChannelSet, theta, xi, w, alpha: float, noise_linear: float) -> float:
    """Total fairness utility over users; the objective every solver shares."""
    return float(_objective(*_single(ch, w, theta, xi), noise_linear, alpha))


def alpha_mean_throughput(rates, alpha: float, bandwidth: float) -> float:
    """Generalized (power) mean of the per-user throughputs B * R_k.

    Order 1 - alpha; the alpha = 1 case is the geometric mean. Computed in
    log space so extreme alpha stays stable.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    t = bandwidth * np.maximum(np.asarray(rates, dtype=float).reshape(-1), RATE_FLOOR)
    logs = np.log(t)
    if alpha == 1.0:
        return float(np.exp(logs.mean()))
    scaled = (1.0 - alpha) * logs
    peak = scaled.max()
    mean_log = peak + np.log(np.mean(np.exp(scaled - peak)))
    return float(np.exp(mean_log / (1.0 - alpha)))
