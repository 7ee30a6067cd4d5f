"""Allocation masking, rates, and fairness objectives.

The objective lives in one private kernel, ``_objective``, over stacked
instances, with a value-only and a gradient path. Its one-channel callers
are ``user_rates`` and ``sum_utility`` here and
``bcd.objective_value_and_gradients``, which also scores stacks of trials.
``_objective`` binds its problem (``_bind``) and evaluates it
(``_evaluate``). The solver calls the two steps itself: it binds once per
solve and scores its starting point with ``_evaluate``. Each of its blocks
then binds a block map (``_Bound.with_shares`` or ``with_phases``) and
scores its trials through it (``_evaluate_block``).
Both paths end in one shared tail (``_tail``) from S to the utilities and
H = G * conj(S), G = dU/d|S|^2.

A stack of drops is this module's too: ``_bind_drops`` stacks and binds a
list of drops, for training's batches and the solver's lockstep chunks,
``_Bound.take`` slices a bound stack, and ``_map_bytes`` gives the bytes
one drop's block maps take in it.
"""

from __future__ import annotations

import math
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
    them) with the products that no phase or share changes. Built by _bind;
    for one channel, with_shares or with_phases then add the linear map by
    which S, S[k, i] = e_k . w_i, follows the block a sweep moves while the
    other block stays fixed (Wu and Zhang's cascaded channel)."""

    g_ris: np.ndarray
    h_rb: np.ndarray
    h_direct: np.ndarray
    w_t: np.ndarray                    # w^T: S = e @ w_t
    own: np.ndarray | None             # (K, K) selector of each user's own beam
    B: np.ndarray | None               # B[i, l] = (h_rb w_i)_l
    D: np.ndarray | None               # D[k, i] = h_d,k . w_i, the direct part of S
    M: np.ndarray | None = None        # (L2, K*K) phase map, M[l, (k, i)] = g_kl mask_kl B_il
    Mt: np.ndarray | None = None       # -2 M^T: the phase gradient is Im(e^{j theta} (H @ Mt))
    N: np.ndarray | None = None        # (K, L, K) share map: N[k, c, i] sums
                                       # g_kl e^{j theta_l} B_il over the elements l of column c
    Nt: np.ndarray | None = None       # 2 N^T per user: the share gradient is Re(H_k @ Nt_k)

    def with_shares(self, xi) -> "_Bound":
        """Bind the phase map of fixed shares: S = D + e^{j theta} @ M."""
        gm = (self.g_ris * expand_columns(xi)).swapaxes(-1, -2)
        M = (gm[..., :, :, None] * self.B.swapaxes(-1, -2)[..., None, :]).reshape(
            gm.shape[:-1] + (-1,))
        return _Bound(self.g_ris, self.h_rb, self.h_direct, self.w_t, self.own, self.B, self.D,
                      M=M, Mt=-2.0 * M.swapaxes(-1, -2))

    def with_phases(self, theta) -> "_Bound":
        """Bind the share map of fixed phases: S_k = D_k + xi_k @ N_k."""
        g_phase = self.g_ris * np.exp(1j * theta)[..., None, :]
        K, L2 = g_phase.shape[-2:]
        L = math.isqrt(L2)
        Nt = np.add.reduce((g_phase[..., :, None, :] * self.B[..., None, :, :]).reshape(
            g_phase.shape[:-2] + (K, K, L, L)), -1)
        return _Bound(self.g_ris, self.h_rb, self.h_direct, self.w_t, self.own, self.B, self.D,
                      N=Nt.swapaxes(-1, -2).copy(), Nt=2.0 * Nt)

    def fixed_gradient(self, H, theta, xi):
        """The gradient wrt the block this binding holds fixed, at the point
        (theta, xi) whose H = G * conj(S) a block call returned."""
        C = _cascade(self, H, self.g_ris * np.exp(1j * theta)[..., None, :])
        if self.M is not None:
            return _share_gradient(C, np.shape(xi)[-1])
        return _phase_gradient(C, expand_columns(xi))

    def scorer(self) -> "_Bound":
        """What _evaluate_block reads of this binding: own, D and the block
        map, so that take copies nothing more."""
        return _Bound(None, None, None, None, self.own, None, self.D,
                      M=self.M, Mt=self.Mt, N=self.N, Nt=self.Nt)

    def take(self, rows) -> "_Bound":
        """The drops ``rows`` of a stack bound by _bind over stacked channels,
        with their block maps. Each slice keeps its memory order, which
        fixes the BLAS call, and so the bits, of every product through it."""
        return replace(self, **{f: _take(getattr(self, f), rows) for f in _PER_DROP
                                if getattr(self, f) is not None})


_PER_DROP = ("g_ris", "h_rb", "h_direct", "w_t", "B", "D", "M", "Mt", "N", "Nt")


def _map_bytes(ch: ChannelSet) -> int:
    """Bytes of the block maps one drop of ch's shape holds in a bound stack:
    M and Mt (L2 x K*K) from with_shares, N and Nt (K x L x K) from
    with_phases, all complex."""
    K, L2, L = ch.num_users, ch.num_elements, ch.side
    return 16 * 2 * K * K * (L2 + L)


def _take(a, rows):
    """a[rows] along the stack axis, each (..., m, n) slice in a's order."""
    if a.flags.c_contiguous:
        return a[rows]
    return a.swapaxes(-1, -2)[rows].swapaxes(-1, -2)


def _bind(g_ris, h_rb, h_direct, w, grads: bool = False) -> _Bound:
    """Bind one problem for _evaluate; own, B and D, which only the gradient
    path and the block maps read, are built when grads is True. Shapes as in
    _objective."""
    w_t = w.swapaxes(-1, -2)
    own = np.eye(w.shape[-2], dtype=bool) if grads else None
    B = w @ h_rb.swapaxes(-1, -2) if grads else None
    D = h_direct @ w_t if grads else None
    return _Bound(g_ris, h_rb, h_direct, w_t, own, B, D)


def _bind_drops(channels, ws, grads: bool = False) -> _Bound:
    """A list of drops (ChannelSets and their (K, N) beam matrices) stacked
    and bound once by _bind."""
    if len(channels) != len(ws):
        raise ValueError("batch sizes disagree")
    return _bind(*(np.stack([getattr(ch, f) for ch in channels])
                   for f in ("g_ris", "h_rb", "h_direct")), np.stack(ws), grads)


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
    """The one body of _objective, on a bound problem; any block map bound
    into b is not read."""
    mask = expand_columns(xi)
    phase = np.exp(1j * theta)
    # e_k: user k's effective row. The product writes into its right operand
    # explicitly: numpy would reuse a large temporary by itself, but with the
    # operands swapped, which changes the imaginary part's rounding, so the
    # bits would depend on the stack size.
    t = mask * phase[..., None, :]
    e = np.multiply(b.g_ris, t, out=t) @ b.h_rb + b.h_direct
    out = _tail(e @ b.w_t, noise_linear, alpha, b.own if grads else None)
    if not grads:
        return out
    values, H = out
    C = _cascade(b, H, b.g_ris * phase[..., None, :])
    return values, _phase_gradient(C, mask), _share_gradient(C, np.shape(xi)[-1])


def _evaluate_block(b: _Bound, x, noise_linear: float, alpha: float):
    """Score trials x of the block that b's map leaves free: phases (Q, L2)
    under a phase map (with_shares), shares (Q, K, L) under a share map
    (with_phases). Returns the utilities (Q,), the moving block's gradient
    and H = G * conj(S) (Q, K, K), from which b.fixed_gradient forms the
    other block's.

    The complex products write into explicit outputs, as in _evaluate, and
    every matrix product is one small product per trial, so a trial's bits
    do not depend on the stack it is scored in.
    """
    K = b.D.shape[-1]
    if b.M is not None:
        phase = 1j * x
        phase = np.exp(phase, out=phase)[..., None, :]
        S = (phase @ b.M).reshape(x.shape[:-1] + (K, K))
    else:
        S = (x[..., None, :] @ b.N).reshape(x.shape[:-1] + (K,))
    S += b.D
    values, H = _tail(S, noise_linear, alpha, b.own)
    if b.M is not None:
        R = H.reshape(x.shape[:-1] + (1, K * K)) @ b.Mt
        grad = np.multiply(phase, R, out=R).imag.reshape(x.shape)
    else:
        grad = (H[..., None, :] @ b.Nt).real.reshape(x.shape)
    return values, grad, H


def _tail(S, noise_linear: float, alpha: float | None, own):
    """The kernel from S (..., K, K), S[k, i] = e_k . w_i, to rates when
    alpha is None, else utilities; with own, the (K, K) selector of each
    user's own beam, also H = G * conj(S), G = dU/d|S|^2."""
    if noise_linear < 0 or (own is not None and noise_linear == 0):
        raise ValueError("noise power must be non-negative, and positive for gradients")
    P = np.abs(S)
    np.square(P, out=P)
    num = P.diagonal(axis1=-2, axis2=-1)
    den = np.add.reduce(P, -1)
    den -= num
    den += noise_linear
    sig = num / den
    K = S.shape[-1]
    gain = 1.0 + sig
    rates = np.log2(gain)
    rates /= K
    if alpha is None:
        return rates
    floored = np.maximum(rates, RATE_FLOOR)
    values = np.add.reduce(_floored_utility(floored, alpha), -1)
    if own is None:
        return values

    q = np.where(rates > RATE_FLOOR, floored ** (-alpha), 0.0)  # dU/drate
    q *= np.divide(1.0, np.multiply(K * _LN2, gain, out=gain), out=gain)  # drate/dSINR
    q /= den
    q = q[..., :, None]
    # dU/d|S_ki|^2: q_k on the diagonal, -q_k * SINR_k off it
    G = np.where(own, q, -q * sig[..., :, None])
    H = np.conj(S)
    return values, np.multiply(G, H, out=H)


def _cascade(b: _Bound, H, g_phase):
    """C = g_phase * (H @ B) (Q, K, L2), from H = G * conj(S) and
    g_phase = g_ris e^{j theta}: both gradients are sums over it."""
    C = H @ b.B
    return np.multiply(g_phase, C, out=C)  # in place, as in _evaluate


def _phase_gradient(C, mask):
    """The gradient wrt phases, from _cascade and the element mask."""
    return -2.0 * np.imag(np.add.reduce(mask * C, -2))


def _share_gradient(C, L: int):
    """The gradient wrt column shares, from _cascade, L columns."""
    return 2.0 * np.add.reduce(np.real(C).reshape(C.shape[:-1] + (L, L)), -1)


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
    out = _floored_utility(np.maximum(np.asarray(r, dtype=float), RATE_FLOOR), alpha)
    return float(out) if out.ndim == 0 else out


def _floored_utility(r, alpha: float):
    """alpha_utility of rates already floored at RATE_FLOOR."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if alpha == 1.0:
        return np.log(r)
    return r ** (1.0 - alpha) / (1.0 - alpha)


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
