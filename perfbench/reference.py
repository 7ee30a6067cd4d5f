"""The benchmark's own checks on risalloc outputs, written without its code.

The utility is recomputed user by user straight from the model in the
README: e_k = h_direct[k] + sum_l g_ris[k, l] m_kl exp(j theta_l) h_rb[l, :],
SINR_k = |e_k w_k|^2 / (sum_{i != k} |e_k w_i|^2 + noise),
R_k = log2(1 + SINR_k) / K, and the alpha-fair sum of max(R_k, 1e-12).
"""

from __future__ import annotations

import itertools
import time

import numpy as np

FEAS_EPS = 1e-9
RATE_FLOOR = 1e-12
UTILITY_RTOL = 1e-9


def utility(h_direct, g_ris, h_rb, w, theta, xi, alpha, noise):
    """Alpha-fair sum utility of one configuration; xi is users by columns."""
    K, L2 = g_ris.shape
    L = xi.shape[1]
    total = 0.0
    for k in range(K):
        mask = np.repeat(xi[k], L2 // L)
        e = h_direct[k] + (g_ris[k] * mask * np.exp(1j * theta)) @ h_rb
        powers = np.abs(w @ e) ** 2
        sinr = powers[k] / (powers.sum() - powers[k] + noise)
        r = max(np.log2(1.0 + sinr) / K, RATE_FLOOR)
        total += np.log(r) if alpha == 1.0 else r ** (1.0 - alpha) / (1.0 - alpha)
    return float(total)


def exhaustive_best(h_direct, g_ris, h_rb, w, alpha, noise, nu):
    """Best utility over every hard column assignment (with "off") and every
    per-column phase on the nu-level grid; surfaces above four elements only."""
    K, L2 = g_ris.shape
    L = int(round(np.sqrt(L2)))
    grid = np.linspace(0.0, np.pi, nu)
    phases = np.array(list(itertools.product(grid, repeat=L)))          # (P, L)
    phase_el = np.exp(1j * np.repeat(phases, L, axis=1))                 # (P, L2)
    best = -np.inf
    for assign in itertools.product(range(K + 1), repeat=L):
        owner = np.repeat(np.array(assign), L)                            # (L2,)
        total = np.zeros(len(phases))
        for k in range(K):
            refl = (g_ris[k] * (owner == k)) * phase_el                   # (P, L2)
            e = h_direct[k] + refl @ h_rb                                 # (P, N)
            powers = np.abs(e @ w.T) ** 2                                 # (P, K)
            sinr = powers[:, k] / (powers.sum(axis=1) - powers[:, k] + noise)
            r = np.maximum(np.log2(1.0 + sinr) / K, RATE_FLOOR)
            total += np.log(r) if alpha == 1.0 else r ** (1.0 - alpha) / (1.0 - alpha)
        best = max(best, float(total.max()))
    return best


def feasible(theta, xi) -> bool:
    """Phases in [0, pi]; shares in [0, 1] with every column summing to <= 1."""
    theta = np.asarray(theta)
    xi = np.asarray(xi)
    return bool(np.all(np.isfinite(theta)) and np.all(np.isfinite(xi))
                and theta.min() >= -FEAS_EPS and theta.max() <= np.pi + FEAS_EPS
                and xi.min() >= -FEAS_EPS and xi.max() <= 1.0 + FEAS_EPS
                and np.all(xi.sum(axis=0) <= 1.0 + FEAS_EPS))


def monotone(objectives) -> bool:
    objs = np.asarray(objectives, dtype=float)
    return bool(np.all(np.isfinite(objs))
                and np.all(np.diff(objs) >= -1e-9 * np.maximum(1.0, np.abs(objs[:-1]))))


def close(a, b, rtol=UTILITY_RTOL) -> bool:
    return bool(np.isfinite(a) and np.isfinite(b) and abs(a - b) <= rtol * max(abs(a), abs(b)))


class Yardstick:
    """A fixed computation, timed just before and just after every timed
    block of a pass.

    The speed of a shared host drifts: the same fixed work (a Python loop, a
    matrix product or the oracle search) takes anywhere from 1x to 2x as long
    from one second to the next, and whole minutes run 30 % slow. A pass's
    time divided by the yardstick's time around it is its cost in yardstick
    units, which that drift moves far less than it moves seconds. Only the
    benchmark's own code runs in the yardstick, so no change to risalloc
    moves it, and its inputs are fixed, so the seed does not either.

    One part evaluates the utility of a toy instance, like the solver and
    the oracle; the other runs dense layers as wide as the MLP's. A workload
    weights them by repeat counts to resemble its own mix.
    """

    def __init__(self, utility_repeats, layer_repeats):
        self.utility_repeats = utility_repeats
        self.layer_repeats = layer_repeats
        rng = np.random.default_rng(20250903)

        def draw(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        self.args = (draw(2, 2), draw(2, 9), draw(9, 2), draw(2, 2),
                     rng.uniform(0.0, np.pi, 9), rng.uniform(0.0, 0.5, (2, 3)), 0.5, 0.05)
        self.x = rng.normal(size=(64, 500))
        self.weights = rng.normal(scale=0.05, size=(500, 450))

    def seconds(self) -> dict:
        t0 = time.perf_counter()
        for _ in range(self.utility_repeats):
            utility(*self.args)
        t1 = time.perf_counter()
        for _ in range(self.layer_repeats):
            np.tanh(self.x @ self.weights)
        return {"utility": t1 - t0, "layer": time.perf_counter() - t1}
