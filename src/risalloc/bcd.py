"""Alternating projected-gradient ascent over phases and allocation shares.

Each outer iteration sweeps the phase block, then the share block (unless a
fixed allocation was supplied), taking a handful of gradient steps per block
with a halving line search that never accepts a decrease, so the objective
trace is monotone up to float noise. Every evaluation goes through the
objective kernel in ``metrics``: each gradient step through its gradient
path (``objective_value_and_gradients``), each line-search trial through
its value-only path.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .allocation import _project_columns
from .channel import ChannelSet
from .metrics import Allocation, PhaseConfig, _beam_matrix, _objective, _single, expand_columns


@dataclass
class BcdOptions:
    max_outer_iters: int = 200
    inner_steps_per_block: int = 10
    step_size: float = 0.1
    tol: float = 1e-5
    seed: int = 0

    def validate(self) -> "BcdOptions":
        if self.max_outer_iters < 1 or self.inner_steps_per_block < 1:
            raise ValueError("iteration counts must be >= 1")
        if self.step_size <= 0 or self.tol <= 0:
            raise ValueError("step_size and tol must be positive")
        return self


@dataclass
class BcdTrace:
    """Objective after every outer iteration (index 0 = starting point)
    and the wall-clock seconds each iteration took."""

    objectives: list = field(default_factory=list)
    seconds: list = field(default_factory=list)

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["iteration", "objective", "seconds"])
            for i, (obj, sec) in enumerate(zip(self.objectives, self.seconds)):
                writer.writerow([i, repr(float(obj)), repr(float(sec))])


def objective_value_and_gradients(ch: ChannelSet, theta, xi, w, alpha: float,
                                  noise_linear: float):
    """Objective plus exact gradients wrt phases and column shares; users
    pinned at the rate floor contribute zero gradient."""
    value, dtheta, dxi = _objective(*_single(ch, w, theta, xi), noise_linear, alpha, grads=True)
    return float(value), dtheta, dxi


def objective_gradients(ch: ChannelSet, theta, xi, w, alpha: float,
                        noise_linear: float):
    """Gradients of the fairness objective wrt (phases, shares)."""
    _, dtheta, dxi = objective_value_and_gradients(ch, theta, xi, w, alpha, noise_linear)
    return dtheta, dxi


def _line_ascend(x, grad, project, evaluate, f_x, step0):
    """One projected step, halving until the objective does not decrease."""
    s = step0
    for _ in range(30):
        cand = project(x + s * grad)
        f_c = evaluate(cand)
        if f_c >= f_x:
            return cand, f_c
        s *= 0.5
    return x, f_x


def bcd_optimize(ch: ChannelSet, w, alpha: float, noise_linear: float,
                 options: BcdOptions | None = None,
                 fixed_alloc: Allocation | None = None):
    """Block ascent from a seeded start.

    Phases start uniform over [0, pi], shares at the 1/K interior point.
    Passing fixed_alloc pins the allocation and optimizes phases only (the
    classic fixed-split baseline). Returns (PhaseConfig, Allocation, BcdTrace).
    """
    opts = (options or BcdOptions()).validate()
    rng = np.random.default_rng(opts.seed)
    K = ch.num_users
    L2 = ch.num_elements
    L = ch.side

    theta = rng.uniform(0.0, np.pi, size=L2)
    if fixed_alloc is None:
        xi = np.full((K, L), 1.0 / K)
    else:
        fixed_alloc.validate()
        xi = np.array(fixed_alloc.xi, dtype=float)
    w_mat = _beam_matrix(w)

    def value_of(th, mask):
        """Value-only kernel path for line-search trials."""
        return float(_objective(ch.g_ris, ch.h_rb, ch.h_direct, w_mat, th, mask, noise_linear, alpha))

    obj = value_of(theta, expand_columns(xi))
    if not np.isfinite(obj):
        raise RuntimeError("objective is not finite at the starting point")
    trace = BcdTrace(objectives=[obj], seconds=[0.0])

    for outer in range(1, opts.max_outer_iters + 1):
        tic = time.perf_counter()

        mask = expand_columns(xi)
        for _ in range(opts.inner_steps_per_block):
            _, dtheta, _ = objective_value_and_gradients(ch, theta, xi, w_mat, alpha, noise_linear)
            theta, obj = _line_ascend(
                theta, dtheta, lambda t: np.clip(t, 0.0, np.pi),
                lambda t: value_of(t, mask), obj, opts.step_size)

        if fixed_alloc is None:
            for _ in range(opts.inner_steps_per_block):
                _, _, dxi = objective_value_and_gradients(ch, theta, xi, w_mat, alpha, noise_linear)
                xi, obj = _line_ascend(
                    xi, dxi, lambda x: _project_columns(x)[0],
                    lambda x: value_of(theta, expand_columns(x)), obj, opts.step_size)

        trace.objectives.append(obj)
        trace.seconds.append(time.perf_counter() - tic)
        if not np.isfinite(obj):
            raise RuntimeError(f"objective became non-finite at outer iteration {outer}")
        prev = trace.objectives[-2]
        if abs(obj - prev) <= opts.tol * max(1.0, abs(prev)):
            break

    return PhaseConfig(theta), Allocation(xi, mode="relaxed"), trace


def bcd_complexity_estimate(num_users: int, num_columns: int) -> int:
    """Dominant per-iteration operation count: K^2 L^2 + K L^2."""
    if num_users < 1 or num_columns < 1:
        raise ValueError("counts must be >= 1")
    return num_users * num_users * num_columns * num_columns + num_users * num_columns * num_columns
