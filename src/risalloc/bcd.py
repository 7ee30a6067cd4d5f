"""Alternating projected-gradient ascent over phases and allocation shares.

Each outer iteration sweeps the phase block, then the share block (unless a
fixed allocation was supplied), taking a handful of gradient steps per block
with a halving line search that never accepts a decrease, so the objective
trace is monotone up to float noise. Every evaluation goes through the
objective kernel in ``metrics`` by its gradient path,
``objective_value_and_gradients``: once at the starting point, then about
once per step, each call scoring a stack of line-search trials with their
gradients. The first stack holds one trial more than the block's previous
search needed; the rest of the ladder is scored only when none of those is
accepted. The accepted trial's gradients drive the next step. A block's
sweep ends early at a fixed point: once a search leaves its point unchanged
to the bit, every later step would repeat the same call on the same inputs.
The channel products are bound once per solve, and each block binds the
factor its sweep leaves fixed: the element mask while the phases move,
the phase factors while the shares move.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .allocation import _simplex_columns
from .channel import ChannelSet
from .config import AT_LEAST_ONE, NON_NEGATIVE, POSITIVE, check_fields
from .metrics import Allocation, PhaseConfig, _bind, _evaluate, _single


@dataclass(frozen=True)
class BcdOptions:
    max_outer_iters: int = 200
    inner_steps_per_block: int = 10
    step_size: float = 0.1
    tol: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        check_fields(self, max_outer_iters=AT_LEAST_ONE, inner_steps_per_block=AT_LEAST_ONE,
                     step_size=POSITIVE, tol=POSITIVE, seed=NON_NEGATIVE)


@dataclass
class BcdTrace:
    """Objective after every outer iteration (index 0 = starting point)
    and the wall-clock seconds each iteration took."""

    objectives: list = field(default_factory=list)
    seconds: list = field(default_factory=list)


def objective_value_and_gradients(ch: ChannelSet, theta, xi, w, alpha: float,
                                  noise_linear: float, bound=None):
    """Objective plus exact gradients wrt phases and column shares; users
    pinned at the rate floor contribute zero gradient.

    Scores one instance, or a stack of trials when theta is (Q, L2) or xi
    is (Q, K, L): the value is then a (Q,) array instead of a float, and
    the gradients gain the leading Q axis. ``bound`` is ch and w bound by
    ``metrics._bind`` with grads=True, possibly with a block factor;
    without it the call binds them itself. With ``bound``, theta and xi
    must already be float arrays, as the solver passes them.
    """
    if bound is None:
        g_ris, h_rb, h_direct, w, theta, xi = _single(ch, w, theta, xi)
        bound = _bind(g_ris, h_rb, h_direct, w, grads=True)
    value, dtheta, dxi = _evaluate(bound, theta, xi, noise_linear, alpha, grads=True)
    return (float(value) if np.ndim(value) == 0 else value), dtheta, dxi


def _line_ascend(x, f_x, grads, block, project, score, ladder, first):
    """One projected step along grads[block], halving until the objective
    does not decrease.

    The trials x + ladder[j] * grads[block] are projected and scored as
    stacks: the first ``first`` in one call, the rest of the ladder in a
    second when none of those is accepted. Returns (point, value, gradients
    there, trials used), or (x, f_x, grads, len(ladder)) when every trial
    decreases the objective.
    """
    for lo, hi in ((0, first), (first, len(ladder))):
        if lo == hi:
            continue
        trials = project(x + np.multiply.outer(ladder[lo:hi], grads[block]))
        values, *trial_grads = score(trials)
        accepted = values >= f_x
        i = int(accepted.argmax())  # the first accepted trial, if any
        if accepted[i]:
            return trials[i].copy(), float(values[i]), [g[i].copy() for g in trial_grads], lo + i + 1
    return x, f_x, grads, len(ladder)


def _ascend_block(x, f_x, grads, block, project, score, ladder, steps, used):
    """Up to ``steps`` line searches on one block. Returns (point, value,
    gradients, trials the last search used).

    Each search's first stack holds one trial more than the previous one
    needed, so a search that needs one more trial than the last still
    costs one kernel call. The sweep stops as soon as a search leaves its
    point unchanged: every later search would score the same trials from
    the same point and gradients.
    """
    for _ in range(steps):
        y, f_y, grads, used = _line_ascend(x, f_x, grads, block, project, score, ladder,
                                           min(used + 1, len(ladder)))
        fixed_point = f_y == f_x and np.array_equal(y, x)  # the floats first: cheap
        x, f_x = y, f_y
        if fixed_point:
            break
    return x, f_x, grads, used


def bcd_optimize(ch: ChannelSet, w, alpha: float, noise_linear: float,
                 options: BcdOptions | None = None,
                 fixed_alloc: Allocation | None = None):
    """Block ascent from a seeded start.

    Phases start uniform over [0, pi], shares at the 1/K interior point.
    Passing fixed_alloc pins the allocation and optimizes phases only (the
    classic fixed-split baseline). Returns (PhaseConfig, Allocation, BcdTrace).
    """
    opts = options or BcdOptions()
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
    ladder = np.cumprod([opts.step_size] + [0.5] * 29)  # the floats a halving loop gives

    problem = _bind(ch.g_ris, ch.h_rb, ch.h_direct, w, grads=True)

    def score(th, x, bound):
        return objective_value_and_gradients(ch, th, x, w, alpha, noise_linear, bound)

    obj, *grads = score(theta, xi, problem)
    if not np.isfinite(obj):
        raise RuntimeError("objective is not finite at the starting point")
    trace = BcdTrace(objectives=[obj], seconds=[0.0])
    used = [1, 1]  # trials the last line search of each block needed

    for outer in range(1, opts.max_outer_iters + 1):
        tic = time.perf_counter()

        shares_fixed = problem.with_shares(xi)
        theta, obj, grads, used[0] = _ascend_block(
            theta, obj, grads, 0, lambda t: t.clip(0.0, np.pi, out=t),
            lambda t: score(t, xi, shares_fixed),
            ladder, opts.inner_steps_per_block, used[0])

        if fixed_alloc is None:
            phases_fixed = problem.with_phases(theta)
            xi, obj, grads, used[1] = _ascend_block(
                xi, obj, grads, 1, lambda x: _simplex_columns(x)[0],
                lambda x: score(theta, x, phases_fixed),
                ladder, opts.inner_steps_per_block, used[1])

        trace.objectives.append(obj)
        trace.seconds.append(time.perf_counter() - tic)
        if not np.isfinite(obj):
            raise RuntimeError(f"objective became non-finite at outer iteration {outer}")
        prev = trace.objectives[-2]
        if abs(obj - prev) <= opts.tol * max(1.0, abs(prev)):
            break

    return PhaseConfig(theta), Allocation(xi), trace
