"""Block ascent over phases and allocation shares.

Each outer iteration sweeps the phase block, then the share block (unless a
fixed allocation was supplied), taking a handful of steps per block with a
halving line search that never accepts a decrease, so the objective trace
is monotone up to float noise. The phase block steps along its gradient
from ``step_size`` and clips to [0, pi]. The share block takes Frank-Wolfe
steps (Jaggi, ICML 2013), which need no projection: its direction is s - xi,
where the vertex s gives each column wholly to the user with the largest
positive share gradient, or to nobody, and every trial xi + gamma (s - xi)
on the ladder gamma = 1, 1/2, ..., 2^-29 is feasible. A step that accepts
gamma = 1 lands on the vertex exactly, so a solve can end on a hard
allocation. The share sweep ends when s equals xi.

Every evaluation is one call of ``objective_value_and_gradients``: once at
the starting point, by the objective kernel in ``metrics``, then about once
per step, each call scoring a stack of line-search trials with the moving
block's gradient. The first stack holds one trial more than the block's
previous search needed; the rest of the ladder is scored only when none of
those is accepted. The accepted trial's gradient drives the next step. A
block's sweep also ends early at a fixed point: once a search leaves its
point and gradient unchanged to the bit, every later step would repeat the
same call on the same inputs.

With one block fixed, S (S[k, i] = e_k . w_i) is affine in the other:
S = D + e^{j theta} @ M while the phases move, S_k = D_k + xi_k @ N_k while
the shares move (the cascaded channel of Wu and Zhang, IEEE TWC 2019). D
is bound once per solve, and each block binds its map, M or N, once per
sweep (M once per solve when the shares are pinned); the trials are then
scored through it. A call returns H = G * conj(S) beside the value and
gradient, and the other block's gradient, which seeds that block's first
step, is formed once per block from the last accepted trial's H; a block
that accepts nothing leaves it as it was.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelSet
from .config import AT_LEAST_ONE, NON_NEGATIVE, POSITIVE, check_fields
from .metrics import Allocation, PhaseConfig, _bind, _evaluate, _evaluate_block, _single


@dataclass(frozen=True)
class BcdOptions:
    """Solver settings. ``step_size`` is the phase block's first trial step;
    the share block's Frank-Wolfe ladder always starts at 1 and ignores it.
    ``inner_steps_per_block`` caps the steps of each block's sweep."""

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
    """Objective after every outer iteration (index 0 = starting point),
    the wall-clock seconds each iteration took, why the solve stopped
    ("tolerance" or "iteration cap") and how many objective calls it made."""

    objectives: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    stop_reason: str = "iteration cap"
    kernel_calls: int = 0


def objective_value_and_gradients(ch: ChannelSet, theta, xi, w, alpha: float,
                                  noise_linear: float, bound=None):
    """Objective plus exact gradients wrt phases and column shares; users
    pinned at the rate floor contribute zero gradient.

    Scores one instance, or a stack of trials when theta is (Q, L2) or xi
    is (Q, K, L): the value is then a (Q,) array instead of a float, and
    the gradients gain the leading Q axis. ``bound`` is ch and w bound by
    ``metrics._bind`` with grads=True; without it the call binds them
    itself. With ``bound``, theta and xi must already be float arrays, as
    the solver passes them. When ``bound`` carries a block map
    (``with_shares`` or ``with_phases``), only the block that map leaves
    free is scored: the call returns the value, that block's gradient and
    H = G * conj(S), from which ``bound.fixed_gradient`` forms the other
    block's gradient.
    """
    if bound is None:
        g_ris, h_rb, h_direct, w, theta, xi = _single(ch, w, theta, xi)
        bound = _bind(g_ris, h_rb, h_direct, w, grads=True)
    if bound.M is None and bound.N is None:
        value, *grads = _evaluate(bound, theta, xi, noise_linear, alpha, grads=True)
    else:
        value, *grads = _evaluate_block(bound, theta, xi, noise_linear, alpha)
    return (float(value) if np.ndim(value) == 0 else value), *grads


def _line_ascend(x, f_x, d, project, score, ladder, first):
    """One projected step along the direction d, halving until the
    objective does not decrease.

    The trials x + ladder[j] * d are projected and scored as stacks: the
    first ``first`` in one call, the rest of the ladder in a second when
    none of those is accepted. Returns (point, value, the score's other
    outputs there, trials used), or (x, f_x, None, len(ladder)) when every
    trial decreases the objective.
    """
    for lo, hi in ((0, first), (first, len(ladder))):
        if lo == hi:
            continue
        trials = project(x + np.multiply.outer(ladder[lo:hi], d))
        values, *outputs = score(trials)
        accepted = values >= f_x
        i = int(accepted.argmax())  # the first accepted trial, if any
        if accepted[i]:
            return trials[i].copy(), float(values[i]), [o[i].copy() for o in outputs], lo + i + 1
    return x, f_x, None, len(ladder)


def _ascend_block(x, f_x, grad, direction, project, score, ladder, steps, used):
    """Up to ``steps`` line searches on one block, each along
    ``direction(point, gradient)``. Returns (point, value, gradient, H of
    the last accepted trial or None when none was accepted, trials the last
    search used).

    Each search's first stack holds one trial more than the previous one
    needed, so a search that needs one more trial than the last still
    costs one kernel call. The sweep stops when the direction rule returns
    None, and as soon as a search leaves its point and gradient unchanged:
    every later search would score the same trials from the same point and
    gradient.
    """
    H = None
    for _ in range(steps):
        d = direction(x, grad)
        if d is None:
            break
        y, f_y, at_y, used = _line_ascend(x, f_x, d, project, score, ladder,
                                          min(used + 1, len(ladder)))
        if at_y is None:  # every trial decreases the objective
            break
        g_y, H = at_y
        # the floats first: cheap
        fixed_point = f_y == f_x and np.array_equal(y, x) and np.array_equal(g_y, grad)
        x, f_x, grad = y, f_y, g_y
        if fixed_point:
            break
    return x, f_x, grad, H, used


def _vertex_direction(xi, grad):
    """Frank-Wolfe direction s - xi over each column's solid simplex, or
    None when s equals xi. The vertex s maximises the share gradient's
    linear model: each column goes wholly to the user with the largest
    positive gradient (the smallest index on a tie), or to nobody."""
    cols = np.arange(xi.shape[1])
    top = grad.argmax(axis=0)
    on = grad[top, cols] > 0.0
    s = np.zeros_like(xi)
    s[top[on], cols[on]] = 1.0
    return None if np.array_equal(s, xi) else s - xi


def bcd_optimize(ch: ChannelSet, w, alpha: float, noise_linear: float,
                 options: BcdOptions | None = None,
                 fixed_alloc: Allocation | None = None):
    """Block ascent from a seeded start.

    Phases start uniform over [0, pi], shares at the 1/K interior point.
    The phases take clipped gradient steps from ``options.step_size``; the
    shares take Frank-Wolfe steps toward a vertex, from a full step down,
    and do not read ``step_size``. Passing fixed_alloc, a (K, L)
    allocation, pins it and optimizes phases only (the classic fixed-split
    baseline). Returns (PhaseConfig, Allocation, BcdTrace).
    """
    opts = options or BcdOptions()
    K = ch.num_users
    L2 = ch.num_elements
    L = ch.side
    if fixed_alloc is not None and fixed_alloc.xi.shape != (K, L):
        raise ValueError(f"fixed_alloc has shape {fixed_alloc.xi.shape}; this problem "
                         f"needs (K, L) = {(K, L)}")
    rng = np.random.default_rng(opts.seed)

    theta = rng.uniform(0.0, np.pi, size=L2)
    if fixed_alloc is None:
        xi = np.full((K, L), 1.0 / K)
    else:
        fixed_alloc.validate()
        xi = np.array(fixed_alloc.xi, dtype=float)
    halvings = [0.5] * 29  # the floats a halving loop gives
    phase_ladder = np.cumprod([opts.step_size] + halvings)
    share_ladder = np.cumprod([1.0] + halvings)

    problem = _bind(ch.g_ris, ch.h_rb, ch.h_direct, w, grads=True)
    trace = BcdTrace()

    def score(th, x, bound):
        trace.kernel_calls += 1
        return objective_value_and_gradients(ch, th, x, w, alpha, noise_linear, bound)

    obj, dtheta, dxi = score(theta, xi, problem)
    if not np.isfinite(obj):
        raise RuntimeError("objective is not finite at the starting point")
    trace.objectives.append(obj)
    trace.seconds.append(0.0)
    used = [1, 1]  # trials the last line search of each block needed

    for outer in range(1, opts.max_outer_iters + 1):
        tic = time.perf_counter()

        if outer == 1 or fixed_alloc is None:  # pinned shares keep one map all solve
            phase_map = problem.with_shares(xi)
        theta, obj, dtheta, H, used[0] = _ascend_block(
            theta, obj, dtheta, lambda t, g: g, lambda t: t.clip(0.0, np.pi, out=t),
            lambda t: score(t, xi, phase_map),
            phase_ladder, opts.inner_steps_per_block, used[0])

        if fixed_alloc is None:
            if H is not None:
                dxi = phase_map.fixed_gradient(H, theta, xi)
            share_map = problem.with_phases(theta)
            xi, obj, dxi, H, used[1] = _ascend_block(
                xi, obj, dxi, _vertex_direction, lambda x: x,  # every trial is feasible
                lambda x: score(theta, x, share_map),
                share_ladder, opts.inner_steps_per_block, used[1])
            if H is not None:
                dtheta = share_map.fixed_gradient(H, theta, xi)

        trace.objectives.append(obj)
        trace.seconds.append(time.perf_counter() - tic)
        if not np.isfinite(obj):
            raise RuntimeError(f"objective became non-finite at outer iteration {outer}")
        prev = trace.objectives[-2]
        if abs(obj - prev) <= opts.tol * max(1.0, abs(prev)):
            trace.stop_reason = "tolerance"
            break

    return PhaseConfig(theta), Allocation(xi), trace
