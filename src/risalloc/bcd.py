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

One core solves a stack of drops in lockstep. Each drop keeps its own
point, gradients, place on each ladder, block maps and stop flag; the
maps are stacked, one slice per drop, and ``metrics`` binds, slices and
sizes the stack (``_bind_drops``, ``_Bound.take``, ``_map_bytes``). Each
search round scores the trials of every drop still sweeping in one call,
as a (trials, drops) stack padded to the longest first stack among them:
a drop accepts its first trial in ladder order that does not lower its
value, and a trial's bits do not depend on the stack it is scored in, so
the padding changes no answer. A drop whose sweep ends leaves the round's
stack, all by one path whatever the reason, and a drop that meets the
tolerance leaves the solve. ``bcd_optimize`` is the core on one drop.
``bcd_optimize_many`` runs it on many drops of one scenario, in chunks of
as many as CHUNK_BYTES of stacked maps hold, and gives each drop the bits
its one-drop solve gives.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelSet
from .config import AT_LEAST_ONE, NON_NEGATIVE, POSITIVE, check_fields
from .metrics import (Allocation, PhaseConfig, _bind, _bind_drops, _evaluate, _evaluate_block,
                      _map_bytes, _single)

# Byte budget of one chunk's stacked block maps (metrics._map_bytes a drop)
# when many drops are solved in lockstep (bcd_optimize_many): 4 MiB holds a
# desk split of 202 drops, or 34 drops of the 20x20 full profile.
CHUNK_BYTES = 4 << 20


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
    ("tolerance" or "iteration cap") and how many objective calls it made.
    In a lockstep solve of many drops an iteration's seconds are the
    chunk's wall time for it divided by the drops that ran it, and a call
    counts once for every drop it scored."""

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
    ``metrics._bind`` with grads=True, or a stack of P drops bound
    together, whose trials are (Q, P, ...) stacks; without it the call
    binds ch and w itself, and with it reads neither. With ``bound``,
    theta and xi must already be float arrays, as the solver passes them.
    When ``bound`` carries a block map (``with_shares`` or
    ``with_phases``), only the block that map leaves free is scored: the
    call returns the value, that block's gradient and H = G * conj(S),
    from which ``bound.fixed_gradient`` forms the other block's gradient.
    """
    if bound is None:
        g_ris, h_rb, h_direct, w, theta, xi = _single(ch, w, theta, xi)
        bound = _bind(g_ris, h_rb, h_direct, w, grads=True)
    if bound.M is None and bound.N is None:
        out = _evaluate(bound, theta, xi, noise_linear, alpha, grads=True)
    else:
        out = _evaluate_block(bound, theta, xi, noise_linear, alpha)
    return out if out[0].ndim else (float(out[0]), *out[1:])


def _gradient_direction(theta, grad):
    """The phase block's direction: its gradient, for every drop."""
    return grad, None


def _vertex_direction(xi, grad):
    """The share block's Frank-Wolfe direction s - xi for each drop of a
    stack (P, K, L), and which drops have one: s equals xi for the rest.
    The vertex s maximises the share gradient's linear model: each column
    goes wholly to the user with the largest positive gradient (the
    smallest index on a tie), or to nobody."""
    s = np.arange(grad.shape[-2])[:, None] == grad.argmax(axis=-2)[..., None, :]
    s &= grad > 0.0  # true at the top entry exactly when the largest is positive
    d = s - xi
    return d, np.logical_or.reduce(d.reshape(len(d), -1), 1)


def _clip_phases(t):
    """Project phase trials onto [0, pi], in place."""
    return np.minimum(np.maximum(t, 0.0, out=t), np.pi, out=t)


def _all(mask) -> bool:
    """Whether every entry of a drop mask is set. One drop's entry is read
    directly: a reduction costs several times more, on every round."""
    return bool(mask[0]) if len(mask) == 1 else np.count_nonzero(mask) == len(mask)


def _any(mask) -> bool:
    """Whether any entry of a drop mask is set, as _all."""
    return bool(mask[0]) if len(mask) == 1 else np.count_nonzero(mask) > 0


def _largest(counts) -> int:
    """The largest of a stack's per-drop counts, as _all."""
    return int(counts[0]) if len(counts) == 1 else int(counts.max())


def _any_equal(a, b) -> bool:
    """Whether any drop's entries of a and b are equal, as _all."""
    return a.item() == b.item() if len(a) == 1 else bool(np.count_nonzero(a == b))


def _first_accepted(values, f_x, skipped):
    """For each drop (a column of the (trials, drops) values), whether a
    trial does not lower its value f_x, the trials it used to find the
    first that does (counting ``skipped`` scored before these), the most
    any drop used, and the index pair that picks that trial's row (the
    first trial's, when none does) out of a (trials, drops, ...) stack.
    For one drop the pair picks a view, through plain ints, as _all."""
    accepted = values >= f_x
    if accepted.shape[1] == 1:
        i = int(accepted.argmax())
        return accepted[i], np.array([skipped + i + 1]), skipped + i + 1, (i, slice(None))
    pick = (accepted.argmax(axis=0), np.arange(accepted.shape[1]))
    used = pick[0] + (skipped + 1)
    return accepted[pick], used, int(used.max()), pick


def _line_ascend(x, f_x, d, project, score, ladder, first):
    """One projected step per drop of a stack along its direction d,
    halving until the objective does not decrease.

    x and d hold one row per drop and f_x its value. The trials
    x + ladder[j] * d are projected (unless project is None) and scored as
    (trials, drops) stacks: ladder[:first] for every drop in one call,
    then the rest of the ladder in a second call for the drops that
    accepted none of those. ``score(trials, rows)`` scores the trials of
    the drops ``rows`` (None for all) and returns their values and two
    further outputs. A drop accepts its first trial in ladder order that
    does not lower its value.

    Returns (whether every drop accepted a trial, which did, point, value,
    the two outputs there, trials used, the most any drop used), one row
    per drop. A drop that accepts nothing keeps its point and value, has
    used the whole ladder, and its output rows are undefined.
    """
    n = len(ladder)
    trials = x + np.multiply.outer(ladder[:first], d)
    if project is not None:
        trials = project(trials)
    values, a, b = score(trials, None)
    ok, used, longest, pick = _first_accepted(values, f_x, 0)
    y, f_y, a_y, b_y = trials[pick], values[pick], a[pick], b[pick]
    if _all(ok):
        return True, ok, y, f_y, a_y, b_y, used, longest
    if first < n:
        rest = None if not _any(ok) else np.flatnonzero(~ok)  # None: every drop
        trials = (x if rest is None else x[rest]) + np.multiply.outer(
            ladder[first:], d if rest is None else d[rest])
        if project is not None:
            trials = project(trials)
        values, a, b = score(trials, rest)
        found, more, longest, pick = _first_accepted(
            values, f_x if rest is None else f_x[rest], first)
        if rest is None:
            ok, used, y, f_y, a_y, b_y = found, more, trials[pick], values[pick], a[pick], b[pick]
        else:
            y[rest], f_y[rest], a_y[rest], b_y[rest] = trials[pick], values[pick], a[pick], b[pick]
            used[rest], ok[rest] = more, found
        if _all(ok):
            return True, ok, y, f_y, a_y, b_y, used, _largest(used)
    if not _any(ok):
        return False, ok, x, f_x, a_y, b_y, np.full(len(ok), n), n
    lost = ~ok
    y[lost], f_y[lost], used[lost] = x[lost], f_x[lost], n
    return False, ok, y, f_y, a_y, b_y, used, n


def _sweep(x, f_x, grad, used, direction, project, bound, score, ladder, steps):
    """Up to ``steps`` line searches on one block for every drop of a
    stack, in lockstep: each round searches all drops still sweeping at
    once, each along direction(point, gradient), through ``bound``, a
    stack of the block's maps. ``score(trials, bound, rows)`` scores the
    trials of the stack's drops ``rows`` (None for all) through their rows
    of the maps.

    A round's first stack holds one trial more than the longest that its
    drops' previous searches needed, so a search that needs one more trial
    than the last still costs one kernel call. That a stack is longer than
    a drop's own search needed changes nothing for it: it accepts the
    first trial in ladder order that does not lower its value, and a
    trial's bits do not depend on the stack it is scored in. A drop leaves
    the sweep, before the next round's search, when the direction rule
    gives it none, when its search accepts nothing, and as soon as a
    search leaves its point and gradient unchanged: every later search
    would score the same trials from the same point and gradient.

    Returns (point, value, gradient, H of the last accepted trial, whether
    any trial was accepted, trials the last search used), one row per
    drop; a drop that accepted nothing has a zero H row.
    """
    n = len(f_x)
    rows, H = np.arange(n), np.zeros(bound.D.shape, bound.D.dtype)  # H of a drop's last acceptance
    got = np.zeros(n, dtype=bool)  # whether a drop has accepted a trial
    done = []  # the state of drops that left the sweep
    keep = None  # the drops that stay after the last search; None: all
    longest = _largest(used)  # the most trials a sweeping drop's last search used

    def score_rows(trials, r):  # r: rows of the drops still sweeping, None for all
        if r is None:
            return score(trials, bound, rows if done else None)
        return score(trials, bound.take(r), rows[r])

    for _ in range(steps):
        if keep is None or _any(keep):  # only a drop that stays needs a direction
            d, go = direction(x, grad)
            if go is not None:
                keep = go if keep is None else keep & go
        if keep is not None and not _all(keep):  # the drops not kept leave the sweep
            state = (rows, x, f_x, grad, H, got, used)
            if not _any(keep):
                done.append(state)
                break
            done.append(tuple(a[~keep] for a in state))
            rows, x, f_x, grad, H, got, used, d = (a[keep] for a in (*state, d))
            bound, longest = bound.take(keep), _largest(used)
        every, ok, y, f_y, g_y, H_y, used, longest = _line_ascend(
            x, f_x, d, project, score_rows, ladder, min(longest + 1, len(ladder)))
        keep = None
        if not every:  # a drop that accepted nothing keeps its point, gradient and H
            g_y, H_y, keep = _where(ok, g_y, grad), _where(ok, H_y, H), ok
        if _any_equal(f_y, f_x):  # the floats first: cheap
            axes = tuple(range(1, y.ndim))
            keep = ok & ~((f_y == f_x) & (y == x).all(axis=axes) & (g_y == grad).all(axis=axes))
        x, f_x, grad, H, got = y, f_y, g_y, H_y, got | ok
    else:
        done.append((rows, x, f_x, grad, H, got, used))
    if len(done) == 1:
        return done[0][1:]
    order = np.argsort(np.concatenate([state[0] for state in done]))
    return tuple(np.concatenate(field)[order] for field in zip(*done))[1:]


def bcd_optimize_many(channels, ws, seeds, alpha: float, noise_linear: float,
                      options: BcdOptions | None = None,
                      fixed_alloc: Allocation | None = None):
    """Solve drops of one scenario in lockstep, in chunks of as many as
    CHUNK_BYTES of block maps hold: drop j as ``bcd_optimize(channels[j],
    ws[j], ...)`` solves it with seed seeds[j] (``options.seed`` is not
    read), bit for bit. Returns one (PhaseConfig, Allocation, BcdTrace) per
    drop; BcdTrace says how a lockstep solve counts seconds and calls.
    """
    opts = options or BcdOptions()
    size = max(1, CHUNK_BYTES // _map_bytes(channels[0])) if len(channels) else 1
    answers = []
    for lo in range(0, len(channels), size):
        answers += _solve(channels[lo:lo + size], ws[lo:lo + size], seeds[lo:lo + size],
                          alpha, noise_linear, opts, fixed_alloc)
    return answers


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
    return _solve([ch], [w], [opts.seed], alpha, noise_linear, opts, fixed_alloc)[0]


def _solve(channels, ws, seeds, alpha, noise_linear, opts, fixed_alloc):
    """The lockstep core: one stack of drops, solved together."""
    P = len(channels)
    K, L2, L = channels[0].num_users, channels[0].num_elements, channels[0].side
    if fixed_alloc is not None and fixed_alloc.xi.shape != (K, L):
        raise ValueError(f"fixed_alloc has shape {fixed_alloc.xi.shape}; this problem "
                         f"needs (K, L) = {(K, L)}")
    theta = np.stack([np.random.default_rng(seed).uniform(0.0, np.pi, size=L2) for seed in seeds])
    if fixed_alloc is None:
        xi = np.full((P, K, L), 1.0 / K)
    else:
        fixed_alloc.validate()
        xi = np.repeat(np.array(fixed_alloc.xi, dtype=float)[None], P, axis=0)
    halvings = [0.5] * 29  # the floats a halving loop gives
    phase_ladder = np.cumprod([opts.step_size] + halvings)
    share_ladder = np.cumprod([1.0] + halvings)

    problem = _bind_drops(channels, ws, grads=True)
    traces = [BcdTrace() for _ in range(P)]
    answers = [None] * P
    ids = np.arange(P)  # the chunk position of each drop in the stack
    # kernel calls: those of the whole stack (the starting one first), and each drop's others
    calls, own_calls = 1, np.zeros(P, dtype=int)

    def score(trials, bound, rows):  # trials of the block that bound's map leaves free
        nonlocal calls
        if rows is None:
            calls += 1
        else:
            own_calls[rows] += 1
        th, x = (trials, None) if bound.M is not None else (None, trials)
        return objective_value_and_gradients(None, th, x, None, alpha, noise_linear, bound)

    obj, dtheta, dxi = objective_value_and_gradients(None, theta, xi, None, alpha, noise_linear,
                                                     problem)
    values = obj.tolist()
    if not all(map(math.isfinite, values)):
        raise RuntimeError("objective is not finite at the starting point")
    for trace, value in zip(traces, values):
        trace.objectives.append(value)
        trace.seconds.append(0.0)
    used = np.ones((2, P), dtype=int)  # trials the last line search of each block needed
    phase_map = None

    for outer in range(1, opts.max_outer_iters + 1):
        tic = time.perf_counter()
        prev = values

        if phase_map is None or fixed_alloc is None:  # pinned shares keep one map all solve
            phase_map = problem.with_shares(xi)
        theta, obj, dtheta, H, got, used[0] = _sweep(
            theta, obj, dtheta, used[0], _gradient_direction, _clip_phases, phase_map.scorer(),
            score, phase_ladder, opts.inner_steps_per_block)

        if fixed_alloc is None:
            if _any(got):
                dxi = _where(got, phase_map.fixed_gradient(H, theta, xi), dxi)
            share_map = problem.with_phases(theta)
            xi, obj, dxi, H, got, used[1] = _sweep(
                xi, obj, dxi, used[1], _vertex_direction, None,  # every trial is feasible
                share_map.scorer(), score,
                share_ladder, opts.inner_steps_per_block)
            if _any(got):
                dtheta = _where(got, share_map.fixed_gradient(H, theta, xi), dtheta)

        seconds = (time.perf_counter() - tic) / len(ids)
        values = obj.tolist()
        for j, value in zip(ids.tolist(), values):
            traces[j].objectives.append(value)
            traces[j].seconds.append(seconds)
        if not all(map(math.isfinite, values)):
            raise RuntimeError(f"objective became non-finite at outer iteration {outer}")
        stop = [abs(v - p) <= opts.tol * max(1.0, abs(p)) for v, p in zip(values, prev)]
        if any(stop):
            stop = np.array(stop)
            for j in ids[stop].tolist():
                traces[j].stop_reason = "tolerance"
            keep = ~stop
            _finish(answers, traces, ids[stop], theta[stop], xi[stop], calls + own_calls[stop])
            ids, theta, xi, obj, dtheta, dxi, own_calls = (
                a[keep] for a in (ids, theta, xi, obj, dtheta, dxi, own_calls))
            values = obj.tolist()
            used = used[:, keep]
            if not len(ids):
                break
            problem = problem.take(keep)
            if fixed_alloc is not None:
                phase_map = phase_map.take(keep)

    _finish(answers, traces, ids, theta, xi, calls + own_calls)
    return answers


def _where(rows, new, old):
    """new in the drops ``rows`` of a stack, old elsewhere."""
    if _all(rows):
        return new
    return np.where(rows.reshape(rows.shape + (1,) * (new.ndim - 1)), new, old)


def _finish(answers, traces, ids, theta, xi, calls):
    """File the answers of the drops ``ids`` (chunk positions)."""
    for j, th, x, n in zip(ids.tolist(), theta, xi, calls.tolist()):
        traces[j].kernel_calls = n
        answers[j] = (PhaseConfig(th), Allocation(x), traces[j])
