"""Independent straight-line re-implementations used as test oracles.

Everything here is written with explicit loops, on purpose: the library is
vectorized, so agreement between the two is a meaningful check rather than
the same code evaluated twice. The column projection, the exhaustive
search loop and the serial bcd solver keep the arithmetic of the library's
batched versions, so those are compared with them bit for bit.
"""

import itertools

import numpy as np

from risalloc import BcdOptions, ChannelSet, sum_utility
from risalloc.allocation import _project_columns
from risalloc.metrics import _objective


def toy_channels(num_users=2, num_antennas=2, side=2, seed=0, scale=1.0):
    """Generic O(1) complex channels for solver and metric tests."""
    rng = np.random.default_rng(seed)
    n_elem = side * side

    def draw(shape):
        return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))

    return ChannelSet(
        h_direct=draw((num_users, num_antennas)),
        g_ris=draw((num_users, n_elem)),
        h_rb=draw((n_elem, num_antennas)),
        los_flags=np.ones((num_users, 2), dtype=bool),
        clamped=np.zeros((num_users, 2), dtype=bool),
        bs_ris_clamped=False,
    )


def element_mask(xi_columns):
    """Column shares spread over elements, one scalar at a time."""
    xi_columns = np.asarray(xi_columns, dtype=float)
    K, L = xi_columns.shape
    out = np.zeros((K, L * L))
    for k in range(K):
        for l in range(L * L):
            out[k, l] = xi_columns[k, l // L]
    return out


def effective_row(ch, theta, mask, k):
    """Effective downlink row for user k, scalar-loop evaluation."""
    n_elem = ch.g_ris.shape[1]
    n_ant = ch.h_direct.shape[1]
    e = np.zeros(n_ant, dtype=complex)
    for n in range(n_ant):
        acc = complex(ch.h_direct[k, n])
        for l in range(n_elem):
            acc += ch.g_ris[k, l] * mask[k, l] * np.exp(1j * theta[l]) * ch.h_rb[l, n]
        e[n] = acc
    return e


def sinr_value(ch, theta, mask, w, k, noise):
    e = effective_row(ch, theta, mask, k)
    signal = abs(np.dot(e, w[k])) ** 2
    interference = 0.0
    for i in range(w.shape[0]):
        if i != k:
            interference += abs(np.dot(e, w[i])) ** 2
    return signal / (interference + noise)


def rate_value(ch, theta, mask, w, k, noise):
    K = w.shape[0]
    return np.log2(1.0 + sinr_value(ch, theta, mask, w, k, noise)) / K


def utility_value(r, alpha, floor=1e-12):
    r = max(float(r), floor)
    if alpha == 1.0:
        return np.log(r)
    return r ** (1.0 - alpha) / (1.0 - alpha)


def total_utility(ch, theta, mask, w, alpha, noise):
    total = 0.0
    for k in range(w.shape[0]):
        total += utility_value(rate_value(ch, theta, mask, w, k, noise), alpha)
    return total


def project_columns(x):
    """Column-by-column projection onto the solid unit simplex.

    Over-full columns go to the simplex face one at a time by the
    sort-based threshold. Returns (projection, per-column simplex flag,
    active-entry mask), the layout of the library's vectorised projection.
    """
    x = np.asarray(x, dtype=float)
    out = np.clip(x, 0.0, None)
    active = x > 0.0
    on_simplex = out.sum(axis=0) > 1.0
    for c in np.nonzero(on_simplex)[0]:
        v = x[:, c]
        srt = np.sort(v)[::-1]
        css = np.cumsum(srt) - 1.0
        rho = np.nonzero(srt - css / np.arange(1, v.size + 1) > 0)[0][-1]
        out[:, c] = np.maximum(v - css[rho] / (rho + 1.0), 0.0)
        active[:, c] = out[:, c] > 0
    return out, on_simplex, active


def brute_force_loop(ch, w, alpha, noise, nu):
    """Exhaustive search scoring one configuration per sum_utility call.

    Same enumeration order as the library (assignments outer with "off"
    last, per-element phases on surfaces of at most four elements, per-column
    phases otherwise); the first configuration wins ties. Returns
    (theta, xi, utility).
    """
    K, L2 = ch.g_ris.shape
    L = int(round(np.sqrt(L2)))
    slots = L2 if L2 <= 4 else L
    grid = [0.0] if nu == 1 else list(np.linspace(0.0, np.pi, nu))
    best = None
    for assign in itertools.product(range(K + 1), repeat=L):
        xi = np.zeros((K, L))
        for c in range(L):
            if assign[c] < K:
                xi[assign[c], c] = 1.0
        for phases in itertools.product(grid, repeat=slots):
            theta = np.array(phases) if slots == L2 else np.repeat(phases, L)
            u = sum_utility(ch, theta, xi, w, alpha, noise)
            if best is None or u > best[2]:
                best = (theta, xi, u)
    return best


def line_ascend_serial(x, grad, project, evaluate, f_x, step0):
    """One projected step, halving until the objective does not decrease,
    one trial at a time. Returns (point, value, trials scored)."""
    s = step0
    for j in range(30):
        cand = project(x + s * grad)
        f_c = evaluate(cand)
        if f_c >= f_x:
            return cand, f_c, j + 1
        s *= 0.5
    return x, f_x, 30


def bcd_serial(ch, w, alpha, noise, options=None, fixed_alloc=None):
    """Block ascent with one gradient call per step and one value-only
    kernel call per line-search trial. Returns (theta, xi, objectives)."""
    opts = options or BcdOptions()
    rng = np.random.default_rng(opts.seed)
    K, L = ch.num_users, ch.side
    theta = rng.uniform(0.0, np.pi, size=ch.num_elements)
    xi = np.full((K, L), 1.0 / K) if fixed_alloc is None else np.array(fixed_alloc.xi, dtype=float)

    def value_of(th, x):
        return float(_objective(ch.g_ris, ch.h_rb, ch.h_direct, w, th, x, noise, alpha))

    def grads(th, x):
        _, dtheta, dxi = _objective(ch.g_ris, ch.h_rb, ch.h_direct, w, th, x, noise, alpha,
                                    grads=True)
        return dtheta, dxi

    obj = value_of(theta, xi)
    objectives = [obj]
    for _ in range(opts.max_outer_iters):
        for _ in range(opts.inner_steps_per_block):
            theta, obj, _ = line_ascend_serial(
                theta, grads(theta, xi)[0], lambda t: np.clip(t, 0.0, np.pi),
                lambda t: value_of(t, xi), obj, opts.step_size)
        if fixed_alloc is None:
            for _ in range(opts.inner_steps_per_block):
                xi, obj, _ = line_ascend_serial(
                    xi, grads(theta, xi)[1], lambda x: _project_columns(x)[0],
                    lambda x: value_of(theta, x), obj, opts.step_size)
        objectives.append(obj)
        if abs(obj - objectives[-2]) <= opts.tol * max(1.0, abs(objectives[-2])):
            break
    return theta, xi, objectives
