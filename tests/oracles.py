"""Independent straight-line re-implementations used as test oracles.

Everything here is written with explicit loops, on purpose: the library is
vectorized, so agreement between the two is a meaningful check rather than
the same code evaluated twice. The column projection, the exhaustive
search loop and the serial bcd solver keep the arithmetic of the library's
batched versions, so those are compared with them bit for bit. The PCA
reference takes the other route to the same components: it forms and
eigendecomposes the correlation matrix that the library's SVD never builds.
The folded Adam reference is the whole-vector update that the library runs
in cache-sized blocks, with the same operations in the same order; the
textbook Adam reference shares its moments and rounds the parameter update
the textbook way. The forward-pass reference builds the batch statistics,
the dropout mask and the sigmoid from the library methods and boolean
gathers that the network's own forward pass spells out, bit for bit. The
serial drop synthesis is the link-by-link channel and sample builder that
the library's stacked synthesis replaced, kept with its arithmetic so the
two are compared bit for bit.
"""

import itertools

import numpy as np

from risalloc import (BcdOptions, ChannelSet, Deployment, Sample, is_blocked,
                      objective_value_and_gradients, sum_utility)
from risalloc.channel import MIN_DIST_2D, bs_panel_shape
from risalloc.features import KAISER_TIE_GUARD
from risalloc.metrics import _bind
from risalloc.mlp import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, BN_EPS, BN_MOMENTUM


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


def pca_reference(features):
    """Principal components the direct way: eigendecompose the D x D
    correlation matrix of the standardized features, sorted descending.
    Returns (eigenvalues, the axes the Kaiser rule keeps)."""
    X = np.asarray(features, dtype=float)
    scale = X.std(axis=0, ddof=1)
    Z = (X - X.mean(axis=0)) / np.where(scale == 0.0, 1.0, scale)
    evals, evecs = np.linalg.eigh(Z.T @ Z / (X.shape[0] - 1))
    order = np.argsort(evals)[::-1]
    keep = max(1, int(np.sum(evals > 1.0 + KAISER_TIE_GUARD)))
    return evals[order], evecs[:, order[:keep]]


def _adam_moments(grad, m, v):
    """Advance Adam's first and second moments in place (textbook recursion)."""
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    with np.errstate(over="raise"):
        v += (1.0 - ADAM_BETA2) * grad * grad


def adam_reference(params, grad, m, v, step, learning_rate):
    """One textbook Adam update over whole vectors, in place on params, m
    and v. ``step`` is the step number after the update (1 on the first
    call)."""
    c1 = 1.0 - ADAM_BETA1 ** step
    c2 = 1.0 - ADAM_BETA2 ** step
    _adam_moments(grad, m, v)
    params -= learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def adam_folded_reference(params, grad, m, v, step, learning_rate):
    """``adam_reference`` with the bias corrections folded into a step size
    and an epsilon, in the library's order and association: the same
    moments bit for bit, and the same parameter update in real arithmetic."""
    root_c2 = np.sqrt(1.0 - ADAM_BETA2 ** step)
    step_size = learning_rate * root_c2 / (1.0 - ADAM_BETA1 ** step)
    _adam_moments(grad, m, v)
    params -= step_size * m / (np.sqrt(v) + ADAM_EPS * root_c2)


def batch_statistics(r):
    """Batch-norm mean and biased variance of each column, by the ndarray
    methods."""
    return r.mean(axis=0), r.var(axis=0)


def dropout_mask(u, rate, dtype):
    """The inverted-dropout mask of uniform draws u, formed in float64 and
    cast to dtype."""
    return ((u >= rate) / (1.0 - rate)).astype(dtype, copy=False)


def sigmoid_branches(x):
    """The logistic function, each sign's branch on its own gathered
    entries, so neither exponent is ever positive."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def mlp_forward_reference(model, z_batch, train_mode, dropout_seed=0):
    """``mlp.mlp_forward`` from the three formulas above, with the running
    statistics blended into new arrays; returns (theta, xi, cache) as the
    library does."""
    arch = model.arch
    z = np.atleast_2d(np.asarray(z_batch, dtype=model.params.dtype))
    Q = z.shape[0]
    rng = np.random.default_rng(dropout_seed) if (train_mode and arch.dropout_rate > 0) else None
    layers, a = [], z
    for v in range(len(arch.hidden)):
        pre = a @ model.weights[v] + model.biases[v]
        r = np.maximum(pre, 0.0)
        if train_mode:
            mu, var = batch_statistics(r)
            model.bn_mean[v] = (1.0 - BN_MOMENTUM) * model.bn_mean[v] + BN_MOMENTUM * mu
            model.bn_var[v] = (1.0 - BN_MOMENTUM) * model.bn_var[v] + BN_MOMENTUM * var
        else:
            mu, var = model.bn_mean[v], model.bn_var[v]
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (r - mu) * inv
        y = model.bn_scale[v] * xhat + model.bn_shift[v]
        mask = None
        if rng is not None:
            mask = dropout_mask(rng.random(y.shape), arch.dropout_rate, y.dtype)
            y = y * mask
        layers.append({"input": a, "pre": pre, "xhat": xhat, "inv": inv, "mask": mask})
        a = y
    phase_sig = sigmoid_branches(a @ model.weights[-2] + model.biases[-2])
    alloc_sig = sigmoid_branches(a @ model.weights[-1] + model.biases[-1])
    cache = {"train_mode": train_mode, "layers": layers, "head_input": a,
             "phase_sig": phase_sig, "alloc_sig": alloc_sig, "batch": Q}
    return (np.pi * phase_sig, alloc_sig.reshape(Q, arch.alloc_users, arch.alloc_cols), cache)


def _face_column(v):
    """max(v - tau, 0) for one column, tau the sort-based threshold of the
    simplex face; None when no index meets the threshold."""
    srt = np.sort(v)[::-1]
    css = np.cumsum(srt) - 1.0
    meet = np.nonzero(srt - css / np.arange(1, v.size + 1) > 0)[0]
    if meet.size == 0:
        return None
    rho = meet[-1]
    return np.maximum(v - css[rho] / (rho + 1.0), 0.0)


def project_columns(x):
    """Column-by-column projection onto the solid unit simplex.

    Over-full columns go to the simplex face one at a time by the
    sort-based threshold. A column whose threshold loses its precision
    (no index meets it, or the result misses the face by more than 1e-9)
    is projected again from its entries minus its largest, floored at -2.
    Returns (projection, per-column simplex flag, active-entry mask): the
    library's vectorised projection returns the first two, and its pullback
    takes the mask as projection > 0.
    """
    x = np.asarray(x, dtype=float)
    out = np.clip(x, 0.0, None)
    active = x > 0.0
    # a sum past the float range is inf: the column is still over-full, and
    # its first-pass result misses the face and goes to the second pass
    with np.errstate(over="ignore"):
        on_simplex = out.sum(axis=0) > 1.0
        for c in np.nonzero(on_simplex)[0]:
            v = x[:, c]
            z = _face_column(v)
            if z is None or abs(z.sum() - 1.0) > 1e-9:
                z = _face_column(np.maximum(v - v.max(), -2.0))
            out[:, c] = z
            active[:, c] = z > 0
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


def vertex_direction_serial(xi, grad):
    """Frank-Wolfe direction s - xi, column by column: s gives each column
    to the first user with the largest gradient when that gradient is
    positive, else to nobody. None when s equals xi."""
    K, L = xi.shape
    s = np.zeros((K, L))
    for c in range(L):
        best = 0
        for k in range(1, K):
            if grad[k, c] > grad[best, c]:
                best = k
        if grad[best, c] > 0.0:
            s[best, c] = 1.0
    return None if np.array_equal(s, xi) else s - xi


def _sweep_serial(x, f_x, grad, direction, project, score, step0, steps):
    """``steps`` line searches on one block along ``direction(x, grad)``,
    each scoring one trial per call and accepting the first that does not
    lower the objective; a None direction ends the sweep. Returns (point,
    value, gradient, H of the last accepted trial or None)."""
    H = None
    for _ in range(steps):
        d = direction(x, grad)
        if d is None:
            break
        s = step0
        for _ in range(30):
            cand = project(x + s * d)
            f_c, g_c, H_c = score(cand)
            if f_c >= f_x:
                x, f_x, grad, H = cand, f_c, g_c, H_c
                break
            s *= 0.5
    return x, f_x, grad, H


def bcd_serial(ch, w, alpha, noise, options=None, fixed_alloc=None):
    """Block ascent scoring one line-search trial per kernel call, through
    the library's block maps, with no stacks and no early stop at a bitwise
    fixed point. The phases step along their gradient from ``step_size``
    and are clipped; the shares take Frank-Wolfe steps toward the vertex
    from a full step down, unprojected, and their sweep ends when the
    vertex is the point. The first gradients come from the general kernel;
    after that each block's first step follows the gradient its fixed
    block's last accepted trial left, formed from that trial's H. Returns
    (theta, xi, objectives).
    """
    opts = options or BcdOptions()
    rng = np.random.default_rng(opts.seed)
    K, L = ch.num_users, ch.side
    theta = rng.uniform(0.0, np.pi, size=ch.num_elements)
    xi = np.full((K, L), 1.0 / K) if fixed_alloc is None else np.array(fixed_alloc.xi, dtype=float)
    problem = _bind(ch.g_ris, ch.h_rb, ch.h_direct, w, grads=True)

    def score(th, x, bound):
        return objective_value_and_gradients(ch, th, x, w, alpha, noise, bound)

    obj, dtheta, dxi = score(theta, xi, problem)
    objectives = [obj]
    for _ in range(opts.max_outer_iters):
        phase_map = problem.with_shares(xi)
        theta, obj, dtheta, H = _sweep_serial(
            theta, obj, dtheta, lambda t, g: g, lambda t: np.clip(t, 0.0, np.pi),
            lambda t: score(t, xi, phase_map), opts.step_size, opts.inner_steps_per_block)
        if fixed_alloc is None:
            if H is not None:
                dxi = phase_map.fixed_gradient(H, theta, xi)
            share_map = problem.with_phases(theta)
            xi, obj, dxi, H = _sweep_serial(
                xi, obj, dxi, vertex_direction_serial, lambda x: x,
                lambda x: score(theta, x, share_map), 1.0, opts.inner_steps_per_block)
            if H is not None:
                dtheta = share_map.fixed_gradient(H, theta, xi)
        objectives.append(obj)
        if abs(obj - objectives[-2]) <= opts.tol * max(1.0, abs(objectives[-2])):
            break
    return theta, xi, objectives


# ---- serial drop synthesis: one link at a time, on Python and numpy scalars

def _breakpoint_serial(h_tx, h_rx, fc_hz):
    return 4.0 * (h_tx - 1.0) * (h_rx - 1.0) * fc_hz / 3.0e8


def _pathloss_los_serial(d2d, d3d, fc_ghz, h_bs, h_ue, shadow_db=0.0):
    bp = _breakpoint_serial(h_bs, h_ue, fc_ghz * 1e9)
    if d2d <= bp:
        pl = 32.4 + 21.0 * np.log10(d3d) + 20.0 * np.log10(fc_ghz)
    else:
        pl = (32.4 + 40.0 * np.log10(d3d) + 20.0 * np.log10(fc_ghz)
              - 9.5 * np.log10(bp ** 2 + (h_bs - h_ue) ** 2))
    return float(pl + shadow_db)


def _pathloss_nlos_serial(d2d, d3d, fc_ghz, h_bs, h_ue, shadow_db=0.0):
    los = _pathloss_los_serial(d2d, d3d, fc_ghz, h_bs, h_ue, 0.0)
    nlos = 35.3 * np.log10(d3d) + 22.4 + 21.3 * np.log10(fc_ghz) - 0.3 * (h_ue - 1.5)
    return float(max(los, nlos) + shadow_db)


def _steering_serial(rows, cols, elevation, azimuth):
    u = np.sin(elevation) * np.cos(azimuth)
    w = np.sin(elevation) * np.sin(azimuth)
    p = np.arange(rows)[:, None]
    q = np.arange(cols)[None, :]
    phase = 2.0 * np.pi * 0.5 * (p * u + q * w)
    return np.exp(1j * phase).reshape(-1)


_BS_FRAME = (np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]))
_RIS_FRAME = (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]))


def _angles_serial(src, dst, frame):
    u1, u2, normal = frame
    d = np.asarray(dst, dtype=float) - np.asarray(src, dtype=float)
    d = d / np.linalg.norm(d)
    return (float(np.arccos(np.clip(d @ normal, -1.0, 1.0))),
            float(np.arctan2(d @ u2, d @ u1)))


def _link_geometry_serial(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d2d = float(np.hypot(b[0] - a[0], b[1] - a[1]))
    dz = b[2] - a[2]
    if d2d < MIN_DIST_2D:
        return MIN_DIST_2D, float(np.hypot(MIN_DIST_2D, dz)), True
    return d2d, float(np.hypot(d2d, dz)), False


def _user_link_serial(src, h_src, frame, shape, ue, shadow_db, fc, blockages):
    los = not is_blocked(src, ue, blockages)
    d2d, d3d, clamped = _link_geometry_serial(src, ue)
    law = _pathloss_los_serial if los else _pathloss_nlos_serial
    pl = law(d2d, d3d, fc, h_src, ue[2], shadow_db)
    response = _steering_serial(*shape, *_angles_serial(src, ue, frame))
    return los, clamped, 10.0 ** (-pl / 20.0), response


def synth_channels_serial(config, deployment, seed):
    """The three channel blocks of one drop, link by link: the surface hop,
    then each user's direct and surface legs, with one shadow draw per
    link in that order."""
    rng = np.random.default_rng(seed)
    K = deployment.num_ues
    N, L, fc = config.n_bs_antennas, config.ris_side, config.carrier_freq
    bs = np.asarray(config.bs_position, dtype=float)
    ris = np.asarray(config.ris_position, dtype=float)
    ue = deployment.ue_positions
    shadow_hop = float(rng.normal(0.0, config.shadow_sigma))
    shadow_direct = rng.normal(0.0, config.shadow_sigma, size=K)
    shadow_ris = rng.normal(0.0, config.shadow_sigma, size=K)
    rows, cols = bs_panel_shape(N)

    d2d, d3d, hop_clamped = _link_geometry_serial(bs, ris)
    pl_hop = _pathloss_los_serial(d2d, d3d, fc, config.bs_height, ris[2], shadow_hop)
    a_surface = _steering_serial(L, L, *_angles_serial(ris, bs, _RIS_FRAME))
    a_panel = _steering_serial(rows, cols, *_angles_serial(bs, ris, _BS_FRAME))
    h_rb = 10.0 ** (-pl_hop / 20.0) * np.outer(a_surface, np.conj(a_panel))

    h_direct = np.zeros((K, N), dtype=complex)
    g_ris = np.zeros((K, L * L), dtype=complex)
    los_flags = np.zeros((K, 2), dtype=bool)
    clamped = np.zeros((K, 2), dtype=bool)
    for k in range(K):
        los_flags[k, 0], clamped[k, 0], amp, response = _user_link_serial(
            bs, config.bs_height, _BS_FRAME, (rows, cols), ue[k], shadow_direct[k], fc,
            deployment.blockages)
        h_direct[k] = amp * response
        los_flags[k, 1], clamped[k, 1], amp, response = _user_link_serial(
            ris, ris[2], _RIS_FRAME, (L, L), ue[k], shadow_ris[k], fc, deployment.blockages)
        g_ris[k] = amp * np.conj(response)
    return ChannelSet(h_direct, g_ris, h_rb, los_flags, clamped, hop_clamped)


def _deploy_ues_serial(config, seed):
    rng = np.random.default_rng(seed)
    n = config.num_ues
    xy = rng.uniform(0.0, config.area_side, size=(n, 2))
    return np.hstack([xy, np.full((n, 1), config.ue_height)])


def _deploy_blockages_serial(config, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.poisson(config.blockage_density * config.area_km2))
    if n == 0:
        return np.zeros((0, 5))
    centers = rng.uniform(0.0, config.area_side, size=(n, 2))
    lengths = rng.exponential(config.blockage_mean_length, size=n)
    widths = rng.exponential(config.blockage_mean_width, size=n)
    orients = rng.uniform(0.0, np.pi, size=n)
    return np.column_stack([centers, lengths, widths, orients])


def make_sample_serial(config, seed):
    """One drop from one seed: users and blockages from the first two words
    of SeedSequence(seed), shadowing from the third, then matched beams."""
    ue_seed, blk_seed = (int(s) for s in
                         np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64))
    dep = Deployment(_deploy_ues_serial(config, ue_seed), _deploy_blockages_serial(config, blk_seed))
    channel_seed = np.random.SeedSequence(seed).generate_state(3, dtype=np.uint64)[2]
    ch = synth_channels_serial(config, dep, int(channel_seed))
    norms = np.linalg.norm(ch.h_direct, axis=1)
    w = np.sqrt(config.tx_power_watts / ch.num_users) * np.conj(ch.h_direct) / norms[:, None]
    return Sample(seed, dep, ch, w)
