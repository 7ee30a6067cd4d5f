import copy
import dataclasses
import io
import json
import struct
import tracemalloc

import numpy as np
import pytest

import oracles
from risalloc import (CheckpointError, MlpArch, MlpModel, PcaModel, adam_step, backward_pieces,
                      first_layer_weight_count, init_adam, init_model, load_checkpoint, mlp_backward,
                      mlp_forward, param_views, parameter_count, pca_fit,
                      save_checkpoint)
from risalloc import mlp
from risalloc.mlp import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, BN_MOMENTUM, _ADAM_BLOCK, _sigmoid
from risalloc.serial import write_named_arrays

# entries per Adam block of a float64 model; the block is sized in bytes
BLOCK = _ADAM_BLOCK // 8

TINY = MlpArch(input_dim=3, phase_dim=4, alloc_users=2, alloc_cols=2,
               hidden=(4, 4, 4, 4))


def tiny_model(seed=0, dropout=0.5):
    arch = MlpArch(input_dim=TINY.input_dim, phase_dim=TINY.phase_dim,
                   alloc_users=TINY.alloc_users, alloc_cols=TINY.alloc_cols,
                   hidden=TINY.hidden, dropout_rate=dropout)
    return init_model(arch, seed=seed)


@pytest.mark.parametrize("bad", [
    dict(input_dim=0), dict(phase_dim=0), dict(alloc_users=0),
    dict(alloc_cols=-1), dict(hidden=()), dict(hidden=(4, 0)),
    dict(dropout_rate=1.0), dict(dropout_rate=-0.1),
])
def test_arch_validation(bad):
    kw = dict(input_dim=3, phase_dim=4, alloc_users=2, alloc_cols=2)
    kw.update(bad)
    with pytest.raises(ValueError):
        MlpArch(**kw)


def test_init_determinism_and_bounds():
    a = tiny_model(seed=7)
    b = tiny_model(seed=7)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    dims = [TINY.input_dim, *TINY.hidden]
    bound0 = np.sqrt(6.0 / (dims[0] + dims[1]))
    assert np.max(np.abs(a.weights[0])) <= bound0
    assert np.max(np.abs(a.weights[0])) > 0.5 * bound0
    assert all(np.all(x == 0) for x in a.biases)
    assert all(np.all(s == 1) for s in a.bn_scale)
    assert all(np.all(v == 1) for v in a.bn_var)


def test_parameters_are_views_into_one_vector():
    model = tiny_model(seed=7)
    assert model.params.shape == (parameter_count(model.arch),)
    for key in ("weights", "biases", "bn_scale", "bn_shift"):
        for p in getattr(model, key):
            assert np.shares_memory(p, model.params)
    model.weights[1][2, 3] = 42.0
    assert np.count_nonzero(model.params == 42.0) == 1
    with pytest.raises(ValueError):
        param_views(model.arch, np.zeros(model.params.size + 1))


def test_forward_shapes_and_ranges():
    model = tiny_model()
    z = np.random.default_rng(1).normal(size=(5, 3))
    theta, xi, _ = mlp_forward(model, z, train_mode=False)
    assert theta.shape == (5, 4) and xi.shape == (5, 2, 2)
    assert np.all(theta >= 0) and np.all(theta <= np.pi)
    assert np.all(xi > 0) and np.all(xi < 1)
    # single row promoted to a batch of one
    t1, x1, _ = mlp_forward(model, z[0], train_mode=False)
    assert t1.shape == (1, 4)
    assert np.array_equal(t1[0], theta[0])


def test_eval_mode_deterministic():
    model = tiny_model()
    z = np.random.default_rng(2).normal(size=(4, 3))
    t1, x1, _ = mlp_forward(model, z, train_mode=False, dropout_seed=1)
    t2, x2, _ = mlp_forward(model, z, train_mode=False, dropout_seed=99)
    assert np.array_equal(t1, t2) and np.array_equal(x1, x2)


def test_train_mode_needs_two_rows():
    model = tiny_model()
    with pytest.raises(ValueError):
        mlp_forward(model, np.zeros((1, 3)), train_mode=True)


def test_a_stack_of_one_row_batches_has_the_bits_of_one_row_forwards():
    # compare scores a split this way; hidden layers wide enough that a 30-row
    # product would round differently from 30 one-row ones
    model = init_model(dataclasses.replace(WIDE, hidden=(500, 450, 400), dropout_rate=0.0),
                       seed=5)
    z = np.random.default_rng(6).normal(size=(30, WIDE.input_dim))
    theta, xi, _ = mlp_forward(model, z[:, None, :], train_mode=False)
    assert theta.shape == (30, WIDE.phase_dim)
    for q in range(30):
        t1, x1, _ = mlp_forward(model, z[q], train_mode=False)
        assert theta[q].tobytes() == t1[0].tobytes() and xi[q].tobytes() == x1[0].tobytes()
    with pytest.raises(ValueError):
        mlp_forward(model, z[:, None, :], train_mode=True)


def test_input_width_checked():
    model = tiny_model()
    with pytest.raises(ValueError):
        mlp_forward(model, np.zeros((2, 5)), train_mode=False)


def test_running_stats_momentum_blend():
    model = tiny_model(dropout=0.0)
    z = np.random.default_rng(3).normal(size=(6, 3))
    pre = z @ model.weights[0] + model.biases[0]
    r = np.maximum(pre, 0.0)
    mu, var = r.mean(axis=0), r.var(axis=0)
    mlp_forward(model, z, train_mode=True)
    assert np.allclose(model.bn_mean[0], BN_MOMENTUM * mu, atol=1e-14)
    assert np.allclose(model.bn_var[0], (1 - BN_MOMENTUM) * 1.0 + BN_MOMENTUM * var,
                       atol=1e-14)
    mlp_forward(model, z, train_mode=True)
    assert np.allclose(model.bn_mean[0],
                       (1 - BN_MOMENTUM) * BN_MOMENTUM * mu + BN_MOMENTUM * mu,
                       atol=1e-14)


def _loss_and_grads(model, z, wt, wx, seed):
    theta, xi, cache = mlp_forward(model, z, train_mode=True, dropout_seed=seed)
    loss = float(np.sum(wt * theta) + np.sum(wx * xi))
    grads = mlp_backward(model, cache, wt, wx)
    return loss, grads


def test_backward_matches_finite_differences():
    # seed picked away from relu kinks so the central difference is valid;
    # the analytic side is exact regardless
    model = tiny_model(seed=2)
    rng = np.random.default_rng(2 + 5000)
    z = rng.normal(size=(3, 3))
    wt = rng.normal(size=(3, 4))
    wx = rng.normal(size=(3, 2, 2))
    _, grad = _loss_and_grads(model, z, wt, wx, seed=7)
    grads = param_views(model.arch, grad)
    eps = 1e-5
    lists = {"weights": model.weights, "biases": model.biases,
             "bn_scale": model.bn_scale, "bn_shift": model.bn_shift}
    for key, params in lists.items():
        for i, p in enumerate(params):
            g = grads[key][i]
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                keep = p[idx]
                p[idx] = keep + eps
                lp, _ = _loss_and_grads(model, z, wt, wx, seed=7)
                p[idx] = keep - eps
                lm, _ = _loss_and_grads(model, z, wt, wx, seed=7)
                p[idx] = keep
                fd = (lp - lm) / (2 * eps)
                assert abs(g[idx] - fd) <= 1e-4 * max(1.0, abs(fd)), \
                    f"{key}[{i}]{idx}: analytic {g[idx]} vs fd {fd}"


def test_backward_zero_upstream():
    model = tiny_model()
    z = np.random.default_rng(13).normal(size=(3, 3))
    _, _, cache = mlp_forward(model, z, train_mode=True, dropout_seed=2)
    grads = param_views(model.arch, mlp_backward(model, cache, np.zeros((3, 4)),
                                                 np.zeros((3, 2, 2))))
    for key in ("weights", "biases", "bn_scale", "bn_shift"):
        assert all(np.all(g == 0.0) for g in grads[key])


def test_backward_same_dropout_seed_repeats():
    rng = np.random.default_rng(14)
    z = rng.normal(size=(3, 3))
    wt = rng.normal(size=(3, 4))
    wx = rng.normal(size=(3, 2, 2))
    runs = []
    for _ in range(2):
        model = tiny_model(seed=3)
        _, g = _loss_and_grads(model, z, wt, wx, seed=42)
        runs.append(param_views(model.arch, g))
    for key in ("weights", "biases"):
        for ga, gb in zip(runs[0][key], runs[1][key]):
            assert np.array_equal(ga, gb)


def test_backward_requires_train_cache():
    model = tiny_model()
    _, _, cache = mlp_forward(model, np.zeros((2, 3)), train_mode=False)
    with pytest.raises(ValueError):
        mlp_backward(model, cache, np.zeros((2, 4)), np.zeros((2, 2, 2)))


# a mid-sized network, so that rounding accumulates through real matrix products
WIDE = MlpArch(input_dim=20, phase_dim=16, alloc_users=3, alloc_cols=4,
               hidden=(64, 48, 40, 32), dropout_rate=0.3)


def float32_copy(model):
    """The model as ``training.train`` trains it: every array cast to float32."""
    return MlpModel(model.arch, model.params.astype(np.float32),
                    [m.astype(np.float32) for m in model.bn_mean],
                    [v.astype(np.float32) for v in model.bn_var])


def wide_batch(seed):
    """A float64 batch for WIDE and upstream head gradients for it."""
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(8, WIDE.input_dim)), rng.normal(size=(8, WIDE.phase_dim)),
            rng.normal(size=(8, WIDE.alloc_users, WIDE.alloc_cols)))


def test_float32_model_stays_float32_through_forward_backward_and_adam():
    # one float64 array would turn every later matrix product mixed-dtype
    model = float32_copy(init_model(WIDE, seed=3))
    z, wt, wx = wide_batch(40)  # float64 inputs and upstream gradients are cast on entry
    theta, xi, cache = mlp_forward(model, z, train_mode=True, dropout_seed=5)
    arrays = [theta, xi, cache["head_input"], cache["phase_sig"], cache["alloc_sig"],
              *(a for layer in cache["layers"] for a in layer.values()),
              *model.bn_mean, *model.bn_var]
    assert all(a.dtype == np.float32 for a in arrays)
    assert all(a.dtype == np.float32 for a in mlp_forward(model, z, train_mode=False)[:2])

    dtypes = []

    def recorded(pieces):
        for offset, piece in pieces:
            dtypes.append(piece.dtype)
            yield offset, piece
    state = init_adam(model, learning_rate=0.01)
    adam_step(model, recorded(backward_pieces(model, cache, wt, wx)), state)
    assert len(dtypes) == len(model.weights) + 1 and set(dtypes) == {np.dtype(np.float32)}
    assert model.params.dtype == state.m.dtype == state.v.dtype == np.float32


def test_float32_model_agrees_with_float64():
    # bounds fixed before measuring: outputs to 1e-5 absolute, each gradient
    # piece to 1e-4 of its largest entry
    model = init_model(WIDE, seed=3)
    single = float32_copy(model)
    z, wt, wx = wide_batch(41)
    runs = []
    for m in (model, single):
        theta, xi, cache = mlp_forward(m, z, train_mode=True, dropout_seed=6)
        runs.append((theta, xi, list(backward_pieces(m, cache, wt, wx))))
    (theta, xi, pieces), (theta32, xi32, pieces32) = runs
    assert np.max(np.abs(theta32 - theta)) <= 1e-5
    assert np.max(np.abs(xi32 - xi)) <= 1e-5
    for (offset, piece), (offset32, piece32) in zip(pieces, pieces32, strict=True):
        assert offset32 == offset
        assert np.max(np.abs(piece32 - piece)) <= 1e-4 * np.max(np.abs(piece))
    for a, b in zip([*model.bn_mean, *model.bn_var], [*single.bn_mean, *single.bn_var]):
        assert np.max(np.abs(b - a)) <= 1e-5 * max(1.0, np.max(np.abs(a)))


def _forward_arrays(theta, xi, cache):
    """Every array of a forward pass's outputs and cache, in a fixed order;
    None where a layer has no dropout mask."""
    return [theta, xi, cache["head_input"], cache["phase_sig"], cache["alloc_sig"],
            *(layer[k] for layer in cache["layers"]
              for k in ("input", "pre", "xhat", "inv", "mask"))]


def _same_bits(a, b):
    if a is None or b is None:
        return a is b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dropout", [0.5, 0.1, 0.0])
def test_forward_matches_the_reference_formulas_bit_for_bit(dtype, dropout):
    # batches of 20 rows, as training draws them, so column sums take more
    # than one pass of the reduction's unrolled loop
    base = init_model(dataclasses.replace(WIDE, dropout_rate=dropout), seed=19)
    model, ref = (MlpModel(base.arch, base.params.astype(dtype),
                           [m.astype(dtype) for m in base.bn_mean],
                           [v.astype(dtype) for v in base.bn_var]) for _ in range(2))
    rng = np.random.default_rng(20)
    for step in range(3):
        z = rng.normal(size=(20, WIDE.input_dim))
        for train_mode in (True, False):
            got = mlp_forward(model, z, train_mode, dropout_seed=step)
            want = oracles.mlp_forward_reference(ref, z, train_mode, dropout_seed=step)
            assert all(_same_bits(a, b) for a, b in
                       zip(_forward_arrays(*got), _forward_arrays(*want), strict=True))
            assert all(_same_bits(a, b) for a, b in
                       zip([*model.bn_mean, *model.bn_var], [*ref.bn_mean, *ref.bn_var]))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_the_branch_reference_at_the_extremes(dtype):
    edges = [0.0, 1e-30, 20.0, 89.0, 1e4]
    x = np.array([*edges, *(-e for e in edges)], dtype)
    x = np.concatenate([x, np.random.default_rng(21).normal(0.0, 30.0, 61).astype(dtype)])
    with np.errstate(over="raise", invalid="raise"):
        got = _sigmoid(x)
        want = oracles.sigmoid_branches(x)
    assert np.signbit(x[5])  # negative zero, which takes the x >= 0 branch
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()


def test_backward_pieces_cover_the_vector_once_heads_first():
    model = tiny_model(seed=6)
    _, _, cache = mlp_forward(model, np.ones((3, 3)), train_mode=True)
    spans = [(offset, piece.size) for offset, piece in
             backward_pieces(model, cache, np.ones((3, 4)), np.ones((3, 2, 2)))]
    starts = np.cumsum([0, *(w.size for w in model.weights)])
    # the two heads, the hidden layers last to first, then the rest in one piece
    assert [o for o, _ in spans] == [*starts[-3:-1], *starts[-4::-1], starts[-1]]
    assert sorted(spans) == list(zip(starts, np.diff([*starts, model.params.size])))


def test_piecewise_adam_step_matches_the_whole_gradient_step():
    # Adam fed backward_pieces moves each weight matrix while the backward
    # pass is still running, so the pass must be done reading it by then
    arch = MlpArch(input_dim=7, phase_dim=4, alloc_users=2, alloc_cols=3,
                   hidden=(12, 10, 8), dropout_rate=0.3)
    models = [init_model(arch, seed=4) for _ in range(2)]
    states = [init_adam(m, learning_rate=0.05) for m in models]
    rng = np.random.default_rng(11)
    for step in range(3):
        z = rng.normal(size=(6, 7))
        wt, wx = rng.normal(size=(6, 4)), rng.normal(size=(6, 2, 3))
        for model, state, backward in zip(models, states, (backward_pieces, mlp_backward)):
            _, _, cache = mlp_forward(model, z, train_mode=True, dropout_seed=step)
            adam_step(model, backward(model, cache, wt, wx), state)
    (a, b), (sa, sb) = models, states
    for x, y in zip([a.params, sa.m, sa.v, *a.bn_mean, *a.bn_var],
                    [b.params, sb.m, sb.v, *b.bn_mean, *b.bn_var]):
        assert x.tobytes() == y.tobytes()
    assert sa.step == sb.step == 3


def test_adam_zero_gradient_is_noop():
    model = tiny_model(seed=4)
    before = copy.deepcopy(model.weights)
    state = init_adam(model, 0.01)
    adam_step(model, np.zeros_like(model.params), state)
    for wa, wb in zip(before, model.weights):
        assert np.array_equal(wa, wb)
    assert state.step == 1


def test_adam_first_step_size():
    model = tiny_model(seed=5)
    before = copy.deepcopy(model.weights)
    state = init_adam(model, learning_rate=0.01)
    adam_step(model, np.full_like(model.params, 3.7), state)
    delta = model.weights[0] - before[0]
    assert np.allclose(delta, -0.01, atol=1e-6)
    assert np.allclose(delta, -0.01 * 3.7 / (3.7 + 1e-8), atol=1e-15)
    # every parameter tensor moves by the same amount for a constant gradient
    assert np.allclose(model.biases[2], delta[0, 0], atol=1e-12)


def test_adam_determinism():
    runs = []
    for _ in range(2):
        model = tiny_model(seed=6)
        state = init_adam(model, learning_rate=0.005)
        rng = np.random.default_rng(21)
        for _step in range(3):
            adam_step(model, rng.normal(size=model.params.shape), state)
        runs.append(model)
    for wa, wb in zip(runs[0].weights, runs[1].weights):
        assert np.array_equal(wa, wb)


def test_adam_flat_step_matches_per_tensor_reference():
    # the update as one tensor at a time, in the library's arithmetic order:
    # textbook moments, bias corrections folded into a step size and epsilon
    model, ref = tiny_model(seed=8), tiny_model(seed=8)
    state = init_adam(model, learning_rate=0.005)
    moments = {"m": np.zeros_like(ref.params), "v": np.zeros_like(ref.params)}
    rng = np.random.default_rng(22)
    for t in range(1, 4):
        grad = rng.normal(size=model.params.shape)
        adam_step(model, grad.copy(), state)
        root_c2 = np.sqrt(1.0 - 0.999 ** t)
        step, eps_t = 0.005 * root_c2 / (1.0 - 0.9 ** t), 1e-8 * root_c2
        views = [param_views(ref.arch, a) for a in (ref.params, grad, moments["m"], moments["v"])]
        for key in views[0]:
            for p, g, m, v in zip(*(vw[key] for vw in views)):
                m *= 0.9
                m += (1.0 - 0.9) * g
                v *= 0.999
                v += (1.0 - 0.999) * g * g
                p -= step * m / (np.sqrt(v) + eps_t)
    assert np.array_equal(model.params, ref.params)
    assert np.array_equal(state.m, moments["m"]) and np.array_equal(state.v, moments["v"])


def model_of_size(n, seed=0):
    """A model with exactly ``n`` parameters: one hidden unit, one phase
    element, one share, and n - 7 inputs."""
    arch = MlpArch(input_dim=n - 7, phase_dim=1, alloc_users=1, alloc_cols=1, hidden=(1,))
    model = init_model(arch, seed=seed)
    assert model.params.size == n
    return model


def spread_gradient(rng, n):
    """Random signs with magnitudes spread log-uniformly over 1e-6 ... 1."""
    return rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-6.0, 0.0, size=n)


@pytest.mark.parametrize("n", [5 * BLOCK // 2, BLOCK, BLOCK // 3])
def test_blocked_adam_matches_the_whole_vector_update(n):
    model = model_of_size(n, seed=9)
    params = model.params.copy()
    m, v = np.zeros(n), np.zeros(n)
    state = init_adam(model, learning_rate=0.003)
    rng = np.random.default_rng(n)
    for t in range(1, 4):
        grad = spread_gradient(rng, n)
        adam_step(model, grad.copy(), state)
        oracles.adam_folded_reference(params, grad, m, v, t, 0.003)
        assert np.array_equal(model.params, params)
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)


@pytest.mark.parametrize("lr", [0.003, 1.0])
def test_folded_adam_agrees_with_the_textbook_update(lr):
    # A bound from rounding-error analysis, in units of the update's ulp: the
    # textbook update rounds to within 5.5 unit roundoffs of its exact
    # value, the folded one to within 8 (three more roundings for the step
    # and epsilon), so the two differ by at most 13.5 x 2^-53 |update| <
    # 14 ulps of it; each side then rounds p - update once, half an ulp of
    # the parameter apiece. Dropping eps_t or sqrt(c2) from the fold moves
    # the update by a factor, far past this bound.
    n = 5 * BLOCK // 2
    model = model_of_size(n, seed=12)
    state = init_adam(model, learning_rate=lr)
    m, v = np.zeros(n), np.zeros(n)
    rng = np.random.default_rng(18)
    # steps 1-3, then a late step where 1 - beta1^t rounds to exactly 1
    for t in (1, 2, 3, 1000):
        state.step = t - 1
        grad = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-9.0, 0.0, size=n)
        grad[rng.random(n) < 0.1] = 0.0  # moments where epsilon dominates
        params = model.params.copy()
        adam_step(model, grad.copy(), state)
        oracles.adam_reference(params, grad, m, v, t, lr)
        assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()
        c1, c2 = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
        assert (c1 == 1.0) == (t == 1000)
        update = lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        bound = 14 * np.spacing(np.abs(update)) + np.spacing(
            np.maximum(np.abs(model.params), np.abs(params)))
        assert np.all(np.abs(model.params - params) <= bound)


@pytest.mark.parametrize("index", [0, -1])
def test_adam_raises_when_the_scaled_square_overflows(index):
    n = 5 * BLOCK // 2
    rng = np.random.default_rng(31)
    # (1 - beta2) * 1e154 * 1e154 = 1e305 is finite; 1e160 overflows
    for big, raises in ((1e154, False), (1e160, True)):
        model = model_of_size(n, seed=10)
        params = model.params.copy()
        state = init_adam(model, learning_rate=0.003)
        grad = spread_gradient(rng, n)
        grad[index] = big
        if raises:
            with pytest.raises(FloatingPointError):
                adam_step(model, grad.copy(), state)
            with pytest.raises(FloatingPointError):
                oracles.adam_reference(params, grad, np.zeros(n), np.zeros(n), 1, 0.003)
        else:
            adam_step(model, grad.copy(), state)
            oracles.adam_folded_reference(params, grad, np.zeros(n), np.zeros(n), 1, 0.003)
            assert np.array_equal(model.params, params)


def test_parameter_counts():
    arch = MlpArch(input_dim=6, phase_dim=400, alloc_users=4, alloc_cols=20)
    assert parameter_count(arch) == 677430
    assert first_layer_weight_count(arch) == 3000
    wide = MlpArch(input_dim=920, phase_dim=400, alloc_users=4, alloc_cols=20)
    # the input-facing matrix is the only block that scales with feature count
    assert first_layer_weight_count(wide) * 6 == first_layer_weight_count(arch) * 920
    small = MlpArch(input_dim=3, phase_dim=5, alloc_users=2, alloc_cols=3,
                    hidden=(4, 2))
    assert parameter_count(small) == 71


def test_checkpoint_round_trip(tmp_path):
    model = tiny_model(seed=9)
    z = np.random.default_rng(30).normal(size=(4, 3))
    mlp_forward(model, z, train_mode=True, dropout_seed=0)  # move running stats
    X = np.random.default_rng(31).normal(size=(10, 3))
    X[:, 1] = X[:, 0]
    pca = pca_fit(X)
    meta = {"alpha": 1.0, "seed": 9, "note": "round trip"}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, pca=pca, metadata=meta)
    loaded, pca2, meta2 = load_checkpoint(path)
    assert loaded.arch == model.arch
    assert meta2 == meta
    for key in ("weights", "biases", "bn_scale", "bn_shift", "bn_mean", "bn_var"):
        for a, b in zip(getattr(model, key), getattr(loaded, key)):
            assert np.array_equal(a, b)
    assert np.array_equal(pca.axes, pca2.axes)
    assert np.array_equal(pca.eigenvalues, pca2.eigenvalues)
    # eval outputs agree bitwise
    t1, x1, _ = mlp_forward(model, z, train_mode=False)
    t2, x2, _ = mlp_forward(loaded, z, train_mode=False)
    assert np.array_equal(t1, t2) and np.array_equal(x1, x2)


def test_checkpoint_without_pca(tmp_path):
    model = tiny_model(seed=10)
    path = tmp_path / "bare.ckpt"
    save_checkpoint(path, model)
    _, pca, meta = load_checkpoint(path)
    assert pca is None and meta == {}


@pytest.mark.parametrize("corrupt,match", [
    ("magic", "not a model checkpoint"),
    ("version", "version"),
    ("truncate", "truncated"),
    ("payload", "checksum"),
])
def test_checkpoint_corruption(tmp_path, corrupt, match):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, tiny_model(seed=1))
    blob = bytearray(path.read_bytes())
    if corrupt == "magic":
        blob[:4] = b"XXXX"
    elif corrupt == "version":
        blob[4:8] = (99).to_bytes(4, "little")
    elif corrupt == "truncate":
        blob = blob[:-10]
    elif corrupt == "payload":
        blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def _checkpoint_bytes(meta, arrays):
    """Magic, version, metadata, CRC, length and the codec's payload."""
    meta = json.dumps(meta, sort_keys=True).encode()
    payload = io.BytesIO()
    crc, size = write_named_arrays(payload, arrays)
    return (b"RISM" + struct.pack("<II", 1, len(meta)) + meta
            + struct.pack("<IQ", crc, size) + payload.getvalue())


def _write_raw_checkpoint(path, arch, arrays):
    path.write_bytes(_checkpoint_bytes(
        {"arch": dataclasses.asdict(arch), "has_pca": False, "metadata": {}}, arrays))


def _model_arrays(model):
    arrays = {}
    for key in ("weights", "biases", "bn_scale", "bn_shift", "bn_mean", "bn_var"):
        for i, a in enumerate(getattr(model, key)):
            arrays[f"{key}.{i}"] = a
    return arrays


def test_checkpoint_from_separate_arrays_loads_bit_exact(tmp_path):
    model = tiny_model(seed=12)
    mlp_forward(model, np.random.default_rng(3).normal(size=(4, 3)), train_mode=True)
    path = tmp_path / "raw.ckpt"
    _write_raw_checkpoint(path, model.arch, {k: a.copy() for k, a in _model_arrays(model).items()})
    loaded, _, _ = load_checkpoint(path)
    assert np.array_equal(loaded.params, model.params)
    z = np.random.default_rng(4).normal(size=(5, 3))
    t1, x1, _ = mlp_forward(model, z, train_mode=False)
    t2, x2, _ = mlp_forward(loaded, z, train_mode=False)
    assert np.array_equal(t1, t2) and np.array_equal(x1, x2)


@pytest.mark.parametrize("edit", [
    lambda a: a.pop("biases.3"),
    lambda a: a.pop("bn_var.0"),
    lambda a: a.update({"bn_var.4": np.ones(4)}),
    lambda a: a.update({"weights.0": a["weights.0"].T.copy()}),
    lambda a: a.update({"weights.5": a["weights.5"][:, :3].copy()}),
    lambda a: a.update({"bn_mean.2": np.zeros(5)}),
    lambda a: a.update({"bn_shift.1": a["bn_shift.1"] + 0j}),
], ids=["missing-param", "missing-stat", "extra", "transposed", "narrow-head",
        "long-stat", "complex"])
def test_checkpoint_arrays_checked_against_metadata(tmp_path, edit):
    model = tiny_model(seed=13)
    arrays = _model_arrays(model)
    edit(arrays)
    path = tmp_path / "bad.ckpt"
    _write_raw_checkpoint(path, model.arch, arrays)
    with pytest.raises(CheckpointError, match="checkpoint arrays"):
        load_checkpoint(path)


def _float32_copy(model):
    return MlpModel(model.arch, model.params.astype(np.float32),
                    [m.astype(np.float32) for m in model.bn_mean],
                    [v.astype(np.float32) for v in model.bn_var])


def test_checkpoint_bytes_are_the_format_assembled_in_memory(tmp_path):
    model32 = _float32_copy(tiny_model(seed=14))
    X = np.random.default_rng(6).normal(size=(5, 3))
    pca = pca_fit(X)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model32, pca=pca, metadata={"best_epoch": 3})
    arrays = _model_arrays(model32)
    arrays.update((f"pca.{f.name}", getattr(pca, f.name)) for f in dataclasses.fields(pca))
    meta = {"format_version": 1, "arch": dataclasses.asdict(model32.arch), "has_pca": True,
            "metadata": {"best_epoch": 3}}
    assert path.read_bytes() == _checkpoint_bytes(meta, arrays)


# PCA axes that fail to convert to float64, after the model's arrays are written
UNWRITABLE_PCA = PcaModel(np.zeros(3), np.ones(3), np.array([["not a number"]]), np.ones(3))


def test_a_save_cut_short_fails_to_load(tmp_path, monkeypatch):
    # a save killed partway leaves its new file, since its clean-up never
    # runs; skipping the removal after a failed conversion stands in for that
    path = tmp_path / "model.ckpt"
    monkeypatch.setattr(mlp.os, "remove", lambda name: None)
    with pytest.raises(ValueError):
        save_checkpoint(path, tiny_model(seed=15), pca=UNWRITABLE_PCA)
    (partial,) = tmp_path.iterdir()
    assert partial != path
    assert partial.stat().st_size > parameter_count(TINY) * 8
    with pytest.raises(CheckpointError):
        load_checkpoint(partial)


def test_a_failed_save_keeps_the_previous_checkpoint(tmp_path):
    path = tmp_path / "model.ckpt"
    model = tiny_model(seed=18)
    save_checkpoint(path, model, metadata={"best_epoch": 1})
    before = path.read_bytes()
    with pytest.raises(ValueError):
        save_checkpoint(path, tiny_model(seed=15), pca=UNWRITABLE_PCA)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == before
    loaded, pca, meta = load_checkpoint(path)
    assert loaded.params.tobytes() == model.params.tobytes()
    assert pca is None and meta == {"best_epoch": 1}


# a desk-profile network: 8 x 8 surface, 3 users, 83 PCA features (the
# count depends on the drops)
DESK_ARCH = MlpArch(input_dim=83, phase_dim=64, alloc_users=3, alloc_cols=8)
MIB = 1 << 20


@pytest.fixture(scope="module")
def desk_model32():
    return _float32_copy(init_model(DESK_ARCH, seed=16))


def _traced_peak(fn):
    """Peak bytes that ``fn()`` allocates, the result it keeps included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_holds_one_tensor_at_a_time(tmp_path, desk_model32):
    assert parameter_count(DESK_ARCH) == 597_938
    largest = max(w.size for w in desk_model32.weights) * 8
    peak = _traced_peak(lambda: save_checkpoint(tmp_path / "m.ckpt", desk_model32))
    assert peak < largest + MIB, f"save peaked at {peak} bytes"


def test_load_holds_no_more_than_the_file(tmp_path, desk_model32):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, desk_model32)
    peak = _traced_peak(lambda: load_checkpoint(path))
    assert peak < path.stat().st_size + MIB, f"load peaked at {peak} bytes"


def test_checkpoint_declaring_a_huge_network_allocates_no_more_than_its_file(tmp_path):
    model = tiny_model(seed=17)
    path = tmp_path / "huge.ckpt"
    huge = dataclasses.replace(model.arch, hidden=(100_000, 100_000))
    _write_raw_checkpoint(path, huge, _model_arrays(model))

    def load():
        with pytest.raises(CheckpointError, match="checkpoint arrays"):
            load_checkpoint(path)
    assert _traced_peak(load) < MIB
