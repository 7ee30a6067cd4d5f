import copy
import dataclasses
import json
import struct
import zlib

import numpy as np
import pytest

from risalloc import (CheckpointError, MlpArch, adam_step, first_layer_weight_count,
                      init_adam, init_model, load_checkpoint, mlp_backward,
                      mlp_forward, param_views, parameter_count, pca_fit,
                      save_checkpoint)
from risalloc.mlp import BN_MOMENTUM
from risalloc.serial import encode_named_arrays

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
    # the update as one tensor at a time, in the library's arithmetic order
    model, ref = tiny_model(seed=8), tiny_model(seed=8)
    state = init_adam(model, learning_rate=0.005)
    moments = {"m": np.zeros_like(ref.params), "v": np.zeros_like(ref.params)}
    rng = np.random.default_rng(22)
    for t in range(1, 4):
        grad = rng.normal(size=model.params.shape)
        adam_step(model, grad.copy(), state)
        c1, c2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
        views = [param_views(ref.arch, a) for a in (ref.params, grad, moments["m"], moments["v"])]
        for key in views[0]:
            for p, g, m, v in zip(*(vw[key] for vw in views)):
                m *= 0.9
                m += (1.0 - 0.9) * g
                v *= 0.999
                v += (1.0 - 0.999) * g * g
                p -= 0.005 * (m / c1) / (np.sqrt(v / c2) + 1e-8)
    assert np.array_equal(model.params, ref.params)
    assert np.array_equal(state.m, moments["m"]) and np.array_equal(state.v, moments["v"])


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


def _write_raw_checkpoint(path, arch, arrays):
    meta = json.dumps({"arch": dataclasses.asdict(arch), "has_pca": False, "metadata": {}}).encode()
    payload = encode_named_arrays(arrays)
    path.write_bytes(b"RISM" + struct.pack("<II", 1, len(meta)) + meta
                     + struct.pack("<IQ", zlib.crc32(payload), len(payload)) + payload)


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
