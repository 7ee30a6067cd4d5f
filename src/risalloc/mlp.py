"""Dense network with hand-written backpropagation, on plain numpy.

Architecture: a chain of hidden blocks (affine -> ReLU -> batch norm ->
dropout) feeding two heads, one sigmoid head scaled to [0, pi] for element
phases and one sigmoid head for raw per-user column shares. Training mode
normalizes with batch statistics and applies inverted dropout; eval mode
uses the running statistics and no dropout, so outputs are deterministic
and feasible by construction.

Backward passes are exact: every formula here is checked against central
finite differences in the test suite.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import asdict, dataclass, fields

import numpy as np

from .config import AT_LEAST_ONE, check_fields, is_int, parse_settings
from .features import PcaModel
from .serial import decode_named_arrays, encode_named_arrays, misfits

BN_EPS = 1e-8
ADAM_BETA1 = 0.9    # first-moment decay
ADAM_BETA2 = 0.999  # second-moment decay
ADAM_EPS = 1e-8
# running = (1 - momentum) * running + momentum * batch, biased batch variance
BN_MOMENTUM = 0.1

CHECKPOINT_MAGIC = b"RISM"
CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    """Unreadable, foreign, or corrupted model checkpoint."""


# the hidden-layer checks, shared with the training options
LAYER_RULES = {
    "hidden": (lambda v: isinstance(v, (list, tuple)) and len(v) > 0
               and all(is_int(h) and h >= 1 for h in v), "a non-empty list of positive integers"),
    "dropout_rate": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
}


@dataclass(frozen=True)
class MlpArch:
    """Layer sizing: input width, hidden widths, and the two head widths."""

    input_dim: int
    phase_dim: int       # number of surface elements
    alloc_users: int
    alloc_cols: int
    hidden: tuple = (500, 450, 400, 300)
    dropout_rate: float = 0.5

    def __post_init__(self):
        check_fields(self, input_dim=AT_LEAST_ONE, phase_dim=AT_LEAST_ONE,
                     alloc_users=AT_LEAST_ONE, alloc_cols=AT_LEAST_ONE, **LAYER_RULES)
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))

    @property
    def alloc_dim(self) -> int:
        return self.alloc_users * self.alloc_cols


@dataclass
class MlpModel:
    """All learnable scalars in one float64 vector, ``params``, updated in
    place only; ``weights``, ``biases``, ``bn_scale`` and ``bn_shift`` are
    lists of views into it. The running statistics are separate arrays."""

    arch: MlpArch
    params: np.ndarray
    bn_mean: list
    bn_var: list

    def __post_init__(self):
        for kind, views in param_views(self.arch, self.params).items():
            setattr(self, kind, views)


def _layout(arch: MlpArch):
    """Yield (name, shape) of every learnable tensor, in buffer order."""
    dims = [arch.input_dim, *arch.hidden]
    affine = [*zip(dims, dims[1:]), (dims[-1], arch.phase_dim), (dims[-1], arch.alloc_dim)]
    norm = [(h,) for h in arch.hidden]
    for kind, shapes in (("weights", affine), ("biases", [s[1:] for s in affine]),
                         ("bn_scale", norm), ("bn_shift", norm)):
        for i, shape in enumerate(shapes):
            yield f"{kind}.{i}", shape


def _named_views(arch: MlpArch, vec: np.ndarray):
    """Yield (name, view) over a flat vector laid out as ``_layout`` says."""
    pos = 0
    for name, shape in _layout(arch):
        size = math.prod(shape)
        yield name, vec[pos:pos + size].reshape(shape)
        pos += size
    if vec.shape != (pos,):
        raise ValueError(f"expected a flat vector of {pos} parameters, got shape {vec.shape}")


def param_views(arch: MlpArch, vec: np.ndarray) -> dict:
    """Views into a vector laid out like ``MlpModel.params`` (parameters,
    gradients or Adam moments), as {"weights": [...], "biases": [...],
    "bn_scale": [...], "bn_shift": [...]} with each list in layer order."""
    views = {}
    for name, view in _named_views(arch, vec):
        views.setdefault(name.split(".")[0], []).append(view)
    return views


def init_model(arch: MlpArch, seed: int = 0) -> MlpModel:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases, unit batch
    norm scale, zero shift, fresh running statistics."""
    rng = np.random.default_rng(seed)
    model = MlpModel(arch, np.zeros(parameter_count(arch)),
                     bn_mean=[np.zeros(h) for h in arch.hidden],
                     bn_var=[np.ones(h) for h in arch.hidden])
    for w in model.weights:
        fan_in, fan_out = w.shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    for s in model.bn_scale:
        s[...] = 1.0
    return model


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def mlp_forward(model: MlpModel, z_batch, train_mode: bool, dropout_seed=0):
    """Run the network on an (Q, D) batch (a single row is promoted).

    Returns (theta, xi, cache): theta is (Q, L2) in [0, pi], xi is
    (Q, K, L) in [0, 1]. Training mode updates the running statistics in
    place and needs Q >= 2 for batch variance; the cache feeds
    mlp_backward.
    """
    arch = model.arch
    z = np.atleast_2d(np.asarray(z_batch, dtype=float))
    if z.shape[1] != arch.input_dim:
        raise ValueError(f"expected {arch.input_dim} inputs, got {z.shape[1]}")
    Q = z.shape[0]
    if train_mode and Q < 2:
        raise ValueError("training mode needs at least 2 rows for batch statistics")
    rng = np.random.default_rng(dropout_seed) if (train_mode and arch.dropout_rate > 0) else None

    layers = []
    a = z
    for v in range(len(arch.hidden)):
        pre = a @ model.weights[v] + model.biases[v]
        r = np.maximum(pre, 0.0)
        if train_mode:
            mu = r.mean(axis=0)
            var = r.var(axis=0)
            model.bn_mean[v] = (1.0 - BN_MOMENTUM) * model.bn_mean[v] + BN_MOMENTUM * mu
            model.bn_var[v] = (1.0 - BN_MOMENTUM) * model.bn_var[v] + BN_MOMENTUM * var
        else:
            mu = model.bn_mean[v]
            var = model.bn_var[v]
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (r - mu) * inv
        y = model.bn_scale[v] * xhat + model.bn_shift[v]
        if rng is not None:
            mask = (rng.random(y.shape) >= arch.dropout_rate) / (1.0 - arch.dropout_rate)
            y = y * mask
        else:
            mask = None
        layers.append({"input": a, "pre": pre, "xhat": xhat, "inv": inv, "mask": mask})
        a = y

    phase_pre = a @ model.weights[-2] + model.biases[-2]
    alloc_pre = a @ model.weights[-1] + model.biases[-1]
    phase_sig = _sigmoid(phase_pre)
    alloc_sig = _sigmoid(alloc_pre)
    theta = np.pi * phase_sig
    xi = alloc_sig.reshape(Q, arch.alloc_users, arch.alloc_cols)

    cache = {"train_mode": train_mode, "layers": layers, "head_input": a,
             "phase_sig": phase_sig, "alloc_sig": alloc_sig, "batch": Q}
    return theta, xi, cache


def mlp_backward(model: MlpModel, cache: dict, dtheta, dxi) -> np.ndarray:
    """Exact parameter gradients from upstream head gradients.

    dtheta is (Q, L2) against the scaled phase output, dxi is (Q, K, L)
    against the share output. The cache must come from a train-mode
    forward pass. Returns a vector laid out like ``model.params``.
    """
    if not cache["train_mode"]:
        raise ValueError("backward needs a train-mode forward cache")
    arch = model.arch
    Q = cache["batch"]
    sp = cache["phase_sig"]
    sa = cache["alloc_sig"]

    dphase_pre = np.asarray(dtheta, dtype=float).reshape(Q, -1) * np.pi * sp * (1.0 - sp)
    dalloc_pre = np.asarray(dxi, dtype=float).reshape(Q, -1) * sa * (1.0 - sa)

    grad = np.empty_like(model.params)  # every entry is written below
    g = param_views(arch, grad)

    head_in = cache["head_input"]
    np.matmul(head_in.T, dphase_pre, out=g["weights"][-2])
    dphase_pre.sum(axis=0, out=g["biases"][-2])
    np.matmul(head_in.T, dalloc_pre, out=g["weights"][-1])
    dalloc_pre.sum(axis=0, out=g["biases"][-1])
    da = dphase_pre @ model.weights[-2].T + dalloc_pre @ model.weights[-1].T

    for v in reversed(range(len(arch.hidden))):
        layer = cache["layers"][v]
        if layer["mask"] is not None:
            da = da * layer["mask"]
        xhat, inv = layer["xhat"], layer["inv"]
        (da * xhat).sum(axis=0, out=g["bn_scale"][v])
        da.sum(axis=0, out=g["bn_shift"][v])
        dxhat = da * model.bn_scale[v]
        dr = (inv / Q) * (Q * dxhat - dxhat.sum(axis=0)
                          - xhat * (dxhat * xhat).sum(axis=0))
        dpre = dr * (layer["pre"] > 0)
        np.matmul(layer["input"].T, dpre, out=g["weights"][v])
        dpre.sum(axis=0, out=g["biases"][v])
        da = dpre @ model.weights[v].T
    return grad


# ---- optimizer ----

@dataclass
class AdamState:
    """First/second moment vectors, the learning rate in effect, and the step counter."""

    m: np.ndarray
    v: np.ndarray
    learning_rate: float
    step: int = 0


def init_adam(model: MlpModel, learning_rate: float) -> AdamState:
    return AdamState(m=np.zeros_like(model.params), v=np.zeros_like(model.params),
                     learning_rate=learning_rate)


def adam_step(model: MlpModel, grad: np.ndarray, state: AdamState):
    """One Adam update in place, standard 1 - beta^t bias correction.

    Gradients here point up the objective's descent direction (they come
    from a loss), so parameters move against them. ``grad`` is overwritten
    with the update's denominator, which saves a parameter-sized buffer.
    """
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * grad
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * grad * grad
    denom = np.sqrt(np.divide(state.v, c2, out=grad), out=grad)
    denom += ADAM_EPS
    model.params -= state.learning_rate * (state.m / c1) / denom
    return model, state


# ---- bookkeeping ----

def parameter_count(arch: MlpArch) -> int:
    """Learnable scalars: affine weights and biases plus batch-norm
    scale/shift pairs (running statistics are not parameters)."""
    return sum(math.prod(shape) for _, shape in _layout(arch))


def first_layer_weight_count(arch: MlpArch) -> int:
    """Size of the input-facing weight matrix; scales linearly with the
    feature count, which is what dimensionality reduction buys back."""
    return arch.input_dim * arch.hidden[0]


# ---- checkpoints ----

def save_checkpoint(path, model: MlpModel, pca: PcaModel | None = None,
                    metadata: dict | None = None) -> None:
    """Write arch, parameters, optional PCA, and training metadata.

    The array payload is CRC-checked and stored with the shared codec, so
    a load returns bit-identical tensors.
    """
    arrays = dict(_named_views(model.arch, model.params))
    for kind in ("bn_mean", "bn_var"):
        arrays.update((f"{kind}.{i}", arr) for i, arr in enumerate(getattr(model, kind)))
    if pca is not None:
        arrays.update((f"pca.{f.name}", getattr(pca, f.name)) for f in fields(PcaModel))
    meta = {"format_version": CHECKPOINT_VERSION,
            "arch": asdict(model.arch),
            "has_pca": pca is not None,
            "metadata": dict(metadata or {})}
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    payload = encode_named_arrays(arrays)
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(meta_bytes)))
        f.write(meta_bytes)
        f.write(struct.pack("<IQ", zlib.crc32(payload), len(payload)))
        f.write(payload)


def load_checkpoint(path):
    """Read a checkpoint back; returns (model, pca_or_None, metadata)."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError("not a model checkpoint file")
    try:
        return _parse_checkpoint(blob)
    except (struct.error, KeyError, TypeError, ValueError) as exc:
        # short header, bad UTF-8 or JSON, missing keys or arrays, bad types
        raise CheckpointError(f"malformed checkpoint: {exc!r}") from exc


def _parse_checkpoint(blob: bytes):
    """Header, metadata and arrays of a checkpoint whose magic matched."""
    version, meta_len = struct.unpack("<II", blob[4:12])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version} unsupported (library writes {CHECKPOINT_VERSION})")
    pos = 12
    meta = json.loads(blob[pos:pos + meta_len].decode("utf-8"))
    pos += meta_len
    crc, payload_len = struct.unpack("<IQ", blob[pos:pos + 12])
    pos += 12
    payload = memoryview(blob)[pos:pos + payload_len]  # no copy of the payload
    if len(payload) != payload_len:
        raise CheckpointError("checkpoint payload truncated")
    if zlib.crc32(payload) != crc:
        raise CheckpointError("checkpoint payload failed its checksum")
    arrays = decode_named_arrays(payload)

    # the metadata is outside the CRC, so the model's arrays are checked against it
    arch = parse_settings(MlpArch, meta["arch"], "checkpoint arch")
    expected = {name: (shape, False) for name, shape in _layout(arch)}
    for i, h in enumerate(arch.hidden):
        expected[f"bn_mean.{i}"] = expected[f"bn_var.{i}"] = ((h,), False)
    bad = misfits({n: a for n, a in arrays.items() if not n.startswith("pca.")}, expected)
    if bad:
        raise CheckpointError(f"checkpoint arrays {bad} are missing, extra or misshaped")

    params = np.empty(parameter_count(arch))
    for name, view in _named_views(arch, params):
        view[...] = arrays.pop(name)  # drop each decoded tensor once it is copied
    model = MlpModel(arch, params,
                     bn_mean=[arrays.pop(f"bn_mean.{i}") for i in range(len(arch.hidden))],
                     bn_var=[arrays.pop(f"bn_var.{i}") for i in range(len(arch.hidden))])
    pca = None
    if meta["has_pca"]:
        pca = PcaModel(*(arrays[f"pca.{f.name}"] for f in fields(PcaModel)))
    return model, pca, meta["metadata"]
