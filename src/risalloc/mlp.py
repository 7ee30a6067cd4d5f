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

import functools
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from .config import AT_LEAST_ONE, check_fields, is_int, parse_settings
from .features import PcaModel
from .serial import misfits, read_named_arrays, replacing, write_named_arrays

BN_EPS = 1e-8
ADAM_BETA1 = 0.9    # first-moment decay
ADAM_BETA2 = 0.999  # second-moment decay
ADAM_EPS = 1e-8
# bytes per array in one Adam block (32768 float64 or 65536 float32 entries),
# so a block's five arrays (parameters, gradient, two moments, scratch) fit
# together in one L2 cache
_ADAM_BLOCK = 1 << 18
# running = (1 - momentum) * running + momentum * batch, biased batch variance
BN_MOMENTUM = 0.1

CHECKPOINT_MAGIC = b"RISM"
CHECKPOINT_VERSION = 1
_CRC_FIELD = struct.Struct("<IQ")  # the payload's CRC-32 and byte length


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
    """All learnable scalars in one vector, ``params``, updated in place
    only; ``weights``, ``biases``, ``bn_scale`` and ``bn_shift`` are lists
    of views into it. The running statistics are separate arrays of the
    same dtype. The network computes in that dtype: ``init_model`` and
    ``load_checkpoint`` give float64, and ``training.train`` trains in
    float32."""

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


def _by_kind(named) -> dict:
    """Group (name, view) pairs into {kind: [view, ...]}, in layer order."""
    views = {}
    for name, view in named:
        views.setdefault(name.split(".")[0], []).append(view)
    return views


def param_views(arch: MlpArch, vec: np.ndarray) -> dict:
    """Views into a vector laid out like ``MlpModel.params`` (parameters,
    gradients or Adam moments), as {"weights": [...], "biases": [...],
    "bn_scale": [...], "bn_shift": [...]} with each list in layer order."""
    return _by_kind(_named_views(arch, vec))


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
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, with e = e^-|x|,
    whose exponent is never positive, so exp cannot overflow."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def mlp_forward(model: MlpModel, z_batch, train_mode: bool, dropout_seed=0):
    """Run the network on an (Q, D) batch (a single row is promoted), or,
    outside training, on a (Q, 1, D) stack of one-row batches: each of its
    products is then a one-row product, with the bits of a forward on that
    row alone, where a Q-row product would round differently.

    Returns (theta, xi, cache): theta is (Q, L2) in [0, pi], xi is
    (Q, K, L) in [0, 1], both in the dtype of ``model.params``, to which
    the batch is cast. Training mode updates the running statistics in
    place and needs Q >= 2 for batch variance; the cache feeds
    mlp_backward.

    Training mode computes each layer's batch mean and variance from two
    ``np.add.reduce`` sums with the arithmetic of ``ndarray.mean`` and
    ``ndarray.var``, reusing the centred activations for the normalised
    ones, and builds the dropout mask as ``keep * dtype(1 / (1 - p))``:
    the bits of the library methods and of the float64 mask, cast, without
    their per-call overhead.
    """
    arch = model.arch
    z = np.atleast_2d(np.asarray(z_batch, dtype=model.params.dtype))
    if z.shape[-1] != arch.input_dim:
        raise ValueError(f"expected {arch.input_dim} inputs, got {z.shape[-1]}")
    Q = z.shape[0]
    if train_mode and (Q < 2 or z.ndim > 2):
        raise ValueError("training mode needs a (Q, D) batch of at least 2 rows "
                         "for batch statistics")
    rng = np.random.default_rng(dropout_seed) if (train_mode and arch.dropout_rate > 0) else None
    keep_scale = z.dtype.type(1.0 / (1.0 - arch.dropout_rate))

    layers = []
    a = z
    for v in range(len(arch.hidden)):
        pre = a @ model.weights[v] + model.biases[v]
        r = np.maximum(pre, 0.0)
        if train_mode:
            mu = np.add.reduce(r, 0) / Q
            centred = r - mu
            var = np.add.reduce(centred * centred, 0) / Q
            for running, batch in ((model.bn_mean[v], mu), (model.bn_var[v], var)):
                running *= 1.0 - BN_MOMENTUM
                running += BN_MOMENTUM * batch
        else:
            centred = r - model.bn_mean[v]
            var = model.bn_var[v]
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat = centred * inv
        y = model.bn_scale[v] * xhat + model.bn_shift[v]
        if rng is not None:
            # drawn in float64 whatever the dtype, so the pattern does not depend on it
            mask = (rng.random(y.shape) >= arch.dropout_rate) * keep_scale
            y *= mask
        else:
            mask = None
        layers.append({"input": a, "pre": pre, "xhat": xhat, "inv": inv, "mask": mask})
        a = y

    phase_pre = a @ model.weights[-2] + model.biases[-2]
    alloc_pre = a @ model.weights[-1] + model.biases[-1]
    phase_sig = _sigmoid(phase_pre)
    alloc_sig = _sigmoid(alloc_pre)
    theta = (np.pi * phase_sig).reshape(Q, arch.phase_dim)
    xi = alloc_sig.reshape(Q, arch.alloc_users, arch.alloc_cols)

    cache = {"train_mode": train_mode, "layers": layers, "head_input": a,
             "phase_sig": phase_sig, "alloc_sig": alloc_sig, "batch": Q}
    return theta, xi, cache


@functools.lru_cache(maxsize=16)
def _piece_layout(arch: MlpArch):
    """Where ``backward_pieces`` puts its pieces, once per architecture:
    the offsets of the weight matrices, which start the layout, and last
    the offset of the tail that holds the rest; the tail's size; and
    {kind: [slice, ...]} of the biases and batch-norm scales and shifts
    within the tail, in layer order, each of them a vector."""
    offsets, tail, end = [0], {}, 0
    for name, shape in _layout(arch):
        start, end = end, end + math.prod(shape)
        kind = name.split(".")[0]
        if kind == "weights":
            offsets.append(end)
        else:
            tail.setdefault(kind, []).append(slice(start - offsets[-1], end - offsets[-1]))
    return offsets, end - offsets[-1], tail


def backward_pieces(model: MlpModel, cache: dict, dtheta, dxi):
    """Exact parameter gradients from upstream head gradients, in pieces.

    dtheta is (Q, L2) against the scaled phase output, dxi is (Q, K, L)
    against the share output; both are cast to the dtype of
    ``model.params``, in which the pass runs. The cache must come from a
    train-mode forward pass. Yields (offset, gradient) pairs that together
    cover a vector laid out like ``model.params`` once: each weight matrix
    as soon as the rest of the pass no longer reads it (the heads first,
    the first layer last), then the biases and batch-norm scales and
    shifts, which follow the weights in the layout, as one piece. A
    consumer may update each piece's parameters before asking for the next
    one. The gradient with respect to the network input is never formed.

    The piece offsets and the tail's slices come from a layout computed
    once per architecture. Each layer's input gradient, the heads' too, is
    ``dpre @ W.T`` formed as ``(W @ dpre.T).T``: the same sums, which BLAS
    runs faster in this layout when the batch has far fewer rows than W
    has on either side. It is then copied into row order, so every column
    sum below adds its rows in the order a row-ordered product gives.
    """
    if not cache["train_mode"]:
        raise ValueError("backward needs a train-mode forward cache")
    arch = model.arch
    Q = cache["batch"]
    sp = cache["phase_sig"]
    sa = cache["alloc_sig"]

    dtype = model.params.dtype
    dphase_pre = np.asarray(dtheta, dtype=dtype).reshape(Q, -1) * np.pi * sp * (1.0 - sp)
    dalloc_pre = np.asarray(dxi, dtype=dtype).reshape(Q, -1) * sa * (1.0 - sa)

    offsets, tail_size, tail_slices = _piece_layout(arch)
    tail = np.empty(tail_size, dtype)  # every entry is written below
    g = {kind: [tail[s] for s in slices] for kind, slices in tail_slices.items()}

    head_in = cache["head_input"]
    dphase_pre.sum(axis=0, out=g["biases"][-2])
    dalloc_pre.sum(axis=0, out=g["biases"][-1])
    da_t = model.weights[-2] @ dphase_pre.T + model.weights[-1] @ dalloc_pre.T
    yield offsets[-3], head_in.T @ dphase_pre
    yield offsets[-2], head_in.T @ dalloc_pre

    for v in reversed(range(len(arch.hidden))):
        layer = cache["layers"][v]
        da = np.ascontiguousarray(da_t.T)
        if layer["mask"] is not None:
            da *= layer["mask"]
        xhat, inv = layer["xhat"], layer["inv"]
        (da * xhat).sum(axis=0, out=g["bn_scale"][v])
        da.sum(axis=0, out=g["bn_shift"][v])
        dxhat = da * model.bn_scale[v]
        dr = (inv / Q) * (Q * dxhat - dxhat.sum(axis=0)
                          - xhat * (dxhat * xhat).sum(axis=0))
        dpre = dr * (layer["pre"] > 0)
        dpre.sum(axis=0, out=g["biases"][v])
        if v > 0:
            da_t = model.weights[v] @ dpre.T
        yield offsets[v], layer["input"].T @ dpre
    yield offsets[-1], tail


def mlp_backward(model: MlpModel, cache: dict, dtheta, dxi) -> np.ndarray:
    """The pieces of ``backward_pieces`` assembled into one vector laid
    out like ``model.params``."""
    grad = np.empty_like(model.params)
    for offset, piece in backward_pieces(model, cache, dtheta, dxi):
        grad[offset:offset + piece.size] = piece.reshape(-1)
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


def adam_step(model: MlpModel, grad, state: AdamState):
    """One Adam update in place, with the 1 - beta^t bias corrections folded
    into two scalars per step (Kingma and Ba, ICLR 2015, section 2):

        step = lr * sqrt(c2) / c1,   eps_t = eps * sqrt(c2),
        p -= step * m / (sqrt(v) + eps_t),

    where c1 = 1 - beta1^t and c2 = 1 - beta2^t. In real arithmetic this is
    the textbook ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)``; it costs one
    square root and one division per parameter instead of three divisions,
    so only the rounding of the parameter update differs. The moments ``m``
    and ``v`` are the textbook recursion, bit for bit.

    Gradients here point up the objective's descent direction (they come
    from a loss), so parameters move against them. ``grad`` is a vector
    laid out like ``model.params``, or an iterable of (offset, gradient)
    pieces that cover such a vector once, as ``backward_pieces`` yields
    them; each piece's parameters are updated before the next piece is
    asked for. Every gradient is overwritten with the update's denominator,
    which saves a buffer of its size.

    The moments and the scratch share the dtype of ``model.params``, and
    the two scalars are rounded to it, so a gradient of that dtype is
    updated in it throughout. The update runs over each gradient
    ``_ADAM_BLOCK`` bytes of parameters at a time, so each block's
    parameters, gradient, moments and scratch stay in a core's L2 cache
    through all of its passes. Each entry sees the same operations in the
    same order as a whole-vector update, so the result is bit for bit the
    same however the gradient is cut.

    A gradient whose scaled square ``(1 - beta2) * g * g`` overflows the
    dtype (or that pushes the second moment past its largest value) raises
    FloatingPointError. The raise comes mid-update: the blocks before the
    offending one are fully updated, its first moment is too, and the step
    counter has advanced, so the model and ``state`` are left part-updated
    and must be discarded.
    """
    state.step += 1
    t = state.step
    root_c2 = math.sqrt(1.0 - ADAM_BETA2 ** t)
    step = state.learning_rate * root_c2 / (1.0 - ADAM_BETA1 ** t)
    eps_t = ADAM_EPS * root_c2
    dtype = model.params.dtype
    block = _ADAM_BLOCK // dtype.itemsize
    scratch = np.empty(min(block, model.params.size), dtype)
    for offset, piece in [(0, grad)] if isinstance(grad, np.ndarray) else grad:
        flat = piece.reshape(-1)
        for start in range(0, flat.size, block):
            g = flat[start:start + block]
            span = slice(offset + start, offset + start + g.size)
            p, m, v = model.params[span], state.m[span], state.v[span]
            s = scratch[:g.size]
            m *= ADAM_BETA1
            m += np.multiply(1.0 - ADAM_BETA1, g, out=s)
            v *= ADAM_BETA2
            with np.errstate(over="raise"):
                v += np.multiply(np.multiply(1.0 - ADAM_BETA2, g, out=s), g, out=s)
            np.sqrt(v, out=g)
            g += eps_t
            p -= np.divide(np.multiply(m, step, out=s), g, out=s)
        del piece, flat, g  # so a piece is freed before the next one is formed
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

    The array payload is CRC-checked and stored with the shared codec as
    float64, which holds float32 values exactly, so a load returns the same
    values, as a float64 model. The payload is streamed one tensor at a
    time into a new file beside ``path``, and its CRC and length are filled
    in last: a save cut short leaves them zero, so that file fails to load.
    Only the finished file is renamed over ``path``, so a save that fails
    leaves any checkpoint already there as it was; the new file is removed.
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
    with replacing(path) as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(meta_bytes)))
        f.write(meta_bytes)
        field = f.tell()
        f.write(bytes(_CRC_FIELD.size))
        crc, size = write_named_arrays(f, arrays)
        f.seek(field)
        f.write(_CRC_FIELD.pack(crc, size))


def load_checkpoint(path):
    """Read a checkpoint back; returns (model, pca_or_None, metadata).

    The payload is streamed: each learnable tensor is read straight into its
    view of the new float64 parameter vector, so the load holds no more than
    the file's bytes. Its length is checked against the file before any array
    is read, and its CRC before any verdict on the values.
    """
    try:
        with open(path, "rb") as f:
            if f.read(4) != CHECKPOINT_MAGIC:
                raise CheckpointError("not a model checkpoint file")
            try:
                return _read_checkpoint(f, os.fstat(f.fileno()).st_size)
            except (struct.error, KeyError, TypeError, ValueError) as exc:
                # short header, bad UTF-8 or JSON, missing keys or arrays, bad types
                raise CheckpointError(f"malformed checkpoint: {exc!r}") from exc
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc


def _read_checkpoint(f, file_size: int):
    """Header, metadata and arrays of a checkpoint whose magic matched."""
    version, meta_len = struct.unpack("<II", f.read(8))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version} unsupported (library writes {CHECKPOINT_VERSION})")
    # read() would allocate a corrupt length in full before finding the end of the file
    meta = json.loads(f.read(min(meta_len, file_size - f.tell())).decode("utf-8"))
    crc, payload_len = _CRC_FIELD.unpack(f.read(_CRC_FIELD.size))
    end = f.tell() + payload_len
    if end > file_size:
        raise CheckpointError("checkpoint payload truncated")
    if end != file_size:
        raise CheckpointError("trailing bytes after the checkpoint payload")

    arch = parse_settings(MlpArch, meta["arch"], "checkpoint arch")
    # each learnable tensor goes straight into its view of the parameters; an
    # architecture larger than the payload cannot match it, so then every
    # array goes into a new one and the check below names the misfits
    n_params = parameter_count(arch)
    params = np.empty(n_params) if 8 * n_params <= payload_len else None
    views = dict(_named_views(arch, params)) if params is not None else {}

    def into_view(name, shape, dtype):
        view = views.get(name)
        return view if view is not None and view.shape == shape and dtype.kind == "f" else None

    arrays, payload_crc, error = read_named_arrays(f, payload_len, into_view)
    if payload_crc != crc:
        raise CheckpointError("checkpoint payload failed its checksum")
    if error is not None:
        raise error
    # the metadata is outside the CRC, so the model's arrays are checked against it
    expected = {name: (shape, False) for name, shape in _layout(arch)}
    for i, h in enumerate(arch.hidden):
        expected[f"bn_mean.{i}"] = expected[f"bn_var.{i}"] = ((h,), False)
    bad = misfits({n: a for n, a in arrays.items() if not n.startswith("pca.")}, expected)
    if bad:
        raise CheckpointError(f"checkpoint arrays {bad} are missing, extra or misshaped")

    model = MlpModel(arch, params,
                     bn_mean=[arrays[f"bn_mean.{i}"] for i in range(len(arch.hidden))],
                     bn_var=[arrays[f"bn_var.{i}"] for i in range(len(arch.hidden))])
    pca = None
    if meta["has_pca"]:
        pca = PcaModel(*(arrays[f"pca.{f.name}"] for f in fields(PcaModel)))
    return model, pca, meta["metadata"]
