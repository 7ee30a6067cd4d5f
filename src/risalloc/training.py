"""Unsupervised training: utility loss, plateau scheduling, and the epoch loop.

The loss needs no labels: the network's outputs are pushed through the
feasibility projection and scored by the same fairness objective the other
optimizers use, and exact gradients flow back through the projection's
active set. Model selection is by validation loss with plateau learning-
rate decay and early stopping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import _simplex_columns, project_feasible_with_vjp
from .config import AT_LEAST_ONE, NON_NEGATIVE, POSITIVE, ConfigError, check_fields
from .features import PcaModel, feature_matrix, pca_fit, pca_transform
from .metrics import _bind_drops, _Bound, _evaluate
from .mlp import (LAYER_RULES, MlpArch, MlpModel, adam_step, backward_pieces, init_adam,
                  init_model, mlp_forward)


def _mean_loss(values) -> float:
    """Negated mean utility, accumulated sample by sample in batch order."""
    loss = 0.0
    for v in values:
        loss -= v / len(values)
    return float(loss)


def _score(bound: _Bound, theta_batch, xi_batch, alpha: float, noise_linear: float,
           grads: bool):
    """The one loss body, on a bound stack of Q drops: raw shares xi_batch
    (Q, K, L) are projected, then the projected point and theta_batch
    (Q, L2) are scored by one kernel call. Returns the mean negated
    utility; with grads, also its gradients wrt theta_batch and, pulled
    back through the projection, xi_batch."""
    theta = np.asarray(theta_batch, dtype=float)
    xi = np.asarray(xi_batch, dtype=float)
    Q = bound.g_ris.shape[0]
    if not theta.shape[0] == xi.shape[0] == Q:
        raise ValueError("batch sizes disagree")
    if not grads:
        return _mean_loss(_evaluate(bound, theta, _simplex_columns(xi)[0], noise_linear, alpha))
    proj, vjp = project_feasible_with_vjp(xi)
    values, g_theta, g_xi = _evaluate(bound, theta, proj, noise_linear, alpha, grads=True)
    return _mean_loss(values), -g_theta / Q, -vjp(g_xi) / Q


def nn_loss(theta_batch, xi_batch, ch_batch, w_batch, alpha: float,
            noise_linear: float) -> float:
    """Mean negated utility over the batch, by the kernel's value-only path;
    raw shares are projected first, as in nn_loss_and_grads."""
    return _score(_bind_drops(ch_batch, w_batch, False), theta_batch, xi_batch, alpha,
                  noise_linear, grads=False)


def nn_loss_and_grads(theta_batch, xi_batch, ch_batch, w_batch, alpha: float,
                      noise_linear: float):
    """Loss plus exact gradients wrt the network's raw outputs.

    One projection and one kernel call cover the whole batch. Returns
    (loss, dloss_dtheta (Q, L2), dloss_dxi (Q, K, L)); the share gradient
    is pulled back through the projection.
    """
    return _score(_bind_drops(ch_batch, w_batch, True), theta_batch, xi_batch, alpha,
                  noise_linear, grads=True)


class PlateauScheduler:
    """Validation-loss bookkeeping for LR decay and early stopping.

    Any strict improvement resets both patience counters. After
    ``lr_patience`` consecutive epochs without improvement the learning
    rate is multiplied by ``decay`` and that counter restarts; after
    ``stop_patience`` consecutive epochs without improvement ``update``
    signals stop.
    """

    def __init__(self, learning_rate: float, decay: float, lr_patience: int,
                 stop_patience: int):
        self.check(decay, lr_patience, stop_patience)
        self.learning_rate = learning_rate
        self.decay = decay
        self.lr_patience = lr_patience
        self.stop_patience = stop_patience
        self.best = np.inf
        self.lr_wait = 0
        self.stop_wait = 0

    @staticmethod
    def check(decay, lr_patience, stop_patience) -> None:
        """Patience values >= 1 and a decay in (0, 1); TrainOptions calls it too."""
        for name, patience in (("lr_patience", lr_patience), ("stop_patience", stop_patience)):
            if patience < 1:
                raise ConfigError(f"{name} must be >= 1, got {patience}")
        if not 0 < decay < 1:
            raise ConfigError(f"lr_decay must be in (0, 1), got {decay}")

    def update(self, val_loss: float):
        """Feed one epoch's validation loss; returns (improved, decayed, stop)."""
        if val_loss < self.best:
            self.best = val_loss
            self.lr_wait = 0
            self.stop_wait = 0
            return True, False, False
        self.lr_wait += 1
        self.stop_wait += 1
        decayed = False
        if self.lr_wait >= self.lr_patience:
            self.learning_rate *= self.decay
            self.lr_wait = 0
            decayed = True
        return False, decayed, self.stop_wait >= self.stop_patience


@dataclass(frozen=True)
class TrainOptions:
    alpha: float = 1.0
    learning_rate: float = 0.01
    batch_size: int = 20
    max_epochs: int = 200
    lr_decay: float = 0.33
    lr_patience: int = 10
    stop_patience: int = 40
    use_pca: bool = True
    hidden: tuple = MlpArch.hidden
    dropout_rate: float = MlpArch.dropout_rate
    seed: int = 0

    def __post_init__(self):
        check_fields(self, alpha=POSITIVE, learning_rate=POSITIVE, max_epochs=AT_LEAST_ONE,
                     batch_size=(lambda v: v >= 2, ">= 2 for batch statistics"),
                     seed=NON_NEGATIVE, **LAYER_RULES)
        PlateauScheduler.check(self.lr_decay, self.lr_patience, self.stop_patience)


@dataclass
class TrainResult:
    model: MlpModel
    pca: PcaModel | None
    history: list            # dict rows: epoch, train_loss, val_loss, learning_rate
    best_epoch: int
    best_val_loss: float


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, epoch]))


def train(train_samples, val_samples, noise_linear: float,
          options: TrainOptions | None = None) -> TrainResult:
    """Fit the network on channel drops; returns the best-validation model.

    Dimensionality reduction (when enabled) is fit on the training split
    only. Every random draw (init, epoch shuffles, dropout) derives from
    options.seed, so identical inputs give bit-identical results. The
    history records the learning rate in effect during each epoch; decays
    apply from the following epoch. Trailing batches of a single sample
    are dropped because batch normalization needs two rows.

    The network trains in float32: the initialised model and the features
    are cast once, and the forward and backward passes and Adam run in
    float32, while the loss and its gradients stay float64. The returned
    model is float32. At its peak training holds four parameter-sized
    float32 vectors (the parameters, the two Adam moments and the
    best-state copy), the gradient of one weight matrix, since Adam takes
    each tensor's gradient as the backward pass finishes it, and each
    split's stacked kernel inputs.

    Those inputs are bound once per run: each split's channels and beams
    are stacked, and the training split's binding also holds B = w h_rb^T
    and the direct part D, so a batch gathers its rows by index instead of
    restacking and rebinding its drops. A batch is scored by the loss body
    that ``nn_loss_and_grads`` runs, the validation split by the one
    ``nn_loss`` runs, with the same bits.
    """
    opts = options or TrainOptions()
    if len(train_samples) < 2 or not val_samples:
        raise ValueError("need at least 2 training samples and 1 validation sample")
    ch_train = [s.channels for s in train_samples]
    ch_val = [s.channels for s in val_samples]

    # the raw features are rebound to their projection, so they are freed once projected
    z_train = feature_matrix(ch_train)
    z_val = feature_matrix(ch_val)
    pca = None
    if opts.use_pca:
        pca = pca_fit(z_train)
        z_train = pca_transform(pca, z_train)
        z_val = pca_transform(pca, z_val)
    z_train = z_train.astype(np.float32)
    z_val = z_val.astype(np.float32)

    arch = MlpArch(input_dim=z_train.shape[1], phase_dim=ch_train[0].num_elements,
                   alloc_users=ch_train[0].num_users, alloc_cols=ch_train[0].side,
                   hidden=opts.hidden, dropout_rate=opts.dropout_rate)
    (init_seed,) = np.random.SeedSequence(opts.seed).generate_state(1, dtype=np.uint64)
    model = init_model(arch, seed=int(init_seed))
    # the one place that picks the training precision; the rebinding frees
    # the float64 model
    model = MlpModel(arch, model.params.astype(np.float32),
                     [m.astype(np.float32) for m in model.bn_mean],
                     [v.astype(np.float32) for v in model.bn_var])
    adam = init_adam(model, opts.learning_rate)
    sched = PlateauScheduler(opts.learning_rate, opts.lr_decay,
                             opts.lr_patience, opts.stop_patience)

    # each split's kernel inputs are stacked and bound once per run, and a
    # batch gathers its rows from them
    bound_train = _bind_drops(ch_train, [s.w for s in train_samples], True)
    bound_val = _bind_drops(ch_val, [s.w for s in val_samples], False)

    # one best-state buffer for the whole run, refreshed in place on each improvement
    best_state = MlpModel(arch, model.params.copy(), [m.copy() for m in model.bn_mean],
                          [v.copy() for v in model.bn_var])
    best_epoch = -1
    history = []
    n = len(train_samples)

    for epoch in range(opts.max_epochs):
        order = _epoch_rng(opts.seed, epoch).permutation(n)
        adam.learning_rate = sched.learning_rate
        batch_losses = []
        for b, start in enumerate(range(0, n, opts.batch_size)):
            idx = order[start:start + opts.batch_size]
            if idx.size < 2:
                continue
            drop_seed = np.random.SeedSequence([opts.seed, epoch, b])
            theta_b, xi_b, cache = mlp_forward(model, z_train[idx], train_mode=True,
                                               dropout_seed=drop_seed)
            loss, d_theta, d_xi = _score(bound_train.take(idx), theta_b, xi_b, opts.alpha,
                                         noise_linear, grads=True)
            # Adam updates each tensor as soon as its gradient is final, so no
            # parameter-sized gradient is ever held
            adam_step(model, backward_pieces(model, cache, d_theta, d_xi), adam)
            batch_losses.append(loss)

        theta_v, xi_v, _ = mlp_forward(model, z_val, train_mode=False)
        val_loss = _score(bound_val, theta_v, xi_v, opts.alpha, noise_linear, grads=False)
        history.append({"epoch": epoch, "train_loss": float(np.mean(batch_losses)),
                        "val_loss": val_loss, "learning_rate": adam.learning_rate})
        improved, _, stop = sched.update(val_loss)
        if improved:
            for dst, src in zip([best_state.params, *best_state.bn_mean, *best_state.bn_var],
                                [model.params, *model.bn_mean, *model.bn_var]):
                np.copyto(dst, src)
            best_epoch = epoch
        if stop:
            break

    return TrainResult(best_state, pca, history, best_epoch, sched.best)
