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

from .allocation import _project_columns, project_feasible_with_vjp
from .config import AT_LEAST_ONE, NON_NEGATIVE, POSITIVE, ConfigError, check_fields
from .features import PcaModel, feature_matrix, pca_fit, pca_transform
from .metrics import _objective
from .mlp import (LAYER_RULES, MlpArch, MlpModel, adam_step, init_adam, init_model, mlp_backward,
                  mlp_forward)


def _batch(theta_batch, xi_batch, ch_batch, w_batch):
    """Raw shares (Q, K, L), then the kernel inputs stacked over the batch;
    theta_batch is (Q, L2), xi_batch (Q, K, L)."""
    theta_batch = np.asarray(theta_batch, dtype=float)
    xi_batch = np.asarray(xi_batch, dtype=float)
    Q = len(ch_batch)
    if not (theta_batch.shape[0] == xi_batch.shape[0] == Q == len(w_batch)):
        raise ValueError("batch sizes disagree")
    return (xi_batch, np.stack([c.g_ris for c in ch_batch]), np.stack([c.h_rb for c in ch_batch]),
            np.stack([c.h_direct for c in ch_batch]), np.stack(w_batch),
            theta_batch)


def _mean_loss(values) -> float:
    """Negated mean utility, accumulated sample by sample in batch order."""
    loss = 0.0
    for v in values:
        loss -= v / len(values)
    return float(loss)


def nn_loss(theta_batch, xi_batch, ch_batch, w_batch, alpha: float,
            noise_linear: float) -> float:
    """Mean negated utility over the batch, by the kernel's value-only path;
    raw shares are projected first, as in nn_loss_and_grads."""
    xi, *inputs = _batch(theta_batch, xi_batch, ch_batch, w_batch)
    proj, _, _ = _project_columns(xi)
    return _mean_loss(_objective(*inputs, proj, noise_linear, alpha))


def nn_loss_and_grads(theta_batch, xi_batch, ch_batch, w_batch, alpha: float,
                      noise_linear: float):
    """Loss plus exact gradients wrt the network's raw outputs.

    One projection and one kernel call cover the whole batch. Returns
    (loss, dloss_dtheta (Q, L2), dloss_dxi (Q, K, L)); the share gradient
    is pulled back through the projection.
    """
    xi, *inputs = _batch(theta_batch, xi_batch, ch_batch, w_batch)
    proj, vjp = project_feasible_with_vjp(xi)
    values, g_theta, g_xi = _objective(*inputs, proj, noise_linear, alpha, grads=True)
    Q = len(values)
    return _mean_loss(values), -g_theta / Q, -vjp(g_xi) / Q


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
    """
    opts = options or TrainOptions()
    if len(train_samples) < 2 or not val_samples:
        raise ValueError("need at least 2 training samples and 1 validation sample")
    ch_train = [s.channels for s in train_samples]
    ch_val = [s.channels for s in val_samples]

    feats_train = feature_matrix(ch_train)
    feats_val = feature_matrix(ch_val)
    if opts.use_pca:
        pca = pca_fit(feats_train)
        z_train = pca_transform(pca, feats_train)
        z_val = pca_transform(pca, feats_val)
    else:
        pca = None
        z_train = feats_train
        z_val = feats_val

    arch = MlpArch(input_dim=z_train.shape[1], phase_dim=ch_train[0].num_elements,
                   alloc_users=ch_train[0].num_users, alloc_cols=ch_train[0].side,
                   hidden=opts.hidden, dropout_rate=opts.dropout_rate)
    (init_seed,) = np.random.SeedSequence(opts.seed).generate_state(1, dtype=np.uint64)
    model = init_model(arch, seed=int(init_seed))
    adam = init_adam(model, opts.learning_rate)
    sched = PlateauScheduler(opts.learning_rate, opts.lr_decay,
                             opts.lr_patience, opts.stop_patience)

    w_train = [s.w for s in train_samples]
    w_val = [s.w for s in val_samples]

    def snapshot() -> MlpModel:
        return MlpModel(arch, model.params.copy(), [m.copy() for m in model.bn_mean],
                        [v.copy() for v in model.bn_var])

    best_state = snapshot()
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
            loss, d_theta, d_xi = nn_loss_and_grads(
                theta_b, xi_b, [ch_train[i] for i in idx], [w_train[i] for i in idx],
                opts.alpha, noise_linear)
            grad = mlp_backward(model, cache, d_theta, d_xi)
            adam_step(model, grad, adam)
            batch_losses.append(loss)

        theta_v, xi_v, _ = mlp_forward(model, z_val, train_mode=False)
        val_loss = nn_loss(theta_v, xi_v, ch_val, w_val, opts.alpha, noise_linear)
        history.append({"epoch": epoch, "train_loss": float(np.mean(batch_losses)),
                        "val_loss": val_loss, "learning_rate": adam.learning_rate})
        improved, _, stop = sched.update(val_loss)
        if improved:
            best_state = snapshot()
            best_epoch = epoch
        if stop:
            break

    return TrainResult(best_state, pca, history, best_epoch, sched.best)
