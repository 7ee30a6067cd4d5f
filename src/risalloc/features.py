"""CSI flattening and correlation-based principal component reduction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet

# retain eigenvalues > 1; the guard keeps exactly-unit eigenvalues from
# degenerate constructions from flipping on last-bit rounding
KAISER_TIE_GUARD = 1e-9


def flatten_features(ch: ChannelSet) -> np.ndarray:
    """Real feature vector: [Re, Im] of h_direct, then g_ris, then h_rb,
    each flattened row-major."""
    parts = []
    for m in (ch.h_direct, ch.g_ris, ch.h_rb):
        parts.append(np.real(m).ravel())
        parts.append(np.imag(m).ravel())
    return np.concatenate(parts)


def feature_matrix(channel_sets) -> np.ndarray:
    """Stack per-drop feature vectors into an (n, D) design matrix."""
    return np.stack([flatten_features(ch) for ch in channel_sets])


@dataclass
class PcaModel:
    """Standardization constants plus the retained component axes.

    axes is (D, D_T) with orthonormal columns ordered by decreasing
    eigenvalue; eigenvalues holds the full descending spectrum of the
    feature correlation matrix, exactly zero past its first n entries.
    """

    feature_mean: np.ndarray
    feature_scale: np.ndarray
    axes: np.ndarray
    eigenvalues: np.ndarray

    @property
    def retained(self) -> int:
        return int(self.axes.shape[1])

    @property
    def input_dim(self) -> int:
        return int(self.axes.shape[0])


def pca_fit(features: np.ndarray) -> PcaModel:
    """Fit components on standardized features; keep eigenvalues above 1.

    Standardization uses the sample statistics (ddof=1), so transformed
    component variances equal the eigenvalues exactly. Zero-variance
    columns get unit scale. At least one component is always retained.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need a 2-D matrix with at least two rows")
    n = X.shape[0]
    mean = X.mean(axis=0)
    scale = X.std(axis=0, ddof=1)
    scale = np.where(scale == 0.0, 1.0, scale)
    # ((X - mean) / scale) / sqrt(n - 1), standardized in one buffer
    Z = X - mean
    Z /= scale
    Z /= np.sqrt(n - 1)
    # eigenpairs of the correlation Z'Z without forming it: the squared
    # singular values of Z, descending, and its right singular vectors
    _, s, vt = np.linalg.svd(Z, full_matrices=False)
    evals = np.pad(s * s, (0, X.shape[1] - s.size))  # rank <= min(n - 1, D)
    keep = max(1, int(np.sum(evals > 1.0 + KAISER_TIE_GUARD)))
    # copy the kept rows so the model does not hold the whole factor alive
    return PcaModel(mean, scale, vt[:keep].copy().T, evals)


def pca_transform(model: PcaModel, features: np.ndarray) -> np.ndarray:
    """Project standardized features onto the retained axes.

    Accepts a single (D,) vector, an (n, D) matrix, or an (n, 1, D) stack
    of one-row matrices, whose every product is one row's, with that row's
    bits alone.
    """
    x = np.asarray(features, dtype=float)
    if x.shape[-1] != model.input_dim:
        raise ValueError(f"expected {model.input_dim} features, got {x.shape[-1]}")
    return ((x - model.feature_mean) / model.feature_scale) @ model.axes
