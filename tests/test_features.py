import numpy as np
import pytest

import oracles
from risalloc import ChannelSet, feature_matrix, flatten_features, pca_fit, pca_transform


def test_feature_dimension_formula():
    def width(K, N, L2):
        return flatten_features(ChannelSet(
            np.zeros((K, N), complex), np.zeros((K, L2), complex), np.zeros((L2, N), complex),
            np.ones((K, 2), bool), np.zeros((K, 2), bool), False)).size

    assert width(3, 4, 400) == 5624   # 2*(12 + 1200 + 1600)
    assert width(2, 2, 4) == 2 * (4 + 8 + 8)
    assert width(3, 4, 64) == 920


def test_flatten_order_and_blocks():
    K, N, L2 = 2, 2, 4
    ch = ChannelSet(
        h_direct=np.full((K, N), 1.0 + 2.0j),
        g_ris=np.full((K, L2), 3.0 + 4.0j),
        h_rb=np.full((L2, N), 5.0 + 6.0j),
        los_flags=np.ones((K, 2), bool),
        clamped=np.zeros((K, 2), bool),
        bs_ris_clamped=False)
    v = flatten_features(ch)
    assert v.shape == (2 * (K * N + K * L2 + L2 * N),)
    kn, kl, ln = K * N, K * L2, L2 * N
    assert np.all(v[:kn] == 1.0) and np.all(v[kn:2 * kn] == 2.0)
    assert np.all(v[2 * kn:2 * kn + kl] == 3.0)
    assert np.all(v[2 * kn + kl:2 * kn + 2 * kl] == 4.0)
    assert np.all(v[-2 * ln:-ln] == 5.0) and np.all(v[-ln:] == 6.0)


def test_flatten_zero_and_real_channels():
    ch = oracles.toy_channels(seed=0)
    ch.h_direct = np.real(ch.h_direct) + 0j
    ch.g_ris = np.real(ch.g_ris) + 0j
    ch.h_rb = np.real(ch.h_rb) + 0j
    v = flatten_features(ch)
    kn = 4
    assert np.all(v[kn:2 * kn] == 0.0)  # imaginary block of h_direct
    zero = ChannelSet(np.zeros((2, 2), complex), np.zeros((2, 4), complex),
                      np.zeros((4, 2), complex), np.ones((2, 2), bool),
                      np.zeros((2, 2), bool), False)
    assert np.all(flatten_features(zero) == 0.0)


def test_feature_matrix_stacks():
    chs = [oracles.toy_channels(seed=s) for s in range(3)]
    X = feature_matrix(chs)
    assert X.shape == (3, 2 * (2 * 2 + 2 * 4 + 4 * 2))
    assert np.allclose(X[1], flatten_features(chs[1]))


def _orthogonal_columns(n, m, seed):
    """Centered columns with exactly zero pairwise sample correlation."""
    rng = np.random.default_rng(seed)
    cols = []
    for _ in range(m):
        v = rng.normal(size=n)
        v -= v.mean()
        for u in cols:
            v -= (v @ u) / (u @ u) * u
            v -= v.mean()
        cols.append(v)
    return [c / c.std(ddof=1) for c in cols]


def test_pca_two_perfectly_correlated_features():
    f = _orthogonal_columns(40, 1, seed=1)[0]
    X = np.column_stack([f, f])
    model = pca_fit(X)
    assert model.retained == 1
    assert model.eigenvalues[0] == pytest.approx(2.0, abs=1e-9)
    assert model.eigenvalues[1] == pytest.approx(0.0, abs=1e-9)


def test_pca_kaiser_retention_on_mixed_features():
    f, g1, g2, g3 = _orthogonal_columns(60, 4, seed=2)
    X = np.column_stack([f, f, g1, g2, g3])
    model = pca_fit(X)
    # spectrum {2, 1, 1, 1, 0}: only the correlated pair crosses the bar
    assert np.allclose(np.sort(model.eigenvalues)[::-1], [2, 1, 1, 1, 0], atol=1e-9)
    assert model.retained == 1
    Z = pca_transform(model, X)
    assert Z.shape == (60, 1)
    assert np.var(Z[:, 0], ddof=1) == pytest.approx(2.0, rel=1e-6)


def test_pca_retention_floor():
    # all-independent features: nothing exceeds 1, one component is kept anyway
    g1, g2, g3 = _orthogonal_columns(50, 3, seed=3)
    model = pca_fit(np.column_stack([g1, g2, g3]))
    assert model.retained == 1


def test_pca_transform_geometry():
    X = np.random.default_rng(4).normal(size=(30, 5))
    X[:, 3] = X[:, 0] * 2.0 + 0.5   # inject correlation so retention > 0
    model = pca_fit(X)
    assert np.allclose(pca_transform(model, model.feature_mean), 0.0, atol=1e-12)
    x = model.feature_mean + model.feature_scale * model.axes[:, 0]
    z = pca_transform(model, x)
    expected = np.zeros(model.retained)
    expected[0] = 1.0
    assert np.allclose(z, expected, atol=1e-9)


def test_pca_reconstruction_in_retained_subspace():
    f, g1 = _orthogonal_columns(40, 2, seed=5)
    X = np.column_stack([f, f, g1 * 1e-3])  # third feature nearly constant but standardized
    model = pca_fit(X)
    x = model.feature_mean + model.feature_scale * (model.axes @ np.array([0.7] + [0.0] * (model.retained - 1)))
    z = pca_transform(model, x)
    recon = model.feature_mean + model.feature_scale * (model.axes @ z)
    assert np.allclose(recon, x, atol=1e-8)


def test_pca_transform_dimension_mismatch():
    X = np.random.default_rng(6).normal(size=(20, 4))
    model = pca_fit(X)
    with pytest.raises(ValueError):
        pca_transform(model, np.zeros(5))


def test_pca_requires_two_rows():
    with pytest.raises(ValueError):
        pca_fit(np.ones((1, 3)))


def test_pca_batch_and_single_row_agree():
    X = np.random.default_rng(7).normal(size=(25, 6))
    X[:, 1] = X[:, 0]
    model = pca_fit(X)
    batch = pca_transform(model, X)
    single = pca_transform(model, X[4])
    assert np.allclose(batch[4], single)
