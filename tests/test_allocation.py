import numpy as np
import pytest

import oracles
from risalloc import (ConfigError, binarize, mrt_beamformers, project_feasible,
                      project_feasible_with_vjp, uniform_contiguous)
from risalloc.allocation import _simplex_columns


def test_projection_frozen_examples():
    out = project_feasible(np.array([[0.8], [0.8]]))
    assert np.allclose(out.xi, [[0.5], [0.5]])
    out = project_feasible(np.array([[-1.0], [2.0]]))
    assert np.allclose(out.xi, [[0.0], [1.0]])
    out = project_feasible(np.array([[0.3], [0.2]]))
    assert np.allclose(out.xi, [[0.3], [0.2]])


def test_projection_feasible_and_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(30):
        raw = rng.normal(0, 1.5, size=(3, 4))
        out = project_feasible(raw)
        out.validate()
        assert np.all(out.xi >= -1e-12)
        assert np.all(out.xi.sum(axis=0) <= 1 + 1e-9)
        again = project_feasible(out.xi)
        assert np.allclose(again.xi, out.xi, atol=1e-12)


def test_projection_is_closest_point():
    # check optimality against a dense grid over the 2-user feasible set
    raw = np.array([[0.9], [0.4]])
    best = project_feasible(raw).xi[:, 0]
    grid = np.linspace(0, 1, 201)
    d_best = np.sum((best - raw[:, 0]) ** 2)
    for a in grid:
        for b in grid:
            if a + b <= 1.0:
                d = (a - raw[0, 0]) ** 2 + (b - raw[1, 0]) ** 2
                assert d >= d_best - 1e-9


def test_projection_vjp_matches_finite_difference():
    rng = np.random.default_rng(1)
    for trial in range(10):
        raw = rng.normal(0, 1.2, size=(3, 3))
        proj, vjp = project_feasible_with_vjp(raw)
        up = rng.normal(size=(3, 3))
        grad = vjp(up)
        eps = 1e-7
        for idx in [(0, 0), (1, 2), (2, 1)]:
            plus = raw.copy(); plus[idx] += eps
            minus = raw.copy(); minus[idx] -= eps
            fd = (np.sum(up * project_feasible_with_vjp(plus)[0])
                  - np.sum(up * project_feasible_with_vjp(minus)[0])) / (2 * eps)
            assert grad[idx] == pytest.approx(fd, abs=2e-6)


def test_binarize_rules():
    out = binarize(np.array([[0.7, 0.3, 0.6], [0.2, 0.3, 0.6]]))
    # clear argmax / below threshold / tie to the lowest index
    assert out.xi.tolist() == [[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
    assert np.all((out.xi == 0.0) | (out.xi == 1.0))
    out.validate()


def test_uniform_contiguous_patterns():
    a = uniform_contiguous(2, 4)
    assert a.xi.tolist() == [[1, 1, 0, 0], [0, 0, 1, 1]]
    b = uniform_contiguous(3, 4)
    assert b.xi.tolist() == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    c = uniform_contiguous(1, 4)
    assert c.xi.tolist() == [[1, 1, 1, 1]]
    for out in (a, b, c):
        assert np.all((out.xi == 0.0) | (out.xi == 1.0))
    with pytest.raises(ConfigError, match="uniform.*K = 5.*L = 4"):
        uniform_contiguous(5, 4)


def test_mrt_norm_and_invariance():
    ch = oracles.toy_channels(num_users=3, num_antennas=4, seed=2)
    w = mrt_beamformers(ch, 3.16).w
    for k in range(3):
        assert np.linalg.norm(w[k]) ** 2 == pytest.approx(3.16 / 3, rel=1e-9)
    scaled = oracles.toy_channels(num_users=3, num_antennas=4, seed=2)
    scaled.h_direct *= 7.5
    w2 = mrt_beamformers(scaled, 3.16).w
    assert np.allclose(w, w2)


def test_mrt_single_antenna():
    ch = oracles.toy_channels(num_users=2, num_antennas=1, seed=3)
    w = mrt_beamformers(ch, 2.0).w
    assert w.shape == (2, 1)
    assert abs(w[0, 0]) == pytest.approx(np.sqrt(1.0))


def test_mrt_rejects_zero_row():
    ch = oracles.toy_channels(num_users=2, seed=4)
    ch.h_direct[1] = 0.0
    with pytest.raises(ValueError):
        mrt_beamformers(ch, 1.0)


def test_mrt_aligns_with_conjugate():
    ch = oracles.toy_channels(num_users=1, num_antennas=3, seed=5)
    w = mrt_beamformers(ch, 1.0).w
    h = ch.h_direct[0]
    # w proportional to conj(h): h.w is real positive and maximal
    inner = np.dot(h, w[0])
    assert abs(inner.imag) < 1e-12
    assert inner.real > 0


def _same_bits(got, want):
    return all(g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
               for g, w in zip(got, want))


@pytest.mark.parametrize("raw", [
    np.array([[0.5, 0.7, 0.4], [0.5, 0.7, 0.4], [0.5, -1.0, 0.4]]),   # ties
    np.array([[0.3, 0.0, 1.0], [0.2, 1.0, 0.0]]),                    # already feasible
    np.array([[-1.0, -0.5, 2.0], [-2.0, 3.0, -0.1]]),                # negative entries
    np.random.default_rng(5).normal(0.3, 1.5, size=(4, 6)),
])
def test_vectorised_projection_matches_per_column_reference(raw):
    proj, on_simplex = _simplex_columns(raw)
    assert _same_bits((proj, on_simplex, proj > 0.0), oracles.project_columns(raw))


def test_stacked_projection_matches_per_sample_reference():
    stack = np.random.default_rng(6).normal(0.4, 1.0, size=(7, 3, 4))
    proj, on_simplex = _simplex_columns(stack)
    active = proj > 0.0
    for q in range(stack.shape[0]):
        assert _same_bits((proj[q], on_simplex[q], active[q]), oracles.project_columns(stack[q]))
