"""Property tests for the column projection, the rounding to a hard
assignment and the scenario range check, over inputs hypothesis draws."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import array_shapes, arrays  # noqa: E402

from risalloc import ConfigError, ScenarioConfig, binarize, deploy  # noqa: E402
from risalloc.allocation import _project_columns  # noqa: E402
from risalloc.channel import _check_distances, _link_geometry  # noqa: E402
from risalloc.config import MAX_DIST_2D  # noqa: E402

# the same examples on every run, and no example database written to disk
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)

_RAW = st.floats(-10.0, 10.0, allow_nan=False)
# shares with ties and the 0.5 boundary drawn often
_SHARES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0))


def _feasible(x):
    assert np.all(x >= 0.0) and np.all(x <= 1.0)
    assert np.all(x.sum(axis=-2) <= 1.0 + 1e-9)


@DETERMINISTIC
@given(st.data())
def test_projection_is_feasible_idempotent_and_nearest(data):
    x = data.draw(arrays(float, array_shapes(min_dims=2, max_dims=3, max_side=5), elements=_RAW))
    p, _, _ = _project_columns(x)
    _feasible(p)
    np.testing.assert_allclose(_project_columns(p)[0], p, rtol=0, atol=1e-12)
    # any feasible y lies on the far side of the plane through P(x) normal to x - P(x)
    u = data.draw(arrays(float, x.shape, elements=st.floats(0.0, 1.0)))
    y = u / np.maximum(u.sum(axis=-2, keepdims=True), 1.0)
    _feasible(y)
    assert np.all(((x - p) * (y - p)).sum(axis=-2) <= 1e-9)


@DETERMINISTIC
@given(arrays(float, array_shapes(min_dims=2, max_dims=2, max_side=5), elements=_SHARES))
def test_binarize_gives_each_column_to_its_first_argmax_at_half_or_more(xi):
    out = binarize(xi).xi
    assert np.all((out == 0.0) | (out == 1.0))
    assert np.all(out.sum(axis=0) <= 1.0)
    K, L = xi.shape
    for c in range(L):
        top = max(xi[:, c])
        winner = min(k for k in range(K) if xi[k, c] == top)
        expected = [float(k == winner and top >= 0.5) for k in range(K)]
        assert out[:, c].tolist() == expected


_COORD = st.floats(-6000.0, 6000.0, allow_nan=False)


@DETERMINISTIC
@given(area_side=st.floats(1.0, 8000.0), bs_xy=st.tuples(_COORD, _COORD),
       ris_xy=st.tuples(_COORD, _COORD), seed=st.integers(0, 2**32 - 1))
def test_accepted_scenarios_keep_every_link_in_the_pathloss_range(area_side, bs_xy, ris_xy, seed):
    bs, ris = (*bs_xy, 10.0), (*ris_xy, 10.0)
    corners = [(cx, cy) for cx in (0.0, area_side) for cy in (0.0, area_side)]
    reach = max([math.dist(bs_xy, ris_xy)]
                + [math.dist(p, c) for p in (bs_xy, ris_xy) for c in corners])
    try:
        config = ScenarioConfig(bs_position=bs, ris_position=ris, area_side=area_side,
                                n_bs_antennas=1, ris_side=1, num_ues=4)
    except ConfigError:
        assert reach > MAX_DIST_2D
        return
    assert reach <= MAX_DIST_2D
    links = [(bs, ris)] + [(end, ue) for ue in deploy(config, seed).ue_positions
                           for end in (bs, ris)]
    for a, b in links:
        d2d, d3d, _ = _link_geometry(a, b)
        _check_distances(d2d, d3d)
