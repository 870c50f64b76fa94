"""Weight functions and the direction-dependent order of the cone weight."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from feynlab.errors import DimensionError
from feynlab.orders import _C_ANGLES, _K_ANGLES, _OFF_CONE_FLOOR
from feynlab.weights import ConeWeight, IsoWeight, SplitWeight, bracket, smooth_step


def test_order_function_base_off_the_cone_and_dip_at_the_axis():
    # a dip of 0.5 about one axis of R^4; the cone weight's axis is +e0, so
    # the coordinates are listed with that axis first
    order = ConeWeight(4, 1.2, 0.7, 0.15, 0.4).order
    # constant away from the dip cone: directions orthogonal to the axis
    far = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(order(far), 1.2)
    # exact dip value on the axis itself
    pole = np.array([[1.0], [0.0], [0.0], [0.0]])
    assert order(pole) == pytest.approx(np.array([0.7]))


def test_weights_reject_bad_dimensions():
    with pytest.raises(DimensionError):
        IsoWeight(2, 1.0)(np.zeros((1, 8)))  # frequencies stacked for dim 1
    with pytest.raises(DimensionError):
        SplitWeight(1, 1, 0.5, 0.5)  # split needs d < dim
    with pytest.raises(DimensionError):
        ConeWeight(3, 0.6, 1.4, 0.3, 0.7)(np.zeros((2, 8)))
    with pytest.raises(ValueError):
        ConeWeight(2, 0.6, 1.4, 0.7, 0.3)  # need inner < outer


def folded_cone_order(dim, base, peak, inner, outer, xi):
    """The order of the generic form the cone weight replaces: a base order
    plus one conical bump of height peak - base about a unit axis (here e0),
    the angle read off the axis's dot product with the unit direction."""
    norms = np.sqrt(np.sum(xi**2, axis=0))
    out = np.full(norms.shape, base, dtype=float)
    unit = xi / np.where(norms == 0.0, 1.0, norms)
    axis = np.eye(dim)[0]
    ang = np.arccos(np.clip(np.einsum("i,i...->...", axis, unit), -1.0, 1.0))
    out = out + (peak - base) * smooth_step((ang - inner) / (outer - inner))
    return np.where(norms == 0.0, base, out)


_ORDERS = st.floats(-3.0, 3.0, allow_nan=False)
_RADII = st.floats(1e-3, 1e4, allow_nan=False)


@st.composite
def _column(draw, dim, angles):
    """One frequency: a generic point, zero, a multiple of +-e0, or a point at
    one of the sweep's cone angles, rounded as the sweep's probes are."""
    kind = draw(st.sampled_from(["any", "zero", "axis", "angle"]))
    if kind == "any":
        return np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim)))
    if kind == "zero":
        return np.zeros(dim)
    e0 = np.eye(dim)[0]
    if kind == "axis" or dim == 1:
        return draw(st.sampled_from([1.0, -1.0])) * draw(_RADII) * e0
    theta = draw(st.sampled_from(angles))
    d = np.cos(theta) * e0 + np.sin(theta) * np.eye(dim)[1]
    return np.round(d * draw(_RADII), 9)


@given(st.data())
def test_cone_weight_matches_the_folded_cone_formula(data):
    dim = data.draw(st.integers(1, 4))
    inner, outer = data.draw(st.sampled_from([_K_ANGLES, _C_ANGLES, (0.3, 0.7)]))
    base = data.draw(st.sampled_from([_OFF_CONE_FLOOR]) | _ORDERS)
    peak = data.draw(_ORDERS)
    angles = [0.0, np.pi, *_K_ANGLES, *_C_ANGLES]
    cols = data.draw(st.lists(_column(dim, angles), min_size=1, max_size=12))
    xi = np.array(cols).T
    w = ConeWeight(dim, base, peak, inner, outer)
    want = folded_cone_order(dim, base, peak, inner, outer, xi)
    assert np.array_equal(w.order(xi), want)
    assert np.array_equal(w(xi), bracket(xi) ** want)
