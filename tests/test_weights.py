"""Weight functions and the direction-dependent order of the cone weight."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from feynlab.errors import DimensionError
from feynlab.orders import _C_ANGLES, _K_ANGLES, _OFF_CONE_FLOOR, _midpoint_lattice
from feynlab.weights import (
    ConeWeight,
    IsoWeight,
    SplitWeight,
    SumWeight,
    bracket,
    smooth_step,
)


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
        IsoWeight(2, 1.0)([np.zeros(8)])  # one per-axis array for dim 2
    with pytest.raises(DimensionError):
        SplitWeight(1, 1, 0.5, 0.5)  # split needs d < dim
    with pytest.raises(DimensionError):
        ConeWeight(3, 0.6, 1.4, 0.3, 0.7)(np.zeros((2, 8)))
    with pytest.raises(ValueError):
        ConeWeight(2, 0.6, 1.4, 0.7, 0.3)  # need inner < outer
    with pytest.raises(DimensionError, match=r"got \[\]"):
        SumWeight(())
    with pytest.raises(DimensionError, match=r"got \[2, 3\]"):
        SumWeight((IsoWeight(2, 1.0), IsoWeight(3, 1.0)))


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


def inline_bracket(xi):
    """<xi> with the squares summed by ``np.sum`` over the stacked axis."""
    return np.sqrt(1.0 + np.sum(xi**2, axis=0))


@st.composite
def _even_weights(draw):
    dim = draw(st.integers(1, 4))
    if dim == 1 or draw(st.booleans()):
        return IsoWeight(dim, draw(_ORDERS))
    d = draw(st.integers(1, dim - 1))
    return SplitWeight(dim, d, draw(_ORDERS), draw(_ORDERS))


def inline_weight(w, xi):
    if isinstance(w, IsoWeight):
        return inline_bracket(xi) ** w.s
    return inline_bracket(xi) ** w.m * inline_bracket(xi[w.d :]) ** w.a


_COORDS = st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3)


def _part(draw, dim):
    kind = draw(st.sampled_from(("iso", "cone", "split")[: 2 + (dim > 1)]))
    if kind == "iso":
        return IsoWeight(dim, draw(_ORDERS))
    if kind == "cone":
        inner, outer = draw(st.sampled_from([_K_ANGLES, _C_ANGLES]))
        return ConeWeight(dim, draw(_ORDERS), draw(_ORDERS), inner, outer)
    return SplitWeight(dim, draw(st.integers(1, dim - 1)), draw(_ORDERS), draw(_ORDERS))


@st.composite
def _weights(draw):
    """A weight of any of the four classes."""
    dim = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return SumWeight((_part(draw, dim), _part(draw, dim)))
    return _part(draw, dim)


@given(_weights(), st.data())
def test_per_axis_coordinates_give_the_stacked_calls_bits(w, data):
    # product_integral's lattice arguments: the sparse mesh of per-axis
    # offsets s_k - axis in place of the (dim, N^dim) stack s - pts
    dim = w.dim
    # at most 8 points an axis, 8^4 in all
    cutoff = data.draw(st.sampled_from([1.0, 1.5, 2.0]))
    axis, _ = _midpoint_lattice(dim, cutoff, data.draw(st.sampled_from([0.5, 0.7])))
    count = axis.size
    pts = np.stack([g.reshape(-1) for g in np.meshgrid(*[axis] * dim, indexing="ij")])
    if data.draw(st.booleans()):  # a lattice point
        s = pts[:, data.draw(st.integers(0, pts.shape[1] - 1))]
    else:
        s = np.array(data.draw(st.lists(_COORDS, min_size=dim, max_size=dim)))
    got = w(np.meshgrid(*[sk - axis for sk in s], indexing="ij", sparse=True))
    assert got.shape == (count,) * dim
    assert np.array_equal(got.reshape(-1), w(s[:, None] - pts))


@given(_even_weights(), st.data())
def test_call_and_bracket_match_the_inline_formula(w, data):
    dim = w.dim
    shape = data.draw(st.sampled_from([(), (5,), (1,), (3, 4), (1, 2)]))
    size = math.prod(shape)
    flat = data.draw(st.lists(_COORDS, min_size=dim * size, max_size=dim * size))
    xi = np.array(flat).reshape((dim,) + shape)
    assert np.array_equal(w(xi), inline_weight(w, xi))
    assert np.array_equal(bracket(xi), inline_bracket(xi))
