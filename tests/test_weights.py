"""Weight functions and direction-dependent order functions."""

import numpy as np
import pytest

from feynlab.errors import DimensionError
from feynlab.weights import Cone, IsoWeight, OrderFunction, SplitWeight


def test_order_function_base_off_the_cone_and_dip_at_the_axis():
    order = OrderFunction(4, 1.2, (Cone((0, 1, 0, 0), -0.5, 0.15, 0.4),))
    # constant away from the dip cone: directions orthogonal to the axis
    far = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(order(far), 1.2)
    # exact dip value on the axis itself
    pole = np.array([[0.0], [1.0], [0.0], [0.0]])
    assert order(pole) == pytest.approx(np.array([0.7]))


def test_weights_reject_bad_dimensions():
    with pytest.raises(DimensionError):
        IsoWeight(2, 1.0)(np.zeros((1, 8)))  # frequencies stacked for dim 1
    with pytest.raises(DimensionError):
        SplitWeight(1, 1, 0.5, 0.5)  # split needs d < dim
