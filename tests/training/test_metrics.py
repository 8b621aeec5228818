"""Classification accuracy."""

import numpy as np
import pytest

from repro.training.metrics import accuracy


class TestAccuracy:
    def test_perfect(self):
        assert accuracy(np.array([0, 1, 2]), np.array([0, 1, 2])) == 1.0

    def test_half(self):
        assert accuracy(np.array([0, 1]), np.array([0, 0])) == 0.5

    def test_empty(self):
        assert accuracy(np.array([]), np.array([])) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.array([0]), np.array([0, 1]))
