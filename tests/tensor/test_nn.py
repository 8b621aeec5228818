"""Module system: parameter discovery, Linear, state dicts."""

import numpy as np
import pytest

from repro.tensor import nn
from repro.tensor.tensor import Tensor
from references import gradcheck
import user_modules


class TestParameterDiscovery:
    def test_linear_has_weight_and_bias(self):
        layer = nn.Linear(3, 4)
        names = dict(layer.named_parameters())
        assert set(names) == {"weight", "bias"}

    def test_no_bias(self):
        layer = nn.Linear(3, 4, bias=False)
        assert set(dict(layer.named_parameters())) == {"weight"}

    def test_nested_modules(self):
        class Net(nn.Module):
            def __init__(self):
                super().__init__()
                self.fc1 = nn.Linear(2, 3)
                self.fc2 = nn.Linear(3, 1)

        names = set(dict(Net().named_parameters()))
        assert names == {"fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"}

    def test_modules_in_lists(self):
        class Net(nn.Module):
            def __init__(self):
                super().__init__()
                self.layers = [nn.Linear(2, 2), nn.Linear(2, 2)]

        assert len(Net().parameters()) == 4

    def test_parameters_in_lists(self):
        class Net(nn.Module):
            def __init__(self):
                super().__init__()
                self.extras = [nn.Parameter(np.zeros(2))]

        names = dict(Net().named_parameters())
        assert "extras.0" in names

    def test_zero_grad(self):
        layer = nn.Linear(2, 2)
        out = layer(Tensor(np.ones((1, 2))))
        out.sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestLinear:
    def test_forward_shape(self):
        layer = nn.Linear(5, 3)
        out = layer(Tensor(np.ones((7, 5))))
        assert out.shape == (7, 3)

    def test_forward_matches_manual(self):
        layer = nn.Linear(4, 2, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((3, 4)).astype(np.float32)
        expected = x @ layer.weight.data + layer.bias.data
        assert np.allclose(layer(Tensor(x)).data, expected, atol=1e-6)

    def test_gradcheck(self):
        layer = nn.Linear(3, 2, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).standard_normal((4, 3)))
        assert gradcheck(
            lambda w, b: (x @ w + b).relu().sum(), [layer.weight, layer.bias]
        )

    def test_flops(self):
        layer = nn.Linear(10, 20)
        assert layer.flops(5) == 2 * 5 * 10 * 20 + 5 * 20
        assert nn.Linear(10, 20, bias=False).flops(5) == 2 * 5 * 10 * 20

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            nn.Linear(0, 3)


class TestStateDict:
    def test_roundtrip(self):
        a = nn.Linear(3, 2, rng=np.random.default_rng(0))
        b = nn.Linear(3, 2, rng=np.random.default_rng(9))
        b.load_state_dict(a.state_dict())
        assert np.allclose(a.weight.data, b.weight.data)

    def test_state_dict_is_a_copy(self):
        layer = nn.Linear(2, 2)
        state = layer.state_dict()
        state["weight"][:] = 99.0
        assert not np.allclose(layer.weight.data, 99.0)

    def test_missing_key_raises(self):
        layer = nn.Linear(2, 2)
        state = layer.state_dict()
        del state["bias"]
        with pytest.raises(KeyError, match="missing"):
            layer.load_state_dict(state)

    def test_unexpected_key_raises(self):
        layer = nn.Linear(2, 2)
        state = layer.state_dict()
        state["bogus"] = np.zeros(1)
        with pytest.raises(KeyError, match="unexpected"):
            layer.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        layer = nn.Linear(2, 2)
        state = layer.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError, match="shape mismatch"):
            layer.load_state_dict(state)

    def test_dtype_mismatch_raises(self):
        layer = nn.Linear(2, 2)
        weight = layer.weight.data.copy()
        state = {name: value + 1.0 for name, value in layer.state_dict().items()}
        state["bias"] = state["bias"].astype(np.float64)
        with pytest.raises(
            ValueError,
            match="^bias: checkpoint has float64, parameter is float32$",
        ):
            layer.load_state_dict(state)
        # Nothing is loaded, not even the parameters checked before bias.
        assert layer.bias.data.dtype == np.float32
        np.testing.assert_array_equal(layer.weight.data, weight)


class TestTrainEval:
    def test_train_flag_propagates(self):
        seq = user_modules.Sequential(nn.Linear(2, 2), nn.Dropout(0.5), user_modules.ReLU())
        seq.train(False)
        assert not seq.layers[1].training
        seq.train()
        assert seq.layers[1].training

    def test_dropout_eval_is_identity(self):
        drop = nn.Dropout(0.9)
        drop.train(False)
        x = Tensor(np.ones((4, 4)))
        assert np.allclose(drop(x).data, 1.0)

    def test_sequential_forward_and_indexing(self):
        seq = user_modules.Sequential(nn.Linear(3, 5), user_modules.ReLU(), nn.Linear(5, 2))
        assert len(seq) == 3
        assert isinstance(seq[0], nn.Linear)
        out = seq(Tensor(np.ones((2, 3))))
        assert out.shape == (2, 2)
