"""Checkpoint save/load round trips (model and optimizer state)."""

import numpy as np
import pytest

from repro.core.model import GNNModel
from repro.engines import make_engine
from repro.tensor.optim import Adam
from repro.training.checkpoint import load_checkpoint, save_checkpoint
from repro.training.trainer import DistributedTrainer
from references import SGD


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        a = GNNModel.gcn(8, 16, 3, seed=1)
        b = GNNModel.gcn(8, 16, 3, seed=2)
        path = save_checkpoint(a, tmp_path / "model", epoch=7)
        meta = load_checkpoint(b, path)
        assert meta == {"epoch": 7}
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_npz_suffix_added(self, tmp_path):
        model = GNNModel.gcn(4, 4, 2)
        path = save_checkpoint(model, tmp_path / "ckpt")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_metadata_types(self, tmp_path):
        model = GNNModel.gat(4, 4, 2)
        path = save_checkpoint(
            model, tmp_path / "m", dataset="reddit", accuracy=0.93, tags=[1, 2]
        )
        meta = load_checkpoint(GNNModel.gat(4, 4, 2), path)
        assert meta["dataset"] == "reddit"
        assert meta["accuracy"] == pytest.approx(0.93)
        assert meta["tags"] == [1, 2]

    def test_architecture_mismatch_rejected(self, tmp_path):
        path = save_checkpoint(GNNModel.gcn(8, 16, 3), tmp_path / "m")
        with pytest.raises((KeyError, ValueError)):
            load_checkpoint(GNNModel.gcn(8, 32, 3), path)

    def test_no_metadata(self, tmp_path):
        model = GNNModel.build("gin", 4, 4, 2, seed=3)
        path = save_checkpoint(model, tmp_path / "m")
        meta = load_checkpoint(GNNModel.build("gin", 4, 4, 2, seed=4), path)
        assert meta == {}


def _take_steps(model, optimizer, steps=3, seed=0):
    """Drive the optimizer with synthetic gradients to build up state."""
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        for p in model.parameters():
            p.grad = rng.standard_normal(p.data.shape).astype(p.data.dtype)
        optimizer.step()
        optimizer.zero_grad()


class TestOptimizerCheckpoint:
    """Optimizer state round-trips in memory (the resilient trainer's
    snapshots); a checkpoint file holds the model only."""

    def test_adam_state_roundtrip(self):
        model = GNNModel.gcn(8, 16, 3, seed=1)
        opt = Adam(model.parameters(), lr=0.01)
        _take_steps(model, opt)

        model2 = GNNModel.gcn(8, 16, 3, seed=2)
        opt2 = Adam(model2.parameters(), lr=0.01)
        opt2.load_state_dict(opt.state_dict())
        assert opt2._step_count == opt._step_count
        for m_a, m_b in zip(opt._m, opt2._m):
            np.testing.assert_array_equal(m_a, m_b)
        for v_a, v_b in zip(opt._v, opt2._v):
            np.testing.assert_array_equal(v_a, v_b)

    def test_optimizer_dtype_mismatch_rejected(self):
        model = GNNModel.gcn(8, 16, 3, seed=1)
        opt = Adam(model.parameters(), lr=0.01)
        _take_steps(model, opt)
        state = opt.state_dict()
        state["arrays"]["v_1"] = state["arrays"]["v_1"].astype(np.float64)
        opt2 = Adam(GNNModel.gcn(8, 16, 3, seed=2).parameters(), lr=0.01)
        with pytest.raises(
            ValueError,
            match="^optimizer state 'v_1': checkpoint has float64, "
            "parameter is float32$",
        ):
            opt2.load_state_dict(state)
        # Nothing is loaded, not even the moments checked before v_1.
        assert opt2._step_count == 0
        assert all(not m.any() for m in opt2._m)

    def test_optimizer_kind_mismatch_rejected(self):
        model = GNNModel.gcn(8, 16, 3, seed=1)
        opt = Adam(model.parameters())
        _take_steps(model, opt)
        sgd = SGD(GNNModel.gcn(8, 16, 3).parameters(), lr=0.1)
        with pytest.raises(ValueError, match="kind mismatch"):
            sgd.load_state_dict(opt.state_dict())


class TestResumeRegression:
    def test_resumed_training_matches_uninterrupted(
        self, small_graph, cluster2, tmp_path
    ):
        """Save at epoch 3, resume elsewhere, match the 6-epoch run."""

        def fresh_engine(seed):
            model = GNNModel.build(
                "gcn", small_graph.feature_dim, 12,
                small_graph.num_classes, seed=seed,
            )
            return make_engine("depcomm", small_graph, model, cluster2)

        clean_engine = fresh_engine(seed=1)
        clean = DistributedTrainer(clean_engine, lr=0.05)
        clean.train(6)

        first_engine = fresh_engine(seed=1)
        first = DistributedTrainer(first_engine, lr=0.05)
        first.train(3)
        path = save_checkpoint(first_engine.model, tmp_path / "mid", epoch=3)

        resumed_engine = fresh_engine(seed=99)  # different init weights
        resumed = DistributedTrainer(resumed_engine, lr=0.05)
        meta = load_checkpoint(resumed_engine.model, path)
        resumed.optimizer.load_state_dict(first.optimizer.state_dict())
        assert meta["epoch"] == 3
        resumed.train(3)

        for got, want in zip(
            resumed_engine.model.parameters(), clean_engine.model.parameters()
        ):
            np.testing.assert_array_equal(got.data, want.data)
