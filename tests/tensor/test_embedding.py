"""Embedding lookup table."""

import numpy as np
import pytest

import user_modules


class TestEmbedding:
    def test_lookup_rows(self):
        emb = user_modules.Embedding(5, 3, rng=np.random.default_rng(0))
        out = emb(np.array([0, 4, 0]))
        assert out.shape == (3, 3)
        assert np.allclose(out.data[0], emb.weight.data[0])
        assert np.allclose(out.data[0], out.data[2])

    def test_gradients_accumulate_on_repeats(self):
        emb = user_modules.Embedding(4, 2, rng=np.random.default_rng(0))
        out = emb(np.array([1, 1, 2]))
        out.sum().backward()
        assert np.allclose(emb.weight.grad[1], 2.0)
        assert np.allclose(emb.weight.grad[2], 1.0)
        assert np.allclose(emb.weight.grad[0], 0.0)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            user_modules.Embedding(3, 2)(np.array([3]))
        with pytest.raises(IndexError):
            user_modules.Embedding(3, 2)(np.array([-1]))

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            user_modules.Embedding(0, 4)

    def test_registered_parameter(self):
        emb = user_modules.Embedding(3, 2)
        assert set(dict(emb.named_parameters())) == {"weight"}

    def test_trainable_node_embeddings_as_features(self, cluster2):
        """A featureless graph learns node embeddings end to end:
        the embedding output feeds the GNN as h^0 and receives
        gradients through the distributed backward."""
        from repro.core.blocks import build_block
        from repro.core.layers import GCNConv
        from repro.graph import generators
        from repro.tensor.optim import Adam
        from repro.tensor import functional as F

        g = generators.community(30, 3, 4.0, seed=1).gcn_normalized()
        labels = (np.arange(30) % 3).astype(np.int64)
        emb = user_modules.Embedding(30, 8, rng=np.random.default_rng(0))
        conv = GCNConv(8, 3, activation="none", rng=np.random.default_rng(1))
        block = build_block(g, np.arange(30))
        opt = Adam(list(emb.parameters()) + list(conv.parameters()), lr=0.05)
        first = None
        for _ in range(30):
            opt.zero_grad()
            h0 = emb(block.input_vertices)
            logits = conv.forward(block, h0)
            loss = F.cross_entropy(logits, labels)
            loss.backward()
            opt.step()
            if first is None:
                first = float(loss.data)
        assert float(loss.data) < first * 0.5
