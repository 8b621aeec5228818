"""Training stays float32 end to end, on every engine and architecture.

The paper trains in float32 and the accountant prices every row, edge
tensor and all-reduce at 4 bytes per value.  A Python scalar on the
tape (the loss's ``/ float(n)``, GAT's ``+ 1e-16``) once made the loss
float64, and from the first optimizer step on every gradient, Adam
moment and parameter with it; ``parameter_bytes()`` then grew and every
later all-reduce was charged at 8 bytes per parameter.

The other half of the dtype contract: a float64 model (gradcheck, the
golden's float64 reference) stays float64.  Its parameters, gradients,
Adam moments and the executor's gradient accumulators must not be
narrowed to float32 anywhere; ``LayerExecutor.accumulate`` once built
its accumulators in float32 whatever the rows it added.
"""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import NET_SEND
from repro.core.layers import LAYER_TYPES
from repro.core.model import GNNModel
from repro.engines import SharedMemoryEngine, make_engine
from repro.execution.executor import LayerExecutor
from repro.graph.datasets import load_dataset
from repro.tensor import optim
from repro.training.prep import prepare_graph

# ``sampled`` samples uniformly; LABOR and LADIES get a case each (a
# LADIES rescale once widened every weight it touched to float64).
ENGINES = [
    "depcache", "depcomm", "hybrid", "hybrid4", "tp", "roc",
    "shared-memory", "sampled", "sampled-labor", "sampled-ladies", "distdgl",
]
SAMPLED = ("sampled", "sampled-labor", "sampled-ladies", "distdgl")


def _engine(name, arch, dtype=np.float32):
    graph = prepare_graph(load_dataset("cora", scale=0.1, seed=0), arch)
    model = GNNModel.build(arch, graph.feature_dim, 8, graph.num_classes, seed=1)
    for p in model.parameters():
        p.data = p.data.astype(dtype)
    if name == "shared-memory":
        return SharedMemoryEngine(graph, model)
    # Small batches give the sampled engines several rounds per epoch,
    # and fanouts under the degrees make every sampler prune.
    kwargs = {"batch_size": 16, "fanouts": (3, 5)} if name in SAMPLED else {}
    if name.startswith("sampled-"):
        name, kwargs["sampler"] = name.split("-")
    return make_engine(name, graph, model, ClusterSpec.ecs(2), **kwargs)


def _record_allreduce(engine, monkeypatch):
    """Per ``charge_allreduce`` call, the ``(kind, seconds, bytes)`` it
    charged each worker."""
    charges = []
    charge = engine.accountant.charge_allreduce
    advance = engine.timeline.advance

    def recording_advance(worker, kind, duration, num_bytes=0):
        if charges and charges[-1] is not None:
            charges[-1].append((kind, duration, num_bytes))
        advance(worker, kind, duration, num_bytes)

    def recording_charge():
        charges.append([])
        charge()
        charges.append(None)

    monkeypatch.setattr(engine.timeline, "advance", recording_advance)
    monkeypatch.setattr(engine.accountant, "charge_allreduce", recording_charge)
    return charges


@pytest.mark.parametrize("arch", sorted(LAYER_TYPES))
@pytest.mark.parametrize("name", ENGINES)
def test_two_epochs_stay_float32(name, arch, monkeypatch):
    engine = _engine(name, arch)
    model = engine.model
    before = model.parameter_bytes()
    charges = _record_allreduce(engine, monkeypatch)
    optimizer = optim.Adam(model.parameters(), lr=0.01)
    for _ in range(2):
        engine.run_epoch(optimizer=optimizer)
    rounds = [c for c in charges if c is not None]
    engine.run_epoch()  # no step, so the gradients stay to be read
    for p in model.parameters():
        assert p.data.dtype == np.float32
        assert p.grad.dtype == np.float32
    for moment in optimizer._m + optimizer._v:
        assert moment.dtype == np.float32
    assert model.parameter_bytes() == before
    if name in SAMPLED:
        assert len(rounds) > 2
        assert rounds[0] == rounds[-1]
        assert {(kind, n) for kind, _, n in rounds[-1]} == {(NET_SEND, before)}


def _record_accumulators(monkeypatch):
    """Every gradient accumulator ``LayerExecutor.accumulate`` has
    added rows into, read after each call."""
    accumulators = []
    accumulate = LayerExecutor.accumulate

    def recording(self, plan, grad_acc, layer_idx, worker, positions, rows):
        accumulate(self, plan, grad_acc, layer_idx, worker, positions, rows)
        accumulators.extend(a for a in grad_acc[layer_idx] if a is not None)

    monkeypatch.setattr(LayerExecutor, "accumulate", recording)
    return accumulators


@pytest.mark.parametrize("arch", sorted(LAYER_TYPES))
@pytest.mark.parametrize("name", ENGINES)
def test_two_epochs_stay_float64(name, arch, monkeypatch):
    engine = _engine(name, arch, np.float64)
    model = engine.model
    before = model.parameter_bytes()
    accumulators = _record_accumulators(monkeypatch)
    optimizer = optim.Adam(model.parameters(), lr=0.01)
    for _ in range(2):
        engine.run_epoch(optimizer=optimizer)
    engine.run_epoch()  # no step, so the gradients stay to be read
    for p in model.parameters():
        assert p.data.dtype == np.float64
        assert p.grad.dtype == np.float64
    for moment in optimizer._m + optimizer._v:
        assert moment.dtype == np.float64
    assert model.parameter_bytes() == before
    # Every full-batch engine routes layer-2 input gradients through
    # the executor; the sampled engines do not.
    assert bool(accumulators) == (name not in SAMPLED)
    assert all(a.dtype == np.float64 for a in accumulators)
