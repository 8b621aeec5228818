"""A pin of the sampled path's bits: blocks, round programs, losses.

For each sampler at kappa 0 and 4, two epochs of rounds on a small
catalog graph are hashed: every closure's bookkeeping and every block
field (the derived ones included, read through their attributes) and
every compiled round ``Program`` with its overlap marks; then two
training epochs add their losses and charged times.  ``DIGESTS`` were
re-recorded once when every round's Program gained its overlap marks:
blocks, the rest of each Program, losses and bytes were checked
unchanged part by part, and only charged times went down.  They were
re-recorded again when a worker stopped fetching the remote rows it
held from its previous round, kappa became a draw key (the float 0.0,
kept here, is the alias the e2e workload passes; 0.5 became 4) and
LADIES began applying its rescale in float32: at kappa 0 every block
field was checked unchanged for uniform and LABOR, and every LADIES
field but the weights.

Re-record (``PYTHONPATH=src python tests/sampling/test_sampled_digest.py``
prints the table) only for an intended change of what is sampled.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.core.model import GNNModel
from repro.graph.datasets import load_dataset
from repro.sampling import SampledTrainingEngine
from repro.tensor import optim
from repro.training.prep import prepare_graph

SAMPLERS = ("uniform", "labor", "ladies")
KAPPAS = (0.0, 4)
EPOCHS = 2

BLOCK_FIELDS = (
    "compute_vertices", "input_vertices", "edge_src_pos", "edge_dst_pos",
    "edge_weight", "compute_pos_in_inputs", "edge_src_global", "edge_ids",
)
CLOSURE_FIELDS = (
    "worker", "seeds", "num_sampled_edges", "frontier_sizes",
)

DIGESTS = {
    "uniform@0.0": "f799409c71ef20c2b8797d39d69e3d87d42e0447cb6852d56303b9c887756aad",
    "uniform@4": "556f8427f5b1edd3d7275989d283317af226838bd5613e2a595460fe47648547",
    "labor@0.0": "d9109faf5985796a1dca444f2b24907b8e84d469e56083acf9370877d42358ac",
    "labor@4": "464e0079d7837d368b48149a8f40785f72b14fa75394862c77eeb1b29f3660cc",
    "ladies@0.0": "702bc7a1ec9b96efb51f862acdec3d3deaf129571dad4da5190d6dd813707b43",
    "ladies@4": "3bb610e0fa9e4600bcf1c7f04d632d517a134846d3938a170566e4399fc05e71",
}


def _feed(h, obj) -> None:
    """Hash ``obj`` by value: dataclasses field by field, arrays by
    dtype, shape and bytes, numbers by value (``float.hex``)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, dict):
        h.update(f"{{{len(obj)}".encode())
        for key, value in obj.items():
            _feed(h, key)
            _feed(h, value)
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, (int, np.integer)):
        h.update(f"i{int(obj)}".encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(float(obj).hex().encode())
    elif obj is None or isinstance(obj, str):
        h.update(repr(obj).encode())
    else:
        raise TypeError(f"cannot hash {type(obj).__name__}")


def _block_fields(block) -> dict:
    fields = {name: getattr(block, name) for name in BLOCK_FIELDS}
    fields["edge_weight_rescaled"] = block.edge_weight_rescaled
    return fields


def _engine(sampler: str, kappa: float) -> SampledTrainingEngine:
    graph = prepare_graph(load_dataset("social-skewed", scale=0.25), "gcn")
    model = GNNModel.gcn(graph.feature_dim, 16, graph.num_classes, seed=5)
    return SampledTrainingEngine(
        graph, model, ClusterSpec.ecs(4), fanouts=(4, 6), batch_size=32,
        sampler=sampler, kappa=kappa, seed=11,
    )


def digest(sampler: str, kappa: float) -> str:
    h = hashlib.sha256()
    engine = _engine(sampler, kappa)
    for epoch in range(EPOCHS):
        engine._epoch = epoch
        for r, closures, _, program, _ in engine.rounds(shuffle=True):
            _feed(h, r)
            for w, closure in closures.items():
                _feed(h, {name: getattr(closure, name) for name in CLOSURE_FIELDS})
                for block in closure.blocks:
                    _feed(h, _block_fields(block))
            _feed(h, program)
    engine = _engine(sampler, kappa)
    opt = optim.Adam(engine.model.parameters(), lr=0.01)
    for _ in range(EPOCHS):
        report = engine.run_epoch(opt)
        _feed(h, [report.loss, report.epoch_time_s, report.comm_bytes])
    return h.hexdigest()


@pytest.mark.parametrize("kappa", KAPPAS)
@pytest.mark.parametrize("sampler", SAMPLERS)
def test_sampled_path_bits(sampler, kappa):
    assert digest(sampler, kappa) == DIGESTS[f"{sampler}@{kappa}"]


if __name__ == "__main__":
    for sampler in SAMPLERS:
        for kappa in KAPPAS:
            print(f'    "{sampler}@{kappa}": "{digest(sampler, kappa)}",')
