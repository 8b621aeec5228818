"""A pin of the sampled path's bits: blocks, round programs, losses.

For each sampler at kappa 0 and 0.5, two epochs of rounds on a small
catalog graph are hashed: every closure's bookkeeping and every block
field (the derived ones included, read through their attributes) and
every compiled round ``Program`` with its overlap marks; then two
training epochs add their losses and charged times.  The blocks were
first pinned while built from an explicit per-edge ``dst`` list, where
kappa reuse listed a worker's reused rows before its fresh ones; the
hash sorts each bottom block's edges stably by destination row first,
so it pins the rows' own edge order and not how rows interleave.
``DIGESTS`` were re-recorded once when every round's Program gained
its overlap marks: blocks, the rest of each Program, losses and bytes
were checked unchanged part by part, and only charged times went down.

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
KAPPAS = (0.0, 0.5)
EPOCHS = 2

BLOCK_FIELDS = (
    "compute_vertices", "input_vertices", "edge_src_pos", "edge_dst_pos",
    "edge_weight", "compute_pos_in_inputs", "edge_src_global", "edge_ids",
)
EDGE_FIELDS = (
    "edge_src_pos", "edge_dst_pos", "edge_weight", "edge_src_global", "edge_ids",
)
CLOSURE_FIELDS = (
    "worker", "seeds", "num_sampled_edges", "frontier_sizes",
    "reused_vertices", "reuse_eligible", "reused_srcs",
)

DIGESTS = {
    "uniform@0.0": "382e9b1e0b784803b7402c114f3fbc76ccddccd0be0d8271ed59f0abe30bdb26",
    "uniform@0.5": "e6d2dfd9df3ab96c516fd44c61ddc1f42cf3bd09d9dab0949ec2fc89c30a9784",
    "labor@0.0": "3c1a7d61cb180df442222a0f3d89174ca0977400892bb5fee7639a4ab7af920e",
    "labor@0.5": "00eae6223014a1874db2da6d3ebb6997c8759692a104e2b79f92379aadf4083e",
    "ladies@0.0": "89c435fbbf9ebddc20cf8b5e97f50abbcfe8806423012cce27c6d6c4cb86a6a1",
    "ladies@0.5": "4fbba4c8a2cdf8a01df8d7aae677e7711c5c7a0194b75b71351f7938d7809ea8",
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


def _block_fields(block, by_destination: bool) -> dict:
    fields = {name: getattr(block, name) for name in BLOCK_FIELDS}
    if by_destination:
        order = np.argsort(fields["edge_dst_pos"], kind="stable")
        for name in EDGE_FIELDS:
            fields[name] = fields[name][order]
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
                for l, block in enumerate(closure.blocks):
                    _feed(h, _block_fields(block, l == 0 and kappa > 0))
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
