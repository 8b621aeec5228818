"""A pin of the sampled path's bits: blocks, round programs, losses.

For each sampler at kappa 0 and 0.5, two epochs of rounds on a small
catalog graph are hashed: every closure's bookkeeping and every block
field (the derived ones included, read through their attributes) and
every compiled round ``Program`` after its passes; then two training
epochs add their losses and charged times.  ``DIGESTS`` were recorded
with the blocks built from an explicit per-edge ``dst`` list, where
kappa reuse listed a worker's reused rows before its fresh ones; the
hash sorts each bottom block's edges stably by destination row first,
so it pins the rows' own edge order and not how rows interleave.

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
    "uniform@0.0": "c7177e72c8babd4b28d10fbf7804ab4b21a2715ec7cdf5e6652286e463f349e0",
    "uniform@0.5": "60d46ea19dc30e391d4b856af97f4ae644d96727e9037008e49dd54e4b6cc13d",
    "labor@0.0": "781059191e1f4bb7bdc6c793de205b7864400fb1abde644ade9555f538dec1c1",
    "labor@0.5": "1528fac8748390750f477f43cc0d81404d2c4f855d03645711a445f1d630ed56",
    "ladies@0.0": "88c0366b5bbfb8a322b7b4ef41279b3bf9b93dfbf09e115f0e9f0cf2a160c2e6",
    "ladies@0.5": "18b641a7c66dd1d359b581ab50686bac609321584518b71c042eddb06c986b0a",
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
