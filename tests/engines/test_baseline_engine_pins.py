"""Pins for the baseline engines whose behaviour lives on an accountant
subclass: ROC (broadcast volumes, block-filter charge, resident received
blocks) and the three shared-memory variants (dense adjacency, framework
workspace, 16-way NTS chunking).

``tests/data/golden_baseline_engines.json`` was recorded while those
behaviours were still ``BaseEngine`` hook overrides
(``python tests/engines/test_baseline_engine_pins.py --write`` on that
tree), so exact equality here means moving them onto ``accountant_cls``
changed no charged second, no exchanged byte and no resident byte.
"""

import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent.parent / "data" / "golden_baseline_engines.json"
CASES = ("roc", "dgl", "pyg", "nts")


def _engine(case: str):
    from repro.cluster.spec import ClusterSpec
    from repro.core.model import GNNModel
    from repro.engines import RocLikeEngine, SharedMemoryEngine
    from repro.graph import generators
    from repro.training.prep import prepare_graph

    g = generators.locality_graph(
        200, 1400, locality_width=0.02, global_fraction=0.3, seed=5
    )
    generators.attach_features(g, 24, 5, seed=6)
    graph = prepare_graph(g, "gcn")
    model = GNNModel.gcn(graph.feature_dim, 8, graph.num_classes, seed=2)
    if case == "roc":
        return RocLikeEngine(graph, model, ClusterSpec.ecs(4))
    return SharedMemoryEngine(
        graph, model, variant=case, paper_num_vertices=5000
    )


def build_payload(case: str):
    engine = _engine(case)
    plan = engine.plan()
    return {
        "forward_volume_sums": [
            float(engine.accountant.forward_volumes(plan, l).sum())
            for l in range(1, engine.num_layers + 1)
        ],
        "charge_epoch_s": [engine.charge_epoch() for _ in range(2)],
        "device_memory": [t.breakdown() for t in plan.device_memory],
        "host_memory": [t.breakdown() for t in plan.host_memory],
    }


@pytest.mark.parametrize("case", CASES)
def test_baseline_engine_matches_pre_refactor_pin(case):
    golden = json.loads(GOLDEN.read_text())
    assert build_payload(case) == golden[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_baseline_engine_pins.py --write")
    GOLDEN.write_text(
        json.dumps({c: build_payload(c) for c in CASES}, indent=1) + "\n"
    )
