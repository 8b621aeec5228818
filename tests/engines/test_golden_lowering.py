"""Pin for the Program lowering and the charges read from it.

``tests/data/golden_lowering.json`` was recorded while sampled rounds
were lowered by ``sampling/compile.py``'s own step / ``ExchangePhase`` /
``ComputeSpec`` constructors, TP layers priced their compute through
``tp_layer_compute_split`` and the accountant re-derived every volume
matrix from the ``EnginePlan`` at charge time
(``python tests/engines/test_golden_lowering.py --write`` on that tree).
Exact equality on every recorded key -- charged seconds as
``float.hex()``, the explain JSON field by field -- means the one shared
lowering and the Program-reading accountant changed no step, no byte
and no charged second.  The explain dicts may *gain* keys; a recorded
key may not move.
"""

import itertools
import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent.parent / "data" / "golden_lowering.json"

ALL_PASSES = (
    "overlap-exchange", "fuse-scatter-gather", "chunk-pipeline", "ring-reorder",
)
FEATURE_CACHE_BYTES = int(0.05 * 1024 * 1024)

SAMPLED_CASES = [
    f"sampled-{sampler}-k{kappa}-c{cache}"
    for sampler in ("uniform", "labor", "ladies")
    for kappa in (0.0, 0.5, 1.0)
    for cache in (0, FEATURE_CACHE_BYTES)
] + ["sampled-uniform-k0.5-c0-passes", "distdgl"]
FULLBATCH_CASES = [
    f"{name}{suffix}"
    for name in ("tp", "hybrid4", "roc")
    for suffix in ("", "-passes")
]
CASES = SAMPLED_CASES + FULLBATCH_CASES


def _sampled_engine(case: str):
    from repro.cluster.spec import ClusterSpec
    from repro.core.model import GNNModel
    from repro.engines import make_engine
    from repro.graph.datasets import load_dataset
    from repro.training.prep import prepare_graph

    graph = prepare_graph(load_dataset("cora", scale=0.2), "gcn")
    model = GNNModel.gcn(graph.feature_dim, 16, graph.num_classes, seed=1)
    kwargs = dict(fanouts=(3, 5), batch_size=16, seed=0)
    if case != "distdgl":
        _, sampler, kappa, cache, *passes = case.split("-")
        kwargs.update(
            sampler=sampler,
            kappa=float(kappa[1:]),
            feature_cache_bytes=int(cache[1:]),
            program_passes=ALL_PASSES if passes else (),
        )
    name = "distdgl" if case == "distdgl" else "sampled"
    return make_engine(name, graph, model, ClusterSpec.ecs(2), **kwargs)


def _fullbatch_engine(case: str, **kwargs):
    from repro.cluster.spec import ClusterSpec
    from repro.core.model import GNNModel
    from repro.engines import make_engine
    from repro.graph import generators
    from repro.training.prep import prepare_graph

    # Skewed and wide enough that hybrid4 mixes a mirror-exchange
    # layer with a tensor-parallel one ([False, True]) on 4 workers.
    g = generators.scaled_social(
        1024, avg_degree=16.0, num_communities=8, hub_exponent=1.2, seed=0
    )
    generators.attach_features(g, 64, 16, seed=1, class_signal=0.6)
    graph = prepare_graph(g, "gcn")
    model = GNNModel.build("gcn", 64, 256, 16, num_layers=2, seed=0)
    name, *passes = case.split("-")
    return make_engine(
        name, graph, model, ClusterSpec.ecs(4),
        program_passes=ALL_PASSES if passes else (), **kwargs,
    )


def _jsonable(value):
    """JSON form with every float as ``float.hex()`` (exact)."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, int) or getattr(value, "dtype", None) == "int64":
        return int(value)
    return float(value).hex()


def build_payload(case: str):
    if case in SAMPLED_CASES:
        from repro.sampling import describe_sampled_batches

        engine = _sampled_engine(case)
        described = describe_sampled_batches(engine, 3)
    else:
        from repro.execution import describe_program

        engine = _fullbatch_engine(case)
        described = describe_program(engine)
    return _jsonable({
        "described": described,
        "charge_epoch_s": [engine.charge_epoch() for _ in range(2)],
    })


def _assert_recorded_keys_unmoved(actual, golden, path="$"):
    if isinstance(golden, dict):
        assert isinstance(actual, dict), path
        for key, value in golden.items():
            assert key in actual, f"{path}.{key} disappeared"
            _assert_recorded_keys_unmoved(actual[key], value, f"{path}.{key}")
    elif isinstance(golden, list):
        assert isinstance(actual, list) and len(actual) == len(golden), path
        for i, value in enumerate(golden):
            _assert_recorded_keys_unmoved(actual[i], value, f"{path}[{i}]")
    else:
        assert actual == golden, f"{path}: {actual!r} != {golden!r}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES)
def test_lowering_matches_pre_refactor_pin(case, golden):
    _assert_recorded_keys_unmoved(build_payload(case), golden[case])


def test_hybrid4_case_mixes_mirror_and_tensor_parallel_layers(golden):
    layers = golden["hybrid4"]["described"]["layers"]
    assert [lp["tensor_parallel"] for lp in layers] == [False, True]


def _layer_programs(case: str):
    """Every ``(LayerProgram, the one below it)`` ``case`` lowers: the
    compiled plan, or the first two rounds of a sampled epoch."""
    if case in SAMPLED_CASES:
        engine = _sampled_engine(case)
        rounds = engine.rounds(engine.sampler, shuffle=False)
        for _, _, _, program, _ in itertools.islice(rounds, 2):
            yield from zip(program.layers, [None] + program.layers)
        return
    if case == "depcomm-cached":
        from repro.cache import CacheConfig

        engine = _fullbatch_engine("depcomm", cache_config=CacheConfig(tau=3))
    else:
        engine = _fullbatch_engine(case)
    engine.plan()
    yield from zip(engine.program_.layers, [None] + engine.program_.layers)


@pytest.mark.parametrize("case", [
    "depcache", "depcomm", "depcomm-cached", "hybrid", "hybrid4", "tp",
    "roc", "hybrid4-passes", "sampled-labor-k0.5-c52428", "distdgl",
])
def test_every_layer_program_is_structurally_sound(case, check_layer_program):
    layers = list(_layer_programs(case))
    assert layers
    for lp, below in layers:
        # ROC broadcasts whole blocks: it ships more than it fetches.
        check_layer_program(lp, bytes_balance=case != "roc", below=below)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_lowering.py --write")
    lines = [
        f" {json.dumps(c)}: "
        + json.dumps(build_payload(c), separators=(",", ":"))
        for c in CASES
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
