"""HybridCache: staleness-bounded caching vs pure DepComm.

Real numerical training on a scaled-down Pubmed: pure DepComm fetches
every remote dependency every epoch; the staleness-bounded historical
cache re-fetches only every ``tau`` epochs, amortizing the per-epoch
communication volume to roughly ``1/tau`` of the baseline at the price
of bounded-staleness inputs.

Headline shapes this module asserts:

- ``tau = 0`` is bit-identical to the cache-free baseline (same comm
  volume, same accuracy) -- the determinism contract;
- some ``(tau, capacity)`` point cuts per-epoch comm volume by >= 30%
  while keeping accuracy within 1% of the baseline;
- comm volume is monotonically non-increasing in ``tau``.
"""

from common import paper_row, parse_json_flag, write_json
from repro.cluster.spec import ClusterSpec
from repro.core.model import GNNModel
from repro.graph.datasets import load_dataset
from repro.sweeps import CACHE_COLUMNS, best_cache_point, render, run_cache_sweep
from repro.training.prep import prepare_graph

DATASET = "pubmed"
SCALE = 0.5
HIDDEN = 32
NODES = 4
EPOCHS = 20
TAUS = (0.0, 2.0, 4.0, 8.0)
# The headline's accuracy budget: 1% below the exact run.
ACCURACY_TOLERANCE = 0.01


def run_experiment(seed=1):
    graph = prepare_graph(load_dataset(DATASET, scale=SCALE), "gcn")

    def model_factory():
        return GNNModel.build(
            "gcn", graph.feature_dim, HIDDEN, graph.num_classes, seed=seed,
        )

    result = run_cache_sweep(
        graph, model_factory, ClusterSpec.ecs(NODES),
        taus=TAUS, epochs=EPOCHS, engine_name="depcomm",
    )
    base = result["baseline"]
    print(f"\n### HybridCache sweep: DepComm + historical cache on {DATASET} "
          f"(scale {SCALE}, {NODES} workers, {EPOCHS} epochs)")
    print(f"baseline: {base['comm_bytes_per_epoch'] / 1e3:.1f} KB/epoch, "
          f"accuracy {base['accuracy'] * 100:.2f}%")
    print(render(CACHE_COLUMNS, result["points"]))
    paper_row(
        "historical-embedding caching trades bounded staleness for "
        "amortized communication (cf. Kaler et al.; not in NeutronStar)"
    )
    return result


def check(result):
    """The headline shapes; run by pytest and by ``__main__``."""
    base = result["baseline"]
    by_tau = {p["tau"]: p for p in result["points"]}

    # tau=0 refreshes every epoch: bit-identical to the cache-free run.
    assert by_tau[0.0]["comm_bytes_per_epoch"] == base["comm_bytes_per_epoch"]
    assert by_tau[0.0]["accuracy"] == base["accuracy"]

    # Comm volume is monotonically non-increasing in tau.
    volumes = [by_tau[t]["comm_bytes_per_epoch"] for t in sorted(by_tau)]
    assert all(a >= b - 1e-9 for a, b in zip(volumes, volumes[1:]))

    # Headline: >= 30% comm saved with accuracy within 1% somewhere.
    best = best_cache_point(result, ACCURACY_TOLERANCE)
    assert best is not None
    assert best["comm_reduction"] >= 0.30, best
    assert best["accuracy_delta"] >= -ACCURACY_TOLERANCE, best


def test_cache_sweep(benchmark):
    result = run_experiment()
    check(result)
    benchmark(lambda: best_cache_point(result))


if __name__ == "__main__":
    json_path = parse_json_flag("HybridCache tau sweep vs pure DepComm")
    result = run_experiment()
    write_json(json_path, result)
    check(result)
