"""The four benchmark workloads, driven through the package's public API.

Each workload is one class with the same six steps, so that
``run.py`` can time and trace them all with one loop:

- ``setup(k)``: a cold set-up on graph seed ``seed + k`` -- dataset
  generation, ``prepare_graph``, model, partitioner, engine or server,
  and ``plan()`` where planning is not the timed operation;
- ``prepare(state, i)``: untimed work before timed operation ``i``;
- ``op(state)``: the timed operation (one epoch, one plan, one
  4000-request serving run);
- ``collect(state)``: the operation's deterministic outputs (modeled
  seconds, bytes, loss, per-layer counts) and its attempted / failed
  counts;
- ``after_prefix(state)``: untimed work once ``min_ops`` operations
  have run (``evaluate()`` on the training workloads);
- ``gates(state, first, extras)``: the workload's correctness gates,
  run after everything is measured.

Outputs of timed operation number ``exact_op`` (0-based) define the
exact metrics, so they do not depend on how many further operations
``--seconds`` leaves room for.

All four use ``ClusterSpec.ecs(8)``, a 2-layer GCN at the catalog
hidden width and chunk partitioning.  The graph seed, the model seed,
the sampler seed and the request-stream seeds all derive from
``--seed``; the package receives only the generated inputs.
"""

from __future__ import annotations

import math
import time
from types import SimpleNamespace
from typing import Dict, List

from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import IDLE
from repro.core.model import GNNModel
from repro.engines import make_engine
from repro.graph.datasets import load_dataset, spec_of
from repro.partition import chunk_partition
from repro.serving import (
    InferenceServer,
    ServingConfig,
    WorkloadConfig,
    generate_workload,
)
from repro.training.prep import prepare_graph
from repro.training.trainer import DistributedTrainer

import checks

NUM_WORKERS = 8
ARCH = "gcn"


def _busy_share(timeline) -> float:
    """Share of modeled worker time not spent idle at a barrier."""
    return 1.0 - timeline.utilization_summary()[IDLE]


def _program_steps(engine) -> int:
    return sum(
        len(worker.steps)
        for layer in engine.program_.layers
        for worker in layer.workers
    )


class Workload:
    """Shared set-up and bookkeeping; subclasses fill in the steps."""

    name = ""
    dataset = ""
    min_ops = 1
    exact_op = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.cluster = ClusterSpec.ecs(NUM_WORKERS)

    def _model(self, graph) -> GNNModel:
        return GNNModel.build(
            ARCH, graph.feature_dim, spec_of(self.dataset).hidden_dim,
            graph.num_classes, seed=self.seed,
        )

    def _graph_parts(self, k: int) -> SimpleNamespace:
        """Graph, model and partitioning for graph seed ``seed + k``."""
        graph = prepare_graph(load_dataset(self.dataset, seed=self.seed + k), ARCH)
        partitioning = chunk_partition(graph, NUM_WORKERS)
        return SimpleNamespace(
            graph=graph, model=self._model(graph), partitioning=partitioning
        )

    def setup(self, k: int) -> SimpleNamespace:
        raise NotImplementedError

    def prepare(self, state: SimpleNamespace, i: int) -> None:
        pass

    def op(self, state: SimpleNamespace) -> None:
        raise NotImplementedError

    def collect(self, state: SimpleNamespace) -> Dict[str, object]:
        raise NotImplementedError

    def after_prefix(self, state: SimpleNamespace) -> Dict[str, float]:
        return {}

    def gates(self, state: SimpleNamespace, first: dict, extras: dict) -> List[checks.Check]:
        """``first`` is the cold operation's ``collect()``, ``extras``
        what ``after_prefix`` returned."""
        return []


class _Training(Workload):
    """One timed operation = one ``DistributedTrainer.train(1)`` epoch."""

    engine_name = ""

    def setup(self, k: int) -> SimpleNamespace:
        state = self._graph_parts(k)
        state.engine = make_engine(
            self.engine_name, state.graph, state.model, self.cluster,
            partitioning=state.partitioning, **self._engine_kwargs(),
        )
        state.plan = state.engine.plan()
        state.trainer = DistributedTrainer(state.engine, optimizer="adam", lr=0.01)
        return state

    def _engine_kwargs(self) -> Dict[str, object]:
        return {}

    def op(self, state: SimpleNamespace) -> None:
        state.report = state.trainer.train(epochs=1).reports[-1]

    def collect(self, state: SimpleNamespace) -> Dict[str, object]:
        report = state.report
        layers = {"cluster.charged_busy_share": _busy_share(state.engine.timeline)}
        layers.update(self._layer_values(state))
        return {
            "attempted": 1,
            "failed": 0 if math.isfinite(report.loss) else 1,
            "charged_s": report.epoch_time_s,
            "charged_comm_bytes": report.comm_bytes,
            "loss": report.loss,
            "layers": layers,
        }

    def _layer_values(self, state: SimpleNamespace) -> Dict[str, float]:
        return {}

    def after_prefix(self, state: SimpleNamespace) -> Dict[str, float]:
        t0 = time.perf_counter()
        accuracy = state.engine.evaluate()
        return {
            "test_accuracy": accuracy,
            "eval_s": time.perf_counter() - t0,
        }

    def gates(self, state: SimpleNamespace, first: dict, extras: dict) -> List[checks.Check]:
        return [checks.accuracy_above_majority(state.graph, extras["test_accuracy"])]


class FullbatchReddit(_Training):
    """Few, very large scatter/gather and matmul calls per epoch."""

    name = "fullbatch_reddit"
    dataset = "reddit"
    engine_name = "hybrid"
    min_ops = 8
    exact_op = 7

    def _layer_values(self, state: SimpleNamespace) -> Dict[str, float]:
        return {
            "costmodel.cache_ratio": state.plan.cache_ratio(),
            "execution.program_steps": _program_steps(state.engine),
        }

    def gates(self, state: SimpleNamespace, first: dict, extras: dict) -> List[checks.Check]:
        equivalence = checks.single_worker_equivalence(
            state.graph, self._model(state.graph), first["loss"]
        )
        return [equivalence, *super().gates(state, first, extras)]


class SampledSocial(_Training):
    """~200 medium closures per epoch plus sampling and per-round charging."""

    name = "sampled_social"
    dataset = "social-large"
    engine_name = "sampled"
    min_ops = 3
    exact_op = 2

    def _engine_kwargs(self) -> Dict[str, object]:
        return {
            "sampler": "uniform", "fanouts": (10, 25), "batch_size": 128,
            "kappa": 0.0, "seed": self.seed,
        }

    def _layer_values(self, state: SimpleNamespace) -> Dict[str, float]:
        return {
            "sampling.sampled_edges": state.engine.last_epoch_stats["sampled_edges"],
        }


class PlanSocial(Workload):
    """Algorithm 4's probe storm: zero autograd calls.

    Every timed ``plan()`` runs on a fresh engine over a freshly
    prepared graph, so neither the engine's memoised plan nor the
    graph's block cache is warm; the CSR/CSC indexes are, as they are
    for any second engine built on a graph.
    """

    name = "plan_social"
    dataset = "social-large"
    min_ops = 3
    exact_op = 0

    def _fresh_engine(self, state: SimpleNamespace) -> None:
        state.engine = make_engine(
            "hybrid", state.graph, state.model, self.cluster,
            partitioning=state.partitioning,
        )

    def setup(self, k: int) -> SimpleNamespace:
        state = self._graph_parts(k)
        self._fresh_engine(state)
        return state

    def prepare(self, state: SimpleNamespace, i: int) -> None:
        state.graph = prepare_graph(load_dataset(self.dataset, seed=self.seed), ARCH)
        # Reading the lazy indexes builds them, outside the clock.
        _ = state.graph.csr, state.graph.csc
        self._fresh_engine(state)

    def op(self, state: SimpleNamespace) -> None:
        state.plan = state.engine.plan()

    def collect(self, state: SimpleNamespace) -> Dict[str, object]:
        engine = state.engine
        charged_s = engine.charge_epoch()
        comm_bytes = sum(
            layer.exchange.total_bytes() for layer in engine.program_.layers
        )
        return {
            "attempted": 1,
            "failed": 0 if math.isfinite(charged_s) else 1,
            "charged_s": charged_s,
            "charged_comm_bytes": comm_bytes,
            "layers": {
                "cluster.charged_busy_share": _busy_share(engine.timeline),
                "costmodel.cache_ratio": state.plan.cache_ratio(),
                "execution.program_steps": _program_steps(engine),
            },
        }


class ServeSocial(Workload):
    """Forward-only serving: thousands of tiny closures per run.

    The stream is an open loop in *simulated* time (4000 requests at
    2000 rps, Zipf 1.0); on the host the benchmark makes one blocking
    ``serve()`` call per run.  Timed run ``i`` serves request seed
    ``seed + i`` on a fresh server, so planner memos and the embedding
    cache start cold every run.
    """

    name = "serve_social"
    dataset = "social-large"
    min_ops = 4
    exact_op = 0
    num_requests = 4000

    def _fresh_server(self, state: SimpleNamespace, i: int) -> None:
        state.requests = generate_workload(
            WorkloadConfig(
                num_requests=self.num_requests, rate_rps=2000.0,
                zipf_exponent=1.0, seed=self.seed + i,
            ),
            state.graph.num_vertices,
        )
        state.server = InferenceServer(
            state.graph, state.model, self.cluster, state.partitioning,
            config=ServingConfig(tau_s=0.05, mode="auto"),
        )

    def setup(self, k: int) -> SimpleNamespace:
        state = self._graph_parts(k)
        state.answers = []
        self._fresh_server(state, 0)
        return state

    def prepare(self, state: SimpleNamespace, i: int) -> None:
        self._fresh_server(state, max(i, 0))

    def op(self, state: SimpleNamespace) -> None:
        state.result = state.server.serve(state.requests)

    def collect(self, state: SimpleNamespace) -> Dict[str, object]:
        result = state.result
        ledger = result.ledger
        # Kept for checks.serving_matches_whole_graph, which runs after
        # peak RSS is read: the whole-graph forward is the bigger job.
        state.answers.append((state.requests, result.predictions))
        unanswered = sum(
            1 for r in state.requests if r.req_id not in result.predictions
        )
        cached = ledger.mode_counts().get("cached", 0)
        return {
            "attempted": len(state.requests),
            "failed": unanswered,  # shed, or admitted and never answered
            "charged_s": ledger.p99_s,
            "charged_comm_bytes": ledger.total_comm_bytes,
            "layers": {
                "cluster.charged_busy_share": _busy_share(result.timeline),
                "cache.hit_share": result.cache.counters.hit_rate(),
                "serving.batches": result.num_batches,
                "serving.cached_share": cached / len(state.requests),
            },
        }

    def gates(self, state: SimpleNamespace, first: dict, extras: dict) -> List[checks.Check]:
        return [checks.serving_matches_whole_graph(state)]


WORKLOADS = {
    cls.name: cls
    for cls in (FullbatchReddit, SampledSocial, PlanSocial, ServeSocial)
}
