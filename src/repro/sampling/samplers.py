"""The sampler family behind one seeded interface.

Three strategies share a top-down expansion loop (seeds at layer L,
growing the frontier down to layer 1) and differ only in how one
layer's edges are drawn:

- :class:`UniformFanoutSampler` — at most ``fanout`` in-edges per
  frontier vertex, uniformly without replacement.  Every draw is keyed
  by edge id, so a batch's sample is a pure function of
  ``(seed, epoch, batch)``.
- :class:`LaborSampler` — LABOR-style: one shared uniform ``r_u`` per
  *source* vertex, keep an edge iff ``r_u <= fanout / deg(dst)``,
  capped at ``fanout`` by smallest ``r_u``.  Matches uniform fanout's
  per-edge inclusion probability (Poisson variance matched) while
  sources shared by many frontier vertices are kept *together or not
  at all* — fewer unique neighbors, hence fewer remote feature rows.
- :class:`LadiesSampler` — layer-dependent: a fixed per-layer budget of
  ``fanout * |seeds|`` candidate sources drawn over the *union*
  frontier with probability proportional to squared incoming edge
  weight, edges reweighted by ``1 / (budget * p)`` to stay unbiased.

:class:`LegacyStreamSampler` adapts the pre-subsystem
``engines/sampling.py`` draw -- one sequential stream for shuffles and
per-vertex choices -- to the same interface for the ``distdgl``
baseline; it is the only sampler with state to checkpoint.

All draws route through :mod:`repro.utils.rng` (``derive_rng`` for
sequential streams, ``hashed_uniforms`` for keyed per-id draws); no
sampler constructs a ``np.random`` generator directly.

Batch dependency (kappa) lives in the shared loop: at the bottom layer
a hashed fraction of the frontier re-serves the previous batch's
realized neighbor lists from :class:`~repro.sampling.closure.ReuseState`
instead of sampling fresh.  The reuse decision for vertex ``v`` is
``hashed_uniforms(seed, "kappa", epoch, ids=v) < kappa`` — keyed by
epoch and vertex only — so the reused set at kappa is a subset of the
reused set at kappa' >= kappa, and (for the keyed samplers, whose fresh
draws are per-id) the fetched remote rows shrink monotonically in
kappa.
"""

from __future__ import annotations

import copy
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.blocks import build_block_from_edges
from repro.graph.graph import Graph
from repro.sampling.closure import _EMPTY, ReuseState, SampledClosure
from repro.utils.rng import derive_rng, hashed_uniforms

LayerSample = Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]

_EMPTY_LAYER: LayerSample = (_EMPTY, _EMPTY, _EMPTY, None)


def _rank_within_group(groups: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Rank of each element among its group, ordered by ``key``."""
    n = len(groups)
    order = np.lexsort((key, groups))
    sorted_groups = groups[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_groups[1:] != sorted_groups[:-1]
    starts = np.maximum.accumulate(
        np.where(new_group, np.arange(n), 0)
    )
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n) - starts
    return ranks


def _run_lengths(groups: np.ndarray) -> np.ndarray:
    """Lengths of the contiguous runs of equal values in ``groups``."""
    n = len(groups)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    boundaries = np.flatnonzero(
        np.concatenate(([True], groups[1:] != groups[:-1]))
    )
    return np.diff(np.concatenate((boundaries, [n])))


class NeighborSampler:
    """Shared top-down loop; subclasses supply one layer's draw."""

    name = "base"

    def __init__(self, fanouts, seed: int = 0):
        fanouts = tuple(int(f) for f in fanouts)
        if not fanouts or any(f <= 0 for f in fanouts):
            raise ValueError(f"fanouts must be positive, got {fanouts}")
        self.fanouts = fanouts
        self.seed = int(seed)

    # -- strategy hook -------------------------------------------------
    def _sample_layer(
        self,
        graph: Graph,
        frontier: np.ndarray,
        fanout: int,
        layer: int,
        *,
        epoch: int,
        batch: int,
        num_seeds: int,
    ) -> LayerSample:
        """Return ``(src, dst, eids, scale-or-None)`` for one layer,
        with edges grouped by ``dst`` in ``frontier`` order."""
        raise NotImplementedError

    # -- shared loop ---------------------------------------------------
    def sample_batch(
        self,
        graph: Graph,
        seeds: np.ndarray,
        *,
        worker: int = 0,
        epoch: int = 0,
        batch: int = 0,
        kappa: float = 0.0,
        state: Optional[ReuseState] = None,
    ) -> SampledClosure:
        num_layers = len(self.fanouts)
        seed_mask = np.zeros(graph.num_vertices, dtype=bool)
        seed_mask[np.asarray(seeds, dtype=np.int64)] = True
        frontier = np.flatnonzero(seed_mask)
        num_seeds = len(frontier)
        blocks = [None] * num_layers
        frontier_sizes = [num_seeds]
        total_edges = 0
        reused = eligible = 0
        reused_srcs = _EMPTY
        for l in range(num_layers, 0, -1):
            fanout = self.fanouts[num_layers - l]
            if l == 1 and kappa > 0.0 and state is not None and state.has_lists:
                sample, reused, eligible, reused_srcs = self._bottom_with_reuse(
                    graph, frontier, fanout, epoch, batch, kappa, state,
                    num_seeds,
                )
            else:
                sample = self._sample_layer(
                    graph, frontier, fanout, l, epoch=epoch, batch=batch,
                    num_seeds=num_seeds,
                )
            src, dst, eids, scale = sample
            block = build_block_from_edges(graph, frontier, src, dst, eids, l)
            if scale is not None and block.num_edges:
                block.edge_weight = block.edge_weight * scale
                block.edge_weight_rescaled = True
            blocks[l - 1] = block
            total_edges += block.num_edges
            if l == 1 and state is not None:
                state.replace(src, dst, eids, scale)
            frontier = block.input_vertices
            frontier_sizes.append(len(frontier))
        return SampledClosure(
            worker=worker,
            seeds=np.asarray(seeds, dtype=np.int64),
            blocks=blocks,
            num_sampled_edges=total_edges,
            frontier_sizes=frontier_sizes,
            reused_vertices=reused,
            reuse_eligible=eligible,
            reused_srcs=reused_srcs,
        )

    # -- kappa reuse at the bottom layer -------------------------------
    def _bottom_with_reuse(
        self,
        graph: Graph,
        frontier: np.ndarray,
        fanout: int,
        epoch: int,
        batch: int,
        kappa: float,
        state: ReuseState,
        num_seeds: int,
    ):
        u = hashed_uniforms(self.seed, "kappa", epoch, ids=frontier)
        eligible = state.contains(frontier)
        reuse_mask = eligible & (u < kappa)
        reused_vs = frontier[reuse_mask]
        fresh_vs = frontier[~reuse_mask]
        src_r, dst_r, eid_r, scale_r = state.lists_for(reused_vs)
        if len(fresh_vs):
            src_f, dst_f, eid_f, scale_f = self._sample_layer(
                graph, fresh_vs, fanout, 1, epoch=epoch, batch=batch,
                num_seeds=num_seeds,
            )
        else:
            src_f, dst_f, eid_f, scale_f = _EMPTY_LAYER
        src = np.concatenate([src_r, src_f])
        dst = np.concatenate([dst_r, dst_f])
        eids = np.concatenate([eid_r, eid_f])
        if scale_r is None and scale_f is None:
            scale = None
        else:
            if scale_r is None:
                scale_r = np.ones(len(src_r), dtype=np.float64)
            if scale_f is None:
                scale_f = np.ones(len(src_f), dtype=np.float64)
            scale = np.concatenate([scale_r, scale_f])
        reused_srcs = np.unique(src_r) if len(src_r) else _EMPTY
        sample = (src, dst, eids, scale)
        return sample, int(reuse_mask.sum()), int(eligible.sum()), reused_srcs

    def _candidates(self, graph: Graph, frontier: np.ndarray):
        """All in-edges of the frontier: ``(dst, src, eids)`` grouped
        per destination in frontier order."""
        return graph.csc.select(frontier)

    # -- epoch order and checkpointing ---------------------------------
    def shuffle_rng(self, epoch: int, worker: int) -> np.random.Generator:
        """The generator that orders ``worker``'s seeds in ``epoch``."""
        return derive_rng(self.seed, "shuffle", epoch, worker)

    def checkpoint(self, epoch: int) -> Optional[dict]:
        """Record and return the draw state after ``epoch`` completed
        epochs.  None here: keyed draws are pure in ``(seed, epoch,
        batch, ids)``, so there is nothing to save or restore."""
        return None

    def restore(self, epoch: int, state: Optional[dict] = None) -> None:
        """Return to the draw state at ``epoch`` (``state`` if given,
        else the one :meth:`checkpoint` recorded)."""


class UniformFanoutSampler(NeighborSampler):
    """At most ``fanout`` in-neighbors per vertex, uniform w/o replacement."""

    name = "uniform"

    def _sample_layer(
        self, graph, frontier, fanout, layer, *,
        epoch, batch, num_seeds,
    ) -> LayerSample:
        dst, src, eids = self._candidates(graph, frontier)
        if len(dst) == 0:
            return _EMPTY_LAYER
        # Keeping the fanout smallest of iid per-edge uniforms is a
        # uniform fanout-subset of each vertex's in-edges.  Vertices at
        # or under the fanout keep every edge, so only the over-fanout
        # groups need uniforms drawn and ranked; the kept set is
        # identical to ranking the full candidate list.
        csc = graph.csc
        counts = csc.indptr[frontier + 1] - csc.indptr[frontier]
        over = np.repeat(counts > fanout, counts)
        if not over.any():
            return src, dst, eids, None
        sel = np.flatnonzero(over)
        r = hashed_uniforms(
            self.seed, "uniform", epoch, batch, layer, ids=eids[sel]
        )
        keep = np.ones(len(dst), dtype=bool)
        keep[sel] = _rank_within_group(dst[sel], r) < fanout
        return src[keep], dst[keep], eids[keep], None


class LaborSampler(NeighborSampler):
    """LABOR-style shared per-source uniforms (Balin & Catalyurek).

    Edge ``(u, v)`` survives iff ``r_u <= fanout / deg(v)`` where
    ``r_u`` is *one* uniform per source vertex shared across every
    destination in the batch.  Per-edge inclusion probability matches
    uniform fanout, but a hub ``u`` appearing in many candidate lists
    is now sampled by all of them or none — the union frontier (and so
    the remote feature fetch) shrinks wherever candidate lists overlap.
    """

    name = "labor"

    def _sample_layer(
        self, graph, frontier, fanout, layer, *,
        epoch, batch, num_seeds,
    ) -> LayerSample:
        dst, src, eids = self._candidates(graph, frontier)
        if len(dst) == 0:
            return _EMPTY_LAYER
        csc = graph.csc
        degree = (csc.indptr[dst + 1] - csc.indptr[dst]).astype(np.float64)
        r = hashed_uniforms(self.seed, "labor", epoch, batch, layer, ids=src)
        accepted = np.flatnonzero(r * degree <= float(fanout))
        if len(accepted) == 0:
            return _EMPTY_LAYER
        # Cap at fanout per destination, keeping the smallest r_u so the
        # kept set is still a deterministic function of the uniforms.
        # Destinations whose accepted count is already within the fanout
        # need no ranking at all.
        acc_dst = dst[accepted]
        acc_counts = _run_lengths(acc_dst)
        over = np.repeat(acc_counts > fanout, acc_counts)
        if not over.any():
            keep = accepted
        else:
            sel = np.flatnonzero(over)
            ranks = _rank_within_group(acc_dst[sel], r[accepted[sel]])
            keep_mask = np.ones(len(accepted), dtype=bool)
            keep_mask[sel] = ranks < fanout
            keep = accepted[keep_mask]
        return src[keep], dst[keep], eids[keep], None


class LadiesSampler(NeighborSampler):
    """LADIES-style layer-dependent sampling over the union frontier.

    Each layer draws a fixed budget of ``fanout * |seeds| *
    budget_scale`` candidate sources (without replacement) with
    probability proportional to the squared incoming edge weight, then
    keeps every frontier edge whose source was drawn, reweighted by
    ``1 / (budget * p)`` so the aggregation stays unbiased.  The
    per-layer cost is bounded no matter how fast the frontier fans out.
    """

    name = "ladies"

    def __init__(self, fanouts, seed: int = 0, budget_scale: float = 1.0):
        super().__init__(fanouts, seed=seed)
        if budget_scale <= 0:
            raise ValueError("budget_scale must be positive")
        self.budget_scale = float(budget_scale)

    def _sample_layer(
        self, graph, frontier, fanout, layer, *,
        epoch, batch, num_seeds,
    ) -> LayerSample:
        dst, src, eids = self._candidates(graph, frontier)
        if len(dst) == 0:
            return _EMPTY_LAYER
        budget = max(1, int(round(fanout * max(num_seeds, 1) * self.budget_scale)))
        # Mask-based unique-with-inverse over the vertex space: same
        # sorted candidate array and inverse as np.unique, without the
        # per-layer sort.
        present = np.zeros(graph.num_vertices, dtype=bool)
        present[src] = True
        candidates = np.flatnonzero(present)
        row_of = np.empty(graph.num_vertices, dtype=np.int64)
        row_of[candidates] = np.arange(len(candidates), dtype=np.int64)
        inverse = row_of[src]
        if len(candidates) <= budget:
            return src, dst, eids, None
        w = graph.edge_weight[eids].astype(np.float64)
        weight = np.zeros(len(candidates))
        np.add.at(weight, inverse, w * w)
        if weight.sum() <= 0.0:
            weight[:] = 1.0
        p = weight / weight.sum()
        rng = derive_rng(self.seed, "ladies", epoch, batch, layer)
        chosen = rng.choice(len(candidates), size=budget, replace=False, p=p)
        chosen_mask = np.zeros(len(candidates), dtype=bool)
        chosen_mask[chosen] = True
        keep = chosen_mask[inverse]
        scale = 1.0 / (budget * p[inverse[keep]])
        return src[keep], dst[keep], eids[keep], scale


class LegacyStreamSampler(UniformFanoutSampler):
    """The pre-subsystem DistDGL draw order behind the sampler interface.

    One sequential stream, ``derive_rng(seed)``, feeds every draw in
    call order -- each epoch's shuffles, then one ``rng.choice`` per
    over-fanout frontier vertex -- so a draw depends on everything drawn
    before it.  That reproduces the ``distdgl`` golden trajectory bit
    for bit, and it is why this sampler, unlike the keyed ones, has
    state to checkpoint and cannot express kappa reuse.  It is an
    adapter for that one baseline, so ``make_sampler`` does not list it.
    """

    def __init__(self, fanouts, seed: int = 0):
        super().__init__(fanouts, seed=seed)
        self.rng = derive_rng(self.seed)
        # Stream position at every completed-epoch boundary, so a
        # checkpoint restore rewinds the draw order with the weights.
        self._epoch_states: Dict[int, dict] = {}
        self.checkpoint(0)

    def sample_batch(self, graph: Graph, seeds: np.ndarray, **kwargs):
        if kwargs.get("kappa", 0.0) > 0.0:
            raise ValueError(
                "the legacy sequential stream cannot express kappa reuse"
            )
        return super().sample_batch(graph, seeds, **kwargs)

    def _sample_layer(
        self, graph, frontier, fanout, layer, *,
        epoch, batch, num_seeds,
    ) -> LayerSample:
        # Bit-for-bit the pre-subsystem DistDGL engine loop: ascending
        # frontier, one sequential rng.choice per high-degree vertex.
        csc = graph.csc
        src_parts, dst_parts, eid_parts = [], [], []
        for v in frontier:
            lo, hi = csc.indptr[v], csc.indptr[v + 1]
            degree = hi - lo
            if degree == 0:
                continue
            if degree <= fanout:
                take = np.arange(lo, hi)
            else:
                take = lo + self.rng.choice(degree, size=fanout, replace=False)
            src_parts.append(csc.other[take])
            dst_parts.append(csc.key[take])
            eid_parts.append(csc.edge_ids[take])
        if not src_parts:
            return _EMPTY_LAYER
        return (
            np.concatenate(src_parts),
            np.concatenate(dst_parts),
            np.concatenate(eid_parts),
            None,
        )

    def shuffle_rng(self, epoch: int, worker: int) -> np.random.Generator:
        return self.rng

    def checkpoint(self, epoch: int) -> dict:
        # The state getter builds a fresh dict on every read.
        self._epoch_states[epoch] = self.rng.bit_generator.state
        return self.rng.bit_generator.state

    def restore(self, epoch: int, state: Optional[dict] = None) -> None:
        # Without this the stream keeps the draws it made in the epochs
        # being rolled back, so the replay would sample different
        # mini-batches and silently diverge from an uninterrupted run.
        self._epoch_states = {
            e: s for e, s in self._epoch_states.items() if e <= epoch
        }
        if state is not None:
            self._epoch_states[epoch] = copy.deepcopy(state)
        if epoch in self._epoch_states:
            self.rng.bit_generator.state = self._epoch_states[epoch]


_SAMPLERS = {
    UniformFanoutSampler.name: UniformFanoutSampler,
    LaborSampler.name: LaborSampler,
    LadiesSampler.name: LadiesSampler,
}

SAMPLER_NAMES = tuple(sorted(_SAMPLERS))


def make_sampler(name: str, fanouts, seed: int = 0, **kwargs) -> NeighborSampler:
    """Instantiate a sampler by registry name."""
    try:
        cls = _SAMPLERS[name]
    except KeyError:
        raise ValueError(
            f"unknown sampler {name!r}; choose from {sorted(_SAMPLERS)}"
        ) from None
    return cls(fanouts, seed=seed, **kwargs)
