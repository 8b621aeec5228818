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

The loop samples a whole round at once: ``sample_batch`` takes
``{worker: seeds}`` and, per layer, gathers the candidates of every
worker's frontier in one ``select``, hashes them in one keyed draw and
ranks them in one sort; each worker's block is then built from its own
slice.  No key holds the worker, so a worker's closure is the same
whether it is drawn alone or with its round.

All draws route through :mod:`repro.utils.rng` (``derive_rng`` for
the per-(epoch, worker) shuffles and LADIES' per-layer draw,
``hashed_uniforms`` for keyed per-id draws); no sampler constructs a
``np.random`` generator directly.  Every draw is a pure function of
``(seed, epoch, batch, ids)``, so a sampler has no state: a rollback
to an earlier epoch replays its draws with nothing saved.

Batch dependency (kappa) lives in the shared loop: at the bottom layer
a hashed fraction of the frontier re-serves the previous batch's
realized neighbor lists from :class:`~repro.sampling.closure.ReuseState`
instead of sampling fresh.  The reuse decision for vertex ``v`` is
``hashed_uniforms(seed, "kappa", epoch, ids=v) < kappa`` — keyed by
epoch and vertex only — so the reused set at kappa is a subset of the
reused set at kappa' >= kappa, and (for uniform and LABOR, whose fresh
draws are per-id) the fetched remote rows shrink monotonically in
kappa.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.blocks import build_block_from_edges
from repro.graph.graph import Graph
from repro.sampling.closure import _EMPTY, ReuseState, SampledClosure
from repro.utils.rng import derive_rng, hashed_uint64, hashed_uniforms

LayerSample = Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]

_EMPTY_LAYER: LayerSample = (_EMPTY, _EMPTY, _EMPTY, None)

# ``hashed_uniforms`` is ``(hashed_uint64 >> 11) * 2**-53``: ranking the
# 53-bit integers ranks the uniforms, and the 11 bits above them hold a
# run ordinal, so one argsort ranks up to 2048 runs.
_KEY_SHIFT = np.uint64(11)
_KEY_BITS = np.uint64(53)
_RUNS_PER_SORT = 1 << 11
_UNIT = float(2.0**-53)


def _rank_within_runs(counts: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Rank of each element within its run, ordered by ``keys``.

    ``counts`` are the lengths of the consecutive runs that partition
    ``keys`` (``uint64`` values below ``2**53``).  Equal keys rank in
    input order, exactly as a stable sort by ``(run, key)`` does: the
    unstable sort of the packed keys is kept only when no two of them
    tie.
    """
    ranks = np.empty(len(keys), dtype=np.int64)
    ends = np.cumsum(counts)
    starts = ends - counts
    for lo in range(0, len(counts), _RUNS_PER_SORT):
        runs = counts[lo: lo + _RUNS_PER_SORT]
        a, b = starts[lo], ends[lo + len(runs) - 1]
        ordinal = np.repeat(np.arange(len(runs), dtype=np.uint64), runs)
        packed = (ordinal << _KEY_BITS) | keys[a:b]
        order = np.argsort(packed)
        ordered = packed[order]
        if (ordered[1:] == ordered[:-1]).any():
            order = np.argsort(packed, kind="stable")
        run_start = np.repeat(starts[lo: lo + len(runs)] - a, runs)
        ranks[a:b][order] = np.arange(b - a) - run_start
    return ranks


def _prefix_at(counts: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``counts[:o].sum()`` for each ``o`` in ``offsets``: per-position
    edge counts and the workers' position offsets give the workers'
    edge offsets."""
    return np.concatenate(([0], np.cumsum(counts)))[offsets]


def _split(src, dst, eids, bounds) -> List[LayerSample]:
    """One unscaled ``LayerSample`` per segment ``[bounds[i], bounds[i+1])``."""
    return [
        (src[a:b], dst[a:b], eids[a:b], None)
        for a, b in zip(bounds[:-1], bounds[1:])
    ]


class Candidates(NamedTuple):
    """Every in-edge of a round's concatenated frontiers, gathered once.

    Edges are grouped by frontier *position*, in position order: two
    workers' frontiers can hold the same vertex, so a vertex id does not
    name a group.  Worker ``i``'s frontier is positions
    ``offsets[i]:offsets[i+1]`` and its edges are
    ``bounds[i]:bounds[i+1]``.
    """

    dst: np.ndarray
    src: np.ndarray
    eids: np.ndarray
    degrees: np.ndarray
    offsets: np.ndarray
    bounds: np.ndarray


class NeighborSampler:
    """Shared top-down loop over a round; subclasses supply one layer's
    draw."""

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
        frontiers: List[np.ndarray],
        fanout: int,
        layer: int,
        *,
        epoch: int,
        batch: int,
        num_seeds: List[int],
    ) -> List[LayerSample]:
        """Return one ``(src, dst, eids, scale-or-None)`` per frontier
        of the round, with edges grouped by ``dst`` in frontier order.
        ``num_seeds[i]`` is frontier ``i``'s worker's seed count."""
        raise NotImplementedError

    # -- shared loop ---------------------------------------------------
    def sample_batch(
        self,
        graph: Graph,
        seeds: Mapping[int, np.ndarray],
        *,
        epoch: int = 0,
        batch: int = 0,
        kappa: float = 0.0,
        state: Optional[Mapping[int, ReuseState]] = None,
    ) -> Dict[int, SampledClosure]:
        """Sample round ``batch``: ``{worker: seeds}`` in,
        ``{worker: SampledClosure}`` out, in the mapping's order.

        ``state`` maps a worker to its :class:`ReuseState` (kappa reuse
        at the bottom layer); a worker it does not name reuses nothing.
        No draw is keyed by the worker, so a worker's closure is the
        same whether it is sampled alone or with its round.
        """
        workers = list(seeds)
        if not workers:
            return {}
        seed_ids = [self._checked_seeds(graph, w, seeds[w]) for w in workers]
        states = [None if state is None else state.get(w) for w in workers]
        frontiers = [np.unique(s) for s in seed_ids]
        num_seeds = [len(f) for f in frontiers]
        num_layers = len(self.fanouts)
        blocks = [[None] * num_layers for _ in workers]
        frontier_sizes = [[n] for n in num_seeds]
        reuse = [(0, 0, _EMPTY)] * len(workers)
        for l in range(num_layers, 0, -1):
            fanout = self.fanouts[num_layers - l]
            if l == 1 and kappa > 0.0:
                samples, reuse = self._bottom_with_reuse(
                    graph, frontiers, fanout, epoch, batch, kappa, states,
                    num_seeds,
                )
            else:
                samples = self._sample_layer(
                    graph, frontiers, fanout, l, epoch=epoch, batch=batch,
                    num_seeds=num_seeds,
                )
            for i, (src, dst, eids, scale) in enumerate(samples):
                block = build_block_from_edges(graph, frontiers[i], src, dst, eids)
                if scale is not None and block.num_edges:
                    block.edge_weight = block.edge_weight * scale
                    block.edge_weight_rescaled = True
                blocks[i][l - 1] = block
                if l == 1 and states[i] is not None:
                    states[i].replace(src, dst, eids, scale)
                frontiers[i] = block.input_vertices
                frontier_sizes[i].append(len(block.input_vertices))
        return {
            w: SampledClosure(
                worker=w,
                seeds=seed_ids[i],
                blocks=blocks[i],
                num_sampled_edges=sum(b.num_edges for b in blocks[i]),
                frontier_sizes=frontier_sizes[i],
                reused_vertices=reuse[i][0],
                reuse_eligible=reuse[i][1],
                reused_srcs=reuse[i][2],
            )
            for i, w in enumerate(workers)
        }

    @staticmethod
    def _checked_seeds(graph: Graph, worker: int, seeds) -> np.ndarray:
        seeds = np.asarray(seeds, dtype=np.int64)
        bad = seeds[(seeds < 0) | (seeds >= graph.num_vertices)]
        if len(bad):
            raise ValueError(
                f"worker {worker}: seed {int(bad[0])} is not a vertex id "
                f"(the graph has {graph.num_vertices} vertices)"
            )
        return seeds

    # -- kappa reuse at the bottom layer -------------------------------
    def _bottom_with_reuse(
        self,
        graph: Graph,
        frontiers: List[np.ndarray],
        fanout: int,
        epoch: int,
        batch: int,
        kappa: float,
        states: List[Optional[ReuseState]],
        num_seeds: List[int],
    ):
        """Each worker with stored lists re-serves a hashed fraction of
        its frontier; every worker's fresh rows share one draw.  A
        worker's edges are its reused lists first, then its fresh rows."""
        u = hashed_uniforms(
            self.seed, "kappa", epoch, ids=np.concatenate(frontiers)
        )
        offsets = np.cumsum([0] + [len(f) for f in frontiers])
        masks, fresh = [], []
        for i, (frontier, state) in enumerate(zip(frontiers, states)):
            if state is None or not state.has_lists:
                masks.append(None)
                fresh.append(frontier)
                continue
            eligible = state.contains(frontier)
            reuse_mask = eligible & (u[offsets[i]: offsets[i + 1]] < kappa)
            masks.append((reuse_mask, eligible))
            fresh.append(frontier[~reuse_mask])
        fresh_samples = self._sample_layer(
            graph, fresh, fanout, 1, epoch=epoch, batch=batch,
            num_seeds=num_seeds,
        )
        samples, reuse = [], []
        for i, sample in enumerate(fresh_samples):
            if masks[i] is None:
                samples.append(sample)
                reuse.append((0, 0, _EMPTY))
                continue
            reuse_mask, eligible = masks[i]
            src_r, dst_r, eid_r, scale_r = states[i].lists_for(
                frontiers[i][reuse_mask]
            )
            src_f, dst_f, eid_f, scale_f = sample
            if scale_r is None and scale_f is None:
                scale = None
            else:
                if scale_r is None:
                    scale_r = np.ones(len(src_r), dtype=np.float64)
                if scale_f is None:
                    scale_f = np.ones(len(src_f), dtype=np.float64)
                scale = np.concatenate([scale_r, scale_f])
            samples.append((
                np.concatenate([src_r, src_f]),
                np.concatenate([dst_r, dst_f]),
                np.concatenate([eid_r, eid_f]),
                scale,
            ))
            reused_srcs = np.unique(src_r) if len(src_r) else _EMPTY
            reuse.append(
                (int(reuse_mask.sum()), int(eligible.sum()), reused_srcs)
            )
        return samples, reuse

    def _candidates(self, graph: Graph, frontiers: List[np.ndarray]) -> Candidates:
        """All in-edges of the round's frontiers in one gather."""
        frontier = np.concatenate(frontiers)
        degrees, src, eids = graph.csc.select(frontier)
        dst = np.repeat(frontier, degrees)
        offsets = np.cumsum([0] + [len(f) for f in frontiers])
        return Candidates(
            dst, src, eids, degrees, offsets,
            _prefix_at(degrees, offsets),
        )

    # -- epoch order --------------------------------------------------
    def shuffle_rng(self, epoch: int, worker: int) -> np.random.Generator:
        """The generator that orders ``worker``'s seeds in ``epoch``."""
        return derive_rng(self.seed, "shuffle", epoch, worker)


class UniformFanoutSampler(NeighborSampler):
    """At most ``fanout`` in-neighbors per vertex, uniform w/o replacement."""

    name = "uniform"

    def _sample_layer(
        self, graph, frontiers, fanout, layer, *,
        epoch, batch, num_seeds,
    ) -> List[LayerSample]:
        cand = self._candidates(graph, frontiers)
        # Keeping the fanout smallest of iid per-edge uniforms is a
        # uniform fanout-subset of each vertex's in-edges.  Vertices at
        # or under the fanout keep every edge, so only the over-fanout
        # groups need uniforms drawn and ranked; the kept set is
        # identical to ranking the full candidate list.
        over_groups = cand.degrees > fanout
        if not over_groups.any():
            return _split(cand.src, cand.dst, cand.eids, cand.bounds)
        sel = np.flatnonzero(np.repeat(over_groups, cand.degrees))
        keys = hashed_uint64(
            self.seed, "uniform", epoch, batch, layer, ids=cand.eids[sel]
        ) >> _KEY_SHIFT
        keep = np.ones(len(cand.dst), dtype=bool)
        keep[sel] = _rank_within_runs(cand.degrees[over_groups], keys) < fanout
        kept = np.minimum(cand.degrees, fanout)
        return _split(
            cand.src[keep], cand.dst[keep], cand.eids[keep],
            _prefix_at(kept, cand.offsets),
        )


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
        self, graph, frontiers, fanout, layer, *,
        epoch, batch, num_seeds,
    ) -> List[LayerSample]:
        cand = self._candidates(graph, frontiers)
        keys = hashed_uint64(
            self.seed, "labor", epoch, batch, layer, ids=cand.src
        ) >> _KEY_SHIFT
        degree = np.repeat(cand.degrees, cand.degrees).astype(np.float64)
        accept = keys * _UNIT * degree <= float(fanout)
        # Cap at fanout per destination, keeping the smallest r_u so the
        # kept set is still a deterministic function of the uniforms.
        # Destinations whose accepted count is already within the fanout
        # need no ranking at all.
        accepted = np.flatnonzero(accept)
        edge_offsets = np.concatenate(([0], np.cumsum(cand.degrees)))
        acc_counts = np.diff(_prefix_at(accept, edge_offsets))
        over_groups = acc_counts > fanout
        if over_groups.any():
            sel = np.flatnonzero(np.repeat(over_groups, acc_counts))
            ranks = _rank_within_runs(
                acc_counts[over_groups], keys[accepted[sel]]
            )
            keep_mask = np.ones(len(accepted), dtype=bool)
            keep_mask[sel] = ranks < fanout
            accepted = accepted[keep_mask]
        return _split(
            cand.src[accepted], cand.dst[accepted], cand.eids[accepted],
            _prefix_at(np.minimum(acc_counts, fanout), cand.offsets),
        )


class LadiesSampler(NeighborSampler):
    """LADIES-style layer-dependent sampling over the union frontier.

    Each layer draws a fixed budget of ``fanout * |seeds|``
    candidate sources (without replacement) with
    probability proportional to the squared incoming edge weight, then
    keeps every frontier edge whose source was drawn, reweighted by
    ``1 / (budget * p)`` so the aggregation stays unbiased.  The
    per-layer cost is bounded no matter how fast the frontier fans out.
    The budget and the draw are per worker, so the round's gather is
    shared and the choice runs once per worker segment.
    """

    name = "ladies"

    def _sample_layer(
        self, graph, frontiers, fanout, layer, *,
        epoch, batch, num_seeds,
    ) -> List[LayerSample]:
        cand = self._candidates(graph, frontiers)
        return [
            self._choose(
                graph, cand.src[a:b], cand.dst[a:b], cand.eids[a:b],
                fanout * max(n, 1), epoch, batch, layer,
            )
            for a, b, n in zip(cand.bounds[:-1], cand.bounds[1:], num_seeds)
        ]

    def _choose(
        self, graph, src, dst, eids, budget, epoch, batch, layer,
    ) -> LayerSample:
        if len(dst) == 0:
            return _EMPTY_LAYER
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
