"""Deterministic synthetic graph generators.

The paper evaluates on web/social graphs whose relevant properties for
the DepCache/DepComm tradeoff are vertex count, average degree, and
degree skew.  We regenerate graphs matching those shapes:

- :func:`locality_graph` -- web/social graphs whose id locality sets
  how many dependencies are remote.
- :func:`community` -- planted-partition graphs with dense intra-block
  connectivity and label-correlated features, standing in for Reddit
  (high average degree + homophily, so accuracy experiments converge).
- :func:`erdos_renyi`, :func:`ring`, :func:`chain` -- simple shapes
  for tests and probing.

All generators are deterministic in their ``seed``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graph.graph import Graph

#: Share of a community graph's edges that stay inside the
#: destination's community (:func:`community`, :func:`scaled_social`).
INTRA_FRACTION = 0.9
# :func:`_inverse_cdf`'s bucket table holds at most this many buckets
# per CDF entry, and its walk takes at most this many steps before the
# queries it has not settled go to ``np.searchsorted``.
TABLE_PER_ENTRY = 16
WALK_STEPS = 4
# Queries per walk block: a block's temporaries stay cache-sized and
# add no resident memory next to a graph-sized draw.
WALK_BLOCK = 1 << 15
# Float64 noise values :func:`attach_features` draws per block.
NOISE_BLOCK = 1 << 16


def _require(name: str, value, low) -> None:
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _inverse_cdf(cdf: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, values)`` (``side="left"``) for a
    non-decreasing ``cdf`` with ``cdf[-1] > 0`` and ``values >= 0``.

    A table of equal-width buckets over ``[0, cdf[-1]]`` stores, per
    bucket, how many CDF entries fall in earlier buckets.  Bucketing is
    one monotone float expression applied to CDF entries and queries
    alike, so an entry in an earlier bucket than ``v`` is below ``v``:
    the stored count never passes ``v``'s answer.  Each query then steps
    forward while ``cdf[i] < v`` -- exactly the left insertion point,
    ties included.  Buckets as narrow as the smallest CDF gap hold about
    one entry each, so nearly every query settles in one step.
    """
    n = len(cdf)
    top = cdf[-1]
    gaps = np.diff(cdf)
    gaps = gaps[gaps > 0]
    buckets = int(min(top / gaps.min() if len(gaps) else 1.0,
                      TABLE_PER_ENTRY * n)) + 1
    scale = buckets / top
    entry_bucket = np.minimum((cdf * scale).astype(np.int64), buckets - 1)
    before = np.zeros(buckets, dtype=np.int64)
    np.cumsum(np.bincount(entry_bucket, minlength=buckets)[:-1], out=before[1:])
    # A +inf sentinel stops every walk at ``n``.
    padded = np.append(cdf, np.inf)
    index = np.empty(len(values), dtype=np.int64)
    for lo in range(0, len(values), WALK_BLOCK):
        v = values[lo:lo + WALK_BLOCK]
        at = before[np.minimum((v * scale).astype(np.int64), buckets - 1)]
        active = np.flatnonzero(padded[at] < v)
        for _ in range(WALK_STEPS):
            if not len(active):
                break
            at[active] += 1
            active = active[padded[at[active]] < v[active]]
        if len(active):
            at[active] = np.searchsorted(cdf, v[active])
        index[lo:lo + WALK_BLOCK] = at
    return index


def _first_copies(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Positions of the first copy of every distinct edge that is not a
    self loop, in input order."""
    num_edges = len(src)
    if num_edges == 0:
        return np.zeros(0, dtype=np.int64)
    key = np.multiply(src, int(dst.max()) + 1, dtype=np.int64)
    key += dst
    # Self loops share one key that sorts first; its run is dropped.
    loops = src == dst
    loop_runs = int(loops.any())
    key[loops] = -1
    del loops
    # ``key << bits | position`` sorts by key, then position, as plain
    # int64 -- several times faster than the stable argsort behind
    # ``np.unique(return_index=True)`` -- and the head of every key run
    # carries the first position.
    bits = num_edges.bit_length()
    if int(key.max()).bit_length() + bits > 62:
        _, first = np.unique(key, return_index=True)
        first = first[loop_runs:]
    else:
        key <<= bits
        key |= np.arange(num_edges)
        key.sort()
        run = key >> bits
        is_head = np.empty(num_edges, dtype=bool)
        is_head[0] = not loop_runs
        np.not_equal(run[1:], run[:-1], out=is_head[1:])
        del run
        key &= (1 << bits) - 1
        first = key[is_head]
    first.sort()
    return first


def _dedup(src: np.ndarray, dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Remove duplicate edges and self loops; the first copy of every
    edge stays, in input order."""
    first = _first_copies(src, dst)
    return src[first], dst[first]


def locality_graph(
    num_vertices: int,
    num_edges: int,
    locality_width: float = 0.01,
    global_fraction: float = 0.1,
    hub_exponent: float = 0.0,
    seed: int = 0,
) -> Graph:
    """Web/social graph with an explicit locality model.

    Most edges connect nearby vertex ids: ``src = dst + offset`` with a
    Laplace-distributed offset of scale ``locality_width * num_vertices``.
    A ``global_fraction`` of edges connect uniformly random endpoints,
    optionally biased toward low-id hubs with a Zipf-like weight
    ``(rank+1)^-hub_exponent`` (degree skew).

    Chunk partitioning assigns contiguous id ranges to workers, so
    ``locality_width`` directly controls how many dependencies are
    remote: small width = web-graph-like (DepCache-friendly), large
    ``global_fraction`` = social-network-like (DepComm-friendly).
    """
    _require("num_vertices", num_vertices, 1)
    _require("num_edges", num_edges, 0)
    if not 0 <= global_fraction <= 1:
        raise ValueError("global_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    want = int(num_edges * 1.3) + 16
    dst = rng.integers(0, num_vertices, size=want)
    offsets = np.round(
        rng.laplace(0.0, max(locality_width * num_vertices, 1.0), size=want)
    ).astype(np.int64)
    src = (dst + offsets) % num_vertices
    is_global = rng.random(want) < global_fraction
    n_global = int(is_global.sum())
    if n_global:
        if hub_exponent > 0:
            weights = 1.0 / np.power(np.arange(1, num_vertices + 1), hub_exponent)
            weights /= weights.sum()
            src[is_global] = rng.choice(num_vertices, size=n_global, p=weights)
        else:
            src[is_global] = rng.integers(0, num_vertices, size=n_global)
    first = _first_copies(src, dst)[:num_edges]
    return Graph(num_vertices, src[first], dst[first], name="locality_graph")


def erdos_renyi(num_vertices: int, num_edges: int, seed: int = 0) -> Graph:
    """Uniform random directed graph with ``num_edges`` distinct edges."""
    _require("num_vertices", num_vertices, 1)
    _require("num_edges", num_edges, 0)
    rng = np.random.default_rng(seed)
    want = int(num_edges * 1.2) + 16
    src = rng.integers(0, num_vertices, size=want)
    dst = rng.integers(0, num_vertices, size=want)
    first = _first_copies(src, dst)[:num_edges]
    return Graph(num_vertices, src[first], dst[first], name="erdos_renyi")


def community(
    num_vertices: int,
    num_communities: int,
    avg_degree: float,
    seed: int = 0,
) -> Graph:
    """Planted-partition graph: dense blocks with a little inter-block glue.

    Vertex ``v`` belongs to community ``v % num_communities``; an
    ``INTRA_FRACTION`` of each vertex's edges land inside its community.
    Labels (set by the dataset loader) follow communities, giving the
    homophily real social graphs have and letting GNN accuracy climb.
    """
    _require("num_vertices", num_vertices, 1)
    _require("num_communities", num_communities, 1)
    _require("avg_degree", avg_degree, 0)
    rng = np.random.default_rng(seed)
    membership = np.arange(num_vertices, dtype=np.int64) % num_communities
    members = [np.where(membership == c)[0] for c in range(num_communities)]
    target_edges = int(num_vertices * avg_degree)
    collected_src = [np.empty(0, dtype=np.int64)]
    collected_dst = [np.empty(0, dtype=np.int64)]
    collected = 0
    # Dense blocks saturate the intra-community pair space, so sampling
    # with replacement loses many duplicates; keep drawing until we hit
    # the target (or stop making progress).
    for _ in range(8):
        remaining = target_edges - collected
        if remaining <= 0:
            break
        draw = int(remaining * 1.5) + 16
        dst = rng.integers(0, num_vertices, size=draw)
        intra = rng.random(draw) < INTRA_FRACTION
        src = np.empty(draw, dtype=np.int64)
        for c in range(num_communities):
            rows = np.where(intra & (membership[dst] == c))[0]
            src[rows] = rng.choice(members[c], size=len(rows))
        inter_rows = np.where(~intra)[0]
        src[inter_rows] = rng.integers(0, num_vertices, size=len(inter_rows))
        collected_src.append(src)
        collected_dst.append(dst)
        src_all = np.concatenate(collected_src)
        dst_all = np.concatenate(collected_dst)
        src_all, dst_all = _dedup(src_all, dst_all)
        before = collected
        collected = len(src_all)
        collected_src = [src_all]
        collected_dst = [dst_all]
        if collected == before:
            break
    src_all = collected_src[0][:target_edges]
    dst_all = collected_dst[0][:target_edges]
    g = Graph(num_vertices, src_all, dst_all, name="community")
    g.communities = membership
    return g


def scaled_social(
    num_vertices: int,
    avg_degree: float = 16.0,
    num_communities: int = 32,
    hub_exponent: float = 0.85,
    seed: int = 0,
) -> Graph:
    """Large community graph with power-law source popularity.

    One-shot vectorized generation (no per-community resampling
    rounds), so 10-100x the catalog vertex counts stay cheap: every
    edge picks a uniform destination, then a *Zipf-weighted* source —
    a member of the destination's community with probability
    ``INTRA_FRACTION``, a global vertex otherwise.  Vertex ``v``'s
    community is ``v % num_communities`` and its popularity rank is
    ``v // num_communities``, so low ids are hubs both globally and
    inside every community.

    The hub skew is what makes this the right testbed for sampled
    training: hubs land in many simultaneous candidate lists, which is
    exactly the regime where LABOR's shared per-source uniforms shrink
    the union frontier relative to independent uniform fanout.
    """
    _require("num_vertices", num_vertices, 1)
    _require("num_communities", num_communities, 1)
    _require("avg_degree", avg_degree, 0)
    rng = np.random.default_rng(seed)
    n = int(num_vertices)
    membership = np.arange(n, dtype=np.int64) % num_communities
    sizes = np.full(num_communities, n // num_communities, dtype=np.int64)
    sizes[: n % num_communities] += 1
    want = int(n * avg_degree * 1.15) + 16
    dst = rng.integers(0, n, size=want)
    # Zipf rank weights: member with local rank k has weight
    # (k+1)^-hub_exponent; inverse-CDF draw per edge, truncated to the
    # destination community's size.
    max_rank = int(sizes.max())
    cdf = np.cumsum(np.arange(1, max_rank + 1, dtype=np.float64) ** -hub_exponent)
    # Every per-edge array below is as long as ``dst``: each one is
    # updated in place and dropped after its last use, so that no more
    # than four are alive at once.
    last = (sizes - 1)[membership[dst]]  # largest rank in dst's community
    draw = rng.random(want)
    draw *= cdf[last]
    src = _inverse_cdf(cdf, draw)
    del draw
    # ``rank * num_communities + community``, built on the rank array.
    np.minimum(src, last, out=src)
    del last
    src *= num_communities
    src += membership[dst]
    # Inter-community edges: a global Zipf draw over all vertex ids.
    # It stays on ``np.searchsorted``: a bucket table over all n ids
    # is slower at steep exponents, and on social-large it saved ~6 ms
    # for ~4 % more peak resident memory.
    inter = rng.random(want) >= INTRA_FRACTION
    n_inter = int(inter.sum())
    if n_inter:
        global_cdf = np.cumsum(
            np.arange(1, n + 1, dtype=np.float64) ** -hub_exponent
        )
        pick = np.searchsorted(
            global_cdf, rng.random(n_inter) * global_cdf[-1]
        )
        src[inter] = np.minimum(pick, n - 1)
    del inter
    first = _first_copies(src, dst)[: int(n * avg_degree)]
    src = src[first]
    dst = dst[first]
    del first
    g = Graph(n, src, dst, name="scaled_social")
    g.communities = membership
    return g


def citation(
    num_vertices: int,
    avg_degree: float = 2.0,
    seed: int = 0,
) -> Graph:
    """Preferential-attachment DAG shaped like a citation network.

    Each new paper cites a few earlier papers, preferring already
    well-cited ones; degrees stay small and the graph is acyclic.
    """
    rng = np.random.default_rng(seed)
    cites_per_vertex = max(1, int(round(avg_degree)))
    src_list = []
    dst_list = []
    # Citation edges point new -> old; an in-edge of an old paper.
    attractiveness = np.ones(num_vertices, dtype=np.float64)
    for v in range(1, num_vertices):
        k = min(cites_per_vertex, v)
        weights = attractiveness[:v] / attractiveness[:v].sum()
        cited = rng.choice(v, size=k, replace=False, p=weights)
        for u in cited:
            src_list.append(v)
            dst_list.append(u)
            attractiveness[u] += 1.0
    src = np.asarray(src_list, dtype=np.int64)
    dst = np.asarray(dst_list, dtype=np.int64)
    return Graph(num_vertices, src, dst, name="citation")


def ring(num_vertices: int) -> Graph:
    """Directed cycle 0 -> 1 -> ... -> 0 (one in-edge per vertex)."""
    src = np.arange(num_vertices, dtype=np.int64)
    dst = (src + 1) % num_vertices
    return Graph(num_vertices, src, dst, name="ring")


def chain(num_vertices: int) -> Graph:
    """Directed path 0 -> 1 -> ... -> n-1."""
    src = np.arange(num_vertices - 1, dtype=np.int64)
    dst = src + 1
    return Graph(num_vertices, src, dst, name="chain")


def attach_features(
    graph: Graph,
    feature_dim: int,
    num_classes: int,
    seed: int = 0,
    class_signal: float = 1.0,
    label_noise: float = 0.0,
) -> Graph:
    """Synthesize features and labels on an existing structure.

    If the generator left a ``communities`` array on the graph, labels
    follow communities and features are class-mean Gaussians (learnable
    signal); otherwise labels are random and features pure noise, which
    is fine for the performance (non-accuracy) experiments.

    ``label_noise`` flips that fraction of labels to random classes,
    capping the achievable test accuracy below 100% the way real-world
    label ambiguity does (used to mimic Reddit's ~95% ceiling).
    """
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    membership = getattr(graph, "communities", None)
    if membership is not None:
        labels = membership % num_classes
    else:
        labels = rng.integers(0, num_classes, size=n)
    if label_noise > 0:
        flip = rng.random(n) < label_noise
        labels = np.where(flip, rng.integers(0, num_classes, size=n), labels)
    means = rng.standard_normal((num_classes, feature_dim)).astype(np.float32)
    # ``class_signal * means[labels] + noise`` in place: the float64
    # noise is drawn (the same stream as one draw) and rounded to
    # float32 a block of rows at a time.
    features = means[labels]
    features *= class_signal
    rows = max(1, NOISE_BLOCK // max(feature_dim, 1))
    for lo in range(0, n, rows):
        block = features[lo:lo + rows]
        block += rng.standard_normal(block.shape).astype(np.float32)
    graph.features = features
    graph.labels = labels.astype(np.int64)
    graph.num_classes = num_classes
    graph.set_split(rng=rng)
    return graph
