"""Deterministic synthetic graph generators.

The paper evaluates on web/social graphs whose relevant properties for
the DepCache/DepComm tradeoff are vertex count, average degree, and
degree skew.  We regenerate graphs matching those shapes:

- :func:`rmat` -- recursive-matrix graphs (Chakrabarti et al.) with a
  tunable skew, standing in for web and social networks.
- :func:`community` -- planted-partition graphs with dense intra-block
  connectivity and label-correlated features, standing in for Reddit
  (high average degree + homophily, so accuracy experiments converge).
- :func:`erdos_renyi`, :func:`ring`, :func:`star`, :func:`chain`,
  :func:`complete` -- simple shapes for tests and probing.

All generators are deterministic in their ``seed``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graph.graph import Graph


def _dedup(src: np.ndarray, dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Remove duplicate edges and self loops; the first copy of every
    edge stays, in input order."""
    keep = src != dst
    src, dst = src[keep], dst[keep]
    num_edges = len(src)
    if num_edges == 0:
        return src, dst
    key = src.astype(np.int64) * (int(dst.max()) + 1) + dst
    # ``key << bits | position`` sorts by key, then position, as plain
    # int64 -- several times faster than the stable argsort behind
    # ``np.unique(return_index=True)`` -- and the head of every key run
    # carries the first position.
    bits = num_edges.bit_length()
    if int(key.max()).bit_length() + bits > 62:
        _, first = np.unique(key, return_index=True)
    else:
        packed = (key << bits) | np.arange(num_edges)
        packed.sort()
        run = packed >> bits
        is_head = np.empty(num_edges, dtype=bool)
        is_head[0] = True
        np.not_equal(run[1:], run[:-1], out=is_head[1:])
        first = packed[is_head] & ((1 << bits) - 1)
    first.sort()
    return src[first], dst[first]


def rmat(
    num_vertices: int,
    num_edges: int,
    a: float = 0.45,
    b: float = 0.15,
    c: float = 0.15,
    seed: int = 0,
    bidirectional: bool = False,
) -> Graph:
    """R-MAT generator: recursively choose a quadrant per bit of the id.

    ``a + b + c + d = 1`` with ``d = 1 - a - b - c``.  The quadrant
    weights control two properties that matter for the reproduction:

    - *skew*: asymmetry between ``a`` and ``d`` concentrates edges on
      low-id hubs (power-law-like degrees);
    - *locality*: diagonal dominance (``a + d`` large) makes src and dst
      share high-order id bits, so edges connect nearby ids.  Chunk
      partitioning assigns contiguous id ranges to workers, so high
      locality means few remote dependencies --- the property that makes
      web graphs (Google) DepCache-friendly and social networks (Pokec)
      DepComm-friendly.

    Duplicate edges and self loops are dropped; we oversample by 25% to
    roughly compensate.
    """
    d = 1.0 - a - b - c
    if d < 0:
        raise ValueError("rmat probabilities must sum to at most 1")
    rng = np.random.default_rng(seed)
    bits = max(1, int(np.ceil(np.log2(max(num_vertices, 2)))))
    want = int(num_edges * 1.25) + 16
    src = np.zeros(want, dtype=np.int64)
    dst = np.zeros(want, dtype=np.int64)
    for _ in range(bits):
        r = rng.random(want)
        src_bit = (r >= a + b).astype(np.int64)
        # Quadrants: a -> (0,0), b -> (0,1), c -> (1,0), d -> (1,1).
        dst_bit = ((r >= a) & (r < a + b) | (r >= a + b + c)).astype(np.int64)
        src = src * 2 + src_bit
        dst = dst * 2 + dst_bit
    src %= num_vertices
    dst %= num_vertices
    src, dst = _dedup(src, dst)
    src, dst = src[:num_edges], dst[:num_edges]
    if bidirectional:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        src, dst = _dedup(src, dst)
    return Graph(num_vertices, src, dst, name="rmat")


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
    src, dst = _dedup(src, dst)
    return Graph(
        num_vertices, src[:num_edges], dst[:num_edges], name="locality_graph"
    )


def erdos_renyi(num_vertices: int, num_edges: int, seed: int = 0) -> Graph:
    """Uniform random directed graph with ``num_edges`` distinct edges."""
    rng = np.random.default_rng(seed)
    want = int(num_edges * 1.2) + 16
    src = rng.integers(0, num_vertices, size=want)
    dst = rng.integers(0, num_vertices, size=want)
    src, dst = _dedup(src, dst)
    return Graph(num_vertices, src[:num_edges], dst[:num_edges], name="erdos_renyi")


def community(
    num_vertices: int,
    num_communities: int,
    avg_degree: float,
    intra_fraction: float = 0.9,
    seed: int = 0,
) -> Graph:
    """Planted-partition graph: dense blocks with a little inter-block glue.

    Vertex ``v`` belongs to community ``v % num_communities``; an
    ``intra_fraction`` of each vertex's edges land inside its community.
    Labels (set by the dataset loader) follow communities, giving the
    homophily real social graphs have and letting GNN accuracy climb.
    """
    if num_communities < 1:
        raise ValueError("need at least one community")
    rng = np.random.default_rng(seed)
    membership = np.arange(num_vertices, dtype=np.int64) % num_communities
    members = [np.where(membership == c)[0] for c in range(num_communities)]
    target_edges = int(num_vertices * avg_degree)
    collected_src = []
    collected_dst = []
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
        intra = rng.random(draw) < intra_fraction
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
    intra_fraction: float = 0.9,
    hub_exponent: float = 0.85,
    seed: int = 0,
) -> Graph:
    """Large community graph with power-law source popularity.

    One-shot vectorized generation (no per-community resampling
    rounds), so 10-100x the catalog vertex counts stay cheap: every
    edge picks a uniform destination, then a *Zipf-weighted* source —
    a member of the destination's community with probability
    ``intra_fraction``, a global vertex otherwise.  Vertex ``v``'s
    community is ``v % num_communities`` and its popularity rank is
    ``v // num_communities``, so low ids are hubs both globally and
    inside every community.

    The hub skew is what makes this the right testbed for sampled
    training: hubs land in many simultaneous candidate lists, which is
    exactly the regime where LABOR's shared per-source uniforms shrink
    the union frontier relative to independent uniform fanout.
    """
    if num_communities < 1:
        raise ValueError("need at least one community")
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
    dst_sizes = sizes[membership[dst]]
    rank = np.searchsorted(cdf, rng.random(want) * cdf[dst_sizes - 1])
    rank = np.minimum(rank, dst_sizes - 1)
    src = rank.astype(np.int64) * num_communities + membership[dst]
    # Inter-community edges: a global Zipf draw over all vertex ids.
    inter = rng.random(want) >= intra_fraction
    n_inter = int(inter.sum())
    if n_inter:
        global_cdf = np.cumsum(
            np.arange(1, n + 1, dtype=np.float64) ** -hub_exponent
        )
        pick = np.searchsorted(
            global_cdf, rng.random(n_inter) * global_cdf[-1]
        )
        src[inter] = np.minimum(pick, n - 1)
    src, dst = _dedup(src, dst)
    target_edges = int(n * avg_degree)
    g = Graph(n, src[:target_edges], dst[:target_edges], name="scaled_social")
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


def star(num_leaves: int, inward: bool = True) -> Graph:
    """Star graph; ``inward=True`` points leaves at the hub (vertex 0)."""
    leaves = np.arange(1, num_leaves + 1, dtype=np.int64)
    hub = np.zeros(num_leaves, dtype=np.int64)
    if inward:
        return Graph(num_leaves + 1, leaves, hub, name="star")
    return Graph(num_leaves + 1, hub, leaves, name="star")


def complete(num_vertices: int) -> Graph:
    """Complete directed graph without self loops."""
    grid_src, grid_dst = np.meshgrid(
        np.arange(num_vertices), np.arange(num_vertices), indexing="ij"
    )
    src = grid_src.reshape(-1)
    dst = grid_dst.reshape(-1)
    keep = src != dst
    return Graph(num_vertices, src[keep], dst[keep], name="complete")


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
    noise = rng.standard_normal((n, feature_dim)).astype(np.float32)
    graph.features = class_signal * means[labels] + noise
    graph.labels = labels.astype(np.int64)
    graph.num_classes = num_classes
    graph.set_split(rng=rng)
    return graph
