"""Dataset catalog mirroring the paper's Table 2, scaled to laptop size.

The paper's graphs (up to Twitter's 1.5 B edges) cannot be processed
here, so every dataset is regenerated synthetically at ~500-1000x fewer
vertices while preserving the properties that drive the
DepCache/DepComm tradeoff: average degree, degree skew, feature
dimension, hidden dimension, and label count.  ``paper_*`` fields record
the original sizes for EXPERIMENTS.md reporting.

Reddit is generated as a community graph (dense, homophilous) so the
accuracy experiment (Figure 14) genuinely converges; the small citation
networks (Cora/Citeseer/Pubmed) use a preferential-attachment DAG.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.graph import generators
from repro.graph.graph import Graph


@dataclass(frozen=True)
class DatasetSpec:
    """One row of Table 2 plus generation parameters."""

    name: str
    kind: str  # locality | community | citation | social
    num_vertices: int
    avg_degree: float
    feature_dim: int
    num_labels: int
    hidden_dim: int
    # Locality-model parameters (generators.locality_graph): smaller
    # width / global fraction means more chunk-local edges, which is
    # what makes a graph DepCache-friendly.
    locality_width: float = 0.01
    global_fraction: float = 0.3
    hub_exponent: float = 0.7
    num_communities: int = 0
    paper_vertices: str = ""
    paper_edges: str = ""
    paper_avg_degree: float = 0.0
    paper_labels: int = 0
    # Numeric paper vertex count, used for scale-corrected quadratic
    # memory terms (PyG's dense adjacency grows with V^2, so its scaled
    # stand-in is 4 * V * paper_V bytes; see engines.shared_memory).
    paper_num_vertices: int = 0

    @property
    def num_edges(self) -> int:
        return int(self.num_vertices * self.avg_degree)


# Scaled catalog.  Order follows Table 2.
DATASETS: Dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in [
        # Web graph: very high locality, so chunk partitions have few
        # remote dependencies -> DepCache wins (Fig. 2a).
        DatasetSpec(
            name="google", kind="locality", num_vertices=3400, avg_degree=5.86,
            feature_dim=512, num_labels=16, hidden_dim=256,
            locality_width=0.01, global_fraction=0.4, hub_exponent=0.7,
            paper_vertices="0.87M", paper_edges="5.1M", paper_avg_degree=5.86,
            paper_num_vertices=870_000,
        ),
        # Social network: low locality, moderate degree -> DepComm wins.
        DatasetSpec(
            name="pokec", kind="locality", num_vertices=1600, avg_degree=18.75,
            feature_dim=512, num_labels=16, hidden_dim=256,
            locality_width=0.015, global_fraction=0.25, hub_exponent=0.7,
            paper_vertices="1.6M", paper_edges="30M", paper_avg_degree=18.75,
            paper_num_vertices=1_600_000,
        ),
        # Social network with strong geographic locality -> DepCache wins
        # narrowly (1.03X in the paper).
        DatasetSpec(
            name="livejournal", kind="locality", num_vertices=2400, avg_degree=14.12,
            feature_dim=320, num_labels=16, hidden_dim=160,
            locality_width=0.004, global_fraction=0.05, hub_exponent=0.7,
            paper_vertices="4.8M", paper_edges="68M", paper_avg_degree=14.12,
            paper_num_vertices=4_800_000,
        ),
        # Post-to-post graph: dense, homophilous, communities interleaved
        # across chunk boundaries -> DepComm wins by a large factor.
        # Paper Reddit has 41 labels; at this scale a 41-way planted
        # partition saturates the intra-community pair space, so the
        # scaled dataset uses 8 communities/classes (see DESIGN.md).
        DatasetSpec(
            name="reddit", kind="community", num_vertices=600, avg_degree=90.0,
            feature_dim=602, num_labels=8, hidden_dim=256, num_communities=8,
            paper_vertices="0.23M", paper_edges="114M", paper_avg_degree=487.0,
            paper_labels=41, paper_num_vertices=230_000,
        ),
        DatasetSpec(
            name="orkut", kind="locality", num_vertices=1550, avg_degree=38.1,
            feature_dim=320, num_labels=20, hidden_dim=160,
            locality_width=0.05, global_fraction=0.5, hub_exponent=0.6,
            paper_vertices="3.1M", paper_edges="117M", paper_avg_degree=38.1,
            paper_num_vertices=3_100_000,
        ),
        DatasetSpec(
            name="wiki", kind="locality", num_vertices=2000, avg_degree=31.12,
            feature_dim=256, num_labels=16, hidden_dim=128,
            locality_width=0.02, global_fraction=0.3, hub_exponent=0.8,
            paper_vertices="12M", paper_edges="378M", paper_avg_degree=31.12,
            paper_num_vertices=12_000_000,
        ),
        DatasetSpec(
            name="twitter", kind="locality", num_vertices=2600, avg_degree=70.5,
            feature_dim=52, num_labels=16, hidden_dim=32,
            locality_width=0.05, global_fraction=0.5, hub_exponent=0.9,
            paper_vertices="42M", paper_edges="1.5B", paper_avg_degree=70.5,
            paper_num_vertices=42_000_000,
        ),
        # Scaled-up social graph for the sampled mini-batch pipeline:
        # 12x the largest catalog graph, hub-skewed (Zipf sources), so
        # full-batch training is communication-bound and importance
        # samplers have overlapping candidate lists to exploit.
        DatasetSpec(
            name="social-large", kind="social", num_vertices=40960,
            avg_degree=16.0, feature_dim=64, num_labels=16, hidden_dim=64,
            num_communities=16, hub_exponent=0.85,
            paper_vertices="-", paper_edges="-", paper_avg_degree=16.0,
            paper_num_vertices=40_960,
        ),
        # Degree-skew endpoints of the scaled-social family, sized for
        # the tensor-parallel crossover sweep (`repro tp-sweep`):
        # near-uniform sources vs strongly Zipf-skewed hubs, otherwise
        # identical, so only partition imbalance separates them.
        DatasetSpec(
            name="social-flat", kind="social", num_vertices=3072,
            avg_degree=16.0, feature_dim=64, num_labels=16, hidden_dim=32,
            num_communities=8, hub_exponent=0.1,
            paper_vertices="-", paper_edges="-", paper_avg_degree=16.0,
            paper_num_vertices=3_072,
        ),
        DatasetSpec(
            name="social-skewed", kind="social", num_vertices=3072,
            avg_degree=16.0, feature_dim=64, num_labels=16, hidden_dim=32,
            num_communities=8, hub_exponent=1.2,
            paper_vertices="-", paper_edges="-", paper_avg_degree=16.0,
            paper_num_vertices=3_072,
        ),
        DatasetSpec(
            name="cora", kind="citation", num_vertices=1800, avg_degree=2.0,
            feature_dim=1000, num_labels=7, hidden_dim=128,
            paper_vertices="2.7K", paper_edges="5.4K", paper_avg_degree=2.0,
            paper_num_vertices=2_700,
        ),
        DatasetSpec(
            name="citeseer", kind="citation", num_vertices=1800, avg_degree=1.4,
            feature_dim=1200, num_labels=6, hidden_dim=128,
            paper_vertices="3.3K", paper_edges="4.7K", paper_avg_degree=1.4,
            paper_num_vertices=3_300,
        ),
        DatasetSpec(
            name="pubmed", kind="citation", num_vertices=800, avg_degree=2.2,
            feature_dim=500, num_labels=3, hidden_dim=128,
            paper_vertices="20K", paper_edges="44K", paper_avg_degree=2.2,
            paper_num_vertices=20_000,
        ),
    ]
}

# Aliases matching the paper's abbreviations.
_ALIASES = {
    "goo": "google", "pok": "pokec", "liv": "livejournal", "red": "reddit",
    "ork": "orkut", "wik": "wiki", "wiki-link": "wiki", "twi": "twitter",
    "cor": "cora", "cit": "citeseer", "pub": "pubmed",
}


def resolve_name(name: str) -> str:
    key = name.lower()
    key = _ALIASES.get(key, key)
    if key not in DATASETS:
        known = ", ".join(sorted(DATASETS))
        raise KeyError(f"unknown dataset {name!r}; known: {known}")
    return key


# Generated graphs by ``(name, scale, seed)``, least recently used
# first.  They are kept while their arrays total at most
# ``_MEMO_BYTES``: one social-large (~23 MiB) fits and two do not.  The
# newest graph stays even when it alone is larger.
_MEMO_BYTES = 32 << 20
_memo: OrderedDict[Tuple[str, float, int], Graph] = OrderedDict()


def _memo_bytes() -> int:
    """Bytes of the arrays the memoised graphs hold as attributes, each
    buffer counted once, at the array that owns it: a view adds nothing
    of its own, so unit edge weights (one float32 viewed E times) count
    4 bytes.  An index a caller built on one, ``csr`` or ``csc``, is not
    counted."""
    owners = {}
    for graph in _memo.values():
        for value in vars(graph).values():
            if isinstance(value, np.ndarray):
                while isinstance(value.base, np.ndarray):
                    value = value.base
                owners[id(value)] = value.nbytes
    return sum(owners.values())


def _build(name: str, scale: float, seed: int) -> Graph:
    spec = DATASETS[name]
    n = max(16, int(spec.num_vertices * scale))
    m = max(n, int(n * spec.avg_degree))
    if spec.kind == "locality":
        g = generators.locality_graph(
            n,
            m,
            locality_width=spec.locality_width,
            global_fraction=spec.global_fraction,
            hub_exponent=spec.hub_exponent,
            seed=seed,
        )
    elif spec.kind == "community":
        g = generators.community(
            n, spec.num_communities or spec.num_labels, spec.avg_degree, seed=seed
        )
    elif spec.kind == "citation":
        g = generators.citation(n, avg_degree=spec.avg_degree, seed=seed)
    elif spec.kind == "social":
        g = generators.scaled_social(
            n,
            avg_degree=spec.avg_degree,
            num_communities=spec.num_communities or spec.num_labels,
            hub_exponent=spec.hub_exponent,
            seed=seed,
        )
    else:  # pragma: no cover - catalog is static
        raise ValueError(f"unknown generator kind {spec.kind!r}")
    g.name = name
    generators.attach_features(
        g, spec.feature_dim, spec.num_labels, seed=seed + 1,
        class_signal=0.6 if spec.kind in ("community", "social") else 0.5,
        label_noise=0.06 if spec.kind == "community" else 0.0,
    )
    return g


def load_dataset(name: str, scale: float = 1.0, seed: int = 0) -> Graph:
    """Load (generate) a catalog dataset.

    ``scale`` multiplies the vertex count (benchmarks use ``scale < 1``
    for quick runs).  Graphs are memoised per ``(name, scale, seed)``
    while the memoised graphs' arrays stay within a byte bound (about
    one social-large); past it the least recently loaded graph is
    dropped and regenerated, bit for bit, when asked for again.  A
    memoised graph is shared, so callers must not mutate it -- use
    :meth:`Graph.gcn_normalized` and friends, which copy.  A tiny
    positive ``scale`` gives the 16-vertex floor graph.
    """
    scale = float(scale)
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be a positive finite number, got {scale}")
    key = (resolve_name(name), scale, int(seed))
    graph = _memo.pop(key, None)
    if graph is None:
        graph = _build(*key)
    _memo[key] = graph
    while len(_memo) > 1 and _memo_bytes() > _MEMO_BYTES:
        _memo.popitem(last=False)
    return graph


def spec_of(name: str) -> DatasetSpec:
    """Catalog entry (scaled sizes + paper sizes) for ``name``."""
    return DATASETS[resolve_name(name)]
