"""NeutronStar (SIGMOD 2022) reproduction.

A pure-Python reproduction of *NeutronStar: Distributed GNN Training with
Hybrid Dependency Management* (Wang et al., SIGMOD 2022).

The package is organised as the paper's system diagram (Figure 4):

- :mod:`repro.tensor` -- from-scratch numpy autograd engine (the role
  PyTorch plays in the paper).
- :mod:`repro.graph` -- graph storage (COO/CSR/CSC), generators, and the
  dataset catalog mirroring the paper's Table 2.
- :mod:`repro.partition` -- chunk-based, hash, Fennel, and Metis-like
  graph partitioners (Section 5.7).
- :mod:`repro.cluster` -- the simulated cluster: device and network
  profiles, workers, and a discrete-event timeline.
- :mod:`repro.comm` -- destination-chunked message buffers, ring-based
  scheduling, and the lock-free enqueue model (Section 4.3).
- :mod:`repro.core` -- the NeutronStar dataflow API (GetFromDepNbr,
  ScatterToEdge, EdgeForward, GatherByDst, VertexForward and the
  auto-generated backward flow) plus GCN/GIN/GAT layers.
- :mod:`repro.costmodel` -- probing of T_v/T_e/T_c, the redundant
  computation and communication costs (Eqs. 1-3), and the greedy
  dependency partitioner (Algorithm 4).
- :mod:`repro.engines` -- DepCache, DepComm, Hybrid, DistDGL-like
  sampling, ROC-like, and shared-memory engines.
- :mod:`repro.training` -- the distributed trainer, losses, metrics, and
  the convergence (time-to-accuracy) runner.
- :mod:`repro.analysis` -- structural and dependency reports with a
  strategy recommendation.
- :mod:`repro.sweeps` -- ``run_grid`` + ``Column``: every parameter
  grid (cache / sample / tp / serve-bench / compare / chaos) and its
  table.
- :mod:`repro.cli` -- the ``python -m repro`` command line, one table of
  ``Command`` rows.
"""

from repro.graph.datasets import load_dataset
from repro.cluster.spec import ClusterSpec
from repro.core.layers import GCNConv, GINConv, GATConv
from repro.core.model import GNNModel
from repro.engines import (
    DepCacheEngine,
    DepCommEngine,
    HybridEngine,
    RocLikeEngine,
    SamplingEngine,
    SharedMemoryEngine,
    make_engine,
)
from repro.training.trainer import DistributedTrainer, EpochReport

__version__ = "1.0.0"

__all__ = [
    "load_dataset",
    "ClusterSpec",
    "GCNConv",
    "GINConv",
    "GATConv",
    "GNNModel",
    "DepCacheEngine",
    "DepCommEngine",
    "HybridEngine",
    "RocLikeEngine",
    "SamplingEngine",
    "SharedMemoryEngine",
    "make_engine",
    "DistributedTrainer",
    "EpochReport",
    "__version__",
]
