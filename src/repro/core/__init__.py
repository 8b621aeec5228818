"""NeutronStar core: dataflow ops, layer blocks, and GNN layers."""

from repro.core.blocks import LayerBlock, build_block
from repro.core.layers import (
    GATConv,
    GCNConv,
    GINConv,
    GNNLayer,
    SAGEConv,
)
from repro.core.model import GNNModel
from repro.core import ops

__all__ = [
    "LayerBlock",
    "build_block",
    "GNNLayer",
    "GCNConv",
    "GINConv",
    "GATConv",
    "SAGEConv",
    "GNNModel",
    "ops",
]
