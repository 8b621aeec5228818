"""Communication layer: chunked buffers and the exchange model.

Implements Section 4.3's three communication optimizations:

- **R** -- ring-based task scheduling (:class:`repro.comm.scheduler.CommOptions`'s
  ``ring`` option, which charges receives uncongested);
- **L** -- lock-free parallel message enqueuing
  (:class:`repro.comm.buffers.PositionIndexedBuffer`);
- **P** -- communication/computation overlapping
  (:func:`repro.comm.scheduler.run_exchange`'s ``overlap`` option).
"""

from repro.comm.buffers import PositionIndexedBuffer, pack_by_destination
from repro.comm.scheduler import (
    CacheTraffic,
    CommOptions,
    ExchangeStats,
    run_exchange,
)

__all__ = [
    "PositionIndexedBuffer",
    "pack_by_destination",
    "CacheTraffic",
    "CommOptions",
    "ExchangeStats",
    "run_exchange",
]
