"""Retry/timeout/backoff semantics for the exchange scheduler.

When a :class:`~repro.resilience.faults.MessageLossFault` drops a chunk
send, the sender notices after ``TIMEOUT_S`` (no ACK), backs off
exponentially, and re-sends.  The whole sequence -- wasted wire time for
the dropped copy, the timeout, the backoff, the retransmission -- is
charged to the timeline, so Fig-13-style utilization traces show the
stall instead of silently losing it.  Loss handling is on wherever a
:class:`~repro.resilience.injector.FaultInjector` is: every exchange
charged under faults retransmits what its schedule drops.
"""

# How long the sender waits for an ACK before declaring a chunk lost.
TIMEOUT_S = 5.0e-4
# Sleep before the first retransmission; multiplied by BACKOFF_FACTOR on
# every further attempt.
BACKOFF_BASE_S = 1.0e-4
BACKOFF_FACTOR = 2.0
# Retransmissions after the first attempt.  The final attempt is modeled
# as delivered (a reliable-fallback path), so a transfer never hangs
# forever; the pain is the accumulated waiting.
MAX_RETRIES = 5


def backoff_s(attempt: int) -> float:
    """Backoff slept before retransmission number ``attempt + 1``."""
    return BACKOFF_BASE_S * BACKOFF_FACTOR**attempt
