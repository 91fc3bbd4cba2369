"""Reference channel-activity parser.

This is the version that ``tandemnet.network.activity_signal`` replaced:
it reads a node's observation back out of the rows of a simulated
session's trace instead of computing it from the sequences and offsets.
It is kept unchanged as the oracle that ties the closed form to the
channel that ``simulate`` actually runs.
"""

from __future__ import annotations

from tandemnet.network import (
    COLLISION,
    IDLE,
    SINGLE,
    TRANSMIT,
    ChannelActivitySignal,
    SimTrace,
)


def activity_signal(trace: SimTrace, node: int, start: int = 0) -> ChannelActivitySignal:
    """The node's per-slot observation over one period starting at the
    given global slot."""
    P = trace.period
    by_slot = {}
    for slot, n, action, value in trace.rows:
        if n == node and start <= slot < start + P:
            prev = by_slot.get(slot)
            if action == "tx":
                by_slot[slot] = TRANSMIT
            elif prev != TRANSMIT:
                by_slot[slot] = {"rx": SINGLE, "collision": COLLISION, "idle": IDLE}[action]
    if len(by_slot) != P:
        raise ValueError("trace does not cover a full period at this node")
    return ChannelActivitySignal(tuple(by_slot[k] for k in range(start, start + P)))
