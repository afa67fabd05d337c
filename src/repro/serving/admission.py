"""Admission policies: what an arrival meets when the queue is full.

The queue itself is the :class:`~repro.serving.server.EngineServer`'s
FIFO; this module names the two rules its ``submit`` applies.
"""

from __future__ import annotations

import enum


class AdmissionPolicy(str, enum.Enum):
    """What to do with an arrival when the admission queue is full."""

    #: Reject immediately; the request counts as shed, never executes.
    SHED = "shed"
    #: Apply back-pressure: a submitter that finds the queue full blocks
    #: until the queue has drained to half its capacity
    #: (``queue_capacity // 2``; one free slot for capacities 1 and 2),
    #: so it is woken once per half-drain, not once per take.  Never sheds.
    BLOCK = "block"
