"""Input-port FIFO with virtual cut-through reservation.

Each router input port owns one :class:`InputBuffer`.  Space is measured in
flits.  A transfer is admitted in two steps:

1. the *upstream* router **reserves** the packet's full length at grant
   time (VCT admission control — guarantees the packet never stalls
   mid-link),
2. the packet **commits** into the FIFO when its tail flit arrives,
   converting the reservation into occupancy.

``occupancy + reserved <= capacity`` is an invariant enforced here and
exercised by the property-based tests.

Alongside the flit counters the buffer tracks ``cells`` — resident or
reserved *packets* (one cell per packet regardless of flit length).
Bubble fabrics (torus, ring — see :mod:`repro.noc.fabrics`) gate grants
on free cells to keep their buffer rings deadlock-free; on mesh/cmesh
the counter is maintained but never consulted.  ``cells`` rises at
reservation (and at NI injection, which skips the reserve step) and
falls at pop; commit converts a reservation in place and leaves it
unchanged.
"""

from __future__ import annotations

from collections import deque

from repro.common.errors import SimulationError
from repro.noc.packet import Packet


class InputBuffer:
    """A flit-granular FIFO for one input port."""

    __slots__ = ("capacity", "occupancy", "reserved", "cells", "queue")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError("buffer capacity must be >= 1 flit")
        self.capacity = capacity
        self.occupancy = 0
        self.reserved = 0
        self.cells = 0
        self.queue: deque[Packet] = deque()

    @property
    def free(self) -> int:
        """Flit slots available for new reservations."""
        return self.capacity - self.occupancy - self.reserved

    def can_accept(self, length: int) -> bool:
        """Whether a packet of ``length`` flits can be reserved now."""
        return self.free >= length

    def reserve(self, length: int) -> None:
        """Hold ``length`` flit slots (one packet cell) for an in-flight packet."""
        if length > self.free:
            raise SimulationError(
                f"over-reservation: {length} flits requested, {self.free} free"
            )
        self.reserved += length
        self.cells += 1

    def commit(self, packet: Packet) -> None:
        """Convert a reservation into FIFO occupancy (tail arrived)."""
        if self.reserved < packet.length:
            raise SimulationError(
                f"commit without reservation for packet {packet.pid}"
            )
        self.reserved -= packet.length
        self.occupancy += packet.length
        self.queue.append(packet)

    def queued_flits(self) -> int:
        """Flits actually resident in the FIFO (audit ground truth).

        Recomputed from the queued packets rather than read from the
        ``occupancy`` counter, so an auditor can cross-check the two.
        """
        return sum(p.length for p in self.queue)

    def pop(self) -> Packet:
        """Remove and return the head packet (its flits and cell leave)."""
        if not self.queue:
            raise SimulationError("pop from empty input buffer")
        packet = self.queue.popleft()
        self.occupancy -= packet.length
        self.cells -= 1
        if self.occupancy < 0:
            raise SimulationError("buffer occupancy went negative")
        return packet

    def __len__(self) -> int:
        return len(self.queue)
