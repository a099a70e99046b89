"""Event counters accumulated during simulation.

The six model counters:
    c1  executed instructions other than MULS
    c2  MULS instructions
    c3  taken branches (any taken control transfer)
    c4  RAM data reads
    c5  RAM writes
    c6  Flash data reads (alias region counts as Flash)

Multi-register transfers contribute one read/write event per 32-bit word.
Debug-port writes are not RAM writes and count nowhere.  Auxiliary fields
(total cycles, fetch stalls, per-opcode histogram) are reported but not
part of the energy model.
"""

from dataclasses import dataclass, field


@dataclass
class EventCounters:
    c1: int = 0
    c2: int = 0
    c3: int = 0
    c4: int = 0
    c5: int = 0
    c6: int = 0
    total_cycles: int = 0
    fetch_stall_cycles: int = 0
    histogram: dict = field(default_factory=dict)

    def as_vector(self):
        return (self.c1, self.c2, self.c3, self.c4, self.c5, self.c6)

    def snapshot(self):
        return EventCounters(self.c1, self.c2, self.c3, self.c4, self.c5,
                             self.c6, self.total_cycles,
                             self.fetch_stall_cycles, dict(self.histogram))

    def reset(self):
        self.c1 = self.c2 = self.c3 = self.c4 = self.c5 = self.c6 = 0
        self.total_cycles = 0
        self.fetch_stall_cycles = 0
        self.histogram = {}
