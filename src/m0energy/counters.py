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

from .record import Record


class EventCounters(Record):
    def __init__(self, c1=0, c2=0, c3=0, c4=0, c5=0, c6=0, total_cycles=0,
                 fetch_stall_cycles=0, histogram=None):
        self.c1, self.c2, self.c3, self.c4, self.c5, self.c6 = (
            c1, c2, c3, c4, c5, c6)
        self.total_cycles = total_cycles
        self.fetch_stall_cycles = fetch_stall_cycles
        self.histogram = {} if histogram is None else histogram

    def as_vector(self):
        return (self.c1, self.c2, self.c3, self.c4, self.c5, self.c6)

    def snapshot(self):
        return EventCounters(self.c1, self.c2, self.c3, self.c4, self.c5,
                             self.c6, self.total_cycles,
                             self.fetch_stall_cycles, dict(self.histogram))

    def reset(self):
        self.__init__()
