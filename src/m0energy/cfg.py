"""Static basic-block extraction and per-block counter prediction.

Blocks come from recursive-descent disassembly starting at the entry point,
so literal pools are never decoded.  Instruction counts (c1/c2) are always
exact.  Taken-branch events (c3) belong to edges, not to block bodies.
Memory events are classified by statically resolvable addresses only:

    PC-relative literal loads        exact, region of the literal address
    SP-relative loads/stores, POP/PUSH   exact RAM events, one per word
    register-indirect accesses       unresolved: a load may hit RAM (c4)
                                     or Flash (c6); a store may hit RAM
                                     (c5) or the debug port (no counter)

Unresolved accesses make the affected counters unknown and turn energy
estimates into intervals; there is no value analysis beyond PC/SP bases.
Blocks end, and get their edges, by `decode.Encoding.flow`'s rule.  Indirect
branches (BX, BLX, POP into pc, MOV/ADD into pc) produce unknown-target
edges and end the descent on that path.  Runs are walked by `decode.run_at`
and counted by `decode.tally`, as the simulator's translation does; a block
holds each instruction's shared `decode.Encoding` and binds `instructions`
when read.
"""

import functools
from bisect import bisect_left
from collections import namedtuple
from importlib import import_module
from itertools import accumulate, compress

from .decode import EDGE_FALLTHROUGH, tally
from .energy import EnergyInterval, energies  # EnergyInterval: re-exported
from .errors import AnalysisError, M0EnergyError, PathError
from .record import Record

dec = import_module(".decode", __package__)  # the module, not the function


class StaticCounts(namedtuple("StaticCounts", "c1 c2 c4_known c5_known "
                               "c6_known unresolved_loads unresolved_stores",
                               defaults=(0,) * 7)):
    """Per-block counter prediction; None marks a statically unknown value."""
    __slots__ = ()

    @property
    def c3(self):
        return 0  # attributed to taken edges, never to the block body

    @property
    def c4(self):
        return None if self.unresolved_loads else self.c4_known

    @property
    def c5(self):
        return None if self.unresolved_stores else self.c5_known

    @property
    def c6(self):
        return None if self.unresolved_loads else self.c6_known

    @property
    def exact(self):
        return self.unresolved_loads == 0 and self.unresolved_stores == 0

    def as_vector(self):
        """Six-counter vector; requires all entries exact."""
        if not self.exact:
            raise M0EnergyError("counts contain unresolved accesses")
        return (self.c1, self.c2, 0, self.c4_known, self.c5_known, self.c6_known)


class BasicBlock(Record):
    def __init__(self, start, end, encodings, static_counts, successors=None):
        self.start = start
        self.end = end                # address after the last instruction
        self.encodings = encodings    # the decode.Encoding of each instruction
        self.static_counts = static_counts
        # [(target or None, kind)]
        self.successors = [] if successors is None else successors

    @functools.cached_property
    def instructions(self):
        """Each decode.Instruction, bound on first read (all but a BL are 2
        bytes, and a BL ends a block)."""
        return list(map(dec.Encoding.at, self.encodings,
                        range(self.start, self.end, 2)))

    def texts(self):
        """Each instruction's text, as `instructions` has it, unbound."""
        texts = [enc.text for enc in self.encodings]
        last = self.encodings[-1]  # the only one that can branch
        if last.offset is not None:
            texts[-1] = last.text_at(self.end - last.size)
        return texts


class CFG(Record):
    def __init__(self, entry, blocks):
        self.entry = entry
        self.blocks = blocks  # start address -> BasicBlock

    def sorted_blocks(self):
        return [self.blocks[a] for a in sorted(self.blocks)]


def extract_cfg(mem, entry):
    """Recursive-descent CFG over the image held by `mem`."""
    entry &= ~1
    if mem.region(entry) is None:
        raise AnalysisError(entry, "entry outside executable memory")

    decoded = {}  # address -> decode.Encoding
    flows = {}  # block-ending address -> its edges
    work = [(entry, None)]  # edges still to follow
    while work:
        addr = work.pop()[0]
        if addr is None or addr in decoded:
            continue
        try:
            last = dec.run_at(mem, addr, decoded)
        except M0EnergyError as exc:
            while addr in decoded:  # to where the run failed
                addr += 2  # a run's instructions but its last are 2 bytes
            raise AnalysisError(addr, "undecodable code (%s)" % exc) from None
        if last is not None:
            flows[last] = edges = decoded[last].edges(last)
            work += edges
    # only a BL's second halfword can overlap (addresses are even)
    overlaps = [a + 2 for a in flows if decoded[a].size == 4 and a + 2 in decoded]
    if overlaps:
        raise AnalysisError(min(overlaps), "overlapping instruction decode")

    # A run ends at a block end or at an address decoded already: a block
    # runs from a leader to the next, with a gap only after a block end.
    addrs = sorted(decoded)
    code = list(map(decoded.__getitem__, addrs))
    ids = list(map(id, code))  # an Encoding holds a dict: it has no hash
    distinct = dict(zip(ids, code))
    tally = {key: _tally(enc) for key, enc in distinct.items()}
    sums = [0, *accumulate(map(tally.__getitem__, ids))]
    starts = sorted({t for edges in flows.values() for t, _kind in edges}
                    - {None} | {entry})  # the leaders
    bounds = [bisect_left(addrs, start) for start in starts] + [len(addrs)]
    lits = {key for key, enc in distinct.items() if enc.op == "LDR_LIT"}
    from_ram = [a for a in compress(addrs, map(lits.__contains__, ids))
                if mem.region(decoded[a].literal(a)) == "ram"]
    counts = functools.cache(_unpack)  # blocks share equal counts
    blocks = {}
    for start, i, j in zip(starts, bounds, bounds[1:]):
        last, encs = addrs[j - 1], code[i:j]
        end = last + encs[-1].size
        total = sums[j] - sums[i]
        if from_ram:  # literal loads that read RAM count c4, not c6
            total += (_C4 - _C6) * (bisect_left(from_ram, end)
                                    - bisect_left(from_ram, start))
        edges = flows[last] if last in flows else [(end, EDGE_FALLTHROUGH)]
        blocks[start] = BasicBlock(start, end, encs, counts(total), edges)
    return CFG(entry, blocks)


# StaticCounts' counts packed 32 bits apart, to add up in one sum: under
# 2**29 halfwords (Flash, alias, RAM), 9 counts each, never carry over.
_C1, _C2, _C4, _C5, _C6, _LOADS, _STORES = (1 << 32 * k for k in range(7))


def _tally(enc):
    """The packed counts of an Encoding (a literal load's literal in Flash:
    extract_cfg moves those that read RAM to c4)."""
    c1, c2, _histogram = tally((enc,))
    op = enc.op
    n = len(enc.fields.get("regs", ())) + enc.fields.get("pc", False)
    return c1 * _C1 + c2 * _C2 + {
        "LDR_LIT": _C6, "LDR_SP": _C4, "STR_SP": _C5, "PUSH": n * _C5,
        "POP": n * _C4, "LDM": n * _LOADS, "STM": n * _STORES}.get(
        op, (op in dec.LOAD_OPS) * _LOADS + (op in dec.STORE_OPS) * _STORES)


def _unpack(total):
    return StaticCounts._make(total >> 32 * k & 0xFFFFFFFF for k in range(7))


def _counts(block):
    """A block body's six counts (c3 is on edges), unresolved loads, stores."""
    c1, c2, c4, c5, c6, loads, stores = block.static_counts
    return (c1, c2, 0, c4, c5, c6), loads, stores


def block_energies(block, models):
    """Energy of one block body (taken-edge cost excluded) under each of
    `models`, from one read of its counts."""
    return energies(models, *_counts(block))


def path_energy(blocks, edges, model):
    """Energy of a block path; `edges[i]` is True when the transition from
    blocks[i] to blocks[i+1] is a taken branch (adds the c3 coefficient).

    Returns a float when every access on the path is resolvable, else an
    EnergyInterval bracketing the feasible region assignments.
    """
    blocks = list(blocks)
    edges = list(edges)
    if not blocks:
        raise PathError("empty block path")
    if len(edges) != len(blocks) - 1:
        raise PathError("need %d edge flags for %d blocks, got %d"
                        % (len(blocks) - 1, len(blocks), len(edges)))
    for i, taken in enumerate(edges):
        nxt = blocks[i + 1].start
        ok = False
        for target, kind in blocks[i].successors:
            if taken and kind != EDGE_FALLTHROUGH and target in (None, nxt):
                ok = True
            if not taken and kind == EDGE_FALLTHROUGH and target == nxt:
                ok = True
        if not ok:
            raise PathError("no %s edge from 0x%08x to 0x%08x"
                            % ("taken" if taken else "fallthrough",
                               blocks[i].start, nxt))
    counts, loads, stores = zip(*map(_counts, blocks))
    totals = [sum(column) for column in zip(*counts)]
    totals[2] = sum(1 for taken in edges if taken)
    return energies([model], totals, sum(loads), sum(stores))[0]
