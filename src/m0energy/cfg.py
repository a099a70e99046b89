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
Blocks end, and get their edges, by `decode.control_flow`.  Indirect
branches (BX, BLX, POP into pc, MOV/ADD into pc) produce unknown-target
edges and end the descent on that path.
"""

from dataclasses import dataclass, field
from importlib import import_module

from .decode import EDGE_FALLTHROUGH
from .energy import EnergyInterval, energies  # EnergyInterval: re-exported
from .errors import AnalysisError, M0EnergyError, PathError

dec = import_module(".decode", __package__)  # the module, not the function


@dataclass
class StaticCounts:
    """Per-block counter prediction; None marks a statically unknown value."""
    c1: int = 0
    c2: int = 0
    c4_known: int = 0
    c5_known: int = 0
    c6_known: int = 0
    unresolved_loads: int = 0
    unresolved_stores: int = 0

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


@dataclass
class BasicBlock:
    start: int
    end: int                      # address after the last instruction
    instructions: list
    static_counts: StaticCounts
    successors: list = field(default_factory=list)  # (target or None, kind)

    @property
    def terminator(self):
        last = self.instructions[-1]
        return last if last.is_terminator() else None


@dataclass
class CFG:
    entry: int
    blocks: dict  # start address -> BasicBlock

    def sorted_blocks(self):
        return [self.blocks[a] for a in sorted(self.blocks)]


def extract_cfg(mem, entry):
    """Recursive-descent CFG over the image held by `mem`."""
    entry &= ~1
    if mem.region(entry) is None:
        raise AnalysisError(entry, "entry outside executable memory")

    decoded = {}  # address -> instruction
    flows = {}  # terminator address -> its control_flow edges
    leaders = {entry}
    work = [entry]
    while work:
        addr = work.pop()
        while addr not in decoded:  # one straight-line run
            try:
                decoded[addr] = ins = dec.decode_at(mem, addr)
            except M0EnergyError as exc:
                raise AnalysisError(addr, "undecodable code (%s)" % exc) from None
            if ins.op in dec.BLOCK_END_OPS:
                edges = dec.control_flow(ins)
                if edges is not None:
                    flows[addr] = edges
                    for target, _kind in edges:
                        if target is not None:
                            leaders.add(target)
                            work.append(target)
                    break
            addr += ins.width >> 3

    blocks, run = {}, []  # run: the open block's instructions
    end = None  # the address after the last instruction seen
    for addr in sorted(decoded):
        if end is not None and addr < end:
            raise AnalysisError(addr, "overlapping instruction decode")
        if run and (addr in leaders or addr != end):
            _close_block(blocks, run, end, mem,
                         [(addr, EDGE_FALLTHROUGH)] if addr == end else [])
            run = []
        run.append(decoded[addr])
        end = addr + (run[-1].width >> 3)
        if addr in flows:
            _close_block(blocks, run, end, mem, flows[addr])
            run = []
    # no run stays open: the highest instruction decoded ends its walk, so
    # it is a terminator (any other walk would have decoded past it)
    return CFG(entry, blocks)


def _close_block(blocks, instructions, end, mem, edges):
    start = instructions[0].addr
    blocks[start] = BasicBlock(start, end, instructions,
                               static_block_counters(instructions, mem), edges)


# The ops that count as more or other than one c1 event
_COUNTED_OPS = dec.LOAD_OPS | dec.STORE_OPS | {"MULS", "PUSH", "POP", "LDM", "STM"}


def static_block_counters(instructions, mem):
    """Statically predicted counter vector for a straight-line run."""
    counts = StaticCounts(c1=len(instructions))
    for ins in instructions:
        op = ins.op
        if op not in _COUNTED_OPS:
            continue
        if op == "MULS":
            counts.c1 -= 1
            counts.c2 += 1
        elif op == "LDR_LIT":
            region = mem.region(ins.fields["lit_addr"])
            if region == "ram":
                counts.c4_known += 1
            else:
                counts.c6_known += 1  # literal pools live in Flash
        elif op == "LDR_SP":
            counts.c4_known += 1
        elif op == "STR_SP":
            counts.c5_known += 1
        elif op == "PUSH":
            counts.c5_known += len(ins.fields["regs"])
        elif op == "POP":
            counts.c4_known += len(ins.fields["regs"]) + (1 if ins.fields["pc"] else 0)
        elif op == "LDM":
            counts.unresolved_loads += len(ins.fields["regs"])
        elif op == "STM":
            counts.unresolved_stores += len(ins.fields["regs"])
        elif op in dec.LOAD_OPS:
            counts.unresolved_loads += 1
        elif op in dec.STORE_OPS:
            counts.unresolved_stores += 1
    return counts


def _counts(block):
    """A block body's six counts (c3 is on edges), unresolved loads, stores."""
    c = block.static_counts
    return (c.c1, c.c2, 0, c.c4_known, c.c5_known, c.c6_known), \
        c.unresolved_loads, c.unresolved_stores


def block_energies(block, models):
    """Energy of one block body (taken-edge cost excluded) under each of
    `models`, from one read of its counts."""
    return energies(models, *_counts(block))


def block_energy(block, model):
    """Energy of one block body (taken-edge cost excluded)."""
    return block_energies(block, [model])[0]


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
