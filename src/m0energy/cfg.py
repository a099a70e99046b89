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

from . import decode as dec
from .decode import EDGE_CALL, EDGE_FALLTHROUGH, EDGE_RETURN, EDGE_TAKEN
from .errors import AnalysisError, M0EnergyError, PathError


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
class EnergyInterval:
    lo: float
    hi: float

    @property
    def width(self):
        return self.hi - self.lo


@dataclass
class CFG:
    entry: int
    blocks: dict  # start address -> BasicBlock

    def sorted_blocks(self):
        return [self.blocks[a] for a in sorted(self.blocks)]

    def block_at(self, addr):
        return self.blocks[addr]


def extract_cfg(mem, entry):
    """Recursive-descent CFG over the image held by `mem`."""
    entry &= ~1
    if mem.region(entry) is None:
        raise AnalysisError(entry, "entry outside executable memory")

    decoded = {}
    flows = {}  # terminator address -> its control_flow edges
    leaders = {entry}
    work = [entry]
    while work:
        addr = work.pop()
        if addr in decoded:
            continue
        try:
            hw1 = mem.read_code(addr)
            hw2 = mem.read_code(addr + 2) if dec.is_wide(hw1) else None
            ins = dec.decode(hw1, hw2, addr)
        except M0EnergyError as exc:
            raise AnalysisError(addr, "undecodable code (%s)" % exc) from None
        decoded[addr] = ins
        edges = dec.control_flow(ins)
        if edges is None:
            work.append(addr + ins.size)
            continue
        flows[addr] = edges
        for target, _kind in edges:
            if target is not None:
                leaders.add(target)
                work.append(target)

    addrs = sorted(decoded)
    for prev, cur in zip(addrs, addrs[1:]):
        if cur < prev + decoded[prev].size:
            raise AnalysisError(cur, "overlapping instruction decode")

    blocks = {}
    current = []
    for addr in addrs:
        ins = decoded[addr]
        if current:
            contiguous = addr == current[-1].addr + current[-1].size
            if addr in leaders or not contiguous:
                _close_block(blocks, current, mem,
                             [(addr, EDGE_FALLTHROUGH)] if contiguous else [])
                current = []
        current.append(ins)
        if addr in flows:
            _close_block(blocks, current, mem, flows[addr])
            current = []
    if current:
        _close_block(blocks, current, mem, [])
    return CFG(entry, blocks)


def _close_block(blocks, instructions, mem, edges):
    last = instructions[-1]
    block = BasicBlock(instructions[0].addr, last.addr + last.size,
                       list(instructions),
                       static_block_counters(instructions, mem), edges)
    blocks[block.start] = block


def static_block_counters(instructions, mem):
    """Statically predicted counter vector for a straight-line run."""
    if hasattr(instructions, "instructions"):  # accept a BasicBlock too
        instructions = instructions.instructions
    counts = StaticCounts()
    for ins in instructions:
        op = ins.op
        if op == "MULS":
            counts.c2 += 1
        else:
            counts.c1 += 1
        if op == "LDR_LIT":
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


def _accumulate(blocks, edges, model):
    b1, b2, b3, b4, b5, b6 = model.beta
    point = 0.0
    loads = 0
    stores = 0
    for block in blocks:
        c = block.static_counts
        point += b1 * c.c1 + b2 * c.c2 + b4 * c.c4_known + b5 * c.c5_known \
            + b6 * c.c6_known
        loads += c.unresolved_loads
        stores += c.unresolved_stores
    point += b3 * sum(1 for taken in edges if taken)
    return point, loads, stores


def _interval(point, loads, stores, b4, b5, b6):
    if loads == 0 and stores == 0:
        return point
    lo = point + loads * min(b4, b6)
    hi = point + loads * max(b4, b6) + stores * b5
    return EnergyInterval(lo, hi)


def block_energies(block, models):
    """Energy of one block body (taken-edge cost excluded) under each of
    `models`, from one read of its counts."""
    c = block.static_counts
    c1, c2, c4, c5, c6 = c.c1, c.c2, c.c4_known, c.c5_known, c.c6_known
    loads, stores = c.unresolved_loads, c.unresolved_stores
    if not (loads or stores):
        return [b1 * c1 + b2 * c2 + b4 * c4 + b5 * c5 + b6 * c6
                for b1, b2, _, b4, b5, b6 in (m.beta for m in models)]
    return [_interval(b1 * c1 + b2 * c2 + b4 * c4 + b5 * c5 + b6 * c6,
                      loads, stores, b4, b5, b6)
            for b1, b2, _, b4, b5, b6 in (m.beta for m in models)]


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
    point, loads, stores = _accumulate(blocks, edges, model)
    return _interval(point, loads, stores, *model.beta[3:])
