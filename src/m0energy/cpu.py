"""Cortex-M0 core: architectural state, instruction execution, timing.

Base cycle costs before memory stalls (data-driven, override via the
`timing` argument):

    data processing            1
    MULS                       1   (single-cycle multiplier; set "muls": 32
                                    for the slow multiplier variant)
    load/store                 2
    LDM/STM/PUSH/POP           1 + N   (N = words transferred; POP into pc
                                        uses the same 1 + N)
    branch taken               3
    branch not taken           1
    BL                         4
    BX / BLX                   3
    MOV/ADD with pc target     3
    BKPT                       1   (counts as an executed instruction,
                                    then halts)

Fetch and Flash data stalls from the memory system are added on top.

Data processing is four handler families, and each `HANDLERS` row binds one
to an op's operands: `_addsub` (the one place add, subtract and compare set
N, Z, C and V), `_logical`, `_shift` and `_extend`.  `_extend_bits` is the
one sign/zero-extension rule, shared by loads, SXT*/UXT* and REVSH.

Execution runs on a translation cache, in the manner of QEMU's translation
blocks.  The first time a Flash (or boot-alias) pc is reached, the
straight-line code there is decoded once, up to and including its
terminator (`decode.control_flow`, the one block-end rule), into
entries that carry the handler, the instruction, its base cycles with the
timing class fixed at decode time (so `timing` is read once, at
translation), and the Flash words whose fetch can stall.  Inside a block
every fetch is sequential, so the word the fetch unit holds is known at
translation time: `FetchUnit.stall_for` is called only when a fetch leaves
the held word or follows a taken branch, and never at zero wait states,
where no fetch stalls.  c1, c2 and the histogram are tallied once per
executed block, c3 and the fetch stalls per instruction, in locals that
are folded into the counters when `run` or `step` returns; c4..c6 and the
Flash data stalls are counted where the access happens.  Only Flash is
cached: it cannot be written, so its translations never go stale.  RAM
code may modify itself, so each RAM instruction is fetched and decoded
afresh every time it runs.

An instruction commits on completion: one that faults adds no counter
event and no cycles.  A single data access raises before it counts; block
transfers (PUSH/POP/LDM/STM) roll back the events of the words they did
transfer.  Register and memory writes made before the fault are not
undone.  `StepResult` records are built only for `step()` and `on_step`.

BX, BLX and POP into pc are interworking branches: bit 0 of the target is
the Thumb bit.  A clear bit would select ARM state, which ARMv6-M lacks, so
the branch completes and counts, and the INVSTATE fault is taken before
the target executes.  Such a branch leaves pc odd (the target plus one);
no block starts at an odd pc, so the next translation raises the fault and
the execution loop needs no check of its own.

A simulator instance is single-threaded; distinct instances are
independent.
"""

import operator
from dataclasses import dataclass, field

from . import decode as dec
from .counters import EventCounters
from .errors import InvalidStateFault, M0EnergyError
from .memory import (DEFAULT_FLASH_SIZE, DEFAULT_RAM_SIZE, MemorySystem)

MASK32 = 0xFFFFFFFF

DEFAULT_TIMING = {
    "dp": 1,
    "load": 2,
    "store": 2,
    "block_base": 1,
    "branch_taken": 3,
    "branch_not_taken": 1,
    "bl": 4,
    "bx": 3,
    "blx": 3,
    "muls": 1,
    "pc_branch": 3,
    "bkpt": 1,
}

# op -> DEFAULT_TIMING key; ops not listed are data processing ("dp").
# Block transfers, BCOND and MOV/ADD into pc are classified in _timing_class.
_TIMING_KEYS = dict.fromkeys(dec.LOAD_OPS, "load")
_TIMING_KEYS.update(dict.fromkeys(dec.STORE_OPS, "store"))
_TIMING_KEYS.update({"B": "branch_taken", "BL": "bl", "BX": "bx",
                     "BLX": "blx", "MULS": "muls", "BKPT": "bkpt"})


@dataclass
class CpuState:
    regs: list = field(default_factory=lambda: [0] * 16)
    n: bool = False
    z: bool = False
    c: bool = False
    v: bool = False
    halted: bool = False
    cycle_count: int = 0

    @property
    def sp(self):
        return self.regs[13]

    @property
    def lr(self):
        return self.regs[14]

    @property
    def pc(self):
        return self.regs[15]

    @pc.setter
    def pc(self, value):
        self.regs[15] = value & MASK32 & ~1


@dataclass
class StepResult:
    instruction: dec.Instruction
    cycles: int
    branch_taken: bool
    data_accesses: list
    halted: bool
    fetch_stall: int = 0


@dataclass
class RunSummary:
    counters: EventCounters
    cycle_count: int
    exit_reason: str
    steps: int = 0


class _Block:
    """Straight-line code decoded once.

    `entries` holds one tuple per instruction: (handler, instruction,
    address, base cycles if not taken, base cycles if taken, Flash words
    fetched with a possible stall, index in the block).  `word` is the
    Flash word of the first fetch, checked against the fetch unit on entry
    (None when no fetch can stall); `end` is the fall-through pc.  `mix`
    and `muls` are what one full execution adds to the histogram and c2.
    """
    __slots__ = ("entries", "word", "end", "mix", "muls")

    def __init__(self, entries, word, end):
        self.entries = entries
        self.word = word
        self.end = end
        mix = {}
        for entry in entries:
            mnemonic = entry[1].mnemonic
            mix[mnemonic] = mix.get(mnemonic, 0) + 1
        self.mix = tuple(mix.items())
        self.muls = mix.get("MULS", 0)


class _StepDone(Exception):
    """Raised from step()'s on_step hook to stop after one instruction."""


def _timing_class(ins, t):
    """(base cycles if not taken, if taken), fixed at decode time."""
    op, f = ins.op, ins.fields
    if op in ("PUSH", "POP", "LDM", "STM"):
        n = t["block_base"] + len(f["regs"]) + (1 if f.get("pc") else 0)
        return n, n
    if op == "BCOND":
        return t["branch_not_taken"], t["branch_taken"]
    if op in ("MOV_HI", "ADD_HI") and f["rd"] == 15:
        return t["pc_branch"], t["pc_branch"]
    n = t[_TIMING_KEYS.get(op, "dp")]
    return n, n


def _cond_passed(cond, s):
    if cond == 0:
        return s.z
    if cond == 1:
        return not s.z
    if cond == 2:
        return s.c
    if cond == 3:
        return not s.c
    if cond == 4:
        return s.n
    if cond == 5:
        return not s.n
    if cond == 6:
        return s.v
    if cond == 7:
        return not s.v
    if cond == 8:
        return s.c and not s.z
    if cond == 9:
        return not s.c or s.z
    if cond == 10:
        return s.n == s.v
    if cond == 11:
        return s.n != s.v
    if cond == 12:
        return not s.z and s.n == s.v
    return s.z or s.n != s.v  # LE


class Simulator:
    """One simulated core plus its memory and event counters."""

    def __init__(self, image, wait_states=0, prefetch=False,
                 flash_size=DEFAULT_FLASH_SIZE, ram_size=DEFAULT_RAM_SIZE,
                 timing=None):
        self.mem = MemorySystem(image, flash_size=flash_size,
                                ram_size=ram_size, wait_states=wait_states,
                                prefetch=prefetch)
        self.timing = dict(DEFAULT_TIMING)
        if timing:
            self.timing.update(timing)
        self.counters = EventCounters()
        self.state = CpuState()
        self._blocks = {}        # Flash/alias pc -> _Block
        self._sequential = False
        self._accesses = None    # per-step access log, only while tracing
        self.reset()

    # -- lifecycle ----------------------------------------------------------

    def reset(self):
        """Load SP and PC from the vector table; zero flags and counters."""
        sp, pc = self.mem.reset_vector()
        self.state = CpuState()
        self.state.regs[13] = sp
        self.state.regs[15] = pc
        self.counters.reset()
        self.mem.fetch_unit.flush()
        self.mem.debug_output.clear()
        self._sequential = False

    # -- register helpers ---------------------------------------------------

    def _rget(self, i):
        if i == 15:
            return (self.state.regs[15] + 4) & MASK32
        return self.state.regs[i]

    def _rset(self, i, value):
        self.state.regs[i] = value & MASK32

    # -- memory helpers: count c4..c6 and Flash data stalls in place ----------

    def _read(self, addr, size):
        addr &= MASK32
        value, stall, region = self.mem.read(addr, size)
        if region == "ram":
            self.counters.c4 += 1
        else:
            self.counters.c6 += 1
            self.state.cycle_count += stall
        if self._accesses is not None:
            self._accesses.append((addr, size, "r", region))
        return value

    def _write(self, addr, size, value):
        addr &= MASK32
        stall, region = self.mem.write(addr, size, value)
        if region == "ram":
            self.counters.c5 += 1
        if stall:
            self.state.cycle_count += stall
        if self._accesses is not None:
            self._accesses.append((addr, size, "w", region))

    def _branch(self, target):
        self.state.pc = target

    # -- translation ----------------------------------------------------------

    def _translate(self, pc):
        """The block at pc, decoded once and cached for Flash, afresh for RAM.

        Decoding stops after a terminator, and before an instruction that
        cannot be fetched or decoded so that executing it raises the fault;
        at the block's first instruction it raises here, as it does for the
        odd pc an interworking branch leaves when the Thumb bit is clear.
        A RAM block is one instruction long.
        """
        if pc & 1:
            raise InvalidStateFault(pc ^ 1)
        mem = self.mem
        kind = mem.region(pc)
        stalls = mem.wait_states != 0 and kind != "ram"
        held = None          # Flash word held after the previous fetch
        first_word = None
        entries = []
        addr = pc
        while True:
            if entries and mem.region(addr) != kind:
                break
            try:
                hw1 = mem.read_code(addr)
                hw2 = mem.read_code(addr + 2) if dec.is_wide(hw1) else None
                ins = dec.decode(hw1, hw2, addr)
            except M0EnergyError:
                if entries:
                    break
                raise
            words = []
            if stalls:
                for half in range(addr, addr + ins.size, 2):
                    word = mem.fetch_word(half)
                    if word != held:
                        words.append(word)
                        held = word
                if not entries:
                    first_word = words.pop(0)
            base, base_taken = _timing_class(ins, self.timing)
            entries.append((HANDLERS[ins.op], ins, addr, base, base_taken,
                            tuple(words), len(entries)))
            addr += ins.size
            if ins.is_terminator() or kind == "ram":
                break
        block = _Block(entries, first_word, addr)
        if kind != "ram":
            self._blocks[pc] = block
        return block

    # -- execution --------------------------------------------------------------

    def step(self):
        """Execute one instruction; returns its StepResult.  Faults raise."""
        if self.state.halted:
            raise M0EnergyError("cannot step a halted core")
        done = []

        def stop(result):
            done.append(result)
            raise _StepDone

        try:
            self._execute(float("inf"), stop)
        except _StepDone:
            pass
        return done[0]

    def run(self, max_cycles=10 ** 9, on_step=None):
        """Execute until halt, fault, or cycle budget; never raises mid-run.

        The budget is checked before every instruction.  `on_step`, when
        given, receives a StepResult after each completed instruction.
        """
        c = self.counters
        before = c.c1 + c.c2
        try:
            exit_reason = self._execute(max_cycles, on_step)
        except M0EnergyError as exc:
            exit_reason = "fault: %s" % exc
        return RunSummary(c.snapshot(), self.state.cycle_count, exit_reason,
                          c.c1 + c.c2 - before)

    def _execute(self, max_cycles, on_step):
        """The engine behind run() and step(); returns the exit reason and
        raises on a fault.  Counters are folded in on every exit."""
        s = self.state
        regs = s.regs
        blocks = self._blocks
        fetch_unit = self.mem.fetch_unit
        stall_for = fetch_unit.stall_for
        histogram = self.counters.histogram
        sequential = self._sequential
        start_cycles = s.cycle_count
        executed = muls = taken_count = fetch_stalls = 0
        if on_step is not None:
            self._accesses = []
        try:
            while True:
                if s.halted:
                    return "halt"
                pc = regs[15]
                now = s.cycle_count
                if now >= max_cycles:
                    return "cycle-budget"
                block = blocks.get(pc) or self._translate(pc)
                stall = 0
                word = block.word
                if word is not None and (not sequential
                                         or word != fetch_unit.current_word):
                    stall = stall_for(word, now, sequential)
                sequential = True  # no taken branch inside a block
                entries = block.entries
                try:
                    for handler, ins, addr, base, base_taken, words, i in entries:
                        regs[15] = addr
                        now = s.cycle_count
                        if now >= max_cycles:
                            self._tally(entries[:i])
                            return "cycle-budget"
                        for word in words:
                            stall += stall_for(word, now + stall, True)
                        taken = handler(self, ins)
                        if taken:
                            taken_count += 1
                            s.cycle_count += base_taken + stall
                        else:
                            s.cycle_count += base + stall
                        fetch_stalls += stall
                        if on_step is not None:
                            if not taken:
                                regs[15] = addr + ins.size
                            sequential = not taken
                            result = StepResult(ins, s.cycle_count - now,
                                                bool(taken), self._accesses,
                                                s.halted, stall)
                            self._accesses = []
                            on_step(result)
                        stall = 0
                except M0EnergyError:
                    self._tally(entries[:i])  # the faulting one commits nothing
                    raise
                except _StepDone:
                    self._tally(entries[:i + 1])
                    raise
                executed += len(entries)
                muls += block.muls
                for mnemonic, count in block.mix:
                    histogram[mnemonic] = histogram.get(mnemonic, 0) + count
                if not taken:
                    regs[15] = block.end
                sequential = not taken
        finally:
            c = self.counters
            c.c1 += executed - muls
            c.c2 += muls
            c.c3 += taken_count
            c.fetch_stall_cycles += fetch_stalls
            c.total_cycles += s.cycle_count - start_cycles
            self._sequential = sequential
            self._accesses = None

    def _tally(self, entries):
        """Fold the completed part of a block into c1, c2 and the histogram."""
        c = self.counters
        for entry in entries:
            ins = entry[1]
            if ins.op == "MULS":
                c.c2 += 1
            else:
                c.c1 += 1
            c.histogram[ins.mnemonic] = c.histogram.get(ins.mnemonic, 0) + 1


# -- instruction handlers -----------------------------------------------
# Each takes (sim, ins) and returns truthy when a branch was taken.

def _addsub(first, subtract=False, carry=False, write=True):
    """ADDS, SUBS, ADCS, SBCS, RSBS, CMP and CMN: first + second (inverted
    for a subtraction) + carry-in.  `first` is the first operand's field, or
    None for RSBS's zero; the second is `imm` when the encoding has one, else
    `rm`.  The carry-in is the C flag when `carry`, else 1 for a subtraction
    and 0 for an addition; `write` stores the result in rd."""
    def handler(sim, ins):
        f = ins.fields
        a = sim._rget(f[first]) if first else 0
        b = f["imm"] if "imm" in f else sim._rget(f["rm"])
        if subtract:
            b ^= MASK32
        s = sim.state
        total = a + b + (s.c if carry else subtract)
        result = total & MASK32
        if write:
            s.regs[f["rd"]] = result
        s.n = result > 0x7FFFFFFF
        s.z = result == 0
        s.c = total > MASK32
        s.v = bool(~(a ^ b) & (a ^ result) & 0x80000000)
    return handler


def _logical(fn, write=True):
    """MOVS, ANDS, EORS, ORRS, BICS, MVNS, TST and MULS: fn(rd, second), the
    second operand being `imm` when the encoding has one, else `rm` (all
    low registers).  N and Z come from the result; C and V are kept."""
    def handler(sim, ins):
        f = ins.fields
        s = sim.state
        regs = s.regs
        result = fn(regs[f["rd"]],
                    f["imm"] if "imm" in f else regs[f["rm"]]) & MASK32
        if write:
            regs[f["rd"]] = result
        s.n = result > 0x7FFFFFFF
        s.z = result == 0
    return handler


def _shift_lsl(value, amount):
    if amount < 32:
        full = value << amount
        return full & MASK32, bool(full & (1 << 32))
    if amount == 32:
        return 0, bool(value & 1)
    return 0, False


def _shift_lsr(value, amount):
    if amount < 32:
        return (value >> amount) & MASK32, bool((value >> (amount - 1)) & 1)
    if amount == 32:
        return 0, bool(value >> 31)
    return 0, False


def _shift_asr(value, amount):
    sign = bool(value & 0x80000000)
    if amount < 32:
        result = value >> amount
        if sign:
            result |= (MASK32 << (32 - amount)) & MASK32
        return result & MASK32, bool((value >> (amount - 1)) & 1)
    return (MASK32 if sign else 0), sign


def _shift_ror(value, amount):
    m = amount % 32
    if m == 0:
        return value, bool(value >> 31)
    result = ((value >> m) | (value << (32 - m))) & MASK32
    return result, bool(result >> 31)


def _shift(shifter):
    """LSLS, LSRS and ASRS by `imm` shift rm into rd; the register forms
    and RORS shift rd in place by the low byte of rm.  N and Z come from
    the result; C is the last bit `shifter` shifts out, kept when the
    amount is 0 (the shifters see amounts of 1 and up)."""
    def handler(sim, ins):
        f = ins.fields
        s = sim.state
        regs = s.regs
        if "imm" in f:
            value, amount = regs[f["rm"]], f["imm"]
        else:
            value, amount = regs[f["rd"]], regs[f["rm"]] & 0xFF
        if amount:
            value, s.c = shifter(value, amount)
        regs[f["rd"]] = value
        s.n = value > 0x7FFFFFFF
        s.z = value == 0
    return handler


def _extend_bits(value, bits, signed):
    """The low `bits` of value, sign-extended when `signed`, as 32 bits: the
    one extension rule, for loads, SXT*/UXT* and REVSH."""
    value &= (1 << bits) - 1
    if signed and value >> (bits - 1):
        value |= MASK32 ^ ((1 << bits) - 1)
    return value


def _extend(bits, signed):
    """SXTB, SXTH, UXTB and UXTH: rd = the low `bits` of rm, extended."""
    def handler(sim, ins):
        f = ins.fields
        regs = sim.state.regs
        regs[f["rd"]] = _extend_bits(regs[f["rm"]], bits, signed)
    return handler


def _h_mov_hi(sim, ins):
    f = ins.fields
    v = sim._rget(f["rm"])
    if f["rd"] == 15:
        sim._branch(v & ~1)
        return True
    sim._rset(f["rd"], v)


def _h_add_hi(sim, ins):
    f = ins.fields
    v = (sim._rget(f["rd"]) + sim._rget(f["rm"])) & MASK32
    if f["rd"] == 15:
        sim._branch(v & ~1)
        return True
    sim._rset(f["rd"], v)


def _h_adr(sim, ins):
    sim._rset(ins.fields["rd"], ins.fields["lit_addr"])


def _h_add_sp_imm8(sim, ins):
    sim._rset(ins.fields["rd"], sim._rget(13) + ins.fields["imm"])


def _h_add_sp_imm7(sim, ins):
    sim._rset(13, sim._rget(13) + ins.fields["imm"])


def _h_sub_sp_imm7(sim, ins):
    sim._rset(13, sim._rget(13) - ins.fields["imm"])


def _h_rev(sim, ins):
    v = sim._rget(ins.fields["rm"])
    out = int.from_bytes(v.to_bytes(4, "little"), "big")
    sim._rset(ins.fields["rd"], out)


def _h_rev16(sim, ins):
    v = sim._rget(ins.fields["rm"])
    out = ((v & 0x00FF00FF) << 8) | ((v & 0xFF00FF00) >> 8)
    sim._rset(ins.fields["rd"], out)


def _h_revsh(sim, ins):
    v = sim._rget(ins.fields["rm"])
    half = ((v & 0xFF) << 8) | ((v >> 8) & 0xFF)
    sim._rset(ins.fields["rd"], _extend_bits(half, 16, True))


def _h_hint(sim, ins):
    pass


def _h_bkpt(sim, ins):
    sim.state.halted = True


# loads and stores

def _h_ldr_lit(sim, ins):
    f = ins.fields
    sim._rset(f["rt"], sim._read(f["lit_addr"], 4))


def _h_load(sim, ins):
    """Register, immediate and SP-relative loads: `rn` plus `imm` or `rm`,
    `size` bytes, sign-extended when the op is signed."""
    f = ins.fields
    offset = f["imm"] if "imm" in f else sim._rget(f["rm"])
    size = f["size"]
    v = sim._read(sim._rget(f["rn"]) + offset, size)
    if "signed" in f:
        v = _extend_bits(v, 8 * size, True)
    sim._rset(f["rt"], v)


def _h_store(sim, ins):
    """Register, immediate and SP-relative stores of the low `size` bytes."""
    f = ins.fields
    offset = f["imm"] if "imm" in f else sim._rget(f["rm"])
    sim._write(sim._rget(f["rn"]) + offset, f["size"], sim._rget(f["rt"]))


def _commit_on_completion(transfer):
    """A block transfer that faults part-way rolls back the counter events
    and Flash stalls of the words it did transfer."""
    def handler(sim, ins):
        c, s = sim.counters, sim.state
        saved = c.c4, c.c5, c.c6, s.cycle_count
        try:
            return transfer(sim, ins)
        except M0EnergyError:
            c.c4, c.c5, c.c6, s.cycle_count = saved
            raise
    return handler


@_commit_on_completion
def _h_push(sim, ins):
    regs = ins.fields["regs"]
    addr = (sim._rget(13) - 4 * len(regs)) & MASK32
    sim._rset(13, addr)
    for i, r in enumerate(regs):
        sim._write(addr + 4 * i, 4, sim._rget(r))


@_commit_on_completion
def _h_pop(sim, ins):
    f = ins.fields
    regs = list(f["regs"])
    count = len(regs) + (1 if f["pc"] else 0)
    addr = sim._rget(13)
    for i, r in enumerate(regs):
        sim._rset(r, sim._read(addr + 4 * i, 4))
    target = None
    if f["pc"]:
        target = sim._read(addr + 4 * len(regs), 4)
    sim._rset(13, addr + 4 * count)
    if target is not None:
        _bx_write_pc(sim, target)
        return True


@_commit_on_completion
def _h_ldm(sim, ins):
    f = ins.fields
    base = sim._rget(f["rn"])
    for i, r in enumerate(f["regs"]):
        sim._rset(r, sim._read(base + 4 * i, 4))
    if f["wback"]:
        sim._rset(f["rn"], base + 4 * len(f["regs"]))


@_commit_on_completion
def _h_stm(sim, ins):
    f = ins.fields
    base = sim._rget(f["rn"])
    for i, r in enumerate(f["regs"]):
        sim._write(base + 4 * i, 4, sim._rget(r))
    sim._rset(f["rn"], base + 4 * len(f["regs"]))


# control flow

def _bx_write_pc(sim, target):
    """Interworking branch: a target with bit 0 clear leaves pc odd, which
    raises the INVSTATE fault before the next instruction executes."""
    sim.state.regs[15] = (target & MASK32) ^ 1


def _h_bcond(sim, ins):
    if _cond_passed(ins.fields["cond"], sim.state):
        sim._branch(ins.fields["target"])
        return True


def _h_b(sim, ins):
    sim._branch(ins.fields["target"])
    return True


def _h_bl(sim, ins):
    sim._rset(14, (ins.addr + 4) | 1)
    sim._branch(ins.fields["target"])
    return True


def _h_bx(sim, ins):
    _bx_write_pc(sim, sim._rget(ins.fields["rm"]))
    return True


def _h_blx(sim, ins):
    target = sim._rget(ins.fields["rm"])
    sim._rset(14, (ins.addr + 2) | 1)
    _bx_write_pc(sim, target)
    return True


HANDLERS = {
    # _addsub(first operand's field, subtract?, carry-in from C?, write rd?)
    "ADDS_REG": _addsub("rn"), "ADDS_IMM3": _addsub("rn"),
    "ADDS_IMM8": _addsub("rd"),
    "SUBS_REG": _addsub("rn", True), "SUBS_IMM3": _addsub("rn", True),
    "SUBS_IMM8": _addsub("rd", True),
    "ADCS": _addsub("rd", carry=True), "SBCS": _addsub("rd", True, True),
    "RSBS": _addsub(None, True),
    "CMP_IMM": _addsub("rd", True, write=False),
    "CMP_REG": _addsub("rd", True, write=False),
    "CMP_HI": _addsub("rd", True, write=False),
    "CMN": _addsub("rd", write=False),
    # _logical(result from rd and the second operand, write rd?)
    "MOVS_IMM": _logical(lambda a, b: b), "MOVS_REG": _logical(lambda a, b: b),
    "ANDS": _logical(operator.and_), "EORS": _logical(operator.xor),
    "ORRS": _logical(operator.or_), "BICS": _logical(lambda a, b: a & ~b),
    "MVNS": _logical(lambda a, b: ~b), "TST": _logical(operator.and_, False),
    "MULS": _logical(operator.mul),
    "LSLS_IMM": _shift(_shift_lsl), "LSRS_IMM": _shift(_shift_lsr),
    "ASRS_IMM": _shift(_shift_asr), "LSLS_REG": _shift(_shift_lsl),
    "LSRS_REG": _shift(_shift_lsr), "ASRS_REG": _shift(_shift_asr),
    "RORS": _shift(_shift_ror),
    "SXTB": _extend(8, True), "SXTH": _extend(16, True),
    "UXTB": _extend(8, False), "UXTH": _extend(16, False),
    "MOV_HI": _h_mov_hi, "ADD_HI": _h_add_hi,
    "ADR": _h_adr, "ADD_SP_IMM8": _h_add_sp_imm8,
    "ADD_SP_IMM7": _h_add_sp_imm7, "SUB_SP_IMM7": _h_sub_sp_imm7,
    "REV": _h_rev, "REV16": _h_rev16, "REVSH": _h_revsh,
    "HINT": _h_hint, "BKPT": _h_bkpt,
    "LDR_LIT": _h_ldr_lit,
    **dict.fromkeys(dec.LOAD_OPS - {"LDR_LIT"}, _h_load),
    **dict.fromkeys(dec.STORE_OPS, _h_store),
    "PUSH": _h_push, "POP": _h_pop, "LDM": _h_ldm, "STM": _h_stm,
    "BCOND": _h_bcond, "B": _h_b, "BL": _h_bl, "BX": _h_bx, "BLX": _h_blx,
}
