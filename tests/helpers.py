"""Shared kernels and independent oracles for the test suite.

Expected cycle counts were derived by hand from the documented timing
contract: per-opcode base cycles, plus (at WS=1, prefetch off) one stall
for every instruction fetch that touches a new 32-bit Flash word or that
follows a taken branch, plus one stall per Flash data read.  The WS=1
prefetch-on figures, where given, come from tracing the read-ahead buffer
by hand.  Counter expectations are hand counts over the executed path.
"""

import contextlib
import csv
import functools
import math
import random
import re

import numpy as np

from m0energy import cpu
from m0energy import (Assembler, CpuState, DatasetError, EventCounters,
                      InvalidStateFault, M0EnergyError, MemorySystem,
                      RegressionDataset, Simulator,
                      UndefinedInstructionError, fit, fold_indices, mape, r2)
from m0energy.decode import (LOAD_OPS, STORE_OPS, _encoding, _record,
                             decode, is_wide)

MASK32 = 0xFFFFFFFF

# Published model table, transcribed independently of the package source.
# (freq, prefetch, ws, (b1..b6 as printed), MAPE, RESD)
PUBLISHED_TABLE = [
    (20, False, 0, ("0.964258", "1.652455", "2.091986", "1.109833", "0.650563", "0.633621"), "2.80", "3.60"),
    (20, False, 1, ("1.282474", "2.110668", "2.191545", "1.185609", "0.416602", "1.178991"), "2.97", "3.60"),
    (20, True, 0, ("1.003378", "1.885309", "1.802974", "1.122833", "0.849223", "0.475831"), "2.86", "3.53"),
    (20, True, 1, ("0.895879", "2.185851", "2.001178", "1.493364", "1.076354", "1.573758"), "3.68", "4.61"),
    (24, False, 0, ("0.959172", "1.888565", "1.357556", "1.089427", "0.993145", "0.562952"), "3.22", "3.63"),
    (24, False, 1, ("1.178558", "2.540429", "2.042475", "1.190892", "0.979651", "0.891088"), "3.16", "3.90"),
    (24, True, 0, ("0.985415", "1.933276", "1.448160", "1.075671", "1.011891", "0.617510"), "3.36", "3.88"),
    (24, True, 1, ("0.883755", "2.156046", "1.633465", "1.436556", "1.152560", "1.455166"), "4.15", "5.02"),
    (48, False, 1, ("1.096677", "2.364495", "1.627854", "1.173680", "0.681475", "0.652665"), "3.65", "4.08"),
    (48, True, 1, ("0.816331", "2.014612", "1.372157", "1.402116", "0.835035", "1.250446"), "4.33", "4.99"),
]

BETA_20_OFF_0 = tuple(float(x) for x in PUBLISHED_TABLE[0][3])


# -- test kernels -----------------------------------------------------------

def k_straight6():
    a = Assembler()
    for i in range(6):
        a.movs(0, i + 1)
    a.bkpt()
    return a


def k_alu_mix():
    a = Assembler()
    a.movs(0, 10)
    a.movs(1, 3)
    a.ands(0, 1)
    a.orrs(0, 1)
    a.eors(0, 1)
    a.adds_reg(2, 0, 1)
    a.subs_imm3(0, 2, 1)
    a.lsls_imm(0, 0, 2)
    a.bkpt()
    return a


def k_muls():
    a = Assembler()
    a.movs(0, 7)
    a.movs(1, 6)
    a.muls(0, 1)
    a.bkpt()
    return a


def k_ram_rw():
    a = Assembler()
    a.ldr_lit(0, "ram")
    a.movs(1, 42)
    a.str_imm(1, 0)
    a.ldr_imm(2, 0)
    a.bkpt()
    a.word(0x20000000, label="ram")
    return a


def k_loop5():
    a = Assembler()
    a.movs(0, 5)
    a.label("loop")
    a.subs_imm8(0, 1)
    a.bne("loop")
    a.bkpt()
    return a


def k_call_ret():
    a = Assembler()
    a.movs(0, 3)
    a.bl("func")
    a.bkpt()
    a.label("func")
    a.adds_imm8(0, 1)
    a.bx(14)
    return a


def k_pushpop():
    a = Assembler()
    a.movs(0, 1)
    a.movs(1, 2)
    a.push([0, 1])
    a.pop([2, 3])
    a.bkpt()
    return a


def k_pop_pc():
    a = Assembler()
    a.bl("func")
    a.bkpt()
    a.label("func")
    a.push([], lr=True)
    a.movs(0, 9)
    a.pop([], pc=True)
    return a


def k_flash_lit():
    a = Assembler()
    a.adr(0, "lit")
    a.ldr_lit(1, "lit")
    a.ldr_imm(2, 0)
    a.bkpt()
    a.word(0x12345678, label="lit")
    return a


def k_lit_alu():
    """One exact block: two Flash literal loads (c6), MULS (c2), ALU ops."""
    a = Assembler()
    a.ldr_lit(0, "lit")
    a.movs(1, 5)
    a.adds_reg(2, 0, 1)
    a.ldr_lit(3, "lit")
    a.muls(2, 3)
    a.eors(2, 0)
    a.bkpt()
    a.word(0x12345678, label="lit")
    return a


def k_pushpop_loop():
    a = Assembler()
    a.movs(0, 4)
    a.label("loop")
    a.push([0])
    a.pop([3])
    a.subs_imm8(0, 1)
    a.bne("loop")
    a.bkpt()
    return a


# name -> (builder, expected cycles per timing config, expected counters,
#          statically resolvable?)
# cycles keys: ws0 (any prefetch), ws1_off, ws1_on (None = bounds only)
KERNELS = {
    "straight6": (k_straight6, {"ws0": 7, "ws1_off": 11, "ws1_on": 8},
                  (7, 0, 0, 0, 0, 0), True),
    "alu_mix": (k_alu_mix, {"ws0": 9, "ws1_off": 14, "ws1_on": None},
                (9, 0, 0, 0, 0, 0), True),
    "muls": (k_muls, {"ws0": 4, "ws1_off": 6, "ws1_on": None},
             (3, 1, 0, 0, 0, 0), True),
    "ram_rw": (k_ram_rw, {"ws0": 8, "ws1_off": 12, "ws1_on": 10},
               (5, 0, 0, 1, 1, 1), False),
    "loop5": (k_loop5, {"ws0": 20, "ws1_off": 30, "ws1_on": None},
              (12, 0, 4, 0, 0, 0), True),
    "call_ret": (k_call_ret, {"ws0": 10, "ws1_off": 14, "ws1_on": None},
                 (5, 0, 2, 0, 0, 0), True),
    "pushpop": (k_pushpop, {"ws0": 9, "ws1_off": 12, "ws1_on": None},
                (5, 0, 0, 2, 2, 0), True),
    "pop_pc": (k_pop_pc, {"ws0": 10, "ws1_off": 14, "ws1_on": None},
               (5, 0, 2, 1, 1, 0), True),
    "flash_lit": (k_flash_lit, {"ws0": 6, "ws1_off": 10, "ws1_on": None},
                  (4, 0, 0, 0, 0, 2), False),
    # 9 base cycles; WS=1 adds 2 data stalls and, prefetch off, 4 fetch
    # stalls (words 0x08, 0x0C, 0x10, 0x14), prefetch on, only the first
    "lit_alu": (k_lit_alu, {"ws0": 9, "ws1_off": 15, "ws1_on": 12},
                (6, 1, 0, 0, 0, 2), True),
    "pushpop_loop": (k_pushpop_loop, {"ws0": 32, "ws1_off": 44, "ws1_on": None},
                     (18, 0, 3, 4, 4, 0), True),
}

TIMING_CONFIGS = [  # (wait_states, prefetch, cycles key)
    (0, False, "ws0"),
    (0, True, "ws0"),
    (1, False, "ws1_off"),
    (1, True, "ws1_on"),
]


# Interworking branches to r0; a target with bit 0 clear takes INVSTATE.
INTERWORKING_BRANCHES = {
    "bx": lambda a: a.bx(0),
    "blx": lambda a: a.blx(0),
    "pop_pc": lambda a: (a.push([0]), a.pop([], pc=True)),
}


def invstate_image(emit_branch):
    """r0 holds the even (Thumb bit clear) address of MOVS r0, #1; BKPT, and
    `emit_branch` branches to it.  r0 still names the target after the
    INVSTATE fault, because the target never executes."""
    a = Assembler()
    a.movs(1, 7)
    a.adr(0, "target")
    emit_branch(a)
    a.bkpt()
    a.word(0xBE002001, label="target")   # MOVS r0, #1 ; BKPT
    return a.image()


def invstate_reason(target):
    return "fault: INVSTATE: branch to 0x%08x with the Thumb bit clear" % target


# tried after every 32-bit prefix: missing, BL's and other 32-bit encodings
SECOND_HALFWORDS = (None, 0x0000, 0x8F4F, 0xD000, 0xE800, 0xF800, 0xFFFF)


@functools.lru_cache(maxsize=None)
def decoded_forms():
    """{(op, cpu._form(ins))} over every instruction the decoder accepts:
    each halfword, and each 32-bit prefix with the second halfwords above.
    Only UndefinedInstructionError may reject an encoding; any other
    exception escapes."""
    forms = set()
    for hw in range(0x10000):
        for hw2 in SECOND_HALFWORDS if is_wide(hw) else (None,):
            try:
                ins = decode(hw, hw2, 0x08000100)
            except UndefinedInstructionError:
                continue
            forms.add((ins.op, cpu._form(ins)))
    return frozenset(forms)


def kernel_image(name):
    return KERNELS[name][0]().image()


def run_kernel(name, wait_states=0, prefetch=False, collect_steps=False):
    sim = Simulator(kernel_image(name), wait_states=wait_states,
                    prefetch=prefetch)
    steps = []
    summary = sim.run(max_cycles=10 ** 6,
                      on_step=steps.append if collect_steps else None)
    return sim, summary, steps


@contextlib.contextmanager
def compile_at_first_run():
    """Let the engine compile each Flash block on its first run instead of
    after `cpu.COMPILE_AFTER` runs one instruction at a time, so that a
    single run reaches the compiled code."""
    saved = cpu.COMPILE_AFTER
    cpu.COMPILE_AFTER = 0
    try:
        yield
    finally:
        cpu.COMPILE_AFTER = saved


# -- independent oracles ------------------------------------------------------

class TimedFetchUnit:
    """The Flash fetch buffer as a clocked state machine: the held word,
    the read-ahead word and the cycle at which it is ready.  The engine
    prices fetches once per block, with `memory.fetch_stall`, which needs
    no clock; this independent model of the README's rule checks it."""

    def __init__(self, wait_states, prefetch):
        self.wait_states = wait_states
        self.prefetch = prefetch
        self.flush()

    def flush(self):
        """Empty the buffer, as a taken branch completes, on reset and on a
        fault."""
        self.current_word = None
        self.next_word = None
        self.next_ready_at = 0

    def stall_for(self, word_addr, now):
        """Stall cycles for fetching from `word_addr` at cycle `now`: none
        inside the held word, the rest of the fill for the read-ahead word,
        else the wait states.  With prefetch, a fetch starts reading the
        following word, ready the wait states after the fetch completes."""
        if word_addr == self.current_word:
            stall = 0
        elif self.prefetch and word_addr == self.next_word:
            stall = max(0, self.next_ready_at - now)
            self.current_word = word_addr
        else:
            stall = self.wait_states
            self.current_word = word_addr
            self.next_word = None
        if self.prefetch:
            follow = word_addr + 4
            if self.next_word != follow:
                self.next_word = follow
                self.next_ready_at = now + stall + self.wait_states
        return stall


def fetch(mem, unit, addr, now, sequential=True):
    """Fetch the instruction halfword at addr through `unit`, a
    TimedFetchUnit, as the core sees it; returns (value, stall).  A
    non-sequential Flash fetch (the first after reset, a taken branch or a
    fault) flushes the unit first.  RAM fetches never stall."""
    value = mem.read_code(addr)
    if mem.region(addr) == "ram":
        return value, 0
    if not sequential:
        unit.flush()
    return value, unit.stall_for(mem.fetch_word(addr), now)


class ReferenceStepper:
    """The documented model executed one instruction at a time, as an oracle
    for the simulator's engine.

    Every halfword is fetched through `fetch` above, timed by its own
    TimedFetchUnit rather than the engine's `memory.fetch_stall`, and
    decoded on every step (`decode._encoding`, then bound with
    `Encoding.at`), cycles are summed from the README timing table, and
    counters come from each completed step's own access list,
    `accesses`, which `_read` and `_write` here keep as (r or w, region,
    stall), a Flash or boot-alias data read stalling the wait states here.
    pc moves to the next instruction here unless the step branched.  Only the
    instruction semantics are shared with the simulator: `step` runs the
    engine's one-instruction function, `cpu._step(enc)`, on the Encoding and
    its address, including the odd pc an interworking branch leaves when it
    clears the Thumb bit.
    """

    def __init__(self, image, wait_states=0, prefetch=False):
        self.mem = MemorySystem(image)
        self.wait_states = wait_states
        self.fetch_unit = TimedFetchUnit(wait_states, prefetch)
        self.state = CpuState()
        self.state.regs[13], self.state.pc = self.mem.reset_vector()
        self.counters = EventCounters()
        self.sequential = False  # whether the last step fell through

    def _read(self, addr, size):
        value, region = self.mem.read(addr & MASK32, size)
        self.accesses.append(
            ("r", region, self.wait_states if region == "flash" else 0))
        return value

    def _write(self, addr, size, value):
        region = self.mem.write(addr & MASK32, size, value)
        self.accesses.append(("w", region, 0))

    def step(self):
        """Execute one instruction and return it.  Faults raise."""
        s, c = self.state, self.counters
        addr, now = s.pc, s.cycle_count
        sequential, self.sequential = self.sequential, False  # if it faults
        if addr & 1:
            raise InvalidStateFault(addr ^ 1)
        hw1, fetch_stall = fetch(self.mem, self.fetch_unit, addr, now,
                                 sequential)
        hw2 = None
        if is_wide(hw1):
            hw2, more = fetch(self.mem, self.fetch_unit, addr + 2,
                              now + fetch_stall)
            fetch_stall += more
        enc = _encoding(hw1, hw2, addr)
        ins = enc.at(addr)
        self.accesses = []
        taken = bool(cpu._step(enc)(self, enc, addr))
        op, f = ins.op, ins.fields
        if op in ("PUSH", "POP", "LDM", "STM"):
            base = 1 + len(self.accesses)
        elif op in LOAD_OPS or op in STORE_OPS:
            base = 2
        else:
            base = {"B": 3, "BCOND": 3 if taken else 1, "BL": 4, "BX": 3,
                    "BLX": 3}.get(op, 3 if taken else 1)
        s.cycle_count += fetch_stall + base + sum(a[2] for a in self.accesses)
        if not taken:
            s.pc = addr + ins.size
        self.sequential = not taken
        if op == "MULS":
            c.c2 += 1
        else:
            c.c1 += 1
        c.c3 += taken
        for rw, region, _ in self.accesses:
            if region == "ram":
                if rw == "r":
                    c.c4 += 1
                else:
                    c.c5 += 1
            elif region == "flash":
                c.c6 += 1
        c.fetch_stall_cycles += fetch_stall
        c.total_cycles = s.cycle_count
        c.histogram[ins.mnemonic] = c.histogram.get(ins.mnemonic, 0) + 1
        return ins

    def run(self, max_cycles=10 ** 6):
        while not self.state.halted:
            if self.state.cycle_count >= max_cycles:
                return "cycle-budget"
            try:
                self.step()
            except M0EnergyError as exc:
                return "fault: %s" % exc
        return "halt"


def machine_state(sim):
    """Everything the engine and the reference stepper must agree on."""
    s, c = sim.state, sim.counters
    return {"regs": list(s.regs), "flags": (s.n, s.z, s.c, s.v),
            "halted": s.halted, "cycles": s.cycle_count,
            "counters": c.as_vector(), "total_cycles": c.total_cycles,
            "fetch_stalls": c.fetch_stall_cycles,
            "histogram": dict(c.histogram), "ram": bytes(sim.mem.ram),
            "output": bytes(sim.mem.debug_output)}


def reference_data_events(steps, image, wait_states=0, prefetch=False):
    """The (c4, c5, c6) of each step of a simulator's run from reset on
    `image`, counted from the accesses of a ReferenceStepper run in
    lock-step, never from the simulator.  The reference must execute the
    same instruction at each step."""
    ref = ReferenceStepper(image, wait_states=wait_states, prefetch=prefetch)
    events = []
    for step in steps:
        assert ref.step().addr == step.instruction.addr
        kinds = [(rw, region) for rw, region, _stall in ref.accesses]
        events.append((kinds.count(("r", "ram")), kinds.count(("w", "ram")),
                       kinds.count(("r", "flash"))))
    return events


def recount_from_steps(steps, image, wait_states=0, prefetch=False):
    """Re-derive the six counters of a run from reset on `image` from its
    step trace, independently of EventCounters: c1..c3 keyed off the
    rendered text and `branch_taken`, c4..c6 from
    `reference_data_events`."""
    c = [0] * 6
    for step in steps:
        mnemonic = step.instruction.text.split()[0]
        if mnemonic == "MULS":
            c[1] += 1
        else:
            c[0] += 1
        if step.branch_taken:
            c[2] += 1
    for events in reference_data_events(steps, image, wait_states, prefetch):
        for k, n in enumerate(events):
            c[3 + k] += n
    return tuple(c)


def recount_from_trace_file(path):
    """Recount the six counters from an emitted --trace file."""
    c = [0] * 6
    with open(path) as fh:
        for line in fh:
            tokens = line.split()
            if not tokens:
                continue
            mnemonic = tokens[1]
            fields = dict(t.split("=") for t in tokens if "=" in t)
            if mnemonic == "MULS":
                c[1] += 1
            else:
                c[0] += 1
            c[2] += int(fields["taken"])
            c[3] += int(fields["ram_r"])
            c[4] += int(fields["ram_w"])
            c[5] += int(fields["flash_r"])
    return tuple(c)


def dynamic_block_path(graph, steps):
    """Replay a dynamic step trace as a CFG block path.

    Returns (blocks, taken_edges) where blocks is the sequence of visited
    BasicBlocks (one entry per visit) and taken_edges[i] says whether the
    transition into blocks[i+1] was a taken branch."""
    blocks = []
    edges = []
    previous = None
    for step in steps:
        addr = step.instruction.addr
        if previous is None:
            blocks.append(graph.blocks[addr])
        elif addr in graph.blocks:
            blocks.append(graph.blocks[addr])
            edges.append(previous.branch_taken)
        previous = step
    return blocks, edges


def sum_static_counts(blocks, edges):
    """Total statically predicted counters along a path (must be exact)."""
    total = [0] * 6
    for block in blocks:
        vec = block.static_counts.as_vector()
        total = [a + b for a, b in zip(total, vec)]
    total[2] += sum(1 for taken in edges if taken)
    return tuple(total)


def reference_static_counts(instructions, mem):
    """StaticCounts' fields, as a dict, of a straight-line run, counted one
    instruction at a time."""
    c = dict.fromkeys(["c1", "c2", "c4_known", "c5_known", "c6_known",
                       "unresolved_loads", "unresolved_stores"], 0)
    for ins in instructions:
        op, f = ins.op, ins.fields
        c["c2" if op == "MULS" else "c1"] += 1
        if op == "LDR_LIT":
            c["c4_known" if mem.region(f["lit_addr"]) == "ram"
              else "c6_known"] += 1
        elif op == "LDR_SP":
            c["c4_known"] += 1
        elif op == "STR_SP":
            c["c5_known"] += 1
        elif op == "PUSH":
            c["c5_known"] += len(f["regs"])
        elif op == "POP":
            c["c4_known"] += len(f["regs"]) + int(f["pc"])
        elif op == "LDM":
            c["unresolved_loads"] += len(f["regs"])
        elif op == "STM":
            c["unresolved_stores"] += len(f["regs"])
        elif op in LOAD_OPS:
            c["unresolved_loads"] += 1
        elif op in STORE_OPS:
            c["unresolved_stores"] += 1
    return c


def memo_free_decode(hw, hw2, addr):
    """decode() without the memo, for an even `addr` and a 16-bit `hw`."""
    return _record(hw, hw2, addr).at(addr)


def reference_cfg(mem, entry):
    """{start: (end, instructions, successors, counts)} of the CFG from
    `entry`, as extract_cfg should find it: a worklist walk that fetches
    every address through read_code and decodes it with the memo-free
    decoder, ending a run at each Encoding whose `flow` ends a block, with
    its `edges`; blocks split at every edge target (and the entry)."""
    entry &= ~1
    decoded, flows, leaders, work = {}, {}, {entry}, [entry]
    while work:
        addr = work.pop()
        while addr not in decoded:
            hw1 = mem.read_code(addr)
            hw2 = mem.read_code(addr + 2) if is_wide(hw1) else None
            enc = _record(hw1, hw2, addr)
            decoded[addr] = enc.at(addr)
            if enc.flow is not None:
                flows[addr] = enc.edges(addr)
                targets = [t for t, _kind in flows[addr] if t is not None]
                leaders.update(targets)
                work += targets
                break
            addr += enc.size
    blocks, run = {}, []

    def close(edges):
        end = run[-1].addr + run[-1].size
        blocks[run[0].addr] = (end, list(run), edges,
                               reference_static_counts(run, mem))
        run.clear()
    for addr in sorted(decoded):
        if run and addr in leaders:
            close([(addr, "fallthrough")])
        run.append(decoded[addr])
        if addr in flows:
            close(flows[addr])
    return blocks


def analyze_like_image(seed, blocks=240, functions=24):
    """A seeded image shaped like the analyze benchmark's: a chain of
    blocks, each of one to six body instructions (ALU, MULS, register and
    SP-relative loads and stores) ending in a BEQ two blocks ahead, a BL
    to one of the functions, or a B over one or two literal words it
    loads; then the functions, half ending in POP {r4, pc} and half in BX
    lr over a literal word they load."""
    rng = random.Random(seed)
    a = Assembler()

    def body():
        for _ in range(rng.randint(1, 6)):
            r = rng.randint(0, 3)
            emit = rng.choice([
                lambda: a.adds_reg(r, r + 1, r + 2), lambda: a.muls(r, r + 1),
                lambda: a.ldr_imm(r, r + 1, 4), lambda: a.str_imm(r, r + 1, 8),
                lambda: a.ldr_sp(r, 4), lambda: a.str_sp(r, 4)])
            emit()
    for i in range(blocks):
        a.label("m%d" % i)
        body()
        end = rng.choice(["beq", "bl", "b"]) if i < blocks - 2 else "b"
        if i == blocks - 1:
            a.bkpt()
        elif end == "beq":
            a.beq("m%d" % (i + 2))
        elif end == "bl":
            a.bl("f%d" % rng.randrange(functions))
        else:
            pool = ["p%d_%d" % (i, k) for k in range(rng.randint(1, 2))]
            for name in pool:
                a.ldr_lit(rng.randint(0, 7), name)
            a.b("m%d" % (i + 1))
            for name in pool:
                a.word(rng.getrandbits(32), name)
    for j in range(functions):
        a.label("f%d" % j)
        if j % 2:
            a.push([4], True)
            body()
            a.pop([4], True)
        else:
            body()
            a.ldr_lit(5, "q%d" % j)
            a.bx(14)
            a.word(rng.getrandbits(32), "q%d" % j)
    return a.image()


def reference_load_dataset(path, name=None):
    """The dataset loader as first written, frozen as an oracle: one
    csv.reader pass and float() per field.  It still lets csv.Error (a
    field past csv.field_size_limit) escape."""
    header_names = ["c1", "c2", "c3", "c4", "c5", "c6", "energy_nj"]
    rows = []
    lines = []
    with open(path, newline="", encoding="latin-1") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError("%s: empty file" % path) from None
        if [h.strip() for h in header] != header_names:
            raise DatasetError("%s: header must be %s" % (path, ",".join(header_names)))
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 7:
                raise DatasetError("%s: line %d: expected 7 fields, got %d"
                                   % (path, lineno, len(row)))
            try:
                values = [float(x) for x in row]
            except ValueError:
                raise DatasetError("%s: line %d: non-numeric value" % (path, lineno)) from None
            rows.append(values)
            lines.append(lineno)
    if not rows:
        raise DatasetError("%s: no data rows" % path)
    data = np.array(rows)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise DatasetError("%s: line %d: non-finite value"
                           % (path, lines[int(np.argmin(finite))]))
    return RegressionDataset(data[:, :6], data[:, 6], name or str(path))


def reference_to_json(obj, indent=0):
    """The JSON writer as it stood before dict keys and scalars were
    written inline, frozen as an oracle: dispatch on type(obj), with the
    isinstance order as the fallback for subclasses."""
    return (_REF_WRITERS.get(type(obj)) or _ref_writer_for(obj))(obj, indent)


def _ref_writer_for(obj):
    for base in (bool, int, float, str, dict, list, tuple):
        if isinstance(obj, base):
            return _REF_WRITERS[base]
    raise TypeError("cannot serialize %r" % type(obj))


_REF_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f]')
_REF_ESCAPES = {'"': '\\"', "\\": "\\\\",
                **{chr(i): "\\u%04x" % i for i in range(32)}}


def _ref_json_str(obj, indent=0):
    if _REF_NEEDS_ESCAPE.search(obj) is None:
        return '"' + obj + '"'
    return '"' + _REF_NEEDS_ESCAPE.sub(lambda m: _REF_ESCAPES[m.group()], obj) + '"'


def _ref_json_dict(obj, indent):
    pad = "  " * indent
    get, indent = _REF_WRITERS.get, indent + 1
    items = [_ref_json_str(str(k)) + ": "
             + (get(type(v)) or _ref_writer_for(v))(v, indent)
             for k, v in obj.items()]
    return ("{\n  " + pad + (",\n  " + pad).join(items) + "\n" + pad + "}"
            if items else "{}")


def _ref_json_list(obj, indent):
    pad = "  " * indent
    get, indent = _REF_WRITERS.get, indent + 1
    items = [(get(type(v)) or _ref_writer_for(v))(v, indent) for v in obj]
    return ("[\n  " + pad + (",\n  " + pad).join(items) + "\n" + pad + "]"
            if items else "[]")


_REF_WRITERS = {
    type(None): lambda obj, indent: "null",
    bool: lambda obj, indent: "true" if obj else "false",
    int: lambda obj, indent: str(obj),
    float: lambda obj, indent: "%.6f" % obj if math.isfinite(obj) else "null",
    str: _ref_json_str, dict: _ref_json_dict, list: _ref_json_list,
    tuple: _ref_json_list}


def reference_kfold_scores(dataset, k, seed):
    """Per-fold (r2, mape) with each training set built by np.setdiff1d,
    as k-fold cross-validation was first written."""
    all_idx = np.arange(len(dataset))
    scores = []
    for test_idx in fold_indices(len(dataset), k, seed):
        train = np.setdiff1d(all_idx, test_idx)
        model = fit(RegressionDataset(dataset.counts[train],
                                      dataset.energies[train]))
        pred = dataset.counts[test_idx] @ np.array(model.beta)
        actual = dataset.energies[test_idx]
        ss_tot = float(np.sum((actual - np.mean(actual)) ** 2))
        scores.append((r2(pred, actual) if ss_tot > 0 else float("nan"),
                       mape(pred, actual)))
    return scores


def dot_oracle(beta, counts):
    """Reference energy evaluation via Kahan-free explicit accumulation in
    reverse order (different association than the implementation)."""
    total = 0.0
    for b, c in zip(reversed(beta), reversed(tuple(counts))):
        total += b * c
    return total


def signed(x):
    return x - 0x100000000 if x & 0x80000000 else x


def oracle_add_flags(a, b, carry_in=0):
    """(result, n, z, c, v) for a + b + carry_in via range reasoning."""
    result = (a + b + carry_in) & MASK32
    carry = (a + b + carry_in) > MASK32
    s = signed(a) + signed(b) + carry_in
    overflow = not (-(2 ** 31) <= s <= 2 ** 31 - 1)
    return result, bool(result & 0x80000000), result == 0, carry, overflow


def oracle_sub_flags(a, b, borrow_in=0):
    """(result, n, z, c, v) for a - b - borrow_in; c is NOT borrow."""
    result = (a - b - borrow_in) & MASK32
    carry = (a - b - borrow_in) >= 0
    s = signed(a) - signed(b) - borrow_in
    overflow = not (-(2 ** 31) <= s <= 2 ** 31 - 1)
    return result, bool(result & 0x80000000), result == 0, carry, overflow


def synth_dataset(seed, n=230, beta=BETA_20_OFF_0, noise=0.03):
    """Synthetic benchmark suite: random counter vectors, energies from
    `beta` with multiplicative Gaussian noise.

    Counts are log-uniform over 1e2..1e6 independently per counter, like a
    suite whose kernels stress different events: some rows are dominated
    by each counter, which is what pins the small coefficients under
    multiplicative noise."""
    rng = np.random.default_rng(seed)
    counts = np.floor(10.0 ** rng.uniform(2.0, 6.0, size=(n, 6)))
    energies = counts @ np.asarray(beta)
    if noise:
        energies = energies * (1.0 + noise * rng.standard_normal(n))
    return RegressionDataset(counts, energies, name="synthetic-%d" % seed)
