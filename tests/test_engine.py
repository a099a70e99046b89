"""Differential tests: the simulator's translation-cache engine against the
reference stepper in helpers.py, which fetches and decodes every step.

Covered: every hand-traced kernel and seeded random programs (loops, RAM
and Flash loads, stores, PUSH/POP, calls, varying alignment) under every
timing configuration; every cycle-budget cut, with and without resuming;
single-stepping; pc after each traced step and after a fault; block
transfers that fault part-way, run by the engine and by a step function
alone; interworking branches that clear the Thumb bit; code copied into
RAM, run, patched and run again; and the long-block programs with RAM
reached through slices, the form for hosts without native little-endian
word views.  Every run is also repeated under the
other settings of its timing class (`memory.timing_class`), which must
behave identically: `run --sweep` reports one run for all of a class.  A
run at zero wait states that halts, priced for both classes at one wait
state (`Simulator.price`), must equal a direct run of each.
"""

import collections
import contextlib
import functools
import importlib.util
import io
import itertools
import random
import re
import types
from pathlib import Path

import pytest

from helpers import (INTERWORKING_BRANCHES, KERNELS, TIMING_CONFIGS,
                     ReferenceStepper, compile_at_first_run,
                     dynamic_block_path, invstate_image, invstate_reason,
                     kernel_image, machine_state, reference_data_events)
from m0energy import (Assembler, CpuState, M0EnergyError, MemorySystem,
                      Simulator, builtin_models, cli, cpu, extract_cfg,
                      memory, path_energy)
from m0energy.cpu import COMPILE_AFTER
from m0energy.decode import base_cycles, encoding_at
from m0energy.memory import timing_class

RANDOM_SEEDS = range(24)

# Every differential run is made twice: with each Flash block compiled on
# its first run, and with the engine's own threshold (`cpu.COMPILE_AFTER`),
# under which a block that runs only a few times stays on the
# one-instruction path.
ENGINES = (compile_at_first_run, contextlib.nullcontext)


def both(image, ws, prefetch):
    return (Simulator(image, wait_states=ws, prefetch=prefetch),
            ReferenceStepper(image, wait_states=ws, prefetch=prefetch))


def assert_class_mates_match(sim, summary, image, ws, prefetch, max_cycles):
    """The other settings in the timing class of (ws, prefetch) -- at zero
    wait states, the other prefetch setting -- end in the same state."""
    for other_ws, other_prefetch, _key in TIMING_CONFIGS:
        if ((other_ws, other_prefetch) != (ws, prefetch)
                and timing_class(other_ws, other_prefetch)
                == timing_class(ws, prefetch)):
            mate = Simulator(image, wait_states=other_ws,
                             prefetch=other_prefetch)
            mate_summary = mate.run(max_cycles=max_cycles)
            assert mate_summary.exit_reason == summary.exit_reason
            assert mate_summary.steps == summary.steps
            assert machine_state(mate) == machine_state(sim)


def assert_same_run(image, ws, prefetch, max_cycles=10 ** 6):
    summaries = []
    for engine in ENGINES:
        with engine():
            sim, ref = both(image, ws, prefetch)
            summary = sim.run(max_cycles=max_cycles)
            assert summary.exit_reason == ref.run(max_cycles=max_cycles)
            assert machine_state(sim) == machine_state(ref)
            assert summary.steps == sum(ref.counters.histogram.values())
            if summary.exit_reason.startswith("fault"):  # on either path
                assert sim._warm_pc is None  # the next run enters cold
            assert_class_mates_match(sim, summary, image, ws, prefetch,
                                     max_cycles)
        summaries.append(summary)
    assert summaries[0] == summaries[1]
    return summary


def random_program(seed, flash_base=0x08000000, iterations=None):
    """A seeded loop over ALU ops, MULS, RAM and Flash loads, stores,
    PUSH/POP, forward branches and calls; it always halts.  With
    flash_base=0 it runs from the boot alias of Flash.  The loop runs a
    seeded 1 to 6 times unless `iterations` (at most 255) is given."""
    rng = random.Random(seed)
    a = Assembler(flash_base=flash_base)
    a.ldr_lit(7, "ram")
    loops = rng.randint(1, 6)
    a.movs(6, iterations or loops)
    for r in range(6):
        a.movs(r, rng.randint(0, 255))
    a.label("loop")
    pushed = []
    for i in range(rng.randint(4, 24)):
        kind = rng.choice(["alu", "alu", "alu", "muls", "store", "load",
                           "lit", "push", "pop", "skip", "call", "nop"])
        rd, rm = rng.randint(0, 5), rng.randint(0, 5)
        if kind == "alu":
            rng.choice([
                lambda: a.adds_reg(rd, rd, rm), lambda: a.subs_imm8(rd, 3),
                lambda: a.eors(rd, rm), lambda: a.ands(rd, rm),
                lambda: a.orrs(rd, rm), lambda: a.lsls_imm(rd, rm, 3),
                lambda: a.lsrs_imm(rd, rm, 2), lambda: a.adcs(rd, rm),
                lambda: a.cmp_reg(rd, rm), lambda: a.mvns(rd, rm)])()
        elif kind == "muls":
            a.muls(rd, rm)
        elif kind == "store":
            rng.choice([lambda: a.str_imm(rd, 7, 4 * rng.randint(0, 7)),
                        lambda: a.strh_imm(rd, 7, 2 * rng.randint(0, 15)),
                        lambda: a.strb_imm(rd, 7, rng.randint(0, 31))])()
        elif kind == "load":
            rng.choice([lambda: a.ldr_imm(rd, 7, 4 * rng.randint(0, 7)),
                        lambda: a.ldrh_imm(rd, 7, 2 * rng.randint(0, 15)),
                        lambda: a.ldrb_imm(rd, 7, rng.randint(0, 31))])()
        elif kind == "lit":
            a.ldr_lit(rd, "lit%d" % rng.randint(0, 1))
        elif kind == "push":
            regs = sorted(rng.sample(range(6), rng.randint(1, 3)))
            lr = rng.random() < 0.3
            a.push(regs, lr=lr)
            pushed.append(len(regs) + lr)
        elif kind == "pop" and pushed:
            a.pop(sorted(rng.sample(range(6), pushed.pop())))
        elif kind == "skip":
            a.cmp_imm(rd, rng.randint(0, 255))
            a.b("skip%d" % i, rng.choice(["eq", "ne", "cs", "cc", "ge", "lt"]))
            a.adds_imm8(rd, 1)
            a.label("skip%d" % i)
        elif kind == "call":
            a.bl("func")
        else:
            a.nop()
    for n in pushed:  # balance the stack; lr words land in low registers
        a.pop(list(range(n)))
    a.subs_imm8(6, 1)
    a.bne("loop")
    a.bkpt()
    a.label("func")
    a.push([4], lr=True)
    a.adds_imm8(4, 7)
    a.pop([4], pc=True)
    a.word(0x20000100, label="ram")
    a.word(0x12345678, label="lit0")
    a.word(0x9ABCDEF0, label="lit1")
    return a.image()


# Every public Assembler method that emits code; the layout methods (label,
# raw, word, image) are not emitters.
EMITTERS = sorted(name for name in vars(Assembler) if not name.startswith("_")
                  and name not in ("label", "raw", "word", "image"))
LONG_BLOCKS = 3
FAULTS = ["unmapped", "misaligned", "write-to-flash", "ldm-part-way", "udf"]


class LongBlockProgram:
    """Seeded straight-line blocks of 30 to 45 instructions drawn from every
    Assembler emitter, each ended by a different kind of branch, with one
    planted fault at a random position.

    Registers: r0-r3 hold data; r4 is scratch for addresses and offsets; r5
    points at the debug port, r6 at a table of words in Flash (loads through
    it stall on data at one wait state), r7 at RAM; r8-r12 take MOV/ADD to a
    high register.  Each block adds 8 to sp and takes it back.
    `used` names the emitters called and `sizes` counts the instructions of
    each long block.  Without `planted` the program halts."""

    def __init__(self, seed, flash_base=0x08000000, planted=True):
        self.rng = rng = random.Random("long-%d" % seed)
        self.a = Assembler(flash_base=flash_base)
        self.used = set()
        self.sizes = []
        self.trampolines = []
        self.fault = FAULTS[seed % len(FAULTS)]
        self.emit("ldr_lit", 7, "ram")
        self.emit("ldr_lit", 5, "debug")
        self.emit("adr", 6, "table")
        for r in range(4):
            self.emit("movs", r, rng.randrange(256))
        fault_block = rng.randrange(LONG_BLOCKS) if planted else None
        for k in range(LONG_BLOCKS):
            self.long_block(k, rng.randrange(30) if k == fault_block else None)
        self.emit("bkpt", rng.randrange(256))
        self.tail()

    def emit(self, name, *args):
        self.used.add(name)
        getattr(self.a, name)(*args)
        return 1

    def long_block(self, k, fault_at):
        rng, emit = self.rng, self.emit
        count = emit("sub_sp", 8)
        pushed = []
        target = rng.randint(30, 45)
        while count < target:
            if fault_at is not None and count >= fault_at:
                count += self.planted_fault()
                fault_at = None
            elif pushed and rng.random() < 0.3:
                count += emit("pop", sorted(rng.sample(range(4), pushed.pop())))
            elif rng.random() < 0.08:
                regs = sorted(rng.sample(range(4), rng.randint(1, 3)))
                lr = rng.random() < 0.3
                count += emit("push", regs, lr)
                pushed.append(len(regs) + lr)
            else:
                count += self.straight_line()
        for n in pushed:
            count += emit("pop", list(range(n)))
        count += emit("add_sp", 8)
        self.sizes.append(count + self.terminator(k))
        self.a.label("block%d" % (k + 1))

    def straight_line(self):
        """One instruction, or an address set-up and the access using it."""
        rng, emit = self.rng, self.emit
        d, m = rng.randrange(4), rng.randrange(8)
        kind = rng.choice(["dp", "dp", "dp", "imm", "shift", "unary", "hi",
                           "load", "load", "store", "sp", "transfer", "lit",
                           "debug"])
        if kind == "dp":
            return emit(rng.choice([
                "ands", "eors", "lsls_reg", "lsrs_reg", "asrs_reg", "adcs",
                "sbcs", "rors", "tst", "rsbs", "cmp_reg", "cmn", "orrs",
                "muls", "bics", "mvns", "movs_reg"]), d, m)
        if kind == "imm":
            name = rng.choice(["adds_reg", "subs_reg", "adds_imm3",
                               "subs_imm3", "adds_imm8", "subs_imm8",
                               "cmp_imm", "movs", "nop"])
            if name.endswith("reg"):
                return emit(name, d, m, rng.randrange(8))
            if name.endswith("imm3"):
                return emit(name, d, m, rng.randrange(8))
            return emit(name) if name == "nop" else emit(name, d,
                                                          rng.randrange(256))
        if kind == "shift":
            name = rng.choice(["lsls_imm", "lsrs_imm", "asrs_imm"])
            return emit(name, d, m, rng.randint(1, 31) if name == "lsls_imm"
                        else rng.randrange(32))
        if kind == "unary":
            return emit(rng.choice(["sxth", "sxtb", "uxth", "uxtb", "rev",
                                    "rev16", "revsh"]), d, m)
        if kind == "hi":
            name = rng.choice(["mov_hi", "add_hi", "cmp_hi"])
            rd = rng.choice([d, rng.randint(8, 12)])
            return emit(name, rd, rng.choice([m, rng.randint(8, 15)]))
        if kind == "load":
            size = rng.choice([1, 2, 4])
            base = rng.choice([6, 7])        # Flash table or RAM
            offset = size * rng.randrange(16)
            if rng.random() < 0.5:
                name = {4: "ldr_imm", 2: "ldrh_imm", 1: "ldrb_imm"}[size]
                return emit(name, d, base, offset)
            name = rng.choice({4: ["ldr_reg"], 2: ["ldrh_reg", "ldrsh_reg"],
                               1: ["ldrb_reg", "ldrsb_reg"]}[size])
            return emit("movs", 4, offset) + emit(name, d, base, 4)
        if kind == "store":
            size = rng.choice([1, 2, 4])
            offset = size * rng.randrange(16)
            if rng.random() < 0.5:
                name = {4: "str_imm", 2: "strh_imm", 1: "strb_imm"}[size]
                return emit(name, m, 7, offset)
            name = {4: "str_reg", 2: "strh_reg", 1: "strb_reg"}[size]
            return emit("movs", 4, offset) + emit(name, m, 7, 4)
        if kind == "sp":
            name = rng.choice(["str_sp", "ldr_sp", "add_sp_imm8"])
            if name == "str_sp":
                return emit(name, m, 4 * rng.randrange(2))
            return emit(name, d, 4 * rng.randrange(2))
        if kind == "transfer":
            regs = sorted(rng.sample(range(4), rng.randint(1, 4)))
            if rng.random() < 0.5:
                return emit("movs_reg", 4, 7) + emit("stm", 4, regs)
            if rng.random() < 0.3:
                regs.append(4)               # the base is loaded, no writeback
            return emit("movs_reg", 4, rng.choice([6, 7])) + emit("ldm", 4, regs)
        if kind == "lit":
            return emit(rng.choice(["ldr_lit", "adr"]), d,
                        "lit%d" % rng.randrange(4))
        if rng.random() < 0.5:           # a byte to the debug port
            return emit("strb_imm", m, 5, 0)
        return emit("movs", 4, 0) + emit("strb_reg", m, 5, 4)

    def planted_fault(self):
        emit = self.emit
        if self.fault == "unmapped":
            return emit("ldr_lit", 4, "unmapped") + emit("ldr_imm", 0, 4, 0)
        if self.fault == "misaligned":
            return emit("adds_imm3", 4, 7, 2) + emit("str_imm", 1, 4, 0)
        if self.fault == "write-to-flash":
            return emit("strh_imm", 2, 6, 2)
        if self.fault == "ldm-part-way":  # the last RAM word, then unmapped
            return emit("ldr_lit", 4, "ram_end") + emit("ldm", 4, [0, 1, 2])
        return emit("udf")

    def terminator(self, k):
        """Instructions that end long block k; control reaches block k+1."""
        rng, emit, nxt = self.rng, self.emit, "block%d" % (k + 1)
        kind = ["b", "bcond", "bl", "blx", "bx", "mov_pc", "add_pc"][
            (k + rng.randrange(7)) % 7]
        if kind == "b":
            return emit("b", nxt)
        if kind == "bcond":
            name = rng.choice(["beq", "bne", "b"])
            if name == "b":
                return emit("b", nxt, rng.choice(
                    ["cs", "cc", "mi", "pl", "vs", "vc", "hi", "ls", "ge",
                     "lt", "gt", "le"]))
            return emit(name, nxt)
        if kind == "bl":
            return emit("bl", rng.choice(["return_bx", "return_pop"]))
        if kind == "blx":
            return (emit("adr", 3, "return_bx") + emit("adds_imm8", 3, 1)
                    + emit("blx", 3))
        if kind in ("bx", "mov_pc"):
            self.trampolines.append(nxt)
            count = emit("adr", 3, "to_" + nxt) + emit("adds_imm8", 3, 1)
            return count + (emit("bx", 3) if kind == "bx"
                            else emit("mov_hi", 15, 3))
        # ADD pc, r3 with r3 = 0 skips the halfword after the ADD
        count = emit("movs", 3, 0) + emit("add_hi", 15, 3)
        self.a.raw(0xDE00)                     # skipped: UDF
        return count

    def tail(self):
        a, rng = self.a, self.rng
        a.word(0xE7FEE7FE, label="pad0")       # aligns the functions
        a.label("return_bx")
        self.emit("eors", 0, 1)
        self.emit("bx", 14)
        a.word(0xE7FEE7FE, label="pad1")
        a.label("return_pop")
        self.emit("push", [1], True)
        self.emit("adds_imm8", 1, 3)
        self.emit("pop", [1], True)
        for nxt in self.trampolines:           # word-aligned, for ADR
            a.word(0xE7FEE7FE)
            a.label("to_" + nxt)
            a.b(nxt)
        for name, value in (("ram", 0x20000100), ("debug", 0x40000000),
                            ("unmapped", 0x30000000), ("ram_end", 0x20001FFC)):
            a.word(value, label=name)
        for k in range(4):
            a.word(rng.getrandbits(32), label="lit%d" % k)
        a.word(rng.getrandbits(32), label="table")
        for _ in range(63):
            a.word(rng.getrandbits(32))

    def image(self):
        return self.a.image()


LONG_SEEDS = range(20)


def test_long_block_programs_use_every_emitter():
    used = set()
    for seed in LONG_SEEDS:
        program = LongBlockProgram(seed)
        used |= program.used
        assert len(program.sizes) == LONG_BLOCKS
        assert min(program.sizes) >= 30
    assert sorted(used) == EMITTERS


@pytest.mark.parametrize("planted", [True, False], ids=["fault", "halt"])
@pytest.mark.parametrize("flash_base", [0x08000000, 0], ids=["flash", "alias"])
@pytest.mark.parametrize("seed", LONG_SEEDS)
@pytest.mark.parametrize("ws,prefetch,_key", TIMING_CONFIGS)
def test_long_block_programs_match_reference(seed, ws, prefetch, _key,
                                             flash_base, planted):
    image = LongBlockProgram(seed, flash_base, planted).image()
    summary = assert_same_run(image, ws, prefetch)
    assert summary.exit_reason.startswith("fault: ") == planted
    assert summary.exit_reason == "halt" or planted


@pytest.mark.parametrize("planted", [True, False], ids=["fault", "halt"])
@pytest.mark.parametrize("seed", LONG_SEEDS)
@pytest.mark.parametrize("ws,prefetch,_key", TIMING_CONFIGS)
def test_long_block_programs_match_reference_through_ram_slices(
        seed, ws, prefetch, _key, planted, monkeypatch):
    """Compiled blocks reach RAM through slices of `mem.ram`, not word
    views, where `memory.RAM_VIEWS` is false (a big-endian host, or a C int
    that is not 4 bytes); forced here, that form must match the reference
    too."""
    monkeypatch.setattr(memory, "RAM_VIEWS", False)
    image = LongBlockProgram(seed, planted=planted).image()
    assert Simulator(image).mem.ram_words is None
    summary = assert_same_run(image, ws, prefetch)
    assert summary.exit_reason.startswith("fault: ") == planted


@pytest.mark.parametrize("seed,planted,flash_base", [
    (0, True, 0x08000000), (1, True, 0x08000000), (2, True, 0x08000000),
    (3, True, 0x08000000), (0, False, 0x08000000), (1, False, 0x08000000),
    (4, True, 0), (2, False, 0)])
@pytest.mark.parametrize("ws,prefetch,_key", TIMING_CONFIGS)
def test_long_block_every_budget_cut_matches_reference(seed, planted,
                                                       flash_base, ws,
                                                       prefetch, _key):
    """Every cut, then a resume.  One reference stepper advances from cut to
    cut: a run to budget b+1 continues the run to budget b.  Every block
    is compiled on its first run, so the cuts check the compiled blocks'
    budget rule.  One simulator, reset and its RAM zeroed before each cut,
    makes every cut: it translates and compiles the blocks once."""
    image = LongBlockProgram(seed, flash_base, planted).image()
    end = ReferenceStepper(image, wait_states=ws, prefetch=prefetch)
    end_reason = end.run()
    end_state = machine_state(end)
    ref = ReferenceStepper(image, wait_states=ws, prefetch=prefetch)
    reason = "cycle-budget"
    sim = Simulator(image, wait_states=ws, prefetch=prefetch)
    for budget in range(end.state.cycle_count + 2):
        if reason == "cycle-budget":
            reason = ref.run(budget)
        sim.reset()
        sim.mem.ram[:] = bytes(len(sim.mem.ram))
        with compile_at_first_run():
            assert sim.run(max_cycles=budget).exit_reason == reason, budget
            assert machine_state(sim) == machine_state(ref), budget
            assert sim.run().exit_reason == end_reason
        assert machine_state(sim) == end_state, budget
    assert reason == end_reason


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("ws,prefetch,_key", TIMING_CONFIGS)
def test_kernels_match_reference(name, ws, prefetch, _key):
    assert assert_same_run(kernel_image(name), ws, prefetch).exit_reason == "halt"


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
@pytest.mark.parametrize("ws,prefetch,_key", TIMING_CONFIGS)
def test_random_programs_match_reference(seed, ws, prefetch, _key):
    summary = assert_same_run(random_program(seed), ws, prefetch)
    assert summary.exit_reason == "halt"


@pytest.mark.parametrize("seed", RANDOM_SEEDS[:6])
@pytest.mark.parametrize("ws,prefetch,_key", TIMING_CONFIGS)
def test_boot_alias_programs_match_reference(seed, ws, prefetch, _key):
    summary = assert_same_run(random_program(seed, flash_base=0), ws, prefetch)
    assert summary.exit_reason == "halt"


@pytest.mark.parametrize("flash_base", [0x08000000, 0], ids=["flash", "alias"])
@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_programs_static_counts_match_dynamic(seed, flash_base):
    """Criterion 7 beyond the fixed kernels: along the executed block path,
    the static block counts plus the taken edges give the dynamic counters.
    The loads and stores through r7 are unresolved statically; these
    programs write no debug port, so each one is exactly one RAM or Flash
    event."""
    image = random_program(seed, flash_base)
    sim = Simulator(image)
    steps = []
    assert sim.run(on_step=steps.append).exit_reason == "halt"
    mem = MemorySystem(image)
    graph = extract_cfg(mem, mem.reset_vector()[1])
    blocks, edges = dynamic_block_path(graph, steps)
    assert [step.instruction.addr for step in steps] == [
        ins.addr for block in blocks for ins in block.instructions]
    path_energy(blocks, edges, builtin_models()[0])  # every edge is in the CFG

    def total(name):
        return sum(getattr(block.static_counts, name) for block in blocks)

    c = sim.counters
    assert (c.c1, c.c2, c.c3) == (total("c1"), total("c2"), sum(edges))
    assert c.c4 + c.c6 == (total("c4_known") + total("c6_known")
                           + total("unresolved_loads"))
    assert c.c5 == total("c5_known") + total("unresolved_stores")
    # each translation block is a run of CFG blocks joined by fall-through,
    # ending where a CFG block ends on a terminator
    for pc, translated in sim._blocks.items():
        expected = []
        block = graph.blocks[pc]
        while True:
            expected += [ins.addr for ins in block.instructions]
            if block.encodings[-1].flow is not None:
                break
            block = graph.blocks[block.end]
        assert [entry[2] for entry in translated.entries] == expected


@pytest.mark.parametrize("image", [kernel_image("pushpop_loop"),
                                   kernel_image("call_ret"),
                                   random_program(3), random_program(7)],
                         ids=["pushpop_loop", "call_ret", "random3", "random7"])
@pytest.mark.parametrize("ws,prefetch,_key", TIMING_CONFIGS)
def test_every_budget_cut_matches_reference(image, ws, prefetch, _key):
    total = Simulator(image, wait_states=ws, prefetch=prefetch).run().cycle_count
    for budget, engine in itertools.product(range(min(total, 400) + 1),
                                            ENGINES):
        with engine():
            sim, ref = both(image, ws, prefetch)
            summary = sim.run(max_cycles=budget)
            assert summary.exit_reason == ref.run(budget)
            assert machine_state(sim) == machine_state(ref), budget
            assert_class_mates_match(sim, summary, image, ws, prefetch,
                                     budget)
            # resuming after the cut keeps the fetch buffer and branch state
            assert sim.run().exit_reason == ref.run() == "halt"
            assert machine_state(sim) == machine_state(ref), budget


def benchmark_image(workload, name):
    """The image of one of the benchmark's `run` workloads, seed 31."""
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "perfbench"
        / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return getattr(workloads, "gen_" + workload)(31).files[name]


PRICED_IMAGES = {
    **{name: functools.partial(kernel_image, name) for name in sorted(KERNELS)},
    **{"random%d" % seed: functools.partial(random_program, seed)
       for seed in RANDOM_SEEDS},
    **{"alias%d" % seed: functools.partial(random_program, seed, 0)
       for seed in RANDOM_SEEDS[:6]},
    **{"long%d-%s" % (seed, kind): functools.partial(
        lambda seed, planted: LongBlockProgram(seed, planted=planted).image(),
        seed, kind == "fault") for seed in LONG_SEEDS
       for kind in ("fault", "halt")},
    "run_mixed": functools.partial(benchmark_image, "run_mixed", "mixed.bin"),
    "sweep_branchy": functools.partial(benchmark_image, "sweep_branchy",
                                       "branchy.bin"),
}


def assert_prices_as_direct_runs(sim, summary, image):
    """`summary`, the last run of `sim` at zero wait states, priced for
    both classes at one wait state equals a direct run of each: every
    counter, the histogram, cycles, fetch stalls, exit reason and steps,
    and r0 and output; priced for its own class it is itself.  A run that
    did not halt is not priced."""
    for prefetch in (False, True):
        direct = Simulator(image, wait_states=1, prefetch=prefetch)
        expected = direct.run()
        if summary.exit_reason != "halt":
            assert expected.exit_reason == summary.exit_reason
            with pytest.raises(M0EnergyError):
                sim.price(summary, 1, prefetch)
            continue
        assert sim.price(summary, 1, prefetch) == expected
        assert sim.price(summary, 0, prefetch) == summary
        assert (direct.state.regs[0], direct.mem.debug_output) == (
            sim.state.regs[0], sim.mem.debug_output)


@pytest.mark.parametrize("engine", ENGINES, ids=["compiled", "threshold"])
@pytest.mark.parametrize("case", PRICED_IMAGES)
def test_priced_classes_equal_direct_runs(case, engine):
    """`run --sweep` simulates zero wait states and prices the two classes
    at one from that run's block tallies: on the kernels, the random and
    long-block programs and the benchmark's `run` images, with each block
    compiled on its first run and with the real threshold."""
    image = PRICED_IMAGES[case]()
    with engine():
        sim = Simulator(image)
        summary = sim.run()
        assert summary.exit_reason == "halt" or case.endswith("fault")
        assert_prices_as_direct_runs(sim, summary, image)


@pytest.mark.parametrize("first_budget", [10 ** 6, 40], ids=["halt", "cut"])
def test_pricing_counts_the_run_since_reset(first_budget):
    """reset() clears the block tallies: a run that halts, or one cut
    part-way through a block, then reset(), RAM zeroed and a second run,
    prices as direct runs do."""
    image = random_program(5)
    sim = Simulator(image)
    sim.run(max_cycles=first_budget)
    sim.reset()
    sim.mem.ram[:] = bytes(len(sim.mem.ram))
    assert_prices_as_direct_runs(sim, sim.run(), image)


@pytest.mark.parametrize("start", ["step", "cut"])
def test_a_run_that_did_not_start_at_reset_is_not_priced(start):
    """A run that resumes after a step or a cut part-way through a block
    halts, but the tallies miss the part before it, so it is not priced."""
    sim = Simulator(random_program(5))
    if start == "step":
        sim.step()
    else:
        sim.run(max_cycles=40)
    summary = sim.run()
    assert summary.exit_reason == "halt"
    with pytest.raises(M0EnergyError):
        sim.price(summary, 1, True)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("ws,prefetch,_key", TIMING_CONFIGS)
def test_blocks_turning_hot_mid_run_match_reference(seed, ws, prefetch, _key):
    """A loop run more than COMPILE_AFTER times switches its blocks to
    compiled code part-way through the run.  The whole run, and seeded cuts
    spread over it, each resumed to the end, match the reference."""
    image = random_program(seed, iterations=COMPILE_AFTER + 4)
    summary = assert_same_run(image, ws, prefetch)
    sim = Simulator(image, wait_states=ws, prefetch=prefetch)
    assert sim.run() == summary
    assert any(block.code for block in sim._blocks.values())
    end = machine_state(sim)
    ref = ReferenceStepper(image, wait_states=ws, prefetch=prefetch)
    for budget in sorted(random.Random(seed).sample(
            range(summary.cycle_count), 12)):
        sim = Simulator(image, wait_states=ws, prefetch=prefetch)
        assert sim.run(max_cycles=budget).exit_reason == ref.run(budget)
        assert machine_state(sim) == machine_state(ref), budget
        assert sim.run().exit_reason == "halt"
        assert machine_state(sim) == end, budget


def test_compiled_blocks_load_only_flags_read_before_written():
    """A block's function loads a flag from the state only when the block
    can read it before writing it: a leaf that sets every flag first (LDR
    literal, ADDS, BX lr) loads none, one whose ADCS reads C loads C alone.
    Both store all four flags, and the run matches the reference."""
    a = Assembler()
    a.bl("leaf")
    a.bl("carry")
    a.bkpt()
    a.label("leaf")
    a.ldr_lit(0, "lit")
    a.adds_imm3(0, 0, 1)
    a.bx(14)
    a.label("carry")
    a.adcs(0, 1)
    a.bx(14)
    a.word(0x7FFFFFFF, label="lit")
    image = a.image()
    assert_same_run(image, 1, False)
    sim = Simulator(image, wait_states=1)
    with compile_at_first_run():
        assert sim.run().exit_reason == "halt"
    flags = {}  # first op -> (flags loaded, flags stored)
    for block in sim._blocks.values():
        source = next(text for text, fn in cpu._CODE.items()
                      if fn is block.code).splitlines()
        flags[block.entries[0][1].op] = (
            "".join(x for x in "nzcv" if "    %s = S.%s" % (x, x) in source),
            "".join(x for x in "nzcv" if "        S.%s = %s" % (x, x)
                    in source))
    assert flags == {"BL": ("", ""), "LDR_LIT": ("", "nzcv"),
                     "ADCS": ("c", "nzcv"), "BKPT": ("", "")}


def test_compiled_blocks_keep_no_fetch_unit_state():
    """At one wait state with prefetch, a block's function takes the entry
    stall `st` and adds constants for its other fetches: no generated block
    has `held`, `ready` or `stall` locals or reads the fetch unit, and the
    run still matches the reference."""
    image = random_program(3, iterations=4)
    assert_same_run(image, 1, True)
    sim = Simulator(image, wait_states=1, prefetch=True)
    with compile_at_first_run():
        assert sim.run().exit_reason == "halt"
    sources = [text for block in sim._blocks.values() for text, fn
               in cpu._CODE.items() if fn is block.code]
    assert len(sources) == len(sim._blocks) > 3
    for source in sources:
        assert "(S, R, C, ram, W, H, read, write, t, st):" in source
        assert not re.search(r"\b(held|ready|stall)\b|\bF\.", source), source
    assert any("t += st" in source for source in sources)


def test_generated_functions_are_named_for_what_they_run():
    """Profiles and tracebacks name a compiled block by its address and a
    one-instruction function by its form."""
    sim = Simulator(kernel_image("loop5"))
    with compile_at_first_run():
        assert sim.run().exit_reason == "halt"
    block = sim._blocks[0x0800000A]  # SUBS r0, #1; BNE loop
    assert block.code.__name__ == "block_0800000a"
    assert [entry[0].__name__ for entry in block.entries] == [
        "step_SUBS_IMM8", "step_BCOND"]


@pytest.mark.parametrize("extra", [0, 1])
def test_a_block_compiles_on_the_run_after_compile_after(extra):
    """The loop block is entered by its back edge only, once per iteration
    after the first: COMPILE_AFTER entries run one instruction at a time,
    and the next one compiles it.  A run with on_step never compiles."""
    a = Assembler()
    a.movs(0, COMPILE_AFTER + 1 + extra)
    a.label("loop")  # 0x0800000A, after the vector table and the MOVS
    a.subs_imm8(0, 1)
    a.bne("loop")
    a.bkpt()
    sim = Simulator(a.image())
    assert sim.run().exit_reason == "halt"
    assert (sim._blocks[0x0800000A].code is not None) == bool(extra)
    traced = Simulator(a.image())
    assert traced.run(on_step=lambda step: None).exit_reason == "halt"
    assert traced.counters == sim.counters
    assert not any(block.code for block in traced._blocks.values())


@pytest.mark.parametrize("ws,prefetch,_key", TIMING_CONFIGS)
def test_single_steps_match_reference(ws, prefetch, _key):
    sim, ref = both(random_program(11), ws, prefetch)
    while not ref.state.halted:
        step = sim.step()
        before = ref.state.cycle_count
        ref.step()
        assert step.cycles == ref.state.cycle_count - before
        assert machine_state(sim) == machine_state(ref)
    assert sim.state.halted


def test_on_step_results_match_reference_steps():
    sim, ref = both(random_program(5), 1, True)
    results = []
    sim.run(on_step=results.append)
    for result in results:
        assert result.instruction.addr == ref.state.pc
        before = ref.state.cycle_count
        ref.step()
        assert result.cycles == ref.state.cycle_count - before
    assert ref.state.halted and machine_state(sim) == machine_state(ref)


TIMING_CLASSES = [(0, False), (1, False), (1, True)]
PC_RULE_IMAGES = dict(
    [(name, kernel_image(name)) for name in KERNELS]
    + [("random%d" % seed, random_program(seed)) for seed in RANDOM_SEEDS]
    + [("long%d-%s" % (seed, FAULTS[seed]), LongBlockProgram(seed).image())
       for seed in range(len(FAULTS))]
    + [("invstate-" + name, invstate_image(emit))
       for name, emit in INTERWORKING_BRANCHES.items()])


@pytest.mark.parametrize("ws,prefetch", TIMING_CLASSES)
@pytest.mark.parametrize("name", sorted(PC_RULE_IMAGES))
def test_pc_after_each_traced_step_matches_reference(name, ws, prefetch):
    """Each step function leaves pc where the next instruction is fetched:
    seen from on_step, pc after each step is the reference stepper's after
    the same step (the next instruction, or the branch target).  A faulting
    step leaves pc at the faulting instruction, the reference's pc before
    the step that raises."""
    image = PC_RULE_IMAGES[name]
    sim, ref = both(image, ws, prefetch)

    def check(step):
        assert step.instruction.addr == ref.state.pc
        ref.step()
        assert sim.state.pc == ref.state.pc, hex(step.instruction.addr)

    reason = sim.run(on_step=check).exit_reason
    if reason == "halt":
        assert ref.state.halted
    else:
        faulting = ref.state.pc
        with pytest.raises(M0EnergyError) as fault:
            ref.step()
        assert reason == "fault: %s" % fault.value
        assert sim.state.pc == faulting
    assert machine_state(sim) == machine_state(ref)


def transfer_fault_image(emit_transfer, base):
    a = Assembler()
    a.movs(1, 11)
    a.movs(2, 22)
    a.ldr_lit(0, "base")
    emit_transfer(a)
    a.bkpt()
    a.word(base, label="base")
    return a.image()


@pytest.mark.parametrize("emit,base,completed", [
    # POP: the first word is the last RAM word, the second is unmapped
    (lambda a: (a.mov_hi(13, 0), a.pop([1, 2])), 0x20001FFC, 4),
    (lambda a: a.stm(0, [1, 2]), 0x20001FFC, 3),
    # LDM: the first word is the last Flash word (a stalling Flash read)
    (lambda a: a.ldm(0, [1, 2]), 0x0800FFFC, 3),
], ids=["pop", "stm", "ldm"])
@pytest.mark.parametrize("ws,prefetch,_key", TIMING_CONFIGS)
def test_transfer_faulting_part_way_commits_nothing(emit, base, completed,
                                                    ws, prefetch, _key):
    image = transfer_fault_image(emit, base)
    summary = assert_same_run(image, ws, prefetch)
    assert summary.exit_reason.startswith("fault: unmapped")
    counters = summary.counters
    # only the literal load before the transfer counted a data event
    assert (counters.c4, counters.c5, counters.c6) == (0, 0, 1)
    assert counters.c1 == completed and summary.steps == completed


@pytest.mark.parametrize("emit,sp,r0", [
    # the first word is the last RAM word, the second is unmapped
    (lambda a: a.push([1, 2]), 0x20002004, 0),
    (lambda a: a.pop([1, 2]), 0x20001FFC, 0),
    (lambda a: a.stm(0, [1, 2]), 0x20002000, 0x20001FFC),
], ids=["push", "pop", "stm"])
def test_step_functions_reach_only_state_and_memory(emit, sp, r0):
    """A one-instruction function touches only `sim.state` and memory
    through `sim._read` and `_write`: on a stub with nothing else, a
    transfer that faults after its first word raises and leaves pc at its
    address.  Restoring the faulting step's events is the engine's work."""
    a = Assembler()
    emit(a)
    a.bkpt()
    mem = MemorySystem(a.image())
    addr = mem.reset_vector()[1]
    enc = encoding_at(mem, addr)
    state = CpuState()
    state.regs[0], state.regs[13], state.pc = r0, sp, addr
    accesses = []

    def read(address, size):
        accesses.append(address)
        return mem.read(address, size)[0]

    def write(address, size, value):
        accesses.append(address)
        mem.write(address, size, value)

    stub = types.SimpleNamespace(state=state, _read=read, _write=write)
    step = cpu._step(enc)
    with pytest.raises(M0EnergyError, match="unmapped"):
        step(stub, enc, addr)
    assert accesses == [0x20001FFC, 0x20002000]
    assert state.pc == addr
    source, = [text for text, fn in cpu._CODE.items() if fn is step]
    assert "except" not in source and "counters" not in source


@pytest.mark.parametrize("index,words", [(0, 1), (1, 2)],
                         ids=["ldr_lit", "ldm"])
def test_step_functions_leave_flash_stalls_to_the_engine(index, words):
    """At one wait state a step function's Flash data reads count c6 and
    add no cycles; the engine charges wait_states x c6 when it commits the
    step."""
    a = Assembler()
    a.ldr_lit(1, "k")
    a.ldm(0, [1, 2])
    a.bkpt()
    a.word(3, "k")
    a.word(5)
    image = a.image()
    sim = Simulator(image, wait_states=1)
    start = sim.state.pc
    lit = encoding_at(sim.mem, start)
    addr = start + 2 * index
    enc = encoding_at(sim.mem, addr)
    sim.state.regs[0] = lit.literal(start)  # the LDM's base: the two words
    cpu._step(enc)(sim, enc, addr)
    assert sim.counters.c6 == words
    assert sim.state.cycle_count == 0
    assert sim.state.regs[1] == 3 and sim.state.pc == addr + 2

    sim = Simulator(image, wait_states=1)
    sim.state.regs[0], sim.state.pc = lit.literal(start), addr
    result = sim.step()
    assert result.data_events == (0, 0, words)
    assert result.cycles == (base_cycles(enc)[0] + result.fetch_stall
                             + words) == sim.state.cycle_count


@pytest.mark.parametrize("name", sorted(INTERWORKING_BRANCHES))
@pytest.mark.parametrize("ws,prefetch,_key", TIMING_CONFIGS)
def test_interworking_branch_to_even_target_faults_invstate(name, ws, prefetch,
                                                            _key):
    image = invstate_image(INTERWORKING_BRANCHES[name])
    summary = assert_same_run(image, ws, prefetch)
    sim = Simulator(image, wait_states=ws, prefetch=prefetch)
    assert sim.run() == summary
    target = sim.state.regs[0]
    assert target & 1 == 0 and sim.state.regs[1] == 7
    assert summary.exit_reason == invstate_reason(target)
    # the branch completed and counted; the target's MOVS never ran
    assert summary.counters.c3 == 1
    assert summary.counters.histogram.get("MOVS") == 1
    assert "BKPT" not in summary.counters.histogram


def test_mov_into_pc_still_ignores_bit_zero():
    sim = Simulator(invstate_image(lambda a: a.mov_hi(15, 0)))
    assert sim.run().exit_reason == "halt"
    assert sim.state.regs[0] == 1


def ram_code_image():
    """Copy a routine into RAM, call it, patch its MOVS immediate, call it
    again; r5 holds the first result and r0 the second."""
    a = Assembler()
    a.ldr_lit(0, "dest")
    a.adr(1, "routine")
    a.movs(2, 2)
    a.label("copy")
    a.ldr_imm(3, 1)
    a.str_imm(3, 0)
    a.adds_imm8(1, 4)
    a.adds_imm8(0, 4)
    a.subs_imm8(2, 1)
    a.bne("copy")
    a.ldr_lit(4, "entry")
    a.blx(4)
    a.movs_reg(5, 0)
    a.ldr_lit(1, "dest")
    a.movs(2, 9)
    a.strb_imm(2, 1)           # MOVS r0, #5 becomes MOVS r0, #9
    a.blx(4)
    a.bkpt()
    a.word(0x20000200, label="dest")
    a.word(0x20000201, label="entry")
    a.word(0x30012005, label="routine")   # MOVS r0, #5 ; ADDS r0, #1
    a.word(0xBF004770)                    # BX lr ; NOP
    return a.image()


@pytest.mark.parametrize("ws,prefetch,_key", TIMING_CONFIGS)
def test_ram_code_runs_patched_and_runs_again(ws, prefetch, _key):
    summary = assert_same_run(ram_code_image(), ws, prefetch)
    assert summary.exit_reason == "halt"
    sim = Simulator(ram_code_image(), wait_states=ws, prefetch=prefetch)
    sim.run()
    assert sim.state.regs[5] == 6 and sim.state.regs[0] == 10
    assert sim.counters.histogram["BX"] == 2


# -- the taken-edge rule: a taken branch flushes the fetch unit ---------------

LOOPS = 100  # past COMPILE_AFTER, so a default run compiles the loop


def held_word_loop():
    """MOVS r0, #LOOPS; B loop; loop: SUBS r0, #1; BNE loop; BKPT.  The loop
    fills the Flash word at 0x0800000C, so BNE's target lies inside the word
    held at the branch, and every pass is entered by a taken branch."""
    a = Assembler()
    a.movs(0, LOOPS)
    a.b("loop")
    a.label("loop")
    a.subs_imm8(0, 1)
    a.bne("loop")
    a.bkpt()
    return a.image()


def round_trip_image():
    """Flash -> RAM -> Flash: store BX lr at 0x20000100, BLX to it, and
    return to the BKPT in the Flash word held at the BLX."""
    a = Assembler()
    a.ldr_lit(1, "dest")
    a.ldr_lit(2, "bx_lr")
    a.strh_imm(2, 1)
    a.adds_imm8(1, 1)          # the Thumb bit
    a.blx(1)                   # at 0x08000010
    a.bkpt()                   # at 0x08000012, returned to by BX lr
    a.word(0x20000100, label="dest")
    a.word(0x4770, label="bx_lr")
    return a.image()


def steps_of_step_calls(sim):
    steps = []
    while not sim.state.halted:
        steps.append(sim.step())
    return steps


def steps_of_on_step(sim):
    steps = []
    sim.run(on_step=steps.append)
    return steps


def default_run(sim):
    sim.run()


def compiled_run(sim):
    with compile_at_first_run():
        sim.run()


ENGINE_PATHS = {"step": steps_of_step_calls, "on_step": steps_of_on_step,
                "run": default_run, "compiled": compiled_run}

# Cycles and fetch stalls by hand.  The loop: MOVS and B 4 cycles, then
# per pass SUBS 1 and BNE 3 (1 on the last), then BKPT 1; at one wait
# state, the first fetch, each pass's entry and, without prefetch, BKPT's
# word stall 1.  The round trip: LDR literal 2 (plus 1 at WS1) twice, STRH
# 2, ADDS 1, BLX 3, BX 3, BKPT 1; at WS1 the first fetch and the return
# stall, and without prefetch the words at 0x0C and 0x10.
TAKEN_EDGE_CASES = {
    "loop": (held_word_loop, 0x0800000C, {
        (0, False): (4 * LOOPS + 3, 0),
        (1, False): (5 * LOOPS + 5, LOOPS + 2),
        (1, True): (5 * LOOPS + 4, LOOPS + 1)}),
    "round-trip": (round_trip_image, 0x08000012, {
        (0, False): (14, 0), (1, False): (20, 4), (1, True): (18, 2)}),
}


@pytest.mark.parametrize("path", sorted(ENGINE_PATHS))
@pytest.mark.parametrize("ws,prefetch", TIMING_CLASSES)
@pytest.mark.parametrize("case", sorted(TAKEN_EDGE_CASES))
def test_taken_branch_into_the_held_word_pays_the_wait_state(case, ws,
                                                             prefetch, path):
    """On every engine path, each fetch at a taken branch's target pays the
    full wait state although the target lies in the word held at the
    branch, and the totals are the hand-counted ones."""
    image, target, expected = TAKEN_EDGE_CASES[case]
    sim = Simulator(image(), wait_states=ws, prefetch=prefetch)
    steps = ENGINE_PATHS[path](sim)
    assert sim.state.halted
    assert (sim.state.cycle_count, sim.counters.fetch_stall_cycles) == (
        expected[ws, prefetch])
    if steps is not None:
        entries = [step.fetch_stall for step in steps
                   if step.instruction.addr == target]
        assert entries == [ws] * (LOOPS if case == "loop" else 1)
    else:
        assert (sim._blocks[target].code is not None) == (
            case == "loop" or path == "compiled")
    ref = ReferenceStepper(image(), wait_states=ws, prefetch=prefetch)
    assert ref.run() == "halt"
    assert machine_state(sim) == machine_state(ref)


@pytest.mark.parametrize("prefetch", [False, True])
def test_on_step_raising_after_a_taken_step_keeps_the_flush(prefetch):
    """A callback that raises right after the first taken BNE leaves the
    fetch unit flushed: the next step, at the BNE's target inside the word
    held at the branch, pays the full wait state, and the resumed run ends
    with the cycles and stalls of an uninterrupted one."""
    class Stop(Exception):
        pass

    def stop(step):
        if step.instruction.mnemonic == "BNE" and step.branch_taken:
            raise Stop

    sim = Simulator(held_word_loop(), wait_states=1, prefetch=prefetch)
    with pytest.raises(Stop):
        sim.run(on_step=stop)
    assert sim.state.pc == 0x0800000C
    assert sim.step().fetch_stall == 1
    assert sim.run().exit_reason == "halt"
    assert (sim.state.cycle_count, sim.counters.fetch_stall_cycles) == (
        TAKEN_EDGE_CASES["loop"][2][1, prefetch])


@pytest.mark.parametrize("error", [ValueError, M0EnergyError])
def test_on_step_raising_folds_the_instructions_that_completed(error):
    """A callback that raises at its second call, inside a block of three
    MOVS and a BKPT, leaves both completed MOVS counted with the cycles
    they took; an M0EnergyError ends the run as a fault that names it, any
    other error leaves run().  The resumed run counts only the rest."""
    a = Assembler()
    for rd in range(3):
        a.movs(rd, rd + 1)
    a.bkpt()
    calls = []

    def stop(step):
        calls.append(step)
        if len(calls) == 2:
            raise error("stop")

    sim = Simulator(a.image())
    if error is M0EnergyError:
        summary = sim.run(on_step=stop)
        assert (summary.exit_reason, summary.steps) == ("fault: stop", 2)
        assert (summary.counters.c1, summary.cycle_count) == (2, 2)
    else:
        with pytest.raises(error, match="stop"):
            sim.run(on_step=stop)
    c = sim.counters
    assert (c.c1, c.c2, c.histogram) == (2, 0, {"MOVS": 2})
    assert (sim.state.cycle_count, c.total_cycles) == (2, 2)
    assert sim.state.pc == 0x0800000C
    assert sim.run().steps == 2
    assert (c.c1, c.histogram) == (4, {"MOVS": 3, "BKPT": 1})


# -- the data stall: each Flash data read stalls the wait states ---------------

DATA_LOOPS = 3


def flash_data_image():
    """A setup block, then a loop of DATA_LOOPS passes through one block
    that reads Flash every way the engine can: register-indirect LDR, LDRH
    and LDRB from Flash and from the boot alias, a POP and an LDM of Flash
    words, and two Flash literals, the first of them 0; and RAM, by PUSH,
    an SP-relative LDR and POP.  The last five words are the literals and
    a three-word table."""
    a = Assembler()
    a.movs(7, DATA_LOOPS)
    a.mov_hi(6, 13)                 # sp, restored after the Flash POP
    a.b("loop")
    a.label("loop")
    a.adr(0, "table")
    a.movs(1, 4)
    a.lsls_imm(5, 0, 8)
    a.lsrs_imm(5, 5, 8)             # the table through the boot alias
    for base in (0, 5):
        a.ldr_reg(2, base, 1)
        a.ldrh_reg(3, base, 1)
        a.ldrb_reg(4, base, 1)
    a.mov_hi(13, 0)
    a.pop([2, 3])
    a.mov_hi(13, 6)
    a.ldm(0, [2, 3, 4])
    a.ldr_lit(2, "zero")
    a.ldr_lit(3, "lit")
    a.push([1, 2])
    a.ldr_sp(4, 4)
    a.pop([3, 4])
    a.subs_imm8(7, 1)
    a.bne("loop")
    a.bkpt()
    a.word(0, label="zero")
    a.word(0x12345678, label="lit")
    a.word(0x89ABCDEF, label="table")
    a.word(0x01234567)
    a.word(0x76543210)
    return a.image()


@pytest.mark.parametrize("ws,prefetch,_key", TIMING_CONFIGS)
def test_each_flash_data_read_stalls_the_wait_states(monkeypatch, ws,
                                                     prefetch, _key):
    """Every traced step takes its base cycles, its fetch stall and the
    wait states per Flash or alias data read the reference counts, and no
    more; the compiled run ends where the stepped one does; and each Flash
    literal, the one whose word is 0 too, is read once, when its block is
    compiled, not on each of the compiled runs."""
    image = flash_data_image()
    end = memory.FLASH_BASE + len(image)
    literals = [end - 20, end - 16]
    read = MemorySystem.read
    reads = []
    monkeypatch.setattr(MemorySystem, "read", lambda mem, addr, size: (
        reads.append(addr) or read(mem, addr, size)))
    stepped = Simulator(image, wait_states=ws, prefetch=prefetch)
    steps = []
    assert stepped.run(on_step=steps.append).exit_reason == "halt"
    events = reference_data_events(steps, image, ws, prefetch)
    assert sum(e[2] for e in events) == 13 * DATA_LOOPS
    for step, (_c4, _c5, flash_reads) in zip(steps, events):
        base, base_taken = base_cycles(step.instruction)
        assert step.cycles - (base_taken if step.branch_taken else base) - (
            step.fetch_stall) == ws * flash_reads, step.instruction
    del reads[:]
    with compile_at_first_run():
        compiled = Simulator(image, wait_states=ws, prefetch=prefetch)
        assert compiled.run().exit_reason == "halt"
    assert all(block.code for block in compiled._blocks.values())
    assert machine_state(compiled) == machine_state(stepped)
    assert sorted(addr for addr in reads if addr in literals) == literals
    assert_same_run(image, ws, prefetch)


# -- the entry rule: a block is entered cold or warm --------------------------

def straddle_image(taken):
    """A BL at 0x0800000E, whose halfwords straddle the Flash words at 0x0C
    and 0x10, returning to the BKPT after it.  It is entered by a taken B at
    0x08000008 or, when not `taken`, by a BNE at 0x0800000C that MOVS
    r0, #0 makes fall through."""
    a = Assembler()
    if taken:
        a.b("bl")
        a.nop()
        a.nop()
    else:
        a.movs(0, 0)
        a.nop()
        a.bne("end")
    a.label("bl")
    a.bl("end")
    a.label("end")
    a.bkpt()
    return a.image()


# Cycles, fetch stalls and the BL's fetch stall by hand.  Taken: B 3, BL 4,
# BKPT 1; at WS1 the first word and the BL's target stall 1 each, and the
# BL, entered cold, pays for both its words whether or not the read-ahead
# is on.  Fall-through: MOVS, NOP and BNE 1 each, BL 4, BKPT 1; at WS1 the
# first word and the BL's target stall 1 each, and without prefetch so do
# the words at 0x0C and 0x10, while with it the BL finds its second word
# read ahead.
STRADDLE_CASES = {
    "taken": (True, {(0, False): (8, 0, 0), (1, False): (12, 4, 2),
                     (1, True): (12, 4, 2)}),
    "fall-through": (False, {(0, False): (8, 0, 0), (1, False): (12, 4, 1),
                             (1, True): (10, 2, 0)}),
}


@pytest.mark.parametrize("path", sorted(ENGINE_PATHS))
@pytest.mark.parametrize("ws,prefetch", TIMING_CLASSES)
@pytest.mark.parametrize("case", sorted(STRADDLE_CASES))
def test_a_straddling_bl_pays_by_how_it_was_entered(case, ws, prefetch, path):
    """Entered by a taken branch, a BL across a word boundary stalls for
    both words in each WS1 class; entered by falling through, it stalls
    for its second word only without prefetch.  On every engine path."""
    taken, expected = STRADDLE_CASES[case]
    image = straddle_image(taken)
    sim = Simulator(image, wait_states=ws, prefetch=prefetch)
    steps = ENGINE_PATHS[path](sim)
    cycles, stalls, bl_stall = expected[ws, prefetch]
    assert sim.state.halted
    assert (sim.state.cycle_count, sim.counters.fetch_stall_cycles) == (
        cycles, stalls)
    if steps is not None:
        assert [step.fetch_stall for step in steps
                if step.instruction.op == "BL"] == [bl_stall]
    ref = ReferenceStepper(image, wait_states=ws, prefetch=prefetch)
    assert ref.run() == "halt"
    assert machine_state(sim) == machine_state(ref)


RESUME_IMAGES = {"loop": held_word_loop, "round-trip": round_trip_image,
                 "straddle-taken": lambda: straddle_image(True),
                 "straddle-fall-through": lambda: straddle_image(False),
                 "random3": lambda: random_program(3)}


@pytest.mark.parametrize("engine", ENGINES, ids=["compiled", "threshold"])
@pytest.mark.parametrize("ws,prefetch", TIMING_CLASSES)
@pytest.mark.parametrize("name", sorted(RESUME_IMAGES))
def test_stopping_and_resuming_equals_one_run(name, ws, prefetch, engine):
    """A run stopped at any cycle budget, mid-block or not, or after any
    number of `step()` calls, then resumed, ends as one uninterrupted run:
    a stop after a sequential instruction resumes warm, one after a taken
    branch cold."""
    image = RESUME_IMAGES[name]()
    whole = Simulator(image, wait_states=ws, prefetch=prefetch)
    assert whole.run().exit_reason == "halt"
    end = machine_state(whole)
    with engine():
        for budget in range(whole.state.cycle_count + 1):
            sim = Simulator(image, wait_states=ws, prefetch=prefetch)
            sim.run(max_cycles=budget)
            assert sim.run().exit_reason == "halt"
            assert machine_state(sim) == end, budget
        for count in range(sum(whole.counters.histogram.values())):
            sim = Simulator(image, wait_states=ws, prefetch=prefetch)
            for _ in range(count):
                sim.step()
            assert sim.run().exit_reason == "halt"
            assert machine_state(sim) == end, count


@pytest.mark.parametrize("prefetch", [False, True])
def test_a_write_to_pc_between_runs_fetches_cold(prefetch):
    """A run resumes warm only at the pc where the last one stopped
    sequentially.  After NOPs at 0x08000008 and 0x0800000A, pc set back to
    0x0800000A, in the word still held, pays the wait state; pc written
    with the value it has resumes warm."""
    a = Assembler()
    for _ in range(4):
        a.nop()
    a.bkpt()
    sim = Simulator(a.image(), wait_states=1, prefetch=prefetch)
    assert [sim.step().fetch_stall for _ in range(2)] == [1, 0]
    sim.state.pc = 0x0800000A
    assert sim.step().fetch_stall == 1
    sim.state.pc = sim.state.pc
    assert sim.step().fetch_stall == (0 if prefetch else 1)  # word 0x0C


@pytest.mark.parametrize("ws,prefetch", TIMING_CLASSES)
def test_a_literal_load_past_flash_faults_compiled_too(ws, prefetch):
    """A literal pool past Flash's end is no constant: the compiled block
    reads it on the slow path, which raises the same fault.  The block at
    the entry runs once per call; the call after COMPILE_AFTER compiles
    it, and every call ends alike."""
    a = Assembler()
    a.ldr_lit(0, 0x0800000C)   # the word after the 12-byte image
    a.bkpt()
    image = a.image()
    sim = Simulator(image, wait_states=ws, prefetch=prefetch,
                    flash_size=len(image))
    summaries = []
    for call in range(COMPILE_AFTER + 6):
        summaries.append(sim.run())
        assert (sim._blocks[0x08000008].code is not None) == (
            call >= COMPILE_AFTER), call
    assert summaries == [summaries[0]] * len(summaries)
    assert summaries[0].exit_reason == "fault: unmapped read at 0x0800000c"
    assert summaries[0].cycle_count == summaries[0].steps == 0
    source = next(text for text, fn in cpu._CODE.items()
                  if fn is sim._blocks[0x08000008].code)
    assert "= read(" in source


def test_translation_stops_where_the_boot_alias_meets_flash():
    """With 128 MiB of Flash the boot alias ends at FLASH_BASE, so a block
    decoded from the alias's last halfwords stops at the region change,
    not at a decode fault, and the Flash block after it is entered warm.
    The image's vector table runs as code there: NOP, NOP (the SP word),
    MOVS r1, r1 and LSRS r0, r0, #32 (the reset pc), then BKPT."""
    image = ((0xBF00BF00).to_bytes(4, "little")
             + (0x08000009).to_bytes(4, "little") + bytes([0x00, 0xBE]))
    sim = Simulator(image, wait_states=1, flash_size=memory.FLASH_BASE)
    sim.mem.flash[-4:] = bytes([0x01, 0x32, 0x01, 0x32])  # ADDS r2, #1 twice
    sim.state.pc = memory.FLASH_BASE - 4
    summary = sim.run()
    assert summary.exit_reason == "halt" and sim.state.regs[2] == 2
    assert [e[2] for e in sim._blocks[memory.FLASH_BASE - 4].entries] \
        == [memory.FLASH_BASE - 4, memory.FLASH_BASE - 2]
    assert sim._blocks[memory.FLASH_BASE].warm == 1  # word 0 is not held
    # 7 instructions of 1 cycle, and a new word at 0x07FFFFFC, 0, 4 and 8
    assert (summary.steps, summary.cycle_count) == (7, 11)


@pytest.mark.parametrize("tail", ["undefined", "past_flash"])
def test_translation_stops_right_before_a_fault(tail):
    """A Flash block holds every instruction before one that cannot be
    decoded (UDF) or fetched (past the end of Flash), which raises its
    fault when it runs; translating at that instruction raises it."""
    a = Assembler()
    a.movs(0, 1)
    a.movs(1, 2)
    if tail == "undefined":
        a.udf()
        a.nop()
    image = a.image()
    sim = Simulator(image, flash_size=len(image))
    block = sim._translate(0x08000008)
    assert [entry[2] for entry in block.entries] == [0x08000008, 0x0800000A]
    with pytest.raises(M0EnergyError):
        sim._translate(0x0800000C)
    summary = sim.run()
    assert summary.exit_reason.startswith("fault: ")
    assert (summary.steps, sim.state.pc) == (2, 0x0800000C)


# -- translation against the static CFG ---------------------------------------

TRANSLATION_IMAGES = ([("kernel", name) for name in sorted(KERNELS)]
                      + [("golden", seed) for seed in range(1, 21)]
                      + [("random", seed) for seed in RANDOM_SEEDS])
TRANSLATION_IDS = ["%s-%s" % case for case in TRANSLATION_IMAGES]


def leader_translations(kind, seed, ws, prefetch):
    """(CFG blocks, translated block) for each Flash leader of the image's
    CFG: the blocks from the leader along fall-through edges up to the
    first that ends on a block end, and the simulator's translation of the
    leader."""
    from test_cli import golden_image
    image = {"kernel": kernel_image, "golden": golden_image,
             "random": random_program}[kind](seed)
    sim = Simulator(image, wait_states=ws, prefetch=prefetch)
    graph = extract_cfg(sim.mem, sim.mem.reset_vector()[1])
    for start in sorted(graph.blocks):
        if sim.mem.region(start) == "flash":
            run = [graph.blocks[start]]
            while run[-1].encodings[-1].flow is None:
                run.append(graph.blocks[run[-1].end])
            yield run, sim._translate(start)


def cfg_pairs(blocks):
    """(address, Encoding) of each instruction of the CFG `blocks`."""
    return [pair for block in blocks for pair in zip(
        range(block.start, block.end, 2), block.encodings)]


@pytest.mark.parametrize("kind,seed", TRANSLATION_IMAGES, ids=TRANSLATION_IDS)
def test_translations_walk_what_the_cfg_walks(kind, seed):
    """A translation of a Flash CFG leader holds the CFG walk's addresses
    and its shared Encodings, the same objects, up to the first block end;
    its c1, c2 and mnemonic histogram are those of the CFG blocks."""
    translations = list(leader_translations(kind, seed, 0, False))
    assert translations
    for run, block in translations:
        pairs = cfg_pairs(run)
        assert [entry[2] for entry in block.entries] == [a for a, _e in pairs]
        assert all(entry[1] is enc
                   for entry, (_a, enc) in zip(block.entries, pairs))
        c1, c2, histogram = block.counts
        assert (c1, c2) == (sum(b.static_counts.c1 for b in run),
                            sum(b.static_counts.c2 for b in run))
        assert histogram == collections.Counter(
            ins.mnemonic for b in run for ins in b.instructions)


@pytest.mark.parametrize("ws,prefetch", TIMING_CLASSES)
@pytest.mark.parametrize("kind,seed", TRANSLATION_IMAGES, ids=TRANSLATION_IDS)
def test_block_stalls_of_cfg_blocks_are_their_translations(kind, seed, ws,
                                                           prefetch):
    """`memory.block_stalls` over a Flash CFG block's (address, size) pairs
    gives the cold, warm and in-block stalls its translation holds."""
    for run, block in leader_translations(kind, seed, ws, prefetch):
        pairs = [(addr, enc.size) for addr, enc in cfg_pairs(run[:1])]
        cold, warm, stalls = memory.block_stalls(pairs, ws, prefetch)
        assert (cold, warm) == (block.cold, block.warm)
        assert stalls == [entry[5] for entry in block.entries[:len(pairs)]]


# -- late binding -------------------------------------------------------------

def recorded_bindings(monkeypatch):
    """The addresses `Encoding.at` binds from now on, in order."""
    bound = []
    encoding = importlib.import_module("m0energy.decode").Encoding
    at = encoding.at
    monkeypatch.setattr(encoding, "at", lambda enc, addr: (
        bound.append(addr) or at(enc, addr)))
    return bound


LAZY_IMAGES = {
    "run_mixed": functools.partial(benchmark_image, "run_mixed", "mixed.bin"),
    "sweep_branchy": functools.partial(benchmark_image, "sweep_branchy",
                                       "branchy.bin"),
    **{name: functools.partial(kernel_image, name) for name in sorted(KERNELS)},
}


@pytest.mark.parametrize("sweep", [False, True], ids=["run", "sweep"])
@pytest.mark.parametrize("name", LAZY_IMAGES)
def test_run_binds_no_instruction(tmp_path, monkeypatch, name, sweep):
    """A `run` or `run --sweep` executes and prices shared Encodings at
    their addresses: no Instruction is bound."""
    path = tmp_path / "prog.bin"
    path.write_bytes(LAZY_IMAGES[name]())
    bound = recorded_bindings(monkeypatch)
    argv = ["run", str(path), "--sweep"] if sweep else [
        "run", str(path), "--waitstates", "1", "--prefetch", "on"]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0
    assert bound == [] and '"c1"' in out.getvalue()


def test_on_step_and_step_bind_the_instructions_decode_at_does(monkeypatch):
    """`on_step` and `step()` see each step's Instruction bound once, equal
    to `decode_at`'s at its address."""
    decode_at = importlib.import_module("m0energy.decode").decode_at
    image = random_program(5)
    bound = recorded_bindings(monkeypatch)
    traced = Simulator(image, wait_states=1, prefetch=True)
    results = []
    assert traced.run(on_step=results.append).exit_reason == "halt"
    stepped = Simulator(image, wait_states=1, prefetch=True)
    while not stepped.state.halted:
        results.append(stepped.step())
    assert bound == [result.instruction.addr for result in results]
    for result in results:
        ins = result.instruction
        expected = decode_at(traced.mem, ins.addr)
        assert ins == expected and repr(ins) == repr(expected)
