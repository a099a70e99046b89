"""Core execution tests: reset, semantics, flags, timing, run control.

Flag checks compare against oracles that reason over bit strings and
Python integer ranges rather than the 32-bit wrap/mask arithmetic the
implementation uses.
"""

import itertools
import random
import re
import zlib

import pytest

import helpers
from helpers import (KERNELS, TIMING_CONFIGS, compile_at_first_run,
                     kernel_image, oracle_add_flags, oracle_sub_flags,
                     run_kernel)
from m0energy import (Assembler, BadEntryError, CpuState, EventCounters,
                      HardwareConfig, InvalidConfigError, MalformedImageError,
                      M0EnergyError, RunSummary, Simulator, StepResult)
from m0energy.decode import (DEFAULT_TIMING, LOAD_OPS, STORE_OPS, decode,
                             encoding_at, is_wide)
from m0energy.memory import timing_class

MASK32 = 0xFFFFFFFF


def single_op_sim(emit, ws=0, prefetch=False):
    """Simulator whose code is one instruction (emitted by `emit`) + BKPT."""
    a = Assembler()
    emit(a)
    a.bkpt()
    return Simulator(a.image(), wait_states=ws, prefetch=prefetch)


def set_inputs(sim, r0, r1, c, n, z, v):
    s = sim.state
    s.regs[0] = r0
    s.regs[1] = r1
    s.regs[15] = 0x08000008
    s.halted = False
    s.cycle_count = 0
    s.c, s.n, s.z, s.v = c, n, z, v


def run_first_block(sim):
    """Run the instruction at 0x08000008 through Simulator.run() as part of a
    compiled Flash block that the cycle budget does not cut.  A terminator
    is a block of its own, and a budget of one cycle stops the run right
    after it; anything else runs on through the BKPT that follows it.
    Returns the summary and whether that BKPT ran."""
    with compile_at_first_run():
        if encoding_at(sim.mem, 0x08000008).flow is not None:
            return sim.run(max_cycles=1), False
        return sim.run(), True


def exec_once(sim, r0=0, r1=0, c=False, n=False, z=False, v=False):
    """Execute the instruction at 0x08000008 from the given r0, r1 and flags,
    once inside a block through Simulator.run() and once through step(), and
    require both to end with the same registers, flags and counter events;
    returns the StepResult, so a caller's oracle checks both runs."""
    set_inputs(sim, r0, r1, c, n, z, v)
    before = sim.counters.as_vector()
    _summary, bkpt_ran = run_first_block(sim)
    s = sim.state
    ran = list(s.regs), (s.n, s.z, s.c, s.v)
    ran_events = [x - y for x, y in zip(sim.counters.as_vector(), before)]
    set_inputs(sim, r0, r1, c, n, z, v)
    before = sim.counters.as_vector()
    step = sim.step()
    stepped = list(s.regs), (s.n, s.z, s.c, s.v)
    step_events = [x - y for x, y in zip(sim.counters.as_vector(), before)]
    if bkpt_ran:  # the run went on through the BKPT after the instruction
        stepped[0][15] += 2
        step_events[0] += 1
    assert ran == stepped
    assert ran_events == step_events
    return step


# -- reset -------------------------------------------------------------------

def test_reset_clears_thumb_bit():
    image = (0x20002000).to_bytes(4, "little") + (0x08000101).to_bytes(4, "little")
    image += b"\x00" * 0x100 + (0xBE00).to_bytes(2, "little")
    sim = Simulator(image)
    assert sim.state.sp == 0x20002000
    assert sim.state.pc == 0x08000100
    assert (sim.state.n, sim.state.z, sim.state.c, sim.state.v) == (False,) * 4
    assert sim.state.cycle_count == 0


def test_reset_even_vector():
    image = (0x20001000).to_bytes(4, "little") + (0x08000009).to_bytes(4, "little")
    image += (0xBE00).to_bytes(2, "little")
    sim = Simulator(image)
    assert sim.state.sp == 0x20001000
    assert sim.state.pc == 0x08000008


def test_reset_short_image():
    with pytest.raises(MalformedImageError):
        Simulator(b"\x00\x20\x00\x20")


def test_reset_bad_entry():
    image = (0x20002000).to_bytes(4, "little") + (0xF0000001).to_bytes(4, "little")
    with pytest.raises(BadEntryError):
        Simulator(image)


# -- single-instruction semantics ---------------------------------------------

def test_movs_imm():
    sim = single_op_sim(lambda a: a.movs(0, 5))
    step = exec_once(sim)
    assert sim.state.regs[0] == 5
    assert not sim.state.z and not sim.state.n
    assert step.cycles == 1


def test_asr_register_sign_fill():
    # arithmetic shift of a negative value keeps the sign bit
    sim = single_op_sim(lambda a: a.asrs_reg(0, 1))
    exec_once(sim, r0=0x80000000, r1=1)
    assert sim.state.regs[0] == 0xC0000000
    assert sim.state.n and not sim.state.c and not sim.state.z


def test_asr_immediate_32():
    sim = single_op_sim(lambda a: a.asrs_imm(0, 1, 0))  # imm5=0 encodes 32
    exec_once(sim, r1=0x80000000)
    assert sim.state.regs[0] == 0xFFFFFFFF
    assert sim.state.c
    exec_once(sim, r1=0x7FFFFFFF)
    assert sim.state.regs[0] == 0
    assert not sim.state.c


def test_bkpt_halts_without_register_change():
    a = Assembler()
    a.bkpt()
    sim = Simulator(a.image())
    before = list(sim.state.regs[:15])
    step = sim.step()
    assert sim.state.halted and step.halted
    assert sim.state.regs[:15] == before
    assert step.cycles == 1


def test_step_on_halted_raises():
    a = Assembler()
    a.bkpt()
    sim = Simulator(a.image())
    sim.step()
    with pytest.raises(M0EnergyError):
        sim.step()


def test_every_base_cycle_entry_is_an_int_of_at_least_one_cycle():
    # step() runs to one cycle past now, so no instruction may be free
    assert DEFAULT_TIMING
    for key, cycles in DEFAULT_TIMING.items():
        assert type(cycles) is int and cycles >= 1, key


def test_the_base_cycle_table_is_read_only():
    # every simulator reads the one table, so a caller's write of 0 would
    # make step() run on past the instruction it was asked for
    with pytest.raises(TypeError):
        DEFAULT_TIMING["dp"] = 0
    sim = single_op_sim(lambda a: a.movs(0, 1))
    assert sim.step().cycles == 1 and sim.state.pc == 0x0800000A


@pytest.mark.parametrize("wait_states", [2, 3, -1, 1.0, 0.0, True, False,
                                         "1"])
def test_wait_states_other_than_0_or_1_are_rejected(wait_states):
    # the fetch rule needs no clock, and compiled blocks price each fetch
    # past a block's first instruction as a constant, only at 0 or 1 wait
    # state; `timing_class` is the one check, for a simulator and for
    # pricing a run under another class alike.  1.0 and True equal 1, but
    # a float count made a run report float cycles, and a bool labelled a
    # configuration as the int would; the configuration's own check is the
    # same test with its own message
    message = "^wait states must be 0 or 1, got %s$" % re.escape(
        repr(wait_states))
    sim, summary, _ = run_kernel("flash_lit")
    for prefetch in (False, True):
        with pytest.raises(InvalidConfigError, match=message):
            timing_class(wait_states, prefetch)
        with pytest.raises(InvalidConfigError, match=message):
            single_op_sim(lambda a: a.muls(0, 1), ws=wait_states,
                          prefetch=prefetch)
        with pytest.raises(InvalidConfigError, match=message):
            sim.price(summary, wait_states, prefetch)
        with pytest.raises(InvalidConfigError,
                           match="^wait states must be 0 or 1$"):
            HardwareConfig(20, prefetch, wait_states)


def test_ldrsb_sign_extends():
    a = Assembler()
    a.ldr_lit(0, "ram")
    a.movs(1, 0x80)
    a.strb_imm(1, 0)
    a.movs(2, 0)
    a.ldrsb_reg(3, 0, 2)
    a.bkpt()
    a.word(0x20000000, label="ram")
    sim = Simulator(a.image())
    sim.run()
    assert sim.state.regs[3] == 0xFFFFFF80


def test_ldrsh_and_extends():
    a = Assembler()
    a.ldr_lit(0, "ram")
    a.ldr_lit(1, "val")
    a.str_imm(1, 0)
    a.movs(2, 0)
    a.ldrsh_reg(3, 0, 2)
    a.ldrh_imm(4, 0)
    a.bkpt()
    a.word(0x20000000, label="ram")
    a.word(0x0000F234, label="val")
    sim = Simulator(a.image())
    sim.run()
    assert sim.state.regs[3] == 0xFFFFF234  # sign-extended halfword
    assert sim.state.regs[4] == 0x0000F234  # zero-extended halfword


# -- loads and stores: every op, one row per Assembler emitter ---------------
# The reference stepper runs the engine's own step functions (`cpu._step`),
# so the engine-vs-reference tests cannot see a wrong address, width or
# extension in the load/store templates.  These rows can: each expectation
# is computed here from the emitter's operands, the registers and the RAM
# bytes, never from decoded fields.

RAM = 0x20000000
LIT_VALUE = 0x8BADF00D

# emitter -> (addressing mode, access size, load?, sign-extending?)
LOAD_STORE_ROWS = {
    "ldr_imm": ("imm", 4, True, False),
    "ldrb_imm": ("imm", 1, True, False),
    "ldrh_imm": ("imm", 2, True, False),
    "str_imm": ("imm", 4, False, False),
    "strb_imm": ("imm", 1, False, False),
    "strh_imm": ("imm", 2, False, False),
    "ldr_reg": ("reg", 4, True, False),
    "ldrb_reg": ("reg", 1, True, False),
    "ldrh_reg": ("reg", 2, True, False),
    "ldrsb_reg": ("reg", 1, True, True),
    "ldrsh_reg": ("reg", 2, True, True),
    "str_reg": ("reg", 4, False, False),
    "strb_reg": ("reg", 1, False, False),
    "strh_reg": ("reg", 2, False, False),
    "ldr_sp": ("sp", 4, True, False),
    "str_sp": ("sp", 4, False, False),
    "ldr_lit": ("lit", 4, True, False),
}


def load_store_case(emitter, seed):
    """(simulator ready to step the access, regs before, access address).

    Even seeds set the top bit of the accessed value, odd seeds clear it,
    so every load runs with and without a sign bit to extend."""
    mode, size, is_load, _signed = LOAD_STORE_ROWS[emitter]
    rng = random.Random("%s-%d" % (emitter, seed))
    rn, rm = rng.sample(range(8), 2)
    # a store's data register differs from its address registers, so its
    # value can differ from the RAM at every byte a too-wide write would hit
    rt = rng.choice([r for r in range(8) if is_load or r not in (rn, rm)])
    regs = [rng.getrandbits(32) for _ in range(8)]
    base = RAM + size * rng.randint(0, 256)
    offset = size * rng.randint(0, 31)
    a = Assembler()
    if mode == "imm":
        getattr(a, emitter)(rt, rn, offset)
        regs[rn] = base
    elif mode == "reg":
        getattr(a, emitter)(rt, rn, rm)
        regs[rn], regs[rm] = base, offset
    elif mode == "sp":
        offset = 4 * rng.randint(0, 255)
        getattr(a, emitter)(rt, offset)
    else:
        a.ldr_lit(rt, "lit")
    a.bkpt()
    a.word(LIT_VALUE, label="lit")
    sim = Simulator(a.image())
    ram = bytearray(rng.getrandbits(8) for _ in range(len(sim.mem.ram)))
    if mode == "lit":
        addr = 0x0800000C       # the literal after LDR and BKPT
    else:
        addr = base + offset
        top = addr - RAM + size - 1
        ram[top] = ram[top] | 0x80 if seed % 2 == 0 else ram[top] & 0x7F
    if not is_load:
        data = int.from_bytes(ram[addr - RAM:addr - RAM + 4], "little")
        regs[rt] = data ^ MASK32
    sim.mem.ram[:] = ram
    sim.state.regs[:8] = regs
    if mode == "sp":
        sim.state.regs[13] = base
    return sim, rt, addr


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("emitter", sorted(LOAD_STORE_ROWS))
def test_load_store_address_width_and_extension(emitter, seed):
    mode, size, is_load, signed = LOAD_STORE_ROWS[emitter]
    sim, rt, addr = load_store_case(emitter, seed)
    regs = list(sim.state.regs)
    ram = bytes(sim.mem.ram)
    step = sim.step()
    region = "flash" if mode == "lit" else "ram"
    events = (int(is_load and region == "ram"), int(not is_load),
              int(region == "flash"))
    assert step.data_events == events
    expected_regs = list(regs)
    expected_regs[15] = regs[15] + 2
    if is_load:
        if mode == "lit":
            value = LIT_VALUE
        else:
            value = int.from_bytes(ram[addr - RAM:addr - RAM + size], "little")
            if signed and value >> (8 * size - 1):
                value = (value - (1 << (8 * size))) & MASK32
        if signed:  # the case has the sign bit its seed promises
            assert value >> 31 == (seed % 2 == 0)
        expected_regs[rt] = value
        assert bytes(sim.mem.ram) == ram
    else:
        written = (regs[rt] & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        off = addr - RAM
        assert bytes(sim.mem.ram) == ram[:off] + written + ram[off + size:]
    assert sim.state.regs == expected_regs
    c = sim.counters
    assert (c.c4, c.c5, c.c6) == events


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("emitter", sorted(LOAD_STORE_ROWS))
def test_load_store_rows_in_a_block(emitter, seed):
    """The same rows, run inside a Flash block through Simulator.run()."""
    mode, size, is_load, signed = LOAD_STORE_ROWS[emitter]
    sim, rt, addr = load_store_case(emitter, seed)
    stepped, _rt, _addr = load_store_case(emitter, seed)
    stepped.step()
    regs = list(sim.state.regs)
    ram = bytes(sim.mem.ram)
    summary, bkpt_ran = run_first_block(sim)
    assert bkpt_ran and summary.exit_reason == "halt"
    expected_regs = list(regs)
    expected_regs[15] = regs[15] + 4
    if is_load:
        if mode == "lit":
            value = LIT_VALUE
        else:
            value = int.from_bytes(ram[addr - RAM:addr - RAM + size], "little")
            if signed and value >> (8 * size - 1):
                value = (value - (1 << (8 * size))) & MASK32
        expected_regs[rt] = value
        assert bytes(sim.mem.ram) == ram
    else:
        written = (regs[rt] & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        off = addr - RAM
        assert bytes(sim.mem.ram) == ram[:off] + written + ram[off + size:]
    assert sim.state.regs == expected_regs
    region = "flash" if mode == "lit" else "ram"
    assert summary.counters.as_vector() == (
        2, 0, 0, int(is_load and region == "ram"), int(not is_load),
        int(region == "flash"))
    # step() and the block agree on the cycles of the access
    assert summary.cycle_count == stepped.state.cycle_count + 1


def test_load_store_rows_cover_every_load_and_store_op():
    ops = set()
    for emitter in LOAD_STORE_ROWS:
        sim, _rt, _addr = load_store_case(emitter, 0)
        ops.add(sim.step().instruction.op)
    assert ops == LOAD_OPS | STORE_OPS


# -- the rest of the ops without a flag sweep: one row per Assembler emitter ---
# Expectations are computed here from the emitter's operands and the state
# before the step, over bit strings where a value is reshaped, never from
# decoded fields.  The instruction sits at CODE; BKPT follows it, then eight
# labelled words (w0..w7) that ADR and the branches point at.

CODE = 0x08000008


def word_addr(k, size=2):
    """Address of label w<k> after an instruction of `size` bytes and BKPT."""
    return ((CODE + size + 2 + 3) & ~3) + 4 * k


def _unary(fn, sign_bit):
    """rd = fn(bit string of rm), low registers, flags kept.  Even seeds set
    `sign_bit` of rm, odd seeds clear it."""
    def row(a, emitter, rng, seed, regs, flags):
        rd, rm = rng.randrange(8), rng.randrange(8)
        mask = 1 << sign_bit
        regs[rm] = regs[rm] | mask if seed % 2 == 0 else regs[rm] & ~mask
        getattr(a, emitter)(rd, rm)
        return {rd: fn(bits32(regs[rm]))}, flags
    return row


def _hi_operands(rng, seed, regs):
    """Even seeds: a high rd and any rm but pc; odd seeds: rm = pc, which
    reads as the instruction's address plus 4."""
    if seed % 2 == 0:
        rd, rm = rng.randrange(8, 15), rng.randrange(15)
        return rd, rm, regs[rm]
    return rng.randrange(15), 15, CODE + 4


def _row_add_hi(a, emitter, rng, seed, regs, flags):
    rd, rm, value = _hi_operands(rng, seed, regs)
    a.add_hi(rd, rm)
    return {rd: (regs[rd] + value) % 2 ** 32}, flags


def _row_mov_hi(a, emitter, rng, seed, regs, flags):
    rd, rm, value = _hi_operands(rng, seed, regs)
    a.mov_hi(rd, rm)
    return {rd: value}, flags


def _row_cmp_hi(a, emitter, rng, seed, regs, flags):
    rn, rm = rng.randrange(8, 15), rng.randrange(15)
    if seed % 4 == 0:
        regs[rm] = regs[rn]
    a.cmp_hi(rn, rm)
    return {}, oracle_sub_flags(regs[rn], regs[rm])[1:]


def _row_add_sp_imm8(a, emitter, rng, seed, regs, flags):
    rd, imm = rng.randrange(8), 4 * rng.randint(1, 255)
    a.add_sp_imm8(rd, imm)
    return {rd: regs[13] + imm}, flags


def _row_add_sp(a, emitter, rng, seed, regs, flags):
    imm = 4 * rng.randint(1, 127)
    a.add_sp(imm)
    return {13: regs[13] + imm}, flags


def _row_sub_sp(a, emitter, rng, seed, regs, flags):
    imm = 4 * rng.randint(1, 127)
    a.sub_sp(imm)
    return {13: regs[13] - imm}, flags


def _row_adr(a, emitter, rng, seed, regs, flags):
    rd, k = rng.randrange(8), rng.randrange(8)
    a.adr(rd, "w%d" % k)
    return {rd: word_addr(k)}, flags


def _row_movs(a, emitter, rng, seed, regs, flags):
    rd, imm = rng.randrange(8), 0 if seed % 4 == 0 else rng.randint(1, 255)
    a.movs(rd, imm)
    return {rd: imm}, (False, imm == 0) + flags[2:]


def _row_nop(a, emitter, rng, seed, regs, flags):
    a.nop()
    return {}, flags


def _row_bkpt(a, emitter, rng, seed, regs, flags):
    a.bkpt(rng.randrange(256))
    return {}, flags


def _row_b(a, emitter, rng, seed, regs, flags):
    k = rng.randrange(8)
    a.b("w%d" % k)
    return {15: word_addr(k)}, flags


def _row_bl(a, emitter, rng, seed, regs, flags):
    k = rng.randrange(8)
    a.bl("w%d" % k)
    return {14: (CODE + 4) | 1, 15: word_addr(k, size=4)}, flags


def _link_register_or_any(rng, seed):
    """lr for even seeds (so BLX lr must read lr before it writes it)."""
    return 14 if seed % 2 == 0 else rng.randrange(14)


def _row_bx(a, emitter, rng, seed, regs, flags):
    rm = _link_register_or_any(rng, seed)
    regs[rm] |= 1
    a.bx(rm)
    return {15: regs[rm] - 1}, flags


def _row_blx(a, emitter, rng, seed, regs, flags):
    rm = _link_register_or_any(rng, seed)
    regs[rm] |= 1
    a.blx(rm)
    return {14: (CODE + 2) | 1, 15: regs[rm] - 1}, flags


# emitter -> row(assembler, emitter, rng, seed, regs, flags) that emits the
# instruction, may adjust regs, and returns ({register: value after}, NZCV after)
SEMANTIC_ROWS = {
    "sxtb": _unary(lambda b: int(b[24] * 24 + b[24:], 2), 7),
    "sxth": _unary(lambda b: int(b[16] * 16 + b[16:], 2), 15),
    "uxtb": _unary(lambda b: int(b[24:], 2), 7),
    "uxth": _unary(lambda b: int(b[16:], 2), 15),
    "rev": _unary(lambda b: int(b[24:] + b[16:24] + b[8:16] + b[:8], 2), 31),
    "rev16": _unary(lambda b: int(b[8:16] + b[:8] + b[24:] + b[16:24], 2), 15),
    "revsh": _unary(lambda b: int(b[24] * 16 + b[24:] + b[16:24], 2), 7),
    "cmp_hi": _row_cmp_hi,
    "add_hi": _row_add_hi,
    "mov_hi": _row_mov_hi,
    "add_sp_imm8": _row_add_sp_imm8,
    "add_sp": _row_add_sp,
    "sub_sp": _row_sub_sp,
    "adr": _row_adr,
    "movs": _row_movs,
    "nop": _row_nop,
    "bkpt": _row_bkpt,
    "b": _row_b,
    "bl": _row_bl,
    "bx": _row_bx,
    "blx": _row_blx,
}


def semantic_case(emitter, seed):
    """(simulator ready to step the instruction, regs after, NZCV after)."""
    rng = random.Random("%s-%d" % (emitter, seed))
    regs = [rng.getrandbits(32) for _ in range(15)] + [CODE]
    regs[13] = RAM + 4 * rng.randint(0, 2047)
    flags = tuple(rng.random() < 0.5 for _ in range(4))
    a = Assembler()
    changes, expect_flags = SEMANTIC_ROWS[emitter](a, emitter, rng, seed,
                                                   regs, flags)
    if emitter != "bkpt":
        a.bkpt()
    for k in range(8):
        a.word(rng.getrandbits(32), label="w%d" % k)
    sim = Simulator(a.image())
    sim.state.regs[:] = regs
    s = sim.state
    s.n, s.z, s.c, s.v = flags
    expected = list(regs)
    expected[15] = CODE + 2
    for r, value in changes.items():
        expected[r] = value % 2 ** 32
    return sim, expected, expect_flags


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("emitter", sorted(SEMANTIC_ROWS))
def test_data_processing_and_branch_semantics(emitter, seed):
    sim, expected, flags = semantic_case(emitter, seed)
    step = sim.step()
    s = sim.state
    assert s.regs == expected
    assert (s.n, s.z, s.c, s.v) == flags
    assert step.branch_taken == (expected[15] != CODE + 2)
    assert step.halted == (emitter == "bkpt")
    assert step.data_events == (0, 0, 0)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("emitter", sorted(SEMANTIC_ROWS))
def test_data_processing_and_branch_semantics_in_a_block(emitter, seed):
    """The same rows, run inside a Flash block through Simulator.run()."""
    sim, expected, flags = semantic_case(emitter, seed)
    ram = bytes(sim.mem.ram)
    summary, bkpt_ran = run_first_block(sim)
    branched = expected[15] != CODE + 2
    if bkpt_ran:
        expected[15] += 2
    s = sim.state
    assert s.regs == expected
    assert (s.n, s.z, s.c, s.v) == flags
    assert bytes(sim.mem.ram) == ram
    assert s.halted == (bkpt_ran or emitter == "bkpt")
    assert summary.counters.as_vector() == (1 + bkpt_ran, 0, int(branched),
                                            0, 0, 0)


# name -> whether the condition passes, as the ARM ARM states it
COND_ORACLE = {
    "eq": lambda n, z, c, v: z,
    "ne": lambda n, z, c, v: not z,
    "cs": lambda n, z, c, v: c,
    "cc": lambda n, z, c, v: not c,
    "mi": lambda n, z, c, v: n,
    "pl": lambda n, z, c, v: not n,
    "vs": lambda n, z, c, v: v,
    "vc": lambda n, z, c, v: not v,
    "hi": lambda n, z, c, v: c and not z,
    "ls": lambda n, z, c, v: not c or z,
    "ge": lambda n, z, c, v: n == v,
    "lt": lambda n, z, c, v: n != v,
    "gt": lambda n, z, c, v: not z and n == v,
    "le": lambda n, z, c, v: z or n != v,
}


def bcond_emit(cond):
    return lambda a: a.b("w0", cond)


@pytest.mark.parametrize("cond", sorted(COND_ORACLE))
def test_bcond_vs_condition_oracle(cond):
    a = Assembler()
    bcond_emit(cond)(a)
    a.bkpt()
    a.word(0, label="w0")
    sim = Simulator(a.image())
    for n, z, c, v in itertools.product((False, True), repeat=4):
        step = exec_once(sim, n=n, z=z, c=c, v=v)
        taken = COND_ORACLE[cond](n, z, c, v)
        assert step.branch_taken == taken, (cond, n, z, c, v)
        assert sim.state.pc == (word_addr(0) if taken else CODE + 2)
        assert (sim.state.n, sim.state.z, sim.state.c, sim.state.v) == \
            (n, z, c, v)


# -- block transfers: PUSH, POP, LDM, STM ----------------------------------------

BLOCK_TRANSFER_ROWS = ("push", "pop", "ldm", "stm")


def block_transfer_case(emitter, seed):
    """(simulator, regs after, RAM after, accesses, branch taken).

    Even seeds add lr to PUSH, pc to POP and the base register to LDM's
    list (which then loads it instead of writing it back)."""
    rng = random.Random("%s-%d" % (emitter, seed))
    regs = [rng.getrandbits(32) for _ in range(15)] + [CODE]
    listed = sorted(rng.sample(range(8), rng.randint(1, 7)))
    rn = 13
    if emitter in ("ldm", "stm"):
        rn = rng.choice([r for r in range(8) if r not in listed])
        if emitter == "ldm" and seed % 2 == 0:
            rn = rng.choice(listed)
    extra = seed % 2 == 0 and emitter in ("push", "pop")
    count = len(listed) + extra
    regs[rn] = RAM + 4 * rng.randint(count, 2000)
    a = Assembler()
    if emitter == "push":
        a.push(listed, lr=extra)
    elif emitter == "pop":
        a.pop(listed, pc=extra)
    else:
        getattr(a, emitter)(rn, listed)
    a.bkpt()
    sim = Simulator(a.image())
    ram = bytearray(rng.getrandbits(8) for _ in range(len(sim.mem.ram)))
    start = regs[rn] - 4 * count if emitter == "push" else regs[rn]
    if emitter == "pop" and extra:       # a Thumb return address
        top = start + 4 * len(listed) - RAM
        ram[top] |= 1
    sim.mem.ram[:] = ram
    sim.state.regs[:] = regs
    expected, after = list(regs), bytearray(ram)
    expected[15] = CODE + 2
    order = listed + ([14] if emitter == "push" and extra else []) + \
        ([15] if emitter == "pop" and extra else [])
    loads = emitter in ("pop", "ldm")
    accesses = []
    for i, r in enumerate(order):
        addr = start + 4 * i
        accesses.append((addr, 4, "r" if loads else "w", "ram"))
        word = ram[addr - RAM:addr - RAM + 4]
        if loads:
            expected[r] = int.from_bytes(word, "little")
        else:
            after[addr - RAM:addr - RAM + 4] = regs[r].to_bytes(4, "little")
    if emitter == "push":
        expected[13] = start
    elif emitter != "ldm" or rn not in listed:
        expected[rn] = start + 4 * count
    taken = emitter == "pop" and extra
    if taken:
        expected[15] -= 1      # bit 0 is the Thumb bit
    return sim, expected, bytes(after), accesses, taken


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("emitter", BLOCK_TRANSFER_ROWS)
def test_block_transfer_registers_memory_and_accesses(emitter, seed):
    sim, expected, ram, accesses, taken = block_transfer_case(emitter, seed)
    step = sim.step()
    assert sim.state.regs == expected
    assert bytes(sim.mem.ram) == ram
    assert step.branch_taken == taken
    c = sim.counters
    loads = emitter in ("pop", "ldm")
    events = (len(accesses), 0, 0) if loads else (0, len(accesses), 0)
    assert step.data_events == (c.c4, c.c5, c.c6) == events


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("emitter", BLOCK_TRANSFER_ROWS)
def test_block_transfer_rows_in_a_block(emitter, seed):
    """The same rows, run inside a Flash block through Simulator.run()."""
    sim, expected, ram, accesses, taken = block_transfer_case(emitter, seed)
    summary, bkpt_ran = run_first_block(sim)
    assert bkpt_ran == (not taken)
    if bkpt_ran:
        expected[15] += 2
    assert sim.state.regs == expected
    assert bytes(sim.mem.ram) == ram
    loads = emitter in ("pop", "ldm")
    words = len(accesses)
    assert summary.counters.as_vector() == (
        1 + bkpt_ran, 0, int(taken), words if loads else 0,
        0 if loads else words, 0)


def test_push_pop_roundtrip_and_sp():
    sim, summary, _ = run_kernel("pushpop")
    assert summary.exit_reason == "halt"
    assert sim.state.regs[2] == 1 and sim.state.regs[3] == 2
    assert sim.state.sp == 0x20002000  # balanced


def test_pop_into_pc_returns():
    sim, summary, _ = run_kernel("pop_pc")
    assert summary.exit_reason == "halt"
    assert sim.state.regs[0] == 9


def test_ldm_stm_transfer():
    a = Assembler()
    a.ldr_lit(0, "ram")
    a.movs(1, 11)
    a.movs(2, 22)
    a.stm(0, [1, 2])
    a.subs_imm8(0, 8)
    a.ldm(0, [3, 4])
    a.bkpt()
    a.word(0x20000100, label="ram")
    sim = Simulator(a.image())
    summary = sim.run()
    assert summary.exit_reason == "halt"
    assert sim.state.regs[3] == 11 and sim.state.regs[4] == 22
    assert sim.state.regs[0] == 0x20000108  # LDM writeback (base not in list)
    assert summary.counters.c4 == 2 and summary.counters.c5 == 2
    assert summary.counters.c6 == 1  # the literal load


def test_mov_pc_branches():
    a = Assembler()
    a.adr(0, "target")    # ADR needs a word-aligned target
    a.movs(1, 1)
    a.adds_reg(0, 0, 1)   # r0 = target | 1; MOV pc must clear bit 0
    a.mov_hi(15, 0)       # MOV pc, r0
    a.movs(2, 99)         # skipped
    a.nop()               # padding so the target is word-aligned
    a.label("target")
    a.movs(3, 7)
    a.bkpt()
    sim = Simulator(a.image())
    summary = sim.run()
    assert summary.exit_reason == "halt"
    assert sim.state.regs[3] == 7
    assert sim.state.regs[2] == 0


def test_unaligned_word_access_faults():
    a = Assembler()
    a.ldr_lit(0, "ram")
    a.adds_imm8(0, 2)
    a.ldr_imm(1, 0)
    a.bkpt()
    a.word(0x20000000, label="ram")
    sim = Simulator(a.image())
    summary = sim.run()
    assert summary.exit_reason.startswith("fault: misaligned read")


# -- flag oracle sweeps ---------------------------------------------------------

def bits32(v):
    return format(v & MASK32, "032b")


def oracle_shift(kind, value, amount):
    """(result, carry or None) computed over an explicit bit string."""
    b = bits32(value)
    if amount == 0:
        return value & MASK32, None
    if kind == "lsl":
        if amount > 32:
            return 0, False
        res = (b + "0" * amount)[-32:] if amount < 32 else "0" * 32
        return int(res, 2), b[amount - 1] == "1"
    if kind == "lsr":
        if amount > 32:
            return 0, False
        res = ("0" * amount + b)[:32]
        return int(res, 2), b[32 - amount] == "1"
    if kind == "asr":
        if amount >= 32:
            return int(b[0] * 32, 2), b[0] == "1"
        res = b[0] * amount + b[:32 - amount]
        return int(res, 2), b[32 - amount] == "1"
    m = amount % 32  # ror
    res = b[-m:] + b[:-m] if m else b
    return int(res, 2), res[0] == "1"


N_RANDOM = 10_000


def random_pairs(seed):
    rng = random.Random(seed)
    interesting = [0, 1, 2, 0x7FFFFFFF, 0x80000000, 0x80000001, 0xFFFFFFFF,
                   0xFFFFFFFE, 0x55555555, 0xAAAAAAAA]
    for x in interesting:
        for y in interesting:
            yield x, y, rng.random() < 0.5
    for _ in range(N_RANDOM - len(interesting) ** 2):
        yield rng.getrandbits(32), rng.getrandbits(32), rng.random() < 0.5


def assert_flags(sim, n, z, c, v, context):
    s = sim.state
    assert (s.n, s.z, s.c, s.v) == (n, z, c, v), context


def name_seed(name):
    """A seed that is the same in every interpreter (unlike hash(name))."""
    return zlib.crc32(name.encode()) & 0xFFFF


ARITH_FLAG_CASES = [
    ("adds", lambda a: a.adds_reg(0, 0, 1),
     lambda a, b, c: oracle_add_flags(a, b)),
    ("adcs", lambda a: a.adcs(0, 1),
     lambda a, b, c: oracle_add_flags(a, b, 1 if c else 0)),
    ("subs", lambda a: a.subs_reg(0, 0, 1),
     lambda a, b, c: oracle_sub_flags(a, b)),
    ("sbcs", lambda a: a.sbcs(0, 1),
     lambda a, b, c: oracle_sub_flags(a, b, 0 if c else 1)),
    ("rsbs", lambda a: a.rsbs(0, 1),
     lambda a, b, c: oracle_sub_flags(0, b)),
    ("cmp", lambda a: a.cmp_reg(0, 1),
     lambda a, b, c: oracle_sub_flags(a, b)),
    ("cmn", lambda a: a.cmn(0, 1),
     lambda a, b, c: oracle_add_flags(a, b)),
]


@pytest.mark.parametrize("name,emit,oracle", ARITH_FLAG_CASES)
def test_arith_flags_vs_oracle(name, emit, oracle):
    sim = single_op_sim(emit)
    writeback = name not in ("cmp", "cmn")
    for a, b, c_in in random_pairs(seed=name_seed(name)):
        exec_once(sim, r0=a, r1=b, c=c_in)
        result, n, z, c, v = oracle(a, b, c_in)
        if writeback:
            assert sim.state.regs[0] == result, (name, a, b, c_in)
        assert_flags(sim, n, z, c, v, (name, a, b, c_in))


LOGIC_FLAG_CASES = [
    ("ands", lambda a: a.ands(0, 1), lambda a, b: a & b),
    ("eors", lambda a: a.eors(0, 1), lambda a, b: a ^ b),
    ("orrs", lambda a: a.orrs(0, 1), lambda a, b: a | b),
    ("bics", lambda a: a.bics(0, 1), lambda a, b: a & ~b & MASK32),
    ("mvns", lambda a: a.mvns(0, 1), lambda a, b: ~b & MASK32),
    ("tst", lambda a: a.tst(0, 1), lambda a, b: a & b),
    ("muls", lambda a: a.muls(0, 1), lambda a, b: (a * b) & MASK32),
]


@pytest.mark.parametrize("name,emit,fn", LOGIC_FLAG_CASES)
def test_logic_flags_vs_oracle(name, emit, fn):
    # N and Z from the result; C and V must be preserved
    sim = single_op_sim(emit)
    writeback = name != "tst"
    for a, b, c_in in random_pairs(seed=name_seed(name)):
        v_in = (a ^ b) & 1 == 1
        exec_once(sim, r0=a, r1=b, c=c_in, v=v_in)
        result = fn(a, b)
        if writeback:
            assert sim.state.regs[0] == result, (name, a, b)
        assert_flags(sim, bool(result & 0x80000000), result == 0, c_in, v_in,
                     (name, a, b))


def movs_reg_emit(a):
    a.movs_reg(0, 1)


def test_movs_flags_preserve_carry():
    sim = single_op_sim(movs_reg_emit)
    rng = random.Random(99)
    values = [0, 1, 0x80000000, 0xFFFFFFFF] + \
        [rng.getrandbits(32) for _ in range(N_RANDOM)]
    for value in values:
        c_in = rng.random() < 0.5
        exec_once(sim, r1=value, c=c_in)
        assert sim.state.regs[0] == value
        assert_flags(sim, bool(value & 0x80000000), value == 0, c_in,
                     False, ("movs", value))


IMMEDIATE_ARITH_NAMES = [
    "adds_imm8", "subs_imm8", "cmp_imm", "adds_imm3", "subs_imm3",
]


def immediate_arith_emit(name, imm):
    """The emitter of `name`: rd = r0, and rn = r1 for the 3-bit forms."""
    if name.endswith("imm3"):
        return lambda a: getattr(a, name)(0, 1, imm)
    return lambda a: getattr(a, name)(0, imm)


@pytest.mark.parametrize("name", IMMEDIATE_ARITH_NAMES)
def test_immediate_arith_flags_vs_oracle(name):
    # one simulator per immediate value; 10^4 random register values total
    rng = random.Random(name_seed(name))
    three_bit = name.endswith("imm3")
    imm_values = range(8) if three_bit else range(256)
    per_imm = N_RANDOM // len(imm_values)
    for imm in imm_values:
        sim = single_op_sim(immediate_arith_emit(name, imm))
        for _ in range(per_imm):
            value = rng.getrandbits(32)
            exec_once(sim, r0=0 if three_bit else value, r1=value)
            src = value
            if "adds" in name:
                result, n, z, c, v = oracle_add_flags(src, imm)
            else:
                result, n, z, c, v = oracle_sub_flags(src, imm)
            if name != "cmp_imm":
                assert sim.state.regs[0] == result, (name, imm, value)
            assert_flags(sim, n, z, c, v, (name, imm, value))


REGISTER_SHIFT_CASES = [
    ("lsl", lambda a: a.lsls_reg(0, 1)),
    ("lsr", lambda a: a.lsrs_reg(0, 1)),
    ("asr", lambda a: a.asrs_reg(0, 1)),
    ("ror", lambda a: a.rors(0, 1)),
]


@pytest.mark.parametrize("kind,emit", REGISTER_SHIFT_CASES)
def test_register_shift_flags_vs_oracle(kind, emit):
    sim = single_op_sim(emit)
    rng = random.Random(name_seed(kind))
    amounts = [0, 1, 2, 31, 32, 33, 64, 255, 256]
    cases = [(rng.getrandbits(32), amt) for amt in amounts for _ in range(40)]
    cases += [(rng.getrandbits(32), rng.getrandbits(8))
              for _ in range(N_RANDOM - len(cases))]
    for value, amount in cases:
        c_in = rng.random() < 0.5
        # the shift amount comes from the low byte of rm
        exec_once(sim, r0=value, r1=amount | (rng.getrandbits(24) << 8), c=c_in)
        expect, carry = oracle_shift(kind, value, amount & 0xFF)
        assert sim.state.regs[0] == expect, (kind, value, amount)
        expect_c = c_in if carry is None else carry
        assert_flags(sim, bool(expect & 0x80000000), expect == 0, expect_c,
                     False, (kind, value, amount))


IMMEDIATE_SHIFT_CASES = [
    ("lsl", lambda a, imm: a.lsls_imm(0, 1, imm)),
    ("lsr", lambda a, imm: a.lsrs_imm(0, 1, imm)),
    ("asr", lambda a, imm: a.asrs_imm(0, 1, imm)),
]


@pytest.mark.parametrize("kind,maker", IMMEDIATE_SHIFT_CASES)
def test_immediate_shift_flags_vs_oracle(kind, maker):
    rng = random.Random(name_seed(kind))
    for imm5 in range(32):
        if kind == "lsl" and imm5 == 0:
            continue  # that encoding is MOVS
        amount = imm5 if (kind == "lsl" or imm5) else 32
        sim = single_op_sim(lambda a: maker(a, imm5))
        for _ in range(N_RANDOM // 32):
            value = rng.getrandbits(32)
            c_in = rng.random() < 0.5
            exec_once(sim, r1=value, c=c_in)
            expect, carry = oracle_shift(kind, value, amount)
            assert sim.state.regs[0] == expect, (kind, imm5, value)
            expect_c = c_in if carry is None else carry
            assert sim.state.c == expect_c, (kind, imm5, value)


def first_op(emit):
    """The op of the first instruction `emit` assembles (it may branch to w0)."""
    code = Assembler()
    emit(code)
    code.word(0, label="w0")
    image = code.image()
    hw1 = int.from_bytes(image[8:10], "little")
    hw2 = int.from_bytes(image[10:12], "little") if is_wide(hw1) else None
    return decode(hw1, hw2, CODE).op


def test_every_handler_has_an_independent_semantic_check():
    """Each op the decoder produces is run by a row or sweep in this file
    whose expectation is computed without the shared templates."""
    emitters = [movs_reg_emit]
    emitters += [emit for _name, emit, _oracle in ARITH_FLAG_CASES]
    emitters += [emit for _name, emit, _fn in LOGIC_FLAG_CASES]
    emitters += [immediate_arith_emit(name, 1) for name in IMMEDIATE_ARITH_NAMES]
    emitters += [emit for _kind, emit in REGISTER_SHIFT_CASES]
    emitters += [lambda a, make=maker: make(a, 1)
                 for _kind, maker in IMMEDIATE_SHIFT_CASES]
    emitters += [bcond_emit(cond) for cond in COND_ORACLE]
    ops = {first_op(emit) for emit in emitters}
    for emitter in SEMANTIC_ROWS:
        ops.add(semantic_case(emitter, 0)[0].step().instruction.op)
    for emitter in BLOCK_TRANSFER_ROWS:
        ops.add(block_transfer_case(emitter, 0)[0].step().instruction.op)
    for emitter in LOAD_STORE_ROWS:
        ops.add(load_store_case(emitter, 0)[0].step().instruction.op)
    assert ops == {op for op, _form in helpers.decoded_forms()}


# -- kernel cycle table (hand-traced timing) ----------------------------------

@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("ws,prefetch,key", TIMING_CONFIGS)
def test_kernel_cycles(name, ws, prefetch, key):
    expected_cycles = KERNELS[name][1]
    expected_counters = KERNELS[name][2]
    sim, summary, _ = run_kernel(name, wait_states=ws, prefetch=prefetch)
    assert summary.exit_reason == "halt"
    expect = expected_cycles[key]
    if expect is not None:
        assert summary.cycle_count == expect, (name, ws, prefetch)
    else:
        # prefetch-on WS=1 is bounded by the neighbouring exact configs
        assert expected_cycles["ws0"] <= summary.cycle_count <= expected_cycles["ws1_off"]
    assert summary.counters.as_vector() == expected_counters, name


BRANCHY_OPS = {"B", "BCOND", "BL", "BX", "BLX", "POP", "MOV_HI", "ADD_HI"}


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_step_accounting(name):
    sim, summary, steps = run_kernel(name, wait_states=1, prefetch=False,
                                     collect_steps=True)
    assert summary.cycle_count == sum(s.cycles for s in steps)
    assert all(s.cycles >= 1 for s in steps)
    assert summary.steps == len(steps)
    # branch_taken only ever set by control-transfer opcodes
    for s in steps:
        if s.branch_taken:
            assert s.instruction.op in BRANCHY_OPS
    # pc stays halfword-aligned throughout; cycle count monotone
    assert sim.state.pc % 2 == 0


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("ws,prefetch,key", TIMING_CONFIGS)
def test_kernel_step_events(name, ws, prefetch, key):
    # each step's data_events against a recount of the reference stepper's
    # accesses at the same step; summed over the run, data_events and
    # fetch_stall against the counters
    _sim, summary, steps = run_kernel(name, wait_states=ws, prefetch=prefetch,
                                      collect_steps=True)
    assert [step.data_events for step in steps] == \
        helpers.reference_data_events(steps, kernel_image(name), ws, prefetch)
    c = summary.counters
    assert tuple(map(sum, zip(*(s.data_events for s in steps)))) \
        == (c.c4, c.c5, c.c6)
    assert sum(s.fetch_stall for s in steps) == c.fetch_stall_cycles
    sim = Simulator(kernel_image(name), wait_states=ws, prefetch=prefetch)
    stepped = []
    while not sim.state.halted:
        stepped.append(sim.step())
    assert [(s.data_events, s.fetch_stall) for s in stepped] \
        == [(s.data_events, s.fetch_stall) for s in steps]


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_counters_independent_of_timing_config(name):
    vectors = set()
    for ws, prefetch, _ in TIMING_CONFIGS:
        _, summary, _ = run_kernel(name, wait_states=ws, prefetch=prefetch)
        vectors.add(summary.counters.as_vector())
    assert len(vectors) == 1


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_timing_config_ordering(name):
    cycles = {}
    for ws, prefetch, _ in TIMING_CONFIGS:
        _, summary, _ = run_kernel(name, wait_states=ws, prefetch=prefetch)
        cycles[(ws, prefetch)] = summary.cycle_count
    # WS=0 is prefetch-independent; WS=1 costs at least as much; the
    # prefetch buffer can only help
    assert cycles[(0, False)] == cycles[(0, True)]
    assert cycles[(1, False)] >= cycles[(0, False)]
    assert cycles[(1, True)] <= cycles[(1, False)]
    assert cycles[(1, True)] >= cycles[(0, False)]


def test_ws0_runs_have_zero_stalls():
    for name in KERNELS:
        for prefetch in (False, True):
            _, summary, _ = run_kernel(name, wait_states=0, prefetch=prefetch)
            assert summary.counters.fetch_stall_cycles == 0


# -- run control ----------------------------------------------------------------

def test_run_exit_halt_counts_bkpt():
    a = Assembler()
    a.movs(0, 1)
    a.bkpt()
    sim = Simulator(a.image())
    summary = sim.run()
    assert summary.exit_reason == "halt"
    # BKPT executes and is counted like any other instruction
    assert summary.counters.c1 == 2
    assert summary.steps == 2


def test_run_cycle_budget():
    a = Assembler()
    a.label("loop")
    a.b("loop")
    sim = Simulator(a.image())
    summary = sim.run(max_cycles=1000)
    assert summary.exit_reason == "cycle-budget"
    assert summary.cycle_count >= 1000


def test_run_fault_on_unmapped_jump():
    a = Assembler()
    a.ldr_lit(0, "target")
    a.bx(0)
    a.word(0xF0000001, label="target")
    sim = Simulator(a.image())
    summary = sim.run()
    assert summary.exit_reason.startswith("fault:")
    assert "0xf0000000" in summary.exit_reason


def test_run_fault_on_flash_write():
    a = Assembler()
    a.ldr_lit(0, "target")
    a.movs(1, 1)
    a.str_imm(1, 0)
    a.word(0x08000000, label="target")
    sim = Simulator(a.image())
    summary = sim.run()
    assert "write-to-flash" in summary.exit_reason


def test_run_fault_on_undefined_instruction():
    a = Assembler()
    a.udf()
    sim = Simulator(a.image())
    summary = sim.run()
    assert summary.exit_reason.startswith("fault: permanently undefined")


def test_run_deterministic():
    for name in ("loop5", "ram_rw", "call_ret"):
        runs = []
        for _ in range(2):
            sim, summary, steps = run_kernel(name, wait_states=1,
                                             prefetch=True, collect_steps=True)
            runs.append((summary.cycle_count, summary.exit_reason,
                         summary.counters.as_vector(),
                         summary.counters.histogram,
                         [(s.instruction.addr, s.cycles) for s in steps]))
        assert runs[0] == runs[1]


def test_resumable_after_budget():
    a = Assembler()
    a.movs(0, 0)
    a.label("loop")
    a.adds_imm8(0, 1)
    a.cmp_imm(0, 10)
    a.bne("loop")
    a.bkpt()
    sim = Simulator(a.image())
    first = sim.run(max_cycles=5)
    assert first.exit_reason == "cycle-budget"
    second = sim.run(max_cycles=10 ** 6)
    assert second.exit_reason == "halt"
    assert sim.state.regs[0] == 10


# -- records ------------------------------------------------------------------

def test_cpu_state_is_a_mutable_record():
    state = CpuState(z=True)
    assert state.regs == [0] * 16 and CpuState().regs is not CpuState().regs
    assert (state.n, state.z, state.c, state.v) == (False, True, False, False)
    assert (state.halted, state.cycle_count) == (False, 0)
    state.pc = 0x08000011
    assert state.regs[15] == state.pc == 0x08000010
    assert state == CpuState([0] * 15 + [0x08000010], z=True)
    assert state != CpuState(z=True) and state != state.regs
    with pytest.raises(TypeError):
        hash(state)
    assert repr(CpuState(regs=[1, 2], c=True)) == (
        "CpuState(regs=[1, 2], n=False, z=False, c=True, v=False, "
        "halted=False, cycle_count=0)")


def test_step_result_and_run_summary_are_records():
    step = StepResult(instruction=None, cycles=2, branch_taken=False,
                      halted=True)
    assert (step.fetch_stall, step.data_events) == (0, (0, 0, 0))
    assert step == StepResult(None, 2, False, True, 0, (0, 0, 0))
    assert step != StepResult(None, 2, False, True, 1)
    assert repr(step) == ("StepResult(instruction=None, cycles=2, "
                          "branch_taken=False, halted=True, fetch_stall=0, "
                          "data_events=(0, 0, 0))")
    summary = RunSummary(counters=EventCounters(c1=1), cycle_count=3,
                         exit_reason="halt")
    assert summary.steps == 0
    assert summary == RunSummary(EventCounters(c1=1), 3, "halt", 0)
    assert summary != RunSummary(EventCounters(), 3, "halt")
    assert summary != (EventCounters(c1=1), 3, "halt", 0)
    for record in (step, summary):
        with pytest.raises(TypeError):
            hash(record)
    assert repr(RunSummary(EventCounters(), 0, "halt", 1)) == (
        "RunSummary(counters=EventCounters(c1=0, c2=0, c3=0, c4=0, c5=0, "
        "c6=0, total_cycles=0, fetch_stall_cycles=0, histogram={}), "
        "cycle_count=0, exit_reason='halt', steps=1)")
