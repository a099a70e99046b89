"""Core execution tests: reset, semantics, flags, timing, run control.

Flag checks compare against oracles that reason over bit strings and
Python integer ranges rather than the 32-bit wrap/mask arithmetic the
implementation uses.
"""

import random

import pytest

import helpers
from helpers import (KERNELS, TIMING_CONFIGS, kernel_image,
                     oracle_add_flags, oracle_sub_flags, run_kernel)
from m0energy import (Assembler, BadEntryError, MalformedImageError,
                      M0EnergyError, Simulator)
from m0energy.decode import LOAD_OPS, STORE_OPS

MASK32 = 0xFFFFFFFF


def single_op_sim(emit, ws=0, prefetch=False, timing=None):
    """Simulator whose code is one instruction (emitted by `emit`) + BKPT."""
    a = Assembler()
    emit(a)
    a.bkpt()
    return Simulator(a.image(), wait_states=ws, prefetch=prefetch,
                     timing=timing)


def exec_once(sim, r0=0, r1=0, c=False, n=False, z=False, v=False):
    s = sim.state
    s.regs[0] = r0
    s.regs[1] = r1
    s.regs[15] = 0x08000008
    s.halted = False
    s.c, s.n, s.z, s.v = c, n, z, v
    return sim.step()


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


def test_muls_timing_override():
    sim = single_op_sim(lambda a: a.muls(0, 1), timing={"muls": 32})
    step = exec_once(sim, r0=3, r1=4)
    assert sim.state.regs[0] == 12
    assert step.cycles == 32


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
# The reference stepper shares cpu.HANDLERS, so the engine-vs-reference tests
# cannot see a wrong address, width or extension in the load/store handlers.
# These rows can: each expectation is computed here from the emitter's
# operands, the registers and the RAM bytes, never from decoded fields.

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
    assert step.data_accesses == [(addr, size, "r" if is_load else "w",
                                   region)]
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
    assert (c.c4, c.c5, c.c6) == ((int(is_load and region == "ram"),
                                   int(not is_load), int(region == "flash")))


def test_load_store_rows_cover_every_load_and_store_op():
    ops = set()
    for emitter in LOAD_STORE_ROWS:
        sim, _rt, _addr = load_store_case(emitter, 0)
        ops.add(sim.step().instruction.op)
    assert ops == LOAD_OPS | STORE_OPS


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


@pytest.mark.parametrize("name,emit,oracle", [
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
])
def test_arith_flags_vs_oracle(name, emit, oracle):
    sim = single_op_sim(emit)
    writeback = name not in ("cmp", "cmn")
    for a, b, c_in in random_pairs(seed=hash(name) & 0xFFFF):
        exec_once(sim, r0=a, r1=b, c=c_in)
        result, n, z, c, v = oracle(a, b, c_in)
        if writeback:
            assert sim.state.regs[0] == result, (name, a, b, c_in)
        assert_flags(sim, n, z, c, v, (name, a, b, c_in))


@pytest.mark.parametrize("name,emit,fn", [
    ("ands", lambda a: a.ands(0, 1), lambda a, b: a & b),
    ("eors", lambda a: a.eors(0, 1), lambda a, b: a ^ b),
    ("orrs", lambda a: a.orrs(0, 1), lambda a, b: a | b),
    ("bics", lambda a: a.bics(0, 1), lambda a, b: a & ~b & MASK32),
    ("mvns", lambda a: a.mvns(0, 1), lambda a, b: ~b & MASK32),
    ("tst", lambda a: a.tst(0, 1), lambda a, b: a & b),
    ("muls", lambda a: a.muls(0, 1), lambda a, b: (a * b) & MASK32),
])
def test_logic_flags_vs_oracle(name, emit, fn):
    # N and Z from the result; C and V must be preserved
    sim = single_op_sim(emit)
    writeback = name != "tst"
    for a, b, c_in in random_pairs(seed=hash(name) & 0xFFFF):
        v_in = (a ^ b) & 1 == 1
        exec_once(sim, r0=a, r1=b, c=c_in, v=v_in)
        result = fn(a, b)
        if writeback:
            assert sim.state.regs[0] == result, (name, a, b)
        assert_flags(sim, bool(result & 0x80000000), result == 0, c_in, v_in,
                     (name, a, b))


def test_movs_flags_preserve_carry():
    sim = single_op_sim(lambda a: a.movs_reg(0, 1))
    rng = random.Random(99)
    values = [0, 1, 0x80000000, 0xFFFFFFFF] + \
        [rng.getrandbits(32) for _ in range(N_RANDOM)]
    for value in values:
        c_in = rng.random() < 0.5
        exec_once(sim, r1=value, c=c_in)
        assert sim.state.regs[0] == value
        assert_flags(sim, bool(value & 0x80000000), value == 0, c_in,
                     False, ("movs", value))


@pytest.mark.parametrize("name", [
    "adds_imm8", "subs_imm8", "cmp_imm", "adds_imm3", "subs_imm3",
])
def test_immediate_arith_flags_vs_oracle(name):
    # one simulator per immediate value; 10^4 random register values total
    rng = random.Random(hash(name) & 0xFFFF)
    three_bit = name.endswith("imm3")
    imm_values = range(8) if three_bit else range(256)
    per_imm = N_RANDOM // len(imm_values)
    for imm in imm_values:
        if three_bit:
            emit = (lambda a: a.adds_imm3(0, 1, imm)) if "adds" in name \
                else (lambda a: a.subs_imm3(0, 1, imm))
        elif name == "adds_imm8":
            emit = lambda a: a.adds_imm8(0, imm)
        elif name == "subs_imm8":
            emit = lambda a: a.subs_imm8(0, imm)
        else:
            emit = lambda a: a.cmp_imm(0, imm)
        sim = single_op_sim(emit)
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


@pytest.mark.parametrize("kind,emit", [
    ("lsl", lambda a: a.lsls_reg(0, 1)),
    ("lsr", lambda a: a.lsrs_reg(0, 1)),
    ("asr", lambda a: a.asrs_reg(0, 1)),
    ("ror", lambda a: a.rors(0, 1)),
])
def test_register_shift_flags_vs_oracle(kind, emit):
    sim = single_op_sim(emit)
    rng = random.Random(hash(kind) & 0xFFFF)
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


@pytest.mark.parametrize("kind,maker", [
    ("lsl", lambda a, imm: a.lsls_imm(0, 1, imm)),
    ("lsr", lambda a, imm: a.lsrs_imm(0, 1, imm)),
    ("asr", lambda a, imm: a.asrs_imm(0, 1, imm)),
])
def test_immediate_shift_flags_vs_oracle(kind, maker):
    rng = random.Random(hash(kind) & 0xFFF)
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
