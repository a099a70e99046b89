"""Differential tests: the simulator's translation-cache engine against the
reference stepper in helpers.py, which fetches and decodes every step.

Covered: every hand-traced kernel and seeded random programs (loops, RAM
and Flash loads, stores, PUSH/POP, calls, varying alignment) under every
timing configuration; every cycle-budget cut, with and without resuming;
single-stepping; block transfers that fault part-way; interworking branches
that clear the Thumb bit; and code copied into RAM, run, patched and run
again.  Every run is also repeated under the other settings of its timing
class (`memory.timing_class`), which must behave identically: `run --sweep`
simulates each class once.
"""

import random

import pytest

from helpers import (INTERWORKING_BRANCHES, KERNELS, TIMING_CONFIGS,
                     ReferenceStepper, dynamic_block_path, invstate_image,
                     invstate_reason, kernel_image, machine_state)
from m0energy import (Assembler, MemorySystem, Simulator, builtin_models,
                      extract_cfg, path_energy)
from m0energy.memory import timing_class

RANDOM_SEEDS = range(24)


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
    sim, ref = both(image, ws, prefetch)
    summary = sim.run(max_cycles=max_cycles)
    assert summary.exit_reason == ref.run(max_cycles=max_cycles)
    assert machine_state(sim) == machine_state(ref)
    assert summary.steps == sum(ref.counters.histogram.values())
    assert_class_mates_match(sim, summary, image, ws, prefetch, max_cycles)
    return summary


def random_program(seed, flash_base=0x08000000):
    """A seeded loop over ALU ops, MULS, RAM and Flash loads, stores,
    PUSH/POP, forward branches and calls; it always halts.  With
    flash_base=0 it runs from the boot alias of Flash."""
    rng = random.Random(seed)
    a = Assembler(flash_base=flash_base)
    a.ldr_lit(7, "ram")
    a.movs(6, rng.randint(1, 6))
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
            if block.terminator is not None:
                break
            block = graph.blocks[block.end]
        assert [entry[1].addr for entry in translated.entries] == expected


@pytest.mark.parametrize("image", [kernel_image("pushpop_loop"),
                                   kernel_image("call_ret"),
                                   random_program(3), random_program(7)],
                         ids=["pushpop_loop", "call_ret", "random3", "random7"])
@pytest.mark.parametrize("ws,prefetch,_key", TIMING_CONFIGS)
def test_every_budget_cut_matches_reference(image, ws, prefetch, _key):
    total = Simulator(image, wait_states=ws, prefetch=prefetch).run().cycle_count
    for budget in range(min(total, 400) + 1):
        sim, ref = both(image, ws, prefetch)
        summary = sim.run(max_cycles=budget)
        assert summary.exit_reason == ref.run(budget)
        assert machine_state(sim) == machine_state(ref), budget
        assert_class_mates_match(sim, summary, image, ws, prefetch, budget)
        # resuming after the cut keeps the fetch buffer and branch state
        assert sim.run().exit_reason == ref.run() == "halt"
        assert machine_state(sim) == machine_state(ref), budget


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
