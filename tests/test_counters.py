"""Event-counter accounting tests, including trace-recount equivalence."""

import pytest

from helpers import KERNELS, kernel_image, recount_from_steps, run_kernel
from m0energy import Assembler, EventCounters, Simulator


def run_single(emit_fn, **kwargs):
    a = Assembler()
    emit_fn(a)
    a.bkpt()
    sim = Simulator(a.image(), **kwargs)
    steps = []
    sim.run(on_step=steps.append)
    return sim, steps


def test_muls_counts_into_c2_only():
    sim, steps = run_single(lambda a: (a.movs(0, 3), a.movs(1, 4), a.muls(0, 1)))
    c = sim.counters
    muls_step = steps[2]
    assert muls_step.instruction.mnemonic == "MULS"
    assert c.c2 == 1
    assert c.c1 == 3  # two MOVS + BKPT


def test_push_counts_one_write_per_word():
    sim, _ = run_single(lambda a: a.push([0, 1, 2, 3], lr=True))
    assert sim.counters.c5 == 5
    assert sim.counters.c1 == 2  # PUSH + BKPT
    assert sim.counters.c4 == 0


def test_not_taken_branch_counts_c1_not_c3():
    def emit(a):
        a.movs(0, 1)       # Z = 0
        a.beq("skip")      # not taken
        a.movs(1, 2)
        a.label("skip")
    sim, steps = run_single(emit)
    assert sim.counters.c3 == 0
    assert sim.counters.c1 == 4
    bcond = steps[1]
    assert bcond.instruction.mnemonic == "BEQ" and not bcond.branch_taken


def test_debug_port_write_counts_nowhere():
    def emit(a):
        a.ldr_lit(0, "port")
        a.movs(1, 0x41)
        a.strb_imm(1, 0)
        a.word(0x40000000, label="port")
    sim, _ = run_single(emit)
    assert sim.counters.c5 == 0
    assert sim.counters.c4 == 0
    assert bytes(sim.mem.debug_output) == b"A"


def test_snapshot_is_a_pure_copy():
    sim, _, _ = run_kernel("loop5")
    snap = sim.counters.snapshot()
    before = (snap.as_vector(), dict(snap.histogram), snap.total_cycles)
    sim.reset()
    sim.run()
    assert (snap.as_vector(), dict(snap.histogram), snap.total_cycles) == before


def test_event_counters_construct_compare_and_print_as_records():
    c = EventCounters(c2=2, histogram={"MULS": 2})
    assert c.as_vector() == (0, 2, 0, 0, 0, 0)
    assert (c.total_cycles, c.fetch_stall_cycles) == (0, 0)
    assert c == EventCounters(0, 2, 0, 0, 0, 0, 0, 0, {"MULS": 2})
    assert c != EventCounters(c2=2) and c != c.as_vector()
    assert EventCounters().histogram == {}
    assert EventCounters().histogram is not EventCounters().histogram
    with pytest.raises(TypeError):
        hash(c)  # mutable: no hash
    assert repr(c) == ("EventCounters(c1=0, c2=2, c3=0, c4=0, c5=0, c6=0, "
                       "total_cycles=0, fetch_stall_cycles=0, "
                       "histogram={'MULS': 2})")


def test_snapshot_shares_nothing_with_its_source():
    c = EventCounters(c1=1, total_cycles=4, histogram={"MOVS": 1})
    snap = c.snapshot()
    assert snap == c and snap is not c and snap.histogram is not c.histogram
    c.c1 += 1
    c.histogram["MOVS"] += 1
    c.reset()
    assert snap == EventCounters(c1=1, total_cycles=4, histogram={"MOVS": 1})


def test_reset_zeroes_everything():
    c = EventCounters(c1=5, c2=1, c3=2, c4=3, c5=4, c6=5, total_cycles=99,
                      fetch_stall_cycles=3, histogram={"MOVS": 5})
    c.reset()
    assert c.as_vector() == (0, 0, 0, 0, 0, 0)
    assert c.total_cycles == 0 and c.fetch_stall_cycles == 0
    assert c.histogram == {}


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("ws,prefetch", [(0, False), (1, False), (1, True)])
def test_counters_equal_trace_recount(name, ws, prefetch):
    sim, summary, steps = run_kernel(name, wait_states=ws, prefetch=prefetch,
                                     collect_steps=True)
    assert summary.counters.as_vector() == recount_from_steps(
        steps, kernel_image(name), ws, prefetch)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_counter_invariants(name):
    _, summary, steps = run_kernel(name, collect_steps=True)
    c = summary.counters
    assert c.c1 + c.c2 == len(steps)
    assert c.c3 <= c.c1
    assert c.c1 + c.c2 == sum(c.histogram.values())
    assert all(v >= 0 for v in c.as_vector())


def test_counters_monotone_during_run():
    sim, _, _ = run_kernel("loop5")
    sim.reset()
    previous = sim.counters.as_vector()
    while not sim.state.halted:
        sim.step()
        current = sim.counters.as_vector()
        assert all(b >= a for a, b in zip(previous, current))
        previous = current
