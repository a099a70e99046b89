"""Static CFG extraction, block counters, and path energy tests."""

import pytest

from helpers import (KERNELS, dynamic_block_path, kernel_image, run_kernel,
                     sum_static_counts)
from m0energy import (AnalysisError, Assembler, EnergyInterval, HardwareConfig,
                      MemorySystem, PathError, Simulator, builtin_model,
                      builtin_models, estimate, extract_cfg, path_energy)
from m0energy.cfg import block_energies, block_energy

MODEL = builtin_model(HardwareConfig(20, False, 0))


def graph_for(name_or_asm):
    if isinstance(name_or_asm, str):
        image = kernel_image(name_or_asm)
    else:
        image = name_or_asm.image()
    mem = MemorySystem(image)
    return extract_cfg(mem, mem.reset_vector()[1]), mem


def test_straight_line_is_one_block():
    graph, _ = graph_for("straight6")
    assert len(graph.blocks) == 1
    block = graph.sorted_blocks()[0]
    assert block.start == 0x08000008
    assert len(block.instructions) == 7  # six MOVS + BKPT
    assert block.successors == []
    counts = block.static_counts
    assert (counts.c1, counts.c2) == (7, 0)
    assert counts.exact


def test_loop_kernel_blocks_and_backedge():
    graph, _ = graph_for("loop5")
    # MOVS | SUBS;BNE | BKPT
    assert len(graph.blocks) == 3
    b1, b2, b3 = graph.sorted_blocks()
    assert [ins.text for ins in b1.instructions] == ["MOVS r0, #5"]
    assert b1.successors == [(b2.start, "fallthrough")]
    kinds = dict((kind, target) for target, kind in b2.successors)
    assert kinds["taken"] == b2.start          # back edge
    assert kinds["fallthrough"] == b3.start
    assert b3.instructions[0].mnemonic == "BKPT"


def test_bx_lr_gives_unknown_return_edge():
    graph, _ = graph_for("call_ret")
    func_block = graph.blocks[0x08000010]
    assert func_block.successors == [(None, "return")]
    # analysis still found the code after the call
    assert 0x0800000E in graph.blocks  # BKPT return site


def test_bl_block_has_call_and_fallthrough_edges():
    graph, _ = graph_for("call_ret")
    entry = graph.blocks[0x08000008]
    assert entry.instructions[-1].mnemonic == "BL"
    assert (0x08000010, "call") in entry.successors
    assert (0x0800000E, "fallthrough") in entry.successors


def test_every_instruction_in_exactly_one_block():
    for name in KERNELS:
        graph, _ = graph_for(name)
        seen = {}
        for block in graph.sorted_blocks():
            addr = block.start
            for ins in block.instructions:
                assert ins.addr == addr
                assert ins.addr not in seen
                seen[ins.addr] = block
                addr += ins.size
            assert addr == block.end
        starts = sorted(graph.blocks)
        for a, b in zip(starts, starts[1:]):
            assert graph.blocks[a].end <= b  # no overlap


def test_terminators_only_at_block_end():
    for name in KERNELS:
        graph, _ = graph_for(name)
        for block in graph.sorted_blocks():
            for ins in block.instructions[:-1]:
                assert not ins.is_terminator()


def test_static_instruction_count_matches_c1_plus_c2():
    for name in KERNELS:
        graph, _ = graph_for(name)
        for block in graph.sorted_blocks():
            c = block.static_counts
            assert c.c1 + c.c2 == len(block.instructions)


def test_static_counts_alu_block():
    a = Assembler()
    a.movs(0, 1)
    a.adds_imm8(0, 1)
    a.cmp_imm(0, 5)
    a.bne("end")
    a.label("end")
    a.bkpt()
    graph, _ = graph_for(a)
    body = graph.blocks[0x08000008]
    assert body.static_counts.c1 == 4
    assert body.static_counts.c2 == 0
    assert body.static_counts.c3 == 0  # c3 lives on the taken edge
    assert (body.end, "fallthrough") in body.successors or \
        any(kind == "taken" for _, kind in body.successors)


def test_static_counts_literal_load_is_flash():
    graph, _ = graph_for("flash_lit")
    block = graph.sorted_blocks()[0]
    counts = block.static_counts
    # LDR literal resolves to exactly one flash read; the register-indirect
    # load is unresolved, so c4/c6 are unknown but the known part is kept
    assert counts.unresolved_loads == 1
    assert counts.c6 is None and counts.c4 is None
    assert counts.c6_known == 1
    assert counts.c5 == 0


def test_static_counts_unknown_register_store():
    graph, _ = graph_for("ram_rw")
    block = graph.sorted_blocks()[0]
    counts = block.static_counts
    assert counts.unresolved_loads == 1   # LDR r2, [r0]
    assert counts.unresolved_stores == 1  # STR r1, [r0]
    assert counts.c5 is None
    assert counts.c6_known == 1           # the literal pool load


def test_static_counts_push_pop_are_ram_events():
    graph, _ = graph_for("pushpop")
    block = graph.sorted_blocks()[0]
    counts = block.static_counts
    assert counts.c4 == 2 and counts.c5 == 2
    assert counts.exact


def test_path_energy_single_block_equals_estimate():
    graph, _ = graph_for("straight6")
    block = graph.sorted_blocks()[0]
    value = path_energy([block], [], MODEL)
    assert isinstance(value, float)
    assert value == pytest.approx(
        estimate(block.static_counts.as_vector(), MODEL), rel=1e-12)
    assert block_energy(block, MODEL) == value


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_block_energies_equal_one_block_paths(name):
    """One read of a block's counts gives, for each model, exactly the
    energy of the one-block path: same value, same float operations."""
    graph, _ = graph_for(name)
    models = builtin_models()
    for block in graph.sorted_blocks():
        values = block_energies(block, models)
        assert values == [path_energy([block], [], m) for m in models]
        assert values == [block_energy(block, m) for m in models]


def test_path_energy_loop_matches_dynamic_oracle():
    graph, _ = graph_for("loop5")
    sim, summary, steps = run_kernel("loop5", collect_steps=True)
    blocks, edges = dynamic_block_path(graph, steps)
    # 5 loop iterations: 4 taken back edges, 1 fallthrough exit
    assert sum(edges) == 4 and len(edges) == 6
    static_total = sum_static_counts(blocks, edges)
    assert static_total == summary.counters.as_vector()
    value = path_energy(blocks, edges, MODEL)
    dynamic = estimate(summary.counters, MODEL)
    assert value == pytest.approx(dynamic, rel=1e-12)


def test_path_energy_interval_for_unknown_load():
    graph, _ = graph_for("flash_lit")
    block = graph.sorted_blocks()[0]
    value = path_energy([block], [], MODEL)
    assert isinstance(value, EnergyInterval)
    b4, b6 = MODEL.beta[3], MODEL.beta[5]
    assert value.width == pytest.approx(abs(b4 - b6), rel=1e-12)


def test_path_energy_interval_for_unknown_store():
    graph, _ = graph_for("ram_rw")
    block = graph.sorted_blocks()[0]
    value = path_energy([block], [], MODEL)
    assert isinstance(value, EnergyInterval)
    b4, b5, b6 = MODEL.beta[3], MODEL.beta[4], MODEL.beta[5]
    # one unknown load (c4 vs c6) plus one unknown store (c5 vs debug port)
    assert value.width == pytest.approx(abs(b4 - b6) + b5, rel=1e-12)


def test_path_energy_rejects_disconnected_path():
    graph, _ = graph_for("loop5")
    b1, b2, b3 = graph.sorted_blocks()
    with pytest.raises(PathError):
        path_energy([b1, b3], [False], MODEL)
    with pytest.raises(PathError):
        path_energy([b1, b2], [True], MODEL)  # entry edge is a fallthrough
    with pytest.raises(PathError):
        path_energy([b1, b2], [], MODEL)  # wrong edge count
    with pytest.raises(PathError):
        path_energy([], [], MODEL)


@pytest.mark.parametrize("name", [n for n, info in KERNELS.items() if info[3]])
def test_static_dynamic_agreement(name):
    """Summed static block counts along the executed path equal the dynamic
    counters exactly; path energy equals the dynamic estimate."""
    graph, _ = graph_for(name)
    sim, summary, steps = run_kernel(name, collect_steps=True)
    blocks, edges = dynamic_block_path(graph, steps)
    assert sum_static_counts(blocks, edges) == summary.counters.as_vector()
    for model in builtin_models():
        static_e = path_energy(blocks, edges, model)
        dynamic_e = estimate(summary.counters, model)
        assert isinstance(static_e, float)
        assert abs(static_e - dynamic_e) <= 1e-9 * max(1.0, abs(dynamic_e))


def test_entry_override_analyzes_subroutine_only():
    graph, _ = graph_for("call_ret")
    image = kernel_image("call_ret")
    mem = MemorySystem(image)
    sub = extract_cfg(mem, 0x08000010)
    assert set(sub.blocks) == {0x08000010}
    assert len(graph.blocks) > len(sub.blocks)


def test_undecodable_target_is_analysis_error():
    a = Assembler()
    a.b("data")
    a.word(0xFFFFFFFF, label="data")  # 0xffff halfwords: undefined wide prefix
    image = a.image()
    mem = MemorySystem(image)
    with pytest.raises(AnalysisError):
        extract_cfg(mem, mem.reset_vector()[1])


def test_entry_outside_memory_is_analysis_error():
    mem = MemorySystem(kernel_image("straight6"))
    with pytest.raises(AnalysisError):
        extract_cfg(mem, 0xF0000000)


def test_literal_pools_are_not_decoded():
    graph, _ = graph_for("ram_rw")
    for block in graph.sorted_blocks():
        for ins in block.instructions:
            assert ins.addr < 0x08000014  # the literal word lives at 0x14
