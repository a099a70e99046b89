"""Static CFG extraction, block counters, and path energy tests."""

import contextlib
import importlib
import io

import pytest

import m0energy.cfg
import m0energy.cli
import m0energy.energy
from helpers import (KERNELS, PUBLISHED_TABLE, analyze_like_image, dot_oracle,
                     dynamic_block_path, kernel_image, reference_cfg,
                     run_kernel, sum_static_counts)
from m0energy import (CFG, AnalysisError, Assembler, BasicBlock,
                      EnergyInterval, HardwareConfig, MemorySystem, PathError,
                      Simulator, StaticCounts, builtin_model, builtin_models,
                      estimate, extract_cfg, path_energy)
from m0energy.cfg import block_energies

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
            for enc in block.encodings[:-1]:
                assert enc.flow is None


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


def test_static_counts_literal_load_from_ram_is_ram_read():
    """A file image holds no code in RAM, but a caller's CFG walk from RAM
    counts a literal load there as a RAM read."""
    _graph, mem = graph_for("straight6")
    mem.ram[:4] = (0xBE004800).to_bytes(4, "little")  # LDR r0, [pc, #0]; BKPT
    block = extract_cfg(mem, 0x20000000).blocks[0x20000000]
    assert block.instructions[0].fields["lit_addr"] == 0x20000004
    counts = block.static_counts
    assert (counts.c1, counts.c4_known, counts.c6_known) == (2, 1, 0)


def test_path_energy_single_block_equals_estimate():
    graph, _ = graph_for("straight6")
    block = graph.sorted_blocks()[0]
    value = path_energy([block], [], MODEL)
    assert isinstance(value, float)
    assert value == pytest.approx(
        estimate(block.static_counts.as_vector(), MODEL), rel=1e-12)
    assert block_energies(block, [MODEL]) == [value]


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_block_energies_equal_one_block_paths(name):
    """One read of a block's counts gives, for each model, exactly the
    energy of the one-block path: same value, same float operations."""
    graph, _ = graph_for(name)
    models = builtin_models()
    for block in graph.sorted_blocks():
        values = block_energies(block, models)
        assert values == [path_energy([block], [], m) for m in models]
        assert values == [block_energies(block, [m])[0] for m in models]


def test_flash_literal_block_energy_matches_published_models():
    """The one exact block of `lit_alu` has Flash data reads (c6), a MULS
    (c2) and ALU ops: its energy under each of the ten published models is
    the hand count of its events times the printed coefficients."""
    graph, _ = graph_for("lit_alu")
    (block,) = graph.sorted_blocks()
    counts = KERNELS["lit_alu"][2]
    assert block.static_counts.as_vector() == counts
    for freq, prefetch, ws, beta, _mape, _resd in PUBLISHED_TABLE:
        model = builtin_model(HardwareConfig(freq, prefetch, ws))
        assert block_energies(block, [model])[0] == pytest.approx(
            dot_oracle([float(b) for b in beta], counts), rel=1e-12)


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
    assert EnergyInterval is m0energy.cfg.EnergyInterval \
        is m0energy.energy.EnergyInterval  # one class, defined in energy
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
    counters exactly; path energy equals the dynamic estimate, bit for bit,
    as both apply the model once to the same counts."""
    graph, _ = graph_for(name)
    sim, summary, steps = run_kernel(name, collect_steps=True)
    blocks, edges = dynamic_block_path(graph, steps)
    assert sum_static_counts(blocks, edges) == summary.counters.as_vector()
    for model in builtin_models():
        static_e = path_energy(blocks, edges, model)
        dynamic_e = estimate(summary.counters, model)
        assert isinstance(static_e, float)
        assert abs(static_e - dynamic_e) <= 1e-9 * max(1.0, abs(dynamic_e))
        assert static_e == dynamic_e


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


def test_branch_into_a_bl_second_halfword_is_overlapping_decode():
    """A BL 12 MiB ahead has J1 = J2 = 0, so its second halfword is 0xD000,
    a BEQ whose target, 0x08000010, holds a BKPT.  A BEQ into that halfword
    makes the walk decode both, which overlap."""
    a = Assembler()
    a.beq(0x0800000C)           # into the second halfword of the BL
    a.bl(0x08C0000E)            # at 0x0800000A: 0xC00000 past pc
    a.bkpt()
    a.bkpt()
    mem = MemorySystem(a.image(), flash_size=16 << 20)
    mem.flash[0xC0000E:0xC00010] = (0xBE00).to_bytes(2, "little")  # BKPT
    assert mem.read_code(0x0800000C) == 0xD000
    with pytest.raises(AnalysisError) as err:
        extract_cfg(mem, mem.reset_vector()[1])
    assert err.value.addr == 0x0800000C
    assert str(err.value) == "overlapping instruction decode at 0x0800000c"


# -- extract_cfg against a walk that decodes every address afresh ------------

def assert_cfg_matches_reference(mem, entry):
    """Every block's range, successors, counts, texts and bound
    instructions equal those of `helpers.reference_cfg`."""
    want = reference_cfg(mem, entry)
    graph = extract_cfg(mem, entry)
    assert sorted(graph.blocks) == sorted(want)
    for start, (end, instructions, successors, counts) in want.items():
        block = graph.blocks[start]
        assert (block.start, block.end, block.successors) == (
            start, end, successors), hex(start)
        assert block.static_counts._asdict() == counts, hex(start)
        assert block.texts() == [ins.text for ins in instructions]
        assert block.instructions == instructions
        assert list(map(repr, block.instructions)) == list(map(repr,
                                                               instructions))


def differential_image(kind, seed):
    from test_cli import golden_image, pc_relative_image
    from test_engine import random_program
    return {"kernel": kernel_image, "golden": golden_image,
            "random": random_program, "analyze": analyze_like_image,
            "alias": lambda seed: random_program(seed, flash_base=0),
            "pc_relative": lambda seed: pc_relative_image()}[kind](seed)


DIFFERENTIAL_IMAGES = ([("kernel", name) for name in sorted(KERNELS)]
                       + [("golden", seed) for seed in range(1, 21)]
                       + [("random", seed) for seed in range(24)]
                       + [("alias", seed) for seed in range(4)]
                       + [("pc_relative", 0)]
                       + [("analyze", seed) for seed in (31, 32)])


@pytest.mark.parametrize("kind,seed", DIFFERENTIAL_IMAGES,
                         ids=["%s-%s" % case for case in DIFFERENTIAL_IMAGES])
def test_cfg_matches_a_walk_that_decodes_every_address(kind, seed):
    mem = MemorySystem(differential_image(kind, seed))
    assert_cfg_matches_reference(mem, mem.reset_vector()[1])


def test_literal_loads_count_the_region_they_read():
    """Code in RAM loads literals from RAM (c4) and from past RAM's end
    (c6), and Flash code at Flash's end loads one from past it (c6)."""
    a = Assembler(flash_base=0x20000000)
    a.ldr_lit(0, "word")
    a.adds_reg(0, 0, 0)
    a.ldr_lit(1, "word")
    a.raw(0x4AFF)  # LDR r2, [pc, #1020]: past a 64-byte RAM
    a.bkpt()
    a.word(7, "word")
    code = a.image()[8:]
    mem = MemorySystem(kernel_image("straight6"), ram_size=64)
    mem.ram[:len(code)] = code
    assert_cfg_matches_reference(mem, 0x20000000)
    counts = extract_cfg(mem, 0x20000000).blocks[0x20000000].static_counts
    assert (counts.c4_known, counts.c6_known) == (2, 1)

    a = Assembler()
    a.movs(0, 1)
    a.movs(1, 2)
    a.raw(0x4BFF)  # LDR r3, [pc, #1020]: past the end of Flash
    a.bkpt()
    image = a.image()
    mem = MemorySystem(image, flash_size=len(image))
    assert_cfg_matches_reference(mem, mem.reset_vector()[1])
    assert extract_cfg(mem, 0x08000008).blocks[0x08000008].static_counts == (
        4, 0, 0, 0, 1, 0, 0)


def test_json_analyze_binds_no_instruction(tmp_path, monkeypatch):
    """A JSON report is written from the blocks' shared Encodings: no
    Instruction is bound.  A block binds its instructions once."""
    bound = []
    encoding = importlib.import_module("m0energy.decode").Encoding
    at = encoding.at
    monkeypatch.setattr(encoding, "at", lambda enc, addr: (
        bound.append(addr) or at(enc, addr)))
    path = tmp_path / "analyze.bin"
    path.write_bytes(analyze_like_image(31))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert m0energy.cli.main(["analyze", str(path)]) == 0
    assert bound == [] and '"instructions"' in out.getvalue()
    mem = MemorySystem(path.read_bytes())
    block = extract_cfg(mem, mem.reset_vector()[1]).sorted_blocks()[0]
    assert bound == []
    first = block.instructions
    assert block.instructions is first and len(bound) == len(first) > 1


def test_walk_reads_flash_through_its_halfword_view(monkeypatch):
    """Once the memo holds an image's encodings, BLs included, the walk
    reads no Flash halfword through read_code."""
    mem = MemorySystem(analyze_like_image(31))
    entry = mem.reset_vector()[1]
    extract_cfg(mem, entry)
    fetched = []
    read_code = MemorySystem.read_code
    monkeypatch.setattr(MemorySystem, "read_code", lambda self, addr: (
        fetched.append(addr) or read_code(self, addr)))
    graph = extract_cfg(mem, entry)
    assert fetched == []
    assert any(b.encodings[-1].op == "BL" for b in graph.blocks.values())


def test_walk_without_halfword_views_matches_the_reference(monkeypatch):
    """Where Flash has no halfword view (a big-endian host), the walk reads
    every address through read_code, to the same CFG."""
    monkeypatch.setattr(importlib.import_module("m0energy.memory"),
                        "RAM_VIEWS", False)
    mem = MemorySystem(analyze_like_image(31))
    assert mem.flash_halves is None
    assert_cfg_matches_reference(mem, mem.reset_vector()[1])


def test_blocks_and_graphs_are_mutable_records():
    graph, mem = graph_for("loop5")
    again = extract_cfg(mem, mem.reset_vector()[1])
    assert again == graph and again is not graph
    block = graph.sorted_blocks()[0]
    assert block.instructions is block.instructions  # bound once, kept
    assert again.blocks[block.start] == block  # bound or not, by fields
    bare = BasicBlock(start=8, end=10, encodings=[],
                      static_counts=StaticCounts(c1=1))
    assert bare.successors == [] and bare.successors is not BasicBlock(
        8, 10, [], StaticCounts(c1=1)).successors
    assert bare == BasicBlock(8, 10, [], StaticCounts(c1=1), [])
    assert bare != BasicBlock(8, 10, [], StaticCounts(c1=1), [(8, "taken")])
    assert CFG(entry=8, blocks={8: bare}) == CFG(8, {8: bare})
    assert CFG(8, {8: bare}) != CFG(8, {}) and CFG(8, {}) != (8, {})
    for record in (bare, graph):
        with pytest.raises(TypeError):
            hash(record)
    assert repr(CFG(8, {8: bare})) == (
        "CFG(entry=8, blocks={8: BasicBlock(start=8, end=10, encodings=[], "
        "static_counts=StaticCounts(c1=1, c2=0, c4_known=0, c5_known=0, "
        "c6_known=0, unresolved_loads=0, unresolved_stores=0), "
        "successors=[])})")
