"""Decoder tests against a hand-verified encoding table.

Expected text forms were worked out from the ARMv6-M encoding fields by
hand (field extraction double-checked against a reference disassembly of
the same words) and frozen here.
"""

import dataclasses
import importlib
import random
import zlib

import pytest

import helpers
from m0energy import (Assembler, M0EnergyError, MemorySystem, cpu, decode,
                      UndefinedInstructionError)
from m0energy.decode import _encoding, is_wide

decode_module = importlib.import_module("m0energy.decode")

# (halfword, expected text at addr 0x08000000)
EXPECTED_16BIT = [
    (0x2001, "MOVS r0, #1"),
    (0x2105, "MOVS r1, #5"),
    (0x0008, "MOVS r0, r1"),          # LSLS #0 alias
    (0x0048, "LSLS r0, r1, #1"),
    (0x0848, "LSRS r0, r1, #1"),
    (0x0808, "LSRS r0, r1, #32"),     # imm5 == 0 means 32
    (0x1048, "ASRS r0, r1, #1"),
    (0x1008, "ASRS r0, r1, #32"),
    (0x1888, "ADDS r0, r1, r2"),
    (0x1A40, "SUBS r0, r0, r1"),
    (0x1C48, "ADDS r0, r1, #1"),
    (0x1E48, "SUBS r0, r1, #1"),
    (0x2800, "CMP r0, #0"),
    (0x30FF, "ADDS r0, #255"),
    (0x3801, "SUBS r0, #1"),
    (0x4008, "ANDS r0, r1"),
    (0x4048, "EORS r0, r1"),
    (0x4088, "LSLS r0, r1"),
    (0x40C8, "LSRS r0, r1"),
    (0x4108, "ASRS r0, r1"),
    (0x4148, "ADCS r0, r1"),
    (0x4188, "SBCS r0, r1"),
    (0x41C8, "RORS r0, r1"),
    (0x4208, "TST r0, r1"),
    (0x4248, "RSBS r0, r1"),
    (0x4288, "CMP r0, r1"),
    (0x42C8, "CMN r0, r1"),
    (0x4308, "ORRS r0, r1"),
    (0x4348, "MULS r0, r1"),
    (0x4388, "BICS r0, r1"),
    (0x43C8, "MVNS r0, r1"),
    (0x4441, "ADD r1, r8"),
    (0x4545, "CMP r5, r8"),
    (0x4680, "MOV r8, r0"),
    (0x4687, "MOV pc, r0"),
    (0x4770, "BX lr"),
    (0x4798, "BLX r3"),
    (0x4802, "LDR r0, [pc, #8]"),
    (0x5088, "STR r0, [r1, r2]"),
    (0x5288, "STRH r0, [r1, r2]"),
    (0x5488, "STRB r0, [r1, r2]"),
    (0x5688, "LDRSB r0, [r1, r2]"),
    (0x5888, "LDR r0, [r1, r2]"),
    (0x5A88, "LDRH r0, [r1, r2]"),
    (0x5C88, "LDRB r0, [r1, r2]"),
    (0x5E88, "LDRSH r0, [r1, r2]"),
    (0x6001, "STR r1, [r0, #0]"),
    (0x6048, "STR r0, [r1, #4]"),
    (0x6802, "LDR r2, [r0, #0]"),
    (0x7048, "STRB r0, [r1, #1]"),
    (0x7848, "LDRB r0, [r1, #1]"),
    (0x8048, "STRH r0, [r1, #2]"),
    (0x8848, "LDRH r0, [r1, #2]"),
    (0x9101, "STR r1, [sp, #4]"),
    (0x9901, "LDR r1, [sp, #4]"),
    (0xA002, "ADR r0, #8"),
    (0xA801, "ADD r0, sp, #4"),
    (0xB002, "ADD sp, #8"),
    (0xB082, "SUB sp, #8"),
    (0xB208, "SXTH r0, r1"),
    (0xB248, "SXTB r0, r1"),
    (0xB288, "UXTH r0, r1"),
    (0xB2C8, "UXTB r0, r1"),
    (0xB403, "PUSH {r0, r1}"),
    (0xB50F, "PUSH {r0, r1, r2, r3, lr}"),
    (0xB500, "PUSH {lr}"),
    (0xBA08, "REV r0, r1"),
    (0xBA48, "REV16 r0, r1"),
    (0xBAC8, "REVSH r0, r1"),
    (0xBC0C, "POP {r2, r3}"),
    (0xBD01, "POP {r0, pc}"),
    (0xBD00, "POP {pc}"),
    (0xBE00, "BKPT #0"),
    (0xBF00, "NOP"),
    (0xBF20, "WFE"),
    (0xC105, "STM r1!, {r0, r2}"),
    (0xC905, "LDM r1!, {r0, r2}"),    # base not in list: writeback
    (0xC902, "LDM r1, {r1}"),         # base in list: no writeback
    (0xD0FE, "BEQ 0x08000000"),
    (0xD1FE, "BNE 0x08000000"),
    (0xDCFE, "BGT 0x08000000"),
    (0xE7FE, "B 0x08000000"),
    (0xE002, "B 0x08000008"),
]

UNDEFINED_16BIT = [
    0xDE00,  # permanently undefined
    0xDF00,  # SVC: out of scope
    0xB662,  # CPS: out of scope
    0xBF01,  # IT-like hint encodings
    0xBA88,  # REV undefined variant
    0xB400,  # PUSH with empty list
    0xBC00,  # POP with empty list
    0xC000,  # STM with empty list
    0x4701,  # BX with nonzero low bits
    0xB100,  # CBZ (Thumb-2 only)
    0xB800,  # unallocated misc
]


@pytest.mark.parametrize("hw,text", EXPECTED_16BIT)
def test_decode_expected_text(hw, text):
    ins = decode(hw, None, 0x08000000)
    assert ins.text == text
    assert ins.width == 16
    assert ins.raw == hw


@pytest.mark.parametrize("hw", UNDEFINED_16BIT)
def test_undefined_encodings(hw):
    with pytest.raises(UndefinedInstructionError) as err:
        decode(hw, None, 0x08000004)
    assert err.value.addr == 0x08000004
    assert err.value.raw == hw


def test_wait_wide_detection():
    assert not is_wide(0x2001)
    assert not is_wide(0xE7FE)  # B is 16-bit
    for hw in (0xE800, 0xF000, 0xF7FF, 0xF800, 0xFFFF):
        assert is_wide(hw)


def test_bl_decode_forward():
    # BL +4 assembled as f000 f802
    ins = decode(0xF000, 0xF802, 0x08000000)
    assert ins.op == "BL" and ins.width == 32
    assert ins.fields["target"] == 0x08000008
    assert ins.text == "BL 0x08000008"


def test_bl_decode_backward():
    # BL -8 from 0x08000010: offset field = -8 - ... target 0x0800000c
    # S=1, imm32 = -8: imm10 = 0x3ff, imm11 = 0x7fc, J1=J2=1
    ins = decode(0xF7FF, 0xFFFC, 0x08000010)
    assert ins.fields["target"] == 0x0800000C


def test_bl_requires_second_halfword():
    with pytest.raises(UndefinedInstructionError):
        decode(0xF000, None, 0x08000000)


def test_non_bl_wide_encodings_undefined():
    # DSB, MSR-style and LDMIA.W-style first words are all rejected
    for hw1, hw2 in [(0xF3BF, 0x8F4F), (0xF380, 0x8808), (0xE880, 0x0003),
                     (0xF800, 0x0000)]:
        with pytest.raises(UndefinedInstructionError):
            decode(hw1, hw2, 0x08000000)


def test_misaligned_decode_rejected():
    with pytest.raises(UndefinedInstructionError):
        decode(0x2001, None, 0x08000001)


def test_sweep_all_halfwords_decode_or_reject():
    """Every 16-bit value either decodes with in-range operands or raises;
    width 32 appears only for BL."""
    decoded = 0
    for hw in range(0x10000):
        try:
            ins = decode(hw, 0xF800, 0x08000100)
        except UndefinedInstructionError:
            continue
        decoded += 1
        if ins.op == "BL":
            assert ins.width == 32
            assert is_wide(hw)
        else:
            assert ins.width == 16
        f = ins.fields
        for key in ("rd", "rn", "rm", "rt"):
            if key in f:
                assert 0 <= f[key] <= 15
        if "regs" in f:
            assert f["regs"] == sorted(set(f["regs"]))
            assert all(0 <= r <= 14 for r in f["regs"])
        if "cond" in f:
            assert 0 <= f["cond"] <= 13
        if "target" in f or "lit_addr" in f:
            v = f.get("target", f.get("lit_addr"))
            assert 0 <= v <= 0xFFFFFFFF
    # the Thumb-1 space is dense; sanity-check we decode a large share
    assert decoded > 40000


def test_decoded_ops_and_handler_rows_match():
    """Every halfword, and each 32-bit prefix with
    `helpers.SECOND_HALFWORDS`, decodes to an instruction whose form
    (`cpu._form`) has a cpu.TEMPLATES row, or raises
    UndefinedInstructionError (anything else fails the test); and every
    TEMPLATES row is some encoding's form."""
    forms = {form for _op, form in helpers.decoded_forms()}
    assert sorted(forms - set(cpu.TEMPLATES)) == []
    assert sorted(set(cpu.TEMPLATES) - forms) == []


# README's base-cycle table ("Timing model"), keyed as `timing` overrides
# are, and its condition suffixes; written here, not read from decode.
README_TIMING = {"dp": 1, "muls": 1, "load": 2, "store": 2, "block_base": 1,
                 "branch_taken": 3, "branch_not_taken": 1, "bl": 4, "bx": 3,
                 "blx": 3, "pc_branch": 3, "bkpt": 1}
CONDITIONS = "EQ NE CS CC MI PL VS VC HI LS GE LT GT LE".split()


def readme_base_cycles(ins, t):
    """(not taken, taken) of `ins` under table `t` by README's rules, from
    its mnemonic and text: a register list costs block_base plus one per
    listed register (POP's pc included), BCOND is not taken or taken, and
    MOV/ADD into pc is pc_branch."""
    mnemonic, text = ins.mnemonic, ins.text
    if mnemonic in ("PUSH", "POP", "LDM", "STM"):
        cycles = t["block_base"] + text[text.index("{"):].count(",") + 1
        return cycles, cycles
    if mnemonic[0] == "B" and mnemonic[1:] in CONDITIONS:
        return t["branch_not_taken"], t["branch_taken"]
    if mnemonic in ("MOV", "ADD") and text.split()[1] == "pc,":
        key = "pc_branch"
    elif mnemonic.startswith(("LDR", "STR")):
        key = "load" if mnemonic[0] == "L" else "store"
    else:
        key = {"B": "branch_taken", "BL": "bl", "BX": "bx", "BLX": "blx",
               "MULS": "muls", "BKPT": "bkpt"}.get(mnemonic, "dp")
    return t[key], t[key]


def test_base_cycles_follow_the_readme_table():
    """Every halfword, and each 32-bit prefix with
    `helpers.SECOND_HALFWORDS`, that decodes: `decode.base_cycles` gives
    README's cycles by default, and under an override of one key changes
    exactly the instructions README's rules charge that key to."""
    assert set(README_TIMING) == set(decode_module.DEFAULT_TIMING)
    bumped = {key: dict(README_TIMING, **{key: README_TIMING[key] + 10})
              for key in README_TIMING}
    changed = dict.fromkeys(README_TIMING, 0)
    for hw in range(0x10000):
        for hw2 in helpers.SECOND_HALFWORDS if is_wide(hw) else (None,):
            try:
                ins = decode(hw, hw2, 0x08000100)
            except UndefinedInstructionError:
                continue
            expected = readme_base_cycles(ins, README_TIMING)
            assert decode_module.base_cycles(ins) == expected, ins.text
            for key, timing in bumped.items():
                cycles = decode_module.base_cycles(ins, timing)
                assert cycles == readme_base_cycles(ins, timing), (key,
                                                                   ins.text)
                changed[key] += cycles != expected
    assert all(changed.values()), changed


def test_decode_deterministic():
    a = decode(0x2001, None, 0x08000000)
    b = decode(0x2001, None, 0x08000000)
    assert a == b


def _outcome(decoder, hw1, hw2, addr):
    try:
        return decoder(hw1, hw2, addr)
    except UndefinedInstructionError as exc:
        return (type(exc), str(exc))


def test_memo_matches_memo_free_decoder(monkeypatch):
    """Every halfword, and each 32-bit prefix with a seeded sample of second
    halfwords, at two addresses: from a cleared memo (misses, then hits at
    the second address) and from a warm one, each result equals the
    memo-free decoder's, with a fields dict of its own."""
    monkeypatch.setattr(decode_module, "_MEMO", {})
    rng = random.Random(zlib.crc32(b"decode memo"))
    cases = []
    for hw in range(0x10000):
        if is_wide(hw):
            cases.extend((hw, rng.randrange(0x10000)) for _ in range(3))
        else:
            cases.append((hw, None))
    last_fields = {}
    for _ in ("cold", "warm"):
        for addr in (0x08000100, 0x2000_1FFE):
            for case in cases:
                got = _outcome(decode, *case, addr)
                want = _outcome(helpers.memo_free_decode, *case, addr)
                assert got == want
                if isinstance(got, tuple):
                    continue
                assert got.text == want.text and repr(got) == repr(want)
                assert got.fields is not last_fields.get(case)
                last_fields[case] = got.fields
                got.fields["clobbered"] = True  # must not reach the memo
    assert len(decode_module._MEMO) > 30000


# Every pc-relative narrow encoding: B, B<cond>, literal LDR and ADR.
PC_RELATIVE = {"B": range(0xE000, 0xE800), "BCOND": range(0xD000, 0xDE00),
               "LDR_LIT": range(0x4800, 0x5000), "ADR": range(0xA000, 0xA800)}
# word-aligned, halfword-aligned, and where targets wrap and literal
# addresses pass 32 bits
PC_RELATIVE_ADDRS = (0x08000100, 0x08000102, 0xFFFFFFFC, 0xFFFFFFFE)


@pytest.mark.parametrize("first", PC_RELATIVE_ADDRS,
                         ids=["0x%08x" % a for a in PC_RELATIVE_ADDRS])
def test_pc_relative_memo_matches_memo_free_decoder(monkeypatch, first):
    """From a cold memo, each pc-relative encoding misses at `first`, then
    hits at every address (`first` again included); each result equals the
    memo-free decoder's in value, text and repr, with a fields dict of its
    own."""
    monkeypatch.setattr(decode_module, "_MEMO", {})
    last_fields, wrapped, past_32_bits = {}, set(), set()
    for addr in (first,) + PC_RELATIVE_ADDRS:
        for op, halfwords in PC_RELATIVE.items():
            for hw in halfwords:
                got = decode(hw, None, addr)
                want = helpers.memo_free_decode(hw, None, addr)
                assert got.op == op and got == want, hex(hw)
                assert got.text == want.text and repr(got) == repr(want)
                assert got.fields is not last_fields.get(hw)
                last_fields[hw] = got.fields
                got.fields["clobbered"] = True  # must not reach the memo
                if got.fields.get("target", addr) < addr - 0x1000:
                    wrapped.add(op)  # a forward branch past 0xFFFFFFFF
                if got.fields.get("lit_addr", 0) > 0xFFFFFFFF:
                    past_32_bits.add(op)
    assert len(decode_module._MEMO) == sum(map(len, PC_RELATIVE.values()))
    assert wrapped >= {"B", "BCOND"} and past_32_bits == {"LDR_LIT", "ADR"}


def test_memo_hit_is_frozen_and_checks_alignment():
    first = decode(0xB510, None, 0x08000000)   # PUSH {r4, lr}
    hit = decode(0xB510, None, 0x08000010)
    assert hit.addr == 0x08000010 and hit == dataclasses.replace(first, addr=0x08000010)
    for ins in (first, hit):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ins.addr = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            ins.fields = {}
    with pytest.raises(UndefinedInstructionError, match="misaligned decode"):
        decode(0xB510, None, 0x08000011)


# -- decode(assemble(x)) round trip for every Assembler emitter ---------------
# Each row draws seeded random operands for one emitter and states, from
# those operands alone, the op, the text, the complete operand dict and the
# control-flow edges the decoder must give back.

FLASH = 0x08000000
LOW_DP = {  # emitter -> (op, mnemonic); all take (rdn, rm)
    "ands": ("ANDS", "ANDS"), "eors": ("EORS", "EORS"),
    "lsls_reg": ("LSLS_REG", "LSLS"), "lsrs_reg": ("LSRS_REG", "LSRS"),
    "asrs_reg": ("ASRS_REG", "ASRS"), "adcs": ("ADCS", "ADCS"),
    "sbcs": ("SBCS", "SBCS"), "rors": ("RORS", "RORS"), "tst": ("TST", "TST"),
    "rsbs": ("RSBS", "RSBS"), "cmp_reg": ("CMP_REG", "CMP"),
    "cmn": ("CMN", "CMN"), "orrs": ("ORRS", "ORRS"), "muls": ("MULS", "MULS"),
    "bics": ("BICS", "BICS"), "mvns": ("MVNS", "MVNS"),
}
EXTENDS = ["sxth", "sxtb", "uxth", "uxtb", "rev", "rev16", "revsh"]
IMM_MEM = {  # emitter -> (op, mnemonic, size); all take (rt, rn, off)
    "ldr_imm": ("LDR_IMM", "LDR", 4), "ldrb_imm": ("LDRB_IMM", "LDRB", 1),
    "ldrh_imm": ("LDRH_IMM", "LDRH", 2), "str_imm": ("STR_IMM", "STR", 4),
    "strb_imm": ("STRB_IMM", "STRB", 1), "strh_imm": ("STRH_IMM", "STRH", 2),
}
REG_MEM = {  # emitter -> (op, mnemonic, size, signed); all take (rt, rn, rm)
    "ldr_reg": ("LDR_REG", "LDR", 4, False),
    "ldrb_reg": ("LDRB_REG", "LDRB", 1, False),
    "ldrh_reg": ("LDRH_REG", "LDRH", 2, False),
    "ldrsb_reg": ("LDRSB_REG", "LDRSB", 1, True),
    "ldrsh_reg": ("LDRSH_REG", "LDRSH", 2, True),
    "str_reg": ("STR_REG", "STR", 4, False),
    "strb_reg": ("STRB_REG", "STRB", 1, False),
    "strh_reg": ("STRH_REG", "STRH", 2, False),
}
CONDS = ["eq", "ne", "cs", "cc", "mi", "pl", "vs", "vc", "hi", "ls", "ge",
         "lt", "gt", "le"]


def rname(r):
    return {13: "sp", 14: "lr", 15: "pc"}.get(r, "r%d" % r)


def rlist(regs):
    return "{%s}" % ", ".join(rname(r) for r in regs)


def round_trip_case(emitter, rng, addr):
    """(args, op, text, fields, edges) for one random use of `emitter` at
    `addr`; edges is None for an instruction that falls through."""
    def lo():
        return rng.randint(0, 7)

    def hi():
        return rng.randint(0, 15)

    imm8 = rng.randint(0, 255)
    if emitter in LOW_DP:
        op, mn = LOW_DP[emitter]
        rd, rm = lo(), lo()
        return (rd, rm), op, "%s %s, %s" % (mn, rname(rd), rname(rm)), \
            {"rd": rd, "rm": rm}, None
    if emitter in EXTENDS:
        rd, rm = lo(), lo()
        op = emitter.upper()
        return (rd, rm), op, "%s %s, %s" % (op, rname(rd), rname(rm)), \
            {"rd": rd, "rm": rm}, None
    if emitter in IMM_MEM:
        op, mn, size = IMM_MEM[emitter]
        rt, rn, off = lo(), lo(), size * rng.randint(0, 31)
        return (rt, rn, off), op, "%s %s, [%s, #%d]" % (
            mn, rname(rt), rname(rn), off), \
            {"rt": rt, "rn": rn, "imm": off, "size": size}, None
    if emitter in REG_MEM:
        op, mn, size, signed = REG_MEM[emitter]
        rt, rn, rm = lo(), lo(), lo()
        fields = {"rt": rt, "rn": rn, "rm": rm, "size": size}
        if signed:
            fields["signed"] = True
        return (rt, rn, rm), op, "%s %s, [%s, %s]" % (
            mn, rname(rt), rname(rn), rname(rm)), fields, None
    if emitter in ("movs", "adds_imm8", "subs_imm8", "cmp_imm"):
        op, mn = {"movs": ("MOVS_IMM", "MOVS"), "adds_imm8": ("ADDS_IMM8", "ADDS"),
                  "subs_imm8": ("SUBS_IMM8", "SUBS"),
                  "cmp_imm": ("CMP_IMM", "CMP")}[emitter]
        rd = lo()
        return (rd, imm8), op, "%s %s, #%d" % (mn, rname(rd), imm8), \
            {"rd": rd, "imm": imm8}, None
    if emitter == "movs_reg":
        rd, rm = lo(), lo()
        return (rd, rm), "MOVS_REG", "MOVS %s, %s" % (rname(rd), rname(rm)), \
            {"rd": rd, "rm": rm}, None
    if emitter in ("mov_hi", "add_hi", "cmp_hi"):
        rd, rm = hi(), hi()
        mn = emitter[:3].upper()
        edges = None
        if rd == 15 and emitter != "cmp_hi":
            edges = [(None, "taken")]
        return (rd, rm), mn + "_HI", "%s %s, %s" % (mn, rname(rd), rname(rm)), \
            {"rd": rd, "rm": rm}, edges
    if emitter in ("adds_reg", "subs_reg"):
        rd, rn, rm = lo(), lo(), lo()
        mn = emitter[:4].upper()
        return (rd, rn, rm), mn + "_REG", "%s %s, %s, %s" % (
            mn, rname(rd), rname(rn), rname(rm)), \
            {"rd": rd, "rn": rn, "rm": rm}, None
    if emitter in ("adds_imm3", "subs_imm3"):
        rd, rn, imm = lo(), lo(), rng.randint(0, 7)
        mn = emitter[:4].upper()
        return (rd, rn, imm), mn + "_IMM3", "%s %s, %s, #%d" % (
            mn, rname(rd), rname(rn), imm), {"rd": rd, "rn": rn, "imm": imm}, None
    if emitter in ("lsls_imm", "lsrs_imm", "asrs_imm"):
        rd, rm = lo(), lo()
        imm = rng.randint(1, 31 if emitter == "lsls_imm" else 32)
        mn = emitter[:4].upper()
        return (rd, rm, imm), mn + "_IMM", "%s %s, %s, #%d" % (
            mn, rname(rd), rname(rm), imm), {"rd": rd, "rm": rm, "imm": imm}, None
    if emitter == "nop":
        return (), "HINT", "NOP", {}, None
    if emitter in ("ldr_lit", "adr"):
        r, imm = lo(), 4 * imm8
        lit = ((addr + 4) & ~3) + imm
        if emitter == "ldr_lit":
            return (r, lit), "LDR_LIT", "LDR %s, [pc, #%d]" % (rname(r), imm), \
                {"rt": r, "imm": imm, "lit_addr": lit}, None
        return (r, lit), "ADR", "ADR %s, #%d" % (rname(r), imm), \
            {"rd": r, "imm": imm, "lit_addr": lit}, None
    if emitter in ("ldr_sp", "str_sp"):
        rt, off = lo(), 4 * imm8
        mn = emitter[:3].upper()
        return (rt, off), mn + "_SP", "%s %s, [sp, #%d]" % (mn, rname(rt), off), \
            {"rt": rt, "rn": 13, "imm": off, "size": 4}, None
    if emitter in ("add_sp", "sub_sp"):
        imm = 4 * rng.randint(0, 127)
        mn = emitter[:3].upper()
        return (imm,), mn + "_SP_IMM7", "%s sp, #%d" % (mn, imm), {"imm": imm}, None
    if emitter == "add_sp_imm8":
        rd, imm = lo(), 4 * imm8
        return (rd, imm), "ADD_SP_IMM8", "ADD %s, sp, #%d" % (rname(rd), imm), \
            {"rd": rd, "imm": imm}, None
    if emitter in ("push", "pop"):
        regs = sorted(rng.sample(range(8), rng.randint(0, 8)))
        extra = not regs or rng.random() < 0.5   # lr for PUSH, pc for POP
        if emitter == "push":
            shown = regs + ([14] if extra else [])
            return (regs, extra), "PUSH", "PUSH " + rlist(shown), \
                {"regs": shown}, None
        return (regs, extra), "POP", "POP " + rlist(regs + ([15] if extra else [])), \
            {"regs": regs, "pc": extra}, [(None, "return")] if extra else None
    if emitter in ("stm", "ldm"):
        rn, regs = lo(), sorted(rng.sample(range(8), rng.randint(1, 8)))
        if emitter == "stm":
            return (rn, regs), "STM", "STM %s!, %s" % (rname(rn), rlist(regs)), \
                {"rn": rn, "regs": regs}, None
        wback = rn not in regs
        return (rn, regs), "LDM", "LDM %s%s, %s" % (
            rname(rn), "!" if wback else "", rlist(regs)), \
            {"rn": rn, "regs": regs, "wback": wback}, None
    if emitter in ("b", "beq", "bne"):
        cond = {"beq": "eq", "bne": "ne"}.get(emitter)
        if emitter == "b" and rng.random() < 0.5:
            cond = rng.choice(CONDS)
        reach = 2048 if cond is None else 256
        target = addr + 4 + 2 * rng.randint(-reach // 2, reach // 2 - 1)
        args = (target,) if emitter != "b" else (target, cond)
        if cond is None:
            return args, "B", "B 0x%08x" % target, {"target": target}, \
                [(target, "taken")]
        mn = "B" + cond.upper()
        return args, "BCOND", "%s 0x%08x" % (mn, target), \
            {"cond": CONDS.index(cond), "target": target}, \
            [(target, "taken"), (addr + 2, "fallthrough")]
    if emitter == "bl":
        target = addr + 4 + 2 * rng.randint(-(1 << 23), (1 << 23) - 1)
        return (target,), "BL", "BL 0x%08x" % target, {"target": target}, \
            [(target, "call"), (addr + 4, "fallthrough")]
    if emitter == "bx":
        rm = hi()
        return (rm,), "BX", "BX " + rname(rm), {"rm": rm}, \
            [(None, "return" if rm == 14 else "taken")]
    if emitter == "blx":
        rm = hi()
        return (rm,), "BLX", "BLX " + rname(rm), {"rm": rm}, \
            [(None, "call"), (addr + 2, "fallthrough")]
    if emitter == "bkpt":
        return (imm8,), "BKPT", "BKPT #%d" % imm8, {"imm": imm8}, []
    raise AssertionError("no round-trip row for %s" % emitter)


# every public emitter; one without a row fails in round_trip_case
EMITTERS = sorted(name for name in dir(Assembler) if not name.startswith("_")
                  and name not in ("label", "raw", "word", "image", "udf"))


def assemble_one(emitter, args, padding):
    """Image with `padding` NOPs, then the instruction; returns the
    instruction's address, the decode of it and its Encoding."""
    a = Assembler()
    for _ in range(padding):
        a.nop()
    getattr(a, emitter)(*args)
    image = a.image()
    addr = FLASH + 8 + 2 * padding
    off = addr - FLASH
    hw1 = int.from_bytes(image[off:off + 2], "little")
    hw2 = int.from_bytes(image[off + 2:off + 4], "little") if is_wide(hw1) else None
    return addr, decode(hw1, hw2, addr), _encoding(hw1, hw2, addr)


@pytest.mark.parametrize("emitter", EMITTERS)
def test_decode_of_assembled_emitter_round_trips(emitter):
    for seed in range(40):
        rng = random.Random("%s-%d" % (emitter, seed))
        padding = seed % 2   # half the cases start off a word boundary
        addr = FLASH + 8 + 2 * padding
        args, op, text, fields, edges = round_trip_case(emitter, rng, addr)
        ins_addr, ins, enc = assemble_one(emitter, args, padding)
        assert ins_addr == addr
        assert (ins.op, ins.text, ins.fields) == (op, text, fields), args
        assert (enc.flow is not None) == (edges is not None), args
        assert enc.flow is None or enc.edges(addr) == edges, args


def test_udf_emitter_decodes_as_undefined():
    with pytest.raises(UndefinedInstructionError):
        assemble_one("udf", (), 0)


def test_block_end_ops_hold_every_op_that_ends_a_block():
    ends = set()
    for hw in range(0x10000):
        for hw2 in helpers.SECOND_HALFWORDS if is_wide(hw) else (None,):
            try:
                enc = _encoding(hw, hw2, 0x08000100)
            except UndefinedInstructionError:
                continue
            if enc.flow is not None:
                ends.add(enc.op)
    assert ends == set("B BCOND BL BLX BX POP MOV_HI ADD_HI BKPT".split())


def reference_decode_at(mem, addr):
    """The instruction at addr through read_code only, or the fault's
    type and message."""
    try:
        hw1 = mem.read_code(addr)
        hw2 = mem.read_code(addr + 2) if is_wide(hw1) else None
        return decode(hw1, hw2, addr)
    except M0EnergyError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("views", [True, False], ids=["views", "no-views"])
@pytest.mark.parametrize("seed", range(4))
def test_decode_at_matches_read_code_everywhere(monkeypatch, views, seed):
    """Every halfword address of a small Flash, its alias and RAM, with
    their ends, odd addresses and unmapped ones, on images dense in BL
    prefixes; also where halfword views are off (a big-endian host)."""
    monkeypatch.setattr(importlib.import_module("m0energy.memory"),
                        "RAM_VIEWS", views)
    rng = random.Random(seed)
    halves = [rng.choice([rng.randrange(0x10000), 0xF000 | rng.randrange(0x800),
                          0xF800 | rng.randrange(0x800)]) for _ in range(30)]
    image = b"".join(h.to_bytes(2, "little") for h in halves)
    mem = MemorySystem(image[:56 + 4 * seed], flash_size=56 + 4 * seed + 8,
                       ram_size=16)
    mem.ram[:] = image[:16]
    assert (mem.flash_halves is not None) == views
    addrs = [base + off for base in (0, 0x08000000, 0x20000000)
             for off in range(-4, len(mem.flash) + 5)]
    for addr in addrs + [0x40000000, 0xFFFFFFFE]:
        try:
            got = decode_module.decode_at(mem, addr)
        except M0EnergyError as exc:
            got = type(exc), str(exc)
        assert got == reference_decode_at(mem, addr), hex(addr)
