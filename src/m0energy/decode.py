"""ARMv6-M Thumb decoder.

Covers the 16-bit Thumb-1 set plus the 32-bit BL encoding, i.e. the subset a
bare-metal Cortex-M0 compute kernel uses.  SVC, CPS, barriers, MRS/MSR and
every other 32-bit encoding raise UndefinedInstructionError.

Each encoding is decoded once (`_MEMO` keeps one per 16-bit halfword and
one per BL) into an `Encoding` that every address holding it shares: an
`op` id for execution dispatch, a display mnemonic, an operand dict and a
text, with no value that derives from the address.  `run_at` walks them
for the simulator's translation and the static CFG, which read a target or
literal address only where they use one; `decode`, `decode_at` and
`Encoding.at` bind one to an address, as an Instruction (a frozen record)
with its target or literal address and its own `fields` dict.

`_flow`, which each Encoding holds as `flow` and `Encoding.edges` binds to
an address, is the one rule for which instructions end a basic block and
where control goes next, and `tally` for c1, c2 and the histogram; the
simulator and the static CFG both use them.  `base_cycles` is the one rule
for an instruction's cycles before memory stalls, from `DEFAULT_TIMING`,
the one read-only table the simulator reads, each entry at least a cycle.
"""

from collections import namedtuple
from types import MappingProxyType

from .errors import UndefinedInstructionError
from .memory import FLASH_BASE
from .record import Record

COND_NAMES = ["EQ", "NE", "CS", "CC", "MI", "PL", "VS", "VC",
              "HI", "LS", "GE", "LT", "GT", "LE"]

# Data-processing ops, encoding 0b010000 oooo, in table order.
DP_OPS = ["ANDS", "EORS", "LSLS_REG", "LSRS_REG", "ASRS_REG", "ADCS", "SBCS",
          "RORS", "TST", "RSBS", "CMP_REG", "CMN", "ORRS", "MULS", "BICS",
          "MVNS"]
DP_MNEMONICS = [op.partition("_")[0] for op in DP_OPS]

HINT_NAMES = {0x0: "NOP", 0x1: "YIELD", 0x2: "WFE", 0x3: "WFI", 0x4: "SEV"}

LOAD_OPS = frozenset("LDR_LIT LDR_REG LDRH_REG LDRB_REG LDRSB_REG LDRSH_REG "
                     "LDR_IMM LDRB_IMM LDRH_IMM LDR_SP".split())
STORE_OPS = frozenset("STR_REG STRH_REG STRB_REG STR_IMM STRB_IMM STRH_IMM "
                      "STR_SP".split())

# Kinds of control-flow edge; every kind but fall-through is a taken branch.
EDGE_FALLTHROUGH = "fallthrough"
EDGE_TAKEN = "taken"
EDGE_CALL = "call"
EDGE_RETURN = "return"

_REG_NAMES = tuple("r%d" % i for i in range(13)) + ("sp", "lr", "pc")
reg_name = _REG_NAMES.__getitem__


def reglist_text(regs):
    return "{%s}" % ", ".join(reg_name(r) for r in regs)


class Instruction(Record, frozen=True):
    def __init__(self, addr, op, mnemonic, width, raw, fields=None, text=""):
        # op: internal id, e.g. "ADDS_REG"; mnemonic: display form, e.g.
        # "ADDS" or "BNE"; width: 16 or 32 bits, 32 only for BL; raw: the
        # halfword, or (hw1 << 16) | hw2 for BL
        self._set(addr, op, mnemonic, width, raw,
                  {} if fields is None else fields, text)

    @property
    def size(self):
        return self.width // 8


def _flow(op, f, offset):
    """Edges [(target - address, or None, kind)] out of a block that op `op`
    with operands `f` and target `offset` ends, or None when it falls
    through.  None marks a target known only at run time; BKPT has none."""
    if op == "BCOND":
        return (offset, EDGE_TAKEN), (2, EDGE_FALLTHROUGH)
    if op == "B":
        return ((offset, EDGE_TAKEN),)
    if op == "BL":
        return (offset, EDGE_CALL), (4, EDGE_FALLTHROUGH)
    if op == "BLX":
        return (None, EDGE_CALL), (2, EDGE_FALLTHROUGH)
    if op == "BX":
        return ((None, EDGE_RETURN if f["rm"] == 14 else EDGE_TAKEN),)
    if op == "POP" and f["pc"]:
        return ((None, EDGE_RETURN),)
    if op in ("MOV_HI", "ADD_HI") and f["rd"] == 15:
        return ((None, EDGE_TAKEN),)
    if op == "BKPT":
        return ()
    return None


DEFAULT_TIMING = MappingProxyType({  # read-only: every simulator shares it
    "dp": 1,                # data processing
    "load": 2,              # loads and stores
    "store": 2,
    "block_base": 1,        # LDM/STM/PUSH/POP: it + the words moved
    "branch_taken": 3,      # B, and BCOND when taken
    "branch_not_taken": 1,  # BCOND when not taken
    "bl": 4,
    "bx": 3,
    "blx": 3,
    "muls": 1,              # 32 for the slow multiplier
    "pc_branch": 3,         # MOV/ADD into pc
    "bkpt": 1,              # it counts as executed, then halts
})

# op -> DEFAULT_TIMING key; ops not listed are data processing ("dp").
# Block transfers, BCOND and MOV/ADD into pc are classified in base_cycles.
_TIMING_KEYS = dict.fromkeys(LOAD_OPS, "load")
_TIMING_KEYS.update(dict.fromkeys(STORE_OPS, "store"))
_TIMING_KEYS.update({"B": "branch_taken", "BL": "bl", "BX": "bx",
                     "BLX": "blx", "MULS": "muls", "BKPT": "bkpt"})


def base_cycles(ins, timing=DEFAULT_TIMING):
    """(base cycles if not taken, if taken) of `ins` under `timing`."""
    op, f = ins.op, ins.fields
    if op in ("PUSH", "POP", "LDM", "STM"):
        n = timing["block_base"] + len(f["regs"]) + (1 if f.get("pc") else 0)
        return n, n
    if op == "BCOND":
        return timing["branch_not_taken"], timing["branch_taken"]
    if op in ("MOV_HI", "ADD_HI") and f["rd"] == 15:
        return timing["pc_branch"], timing["pc_branch"]
    n = timing[_TIMING_KEYS.get(op, "dp")]
    return n, n


def tally(code):
    """(c1, c2, histogram) of one run of `code`, Encodings or Instructions:
    MULS counts in c2, every other instruction in c1."""
    histogram = {}
    for enc in code:
        histogram[enc.mnemonic] = histogram.get(enc.mnemonic, 0) + 1
    c2 = histogram.get("MULS", 0)
    return sum(histogram.values()) - c2, c2, histogram


def is_wide(hw):
    """True when hw is the first halfword of a 32-bit encoding."""
    return (hw & 0xF800) in (0xE800, 0xF000, 0xF800)


def encoding_at(mem, addr):
    """The Encoding at `addr` of MemorySystem `mem`, fetched through
    `read_code`, which raises the fetch faults."""
    hw1 = mem.read_code(addr)
    return _encoding(hw1, mem.read_code(addr + 2) if is_wide(hw1) else None,
                     addr)


def decode_at(mem, addr):
    """The instruction at `addr` of MemorySystem `mem` (see encoding_at)."""
    return encoding_at(mem, addr).at(addr)


def run_at(mem, addr, decoded):
    """Decode the straight-line run at `addr` into `decoded` (address ->
    Encoding), up to an address it holds or through an Encoding that ends a
    block, whose address it returns (else None): from Flash's halfword view
    but at its last halfword, else by encoding_at, whose faults it raises
    with the run so far in `decoded`."""
    halves, get = mem.flash_halves or (), _MEMO.get
    last = len(halves) - 1 if not addr & 1 else 0
    i = (addr - FLASH_BASE) >> 1
    while addr not in decoded:
        if 0 <= i < last:
            hw, hw2 = halves[i], halves[i + 1]
            enc = get(hw if hw < 0xE800 else hw << 16 | hw2)
            decoded[addr] = enc = enc or _encoding(hw, hw2, addr)
        else:
            decoded[addr] = enc = encoding_at(mem, addr)
        if enc.flow is not None:
            return addr
        addr, i = addr + 2, i + 1  # only BL, which ends a block, is wider
    return None


def _sign_extend(value, bits):
    return value - (value >> (bits - 1) << bits)


class Encoding(namedtuple("Encoding", "op mnemonic width raw fields text "
                                       "offset lit flow size")):
    """One decoded encoding, shared by every address that holds it.  B,
    BCOND and BL keep their target's `offset` and a text with a hole for
    it; literal LDR and ADR (`lit`) their `imm`; `flow` is `_flow`'s edges.
    `target`, `literal` and `text_at` give a value at an address; `at`
    binds it there, with a copy of `fields`."""
    __slots__ = ()

    def literal(self, addr):
        return ((addr + 4) & ~3) + self.fields["imm"]

    def target(self, addr):
        return (addr + self.offset) & 0xFFFFFFFF

    def text_at(self, addr):
        return self.text if self.offset is None else self.text % self.target(addr)

    def edges(self, addr):
        """`flow`'s edges [(target or None, kind)] out of this encoding at
        `addr`, a block-ending one."""
        return [(None if off is None else (addr + off) & 0xFFFFFFFF, kind)
                for off, kind in self.flow]

    def at(self, addr):
        """The Instruction at `addr`."""
        fields = self.fields.copy()
        if self.offset is not None:
            fields["target"] = self.target(addr)
        elif self.lit:
            fields["lit_addr"] = self.literal(addr)
        return Instruction(addr, self.op, self.mnemonic, self.width, self.raw,
                           fields, self.text_at(addr))


def _enc(op, mnemonic, raw, fields, text, offset=None, width=16):
    return Encoding(op, mnemonic, width, raw, fields, text, offset,
                    op in ("LDR_LIT", "ADR"), _flow(op, fields, offset),
                    width >> 3)


# halfword, or BL's (hw1 << 16) | hw2 -> its Encoding
_MEMO = {}


def _encoding(hw, hw2, addr):
    """The Encoding of `hw` (and `hw2`), from the memo or into it."""
    key = hw if hw < 0xE800 or hw2 is None else hw << 16 | (hw2 & 0xFFFF)
    known = _MEMO.get(key)
    if known is None:
        known = _MEMO[key] = _record(hw, hw2, addr)
    return known


def decode(hw1, hw2=None, addr=0):
    """Decode one instruction at `addr`; hw2 is read only when hw1 opens a
    32-bit encoding (BL), which without it raises UndefinedInstructionError."""
    if addr & 1:
        raise UndefinedInstructionError(addr, hw1, "misaligned decode")
    return _encoding(hw1 & 0xFFFF, hw2, addr).at(addr)


def _record(hw, hw2, addr):
    """The Encoding of `hw` (and `hw2`); `addr` only names a fault's."""
    if is_wide(hw):
        return _decode_wide(hw, hw2, addr)

    top5 = hw >> 11

    # 00000 / 00001 / 00010: shift by immediate (LSLS #0 is MOVS Rd, Rm)
    if top5 <= 0b00010:
        imm5 = (hw >> 6) & 0x1F
        rm = (hw >> 3) & 7
        rd = hw & 7
        if top5 == 0b00000:
            if imm5 == 0:
                return _enc("MOVS_REG", "MOVS", hw, {"rd": rd, "rm": rm},
                            "MOVS %s, %s" % (reg_name(rd), reg_name(rm)))
            return _enc("LSLS_IMM", "LSLS", hw,
                        {"rd": rd, "rm": rm, "imm": imm5},
                        "LSLS %s, %s, #%d" % (reg_name(rd), reg_name(rm), imm5))
        shift = imm5 if imm5 else 32  # encoding 0 means shift by 32
        op, mn = (("LSRS_IMM", "LSRS") if top5 == 0b00001 else ("ASRS_IMM", "ASRS"))
        return _enc(op, mn, hw, {"rd": rd, "rm": rm, "imm": shift},
                    "%s %s, %s, #%d" % (mn, reg_name(rd), reg_name(rm), shift))

    # 00011: three-register / three-bit-immediate add and subtract
    if top5 == 0b00011:
        sub = (hw >> 9) & 1
        imm_form = (hw >> 10) & 1
        x = (hw >> 6) & 7
        rn = (hw >> 3) & 7
        rd = hw & 7
        if imm_form:
            op, mn = (("SUBS_IMM3", "SUBS") if sub else ("ADDS_IMM3", "ADDS"))
            return _enc(op, mn, hw, {"rd": rd, "rn": rn, "imm": x},
                        "%s %s, %s, #%d" % (mn, reg_name(rd), reg_name(rn), x))
        op, mn = (("SUBS_REG", "SUBS") if sub else ("ADDS_REG", "ADDS"))
        return _enc(op, mn, hw, {"rd": rd, "rn": rn, "rm": x},
                    "%s %s, %s, %s" % (mn, reg_name(rd), reg_name(rn), reg_name(x)))

    # 001xx: move/compare/add/subtract with 8-bit immediate
    if (top5 >> 2) == 0b001:
        kind = (hw >> 11) & 3
        r = (hw >> 8) & 7
        imm8 = hw & 0xFF
        op, mn = [("MOVS_IMM", "MOVS"), ("CMP_IMM", "CMP"),
                  ("ADDS_IMM8", "ADDS"), ("SUBS_IMM8", "SUBS")][kind]
        return _enc(op, mn, hw, {"rd": r, "imm": imm8},
                    "%s %s, #%d" % (mn, reg_name(r), imm8))

    # 010000: register data-processing
    if (hw >> 10) == 0b010000:
        idx = (hw >> 6) & 0xF
        rm = (hw >> 3) & 7
        rdn = hw & 7
        op, mn = DP_OPS[idx], DP_MNEMONICS[idx]
        return _enc(op, mn, hw, {"rd": rdn, "rm": rm},
                    "%s %s, %s" % (mn, reg_name(rdn), reg_name(rm)))

    # 010001: high-register ADD/CMP/MOV and BX/BLX
    if (hw >> 10) == 0b010001:
        kind = (hw >> 8) & 3
        rm = (hw >> 3) & 0xF
        rdn = ((hw >> 7) & 1) << 3 | (hw & 7)
        if kind == 3:
            if hw & 7:
                raise UndefinedInstructionError(addr, hw)
            if (hw >> 7) & 1:
                return _enc("BLX", "BLX", hw, {"rm": rm},
                            "BLX %s" % reg_name(rm))
            return _enc("BX", "BX", hw, {"rm": rm}, "BX %s" % reg_name(rm))
        op, mn = [("ADD_HI", "ADD"), ("CMP_HI", "CMP"), ("MOV_HI", "MOV")][kind]
        return _enc(op, mn, hw, {"rd": rdn, "rm": rm},
                    "%s %s, %s" % (mn, reg_name(rdn), reg_name(rm)))

    # 01001: PC-relative literal load
    if top5 == 0b01001:
        rt = (hw >> 8) & 7
        imm = (hw & 0xFF) * 4
        return _enc("LDR_LIT", "LDR", hw, {"rt": rt, "imm": imm},
                    "LDR %s, [pc, #%d]" % (reg_name(rt), imm))

    # 0101: load/store with register offset
    if (hw >> 12) == 0b0101:
        kind = (hw >> 9) & 7
        rm = (hw >> 6) & 7
        rn = (hw >> 3) & 7
        rt = hw & 7
        table = [("STR_REG", "STR", 4), ("STRH_REG", "STRH", 2),
                 ("STRB_REG", "STRB", 1), ("LDRSB_REG", "LDRSB", 1),
                 ("LDR_REG", "LDR", 4), ("LDRH_REG", "LDRH", 2),
                 ("LDRB_REG", "LDRB", 1), ("LDRSH_REG", "LDRSH", 2)]
        op, mn, size = table[kind]
        fields = {"rt": rt, "rn": rn, "rm": rm, "size": size}
        if mn in ("LDRSB", "LDRSH"):
            fields["signed"] = True
        return _enc(op, mn, hw, fields,
                    "%s %s, [%s, %s]" % (mn, reg_name(rt), reg_name(rn), reg_name(rm)))

    # 011xx: word/byte load/store with 5-bit immediate offset
    if (hw >> 13) == 0b011:
        kind = (hw >> 11) & 3
        imm5 = (hw >> 6) & 0x1F
        rn = (hw >> 3) & 7
        rt = hw & 7
        table = [("STR_IMM", "STR", 4), ("LDR_IMM", "LDR", 4),
                 ("STRB_IMM", "STRB", 1), ("LDRB_IMM", "LDRB", 1)]
        op, mn, size = table[kind]
        imm = imm5 * size
        return _enc(op, mn, hw, {"rt": rt, "rn": rn, "imm": imm, "size": size},
                    "%s %s, [%s, #%d]" % (mn, reg_name(rt), reg_name(rn), imm))

    # 1000x: halfword load/store with immediate offset
    if top5 in (0b10000, 0b10001):
        imm = ((hw >> 6) & 0x1F) * 2
        rn = (hw >> 3) & 7
        rt = hw & 7
        op, mn = (("LDRH_IMM", "LDRH") if top5 & 1 else ("STRH_IMM", "STRH"))
        return _enc(op, mn, hw, {"rt": rt, "rn": rn, "imm": imm, "size": 2},
                    "%s %s, [%s, #%d]" % (mn, reg_name(rt), reg_name(rn), imm))

    # 1001x: SP-relative load/store
    if top5 in (0b10010, 0b10011):
        rt = (hw >> 8) & 7
        imm = (hw & 0xFF) * 4
        op, mn = (("LDR_SP", "LDR") if top5 & 1 else ("STR_SP", "STR"))
        return _enc(op, mn, hw, {"rt": rt, "rn": 13, "imm": imm, "size": 4},
                    "%s %s, [sp, #%d]" % (mn, reg_name(rt), imm))

    # 10100: ADR; 10101: ADD Rd, SP, #imm
    if top5 in (0b10100, 0b10101):
        rd = (hw >> 8) & 7
        imm = (hw & 0xFF) * 4
        if top5 == 0b10100:
            return _enc("ADR", "ADR", hw, {"rd": rd, "imm": imm},
                        "ADR %s, #%d" % (reg_name(rd), imm))
        return _enc("ADD_SP_IMM8", "ADD", hw, {"rd": rd, "imm": imm},
                    "ADD %s, sp, #%d" % (reg_name(rd), imm))

    # 1011x: miscellaneous
    if (hw >> 12) == 0b1011:
        return _decode_misc(hw, addr)

    # 11000: STM; 11001: LDM
    if top5 in (0b11000, 0b11001):
        rn = (hw >> 8) & 7
        regs = [i for i in range(8) if hw & (1 << i)]
        if not regs:
            raise UndefinedInstructionError(addr, hw, "empty register list")
        if top5 == 0b11000:
            return _enc("STM", "STM", hw, {"rn": rn, "regs": regs},
                        "STM %s!, %s" % (reg_name(rn), reglist_text(regs)))
        wback = rn not in regs
        return _enc("LDM", "LDM", hw, {"rn": rn, "regs": regs, "wback": wback},
                    "LDM %s%s, %s" % (reg_name(rn), "!" if wback else "",
                                      reglist_text(regs)))

    # 1101x: conditional branch, UDF, SVC
    if (hw >> 12) == 0b1101:
        cond = (hw >> 8) & 0xF
        if cond == 0xE:
            raise UndefinedInstructionError(addr, hw, "permanently undefined")
        if cond == 0xF:
            raise UndefinedInstructionError(addr, hw, "SVC not supported")
        mn = "B" + COND_NAMES[cond]
        return _enc("BCOND", mn, hw, {"cond": cond}, mn + " 0x%08x",
                    4 + _sign_extend(hw & 0xFF, 8) * 2)

    # 11100: unconditional branch
    if top5 == 0b11100:
        return _enc("B", "B", hw, {}, "B 0x%08x",
                    4 + _sign_extend(hw & 0x7FF, 11) * 2)

    raise UndefinedInstructionError(addr, hw)


def _decode_misc(hw, addr):
    sub = (hw >> 8) & 0xF
    if sub == 0x0:
        imm = (hw & 0x7F) * 4
        if hw & 0x80:
            return _enc("SUB_SP_IMM7", "SUB", hw, {"imm": imm},
                        "SUB sp, #%d" % imm)
        return _enc("ADD_SP_IMM7", "ADD", hw, {"imm": imm},
                    "ADD sp, #%d" % imm)
    if sub == 0x2:
        kind = (hw >> 6) & 3
        rm = (hw >> 3) & 7
        rd = hw & 7
        op = ["SXTH", "SXTB", "UXTH", "UXTB"][kind]
        return _enc(op, op, hw, {"rd": rd, "rm": rm},
                    "%s %s, %s" % (op, reg_name(rd), reg_name(rm)))
    if sub in (0x4, 0x5):
        regs = [i for i in range(8) if hw & (1 << i)]
        if sub == 0x5:
            regs.append(14)
        if not regs:
            raise UndefinedInstructionError(addr, hw, "empty register list")
        return _enc("PUSH", "PUSH", hw, {"regs": regs},
                    "PUSH %s" % reglist_text(regs))
    if sub == 0xA:
        kind = (hw >> 6) & 3
        rm = (hw >> 3) & 7
        rd = hw & 7
        if kind == 0b10:
            raise UndefinedInstructionError(addr, hw)
        op = {0b00: "REV", 0b01: "REV16", 0b11: "REVSH"}[kind]
        return _enc(op, op, hw, {"rd": rd, "rm": rm},
                    "%s %s, %s" % (op, reg_name(rd), reg_name(rm)))
    if sub in (0xC, 0xD):
        regs = [i for i in range(8) if hw & (1 << i)]
        pc = sub == 0xD
        shown = regs + ([15] if pc else [])
        if not shown:
            raise UndefinedInstructionError(addr, hw, "empty register list")
        return _enc("POP", "POP", hw, {"regs": regs, "pc": pc},
                    "POP %s" % reglist_text(shown))
    if sub == 0xE:
        imm = hw & 0xFF
        return _enc("BKPT", "BKPT", hw, {"imm": imm}, "BKPT #%d" % imm)
    if sub == 0xF:
        if hw & 0xF:
            raise UndefinedInstructionError(addr, hw)
        name = HINT_NAMES.get((hw >> 4) & 0xF)
        if name is None:
            raise UndefinedInstructionError(addr, hw)
        return _enc("HINT", name, hw, {}, name)
    raise UndefinedInstructionError(addr, hw)


def _decode_wide(hw1, hw2, addr):
    if hw2 is None:
        raise UndefinedInstructionError(addr, hw1, "truncated 32-bit encoding")
    raw = (hw1 << 16) | (hw2 & 0xFFFF)
    # BL: hw1 = 11110 S imm10, hw2 = 11 J1 1 J2 imm11
    if (hw1 & 0xF800) == 0xF000 and (hw2 & 0xD000) == 0xD000:
        s = (hw1 >> 10) & 1
        i1 = (~((hw2 >> 13) ^ s)) & 1  # I1 = NOT(J1 XOR S)
        i2 = (~((hw2 >> 11) ^ s)) & 1  # I2 = NOT(J2 XOR S)
        imm = ((s << 24) | (i1 << 23) | (i2 << 22) | ((hw1 & 0x3FF) << 12)
               | ((hw2 & 0x7FF) << 1))
        return _enc("BL", "BL", raw, {}, "BL 0x%08x",
                    4 + _sign_extend(imm, 25), width=32)
    raise UndefinedInstructionError(addr, hw1, "unsupported 32-bit encoding")
