"""Cortex-M0 core: architectural state, instruction execution, timing.

Every op's semantics are written once, as a source template in `TEMPLATES`:
Python statements over the registers r0..r14 and the flags n, z, c, v as
locals, the operands filled in as constants (a read of pc is the address
plus 4).  A branch assigns `pc`; a data access is a READ or WRITE line.
`_addsub` is the one place N, Z, C and V are computed, `_SHIFTERS` states
each shift's carry, and `_extend` is the one sign/zero-extension rule.

Execution runs on a translation cache, in the manner of QEMU's translation
blocks.  The first time a Flash (or boot-alias) pc is reached, the
straight-line code there is walked once by `decode.run_at`, as `analyze`
walks it, up to and including its terminator (`Encoding.flow`, the one
block-end rule).  Each entry holds the shared `decode.Encoding` and its
address, with its base cycles (`decode.base_cycles`, from
`decode.DEFAULT_TIMING`) and its fetch stall (`memory.block_stalls`, after
the word the previous instruction ended in); the block holds one run's
`decode.tally`.
Only a StepResult binds an Instruction.  The first instruction has two
stalls: `cold`, entered after a taken branch, reset or a fault, and `warm`,
entered after a sequential fetch, by falling through or by resuming where
the last run stopped without branching.  A block runs one instruction at a
time, through per-form functions generated from the templates (`_step`,
reaching memory through `_read` and `_write` and setting pc themselves),
until it has run COMPILE_AFTER times, which pays back the compile.  Then it
is generated into one function (after QEMU's TCG): registers and flags live
in locals, a RAM access is a bounds and alignment compare and an index into
a word or halfword view of RAM (a slice if `memory.RAM_VIEWS` is false: a
big-endian host, or a C int that is not 4 bytes), a Flash literal load is a
constant, and so is every fetch stall but the entry stall `st`, which the
engine passes in.  Any other access takes the slow path,
`MemorySystem.read`/`write`, the one place a fault is raised and so the one
place pc is stored.  A fault stores the locals, so a write of a flag is
dropped only when another write of it comes before any read of it, slow
path or the block's end, and a flag is loaded only when it can be read
before it is written; constant cycle and counter increments merge up to the
next line that reads them.  A `step_<form>` function serves every simulator;
a `block_<pc>` function is shared, while a simulator holds it, by those
that generate its source.

No fetch is priced at run time.  The engine enters a block cold when the
last instruction branched or faulted, or when a run starts at any pc but
`_warm_pc`, where the last run stopped sequentially (None after reset, a
taken exit or a fault), so a write to `state.pc` between runs fetches
cold.  A compiled block runs only when the cycle budget cannot cut it: `now`
plus `st` and its worst case before the last instruction is below the
budget; otherwise it runs one instruction at a time, the budget checked
before each.  `step()`, a run to one cycle past now (no `DEFAULT_TIMING`
entry is below a cycle), `on_step` and RAM code never use or make compiled
code; each RAM instruction is fetched and decoded afresh, as RAM code may
modify itself.  A step's `data_events` are the c4, c5 and c6 that `_read`
and `_write` counted.  Flash data stalls are charged as `wait_states` x c6
where cycles are committed: during a run only `_execute`'s commit of a
completed step and a compiled block's epilogue write `state.cycle_count`.  A
block's c1, c2 and histogram, times its runs, are folded into the counters
when `run` or `step` returns or raises (a block left part-way, by a fault
or a raising `on_step`, folds the instructions that completed), as are each
Flash block's runs and cold entries since reset, which `price` reads.

An instruction commits on completion: one that faults adds no counter event
and no cycles and leaves pc at its address.  The engine, not the step
function, restores a faulting step's counts; a compiled block counts a
transfer's words only when all are done.  Register and memory writes made
before the fault are not undone.

BX, BLX and POP into pc are interworking branches: bit 0 of the target is
the Thumb bit.  A clear bit would select ARM state, which ARMv6-M lacks, so
the branch completes and counts, and the INVSTATE fault is taken before
the target executes.  Such a branch leaves pc odd (the target plus one);
no block starts at an odd pc, so the next translation raises the fault and
the execution loop needs no check of its own.

A simulator instance is single-threaded; distinct instances are
independent.
"""

import re
import weakref
from importlib import import_module

from .counters import EventCounters
from .errors import InvalidStateFault, M0EnergyError
from .memory import (DEFAULT_FLASH_SIZE, DEFAULT_RAM_SIZE, FLASH_BASE,
                     RAM_BASE, MemorySystem, block_stalls, timing_class)
from .record import Record

dec = import_module(".decode", __package__)  # the module, not the function

MASK32 = 0xFFFFFFFF

COMPILE_AFTER = 64  # runs of a Flash block before it is compiled

class CpuState(Record):
    def __init__(self, regs=None, n=False, z=False, c=False, v=False,
                 halted=False, cycle_count=0):
        self.regs = [0] * 16 if regs is None else regs
        self.n, self.z, self.c, self.v = n, z, c, v
        self.halted, self.cycle_count = halted, cycle_count

    @property
    def sp(self):
        return self.regs[13]

    @property
    def lr(self):
        return self.regs[14]

    @property
    def pc(self):
        return self.regs[15]

    @pc.setter
    def pc(self, value):
        self.regs[15] = value & MASK32 & ~1


class StepResult(Record):
    def __init__(self, instruction, cycles, branch_taken, halted,
                 fetch_stall=0, data_events=(0, 0, 0)):
        self.instruction = instruction  # a decode.Instruction
        self.cycles, self.branch_taken, self.halted = cycles, branch_taken, halted
        self.fetch_stall = fetch_stall
        self.data_events = data_events  # the c4, c5 and c6 the step added


class RunSummary(Record):
    def __init__(self, counters, cycle_count, exit_reason, steps=0):
        self.counters = counters  # an EventCounters
        self.cycle_count, self.exit_reason = cycle_count, exit_reason
        self.steps = steps


# -- templates: the one statement of each op's semantics ----------------------

def _nz(x):
    return "n = %s > 0x7FFFFFFF\nz = %s == 0" % (x, x)


def _addsub(first, second, subtract=False, carry=False, write=True):
    """ADDS, SUBS, ADCS, SBCS, RSBS, CMP and CMN: first + second (inverted
    for a subtraction) + carry-in, the carry-in being C when `carry`, else 1
    for a subtraction and 0 for an addition; `write` stores the result in
    rd.  The one place N, Z, C and V are computed."""
    x = "{rd}" if write else "_x"
    cin = " + c" if carry else " + 1" if subtract else ""
    return "\n".join([
        "_a = " + first,
        "_b = " + second + (" ^ 0xFFFFFFFF" if subtract else ""),
        "_t = _a + _b" + cin,
        x + " = _t & 0xFFFFFFFF",
        _nz(x),
        "c = _t > 0xFFFFFFFF",
        "v = (_a ^ %s) & (_b ^ %s) > 0x7FFFFFFF" % (x, x)])


def _collapse(lines):
    """Rendered `_addsub` lines when C and V are dead: _a, _b and _t folded
    into one expression for the result, then N and Z."""
    a, b, total = (line.split(" = ", 1)[1] for line in lines[:3])
    total = total.replace("_a", a).replace("_b", "(%s)" % b if " " in b else b)
    return [lines[3].replace("_t", total)] + lines[4:6]


def _logical(expr, write=True):
    """MOVS, ANDS, EORS, ORRS, BICS, MVNS, TST and MULS: N and Z from the
    result; C and V are kept."""
    x = "{rd}" if write else "_x"
    return "%s = %s\n%s" % (x, expr, _nz(x))


# Each shift of %(v)s by %(s)s, an amount from 1 up, into rd, with C the
# last bit shifted out (ROR: bit 31 of the result).
_SHIFTERS = {
    "lsl": "_v = %(v)s << %(s)s\nc = _v >> 32 & 1 == 1\n"
           "{rd} = _v & 0xFFFFFFFF",
    "lsr": "c = %(v)s >> (%(s)s - 1) & 1 == 1\n{rd} = %(v)s >> %(s)s",
    "asr": "_v = %(v)s - (%(v)s >> 31 << 32)\n"
           "c = _v >> (%(s)s - 1) & 1 == 1\n{rd} = _v >> %(s)s & 0xFFFFFFFF",
    "ror": "{rd} = %(v)s >> (%(s)s & 31) | %(v)s << (32 - (%(s)s & 31)) "
           "& 0xFFFFFFFF\nc = {rd} > 0x7FFFFFFF",
}


def _shift(kind, register=False):
    """LSLS, LSRS and ASRS by `imm` shift rm into rd; the register forms
    and RORS shift rd in place by the low byte of rm, and an amount of 0
    keeps C.  N and Z come from the result."""
    if not register:
        body = _SHIFTERS[kind] % {"v": "{rm}", "s": "{imm}"}
    else:
        body = "_s = {rm} & 255\nif _s:\n    " + (
            _SHIFTERS[kind] % {"v": "{rd}", "s": "_s"}).replace("\n", "\n    ")
    return body + "\n" + _nz("{rd}")


def _extend(value, bits, signed=True):
    """The low `bits` of value, sign-extended when `signed`, as 32 bits: the
    one extension rule, for loads, SXT*/UXT* and REVSH."""
    mask = (1 << bits) - 1
    if not signed:
        return "%s & %#x" % (value, mask)
    sign = 1 << (bits - 1)
    return "((%s & %#x ^ %#x) - %#x) & 0xFFFFFFFF" % (value, mask, sign, sign)


# The condition of each BCOND cond field, over the flags.
_CONDITIONS = ("z", "not z", "c", "not c", "n", "not n", "v", "not v",
               "c and not z", "not c or z", "n == v", "n != v",
               "not z and n == v", "z or n != v")

# Template per form (`_form`): a source string, or for a register-list op a
# (head, word, tail) triple whose word repeats for each listed register
# ({reg}, {off} bytes into the transfer; {bytes} is the whole transfer).
# An interworking branch assigns pc the target with bit 0 flipped: a target
# with the Thumb bit clear leaves pc odd, which raises INVSTATE before the
# next instruction executes.
TEMPLATES = {
    "ADDS_REG": _addsub("{rn}", "{rm}"),
    "ADDS_IMM3": _addsub("{rn}", "{imm}"),
    "ADDS_IMM8": _addsub("{rd}", "{imm}"),
    "SUBS_REG": _addsub("{rn}", "{rm}", True),
    "SUBS_IMM3": _addsub("{rn}", "{imm}", True),
    "SUBS_IMM8": _addsub("{rd}", "{imm}", True),
    "ADCS": _addsub("{rd}", "{rm}", carry=True),
    "SBCS": _addsub("{rd}", "{rm}", True, True),
    "RSBS": _addsub("0", "{rm}", True),
    "CMP_IMM": _addsub("{rd}", "{imm}", True, write=False),
    "CMP_REG": _addsub("{rd}", "{rm}", True, write=False),
    "CMP_HI": _addsub("{rd}", "{rm}", True, write=False),
    "CMN": _addsub("{rd}", "{rm}", write=False),
    "MOVS_IMM": _logical("{imm}"),
    "MOVS_REG": _logical("{rm}"),
    "ANDS": _logical("{rd} & {rm}"),
    "EORS": _logical("{rd} ^ {rm}"),
    "ORRS": _logical("{rd} | {rm}"),
    "BICS": _logical("{rd} & ~{rm}"),
    "MVNS": _logical("{rm} ^ 0xFFFFFFFF"),
    "TST": _logical("{rd} & {rm}", write=False),
    "MULS": _logical("{rd} * {rm} & 0xFFFFFFFF"),
    "LSLS_IMM": _shift("lsl"),
    "LSRS_IMM": _shift("lsr"),
    "ASRS_IMM": _shift("asr"),
    "LSLS_REG": _shift("lsl", True),
    "LSRS_REG": _shift("lsr", True),
    "ASRS_REG": _shift("asr", True),
    "RORS": _shift("ror", True),
    "SXTB": "{rd} = " + _extend("{rm}", 8),
    "SXTH": "{rd} = " + _extend("{rm}", 16),
    "UXTB": "{rd} = " + _extend("{rm}", 8, False),
    "UXTH": "{rd} = " + _extend("{rm}", 16, False),
    "REV": "{rd} = {rm} >> 24 | {rm} >> 8 & 0xFF00 | {rm} << 8 & 0xFF0000 "
           "| {rm} << 24 & 0xFF000000",
    "REV16": "{rd} = {rm} << 8 & 0xFF00FF00 | {rm} >> 8 & 0xFF00FF",
    "REVSH": "{rd} = " + _extend("({rm} << 8 & 0xFF00 | {rm} >> 8 & 0xFF)",
                                 16),
    "MOV_HI": "{rd} = {rm}",
    "MOV_HI pc": "pc = {rm} & 0xFFFFFFFE",
    "ADD_HI": "{rd} = ({rd} + {rm}) & 0xFFFFFFFF",
    "ADD_HI pc": "pc = ({rd} + {rm}) & 0xFFFFFFFE",
    "ADR": "{rd} = {literal}",
    "ADD_SP_IMM8": "{rd} = (r13 + {imm}) & 0xFFFFFFFF",
    "ADD_SP_IMM7": "r13 = (r13 + {imm}) & 0xFFFFFFFF",
    "SUB_SP_IMM7": "r13 = (r13 - {imm}) & 0xFFFFFFFF",
    "HINT": "",
    "BKPT": "S.halted = True",
    "LDR_LIT": "{rt} = READ({literal}, 4)",
    # register, immediate and SP-relative: rn plus imm or rm, size bytes
    "LOAD": "{rt} = READ({rn} + {offset}, {size})",
    "LDRSB_REG": "{rt} = READ({rn} + {rm}, 1)\n{rt} = " + _extend("{rt}", 8),
    "LDRSH_REG": "{rt} = READ({rn} + {rm}, 2)\n{rt} = " + _extend("{rt}", 16),
    "STORE": "WRITE({rn} + {offset}, {size}, {rt})",
    "PUSH": ("r13 = (r13 - {bytes}) & 0xFFFFFFFF",
             "WRITE(r13 + {off}, 4, {reg})", ""),
    "POP": ("", "{reg} = READ(r13 + {off}, 4)",
            "r13 = (r13 + {bytes}) & 0xFFFFFFFF"),
    "POP pc": ("", "{reg} = READ(r13 + {off}, 4)",
               "r13 = (r13 + {bytes}) & 0xFFFFFFFF\npc ^= 1"),
    "LDM": ("_p = {rn}", "{reg} = READ(_p + {off}, 4)",
            "{rn} = (_p + {bytes}) & 0xFFFFFFFF"),
    "LDM base": ("_p = {rn}", "{reg} = READ(_p + {off}, 4)", ""),
    "STM": ("_p = {rn}", "WRITE(_p + {off}, 4, {reg})",
            "{rn} = (_p + {bytes}) & 0xFFFFFFFF"),
    "BCOND": "if {cond}:\n    pc = {target}",
    "B": "pc = {target}",
    "BL": "r14 = {next} | 1\npc = {target}",
    "BX": "pc = {rm} ^ 1",
    "BLX": "_v = {rm}\nr14 = {next} | 1\npc = _v ^ 1",
}


def _form(enc):
    """The TEMPLATES key of `enc`: its op; LOAD or STORE for a load or store
    that does not sign-extend; or for a MOV/ADD into pc, a POP into pc or an
    LDM that loads its base register, the op and that form."""
    op, f = enc.op, enc.fields
    if op in ("MOV_HI", "ADD_HI") and f["rd"] == 15 or op == "POP" and f["pc"]:
        return op + " pc"
    if op == "LDM" and not f["wback"]:
        return "LDM base"
    if "size" in f and "signed" not in f:
        return "LOAD" if op in dec.LOAD_OPS else "STORE"
    return op


def _render(enc, addr=None):
    """`enc`'s template lines at `addr`, registers as the locals r0..r14 and
    the other operands as constants; without `addr`, as `R[f["rd"]]`,
    `f["imm"]` and `e.target(a)`, for a step function's Encoding `e` at `a`."""
    f, generic = enc.fields, addr is None
    operands = {"next": "(a + %d)" % enc.size if generic
                else "%#x" % (addr + enc.size)}
    for name, value in f.items():
        if name in ("rd", "rn", "rm", "rt"):
            operands[name] = ('R[f["%s"]]' % name if generic else "%#x"
                              % (addr + 4) if value == 15 else "r%d" % value)
        elif name == "cond":
            operands[name] = _CONDITIONS[value]
        elif name == "imm":
            operands[name] = 'f["imm"]' if generic else "%#x" % value
        elif name == "size":
            operands[name] = "%d" % value
    if enc.offset is not None or enc.lit:  # an operand bound to the address
        name = "literal" if enc.lit else "target"
        operands[name] = ("e.%s(a)" % name if generic
                          else "%#x" % getattr(enc, name)(addr))
    operands["offset"] = operands.get("imm") or operands.get("rm")
    template = TEMPLATES[_form(enc)]
    if isinstance(template, str):
        return template.format_map(operands).splitlines()
    head, word, tail = template
    regs = f["regs"] + ([15] if f.get("pc") else [])
    operands["bytes"] = "%#x" % (4 * len(regs))
    return (head.format_map(operands).splitlines()
            + [word.format(reg="pc" if r == 15 else "r%d" % r,
                           off="%#x" % (4 * i), **operands)
               for i, r in enumerate(regs)]
            + tail.format_map(operands).splitlines())


# -- code generation ------------------------------------------------------------

_READ = re.compile(r"(\s*)(\w+) = READ\((.+), (\d)\)$")
_WRITE = re.compile(r"(\s*)WRITE\((.+), (\d), (\w+)\)$")
_NAMES = re.compile(r"\b(r\d+|[nzcv])\b")
_FLAGS = re.compile(r"\b[nzcv]\b")
_LIVE = ("n", "z", "c", "v")  # names whose dead writes a block drops
_COUNTS = ("t", "fetch_stall_cycles", "c4", "c5", "c6")  # a block's tallies
_CODE = weakref.WeakValueDictionary()  # generated source -> function
_STEPS = {}     # form -> one-instruction function


def _compile(name, source):
    fn = _CODE.get(source)
    if fn is None:
        namespace = {"_fb": int.from_bytes}
        exec(compile(source, "<m0energy>", "exec"), namespace)
        fn = _CODE[source] = namespace[name]
    return fn


def _function(name, signature, prologue, body, names, epilogue):
    """Function `name` that loads the registers and flags in `names` into
    locals, runs `body`, and stores them back even when it raises."""
    regs = sorted(int(x[1:]) for x in names if x[0] == "r")
    flags = [x for x in "nzcv" if x in names]
    load = (["r%d = R[%d]" % (r, r) for r in regs]
            + ["%s = S.%s" % (x, x) for x in flags])
    store = (["R[%d] = r%d" % (r, r) for r in regs]
             + ["S.%s = %s" % (x, x) for x in flags])
    lines = (["def %s(%s):" % (name, signature)]
             + ["    " + line for line in prologue + load + ["try:"]]
             + ["        " + line for line in body or ["pass"]]
             + ["    finally:"]
             + ["        " + line for line in store + epilogue[0] or ["pass"]]
             + ["    " + line for line in epilogue[1]])
    return _compile(name, "\n".join(lines) + "\n")


def _step(enc):
    """step_<form>(sim, e, a), running Encoding `e` of `enc`'s form (op,
    condition, register list, size) at address `a`, generated on first use:
    operands from `e.fields`, memory only through `sim._read` and `_write`.
    It sets pc (the next instruction, the branch target, or its own address
    if it faults) and returns whether it branched.  It writes no cycles;
    the engine commits them, and restores a faulting step's events."""
    f = enc.fields
    form = (_form(enc), f.get("cond"), tuple(f.get("regs", ())), f.get("size"),
            "imm" in f)
    fn = _STEPS.get(form)
    if fn is None:
        body = [re.sub(r"\br(\d+)\b", r"R[\1]", line).replace(
            "READ(", "sim._read(").replace("WRITE(", "sim._write(")
            for line in _render(enc)]
        names = set(_FLAGS.findall("\n".join(body)))
        fn = _STEPS[form] = _function(
            "step_" + re.sub(r"\W", "_", form[0]), "sim, e, a",
            ["S = sim.state", "R = S.regs", "f = e.fields", "pc = None",
             "R[15] = a + 4  # pc reads"], body, names, (["R[15] = a"], [
                "R[15] = a + %d if pc is None else pc" % enc.size,
                "return pc is not None"]))
    return fn


def _literal(lit_addr, mem):
    """The value of LDR_LIT's load from `lit_addr` when it reads Flash,
    which is never written, so the value is a constant; else None."""
    try:
        value, region = mem.read(lit_addr, 4)
    except M0EnergyError:
        return None
    return value if region == "flash" else None


def _access(match, mem, words, pc):
    """Block code for a READ or WRITE template line: the RAM fast path
    inline, through the memory's views if it has them, else a slice; else
    the slow path, `MemorySystem.read`/`write`, which raise the faults (so
    pc is stored first) and complete a Flash read or a debug-port write.
    A single access counts its event where it happens; the `words` of a
    block transfer count their Flash reads in `_f`."""
    if match.re is _READ:
        indent, target, addr, size = match.groups()
    else:
        indent, addr, size, value = match.groups()
    size = int(size)
    view = ("ram[_o]" if size == 1 else None if mem.ram_words is None
            else "%s[_o >> %d]" % ("W" if size == 4 else "H", size // 2))
    span = "ram[_o:_o + %d]" % size
    where = "_o + %#x & 0xFFFFFFFF, %d" % (RAM_BASE, size)
    if match.re is _READ:
        fast = "%s = %s" % (target, view or "_fb(%s, 'little')" % span)
        count = "c4 += 1"
        slow = ["%s = read(%s)[0]" % (target, where),
                "_f += 1" if words else "c6 += 1"]
    else:
        mask = "%s & %#x" % (value, (1 << 8 * size) - 1)
        fast = ("%s = %s" % (view, mask) if view else
                "%s = (%s).to_bytes(%d, 'little')" % (span, mask, size))
        count = "c5 += 1"
        slow = ["write(%s, %s)" % (where, value)]
    lines = (["_o = %s - %#x & 0xFFFFFFFF" % (addr, RAM_BASE),
              "if _o <= %d%s:" % (mem.ram_size - size, " and not _o & %d"
                                  % (size - 1) if size > 1 else ""),
              "    " + fast] + ([] if words else ["    " + count])
             + ["else:", "    R[15] = %#x" % pc]
             + ["    " + line for line in slow])
    return [indent + line for line in lines]


class _Block:
    """Straight-line code decoded once.  `entries` holds one tuple per
    instruction: (its `_step` function, shared `decode.Encoding`, address,
    base cycles if not taken, if taken, fetch stall; 0 stall for the first,
    whose stall is `cold` after a taken branch, reset or fault and `warm`
    after a sequential fetch).  `counts` is one run's `decode.tally`; `heat`
    its runs before it is compiled (None for RAM code, never compiled);
    `code` the compiled function; `worst` its budget worst case; `runs` its
    uncounted runs; `ran` and `colds` its completed runs and its cold
    entries since reset, which price it."""
    __slots__ = ("entries", "cold", "warm", "counts", "heat", "code", "worst",
                 "runs", "ran", "colds")

    def __init__(self, entries, cold, warm, counts, heat):
        self.entries = entries
        self.cold = cold
        self.warm = warm
        self.counts = counts
        self.heat = heat
        self.code = None
        self.worst = None
        self.runs = self.ran = self.colds = 0


class Simulator:
    """One simulated core plus its memory and event counters."""

    def __init__(self, image, wait_states=0, prefetch=False,
                 flash_size=DEFAULT_FLASH_SIZE, ram_size=DEFAULT_RAM_SIZE):
        self.wait_states, self.prefetch = timing_class(wait_states, prefetch)
        self.mem = MemorySystem(image, flash_size=flash_size, ram_size=ram_size)
        self.counters = EventCounters()
        self._blocks = {}        # Flash/alias pc -> _Block
        self.reset()

    # -- lifecycle ----------------------------------------------------------

    def reset(self):
        """Load SP and PC from the vector table; zero flags and all counts."""
        self.state = CpuState()
        self.state.regs[13], self.state.regs[15] = self.mem.reset_vector()
        self.counters.reset()
        for block in self._blocks.values():
            block.ran = block.colds = 0
        self._warm_pc = None  # where the last run stopped sequentially
        self.mem.debug_output.clear()

    # -- memory helpers for step functions: count c4..c6

    def _read(self, addr, size):
        value, region = self.mem.read(addr & MASK32, size)
        if region == "ram":
            self.counters.c4 += 1
        else:
            self.counters.c6 += 1
        return value

    def _write(self, addr, size, value):
        region = self.mem.write(addr & MASK32, size, value)
        if region == "ram":
            self.counters.c5 += 1

    # -- translation ----------------------------------------------------------

    def _translate(self, pc):
        """The block at pc, decoded once and cached for Flash, afresh for RAM.

        `decode.run_at` stops after a terminator, at `stop` (where the boot
        alias meets Flash, and after one instruction in RAM), and before an
        instruction that cannot be fetched or decoded so that executing it
        raises the fault; at the block's first instruction it raises here,
        as it does for the odd pc an interworking branch leaves when the
        Thumb bit is clear.
        """
        if pc & 1:
            raise InvalidStateFault(pc ^ 1)
        mem = self.mem
        kind = mem.region(pc)
        stop = {"alias": FLASH_BASE, "ram": pc + 2}.get(kind)
        run = {stop: None}
        try:
            dec.run_at(mem, pc, run)
        except M0EnergyError:
            if pc not in run:
                raise
        del run[stop]
        code = list(run.items())
        cold, warm, stalls = (0, 0, [0]) if kind == "ram" else block_stalls(
            [(addr, enc.size) for addr, enc in code], self.wait_states,
            self.prefetch)  # RAM never stalls
        entries = [(_step(enc), enc, addr, *dec.base_cycles(enc), stall)
                   for (addr, enc), stall in zip(code, stalls)]
        block = _Block(entries, cold, warm, dec.tally(run.values()),
                       None if kind == "ram" else 0)
        if kind != "ram":
            self._blocks[pc] = block
        return block

    def _compile(self, block):
        """Generate and compile `block`'s function, block_<pc>(S, R, C, ram,
        W, H, read, write, t, st) over the state, its registers, the
        counters, the RAM and its views and `MemorySystem.read`/`write`: it
        runs the block from cycle t with entry stall st (`block.cold` or
        `warm`), folds its events into the state and counters, sets pc and
        returns whether the block's branch was taken.  Flash data stalls
        stay out of t: t and c6 are flushed together before each slow path,
        and the epilogue stores t + wait_states x c6.  Sets `block.worst`,
        the most cycles before the last instruction after the entry stall.
        The body is written last line first, in one pass, which drops the
        dead writes and merges the increments the module docstring names."""
        mem, ws = self.mem, self.wait_states
        # the body, last line first: the end sets pc unless a branch did
        start, (_s, enc, last) = block.entries[0][2], block.entries[-1][:3]
        rev = ["    pc = %#x" % (last + enc.size), "if not tk:",
               "tk = pc is not None"]
        live = set(_LIVE)                   # read by the block's end
        adds = dict.fromkeys(_COUNTS, 0)    # increments not yet written
        names = set()                       # registers and flags used

        def write_adds():  # the increments after a line that reads them
            for name in _COUNTS:
                if adds[name]:
                    rev.append("%s += %d" % (name, adds[name]))
                    adds[name] = 0

        block.worst = 0
        for _s, enc, addr, base, base_taken, wait in reversed(block.entries):
            lines = _render(enc, addr)
            code = "\n".join(lines)
            names.update(_NAMES.findall(code))
            if not live & {"c", "v"} and lines and lines[0].startswith("_a = "):
                lines = _collapse(lines)
            accesses = [_READ.match(line) or _WRITE.match(line)
                        for line in lines]
            literal = _literal(enc.literal(addr), mem) if enc.op == "LDR_LIT" else None
            reads, writes = code.count("READ("), code.count("WRITE(")
            if addr != last:
                block.worst += base_taken + wait + ws * reads
            if base_taken != base:  # after the template lines, last first
                rev.append("t += %d if pc is not None else 0"
                           % (base_taken - base))
            if addr == start and block.cold:
                rev += ["t += st", "fetch_stall_cycles += st"]
            if reads > 1:
                rev += ["c6 += _f", "c4 += %d - _f" % reads]
            if writes > 1:
                adds["c5"] += writes
            adds["fetch_stall_cycles"] += wait
            adds["t"] += base + wait
            for line, m in reversed(list(zip(lines, accesses))):
                if m and literal is not None:
                    rev.append("%s = %#x" % (m.group(2), literal))
                    adds["c6"] += 1
                elif m:
                    write_adds()
                    live.update(_LIVE)
                    rev.extend(reversed(_access(m, mem, reads + writes > 1,
                                                addr)))
                else:  # an indented write is conditional: it kills nothing
                    target, _eq, expr = line.partition(" = ")
                    if target in _LIVE and target not in live:
                        continue  # a dead store
                    live.discard(target)
                    live.update(_FLAGS.findall(expr or line))
                    rev.append(line)
            if reads > 1:
                rev.append("_f = 0")
            rev.append("# %08x  %s" % (addr, enc.text_at(addr)))
        write_adds()
        body = rev[::-1]
        text = "\n".join(body)
        counts = [name for name in _COUNTS[1:] if name + " +=" in text]
        prologue = ["pc = None"] + ["%s = 0" % name for name in counts]
        epilogue = ["S.cycle_count = t + c6" if ws and "c6" in counts
                    else "S.cycle_count = t"]  # wait_states is 0 or 1
        epilogue += ["C.%s += %s" % (name, name) for name in counts]
        # dead at entry: written before any slow path or the end, so not loaded
        dead = [x for x in "nzcv" if x in names and x not in live]
        epilogue += ["S.%s = %s" % (x, x) for x in dead]
        block.code = _function(
            "block_%08x" % start,
            "S, R, C, ram, W, H, read, write, t, st", prologue, body,
            names.difference(dead), (epilogue, ["R[15] = pc", "return tk"]))
        return block.code

    # -- execution --------------------------------------------------------------

    def step(self):
        """Execute one instruction; returns its StepResult.  Faults raise.
        A run to one cycle past now, as no instruction takes 0 cycles."""
        if self.state.halted:
            raise M0EnergyError("cannot step a halted core")
        done = []
        self._execute(self.state.cycle_count + 1, done.append)
        return done[0]

    def run(self, max_cycles=10 ** 9, on_step=None):
        """Execute until halt, fault, or cycle budget; never raises mid-run.

        The budget is checked before every instruction.  `on_step`, when
        given, receives a StepResult after each completed instruction.
        """
        c = self.counters
        before = c.c1 + c.c2
        try:
            exit_reason = self._execute(max_cycles, on_step)
        except M0EnergyError as exc:
            exit_reason = "fault: %s" % exc
        return RunSummary(c.snapshot(), self.state.cycle_count, exit_reason,
                          c.c1 + c.c2 - before)

    def price(self, summary, wait_states, prefetch):
        """`summary`, this simulator's last run, from reset (it ran all of
        c1 + c2) to a halt, priced as a run under `wait_states` (0 or 1)
        and `prefetch`: each Flash block's `block_stalls` times its cold and
        warm entries, and `wait_states` per c6.  The rest is the run's own.
        Raises InvalidConfigError, as `timing_class` does, for other counts."""
        wait_states, prefetch = timing_class(wait_states, prefetch)
        c = summary.counters.snapshot()
        if summary.exit_reason != "halt" or summary.steps != c.c1 + c.c2:
            raise M0EnergyError("only a run from reset to a halt is priced")
        stalls = 0
        for b in self._blocks.values():
            if b.ran:
                cold, warm, inner = block_stalls(
                    [(e[2], e[1].size) for e in b.entries], wait_states,
                    prefetch)
                stalls += b.colds * (cold - warm) + b.ran * (warm + sum(inner))
        extra = (stalls - c.fetch_stall_cycles
                 + (wait_states - self.wait_states) * c.c6)
        c.fetch_stall_cycles = stalls
        c.total_cycles += extra
        return RunSummary(c, summary.cycle_count + extra, "halt", summary.steps)

    def _execute(self, max_cycles, on_step):
        """The engine behind run() and step(); returns the exit reason and
        raises on a fault.  Counters are folded in on every exit."""
        s = self.state
        regs = s.regs
        blocks = self._blocks
        mem, ws, c = self.mem, self.wait_states, self.counters
        args = (s, regs, c, mem.ram, mem.ram_words, mem.ram_halves,
                mem.read, mem.write)
        start_cycles = s.cycle_count
        taken_count = fetch_stalls = 0
        ran = []  # Flash blocks whose `runs` are to be folded in
        cold = regs[15] != self._warm_pc  # no sequential fetch precedes pc
        try:
            while True:
                if s.halted:
                    return "halt"
                pc = regs[15]
                now = s.cycle_count
                if now >= max_cycles:
                    return "cycle-budget"
                block = blocks.get(pc) or self._translate(pc)
                stall = block.cold if cold else block.warm
                block.colds += cold
                code = block.code
                if code is None and on_step is None and block.heat is not None:
                    block.heat += 1
                    if block.heat > COMPILE_AFTER:
                        code = self._compile(block)
                if (code is not None and on_step is None
                        and now + stall + block.worst < max_cycles):
                    try:
                        taken = code(*args, now, stall)
                    except M0EnergyError:
                        self._tally(block, stop=regs[15])
                        raise
                    cold = taken
                    taken_count += taken
                else:
                    try:
                        for (step, enc, addr, base, base_taken,
                             wait) in block.entries:
                            now = s.cycle_count
                            if now >= max_cycles:
                                self._tally(block, stop=addr)
                                return "cycle-budget"
                            stall += wait
                            c4, c5, c6 = c.c4, c.c5, c.c6
                            try:
                                taken = cold = step(self, enc, addr)
                            except M0EnergyError:  # it commits nothing
                                c.c4, c.c5, c.c6 = c4, c5, c6
                                raise
                            taken_count += taken
                            s.cycle_count += stall + ws * (c.c6 - c6) + (
                                base_taken if taken else base)
                            fetch_stalls += stall
                            if on_step is not None:
                                on_step(StepResult(
                                    enc.at(addr), s.cycle_count - now, taken,
                                    s.halted, stall,
                                    (c.c4 - c4, c.c5 - c5, c.c6 - c6)))
                            stall = 0
                    except BaseException:  # a fault, or on_step raised
                        # fold the completed ones: each took a cycle or
                        # more, and the faulting one none, so counts nothing
                        self._tally(block, stop=addr + (s.cycle_count > now))
                        raise
                if block.heat is None:  # RAM code, decoded afresh each time
                    self._tally(block)
                elif block.runs:
                    block.runs += 1
                else:
                    block.runs = 1
                    ran.append(block)
        except M0EnergyError:
            cold = True  # exception entry would empty the fetch buffer
            raise
        finally:
            self._warm_pc = None if cold else regs[15]
            for block in ran:
                self._tally(block, block.runs)
                block.ran += block.runs
                block.runs = 0
            c.c3 += taken_count
            c.fetch_stall_cycles += fetch_stalls
            c.total_cycles += s.cycle_count - start_cycles

    def _tally(self, block, times=1, stop=None):
        """Fold `times` runs of `block`, or one of its entries before address
        `stop`, into c1, c2 and the histogram."""
        c1, c2, histogram = block.counts if stop is None else dec.tally(
            e[1] for e in block.entries if e[2] < stop)
        c = self.counters
        c.c1 += c1 * times
        c.c2 += c2 * times
        for mnemonic, n in histogram.items():
            c.histogram[mnemonic] = c.histogram.get(mnemonic, 0) + n * times
