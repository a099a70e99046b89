"""Seeded workload generators, each with an oracle of its own.

A generator writes the files the `m0energy` CLI receives and returns a
`Workload`: the CLI arguments of the measured call and of the set-up call
(the same subcommand and flags on a minimal valid input), and the expected
outputs.  The expected counters c1..c6, base cycles, exit reason and r0 of a
generated kernel come from its structure (per-section counts times how often
each section runs, and a small value model of the loop body).  The simulator
is never consulted for them.

The seed changes register choices, operand values, the order of operations
and the data; it never changes how much work a workload holds, so that a
run's timing does not depend on which seed it was given.
"""

import hashlib
import json

import numpy as np

from m0energy.asm import Assembler

MASK32 = 0xFFFFFFFF
RAM_BUFFER = 0x20000100
ANALYZE_FLASH_SIZE = 0x40000

RUN_MIXED_ITERATIONS = 4000
SWEEP_ITERATIONS = 350
ANALYZE_MAIN_BLOCKS = 4500
ANALYZE_FUNCTIONS = 500
FIT_ROWS = 100_000
FIT_NOISE = 0.03

# The paper's ten models, b1..b6 in nJ/event, in its table order.  They are
# transcribed here so that energy checks do not take the coefficients from
# the program under test.
PUBLISHED = [
    ((20, False, 0), (0.964258, 1.652455, 2.091986, 1.109833, 0.650563, 0.633621)),
    ((20, False, 1), (1.282474, 2.110668, 2.191545, 1.185609, 0.416602, 1.178991)),
    ((20, True, 0), (1.003378, 1.885309, 1.802974, 1.122833, 0.849223, 0.475831)),
    ((20, True, 1), (0.895879, 2.185851, 2.001178, 1.493364, 1.076354, 1.573758)),
    ((24, False, 0), (0.959172, 1.888565, 1.357556, 1.089427, 0.993145, 0.562952)),
    ((24, False, 1), (1.178558, 2.540429, 2.042475, 1.190892, 0.979651, 0.891088)),
    ((24, True, 0), (0.985415, 1.933276, 1.448160, 1.075671, 1.011891, 0.617510)),
    ((24, True, 1), (0.883755, 2.156046, 1.633465, 1.436556, 1.152560, 1.455166)),
    ((48, False, 1), (1.096677, 2.364495, 1.627854, 1.173680, 0.681475, 0.652665)),
    ((48, True, 1), (0.816331, 2.014612, 1.372157, 1.402116, 0.835035, 1.250446)),
]


def config_label(freq, prefetch, ws):
    return "[%d, %s, %d]" % (freq, "ON" if prefetch else "OFF", ws)


BETA = {config_label(*cfg): beta for cfg, beta in PUBLISHED}

# Events of one executed instruction: c1..c6 and base cycles, after the
# documented timing table (data processing 1, MULS 1, load/store 2,
# PUSH/POP 1+N, taken branch 3, not taken 1, BL 4, BX 3, BKPT 1).
DP = (1, 0, 0, 0, 0, 0, 1)
MUL = (0, 1, 0, 0, 0, 0, 1)
LDR_RAM = (1, 0, 0, 1, 0, 0, 2)
STR_RAM = (1, 0, 0, 0, 1, 0, 2)
LIT = (1, 0, 0, 0, 0, 1, 2)
BL = (1, 0, 1, 0, 0, 0, 4)
BX = (1, 0, 1, 0, 0, 0, 3)
TAKEN = (1, 0, 1, 0, 0, 0, 3)
NOT_TAKEN = (1, 0, 0, 0, 0, 0, 1)
BKPT = (1, 0, 0, 0, 0, 0, 1)


def push_cost(n):
    return (1, 0, 0, 0, n, 0, 1 + n)


def pop_cost(n, pc=False):
    words = n + (1 if pc else 0)
    return (1, 0, 1 if pc else 0, words, 0, 0, 1 + words)


def vsum(*terms):
    """Sum of (multiplier, vector) pairs."""
    out = [0] * 7
    for k, vec in terms:
        for i, v in enumerate(vec):
            out[i] += k * v
    return out


class Workload:
    """Generated inputs, the CLI calls that use them, and their oracle."""

    def __init__(self, name, argv, setup_argv, files):
        self.name = name
        self.argv = argv
        self.setup_argv = setup_argv
        self.files = files          # file name -> bytes, written by write()
        self.work_items = 0         # instructions, blocks or rows per call

    def write(self, directory):
        for fname, data in self.files.items():
            (directory / fname).write_bytes(data)

    def check(self, report, expected=None):
        """Errors found in a parsed report of the measured call."""
        raise NotImplementedError

    def check_setup(self, report):
        raise NotImplementedError

    def mutated(self):
        """A deliberately wrong expectation, for the self-check."""
        raise NotImplementedError

    def sim_stats(self, report):
        """Simulated statistics per config (empty when nothing runs)."""
        return []


def digest(data):
    return hashlib.sha256(data).hexdigest()


def verify(workload, data, expected=None):
    """Errors in the raw stdout bytes of a measured call."""
    try:
        report = json.loads(data)
    except ValueError as exc:
        return ["report is not JSON: %s" % exc]
    try:
        return workload.check(report, expected)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return ["report has the wrong shape: %r" % exc]


def _close(a, b, tol=2e-6):
    return abs(a - b) <= tol * max(1.0, abs(b))


def _tiny_image():
    a = Assembler()
    a.movs(0, 1)
    a.bkpt()
    return a.image()


# -- kernels that run -------------------------------------------------------

class Emitter:
    """Assembler front end that adds each emitted instruction's events to a
    tally, so a section's per-execution cost is known by construction."""

    def __init__(self):
        self.asm = Assembler()
        self.tally = [0] * 7

    def section(self):
        self.tally = [0] * 7
        return self.tally

    def __call__(self, cost, method, *args):
        getattr(self.asm, method)(*args)
        for i, v in enumerate(cost):
            self.tally[i] += v


class RunKernel(Workload):
    """A kernel simulated under one or all ten configurations."""

    def __init__(self, name, argv, setup_argv, files, image_name, configs,
                 expected):
        super().__init__(name, argv, setup_argv, files)
        self.image_name = image_name
        self.configs = configs      # [(freq, prefetch, ws)] in report order
        self.expected = expected    # {"c": [c1..c6], "base": n, "r0": n}
        self.work_items = len(configs) * (expected["c"][0] + expected["c"][1])

    def mutated(self):
        wrong = dict(self.expected, c=list(self.expected["c"]))
        wrong["c"][0] += 1
        return wrong

    def _runs(self, report):
        return report["runs"] if len(self.configs) > 1 else [report]

    def check(self, report, expected=None):
        exp = expected or self.expected
        errors = []
        image = report["image"]
        if image["name"] != self.image_name or \
                image["sha256"] != digest(self.files[self.image_name]):
            errors.append("image name or sha256 differs")
        runs = self._runs(report)
        if len(runs) != len(self.configs):
            return errors + ["%d runs, expected %d" % (len(runs), len(self.configs))]
        cycles_by_class = {}
        for (freq, prefetch, ws), run in zip(self.configs, runs):
            label = config_label(freq, prefetch, ws)
            errors += ["%s: %s" % (label, e)
                       for e in self._check_run(run, exp, freq, prefetch, ws)]
            cls = (prefetch, ws) if ws else "ws0"
            cycles_by_class.setdefault(cls, set()).add(run["cycles"])
        for cls, values in cycles_by_class.items():
            if len(values) != 1:
                errors.append("cycles differ within timing class %s" % (cls,))
        if len(self.configs) > 1:
            errors += self._check_comparison(report["comparison"], runs)
        return errors

    def _check_run(self, run, exp, freq, prefetch, ws):
        errors = []
        cfg = run["config"]
        if (cfg["frequency_mhz"], cfg["prefetch"], cfg["wait_states"],
                cfg["label"]) != (freq, "on" if prefetch else "off", ws,
                                  config_label(freq, prefetch, ws)):
            errors.append("config %r" % cfg)
        if run["exit_reason"] != "halt":
            errors.append("exit reason %r" % run["exit_reason"])
        if run["result_r0"] != exp["r0"]:
            errors.append("r0 %r, expected %r" % (run["result_r0"], exp["r0"]))
        if run["output"] != "":
            errors.append("unexpected debug output")
        ctr = run["counters"]
        got = [ctr["c%d" % i] for i in range(1, 7)]
        if got != exp["c"]:
            errors.append("c1..c6 %r, expected %r" % (got, exp["c"]))
        if sum(ctr["histogram"].values()) != exp["c"][0] + exp["c"][1]:
            errors.append("histogram total differs from c1+c2")
        stall = ctr["fetch_stall_cycles"]
        want = exp["base"] + stall + ws * exp["c"][5]
        if run["cycles"] != want or ctr["total_cycles"] != want:
            errors.append("cycles %r, expected base+fetch stall+data stall %r"
                          % (run["cycles"], want))
        if (stall == 0) != (ws == 0):
            errors.append("fetch stalls %r at %d wait states" % (stall, ws))
        if not _close(run["wall_time_us"], run["cycles"] / freq):
            errors.append("wall_time_us")
        beta = BETA[config_label(freq, prefetch, ws)]
        energy = [e["energy_nj"] for e in run["energy_nj"]]
        if len(energy) != 1 or not _close(
                energy[0], sum(b * c for b, c in zip(beta, exp["c"])), 1e-9):
            errors.append("energy %r" % energy)
        return errors

    def _check_comparison(self, rows, runs):
        errors = []
        by_label = {r["config"]["label"]: r for r in runs}
        if sorted(r["config"] for r in rows) != sorted(by_label):
            return ["comparison does not cover the ten configs"]
        keys = [(r["energy_nj"], r["time_us"]) for r in rows]
        if keys != sorted(keys):
            errors.append("comparison is not ranked by energy")
        for row in rows:
            run = by_label[row["config"]]
            if not _close(row["energy_nj"], run["energy_nj"][0]["energy_nj"]) \
                    or not _close(row["time_us"], run["wall_time_us"]):
                errors.append("comparison row %s" % row["config"])
        return errors

    def check_setup(self, report):
        return [] if all(r["exit_reason"] == "halt" and r["result_r0"] == 1
                         for r in self._runs(report)) else ["set-up run"]

    def sim_stats(self, report):
        return [{"config": r["config"]["label"], "cycles": r["cycles"],
                 **{"c%d" % i: r["counters"]["c%d" % i] for i in range(1, 7)},
                 "fetch_stall_cycles": r["counters"]["fetch_stall_cycles"]}
                for r in self._runs(report)]


def _mixed_body(rng):
    """One loop body: a fixed multiset of operations in seeded order with
    seeded registers, offsets and constants."""
    kinds = (["adds"] * 3 + ["subs"] * 2 + ["eors"] * 2 + ["ands"] * 2
             + ["orrs", "lsls", "lsls", "lsrs", "addi"] + ["muls"] * 4
             + ["str"] * 4 + ["ldr"] * 4 + ["lit"] * 3 + ["acc"] * 3
             + ["pushpop"] * 2)
    rng.shuffle(kinds)
    ops = []

    def two():
        d, m = rng.choice([1, 2, 3, 4, 5], 2, replace=False)
        return int(d), int(m)

    for kind in kinds:
        if kind in ("adds", "subs"):
            d, m = two()
            ops.append((kind, d, int(rng.integers(1, 6)), m))
        elif kind in ("eors", "ands", "orrs", "muls"):
            ops.append((kind,) + two())
        elif kind in ("lsls", "lsrs"):
            ops.append((kind,) + two() + (int(rng.integers(1, 32)),))
        elif kind == "addi":
            ops.append((kind, two()[0], int(rng.integers(1, 256))))
        elif kind in ("str", "ldr"):
            ops.append((kind, two()[0], 4 * int(rng.integers(0, 32))))
        elif kind == "lit":
            ops.append((kind, two()[0], int(rng.integers(0, 1 << 32))))
        elif kind == "acc":
            ops.append((kind, two()[0]))
        else:
            ops.append(("push", tuple(sorted(two()))))
            ops.append(("eors",) + two())
            ops.append(("pop", tuple(sorted(two()))))
    return ops


def _emit_mixed(em, ops):
    for i, op in enumerate(ops):
        kind = op[0]
        if kind in ("adds", "subs"):
            em(DP, kind + "_reg", op[1], op[2], op[3])
        elif kind in ("eors", "ands", "orrs"):
            em(DP, kind, op[1], op[2])
        elif kind == "muls":
            em(MUL, "muls", op[1], op[2])
        elif kind in ("lsls", "lsrs"):
            em(DP, kind + "_imm", op[1], op[2], op[3])
        elif kind == "addi":
            em(DP, "adds_imm8", op[1], op[2])
        elif kind == "str":
            em(STR_RAM, "str_imm", op[1], 6, op[2])
        elif kind == "ldr":
            em(LDR_RAM, "ldr_imm", op[1], 6, op[2])
        elif kind == "lit":
            em(LIT, "ldr_lit", op[1], "lit%d" % i)
        elif kind == "acc":
            em(DP, "adds_reg", 0, 0, op[1])
        elif kind == "push":
            em(push_cost(2), "push", list(op[1]))
        else:
            em(pop_cost(2), "pop", list(op[1]))


def _eval_mixed(ops, regs, iterations):
    """Value model of the loop body; returns r0 after `iterations` passes."""
    mem = {}
    stack = []
    for _ in range(iterations):
        for op in ops:
            kind = op[0]
            if kind == "adds":
                regs[op[1]] = (regs[op[2]] + regs[op[3]]) & MASK32
            elif kind == "subs":
                regs[op[1]] = (regs[op[2]] - regs[op[3]]) & MASK32
            elif kind == "eors":
                regs[op[1]] ^= regs[op[2]]
            elif kind == "ands":
                regs[op[1]] &= regs[op[2]]
            elif kind == "orrs":
                regs[op[1]] |= regs[op[2]]
            elif kind == "muls":
                regs[op[1]] = (regs[op[1]] * regs[op[2]]) & MASK32
            elif kind == "lsls":
                regs[op[1]] = (regs[op[2]] << op[3]) & MASK32
            elif kind == "lsrs":
                regs[op[1]] = regs[op[2]] >> op[3]
            elif kind == "addi":
                regs[op[1]] = (regs[op[1]] + op[2]) & MASK32
            elif kind == "str":
                mem[op[2]] = regs[op[1]]
            elif kind == "ldr":
                regs[op[1]] = mem.get(op[2], 0)
            elif kind == "lit":
                regs[op[1]] = op[2]
            elif kind == "acc":
                regs[0] = (regs[0] + regs[op[1]]) & MASK32
            elif kind == "push":
                stack.append([regs[r] for r in op[1]])
            else:
                for r, v in zip(op[1], stack.pop()):
                    regs[r] = v
    return regs[0]


def gen_run_mixed(seed):
    rng = np.random.default_rng([seed, 1])
    n = RUN_MIXED_ITERATIONS
    em = Emitter()
    prologue = em.section()
    em(DP, "movs", 0, 0)
    em(LIT, "ldr_lit", 7, "n_iter")
    em(LIT, "ldr_lit", 6, "ram_buffer")
    regs = [0] * 8
    for r in range(1, 6):
        regs[r] = int(rng.integers(0, 256))
        em(DP, "movs", r, regs[r])
    ops = _mixed_body(rng)
    em.asm.label("loop")
    body = em.section()
    _emit_mixed(em, ops)
    em(DP, "subs_imm8", 7, 1)
    em.asm.bne("loop")
    em.asm.bkpt()
    em.asm.word(n, "n_iter")
    em.asm.word(RAM_BUFFER, "ram_buffer")
    for i, op in enumerate(ops):
        if op[0] == "lit":
            em.asm.word(op[2], "lit%d" % i)
    total = vsum((1, prologue), (n, body), (n - 1, TAKEN), (1, NOT_TAKEN),
                 (1, BKPT))
    expected = {"c": total[:6], "base": total[6],
                "r0": _eval_mixed(ops, regs, n)}
    config = (24, True, 1)
    return RunKernel(
        "run_mixed",
        ["run", "--freq", "24", "--prefetch", "on", "--waitstates", "1",
         "mixed.bin"],
        ["run", "--freq", "24", "--prefetch", "on", "--waitstates", "1",
         "tiny.bin"],
        {"mixed.bin": em.asm.image(), "tiny.bin": _tiny_image()},
        "mixed.bin", [config], expected)


def gen_sweep_branchy(seed):
    """Main loop of call sites and conditional skips.  Leaf functions load a
    Flash literal and return with BX lr; mid functions push {r4, lr}, call a
    leaf and return with POP {r4, pc}.  Conditional sites test bits of the
    loop counter, so each branch is taken on some iterations only."""
    rng = np.random.default_rng([seed, 2])
    n = SWEEP_ITERATIONS
    n_leaf, n_mid = 4, 3
    leaf_k = [int(k) for k in rng.integers(0, 1 << 32, n_leaf)]
    mid_v = [int(v) for v in rng.integers(0, 256, n_mid)]
    mid_leaf = [int(j) for j in rng.integers(0, n_leaf, n_mid)]
    sites = ["leaf"] * 4 + ["mid"] * 2 + ["cond"] * 4
    rng.shuffle(sites)

    em = Emitter()
    prologue = em.section()
    em(DP, "movs", 0, 0)
    em(LIT, "ldr_lit", 7, "n_iter")
    em.asm.label("loop")
    fixed = em.section()            # per iteration, whatever the branches do
    plan = []                       # per site: (kind, data)
    for i, kind in enumerate(sites):
        if kind == "leaf":
            j = int(rng.integers(0, n_leaf))
            em(BL, "bl", "leaf%d" % j)
            plan.append(("leaf", j))
        elif kind == "mid":
            j = int(rng.integers(0, n_mid))
            em(BL, "bl", "mid%d" % j)
            plan.append(("mid", j))
        else:
            mask = int(rng.integers(1, 8))
            skip_if_zero = bool(rng.integers(0, 2))
            imm = int(rng.integers(1, 256))
            em(DP, "movs", 1, mask)
            em(DP, "tst", 7, 1)
            em.asm.b("skip%d" % i, "eq" if skip_if_zero else "ne")
            em.asm.adds_imm8(0, imm)
            em.asm.label("skip%d" % i)
            plan.append(("cond", (mask, skip_if_zero, imm)))
    em(DP, "subs_imm8", 7, 1)
    em.asm.bne("loop")
    em.asm.bkpt()
    em.asm.word(n, "n_iter")
    leaf_cost = []
    for j in range(n_leaf):
        em.asm.label("leaf%d" % j)
        leaf_cost.append(em.section())
        em(LIT, "ldr_lit", 2, "k%d" % j)
        em(DP, "adds_reg", 0, 0, 2)
        em(BX, "bx", 14)
        em.asm.word(leaf_k[j], "k%d" % j)
    mid_cost = []
    for j in range(n_mid):
        em.asm.label("mid%d" % j)
        mid_cost.append(em.section())
        em(push_cost(2), "push", [4], True)
        em(DP, "movs", 4, mid_v[j])
        em(DP, "adds_reg", 0, 0, 4)
        em(BL, "bl", "leaf%d" % mid_leaf[j])
        em(pop_cost(1, pc=True), "pop", [4], True)

    total = vsum((1, prologue), (n, fixed), (n - 1, TAKEN), (1, NOT_TAKEN),
                 (1, BKPT))
    r0 = 0
    for v in range(n, 0, -1):       # r7 holds v during the body
        for kind, data in plan:
            if kind == "leaf":
                total = vsum((1, total), (1, leaf_cost[data]))
                r0 += leaf_k[data]
            elif kind == "mid":
                total = vsum((1, total), (1, mid_cost[data]),
                             (1, leaf_cost[mid_leaf[data]]))
                r0 += mid_v[data] + leaf_k[mid_leaf[data]]
            else:
                mask, skip_if_zero, imm = data
                if ((v & mask) == 0) == skip_if_zero:
                    total = vsum((1, total), (1, TAKEN))
                else:
                    total = vsum((1, total), (1, NOT_TAKEN), (1, DP))
                    r0 += imm
    expected = {"c": total[:6], "base": total[6], "r0": r0 & MASK32}
    return RunKernel("sweep_branchy", ["run", "--sweep", "branchy.bin"],
                     ["run", "--sweep", "tiny.bin"],
                     {"branchy.bin": em.asm.image(), "tiny.bin": _tiny_image()},
                     "branchy.bin", [cfg for cfg, _ in PUBLISHED], expected)


# -- static analysis ----------------------------------------------------------

class AnalyzeImage(Workload):
    def __init__(self, files, blocks):
        super().__init__(
            "analyze_large",
            ["analyze", "--flash-size", hex(ANALYZE_FLASH_SIZE), "large.bin"],
            ["analyze", "--flash-size", hex(ANALYZE_FLASH_SIZE), "tiny.bin"],
            files)
        # expected blocks in address order; successors name block indices
        self.blocks = blocks
        self.work_items = len(blocks)

    def mutated(self):
        wrong = [dict(b) for b in self.blocks]
        wrong[0]["c1"] += 1
        return wrong

    def check(self, report, expected=None):
        exp = expected or self.blocks
        errors = []
        if report["image"]["sha256"] != digest(self.files["large.bin"]):
            errors.append("image sha256 differs")
        got = report["blocks"]
        if len(got) != len(exp):
            return errors + ["%d blocks, expected %d" % (len(got), len(exp))]
        starts = [b["start"] for b in got]
        index = {s: i for i, s in enumerate(starts)}
        if report["entry"] != starts[0]:
            errors.append("entry is not the first block")
        for b, e in zip(got, exp):
            errs = self._check_block(b, e, index)
            errors += ["block %s: %s" % (b["start"], x) for x in errs]
            if len(errors) > 20:
                break
        return errors

    @staticmethod
    def _check_block(b, e, index):
        errors = []
        loads, stores = e["unresolved_loads"], e["unresolved_stores"]
        want = {"c1": e["c1"], "c2": e["c2"], "c3": 0,
                "c4": "unknown" if loads else e["c4"],
                "c5": "unknown" if stores else e["c5"],
                "c6": "unknown" if loads else e["c6"],
                "unresolved_loads": loads, "unresolved_stores": stores}
        if b["counts"] != want:
            errors.append("counts %r, expected %r" % (b["counts"], want))
        if len(b["instructions"]) != e["n"]:
            errors.append("%d instructions, expected %d"
                          % (len(b["instructions"]), e["n"]))
        succ = [(None if s["target"] is None else index.get(s["target"], "?"),
                 s["kind"]) for s in b["successors"]]
        if succ != e["succ"]:
            errors.append("successors %r" % b["successors"])
        for label, beta in BETA.items():
            point = (beta[0] * e["c1"] + beta[1] * e["c2"] + beta[3] * e["c4"]
                     + beta[4] * e["c5"] + beta[5] * e["c6"])
            got = b["energy_nj"][label]
            if loads or stores:
                lo = point + loads * min(beta[3], beta[5])
                hi = point + loads * max(beta[3], beta[5]) + stores * beta[4]
                ok = _close(got["lo"], lo) and _close(got["hi"], hi)
            else:
                ok = _close(got, point)
            if not ok:
                errors.append("energy under %s: %r" % (label, got))
        return errors

    def check_setup(self, report):
        return [] if len(report["blocks"]) == 1 else ["set-up analysis"]


def gen_analyze_large(seed):
    """A chain of blocks, each ending in a forward BEQ two blocks ahead, a
    BL to one of the functions, or a B over its own literal pool; then the
    functions, half ending in POP {r4, pc} and half in BX lr over a pool.
    Every block is reachable and every branch target starts a block."""
    rng = np.random.default_rng([seed, 3])
    n_main, n_fun = ANALYZE_MAIN_BLOCKS, ANALYZE_FUNCTIONS
    ends = (["beq"] * (n_main * 2 // 5) + ["bl"] * (n_main // 4))
    ends += ["b"] * (n_main - 1 - len(ends))
    rng.shuffle(ends)
    for i in (n_main - 3, n_main - 2):  # BEQ two ahead must land on a block
        if ends[i] == "beq":
            ends[i] = "b"
    ends.append("bkpt")
    lengths = np.resize(np.arange(1, 7), n_main + n_fun)
    rng.shuffle(lengths)
    body_kinds = np.resize(np.array(["dp"] * 10 + ["mul"] * 2 + ["ldr"] * 2
                                    + ["str"] * 2 + ["ldr_sp"] * 2
                                    + ["str_sp"] * 2), int(lengths.sum()))
    rng.shuffle(body_kinds)
    callees = np.resize(np.arange(n_fun), ends.count("bl"))
    rng.shuffle(callees)

    a = Assembler()
    blocks = []
    slot = 0

    def body(count):
        nonlocal slot
        e = {"c1": 0, "c2": 0, "c4": 0, "c5": 0, "c6": 0,
             "unresolved_loads": 0, "unresolved_stores": 0, "n": 0}
        for kind in body_kinds[slot:slot + count]:
            r = int(rng.integers(0, 4))
            if kind == "mul":
                a.muls(r, r + 1)
                e["c2"] += 1
            else:
                e["c1"] += 1
                if kind == "dp":
                    a.adds_reg(r, r + 1, r + 2)
                elif kind == "ldr":
                    a.ldr_imm(r, r + 1, 4)
                    e["unresolved_loads"] += 1
                elif kind == "str":
                    a.str_imm(r, r + 1, 8)
                    e["unresolved_stores"] += 1
                elif kind == "ldr_sp":
                    a.ldr_sp(r, 4)
                    e["c4"] += 1
                else:
                    a.str_sp(r, 4)
                    e["c5"] += 1
        slot += count
        e["n"] = count
        return e

    def add(e, ins, c1=1, c4=0, c5=0, c6=0):
        e["n"] += ins
        e["c1"] += c1
        e["c4"] += c4
        e["c5"] += c5
        e["c6"] += c6

    calls = iter(callees)
    for i, end in enumerate(ends):
        a.label("m%d" % i)
        e = body(int(lengths[i]))
        if end == "beq":
            a.beq("m%d" % (i + 2))
            add(e, 1)
            e["succ"] = [(i + 2, "taken"), (i + 1, "fallthrough")]
        elif end == "bl":
            callee = int(next(calls))
            a.bl("f%d" % callee)
            add(e, 1)
            e["succ"] = [(n_main + callee, "call"), (i + 1, "fallthrough")]
        elif end == "b":
            lits = 1 + i % 2
            for k in range(lits):
                a.ldr_lit(int(rng.integers(0, 8)), "p%d_%d" % (i, k))
            a.b("m%d" % (i + 1))
            add(e, lits + 1, c1=lits + 1, c6=lits)
            for k in range(lits):
                a.word(int(rng.integers(0, 1 << 32)), "p%d_%d" % (i, k))
            e["succ"] = [(i + 1, "taken")]
        else:
            a.bkpt()
            add(e, 1)
            e["succ"] = []
        blocks.append(e)
    for j in range(n_fun):
        a.label("f%d" % j)
        if j % 2:
            a.push([4], True)
            e = body(int(lengths[n_main + j]))
            add(e, 1, c5=2)
            a.pop([4], True)
            add(e, 1, c4=2)
        else:
            e = body(int(lengths[n_main + j]))
            a.ldr_lit(5, "q%d" % j)
            a.bx(14)
            add(e, 2, c1=2, c6=1)
            a.word(int(rng.integers(0, 1 << 32)), "q%d" % j)
        e["succ"] = [(None, "return")]
        blocks.append(e)
    return AnalyzeImage({"large.bin": a.image(), "tiny.bin": _tiny_image()},
                        blocks)


# -- model fitting ------------------------------------------------------------

class FitDataset(Workload):
    def __init__(self, files, counts, energies, true_beta):
        super().__init__("fit_large", ["fit", "--kfold", "10", "data.csv"],
                         ["fit", "--kfold", "10", "tiny.csv"], files)
        self.rows = len(energies)
        self.work_items = self.rows
        self.true_beta = true_beta
        beta = np.linalg.lstsq(counts, energies, rcond=None)[0]
        pred = counts @ beta
        rel = (pred - energies) * 100.0 / energies
        ss_res = float(np.sum((energies - pred) ** 2))
        ss_tot = float(np.sum((energies - energies.mean()) ** 2))
        self.expected = {"rows": self.rows, "beta": [float(b) for b in beta],
                         "mape": float(np.mean(np.abs(rel))),
                         "resd": float(np.std(rel)),
                         "r2": 1.0 - ss_res / ss_tot}

    def mutated(self):
        return dict(self.expected, rows=self.rows + 1)

    def check(self, report, expected=None):
        exp = expected or self.expected
        errors = []
        if report["dataset"] != {"path": "data.csv", "rows": exp["rows"]}:
            errors.append("dataset %r" % report["dataset"])
        fit = report["fit"]
        for b, want, true in zip(fit["beta"], exp["beta"], self.true_beta):
            if not _close(b, want, 1e-5):
                errors.append("beta %r, least squares gives %r" % (b, want))
            if abs(b - true) > 0.05 * true:
                errors.append("beta %r far from the generating %r" % (b, true))
        for key in ("mape", "resd", "r2"):
            if not _close(fit[key], exp[key], 1e-5):
                errors.append("%s %r, expected %r" % (key, fit[key], exp[key]))
        if fit["warnings"]:
            errors.append("warnings %r" % fit["warnings"])
        cv = report["cv"]
        r2s = [f["r2"] for f in cv["folds"]]
        if (cv["k"], cv["seed"], [f["fold"] for f in cv["folds"]]) != \
                (10, 0, list(range(10))):
            errors.append("cv layout")
        elif min(r2s) < 0.9 or not _close(cv["mean_r2"], sum(r2s) / 10, 1e-5):
            errors.append("cv scores %r" % r2s)
        return errors

    def check_setup(self, report):
        return [] if report["dataset"]["rows"] == 20 else ["set-up fit"]


def _fit_rows(rng, n, beta):
    c1 = rng.integers(20_000, 2_000_000, n)
    shares = rng.uniform([0.0, 0.02, 0.0, 0.0, 0.0], [0.1, 0.2, 0.3, 0.2, 0.1],
                         (n, 5))
    counts = np.column_stack([c1, np.rint(shares * c1[:, None])]).astype(float)
    noise = np.clip(rng.normal(1.0, FIT_NOISE, n), 0.85, 1.15)
    energies = np.round(counts @ np.array(beta) * noise, 6)
    return counts, energies


def _csv(counts, energies):
    lines = ["c1,c2,c3,c4,c5,c6,energy_nj"]
    lines += ["%d,%d,%d,%d,%d,%d,%.6f" % (*row, e)
              for row, e in zip(counts.tolist(), energies.tolist())]
    return ("\n".join(lines) + "\n").encode()


def gen_fit_large(seed):
    """Rows drawn from one published model (chosen by the seed) plus 3 %
    multiplicative noise, as a lab's measured runs would be."""
    rng = np.random.default_rng([seed, 4])
    beta = PUBLISHED[seed % len(PUBLISHED)][1]
    counts, energies = _fit_rows(rng, FIT_ROWS, beta)
    tiny_counts, tiny_energies = _fit_rows(rng, 20, beta)
    files = {"data.csv": _csv(counts, energies),
             "tiny.csv": _csv(tiny_counts, tiny_energies)}
    return FitDataset(files, counts, energies, beta)


GENERATORS = {
    "run_mixed": gen_run_mixed,
    "sweep_branchy": gen_sweep_branchy,
    "analyze_large": gen_analyze_large,
    "fit_large": gen_fit_large,
}

