"""Span tracing of the m0energy layers, from outside the package.

`Tracer.install` replaces each traced public function with a wrapper at
every place a caller looks it up: module attributes, class attributes, and
the names `cli` binds at import.  Per-instruction boundaries run millions of
times, so spans are not kept: the tracer aggregates count, inclusive time
and self time per (name, parent).  Self time is a span's duration minus the
durations of its child spans; a child's own bookkeeping falls in the
parent's self time, so traced self times are upper bounds.
"""

import time

# span name -> [(module, class or None, function name)], one entry for every
# place a caller looks the function up.
LAYERS = {
    "cpu.run": [("cpu", "Simulator", "run")],
    "cpu.step": [("cpu", "Simulator", "step")],
    "decode": [("decode", None, "decode")],
    "memory.fetch": [("memory", "MemorySystem", "fetch")],
    "memory.stall_for": [("memory", "FetchUnit", "stall_for")],
    "memory.read": [("memory", "MemorySystem", "read")],
    "memory.write": [("memory", "MemorySystem", "write")],
    "counters.record_step": [("counters", "EventCounters", "record_step")],
    "energy.compare_configs": [("energy", None, "compare_configs"),
                               ("cli", None, "compare_configs")],
    "energy.estimate": [("energy", None, "estimate"), ("cli", None, "estimate")],
    "energy.builtin_models": [("energy", None, "builtin_models"),
                              ("cli", None, "builtin_models")],
    "energy.block_energy": [("cfg", None, "block_energy")],
    "cfg.extract_cfg": [("cfg", None, "extract_cfg")],
    "cfg.static_block_counters": [("cfg", None, "static_block_counters")],
    "cli.cmd_run": [("cli", None, "cmd_run")],
    "cli.cmd_analyze": [("cli", None, "cmd_analyze")],
    "cli.cmd_fit": [("cli", None, "cmd_fit")],
    "cli.to_json": [("cli", None, "to_json")],
    "regression.load_dataset": [("regression", None, "load_dataset")],
    "regression.fit": [("regression", None, "fit")],
    "regression.kfold_cv": [("regression", None, "kfold_cv")],
}

ROOT = "<root>"


class Tracer:
    def __init__(self, modules):
        self.modules = modules      # short name -> imported module
        self.stack = [[ROOT, 0.0, 0.0]]  # [name, start, time in children]
        self.agg = {}               # (name, parent) -> [count, incl_s, self_s]
        self.out_bytes = {}         # name -> total length of returned strings
        self.missing = []           # layer names not found in this program
        self._saved = []

    def _wrap(self, name, fn):
        stack, agg, out_bytes = self.stack, self.agg, self.out_bytes
        clock = time.perf_counter
        measure = name == "cli.to_json"

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[0] is name:   # recursion folds into the outer span
                return fn(*args, **kwargs)
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                parent[2] += dur
                rec = agg.get((name, parent[0]))
                if rec is None:
                    agg[(name, parent[0])] = [1, dur, dur - frame[2]]
                else:
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += dur - frame[2]
            if measure:
                out_bytes[name] = out_bytes.get(name, 0) + len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        self.missing = []
        for name, sites in LAYERS.items():
            owners = []
            for module, owner, attr in sites:
                obj = self.modules[module]
                if owner is not None:
                    obj = getattr(obj, owner, None)
                if obj is not None and hasattr(obj, attr):
                    owners.append((obj, attr))
            if not owners:
                self.missing.append(name)
                continue
            for obj, attr in owners:
                original = getattr(obj, attr)
                self._saved.append((obj, attr, original))
                setattr(obj, attr, self._wrap(name, original))

    def uninstall(self):
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved = []

    def reset(self):
        self.agg.clear()
        self.out_bytes.clear()

    def totals(self):
        """name -> [calls, self_s], summed over parents."""
        out = {}
        for (name, _parent), (count, _incl, self_s) in self.agg.items():
            rec = out.setdefault(name, [0, 0.0])
            rec[0] += count
            rec[1] += self_s
        return out

    def calls_under(self, name, parent):
        rec = self.agg.get((name, parent))
        return rec[0] if rec else 0

    def tree(self):
        """Aggregates per (name, parent), for the detail record."""
        return [{"name": n, "parent": p, "calls": c, "incl_s": i, "self_s": s}
                for (n, p), (c, i, s) in sorted(self.agg.items())]
