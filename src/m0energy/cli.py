"""Command-line driver: simulate, statically analyze, and fit models.

Subcommands:
    run      simulate a flat binary and report counters + energy
    analyze  static basic-block report with per-model energy
    fit      fit a model from a counters/energy CSV, with k-fold CV

`run --sweep` reports all ten built-in configurations but simulates once
per timing class (`memory.timing_class`): WS0, WS1 with prefetch off and
WS1 with prefetch on.  Configurations in a class run identically, so each
gets its class's run; its frequency sets only the wall time, and its model
the energy and the ranking.  With `--model-file` the file's models set
both, and `comparison` ranks only the configurations the file covers.

Reports are JSON by default, with a fixed field order and floats rendered
at six decimal places so identical inputs produce byte-identical output.
Exit codes: 0 completed halt, 1 fault, analysis/fit failure or a trace or
report that cannot be written, 2 usage.
"""

import argparse
import hashlib
import math
import os
import re
import sys

from . import cfg as cfgmod
from .cpu import Simulator
from .energy import (HardwareConfig, builtin_configs, builtin_model,
                     builtin_models, compare_configs, estimate, load_models,
                     save_models, EnergyModel)
from .errors import (AnalysisError, BadEntryError, DatasetError,
                     InvalidConfigError, M0EnergyError, MalformedImageError)
from .memory import (DEFAULT_FLASH_SIZE, DEFAULT_RAM_SIZE, MemorySystem,
                     timing_class)

MAX_CYCLES_DEFAULT = 10 ** 9


# -- deterministic JSON ---------------------------------------------------

def to_json(obj, indent=0):
    """JSON with floats fixed at 6 decimals and stable field order."""
    return (_WRITERS.get(type(obj)) or _writer_for(obj))(obj, indent)


def _writer_for(obj):
    """The writer for a subclass of a written type, checked in this order."""
    for base in (bool, int, float, str, dict, list, tuple):
        if isinstance(obj, base):
            return _WRITERS[base]
    raise TypeError("cannot serialize %r" % type(obj))


_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f]')
_ESCAPES = {'"': '\\"', "\\": "\\\\", **{chr(i): "\\u%04x" % i for i in range(32)}}


def _json_str(obj, indent=0):
    if _NEEDS_ESCAPE.search(obj) is None:
        return '"' + obj + '"'
    return '"' + _NEEDS_ESCAPE.sub(lambda m: _ESCAPES[m.group()], obj) + '"'


# exact-str key -> its encoded '"key": ' prefix.  A report repeats a few
# dozen keys; a str subclass may render differently, so it is never cached.
_KEY_PREFIXES = {}


def _json_dict(obj, indent):
    pad = "  " * indent
    get, indent = _WRITERS.get, indent + 1
    prefixes, search, isfinite = _KEY_PREFIXES, _NEEDS_ESCAPE.search, math.isfinite
    items = []
    append = items.append
    for k, v in obj.items():
        if type(k) is str:
            key = prefixes.get(k)
            if key is None:
                key = _json_str(k) + ": "
                if len(prefixes) < 4096:  # bounds a long-lived process
                    prefixes[k] = key
        else:
            key = _json_str(str(k)) + ": "
        t = type(v)
        if t is str:
            append(key + ('"' + v + '"' if search(v) is None else _json_str(v)))
        elif t is float:
            append(key + ("%.6f" % v if isfinite(v) else "null"))
        elif t is int:
            append(key + str(v))
        else:
            append(key + (get(t) or _writer_for(v))(v, indent))
    return ("{\n  " + pad + (",\n  " + pad).join(items) + "\n" + pad + "}"
            if items else "{}")


def _json_list(obj, indent):
    pad = "  " * indent
    get, indent = _WRITERS.get, indent + 1
    search, isfinite = _NEEDS_ESCAPE.search, math.isfinite
    items = []
    append = items.append
    for v in obj:
        t = type(v)
        if t is str:
            append('"' + v + '"' if search(v) is None else _json_str(v))
        elif t is float:
            append("%.6f" % v if isfinite(v) else "null")
        elif t is int:
            append(str(v))
        else:
            append((get(t) or _writer_for(v))(v, indent))
    return ("[\n  " + pad + (",\n  " + pad).join(items) + "\n" + pad + "]"
            if items else "[]")


_WRITERS = {
    type(None): lambda obj, indent: "null",
    bool: lambda obj, indent: "true" if obj else "false",
    int: lambda obj, indent: str(obj),
    float: lambda obj, indent: "%.6f" % obj if math.isfinite(obj) else "null",
    str: _json_str, dict: _json_dict, list: _json_list, tuple: _json_list}


def render_text(obj, indent=0):
    """Plain-text rendering of a report for --format text."""
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list, tuple)):
                lines.append("%s%s:" % (pad, k))
                lines.extend(render_text(v, indent + 1))
            else:
                lines.append("%s%s: %s" % (pad, k, _scalar_text(v)))
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            if isinstance(v, (dict, list, tuple)):
                lines.append("%s-" % pad)
                lines.extend(render_text(v, indent + 1))
            else:
                lines.append("%s- %s" % (pad, _scalar_text(v)))
    else:
        lines.append("%s%s" % (pad, _scalar_text(obj)))
    return lines


def _scalar_text(v):
    if isinstance(v, float):
        return "%.6f" % v
    if v is None:
        return "-"
    return str(v)


def _emit(report, fmt, command, code=0):
    """Print the report and return the exit code `code`, or 1 with a
    message when stdout cannot be written."""
    try:
        print("\n".join(render_text(report)) if fmt == "text"
              else to_json(report))
        sys.stdout.flush()
    except OSError as exc:
        sys.stdout = None  # so the interpreter does not flush it again
        print("%s error: cannot write report: %s" % (command, exc),
              file=sys.stderr)
        return 1
    return code


# -- shared report pieces -------------------------------------------------

def _image_info(path, data):
    return {"name": os.path.basename(path),
            "sha256": hashlib.sha256(data).hexdigest()}


def _config_dict(config):
    return {"frequency_mhz": config.frequency_mhz,
            "prefetch": "on" if config.prefetch else "off",
            "wait_states": config.wait_states,
            "label": config.label()}


def _counters_dict(counters):
    return {"c1": counters.c1, "c2": counters.c2, "c3": counters.c3,
            "c4": counters.c4, "c5": counters.c5, "c6": counters.c6,
            "total_cycles": counters.total_cycles,
            "fetch_stall_cycles": counters.fetch_stall_cycles,
            "histogram": {k: counters.histogram[k]
                          for k in sorted(counters.histogram)}}


def _trace_line(step):
    ram_r = ram_w = flash_r = 0
    for _addr, _size, rw, region in step.data_accesses:
        if region == "ram":
            if rw == "r":
                ram_r += 1
            else:
                ram_w += 1
        elif region == "flash":
            flash_r += 1
    return "%08X  %-28s cycles=%d taken=%d ram_r=%d ram_w=%d flash_r=%d" % (
        step.instruction.addr, step.instruction.text, step.cycles,
        1 if step.branch_taken else 0, ram_r, ram_w, flash_r)


# -- run --------------------------------------------------------------------

def _simulate(data, config, args, trace_fh=None):
    sim = Simulator(data, wait_states=config.wait_states,
                    prefetch=config.prefetch, flash_size=args.flash_size,
                    ram_size=args.ram_size)
    if args.entry is not None:
        sim.state.pc = args.entry
    on_step = None
    if trace_fh is not None:
        on_step = lambda step: trace_fh.write(_trace_line(step) + "\n")
    summary = sim.run(max_cycles=args.max_cycles, on_step=on_step)
    return sim, summary


def _energy_entries(config, counters, model_file_models):
    if model_file_models is None:
        models = [builtin_model(config)]
    else:
        models = [m for m in model_file_models if m.config == config]
    return [{"provenance": m.provenance, "config": m.config.label(),
             "energy_nj": estimate(counters, m)} for m in models]


def _run_report(path, data, config, sim, summary, model_file_models):
    counters = summary.counters
    return {
        "image": _image_info(path, data),
        "config": _config_dict(config),
        "exit_reason": summary.exit_reason,
        "cycles": summary.cycle_count,
        "wall_time_us": summary.cycle_count / config.frequency_mhz,
        "result_r0": sim.state.regs[0],
        "output": sim.mem.debug_output.decode("latin-1"),
        "counters": _counters_dict(counters),
        "energy_nj": _energy_entries(config, counters, model_file_models),
    }


def cmd_run(args, parser):
    if args.max_cycles < 0:
        parser.error("--max-cycles must be >= 0, got %d" % args.max_cycles)
    data = _read_image(args.image, parser)
    try:
        return _run(args, parser, data)
    except (MalformedImageError, BadEntryError) as exc:
        print("run error: %s" % exc, file=sys.stderr)
        return 1


def _run(args, parser, data):
    model_file_models = None
    if args.model_file:
        try:
            model_file_models = load_models(args.model_file)
        except (OSError, InvalidConfigError) as exc:
            parser.error(str(exc))

    if args.sweep:
        if args.trace:
            parser.error("--trace cannot be combined with --sweep")
        reports = []
        results = {}  # the ranked configurations
        ok = True
        runs = {}  # timing class -> (sim, summary), shared by its configs
        for config in builtin_configs():
            key = timing_class(config.wait_states, config.prefetch)
            if key not in runs:
                runs[key] = _simulate(data, config, args)
            sim, summary = runs[key]
            reports.append(_run_report(args.image, data, config, sim, summary,
                                       model_file_models))
            if model_file_models is None or any(
                    m.config == config for m in model_file_models):
                results[config] = (summary.counters, summary.cycle_count)
            ok = ok and summary.exit_reason == "halt"
        comparison = [{"config": c.label(), "energy_nj": e, "time_us": t}
                      for c, e, t in compare_configs(results,
                                                     model_file_models)]
        return _emit({"image": _image_info(args.image, data), "runs": reports,
                      "comparison": comparison}, args.format, "run",
                     0 if ok else 1)

    config = _config_from_args(args, parser)
    if model_file_models is not None and not any(
            m.config == config for m in model_file_models):
        parser.error("model file has no record for %s" % config.label())
    trace_fh = None
    if args.trace:
        try:
            trace_fh = open(args.trace, "w")
        except OSError as exc:
            parser.error("cannot write trace: %s" % exc)
    try:
        try:
            sim, summary = _simulate(data, config, args, trace_fh)
        finally:
            if trace_fh:
                trace_fh.close()
    except OSError as exc:
        print("run error: cannot write trace: %s" % exc, file=sys.stderr)
        return 1
    return _emit(_run_report(args.image, data, config, sim, summary,
                             model_file_models), args.format, "run",
                 0 if summary.exit_reason == "halt" else 1)


# -- analyze ------------------------------------------------------------------

def _counts_dict(counts):
    def known(value):
        return "unknown" if value is None else value
    return {"c1": counts.c1, "c2": counts.c2, "c3": counts.c3,
            "c4": known(counts.c4), "c5": known(counts.c5),
            "c6": known(counts.c6),
            "unresolved_loads": counts.unresolved_loads,
            "unresolved_stores": counts.unresolved_stores}


def _block_dict(block, models, labels):
    energies = {label: {"lo": v.lo, "hi": v.hi}
                if isinstance(v, cfgmod.EnergyInterval) else v
                for label, v in zip(labels, cfgmod.block_energies(block, models))}
    return {
        "start": "0x%08x" % block.start,
        "end": "0x%08x" % block.end,
        "instructions": [ins.text for ins in block.instructions],
        "counts": _counts_dict(block.static_counts),
        "successors": [{"target": None if t is None else "0x%08x" % t,
                        "kind": kind} for t, kind in block.successors],
        "energy_nj": energies,
    }


def cmd_analyze(args, parser):
    data = _read_image(args.image, parser)
    try:
        mem = MemorySystem(data, flash_size=args.flash_size,
                           ram_size=args.ram_size)
        entry = args.entry if args.entry is not None else mem.reset_vector()[1]
        graph = cfgmod.extract_cfg(mem, entry)
    except (AnalysisError, M0EnergyError) as exc:
        print("analysis error: %s" % exc, file=sys.stderr)
        return 1
    models = builtin_models()
    labels = [m.config.label() for m in models]
    report = {
        "image": _image_info(args.image, data),
        "entry": "0x%08x" % (entry & ~1),
        "blocks": [_block_dict(b, models, labels)
                   for b in graph.sorted_blocks()],
    }
    return _emit(report, args.format, "analysis")


# -- fit ---------------------------------------------------------------------

def cmd_fit(args, parser):
    if args.emit_model:  # bad output flags fail before the fit runs
        config = _config_from_args(args, parser)
        if os.path.isdir(args.emit_model) or not os.access(
                os.path.dirname(args.emit_model) or ".", os.W_OK):
            parser.error("cannot write model: %s" % args.emit_model)
    from . import regression  # numpy loads only for fit
    try:
        dataset = regression.load_dataset(args.dataset)
        result = regression.fit(dataset)
        cv = regression.kfold_cv(dataset, k=args.kfold, seed=args.seed)
    except OSError as exc:
        parser.error("cannot read dataset: %s" % exc)
    except DatasetError as exc:
        print("fit error: %s" % exc, file=sys.stderr)
        return 1
    report = {
        "dataset": {"path": args.dataset, "rows": len(dataset)},
        "fit": {"beta": list(result.beta), "mape": result.mape,
                "resd": result.resd, "r2": result.r2,
                "warnings": result.warnings},
        "cv": {"k": cv.k, "seed": cv.seed, "mean_r2": cv.mean_r2,
               "sd_r2": cv.sd_r2,
               "folds": [{"fold": f.fold, "r2": f.r2, "mape": f.mape}
                         for f in cv.folds]},
        "model_file": None,
    }
    if args.emit_model:
        try:
            save_models(args.emit_model,
                        [EnergyModel(config, result.beta, provenance="fitted")])
        except OSError as exc:
            parser.error("cannot write model: %s" % exc)
        report["model_file"] = args.emit_model
    return _emit(report, args.format, "fit")


# -- argument plumbing ------------------------------------------------------

def _read_image(path, parser):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        parser.error(str(exc))


def _config_from_args(args, parser):
    try:
        return HardwareConfig(args.freq, args.prefetch == "on", args.waitstates)
    except InvalidConfigError as exc:
        parser.error(str(exc))


def _hex_int(text):
    return int(text, 0)


def _add_config_flags(sub):
    sub.add_argument("--freq", type=int, choices=[20, 24, 48], default=20,
                     help="core frequency in MHz (default 20)")
    sub.add_argument("--prefetch", choices=["on", "off"], default="off",
                     help="Flash prefetch buffer (default off)")
    sub.add_argument("--waitstates", type=int, choices=[0, 1], default=0,
                     help="Flash wait states (default 0)")


def _add_memory_flags(sub):
    sub.add_argument("--flash-size", type=_hex_int, default=DEFAULT_FLASH_SIZE,
                     help="flash size in bytes (default 64 KiB)")
    sub.add_argument("--ram-size", type=_hex_int, default=DEFAULT_RAM_SIZE,
                     help="RAM size in bytes (default 8 KiB)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="m0energy",
        description="Cortex-M0 simulation, energy estimation, and model fitting")
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="simulate a flat binary image")
    run.add_argument("image", help="flat binary loaded at 0x08000000")
    _add_config_flags(run)
    _add_memory_flags(run)
    run.add_argument("--sweep", action="store_true",
                     help="report all ten built-in configurations")
    run.add_argument("--max-cycles", type=int, default=MAX_CYCLES_DEFAULT)
    run.add_argument("--model-file", help="evaluate models from this file")
    run.add_argument("--entry", type=_hex_int, default=None,
                     help="override the reset-vector entry point")
    run.add_argument("--trace", help="write a per-step trace to this file")
    run.add_argument("--format", choices=["json", "text"], default="json")

    an = subs.add_parser("analyze", help="static basic-block energy report")
    an.add_argument("image")
    _add_memory_flags(an)
    an.add_argument("--entry", type=_hex_int, default=None)
    an.add_argument("--format", choices=["json", "text"], default="json")

    fit = subs.add_parser("fit", help="fit a model from a counter/energy CSV")
    fit.add_argument("dataset", help="CSV with header c1,..,c6,energy_nj")
    fit.add_argument("--kfold", type=int, default=10)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--emit-model", help="write the fitted model here")
    _add_config_flags(fit)
    fit.add_argument("--format", choices=["json", "text"], default="json")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args, parser)
    if args.command == "analyze":
        return cmd_analyze(args, parser)
    return cmd_fit(args, parser)


def entry():
    sys.exit(main())
