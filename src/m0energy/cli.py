"""Command-line driver: simulate, statically analyze, and fit models.

Subcommands:
    run      simulate a flat binary and report counters + energy
    analyze  static basic-block report with per-model energy
    fit      fit a model from a counters/energy CSV, with k-fold CV

`run` takes one path for the configuration its flags set and for the ten
built-in ones of `--sweep`.  It maps each configuration to the models that
price it (its built-in model, or the `--model-file` records for it in file
order).  It simulates the first configuration's timing class
(`memory.timing_class`; WS0 in a sweep) and prices each other class from
that run (`Simulator.price`), or simulates it too if that run did not halt
or the budget would cut the priced one.  Each report is its class's run, so
a sweep entry is the single run.  `--sweep` adds only `comparison`: the
entries that have a model, sorted by the energy and time they report.

Reports are JSON by default, with a fixed field order and floats rendered
at six decimal places so identical inputs produce byte-identical output.
`analyze` runs with the cyclic garbage collector paused (its CFG holds no
cycles), then restores it.  It fills each block record's JSON text into
templates built once per report, renders a block's counts and energies
once per distinct count vector and writes each record as it is filled;
the text format renders the same records from dicts.  The templates take
decoder texts (none needs a JSON escape), built-in energies (all finite)
and decode's EDGE_* kinds as they are, as test_decode and test_cli check.
Addresses and sizes in flags must lie in 0..0xFFFFFFFF.
Each subcommand imports the modules it runs where it runs them: `cpu` to
simulate, `cfg` in `analyze`, `energy` in `run`, `analyze` and for
`--emit-model`, `regression` and numpy in `fit`, `hashlib` to hash an image.
Exit codes: 0 completed halt, 1 fault, analysis/fit failure or a trace or
report that cannot be written, 2 usage.
"""

import argparse
import functools
import gc
import itertools
import math
import os
import re
import sys

from .errors import (AnalysisError, BadEntryError, DatasetError,
                     InvalidConfigError, M0EnergyError, MalformedImageError)
from .memory import (DEFAULT_FLASH_SIZE, DEFAULT_RAM_SIZE, MemorySystem,
                     timing_class)

MAX_CYCLES_DEFAULT = 10 ** 9


# -- deterministic JSON ---------------------------------------------------

def to_json(obj, indent=0):
    """JSON with floats fixed at 6 decimals and stable field order; a
    subclass is written as the first type checked here that it is."""
    if isinstance(obj, _Raw):
        return obj
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return "%.6f" % obj if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        return _json_str(obj)
    if isinstance(obj, dict):
        brackets = "{}"
        items = [_json_str(str(k)) + ": " + to_json(v, indent + 1)
                 for k, v in obj.items()]
    elif isinstance(obj, (list, tuple)):
        brackets, items = "[]", [to_json(v, indent + 1) for v in obj]
    else:
        raise TypeError("cannot serialize %r" % type(obj))
    if not items:
        return brackets
    pad = "\n" + "  " * indent
    inner = pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f]')
_ESCAPES = {'"': '\\"', "\\": "\\\\", **{chr(i): "\\u%04x" % i for i in range(32)}}


def _json_str(obj):
    if _NEEDS_ESCAPE.search(obj) is None:
        return '"' + obj + '"'
    return '"' + _NEEDS_ESCAPE.sub(lambda m: _ESCAPES[m.group()], obj) + '"'


class _Raw(str):
    """JSON text that to_json writes as it is, such as a template's hole."""


def render_text(obj, indent=0):
    """Plain-text rendering of a report for --format text: a dict's items
    as `key: value` and a list's as `- value`, nested ones indented below."""
    pad = "  " * indent
    if not isinstance(obj, (dict, list, tuple)):
        return [pad + _scalar_text(obj)]
    lines = []
    items = (("%s:" % (k,), v) for k, v in obj.items()) if isinstance(
        obj, dict) else (("-", v) for v in obj)
    for head, v in items:
        if isinstance(v, (dict, list, tuple)):
            lines += [pad + head] + render_text(v, indent + 1)
        else:
            lines.append("%s%s %s" % (pad, head, _scalar_text(v)))
    return lines


def _scalar_text(v):
    if isinstance(v, float):
        return "%.6f" % v
    if v is None:
        return "-"
    v = str(v)  # escaped where a terminal would act on it
    return v if v.isprintable() else ascii(v)


def _emit(report, fmt, command, code=0):
    """Print the report (a dict, or texts to write in turn) and return the
    exit code `code`, or 1 with a message when stdout cannot be written."""
    if isinstance(report, dict):
        report = ("\n".join(render_text(report)) if fmt == "text"
                  else to_json(report), "\n")
    try:
        for text in report:
            sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        sys.stdout = None  # so the interpreter does not flush it again
        print("%s error: cannot write report: %s" % (command, exc),
              file=sys.stderr)
        return 1
    return code


# -- shared report pieces -------------------------------------------------

def _image_info(path, data):
    import hashlib
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
    return "%08X  %-28s cycles=%d taken=%d ram_r=%d ram_w=%d flash_r=%d" % (
        step.instruction.addr, step.instruction.text, step.cycles,
        step.branch_taken, *step.data_events)


# -- run --------------------------------------------------------------------

def _simulate(data, wait_states, prefetch, args, trace_fh=None):
    from .cpu import Simulator
    sim = Simulator(data, wait_states=wait_states, prefetch=prefetch,
                    flash_size=args.flash_size, ram_size=args.ram_size)
    if args.entry is not None:
        sim.state.pc = args.entry
    on_step = None
    if trace_fh is not None:
        on_step = lambda step: trace_fh.write(_trace_line(step) + "\n")
    summary = sim.run(max_cycles=args.max_cycles, on_step=on_step)
    return sim, summary


def _run_report(image, config, sim, summary, models):
    from .energy import estimate
    counters = summary.counters
    return {
        "image": image,
        "config": _config_dict(config),
        "exit_reason": summary.exit_reason,
        "cycles": summary.cycle_count,
        "wall_time_us": summary.cycle_count / config.frequency_mhz,
        "result_r0": sim.state.regs[0],
        "output": sim.mem.debug_output.decode("latin-1"),
        "counters": _counters_dict(counters),
        "energy_nj": [{"provenance": m.provenance, "config": m.config.label(),
                       "energy_nj": estimate(counters, m)} for m in models],
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
    from .energy import builtin_configs, builtin_model, load_models
    file_models = None
    if args.model_file:
        try:
            file_models = load_models(args.model_file)
        except (OSError, InvalidConfigError) as exc:
            parser.error(str(exc))
    if args.sweep:  # it sets the configurations; a trace shows one run
        for flag in ("freq", "prefetch", "waitstates", "trace"):
            if getattr(args, flag) is not None:
                parser.error("--%s cannot be combined with --sweep" % flag)
    configs = (builtin_configs() if args.sweep
               else [_config_from_args(args, parser)])
    # each configuration -> the models that price it: the built-in one, or
    # the file's records for it in file order
    table = {config: [builtin_model(config)] if file_models is None
             else [m for m in file_models if m.config == config]
             for config in configs}
    if not args.sweep and not table[configs[0]]:
        parser.error("model file has no record for %s" % configs[0].label())
    trace_fh = None
    if args.trace:
        try:
            trace_fh = open(args.trace, "w")
        except OSError as exc:
            parser.error("cannot write trace: %s" % exc)
    first = timing_class(configs[0].wait_states, configs[0].prefetch)
    try:
        try:
            sim, summary = _simulate(data, *first, args, trace_fh)
        finally:
            if trace_fh:
                trace_fh.close()
    except OSError as exc:
        print("run error: cannot write trace: %s" % exc, file=sys.stderr)
        return 1

    @functools.cache
    def class_run(key):  # -> (sim, summary) of timing class `key`
        if key == first:
            return sim, summary
        if summary.exit_reason == "halt":
            priced = sim.price(summary, *key)
            if priced.cycle_count < args.max_cycles:
                return sim, priced
        return _simulate(data, *key, args)

    image = _image_info(args.image, data)  # one hash for every report
    reports = [_run_report(image, config, *class_run(timing_class(
                   config.wait_states, config.prefetch)), models)
               for config, models in table.items()]
    code = 0 if all(r["exit_reason"] == "halt" for r in reports) else 1
    if not args.sweep:
        return _emit(reports[0], args.format, "run", code)
    # each configuration with a model, by its last one's energy, then by
    # time; `sorted` is stable, so ties keep built-in table order
    comparison = sorted(({"config": r["config"]["label"],
                          "energy_nj": r["energy_nj"][-1]["energy_nj"],
                          "time_us": r["wall_time_us"]}
                         for r in reports if r["energy_nj"]),
                        key=lambda row: (row["energy_nj"], row["time_us"]))
    return _emit({"image": image, "runs": reports,
                  "comparison": comparison}, args.format, "run", code)


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
    from .cfg import block_energies
    energies = block_energies(block, models)
    if not block.static_counts.exact:
        energies = [{"lo": v.lo, "hi": v.hi} for v in energies]
    return _block_record(
        "0x%08x" % block.start, "0x%08x" % block.end, block.texts(),
        _counts_dict(block.static_counts),
        [(t if t is None else "0x%08x" % t, k) for t, k in block.successors],
        dict(zip(labels, energies)))


def _block_record(start, end, texts, counts, edges, energies):
    return dict(start=start, end=end, instructions=texts, counts=counts,
                successors=[dict(target=t, kind=k) for t, k in edges],
                energy_nj=energies)


def _block_writer(models, labels):
    """A function from a block of `_analyze` to the text that `to_json`
    writes for its `_block_dict` as a report's record (at depth 2): the
    `_block_record` of holes for distinct `labels` (config labels, with no
    "%"), filled with its texts, energies and kinds as they are and with its
    counts and energy_nj text, rendered once per distinct StaticCounts."""
    from .cfg import StaticCounts, block_energies
    hole, quoted_hole, address = _Raw("%s"), _Raw('"%s"'), _Raw('"0x%08x"')
    fields = _block_record(address, address, [quoted_hole], hole,
                           [(hole, quoted_hole)], hole)
    edge = to_json(fields["successors"].pop(), 4)  # from its one edge
    record = to_json(dict(fields, successors=hole), 2)
    counts = to_json(dict.fromkeys(_counts_dict(StaticCounts()), hole), 3)
    fixed = _Raw("%.6f")  # what to_json writes for a finite float
    point = to_json(dict.fromkeys(labels, fixed), 3)
    interval = to_json(dict.fromkeys(labels, {"lo": fixed, "hi": fixed}), 3)
    head, sep, tail = to_json([_Raw("\0")] * 2, 3).split("\0")  # depth 3
    quoted = '"' + sep + '"'  # between two instruction texts
    memo = {}  # StaticCounts -> its counts and energy_nj text

    def write(block):
        static = block.static_counts
        rendered = memo.get(static)
        if rendered is None:
            values = block_energies(block, models)
            energy = point if static.exact else interval
            if energy is interval:
                values = [x for v in values for x in (v.lo, v.hi)]
            rendered = memo[static] = (counts % tuple([
                '"unknown"' if v == "unknown" else v for v in
                _counts_dict(static).values()]), energy % tuple(values))
        succ = [edge % ("null" if t is None else '"0x%08x"' % t, kind)
                for t, kind in block.successors]
        return record % (
            block.start, block.end, quoted.join(block.texts()), rendered[0],
            head + sep.join(succ) + tail if succ else "[]", rendered[1])
    return write


def cmd_analyze(args, parser):
    data = _read_image(args.image, parser)
    enabled = gc.isenabled()
    gc.disable()  # the CFG's many objects hold no cycles
    try:
        return _analyze(args, data)
    finally:
        if enabled:
            gc.enable()


def _analyze(args, data):
    from .cfg import extract_cfg
    from .energy import builtin_models
    try:
        mem = MemorySystem(data, flash_size=args.flash_size,
                           ram_size=args.ram_size)
        entry = args.entry if args.entry is not None else mem.reset_vector()[1]
        graph = extract_cfg(mem, entry)
    except (AnalysisError, M0EnergyError) as exc:
        print("analysis error: %s" % exc, file=sys.stderr)
        return 1
    models = builtin_models()
    labels = [m.config.label() for m in models]
    report = {"image": _image_info(args.image, data),
              "entry": "0x%08x" % (entry & ~1), "blocks": [_Raw("\0")] * 2}
    blocks = graph.sorted_blocks()
    if args.format == "text":
        report["blocks"] = [_block_dict(b, models, labels) for b in blocks]
        return _emit(report, "text", "analysis")
    # JSON goes out a record at a time, into the text around the two holes:
    # NULs, which to_json writes escaped in any string
    head, sep, tail = to_json(report).split("\0")
    write = _block_writer(models, labels)
    return _emit(itertools.chain(
        [head + write(blocks[0])], (sep + write(b) for b in blocks[1:]),
        [tail + "\n"]), "json", "analysis")


# -- fit ---------------------------------------------------------------------

def cmd_fit(args, parser):
    if args.emit_model:  # bad output flags fail before the fit runs
        config = _config_from_args(args, parser)
        if os.path.isdir(args.emit_model) or not os.access(
                os.path.dirname(args.emit_model) or ".", os.W_OK):
            parser.error("cannot write model: %s" % args.emit_model)
    for flag in ("freq", "prefetch", "waitstates"):  # they label that model
        if not args.emit_model and getattr(args, flag) is not None:
            parser.error("--%s needs --emit-model" % flag)
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
        from .energy import EnergyModel, save_models
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
    from .energy import HardwareConfig
    try:
        return HardwareConfig(args.freq or 20, args.prefetch == "on",
                              args.waitstates or 0)  # unset: the defaults
    except InvalidConfigError as exc:
        parser.error(str(exc))


def _hex_int(text):
    try:
        value = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "%s is not an integer (decimal, or hex with 0x)" % text) from None
    if not 0 <= value <= 0xFFFFFFFF:
        raise argparse.ArgumentTypeError("%s is not a 32-bit address or size"
                                         % text)
    return value


def _add_config_flags(sub):
    sub.add_argument("--freq", type=int, choices=[20, 24, 48],
                     help="core frequency in MHz (default 20)")
    sub.add_argument("--prefetch", choices=["on", "off"],
                     help="Flash prefetch buffer (default off)")
    sub.add_argument("--waitstates", type=int, choices=[0, 1],
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
