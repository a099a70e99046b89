"""Benchmark of the m0energy command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  The workloads are generated from the seed (see workloads.py); the
CLI receives only the generated files.  The loop is closed: one CLI process
at a time, started from this single driver process.

--trace 0 times CLI child processes: the measured call and, alternately,
the set-up call (the same subcommand and flags on a minimal valid input).
Their median wall times are reported scaled to a reference host speed,
measured between the calls by calibrate(); raw times are in the detail
record.
--trace 1 calls `cli.main` in this process, untraced and then traced, and
reports per-layer counts and self times, plus the tracing overhead.

Every run starts the simulator with an empty fetch buffer and an empty
decode cache, as every CLI user's run does.  The energy models are the
published ones; the repository has no hardware measurements, so nothing
here validates their accuracy.  The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}; the line before it
is a detail record with environment, samples, report digests and
simulated statistics.
"""

import os

BLAS_THREADS = 1
# Pinned before numpy loads, here and in every child (children inherit it).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import collections
import contextlib
import io
import json
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_SAMPLES = 5         # per timed series, even when --seconds runs out
HARD_LIMIT_S = 90       # beyond --seconds, stop sampling whatever the count
IMPORT_PROBES = 5
# Host speed.  On a shared host the speed of interpreter code drifts by
# +-20 % over seconds to minutes, more than the medians of one run can
# average out.  calibrate() runs once per measured call; the medians of the
# raw wall times are scaled by CALIBRATION_REF_S (calibrate()'s time on a
# quiet 2-core x86_64 box) over the median calibration of the same run.
# Raw times are kept in the detail record.
CALIBRATION_ITERATIONS = 60_000
CALIBRATION_REF_S = 0.035

# The throughput metric's meaning on each workload.
WORK_ITEM = {"run_mixed": "sim_ips", "sweep_branchy": "sim_ips",
             "analyze_large": "blocks_per_s", "fit_large": "fit_rows_per_s"}


class Tally:
    """Attempted and failed operations, with the first few errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[:20 - len(self.errors)])
        return not errors


Call = collections.namedtuple("Call", "code out wall rss_mb", defaults=[None])


def run_cli(argv, cwd, env):
    """One `m0energy` child process; wall time and peak RSS from wait4."""
    out_path, err_path = cwd / "stdout.bin", cwd / "stderr.bin"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "m0energy", *argv],
                                cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(proc.returncode, out_path.read_bytes(), wall,
                usage.ru_maxrss / 1024.0)


def first_report(wl, call, tally):
    """Check the first report against the oracle in full; later reports must
    equal it byte for byte.  Returns its digest."""
    errors = (["exit code %d" % call.code] if call.code
              else workloads.verify(wl, call.out))
    tally.record(errors)
    return workloads.digest(call.out)


def same_report(call, ref):
    if call.code:
        return ["exit code %d" % call.code]
    if workloads.digest(call.out) != ref:
        return ["report bytes differ from the first report"]
    return []


def corrupt(data):
    """The report with the first digit of its first number changed."""
    found = re.search(rb'": (\d)', data)
    if found is None:
        return data + b" "
    pos = found.start(1)
    return data[:pos] + str((int(found.group(1)) + 1) % 10).encode() + data[pos + 1:]


def self_check(wl, data, ref):
    """The checks must flag a wrong expected counter and a corrupted byte."""
    bad = corrupt(data)
    return (bool(workloads.verify(wl, data, wl.mutated()))
            and bool(workloads.verify(wl, bad))
            and bool(same_report(Call(0, bad, 0.0), ref)))


def spread(values):
    q1, q3 = (statistics.quantiles(values, n=4)[::2] if len(values) > 1
              else (values[0], values[0]))
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


class _Probe:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def total(self):
        return self.a + self.b


def calibrate():
    """Time a fixed pure-Python loop of the kinds of work the simulator does
    (small objects, attribute reads, method calls, dict stores and loads)."""
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        probe = _Probe(i, i & 255)
        table[i & 1023] = probe
        acc += table.get((i * 7) & 1023, probe).total()
    return time.perf_counter() - start


def timed_run(wl, work, seconds, env, tally):
    # Untimed warm-up call: loads the page cache and writes bytecode caches,
    # which a user's second call also finds.
    first = run_cli(wl.argv, work, env)
    ref = first_report(wl, first, tally)
    ok = self_check(wl, first.out, ref)
    walls, setups, rss, calibrations = [], [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed > seconds + HARD_LIMIT_S or (
                elapsed >= seconds and len(setups) >= MIN_SAMPLES):
            break
        calibrations.append(calibrate())
        call = run_cli(wl.argv, work, env)
        tally.record(same_report(call, ref))
        walls.append(call.wall)
        rss.append(call.rss_mb)
        setup = run_cli(wl.setup_argv, work, env)
        tally.record(["exit code %d" % setup.code] if setup.code
                     else wl.check_setup(json.loads(setup.out)))
        setups.append(setup.wall)
    host = CALIBRATION_REF_S / statistics.median(calibrations)
    wall = statistics.median(walls) * host
    metrics = {"wall_s": wall, "setup_s": statistics.median(setups) * host,
               "work_per_s": wl.work_items / wall,
               "peak_rss_mb": statistics.median(rss)}
    samples = {"raw_wall_s": walls, "raw_setup_s": setups,
               "raw_" + WORK_ITEM[wl.name]: [wl.work_items / w for w in walls],
               "peak_rss_mb": rss, "calibration_s": calibrations}
    detail = {"samples": {k: spread(v) for k, v in samples.items()},
              "host_speed_scale": host, "report_sha256": ref,
              "sim": wl.sim_stats(json.loads(first.out)) if not first.code else []}
    return metrics, detail, ok


def import_probe(env):
    code = ("import time; t = time.perf_counter(); import m0energy.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, timeout=60)
    return proc.returncode, proc.stdout


def traced_run(wl, work, seconds, env, tally):
    import importlib
    import tracing
    # importlib, because the package re-exports a function named `decode`
    # over its submodule of that name.
    modules = {name: importlib.import_module("m0energy." + name)
               for name in ("cfg", "cli", "counters", "cpu", "decode",
                            "energy", "memory", "regression")}
    cli = modules["cli"]

    import_s = []
    for _ in range(IMPORT_PROBES):
        code, out = import_probe(env)
        if tally.record(["import exit code %d" % code] if code else []):
            import_s.append(float(out))

    def in_process():
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(wl.argv))
        return Call(code, buf.getvalue().encode(), time.perf_counter() - start)

    tracer = tracing.Tracer(modules)
    untraced, traced, per_pair = [], [], []
    cwd = os.getcwd()
    os.chdir(work)
    try:
        first = in_process()
        ref = first_report(wl, first, tally)
        ok = self_check(wl, first.out, ref)
        start = time.perf_counter()
        while not per_pair or (time.perf_counter() - start < seconds
                               and len(per_pair) < MIN_SAMPLES):
            call = in_process()
            tally.record(same_report(call, ref))
            untraced.append(call.wall)
            tracer.reset()
            tracer.install()
            try:
                call = in_process()
            finally:
                tracer.uninstall()
            tally.record(same_report(call, ref))
            traced.append(call.wall)
            per_pair.append((tracer.totals(), dict(tracer.out_bytes),
                             tracer.calls_under("decode", "cpu.step")))
    finally:
        os.chdir(cwd)
    counts = [{k: v[0] for k, v in t.items()} for t, _, _ in per_pair]
    tally.record([] if all(c == counts[0] for c in counts)
                 else ["traced call counts differ between repetitions"])

    totals, out_bytes, decode_misses = per_pair[0]
    values = {}
    for name in tracing.LAYERS:
        values[name + ".calls"] = totals.get(name, [0])[0]
        values[name + ".self_s"] = statistics.median(
            t.get(name, [0, 0.0])[1] for t, _, _ in per_pair)
    steps = values["cpu.step.calls"]
    values["decode.miss_ratio"] = decode_misses / steps if steps else 0.0
    values["cli.to_json.bytes"] = out_bytes.get("cli.to_json", 0)
    values["cli.import_s"] = statistics.median(import_s) if import_s else 0.0
    report = json.loads(first.out) if not first.code else {}
    values["cfg.blocks"] = len(report.get("blocks", []))
    sim = wl.sim_stats(report) if report else []
    values["sim.cycles"] = sum(s["cycles"] for s in sim)
    values["sim.fetch_stall_cycles"] = sum(s["fetch_stall_cycles"] for s in sim)
    for i in range(1, 7):
        values["sim.c%d" % i] = sim[0]["c%d" % i] if sim else 0
    values["trace.untraced_s"] = statistics.median(untraced)
    values["trace.traced_s"] = statistics.median(traced)
    values["trace.overhead_ratio"] = values["trace.traced_s"] / values["trace.untraced_s"]
    detail = {"pairs": len(per_pair), "report_sha256": ref, "sim": sim,
              "missing_layers": tracer.missing, "spans": tracer.tree()}
    return values, detail, ok


def environment():
    import numpy
    cpu_model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {"machine": platform.machine(), "cpu": cpu_model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    env = dict(os.environ, PYTHONPATH=str(SRC))

    work = ROOT / ".perfbench_work" / ("%s-%d" % (args.workload, args.seed))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    try:
        wl = workloads.GENERATORS[args.workload](args.seed)
        wl.write(work)
        run = traced_run if args.trace else timed_run
        values, detail, self_check_ok = run(wl, work, args.seconds, env,
                                            tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind]}
    detail.update({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "work_items": wl.work_items,
                   "work_metric": WORK_ITEM[args.workload],
                   "error_rate": tally.failed / max(1, tally.attempted),
                   "self_check": self_check_ok, "errors": tally.errors,
                   "environment": environment()})
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": tally.failed == 0 and self_check_ok,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    if not (SRC / "m0energy" / "cli.py").is_file():
        sys.exit("perfbench: no m0energy sources under %s; run from the root "
                 "of a source checkout" % SRC)
    sys.path.insert(0, str(SRC))
    import workloads
    main()
