"""Run the benchmark on every workload and print each metric by name.

    python3 perfbench/report.py [--workloads a,b] [--seeds 1,2] [--repeat 2]
                                [--seconds S] [--trace]

For each workload and seed, run.py runs `--repeat` times.  The table gives
every end-to-end metric under its per-workload name (the throughput metric
`work_per_s` is sim_ips, blocks_per_s or fit_rows_per_s), with its unit,
the median and quartiles of the per-run values, and the number of CLI
calls measured; then the error rate (failed over attempted operations;
its last column counts operations), and whether the report digests and
simulated statistics were identical across repeats of a seed.  With
--trace, one traced run per workload and seed adds the per-layer metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--repeat", type=int, default=2)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    print("%-14s %-15s %-5s %14s %14s %14s %6s" % (
        "workload", "metric", "unit", "median", "q1", "q3", "calls"))
    for workload in args.workloads.split(","):
        values, units, calls = {}, {}, {}
        attempted = failed = 0
        identical = True
        for seed in seeds:
            seen = set()
            for _ in range(args.repeat):
                detail, result = run(workload, seed, args.seconds, 0)
                attempted += result["attempted"]
                failed += result["failed"]
                seen.add(json.dumps([detail["report_sha256"], detail["sim"]]))
                for name, m in result["metrics"].items():
                    if name == "work_per_s":
                        name = detail["work_metric"]
                    values.setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
                    series = "raw_setup_s" if name == "setup_s" else "raw_wall_s"
                    calls[name] = calls.get(name, 0) + detail["samples"][series]["n"]
            identical = identical and len(seen) == 1
        for name, vals in values.items():
            med, q1, q3 = summary(vals)
            print("%-14s %-15s %-5s %14.6g %14.6g %14.6g %6d" % (
                workload, name, units[name], med, q1, q3, calls[name]))
        print("%-14s %-15s %-5s %14.6g %14s %14s %6d" % (
            workload, "error_rate", "1", failed / max(1, attempted), "", "",
            attempted))
        print("%-14s digests and simulated statistics identical across "
              "repeats: %s" % (workload, "yes" if identical else "NO"))
        if args.trace:
            for seed in seeds:
                detail, result = run(workload, seed, args.seconds, 1)
                for name, m in result["metrics"].items():
                    print("%-14s %-32s %-6s %14.6g" % (
                        workload, name, m["unit"], m["value"]))
                print("%-14s traced run correct: %s, missing layers: %s" % (
                    workload, result["correct"], detail["missing_layers"]))


if __name__ == "__main__":
    main()
