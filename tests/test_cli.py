"""End-to-end CLI tests (in-process main with captured stdout)."""

import gc
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
import zlib
from types import SimpleNamespace

import pytest

import m0energy.cfg
import m0energy.cpu

from helpers import (INTERWORKING_BRANCHES, KERNELS, invstate_image,
                     invstate_reason, kernel_image, recount_from_trace_file,
                     reference_to_json, run_kernel, synth_dataset)
from m0energy import (Assembler, EnergyModel, HardwareConfig, builtin_configs,
                      builtin_model, builtin_models, estimate, load_models,
                      save_dataset, save_models)
from m0energy import MemorySystem, cli
from m0energy.asm import COND_CODES
from m0energy.cfg import BasicBlock, StaticCounts, extract_cfg
from m0energy.cli import main
from m0energy.energy import MODEL_FILE_HEADER
from m0energy.regression import CSV_HEADER


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_kernel(tmp_path, name):
    path = tmp_path / ("%s.bin" % name)
    path.write_bytes(kernel_image(name))
    return str(path)


def test_run_reports_counters_and_energy(tmp_path, capsys):
    image = write_kernel(tmp_path, "loop5")
    code, out, _ = run_cli(["run", image, "--freq", "20", "--prefetch", "off",
                            "--waitstates", "0"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["exit_reason"] == "halt"
    assert report["config"]["label"] == "[20, OFF, 0]"
    assert report["cycles"] == 20
    assert report["wall_time_us"] == pytest.approx(1.0)
    counters = report["counters"]
    assert (counters["c1"], counters["c3"]) == (12, 4)
    # reported energy equals an estimate over the reported counters
    vec = tuple(counters["c%d" % i] for i in range(1, 7))
    model = builtin_model(HardwareConfig(20, False, 0))
    entry = report["energy_nj"][0]
    assert entry["config"] == "[20, OFF, 0]"
    assert entry["provenance"] == "builtin"
    assert entry["energy_nj"] == pytest.approx(estimate(vec, model), abs=5e-7)
    assert report["image"]["name"] == "loop5.bin"
    assert len(report["image"]["sha256"]) == 64


def test_run_invalid_config_is_usage_error(tmp_path, capsys):
    image = write_kernel(tmp_path, "loop5")
    with pytest.raises(SystemExit) as err:
        main(["run", image, "--freq", "48", "--waitstates", "0"])
    assert err.value.code == 2


def test_run_unknown_flag_is_usage_error(tmp_path, capsys):
    image = write_kernel(tmp_path, "loop5")
    with pytest.raises(SystemExit) as err:
        main(["run", image, "--bogus"])
    assert err.value.code == 2


@pytest.mark.parametrize("flags", [["--freq", "48", "--waitstates", "0"],
                                   ["--freq", "20"], ["--prefetch", "off"],
                                   ["--waitstates", "1"], ["--trace", "t.txt"]],
                         ids=["48-ws0", "freq", "prefetch", "waitstates",
                              "trace"])
def test_sweep_with_a_config_or_trace_flag_is_usage_error(tmp_path, capsys,
                                                          flags):
    # --sweep sets the ten configurations itself; a config flag used to be
    # ignored, even an invalid combination, and the sweep exited 0
    image = write_kernel(tmp_path, "loop5")
    with pytest.raises(SystemExit) as err:
        main(["run", image, "--sweep"] + [
            str(tmp_path / f) if f.endswith(".txt") else f for f in flags])
    assert err.value.code == 2
    assert ("%s cannot be combined with --sweep" % flags[0]
            in capsys.readouterr().err)
    assert not (tmp_path / "t.txt").exists()


def test_run_default_config_is_20_off_0(tmp_path, capsys):
    image = write_kernel(tmp_path, "straight6")
    code, out, _ = run_cli(["run", image], capsys)
    assert code == 0
    assert json.loads(out)["config"]["label"] == "[20, OFF, 0]"


def test_run_deterministic_output(tmp_path, capsys):
    image = write_kernel(tmp_path, "ram_rw")
    outputs = set()
    for _ in range(3):
        code, out, _ = run_cli(["run", image, "--freq", "24",
                                "--prefetch", "on", "--waitstates", "1"], capsys)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_run_sweep_covers_all_ten_configs(tmp_path, capsys):
    image = write_kernel(tmp_path, "muls")
    code, out, _ = run_cli(["run", image, "--sweep"], capsys)
    assert code == 0
    report = json.loads(out)
    assert len(report["runs"]) == 10
    labels = [r["config"]["label"] for r in report["runs"]]
    assert len(set(labels)) == 10
    comparison = report["comparison"]
    assert len(comparison) == 10
    energies = [row["energy_nj"] for row in comparison]
    assert energies == sorted(energies)
    # counters identical across configs; cycles may differ
    vectors = {tuple(r["counters"]["c%d" % i] for i in range(1, 7))
               for r in report["runs"]}
    assert len(vectors) == 1


def single_run_argv(image, config, extra):
    return ["run", image, "--freq", str(config["frequency_mhz"]),
            "--prefetch", config["prefetch"],
            "--waitstates", str(config["wait_states"])] + extra


def write_model_file(tmp_path, models):
    path = tmp_path / "models.csv"
    save_models(path, models)
    return str(path)


def write_scaled_model_file(tmp_path):
    """One fitted record per built-in configuration."""
    return ["--model-file", write_model_file(tmp_path, [
        EnergyModel(m.config, tuple(1.5 * b for b in m.beta))
        for m in builtin_models()])]


def write_invstate_image(tmp_path, branch):
    path = tmp_path / ("invstate_%s.bin" % branch)
    path.write_bytes(invstate_image(INTERWORKING_BRANCHES[branch]))
    return str(path)


# id -> (image writer, extra flags writer)
SWEEP_CASES = {name: (lambda tmp_path, name=name: write_kernel(tmp_path, name),
                      lambda tmp_path: [])
               for name in sorted(KERNELS)}
SWEEP_CASES.update({
    # each timing class has run a different number of instructions
    "budget-cut": (lambda tmp_path: write_kernel(tmp_path, "loop5"),
                   lambda tmp_path: ["--max-cycles", "15"]),
    "fault": (lambda tmp_path: write_invstate_image(tmp_path, "pop_pc"),
              lambda tmp_path: []),
    "entry": (lambda tmp_path: write_kernel(tmp_path, "call_ret"),
              lambda tmp_path: ["--entry", "0x0800000e"]),
    "model-file": (lambda tmp_path: write_kernel(tmp_path, "pushpop_loop"),
                   write_scaled_model_file),
})


@pytest.mark.parametrize("case", SWEEP_CASES)
def test_sweep_runs_equal_single_runs(tmp_path, capsys, case):
    write_image, write_extra = SWEEP_CASES[case]
    image, extra = write_image(tmp_path), write_extra(tmp_path)
    code, out, _ = run_cli(["run", image, "--sweep"] + extra, capsys)
    runs = json.loads(out)["runs"]
    assert len(runs) == 10
    single_codes = []
    for entry in runs:
        single_code, single_out, _ = run_cli(
            single_run_argv(image, entry["config"], extra), capsys)
        assert cli.to_json(entry) + "\n" == single_out
        single_codes.append(single_code)
    assert code == max(single_codes)
    if case == "budget-cut":
        assert len({r["counters"]["c1"] for r in runs}) == 3 and code == 1


def test_sweep_model_file_ranks_by_the_files_models(tmp_path, capsys):
    image = write_kernel(tmp_path, "pushpop_loop")
    models = write_model_file(tmp_path, [
        EnergyModel(m.config, tuple(3 * b for b in m.beta))
        for m in builtin_models()])
    code, out, _ = run_cli(["run", image, "--sweep", "--model-file", models],
                           capsys)
    assert code == 0
    report = json.loads(out)
    energy = {run["config"]["label"]: run["energy_nj"][0]["energy_nj"]
              for run in report["runs"]}
    assert energy["[20, OFF, 0]"] == pytest.approx(92.022558, abs=5e-7)
    ranked = report["comparison"]
    assert len(ranked) == 10
    for row in ranked:
        assert row["energy_nj"] == energy[row["config"]]
    assert [row["energy_nj"] for row in ranked] == sorted(energy.values())


def test_sweep_model_file_ranks_only_the_configs_it_covers(tmp_path, capsys):
    image = write_kernel(tmp_path, "pushpop_loop")
    beta = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    models = write_model_file(tmp_path, [
        EnergyModel(HardwareConfig(20, False, 0), tuple(2 * b for b in beta)),
        EnergyModel(HardwareConfig(48, True, 1), beta)])
    code, out, _ = run_cli(["run", image, "--sweep", "--model-file", models],
                           capsys)
    assert code == 0
    report = json.loads(out)
    assert len(report["runs"]) == 10
    wall = {run["config"]["label"]: run["wall_time_us"] for run in report["runs"]}
    # c1..c6 = 18, 0, 3, 4, 4, 0: 63 nJ under beta
    assert report["comparison"] == [
        {"config": "[48, ON, 1]", "energy_nj": 63.0,
         "time_us": wall["[48, ON, 1]"]},
        {"config": "[20, OFF, 0]", "energy_nj": 126.0,
         "time_us": wall["[20, OFF, 0]"]}]


def write_repeated_record_file(tmp_path):
    """Records for [20, OFF, 0] at 1x and 2x `beta` around one for
    [48, ON, 1] at 1.5x: on `pushpop_loop` (63 nJ under `beta`) the first
    record ranks [20, OFF, 0] ahead of [48, ON, 1], the last one behind."""
    beta = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    return write_model_file(tmp_path, [
        EnergyModel(HardwareConfig(20, False, 0), beta),
        EnergyModel(HardwareConfig(48, True, 1), tuple(1.5 * b for b in beta)),
        EnergyModel(HardwareConfig(20, False, 0), tuple(2 * b for b in beta))])


REPEATED_ENERGIES = [
    {"provenance": "fitted", "config": "[20, OFF, 0]", "energy_nj": 63.0},
    {"provenance": "fitted", "config": "[20, OFF, 0]", "energy_nj": 126.0}]


def test_run_model_file_lists_every_record_in_file_order(tmp_path, capsys):
    image = write_kernel(tmp_path, "pushpop_loop")
    code, out, _ = run_cli(["run", image, "--model-file",
                            write_repeated_record_file(tmp_path)], capsys)
    assert code == 0
    assert json.loads(out)["energy_nj"] == REPEATED_ENERGIES


def test_sweep_model_file_ranks_a_config_by_its_last_record(tmp_path, capsys):
    image = write_kernel(tmp_path, "pushpop_loop")
    code, out, _ = run_cli(["run", image, "--sweep", "--model-file",
                            write_repeated_record_file(tmp_path)], capsys)
    assert code == 0
    report = json.loads(out)
    energies = {run["config"]["label"]: run["energy_nj"]
                for run in report["runs"]}
    wall = {run["config"]["label"]: run["wall_time_us"]
            for run in report["runs"]}
    assert len(energies) == 10
    assert energies.pop("[20, OFF, 0]") == REPEATED_ENERGIES
    assert energies.pop("[48, ON, 1]") == [
        {"provenance": "fitted", "config": "[48, ON, 1]", "energy_nj": 94.5}]
    assert list(energies.values()) == [[]] * 8
    assert report["comparison"] == [
        {"config": "[48, ON, 1]", "energy_nj": 94.5,
         "time_us": wall["[48, ON, 1]"]},
        {"config": "[20, OFF, 0]", "energy_nj": 126.0,
         "time_us": wall["[20, OFF, 0]"]}]


# file order of one-beta records -> the ranking of `pushpop_loop`, which
# costs 63 nJ under each: by time, then in built-in table order
TIE_CASES = {
    "time": (["[20, OFF, 0]", "[24, OFF, 0]"],
             [("[24, OFF, 0]", 4 / 3), ("[20, OFF, 0]", 1.6)]),
    "table-order": (["[20, ON, 0]", "[24, OFF, 0]", "[20, OFF, 0]",
                     "[48, ON, 1]"],
                    [("[48, ON, 1]", 0.75), ("[24, OFF, 0]", 4 / 3),
                     ("[20, OFF, 0]", 1.6), ("[20, ON, 0]", 1.6)]),
}


@pytest.mark.parametrize("case", TIE_CASES)
def test_sweep_ranks_equal_energies_by_time_then_table_order(tmp_path, capsys,
                                                              case):
    order, ranked = TIE_CASES[case]
    configs = {c.label(): c for c in builtin_configs()}
    beta = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    models = write_model_file(tmp_path, [EnergyModel(configs[label], beta)
                                         for label in order])
    image = write_kernel(tmp_path, "pushpop_loop")
    code, out, _ = run_cli(["run", image, "--sweep", "--model-file", models],
                           capsys)
    assert code == 0
    report = json.loads(out)
    assert [(row["config"], row["energy_nj"]) for row in report["comparison"]
            ] == [(label, 63.0) for label, _ in ranked]
    assert [row["time_us"] for row in report["comparison"]] == pytest.approx(
        [time_us for _, time_us in ranked], abs=5e-7)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_sweep_comparison_sorts_what_its_runs_report(tmp_path, capsys, name):
    image = write_kernel(tmp_path, name)
    code, out, _ = run_cli(["run", image, "--sweep"], capsys)
    assert code == 0
    report = json.loads(out)
    rows = [{"config": run["config"]["label"],
             "energy_nj": run["energy_nj"][-1]["energy_nj"],
             "time_us": run["wall_time_us"]} for run in report["runs"]]
    assert len(rows) == 10
    assert report["comparison"] == sorted(
        rows, key=lambda row: (row["energy_nj"], row["time_us"]))


def test_header_only_model_file(tmp_path, capsys):
    """A file with no records ranks nothing in a sweep, and has no record
    for the configuration of a single run."""
    image = write_kernel(tmp_path, "pushpop_loop")
    models = write_model_file(tmp_path, [])
    code, out, _ = run_cli(["run", image, "--sweep", "--model-file", models],
                           capsys)
    assert code == 0
    report = json.loads(out)
    assert [run["energy_nj"] for run in report["runs"]] == [[]] * 10
    assert report["comparison"] == []
    with pytest.raises(SystemExit) as err:
        main(["run", image, "--model-file", models])
    assert err.value.code == 2
    assert ("model file has no record for [20, OFF, 0]"
            in capsys.readouterr().err)


def count_runs(monkeypatch):
    """The (wait states, prefetch) of each `Simulator.run` call from here
    on, in call order."""
    calls = []
    run = m0energy.cpu.Simulator.run

    def counted(self, *args, **kwargs):
        calls.append((self.wait_states, self.prefetch))
        return run(self, *args, **kwargs)

    monkeypatch.setattr(m0energy.cpu.Simulator, "run", counted)
    return calls


def test_sweep_whose_first_class_halts_simulates_once(tmp_path, capsys,
                                                     monkeypatch):
    """The first configuration's class, WS0, is the one run; the two
    classes at one wait state are priced from it."""
    runs = count_runs(monkeypatch)
    image = write_kernel(tmp_path, "pushpop_loop")
    code, out, _ = run_cli(["run", image, "--sweep"], capsys)
    assert code == 0 and len(json.loads(out)["runs"]) == 10
    assert runs == [(0, False)]


def test_sweep_hashes_the_image_once(tmp_path, capsys, monkeypatch):
    """The sweep's top level and each of its ten reports show one sha256 of
    the image, computed once."""
    hashed = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256",
                        lambda data: hashed.append(len(data)) or sha256(data))
    image = write_kernel(tmp_path, "pushpop_loop")
    code, out, _ = run_cli(["run", image, "--sweep"], capsys)
    report = json.loads(out)
    assert code == 0 and hashed == [len(kernel_image("pushpop_loop"))]
    assert [run["image"] for run in report["runs"]] == [report["image"]] * 10


@pytest.mark.parametrize("name", ["loop5", "pushpop_loop"])
def test_sweep_prices_or_simulates_each_class_at_every_budget(
        tmp_path, capsys, monkeypatch, name):
    """At every budget up to past the slowest class's total, each sweep
    entry equals the single run of its configuration.  The sweep simulates
    WS0, then each class at one wait state whose priced total reaches the
    budget, or both when the WS0 run is cut."""
    totals = {(ws, prefetch): m0energy.cpu.Simulator(
        kernel_image(name), wait_states=ws, prefetch=prefetch).run().cycle_count
        for ws, prefetch in [(0, False), (1, False), (1, True)]}
    runs = count_runs(monkeypatch)
    image = write_kernel(tmp_path, name)
    for budget in range(max(totals.values()) + 2):
        extra = ["--max-cycles", str(budget)]
        del runs[:]
        code, out, _ = run_cli(["run", image, "--sweep"] + extra, capsys)
        simulated = [(0, False)] + [key for key in [(1, False), (1, True)]
                                    if totals[key] >= budget
                                    or totals[(0, False)] > budget]
        assert runs == simulated, budget
        single_codes = []
        # [20, OFF, 0], [20, OFF, 1], [20, ON, 0] and [20, ON, 1]
        for entry in json.loads(out)["runs"][:4]:
            single_code, single_out, _ = run_cli(
                single_run_argv(image, entry["config"], extra), capsys)
            assert cli.to_json(entry) + "\n" == single_out, budget
            single_codes.append(single_code)
        assert code == max(single_codes)


@pytest.mark.parametrize("branch", sorted(INTERWORKING_BRANCHES))
@pytest.mark.parametrize("sweep", [False, True], ids=["run", "sweep"])
def test_run_invstate_fault_exits_one(tmp_path, capsys, branch, sweep):
    image = write_invstate_image(tmp_path, branch)
    code, out, _ = run_cli(["run", image] + (["--sweep"] if sweep else []),
                           capsys)
    assert code == 1
    report = json.loads(out)
    reports = report["runs"] if sweep else [report]
    for run in reports:
        assert run["exit_reason"] == invstate_reason(run["result_r0"])
        assert run["counters"]["c3"] == 1


def test_run_trace_recount_matches_counters(tmp_path, capsys):
    image = write_kernel(tmp_path, "pushpop_loop")
    trace = tmp_path / "trace.txt"
    code, out, _ = run_cli(["run", image, "--trace", str(trace)], capsys)
    assert code == 0
    report = json.loads(out)
    vec = tuple(report["counters"]["c%d" % i] for i in range(1, 7))
    assert recount_from_trace_file(trace) == vec
    lines = trace.read_text().splitlines()
    assert len(lines) == report["counters"]["c1"] + report["counters"]["c2"]
    assert sum(int(l.split("cycles=")[1].split()[0]) for l in lines) \
        == report["cycles"]


def test_run_fault_exits_one_with_report(tmp_path, capsys):
    a = Assembler()
    a.udf()
    path = tmp_path / "bad.bin"
    path.write_bytes(a.image())
    code, out, _ = run_cli(["run", str(path)], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["exit_reason"].startswith("fault:")


def test_run_cycle_budget_exits_one(tmp_path, capsys):
    a = Assembler()
    a.label("loop")
    a.b("loop")
    path = tmp_path / "spin.bin"
    path.write_bytes(a.image())
    code, out, _ = run_cli(["run", str(path), "--max-cycles", "100"], capsys)
    assert code == 1
    assert json.loads(out)["exit_reason"] == "cycle-budget"


def test_sweep_exits_one_unless_every_run_halts(tmp_path, capsys):
    """loop5 halts in 20 cycles at 0 wait states and needs 25 or 30 at 1."""
    image = write_kernel(tmp_path, "loop5")
    code, out, _ = run_cli(["run", image, "--sweep", "--max-cycles", "20"],
                           capsys)
    reasons = {run["exit_reason"] for run in json.loads(out)["runs"]}
    assert (code, reasons) == (1, {"halt", "cycle-budget"})


def test_run_debug_output_and_result(tmp_path, capsys):
    a = Assembler()
    a.ldr_lit(0, "port")
    a.movs(1, ord("H"))
    a.strb_imm(1, 0)
    a.movs(1, ord("i"))
    a.strb_imm(1, 0)
    a.movs(0, 42)
    a.bkpt()
    a.word(0x40000000, label="port")
    path = tmp_path / "hello.bin"
    path.write_bytes(a.image())
    code, out, _ = run_cli(["run", str(path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["output"] == "Hi"
    assert report["result_r0"] == 42


def test_text_report_escapes_what_a_terminal_would_act_on(tmp_path,
                                                          capsys):
    """Debug output with a newline and an erase-screen sequence: the text
    report writes it as its ascii(), on one line and with no raw ESC, so it
    adds no line that reads like a key; the JSON report is unchanged."""
    output = "hi\nx: 1\x1b[2J"
    a = Assembler()
    a.ldr_lit(0, "port")
    for char in output:
        a.movs(1, ord(char))
        a.strb_imm(1, 0)
    a.bkpt()
    a.word(0x40000000, label="port")
    path = tmp_path / "escape.bin"
    path.write_bytes(a.image())
    code, out, err = run_cli(["run", str(path), "--format", "text"], capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert "output: 'hi\\nx: 1\\x1b[2J'" in lines
    assert "\x1b" not in out and "x: 1" not in lines
    code, out, err = run_cli(["run", str(path)], capsys)
    assert json.loads(out)["output"] == output
    assert cli.render_text({"k": "caf\xe9 \u2264", "l": ["a\tb"]}) == [
        "k: caf\xe9 \u2264", "l:", "  - 'a\\tb'"]


def test_run_entry_override(tmp_path, capsys):
    image = write_kernel(tmp_path, "call_ret")
    # start directly at the subroutine; it returns through lr=0 and faults,
    # so point lr... simpler: entry at the BKPT
    code, out, _ = run_cli(["run", image, "--entry", "0x0800000e"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["counters"]["c1"] == 1  # just the BKPT


def test_run_text_format(tmp_path, capsys):
    image = write_kernel(tmp_path, "straight6")
    code, out, _ = run_cli(["run", image, "--format", "text"], capsys)
    assert code == 0
    assert "exit_reason: halt" in out
    assert "c1: 7" in out


def test_analyze_straight_line_block_report(tmp_path, capsys):
    image = write_kernel(tmp_path, "straight6")
    code, out, _ = run_cli(["analyze", image], capsys)
    assert code == 0
    report = json.loads(out)
    assert len(report["blocks"]) == 1
    block = report["blocks"][0]
    assert block["start"] == "0x08000008"
    assert len(block["instructions"]) == 7
    assert block["counts"]["c1"] == 7
    assert len(block["energy_nj"]) == 10
    for value in block["energy_nj"].values():
        assert isinstance(value, float)  # fully resolvable: point values


def test_analyze_unknown_load_flags_interval(tmp_path, capsys):
    image = write_kernel(tmp_path, "flash_lit")
    code, out, _ = run_cli(["analyze", image], capsys)
    assert code == 0
    block = json.loads(out)["blocks"][0]
    assert block["counts"]["c4"] == "unknown"
    assert block["counts"]["unresolved_loads"] == 1
    for value in block["energy_nj"].values():
        assert set(value) == {"lo", "hi"}
        assert value["lo"] < value["hi"]


def test_analyze_counts_each_ldm_and_stm_register(tmp_path, capsys):
    """LDM and STM move one word per listed register through a base the
    analysis cannot resolve: each word is an unresolved load or store, and
    at run time each is one RAM read (c4) or write (c5)."""
    a = Assembler()
    a.ldr_lit(0, "ram")
    a.movs(4, 0)
    a.adds_reg(4, 4, 0)
    a.ldm(0, [1, 2, 3])
    a.stm(4, [1, 2])
    a.bkpt()
    a.word(0x20000100, label="ram")
    path = tmp_path / "ldm_stm.bin"
    path.write_bytes(a.image())
    code, out, _ = run_cli(["analyze", str(path)], capsys)
    assert code == 0
    [block] = json.loads(out)["blocks"]
    counts = block["counts"]
    assert (counts["unresolved_loads"], counts["unresolved_stores"]) == (3, 2)
    assert (counts["c4"], counts["c5"], counts["c6"]) == ("unknown",) * 3
    code, out, _ = run_cli(["run", str(path)], capsys)
    assert code == 0
    run = json.loads(out)["counters"]
    assert (run["c4"], run["c5"]) == (counts["unresolved_loads"],
                                      counts["unresolved_stores"])
    assert run["c6"] == 1  # the literal load


def test_analyze_entry_override(tmp_path, capsys):
    image = write_kernel(tmp_path, "call_ret")
    code, out, _ = run_cli(["analyze", image, "--entry", "0x08000010"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["entry"] == "0x08000010"
    assert len(report["blocks"]) == 1


def test_analyze_error_exits_one(tmp_path, capsys):
    a = Assembler()
    a.b("data")
    a.word(0xFFFFFFFF, label="data")
    path = tmp_path / "odd.bin"
    path.write_bytes(a.image())
    code, out, err = run_cli(["analyze", str(path)], capsys)
    assert code == 1
    assert "analysis error" in err
    assert "0x0800000c" in err


def test_analyze_branch_to_unmapped_address_exits_one(tmp_path, capsys):
    a = Assembler()
    a.bl(0x08020000)  # past the end of the default 64 KiB Flash
    a.bkpt()
    path = tmp_path / "unmapped.bin"
    path.write_bytes(a.image())
    code, out, err = run_cli(["analyze", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("analysis error: ")
    assert "0x08020000" in err and "unmapped fetch" in err
    assert "Traceback" not in err


# -- decoding at an address: Flash, the boot alias, RAM, the last halfword ---

@pytest.mark.parametrize("name", sorted(KERNELS) + [1, 2])
def test_analyze_from_the_alias_matches_flash_shifted(tmp_path, capsys, name):
    image = kernel_image(name) if isinstance(name, str) else golden_image(name)
    path = tmp_path / "prog.bin"
    path.write_bytes(image)
    entry = MemorySystem(image).reset_vector()[1]
    reports = [run_cli(["analyze", str(path), "--entry", hex(at)], capsys)
               for at in (entry, entry - 0x08000000)]
    assert [(code, err) for code, _, err in reports] == [(0, "")] * 2
    flash, alias = (out for _, out, _ in reports)
    # every address of the Flash report, in fields and in branch texts
    assert alias == re.sub(r"0x08([0-9a-f]{6})", r"0x00\1", flash)
    assert alias != flash


# A 12-byte Flash: the vector table (entry 0x08000008), MOVS r0, #1 and, in
# Flash's last halfword, the first half of a BL.
BL_AT_FLASH_END = ((0x20002000).to_bytes(4, "little")
                   + (0x08000009).to_bytes(4, "little")
                   + bytes([0x01, 0x20, 0x00, 0xF0]))


@pytest.mark.parametrize("entry,fault", [
    ([], "unmapped fetch at 0x0800000c) at 0x0800000a"),
    (["--entry", "0x00000008"], "unmapped fetch at 0x0000000c) at 0x0000000a")],
    ids=["flash", "alias"])
def test_analyze_bl_prefix_in_the_last_halfword(tmp_path, capsys, entry,
                                                fault):
    path = tmp_path / "end.bin"
    path.write_bytes(BL_AT_FLASH_END)
    code, out, err = run_cli(["analyze", str(path), "--flash-size", "12"]
                             + entry, capsys)
    assert (code, out) == (1, "")
    assert err == "analysis error: undecodable code (%s\n" % fault


def test_analyze_entry_in_ram_reads_code_until_the_end_of_ram(
        tmp_path, capsys, monkeypatch):
    path = tmp_path / "end.bin"
    path.write_bytes(BL_AT_FLASH_END)
    fetched = []
    read_code = MemorySystem.read_code
    monkeypatch.setattr(MemorySystem, "read_code", lambda mem, addr: (
        fetched.append(addr) or read_code(mem, addr)))
    # zeroed RAM decodes as MOVS r0, r0 up to its end
    code, out, err = run_cli(["analyze", str(path), "--flash-size", "12",
                              "--entry", "0x20000000", "--ram-size", "16"],
                             capsys)
    assert (code, out) == (1, "")
    assert err == ("analysis error: undecodable code (unmapped fetch at "
                   "0x20000010) at 0x20000010\n")
    assert fetched == list(range(0x20000000, 0x20000012, 2))


@pytest.mark.parametrize("timing", [[], ["--waitstates", "1"],
                                    ["--waitstates", "1", "--prefetch", "on"]],
                         ids=["ws0", "ws1_off", "ws1_on"])
def test_run_faults_on_a_bl_prefix_in_the_last_halfword(tmp_path, capsys,
                                                        timing):
    path = tmp_path / "end.bin"
    path.write_bytes(BL_AT_FLASH_END)
    code, out, err = run_cli(["run", str(path), "--flash-size", "12"]
                             + timing, capsys)
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["exit_reason"] == "fault: unmapped fetch at 0x0800000c"
    assert report["result_r0"] == 1
    assert report["counters"]["histogram"] == {"MOVS": 1}


def test_fit_noiseless_csv_recovers_table_row(tmp_path, capsys):
    ds = synth_dataset(seed=0, n=40, noise=0.0)
    csv_path = tmp_path / "data.csv"
    save_dataset(csv_path, ds)
    code, out, _ = run_cli(["fit", str(csv_path), "--kfold", "5"], capsys)
    assert code == 0
    report = json.loads(out)
    beta = report["fit"]["beta"]
    assert beta == [0.964258, 1.652455, 2.091986, 1.109833, 0.650563, 0.633621]
    assert report["fit"]["r2"] == pytest.approx(1.0)
    assert report["cv"]["mean_r2"] == pytest.approx(1.0)
    assert len(report["cv"]["folds"]) == 5


def test_fit_kfold_too_large_is_error(tmp_path, capsys):
    ds = synth_dataset(seed=1, n=230, noise=0.03)
    csv_path = tmp_path / "data.csv"
    save_dataset(csv_path, ds)
    code, _, err = run_cli(["fit", str(csv_path), "--kfold", "500"], capsys)
    assert code == 1
    assert "exceeds dataset size" in err


def test_fit_negative_seed_is_error(tmp_path, capsys):
    ds = synth_dataset(seed=1, n=230, noise=0.03)
    csv_path = tmp_path / "data.csv"
    save_dataset(csv_path, ds)
    code, out, err = run_cli(["fit", str(csv_path), "--seed", "-1"], capsys)
    assert (code, out) == (1, "")
    assert err == "fit error: seed must be a non-negative integer, got -1\n"


def test_fit_malformed_csv_names_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("c1,c2,c3,c4,c5,c6,energy_nj\n1,2,3,4,5,6,7.5\noops\n")
    code, _, err = run_cli(["fit", str(path)], capsys)
    assert code == 1
    assert "line 3" in err


def test_fit_emit_model_round_trip(tmp_path, capsys):
    ds = synth_dataset(seed=2, n=60, noise=0.01)
    csv_path = tmp_path / "data.csv"
    save_dataset(csv_path, ds)
    model_path = tmp_path / "model.csv"
    code, out, _ = run_cli(["fit", str(csv_path), "--emit-model",
                            str(model_path), "--freq", "24",
                            "--prefetch", "on", "--waitstates", "1"], capsys)
    assert code == 0
    assert json.loads(out)["model_file"] == str(model_path)

    image = write_kernel(tmp_path, "pushpop")
    argv = ["run", image, "--freq", "24", "--prefetch", "on",
            "--waitstates", "1", "--model-file", str(model_path)]
    code, out1, _ = run_cli(argv, capsys)
    assert code == 0
    code, out2, _ = run_cli(argv, capsys)
    assert out1 == out2  # byte-identical round trip
    report = json.loads(out1)
    entry = report["energy_nj"][0]
    assert entry["provenance"] == "fitted"
    # energy equals an independent evaluation of the emitted model file
    loaded = load_models(model_path)[0]
    vec = tuple(report["counters"]["c%d" % i] for i in range(1, 7))
    assert entry["energy_nj"] == pytest.approx(estimate(vec, loaded), abs=5e-7)


def test_fit_missing_or_unreadable_dataset_is_usage_error(tmp_path, capsys):
    for dataset in (tmp_path / "missing.csv", tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["fit", str(dataset)])
        assert err.value.code == 2
        assert "cannot read dataset" in capsys.readouterr().err


def test_fit_binary_dataset_is_a_fit_error(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_bytes(b"c1,c2,c3,c4,c5,c6,energy_nj\n\xff\xfe\x00\x81\n")
    code, out, err = run_cli(["fit", str(path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("fit error: ") and "line 2" in err


@pytest.mark.parametrize("column,value", [(2, "nan"), (6, "inf")])
def test_fit_non_finite_value_is_a_fit_error(tmp_path, capsys, column, value):
    ds = synth_dataset(seed=3, n=40, noise=0.01)
    path = tmp_path / "data.csv"
    save_dataset(path, ds)
    lines = path.read_text().splitlines()
    row = lines[30].split(",")
    row[column] = value
    lines[30] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["fit", str(path), "--kfold", "5"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("fit error: ") and "line 31: non-finite" in err
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("row,message", [
    ("1,2,-3,4,5,6,7.5", "counters must be non-negative"),
    ("1,2,3,4,5,6,0", "energies must be positive"),
    ("0,0,0,0,0,0,7.5", "dataset contains an all-zero counter row"),
], ids=["negative-count", "zero-energy", "all-zero-row"])
@pytest.mark.parametrize("plain", [True, False], ids=["plain", "scanned"])
def test_fit_value_rule_names_the_line(tmp_path, capsys, row, message, plain):
    ds = synth_dataset(seed=3, n=40, noise=0.01)
    path = tmp_path / "data.csv"
    save_dataset(path, ds)
    lines = path.read_text().splitlines()
    lines[17] = row
    lines.insert(9, "" if plain else " ")  # a blank line, or one only the scan takes
    if not plain:
        lines[0] = " c1,c2,c3,c4,c5,c6,energy_nj"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["fit", str(path), "--kfold", "5"], capsys)
    assert code == 1 and out == ""
    assert err == "fit error: %s: line 19: %s\n" % (path, message)


@pytest.mark.parametrize("field", ["1" + "0" * 200_000, "1." + "0" * 200_000])
def test_fit_oversized_field_is_a_fit_error(tmp_path, capsys, field):
    ds = synth_dataset(seed=3, n=40, noise=0.01)
    path = tmp_path / "data.csv"
    save_dataset(path, ds)
    lines = path.read_text().splitlines()
    lines[4] = field + lines[4][lines[4].index(","):]
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["fit", str(path)], capsys)
    assert code == 1 and out == ""
    assert err == ("fit error: %s: line 5: field larger than field limit "
                   "(131072)\n" % path)


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_fit_unwritable_emit_model_fails_before_fitting(tmp_path, capsys,
                                                        monkeypatch, where):
    from m0energy import regression

    def no_fit(dataset):
        raise AssertionError("the fit ran before the output path was checked")

    monkeypatch.setattr(regression, "fit", no_fit)
    csv_path = tmp_path / "data.csv"
    save_dataset(csv_path, synth_dataset(seed=4, n=30, noise=0.0))
    target = tmp_path / "missing" / "m.csv" if where == "missing-dir" else tmp_path
    with pytest.raises(SystemExit) as err:
        main(["fit", str(csv_path), "--emit-model", str(target)])
    assert err.value.code == 2
    assert "cannot write model" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--freq", "48", "--waitstates", "0"],
                                   ["--freq", "24"], ["--prefetch", "on"],
                                   ["--waitstates", "1"]],
                         ids=["48-ws0", "freq", "prefetch", "waitstates"])
def test_fit_config_flag_without_emit_model_is_usage_error(tmp_path, capsys,
                                                           flags):
    # the flags only label the model --emit-model writes; without it they
    # used to be ignored, even an invalid combination, and the fit exited 0
    csv_path = tmp_path / "data.csv"
    save_dataset(csv_path, synth_dataset(seed=4, n=30, noise=0.0))
    with pytest.raises(SystemExit) as err:
        main(["fit", str(csv_path)] + flags)
    assert err.value.code == 2
    assert "%s needs --emit-model" % flags[0] in capsys.readouterr().err


def test_run_model_file_without_matching_config_is_usage_error(tmp_path, capsys):
    ds = synth_dataset(seed=3, n=30, noise=0.0)
    csv_path = tmp_path / "data.csv"
    save_dataset(csv_path, ds)
    model_path = tmp_path / "model.csv"
    run_cli(["fit", str(csv_path), "--emit-model", str(model_path)], capsys)
    image = write_kernel(tmp_path, "muls")
    with pytest.raises(SystemExit) as err:
        main(["run", image, "--freq", "48", "--prefetch", "on",
              "--waitstates", "1", "--model-file", str(model_path)])
    assert err.value.code == 2


def test_missing_image_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["run", str(tmp_path / "nope.bin")])
    assert err.value.code == 2


@pytest.mark.parametrize("data", [b"\x00\x20\x00", b"\x00" * (64 * 1024 + 4)],
                         ids=["3-bytes", "larger-than-flash"])
@pytest.mark.parametrize("extra", [[], ["--sweep"]])
def test_run_unloadable_image_exits_one(tmp_path, capsys, data, extra):
    path = tmp_path / "bad.bin"
    path.write_bytes(data)
    code, out, err = run_cli(["run", str(path)] + extra, capsys)
    assert code == 1 and out == ""
    assert err.startswith("run error: image is")


def test_run_bad_reset_vector_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.bin"
    path.write_bytes((0x20002000).to_bytes(4, "little")
                     + (0xF0000001).to_bytes(4, "little"))
    code, _, err = run_cli(["run", str(path)], capsys)
    assert code == 1 and "reset vector" in err


def test_run_unwritable_trace_is_usage_error(tmp_path, capsys):
    image = write_kernel(tmp_path, "loop5")
    with pytest.raises(SystemExit) as err:
        main(["run", image, "--trace", str(tmp_path / "missing" / "x")])
    assert err.value.code == 2
    assert "cannot write trace" in capsys.readouterr().err


class FullDevice:
    """A writer that fails as a full disk does, after `room` writes; with
    `fail_close` its close fails too, flushing what it buffered."""

    def __init__(self, room=0, fail_close=False):
        self.room = room
        self.fail_close = fail_close
        self.closed = False

    def _full(self):
        raise OSError(28, "No space left on device")

    def write(self, text):
        if self.room == 0:
            self._full()
        self.room -= 1
        return len(text)

    def flush(self):
        if self.room == 0:
            self._full()

    def close(self):
        self.closed = True
        if self.fail_close:
            self._full()


@pytest.mark.parametrize("room,fail_close", [(0, False), (5, False),
                                             (10 ** 6, True)],
                         ids=["first-line", "part-way", "on-close"])
def test_run_trace_write_failure_is_a_run_error(tmp_path, capsys, monkeypatch,
                                                room, fail_close):
    image = write_kernel(tmp_path, "pushpop_loop")
    trace = FullDevice(room, fail_close)
    monkeypatch.setattr(cli, "open", lambda path, mode: trace if path == "full"
                        else open(path, mode), raising=False)
    code, out, err = run_cli(["run", image, "--trace", "full"], capsys)
    assert code == 1 and out == ""
    assert err == ("run error: cannot write trace: [Errno 28] No space left "
                   "on device\n")
    assert trace.closed


@pytest.mark.parametrize("argv", [["run"], ["run", "--sweep"],
                                  ["run", "--format", "text"], ["analyze"]],
                         ids=["run", "sweep", "text", "analyze"])
def test_report_write_failure_is_an_error(tmp_path, capsys, monkeypatch, argv):
    image = write_kernel(tmp_path, "loop5")
    monkeypatch.setattr(sys, "stdout", FullDevice())
    code = main(argv + [image])
    assert code == 1
    command = "analysis" if argv == ["analyze"] else "run"
    assert capsys.readouterr().err == (
        "%s error: cannot write report: [Errno 28] No space left on "
        "device\n" % command)


class Discard:
    """A stdout that drops what it is given and counts its characters."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)

    def flush(self):
        pass


def branch_chain(blocks):
    """`blocks` blocks of four instructions, each with a register-indirect
    load and ending in a conditional branch to the next, then a BKPT."""
    a = Assembler()
    for i in range(blocks):
        a.label("b%d" % i)
        a.movs(0, i & 0xFF)
        a.adds_reg(1, 0, 1)
        a.ldr_imm(2, 1)
        a.bne("b%d" % (i + 1))
    a.label("b%d" % blocks)
    a.bkpt()
    return a.image()


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_analyze_never_holds_its_json_report(tmp_path, monkeypatch):
    path = tmp_path / "chain.bin"
    path.write_bytes(branch_chain(300))
    argv = ["analyze", str(path)]
    monkeypatch.setattr(sys, "stdout", Discard())
    assert main(argv) == 0  # fills the decode and import caches
    size = sys.stdout.size
    assert size > 300 * 1000
    mem = MemorySystem(path.read_bytes())
    graph_peak = traced_peak(lambda: extract_cfg(mem, mem.reset_vector()[1]))
    assert traced_peak(lambda: main(argv)) - graph_peak < size
    assert sys.stdout.size == 2 * size


@pytest.mark.parametrize("room", [1, 5, 21])
def test_analyze_write_failure_part_way_is_an_error(tmp_path, capsys,
                                                    monkeypatch, room):
    """The report goes out a record at a time (21 blocks, 22 writes), so
    a full device can fail it after the first write, mid-list or at the
    last one."""
    path = tmp_path / "chain.bin"
    path.write_bytes(branch_chain(20))
    monkeypatch.setattr(sys, "stdout", FullDevice(room))
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err == (
        "analysis error: cannot write report: [Errno 28] No space left on "
        "device\n")


class CollectorProbe(FullDevice):
    """A stdout that records, at each write, whether the cyclic garbage
    collector is enabled, and fails after `room` writes."""

    def __init__(self, room):
        super().__init__(room)
        self.collecting = []

    def write(self, text):
        self.collecting.append(gc.isenabled())
        return super().write(text)


@pytest.mark.parametrize("was_enabled", [True, False],
                         ids=["enabled", "disabled"])
@pytest.mark.parametrize("outcome,code", [
    ("success", 0), ("analysis-error", 1), ("write-failure", 1)])
def test_analyze_pauses_the_collector_and_restores_it(
        tmp_path, capsys, monkeypatch, outcome, code, was_enabled):
    """The collector is off from the CFG walk to the last record written,
    and `analyze` leaves it as it found it, however it ends."""
    path = tmp_path / "prog.bin"
    path.write_bytes(BL_AT_FLASH_END if outcome == "analysis-error"
                     else branch_chain(20))
    stdout = CollectorProbe(5 if outcome == "write-failure" else 10 ** 6)
    monkeypatch.setattr(sys, "stdout", stdout)
    walks = []
    extract = m0energy.cfg.extract_cfg
    monkeypatch.setattr(m0energy.cfg, "extract_cfg", lambda mem, entry: (
        walks.append(gc.isenabled()) or extract(mem, entry)))
    flags = ["--flash-size", "12"] if outcome == "analysis-error" else []
    enabled = gc.isenabled()
    (gc.enable if was_enabled else gc.disable)()
    try:
        assert main(["analyze", str(path)] + flags) == code
        assert gc.isenabled() is was_enabled
    finally:
        (gc.enable if enabled else gc.disable)()
    assert walks == [False]
    assert stdout.collecting == [False] * {"success": 22, "analysis-error": 0,
                                           "write-failure": 6}[outcome]
    assert ("error" in capsys.readouterr().err) is (code == 1)


def test_run_negative_max_cycles_is_usage_error(tmp_path, capsys):
    image = write_kernel(tmp_path, "loop5")
    with pytest.raises(SystemExit) as err:
        main(["run", image, "--max-cycles", "-5"])
    assert err.value.code == 2
    assert "--max-cycles" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "analyze"])
@pytest.mark.parametrize("flags", [
    ["--entry", "-1"], ["--entry", "0x100000000"],
    # --ram-size 2 stops a missing range check before Flash is allocated
    ["--flash-size", "0x100000000", "--ram-size", "2"]],
    ids=["entry-negative", "entry-33-bit", "flash-size-33-bit"])
def test_out_of_range_address_or_size_is_usage_error(tmp_path, capsys,
                                                     command, flags):
    image = write_kernel(tmp_path, "loop5")
    with pytest.raises(SystemExit) as err:
        main([command, image] + flags)
    assert err.value.code == 2
    assert "argument %s: %s is not a 32-bit" % tuple(flags[:2]) in \
        capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "analyze"])
@pytest.mark.parametrize("flag", ["--entry", "--flash-size", "--ram-size"])
@pytest.mark.parametrize("text", ["zz", "0x", "1.5", "08"])
def test_non_number_address_or_size_is_usage_error(tmp_path, capsys, command,
                                                   flag, text):
    image = write_kernel(tmp_path, "loop5")
    with pytest.raises(SystemExit) as err:
        main([command, image, flag, text])
    assert err.value.code == 2
    message = capsys.readouterr().err.splitlines()[-1]
    assert message == ("m0energy %s: error: argument %s: %s is not an integer "
                       "(decimal, or hex with 0x)" % (command, flag, text))


@pytest.mark.parametrize("command", ["run", "analyze"])
@pytest.mark.parametrize("flags", [
    # each also breaks the multiple-of-4 rule, so that without the map
    # check the run still stops before it allocates memory
    ["--flash-size", "0x08000004", "--ram-size", "2"],
    ["--ram-size", "0x20000002"]], ids=["flash", "ram"])
def test_sizes_beyond_the_memory_map_exit_one(tmp_path, capsys, command,
                                              flags):
    code, out, err = run_cli([command, write_kernel(tmp_path, "loop5")]
                             + flags, capsys)
    assert (code, out) == (1, "")
    assert err.startswith({"run": "run", "analyze": "analysis"}[command]
                          + " error: the memory map holds at most")


def test_run_bad_model_file_is_usage_error(tmp_path, capsys):
    image = write_kernel(tmp_path, "loop5")
    model = tmp_path / "model.csv"
    model.write_text("freq_mhz,prefetch,wait_states,b1,b2,b3,b4,b5,b6\n"
                     "20,maybe,0,1,1,1,1,1,1\n")
    with pytest.raises(SystemExit) as err:
        main(["run", image, "--model-file", str(model)])
    assert err.value.code == 2
    assert "model file line 2" in capsys.readouterr().err


def test_run_binary_model_file_is_usage_error(tmp_path, capsys):
    image = write_kernel(tmp_path, "loop5")
    model = tmp_path / "k.bin"
    model.write_bytes(bytes(range(256)))  # not UTF-8 in any locale
    with pytest.raises(SystemExit) as err:
        main(["run", image, "--model-file", str(model)])
    assert err.value.code == 2
    assert "model file missing header" in capsys.readouterr().err


def test_cli_import_does_not_load_numpy():
    src = os.path.dirname(os.path.dirname(m0energy.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, m0energy.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    # the regression names still resolve from the package, on first use
    from m0energy import fit, regression
    assert fit is regression.fit


# -- golden report bytes ------------------------------------------------------
# The sha256 of each report on seeded inputs.  Any change to the JSON writer,
# the text renderer or a report builder that moves one byte fails here.

DEBUG_BYTES = b'"\\\n\x1f\xe9'  # quote, backslash, controls, non-ASCII


def golden_image(seed):
    """A seeded program: a loop of random ALU, MULS, SP-relative and
    register-indirect RAM accesses with a call, Flash literal loads, then
    debug-port output that needs every kind of string escape."""
    rng = random.Random(seed)
    a = Assembler()
    a.sub_sp(16)
    a.ldr_lit(7, "debug")
    a.ldr_lit(6, "ram")
    a.movs(5, rng.randint(3, 9))
    a.label("loop")
    for _ in range(rng.randint(4, 10)):
        kind = rng.choice(["dp", "mul", "ldr_sp", "str_sp", "ram"])
        r = rng.randint(0, 3)
        if kind == "dp":
            a.adds_reg(r, r, rng.randint(0, 4))
        elif kind == "mul":
            a.muls(r, rng.randint(0, 4))
        elif kind == "ldr_sp":
            a.ldr_sp(r, 4 * rng.randint(0, 3))
        elif kind == "str_sp":
            a.str_sp(r, 4 * rng.randint(0, 3))
        else:
            a.str_imm(r, 6, 4 * rng.randint(0, 7))
            a.ldr_imm(r, 6, 4 * rng.randint(0, 7))
    a.bl("func")
    a.subs_imm8(5, 1)
    a.bne("loop")
    text = DEBUG_BYTES + bytes(rng.randint(0x20, 0x7E) for _ in range(4))
    for byte in text:
        a.movs(0, byte)
        a.strb_imm(0, 7)
    a.bkpt()
    a.label("func")
    a.push([4], True)
    a.movs(4, rng.randint(0, 255))
    a.eors(0, 4)
    a.pop([4], True)
    a.word(0x40000000, label="debug")
    a.word(0x20000100, label="ram")
    return a.image()


def pc_relative_image():
    """Dense in the decodes whose fields depend on their address: each of 28
    units loads its literal word twice, with a B to the next instruction
    between, and takes the word's address twice, then branches over an add
    under one of the 14 conditions and over the word.  Odd units start a
    halfword off a word boundary, so each pc-relative encoding recurs at
    other addresses, and each of B, B<cond>, literal LDR and ADR has
    encodings that recur at both alignments.  It runs once through,
    summing the words and addresses into r0."""
    a = Assembler()
    conds = sorted(COND_CODES, key=COND_CODES.get)
    a.movs(0, 0)
    for i in range(28):
        if i % 2:
            a.nop()
        a.ldr_lit(1, "w%d" % i)
        a.b("m%d" % i)
        a.label("m%d" % i)
        a.ldr_lit(1, "w%d" % i)
        a.adr(2, "w%d" % i)
        a.adr(2, "w%d" % i)
        a.adds_reg(0, 0, 1)
        a.b("s%d" % i, cond=conds[i // 2 % 14])
        a.adds_reg(0, 0, 2)
        a.label("s%d" % i)
        a.b("t%d" % i)
        a.word(0x9E3779B9 * (i + 1), label="w%d" % i)
        a.label("t%d" % i)
    a.bkpt()
    return a.image()


GOLDEN_SHA256 = {
    ("analyze", 1): "8f2b3edee3a4ab43bffed397d99bf00a5b525aa061154c64dc37ffa58b964dca",
    ("analyze", 2): "df5ecc45f554cc1b21c79c21bf4b1416552a32912d779b6e7e4ec9f24912e9bf",
    ("analyze-text", 1): "ededc09b4f50600cb01f8df8efdd50c45dc0ad4021e1eb6e0044194f5a9ce319",
    ("analyze-text", 2): "b329039c4be6496af6d297fd2fba1b15ebd0e98c8fbb976566423a4ec93dc52c",
    ("run", 1): "fb6950ca9f752ed1d4b0fbc5d2189a6cc75a2f0e93229d9b2662cd412bc9701b",
    ("run", 2): "3f8b32677880b20598b9968de34138f1dd967199362b4791fc48e31e8a28d2cc",
    ("sweep", 1): "4798d3fbc5a4f2e50ee594cfa11ebcdae843f4b917854e71d531ae36f9c9f3d0",
    ("sweep", 2): "7fbba337a961d36e5db139b096756b9b5f341415c3f5c949626daad85e64bb34",
    ("fit", 1): "054b730ca173db622c83e01527d19aa32e1fb377d25cc55915b209e934c4d783",
    ("fit", 2): "b5f1258f412f254c9fd245a5ee3b5e6173ad9ec0c62a9e70597bf4ff3fa3c959",
    ("analyze", 3):
        "fab64bebad6bdec81c4ae71931350bcf0f6831daef2c870d12456983278651ea",
    ("analyze-text", 3):
        "829c704c92ee6a9263d476b0c55f83dd52aca23f6cffcb2bc03e4cb375a08b84",
    ("analyze", 4):
        "c0b00ea19d31ce635c42c5ddbfbff7d3f741f3a198b2be5654617542aa28a94b",
    ("analyze-text", 4):
        "acf5197bf0e528a9e8c0fc4ef937b91b0924456602f2692b3885dd90844fe779",
    ("analyze", 5):
        "415496ce951d3c10b17c0067c1a009ef00aa43f8706b7b1641152d5ab7b6b814",
    ("analyze-text", 5):
        "c69373e1f3863c7c0e45eb3b19e550a7869d35ac0d24692e955737f90b4da521",
    ("analyze", 6):
        "4bb191fcb8b0a75aa34baa7c9867e749757f6212d8d7f3aeffc229f232351e7e",
    ("analyze-text", 6):
        "3d6bd88649c94c4bef4c5644888348e26c37328976653072a5f2f1c7a54dd77b",
    ("analyze", "alu_mix"):
        "b668822ff6e8a6f13806dc01c6769d8cc464651ef7329079e1286f1f6a6bf1f2",
    ("analyze-text", "alu_mix"):
        "d33e022f687fa4d8f8216d26d2766afd9a980d0b933beb245d866a21050e0a30",
    ("analyze", "call_ret"):
        "6df088bf8e242320d888aff3caa6c4a46d3bdac1c10249a492cae05bac604801",
    ("analyze-text", "call_ret"):
        "73092252ed9948e014f799ad69429be8b29bfe8f1ae6cabbeed5111702b0efcc",
    ("analyze", "flash_lit"):
        "504adefeb501341f58db86ab9c317f01fa800f67492f163310f85ad964c7e1b6",
    ("analyze-text", "flash_lit"):
        "8351348a1f3a453a46012e30798e46c541d817c100d221de65794f5fdbfcdd5f",
    ("analyze", "lit_alu"):
        "da95df7555bb3dd23fdabc9f5b12d7ff4000ff7eac0c81a8ec9fee4071fd884d",
    ("analyze-text", "lit_alu"):
        "e32820e98c7ca0bf55441e99660861732ca449906361de5505ee950c47dd7108",
    ("analyze", "loop5"):
        "80d56b4252094297f719e79bbd59a5c1175dcd5e79ba5eb1a17869e57149b0ea",
    ("analyze-text", "loop5"):
        "946e694a7c237b9701ee59bce778cd20d89dbf775f4c257a17b91c1e9c94eeb6",
    ("analyze", "muls"):
        "5985e06a3e812baaef091e1b92a2debe938df2afdea3bc3ea55cdf9b580a2c8a",
    ("analyze-text", "muls"):
        "f707fad2006093b55e4d4a4cd9a1f053c685fd3d6363fb965c6b966e1dc617dc",
    ("analyze", "pop_pc"):
        "6e14282e9d729c6ce112d2d186466291ccf1e05bc8c7f5bae29c4f8199a6b18e",
    ("analyze-text", "pop_pc"):
        "a576a59ad071ad0639733ae0a9881bb7c09d54aa3e4a47b0b3ecabdadeec6718",
    ("analyze", "pushpop"):
        "92032f04bdaa7df97a49b7ac7387af91650b57de5785bde5819826eb333f874f",
    ("analyze-text", "pushpop"):
        "72dacc23ea67461ecbf10a04631b25ce7b1d9b91bb1e57b018b5ddb7f6af39fc",
    ("analyze", "pushpop_loop"):
        "80cbe456db8e0850ff276f035e14bc764f4d6426047bd6155df047bf54c025fd",
    ("analyze-text", "pushpop_loop"):
        "20d9d7ff5c4b38452730248c334a2154fa3fa96ed1d0561bc137f41d3f4459a6",
    ("analyze", "ram_rw"):
        "bf2e629ce97d1b07ce629f94a95893e5a74ee605a4d22340ccda7f734845f4bb",
    ("analyze-text", "ram_rw"):
        "e15a0fc32bf5976907355c416e5f0216945eb438bcf903b127e3be94b291d156",
    ("analyze", "straight6"):
        "15cd3cab480b9facd75e2677b436560d35f44a543b4e851127728833ebe8ecd7",
    ("analyze-text", "straight6"):
        "acca87ef214a2a60ab6f8d19ae1016c3b8a8afda7d44a82a6a8055a07b88d460",
    ("analyze", "pc_relative"):
        "64bed4f13b6f580d1368fe45fddf1f196509e46578c75691fd15a783c55c9465",
    ("analyze-text", "pc_relative"):
        "5b00dc5a16cf52a65f5a4cffec611521370fc9b1d163771fe27593102a1b14fd",
    ("run", "pc_relative"):
        "634db4c5fc6e14fc9e5ea2a83a52155ab6864e38e1bf5855e7e26ce2697eeb05",
    # (report, trace)
    ("trace-on", 1): (
        "fb6950ca9f752ed1d4b0fbc5d2189a6cc75a2f0e93229d9b2662cd412bc9701b",
        "e7e7ad286668c930c2888311fe1e76afa09a2358da1a35f31ef4194324c51489"),
    ("trace-off", 1): (
        "a7fa4e0ee488cf25c65365cd1b06bce999000e262c7fdee800596a8a130b3ecb",
        "8a78aef69234f26c9f85f56100bcfeda1d39724670e25057a65b4be2ebb1f541"),
    ("trace-on", 2): (
        "3f8b32677880b20598b9968de34138f1dd967199362b4791fc48e31e8a28d2cc",
        "9c326de5a64800a43301f4cbab2e842121ddd3129d3dc94b9b8aa9c3f3c62d03"),
    ("trace-off", 2): (
        "b1608529691c17e66b30f253f924b84da5de2f2ca1fd663db93ab488dbe5bfb0",
        "39508708eef35dae4bd09246402e21262158ba2f82f97d4b34ec1b6a2f1ff6dc"),
    ("trace-on", "pc_relative"): (
        "634db4c5fc6e14fc9e5ea2a83a52155ab6864e38e1bf5855e7e26ce2697eeb05",
        "5953e872f2670741e115d320680dac4262572b2d80864b5e55c1a5f64a180ae0"),
    ("trace-off", "pc_relative"): (
        "79a67629edb6b78daa2237b16dd222be4bb6b6cba4dfa25d7af51d825189188d",
        "f18cb522ca57ae29ee763f7680ba223dc6eacffe2fe827fe2cb148d38caf2fbe"),
}


# far above the golden programs' cycles (661 at most, in any timing class),
# so a wrong branch fails a `run` or `sweep` row at once instead of running
# to the default budget; a report does not contain the budget
GOLDEN_MAX_CYCLES = ["--max-cycles", "100000"]


def golden_argv(command, seed, tmp_path):
    if command == "fit":
        save_dataset(tmp_path / "data.csv", synth_dataset(seed=seed, n=120))
        return ["fit", "data.csv", "--kfold", "5", "--seed", str(seed)]
    (tmp_path / "prog.bin").write_bytes(
        pc_relative_image() if seed == "pc_relative" else kernel_image(seed)
        if isinstance(seed, str) else golden_image(seed))
    return {"analyze": ["analyze", "prog.bin"],
            "analyze-text": ["analyze", "prog.bin", "--format", "text"],
            "run": ["run", "prog.bin", "--freq", "24", "--prefetch", "on",
                    "--waitstates", "1"] + GOLDEN_MAX_CYCLES,
            "sweep": ["run", "prog.bin", "--sweep"] + GOLDEN_MAX_CYCLES,
            **{"trace-" + prefetch: [
                "run", "prog.bin", "--freq", "24", "--waitstates", "1",
                "--prefetch", prefetch, "--trace", "trace.txt"]
               + GOLDEN_MAX_CYCLES for prefetch in ("on", "off")}}[command]


# every report on golden seeds 1 and 2; `analyze` on more seeds and on
# every helper kernel (named in place of a seed); `analyze` and `run` on
# `pc_relative_image`; then a traced run at one wait state, whose report and
# trace are both pinned, with prefetch on and off, on seeds 1 and 2 and
# `pc_relative_image` (2, 2 and 56 Flash data reads)
GOLDEN_CASES = [(command, seed) for seed in (1, 2) for command in
                ("analyze", "analyze-text", "run", "sweep", "fit")] + [
    (command, seed) for seed in (3, 4, 5, 6, *sorted(KERNELS))
    for command in ("analyze", "analyze-text")] + [
    (command, "pc_relative") for command in ("analyze", "analyze-text", "run")
] + [(command, seed) for seed in (1, 2, "pc_relative")
     for command in ("trace-on", "trace-off")]


@pytest.mark.parametrize("command,seed", GOLDEN_CASES,
                         ids=["%s-%s" % case for case in GOLDEN_CASES])
def test_report_bytes_are_pinned(tmp_path, capsys, monkeypatch, command, seed):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(golden_argv(command, seed, tmp_path), capsys)
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    if command.startswith("trace-"):
        digest = digest, hashlib.sha256(
            (tmp_path / "trace.txt").read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[command, seed]


class Real(float):
    """A float subclass, as numpy.float64 is."""


@pytest.mark.parametrize("obj,text", [
    ('say "hi"', r'"say \"hi\""'),
    ("a\\b", r'"a\\b"'),
    ("a\nb", r'"a\u000ab"'),
    ("\x1f", r'"\u001f"'),
    ("\x7f caf\xe9 \u2264", '"\x7f caf\xe9 \u2264"'),
    (float("nan"), "null"),
    (float("inf"), "null"),
    (float("-inf"), "null"),
    (True, "true"),
    (False, "false"),
    (1, "1"),
    (None, "null"),
    (2.5, "2.500000"),
    (Real(1 / 3), "0.333333"),
    ((1, "x"), '[\n  1,\n  "x"\n]'),
    ({}, "{}"),
    ([], "[]"),
    ((), "[]"),
    ({1: None, None: 2, 2.5: "t"},
     '{\n  "1": null,\n  "None": 2,\n  "2.5": "t"\n}'),
    ({"a": [1, {"b": -0.5, "c": []}], "d": {}},
     '{\n  "a": [\n    1,\n    {\n      "b": -0.500000,\n'
     '      "c": []\n    }\n  ],\n  "d": {}\n}'),
], ids=["quote", "backslash", "newline", "unit-separator", "non-ascii",
        "nan", "inf", "-inf", "true", "false", "int", "none", "float",
        "float-subclass", "tuple", "empty-dict", "empty-list", "empty-tuple",
        "non-str-keys", "nested"])
def test_to_json_rows(obj, text):
    assert cli.to_json(obj) == text


class Text(str):
    """A str subclass with its own __str__, which a key is written by."""

    def __str__(self):
        return "text:" + str.__str__(self)


class Word(str):
    pass


class Count(int):
    pass


class Table(dict):
    pass


class Items(list):
    pass


_ORACLE_CHARS = ['"', "\\", "a", "Z", " ", "\x7f", "\xe9", "\u2264", "\U0001f600",
                 *map(chr, range(32))]
_ORACLE_KEYS = [1, True, 1.0, None, Text("k"), Word("k"), "k", "lo", "hi",
                "energy_nj", 'q"', "\x00"]


def _oracle_text(rng):
    return "".join(rng.choice(_ORACLE_CHARS) for _ in range(rng.randrange(6)))


def _oracle_value(rng, depth):
    """A seeded JSON-able value: nested containers of every written type
    and of subclasses of them."""
    kind = rng.randrange(16 if depth < 4 else 10)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.choice([0, -1, 7, 2 ** 31, -(10 ** 30), Count(5), True])
    if kind in (2, 3):
        return rng.choice([rng.uniform(-1e6, 1e6), rng.uniform(-1, 1) * 1e-9,
                           1e300, -0.0, 0.5, float("nan"), float("inf"),
                           float("-inf"), Real(rng.uniform(-10, 10))])
    if kind in (4, 5, 6):
        text = _oracle_text(rng)
        return rng.choice([text, text, Text(text), Word(text)])
    if kind in (7, 8, 9):
        return "".join(map(chr, range(32))) if kind == 9 else "0x%08x" % kind
    size = rng.randrange(5)
    items = [_oracle_value(rng, depth + 1) for _ in range(size)]
    if kind in (10, 11):
        return rng.choice([list, tuple, Items])(items)
    keys = [rng.choice(_ORACLE_KEYS + [_oracle_text(rng)]) for _ in range(size)]
    return rng.choice([dict, dict, Table])(zip(keys, items))


@pytest.mark.parametrize("chunk", range(5))
def test_to_json_matches_the_reference_writer(chunk):
    for case in range(chunk * 100, chunk * 100 + 100):
        value = _oracle_value(random.Random(zlib.crc32(b"json %d" % case)), 0)
        assert cli.to_json(value) == reference_to_json(value), case
        assert cli.to_json(value, 2) == reference_to_json(value, 2), case


def test_to_json_writes_each_key_type_as_the_reference():
    value = {"k": 1, Text("t"): 2, Word("j"): 3, 1: 4, 1.5: 5, None: 6}
    assert cli.to_json([value, {"k": [value]}]) == \
        reference_to_json([value, {"k": [value]}])
    assert '"text:k": 2' in cli.to_json({Text("k"): 2})


@pytest.mark.parametrize("obj", [{1, 2}, b"x", object(), [1, {"k": 1j}]],
                         ids=["set", "bytes", "object", "nested-complex"])
def test_to_json_rejects_unsupported_types(obj):
    with pytest.raises(TypeError, match="cannot serialize"):
        cli.to_json(obj)


# -- the analyze block writer -------------------------------------------------
# `analyze` writes each block record from templates; it must equal the
# generic writer's text for the block's `_block_dict` at the record's depth.

def assert_block_writer_matches(blocks, models):
    labels = [m.config.label() for m in models]
    write = cli._block_writer(models, labels)
    for block in blocks + blocks:  # the second pass finds every key rendered
        assert write(block) == cli.to_json(
            cli._block_dict(block, models, labels), 2), hex(block.start)


WRITER_IMAGES = ([("kernel", name) for name in sorted(KERNELS)]
                 + [("random", seed) for seed in range(24)]
                 + [("golden", seed) for seed in range(1, 21)])


@pytest.mark.parametrize("kind,seed", WRITER_IMAGES,
                         ids=["%s-%s" % case for case in WRITER_IMAGES])
def test_block_writer_matches_to_json_of_block_dict(kind, seed):
    from test_engine import random_program
    image = {"kernel": kernel_image, "random": random_program,
             "golden": golden_image}[kind](seed)
    mem = MemorySystem(image)
    blocks = extract_cfg(mem, mem.reset_vector()[1]).sorted_blocks()
    assert_block_writer_matches(blocks, builtin_models())


def hand_block(start, counts, texts=("ADDS r0, r0, r1",), successors=()):
    return BasicBlock(start, start + 2 * len(texts),
                      [SimpleNamespace(text=text, offset=None)
                       for text in texts],
                      counts, list(successors))


@pytest.mark.parametrize("models", [builtin_models()], ids=["builtin"])
def test_block_writer_matches_on_hand_built_blocks(models):
    blocks = [
        hand_block(0x08000000, StaticCounts(c1=2, c6_known=1),
                   ["LDR r0, [pc, #4]", "MOVS r1, #1"]),
        hand_block(0x08000010, StaticCounts(c1=1, c2=1),
                   successors=[(None, "return")]),
        hand_block(0x08000020, StaticCounts(c1=3, c4_known=1, c5_known=2,
                                            unresolved_loads=2,
                                            unresolved_stores=1),
                   successors=[(0x08000000, "taken"),
                               (0x08000024, "fallthrough")]),
        hand_block(0x08000030, StaticCounts(unresolved_stores=1)),
    ]
    assert_block_writer_matches(blocks, models)


def test_block_writer_renders_each_counts_key_once(monkeypatch):
    rendered = []
    block_energies = m0energy.cfg.block_energies
    monkeypatch.setattr(m0energy.cfg, "block_energies", lambda block, models: (
        rendered.append(block.start) or block_energies(block, models)))
    first = hand_block(0x08000000, StaticCounts(c1=2, c5_known=1),
                       successors=[(0x08000010, "taken")])
    same = hand_block(0x08000010, StaticCounts(c1=2, c5_known=1),
                      ["MULS r1, r2", "STR r0, [sp]", "BX lr"])
    loads = hand_block(0x08000020, StaticCounts(c1=2, c5_known=1,
                                                unresolved_loads=1))
    stores = hand_block(0x08000030, StaticCounts(c1=2, c5_known=1,
                                                 unresolved_stores=1))
    models = builtin_models()
    write = cli._block_writer(models, [m.config.label() for m in models])
    texts = [write(block) for block in (first, same, loads, stores, loads)]
    assert rendered == [first.start, loads.start, stores.start]
    energy = [text.partition('"counts"')[2].partition('"successors"')[0]
              + text.partition('"energy_nj"')[2] for text in texts]
    assert energy[0] == energy[1] and energy[2] == energy[4]
    assert len(set(energy[:4])) == 3


# -- golden trace bytes -------------------------------------------------------
# The sha256 of the `run --trace` file of every helper kernel under each
# timing class, and of one run cut by --max-cycles.  A recount of the trace
# checks its numbers; these pins also hold its formatting.

TRACE_CLASSES = {
    "ws0": ["--waitstates", "0"],
    "ws1_off": ["--freq", "48", "--waitstates", "1", "--prefetch", "off"],
    "ws1_on": ["--freq", "48", "--waitstates", "1", "--prefetch", "on"],
}

TRACE_CUT = ("pushpop_loop", "ws1_on", 25)  # ends mid-loop, exit code 1

TRACE_SHA256 = {
    ("straight6", "ws0", None): "f70045d32ab34fff0c1324e6db0d86cf13957e7200c56fec1d65c2fcc1956b47",
    ("straight6", "ws1_off", None): "3fbb094c764e79cceb079d12b75c471dab08f16e2600dcae7c4fea3dd67b6d85",
    ("straight6", "ws1_on", None): "9d7d300422cb1b0e39fba9bb8feec068c685d2c64361b09d5662096cda9cecdd",
    ("alu_mix", "ws0", None): "1dc2b5b4a9ac84213401f922b9476e9b272d5d6dad675e7afff848e708382fd8",
    ("alu_mix", "ws1_off", None): "61144c621774098e3cafa4ea676d3eb3845fa04e114320ae1c0771ee77856a49",
    ("alu_mix", "ws1_on", None): "8f337d520cc47a5fb4815a6ab3b7be4774460e4c14c98ba5173882e77f04e5d5",
    ("muls", "ws0", None): "de3611d00ae40a27abc8888dd858dbff156c51ef52ffb45a39019ae0200734e3",
    ("muls", "ws1_off", None): "62800b1a07ce52995dc0f826714666a2b8f37d7db7a68e36a34ac39fcff02b9a",
    ("muls", "ws1_on", None): "c55db9e489b1d549e9875202a23a52a11de45a16f4321366a5e277a77bdd762b",
    ("ram_rw", "ws0", None): "7de71486c3ba355dc544575ee80a3fcefd9b4be0d64ee9e86238ae9530ba7ab5",
    ("ram_rw", "ws1_off", None): "8d922fe5fd8db93f9abb1d996231d88a3077e87747b6fb085aa0c942b715ef06",
    ("ram_rw", "ws1_on", None): "9da4e1f2d7e7f5f170c5683f6e8eab664f269ced413bb60d7079739cc1d60822",
    ("loop5", "ws0", None): "ee64171faad10e775d2262f92fa77a14001420d48888f8027cfb0254b7bc2b35",
    ("loop5", "ws1_off", None): "62b3a2db142620e90bc8b21acec84bac86a14700655aad8691718977a16febf5",
    ("loop5", "ws1_on", None): "7782643f83efc36be4c23d223e04a8493c3f56297ecf5d83ef1e2e788de761dd",
    ("call_ret", "ws0", None): "80adff40baffeb79a868c0e131949ef3141b48dfef8f53ac8fdbcc0410e051e3",
    ("call_ret", "ws1_off", None): "6b581401bf6540b309015ab6ce37b153fa6940f8f58d549f8cf489f49888333b",
    ("call_ret", "ws1_on", None): "e89a29a43315e581d8ebd6696b4ca889d2f91e9973e2f8d3523b5fa12192d804",
    ("pushpop", "ws0", None): "e8db3bf24b00fda8404cd1581f5904210efd3388de8751a819dacd2b9ed8e0c3",
    ("pushpop", "ws1_off", None): "04bbad94fe35f0a890c8fc9ac502f4519135dd74bb0900d23e695047801018df",
    ("pushpop", "ws1_on", None): "c37d631b122ca6da1f44413de38f9d8a26fc8395db4060c1fa5cba720c30e7f9",
    ("pop_pc", "ws0", None): "8e1593aa0952297e01a4c5b1e82e2028cceae9ee2404adc17c7b6c087d8a7453",
    ("pop_pc", "ws1_off", None): "65b996a335e3b205250cf0e4a630bb0068156123dcd53eef3fecd3c8da7e1ef4",
    ("pop_pc", "ws1_on", None): "799a1bddbb4492e287e7f242064fd979bc9ad16cc3192180475bbaa7b74cbdbe",
    ("flash_lit", "ws0", None): "cb3f5b5176b6a69c304022745c2f2e079518d24e99d5e56675a8b0a25933ab21",
    ("flash_lit", "ws1_off", None): "6fef0118c2f82191940a3d5d24474f469db81c2e58f82a172b2e63d8affac838",
    ("flash_lit", "ws1_on", None): "0c474a864b03d69e1857245777554b246661cee4dcea4f8be3c2d5bf14890286",
    ("lit_alu", "ws0", None): "e905b0d188b7768fecd3243072a4e89af8e767343fbe22e7e3240a5ffb0bf992",
    ("lit_alu", "ws1_off", None): "b34b1be0eeb34ee9f0e843599095bb83bcef5cd5d740648981fcd13cb9983c0a",
    ("lit_alu", "ws1_on", None): "a765a00c0ce9f3ed96579d4bcf6b17c839a7e7bdb70681ab0de37852944f3b01",
    ("pushpop_loop", "ws0", None): "ac4e6e55868ddfd4e0c8bd3a12a98c60e64f0f8d6a4c4ec0eee7c29c4f354dc0",
    ("pushpop_loop", "ws1_off", None): "6a4e2b7dcb8a1b6d4879303c445c05c48e458d95fa007dfb3b9f8b6d2cb0ac8c",
    ("pushpop_loop", "ws1_on", None): "0032260123027fa3e4ca1e1a76f333b68da844eb3f192c5773da3dd96ebc8278",
    ("pushpop_loop", "ws1_on", 25): "b12bf09428c44e3df839ab2f838625921e2d6bd274cd1c129f480fef6c2c7b7d",
}


@pytest.mark.parametrize("kernel,timing,budget", [
    (kernel, timing, None) for kernel in KERNELS for timing in TRACE_CLASSES
] + [TRACE_CUT])
def test_trace_bytes_are_pinned(tmp_path, capsys, kernel, timing, budget):
    trace = tmp_path / "trace.txt"
    argv = ["run", write_kernel(tmp_path, kernel), "--trace", str(trace)]
    argv += TRACE_CLASSES[timing]
    if budget is not None:
        argv += ["--max-cycles", str(budget)]
    code, _out, err = run_cli(argv, capsys)
    assert (code, err) == (0 if budget is None else 1, "")
    digest = hashlib.sha256(trace.read_bytes()).hexdigest()
    assert digest == TRACE_SHA256[kernel, timing, budget]


# -- seeded fuzz of the command line ------------------------------------------

# halfwords that run: MOVS, ADDS, LDR and STR through r0, PUSH {lr}, POP
# {pc}, BX lr, a branch to itself, BKPT and the first half of a BL
FUZZ_HALFWORDS = (0x2001, 0x1C40, 0x6800, 0x6001, 0xB500, 0xBD00, 0x4770,
                  0xE7FE, 0xBE00, 0xF000)
FUZZ_SIZES = ("0x40", "0x100", "0x2000", "0x10000", "0x40000", "0", "6", "x",
              "0xFFFFFFFF", "-4")
FUZZ_ENTRIES = ("0x08000008", "0x08000009", "0x20000001", "0x9", "0x7",
                "0xFFFFFFFF", "zz")
FUZZ_VALUES = ("0", "1", "17", "12345", "2.5", "-3", "nan", "inf", "-inf",
               "", "x")


def fuzz_image(rng):
    """Random bytes, or a vector table (an SP in or beside RAM, a reset
    vector at or near the code after it) followed by halfwords that run."""
    if rng.random() < 0.3:
        return rng.randbytes(rng.randrange(40))
    sp = rng.choice((0x20002000, 0x20000100, 0x20002004, rng.getrandbits(32)))
    entry = rng.choice((0x08000009, 0x08000009, 0x08000008, 0x0800000B))
    code = [rng.choice(FUZZ_HALFWORDS) if rng.random() < 0.7
            else rng.getrandbits(16) for _ in range(rng.randrange(1, 24))]
    return b"".join([sp.to_bytes(4, "little"), entry.to_bytes(4, "little")]
                    + [hw.to_bytes(2, "little") for hw in code])


def fuzz_csv(rng):
    """A fit dataset: the header or a bad one, then rows of counts and
    energies, in half of the files one row with a non-finite, empty,
    negative or non-numeric field or too few fields."""
    lines = [",".join(CSV_HEADER) if rng.random() < 0.9 else "c1,c2,e"]
    for _ in range(rng.randrange(40)):
        lines.append(",".join([str(rng.randrange(10 ** 4)) for _ in range(6)]
                              + ["%.3f" % rng.uniform(0, 10 ** 4)]))
    if len(lines) > 1 and rng.random() < 0.5:
        row = lines[rng.randrange(1, len(lines))].split(",")
        row[rng.randrange(7)] = rng.choice(FUZZ_VALUES)
        lines[rng.randrange(1, len(lines))] = ",".join(
            row[:rng.randrange(7)] if rng.random() < 0.2 else row)
    return "\n".join(lines) + "\n" * rng.randrange(2)


def fuzz_argv(rng, tmp_path):
    command = rng.choice(("run", "run", "sweep", "trace", "analyze", "fit"))
    if command == "fit":
        dataset = tmp_path / "fuzz.csv"
        dataset.write_text(fuzz_csv(rng))
        argv = ["fit", str(dataset), "--kfold",
                rng.choice(("-1", "0", "1", "2", "3", "5", "10", "40"))]
        if rng.random() < 0.3:
            argv += ["--seed", rng.choice(("-1", "0", "7"))]
        if rng.random() < 0.3:
            argv += ["--emit-model", str(tmp_path / "fuzz-model.csv"),
                     "--freq", rng.choice(("20", "48")), "--waitstates", "1"]
        return argv
    image = tmp_path / "fuzz.bin"
    image.write_bytes(fuzz_image(rng))
    argv = ["analyze" if command == "analyze" else "run", str(image)]
    if command == "sweep":
        argv.append("--sweep")
    if command == "trace":
        argv += ["--trace", str(tmp_path / "fuzz-trace.txt")]
    if command != "analyze":
        argv += ["--max-cycles", str(rng.choice((0, 1, 50, 2000, 20000)))]
    sizes = FUZZ_SIZES + ("%#x" % rng.randrange(0x40000),)
    for flag, choices in (("--flash-size", sizes), ("--ram-size", sizes),
                          ("--entry", FUZZ_ENTRIES
                           + ("%#x" % rng.getrandbits(32),))):
        if rng.random() < 0.25:
            argv += [flag, rng.choice(choices)]
    if rng.random() < 0.2:
        argv += ["--format", "text"]
    return argv


def test_seeded_cli_fuzz_exits_cleanly(tmp_path, capsys):
    """Random images, memory sizes, entries and datasets never escape
    `main` as an exception: every call exits 0, 1 or 2 (argparse's usage
    errors), writes no traceback, and a failure without a report writes
    one line to stderr (a run that does not halt reports why on stdout)."""
    rng = random.Random(36)
    seen = set()  # (subcommand, exit code)
    for _ in range(300):
        argv = fuzz_argv(rng, tmp_path)
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            code = 2
        out, err = capsys.readouterr()
        assert code in (0, 1, 2) and "Traceback" not in err, (argv, err)
        if code == 1:
            assert len(err.splitlines()) == (0 if out else 1), (argv, err)
        seen.add((argv[0], code))
    assert seen == {(command, code) for command in ("run", "analyze", "fit")
                    for code in (0, 1, 2)} - {("fit", 2)}


MODEL_TOKENS = ("nan", "inf", "-inf", "1e400", "0x10", "1_0", " off ",
                "maybe", "\0", "\xff", "", "20", "48", "on", "1", "-0.5")


def fuzz_model_file(rng):
    """A --model-file: the header or none, then records of 8, 9 or 10
    fields, each a built-in config and random coefficients with some fields
    swapped for tokens; blank lines; LF or CRLF line ends."""
    lines = [MODEL_FILE_HEADER] if rng.random() < 0.85 else []
    for _ in range(rng.randrange(6)):
        config = rng.choice(builtin_configs())
        fields = [str(config.frequency_mhz),
                  "on" if config.prefetch else "off", str(config.wait_states)]
        fields += ["%.6f" % rng.uniform(-1, 3) for _ in range(6)]
        for _ in range(rng.choice((0, 0, 0, 0, 1, 2))):
            fields[rng.randrange(9)] = rng.choice(MODEL_TOKENS)
        count = rng.choice((8, 9, 9, 9, 9, 9, 9, 10))
        lines.append(",".join(fields[:count] + ["1"] * (count - 9)))
        if rng.random() < 0.2:
            lines.append(rng.choice(("", "  ")))
    end = rng.choice(("\n", "\r\n"))
    return (end.join(lines) + end * rng.randrange(2)).encode("latin-1")


def model_fuzz_argv(rng, tmp_path, image):
    """The argvs of one case: `run` with a fuzzed model file, alone, with
    --sweep or with config flags; or `fit --emit-model` on a fuzzed
    dataset, then `run` with the model file it wrote, if it wrote one."""
    if rng.random() < 0.2:
        dataset = tmp_path / "fuzz.csv"
        dataset.write_text(fuzz_csv(rng))
        model = tmp_path / "emitted.csv"
        model.unlink(missing_ok=True)
        config = rng.choice(builtin_configs())
        flags = ["--freq", str(config.frequency_mhz), "--prefetch",
                 "on" if config.prefetch else "off",
                 "--waitstates", str(config.wait_states)]
        return (["fit", str(dataset), "--kfold", "2", "--emit-model",
                 str(model)] + flags,
                ["run", image, "--model-file", str(model)] + flags)
    path = tmp_path / "fuzz-model.csv"
    path.write_bytes(fuzz_model_file(rng))
    argv = ["run", image, "--model-file", str(path)]
    kind = rng.choice(("alone", "sweep", "config"))
    if kind == "sweep":
        argv.append("--sweep")
    elif kind == "config":
        argv += ["--freq", rng.choice(("20", "24", "48")),
                 "--prefetch", rng.choice(("on", "off")),
                 "--waitstates", rng.choice(("0", "1"))]
    if rng.random() < 0.3:
        argv += ["--max-cycles", "10"]
    return argv,


def test_seeded_model_file_fuzz_exits_cleanly(tmp_path, capsys):
    """Random model files (no header, blank lines, CRLF, 8 to 10 fields,
    non-finite, hex, underscored, padded and binary tokens) and emitted
    ones never escape `main`: the assertions of the CLI fuzz above."""
    rng = random.Random(37)
    image = write_kernel(tmp_path, "loop5")
    seen = set()  # (subcommand, exit code)
    for _ in range(200):
        for argv in model_fuzz_argv(rng, tmp_path, image):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2, argv
                code = 2
            out, err = capsys.readouterr()
            assert code in (0, 1, 2) and "Traceback" not in err, (argv, err)
            if code == 1:
                assert len(err.splitlines()) == (0 if out else 1), (argv, err)
            seen.add((argv[0], code))
    assert {("run", 0), ("run", 1), ("run", 2), ("fit", 0)} <= seen
