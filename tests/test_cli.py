"""End-to-end CLI tests (in-process main with captured stdout)."""

import hashlib
import json
import os
import random
import subprocess
import sys
import zlib

import pytest

import m0energy

from helpers import (INTERWORKING_BRANCHES, KERNELS, invstate_image,
                     invstate_reason, kernel_image, recount_from_trace_file,
                     reference_to_json, run_kernel, synth_dataset)
from m0energy import (Assembler, EnergyModel, HardwareConfig, builtin_model,
                      builtin_models, estimate, load_models, save_dataset,
                      save_models)
from m0energy import cli
from m0energy.cli import main


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


def test_sweep_builds_one_simulator_per_timing_class(tmp_path, capsys,
                                                     monkeypatch):
    built = []

    class CountingSimulator(cli.Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append((self.mem.wait_states,
                          self.mem.fetch_unit.prefetch_enabled))

    monkeypatch.setattr(cli, "Simulator", CountingSimulator)
    image = write_kernel(tmp_path, "pushpop_loop")
    code, out, _ = run_cli(["run", image, "--sweep"], capsys)
    assert code == 0 and len(json.loads(out)["runs"]) == 10
    assert len(built) == 3
    assert {ws for ws, _ in built} == {0, 1}
    assert {prefetch for ws, prefetch in built if ws == 1} == {False, True}


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


def test_run_negative_max_cycles_is_usage_error(tmp_path, capsys):
    image = write_kernel(tmp_path, "loop5")
    with pytest.raises(SystemExit) as err:
        main(["run", image, "--max-cycles", "-5"])
    assert err.value.code == 2
    assert "--max-cycles" in capsys.readouterr().err


def test_run_bad_model_file_is_usage_error(tmp_path, capsys):
    image = write_kernel(tmp_path, "loop5")
    model = tmp_path / "model.csv"
    model.write_text("freq_mhz,prefetch,wait_states,b1,b2,b3,b4,b5,b6\n"
                     "20,maybe,0,1,1,1,1,1,1\n")
    with pytest.raises(SystemExit) as err:
        main(["run", image, "--model-file", str(model)])
    assert err.value.code == 2
    assert "model file line 2" in capsys.readouterr().err


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
}


def golden_argv(command, seed, tmp_path):
    if command == "fit":
        save_dataset(tmp_path / "data.csv", synth_dataset(seed=seed, n=120))
        return ["fit", "data.csv", "--kfold", "5", "--seed", str(seed)]
    (tmp_path / "prog.bin").write_bytes(golden_image(seed))
    return {"analyze": ["analyze", "prog.bin"],
            "analyze-text": ["analyze", "prog.bin", "--format", "text"],
            "run": ["run", "prog.bin", "--freq", "24", "--prefetch", "on",
                    "--waitstates", "1"],
            "sweep": ["run", "prog.bin", "--sweep"]}[command]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("command", ["analyze", "analyze-text", "run",
                                     "sweep", "fit"])
def test_report_bytes_are_pinned(tmp_path, capsys, monkeypatch, command, seed):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(golden_argv(command, seed, tmp_path), capsys)
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
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
    for _ in range(2):  # the second time with the exact-str keys cached
        assert cli.to_json([value, {"k": [value]}]) == \
            reference_to_json([value, {"k": [value]}])
    assert '"text:k": 2' in cli.to_json({Text("k"): 2})


@pytest.mark.parametrize("obj", [{1, 2}, b"x", object(), [1, {"k": 1j}]],
                         ids=["set", "bytes", "object", "nested-complex"])
def test_to_json_rejects_unsupported_types(obj):
    with pytest.raises(TypeError, match="cannot serialize"):
        cli.to_json(obj)
