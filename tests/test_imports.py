"""What each subcommand imports, and the package's lazy namespace.

The subcommand checks run the CLI in a fresh interpreter, because this test
process has long since imported every module.
"""

import json
import os
import subprocess
import sys

import pytest

import m0energy
from helpers import kernel_image, synth_dataset
from m0energy import save_dataset

SRC = os.path.dirname(os.path.dirname(m0energy.__file__))

# Runs `main` on the arguments and prints [exit code, loaded module names].
MAIN_THEN_MODULES = (
    "import contextlib, io, json, sys\n"
    "from m0energy.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(sys.modules)]))\n")


def fresh_python(code, *args):
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def pkg(*names):
    return {"m0energy." + name for name in names}


# Only a call that binds an Instruction loads dataclasses, and inspect with it.
NO_DATACLASSES = {"dataclasses", "inspect"}
RUN = (pkg("cpu", "energy"),
       pkg("asm", "cfg", "regression") | {"numpy"} | NO_DATACLASSES)
ANALYZE = (pkg("cfg", "energy"),
           pkg("cpu", "asm", "counters", "regression") | {"numpy"}
           | NO_DATACLASSES)


@pytest.mark.parametrize("command,loaded,absent", [
    ("run", *RUN),
    ("analyze", *ANALYZE),
    ("fit", pkg("regression"),
     pkg("cpu", "cfg", "asm", "counters", "decode", "energy")),
    ("run --sweep", *RUN),
    ("analyze --format text", *ANALYZE),
])
def test_subcommand_imports_only_what_it_runs(tmp_path, command, loaded,
                                              absent):
    command, *options = command.split()
    if command == "fit":
        path = tmp_path / "data.csv"
        save_dataset(path, synth_dataset(seed=5, n=30))
    else:
        path = tmp_path / "loop5.bin"
        path.write_bytes(kernel_image("loop5"))
    code, modules = json.loads(fresh_python(MAIN_THEN_MODULES, command,
                                            str(path), *options))
    assert code == 0
    assert loaded <= set(modules)
    assert not absent & set(modules)


def test_instruction_is_a_dataclass_that_steps_bind(tmp_path):
    """A step binds the first Instruction, so defines the class, in a fresh
    interpreter; both public names then give that class."""
    path = tmp_path / "loop5.bin"
    path.write_bytes(kernel_image("loop5"))
    out = fresh_python(
        "import dataclasses, sys, m0energy\n"
        "image = open(sys.argv[1], 'rb').read()\n"
        "step = m0energy.Simulator(image).step()\n"
        "from m0energy.decode import Instruction\n"
        "print(dataclasses.is_dataclass(m0energy.Instruction),\n"
        "      Instruction is m0energy.Instruction,\n"
        "      isinstance(step.instruction, Instruction))\n",
        str(path))
    assert out.split() == ["True"] * 3


def test_fit_loads_energy_only_to_emit_a_model(tmp_path):
    path = tmp_path / "data.csv"
    save_dataset(path, synth_dataset(seed=5, n=30))
    code, modules = json.loads(fresh_python(
        MAIN_THEN_MODULES, "fit", str(path), "--emit-model",
        str(tmp_path / "model.csv")))
    assert code == 0
    assert "m0energy.energy" in modules
    assert not pkg("cpu", "cfg", "asm", "counters", "decode") & set(modules)


@pytest.mark.parametrize("imports", [
    "import m0energy.cpu, m0energy.cfg",
    "import m0energy.cfg, m0energy.cpu",
    "import m0energy.decode",
    "from m0energy.decode import decode",
    "import m0energy.cli",
])
def test_package_decode_stays_the_function(imports):
    out = fresh_python(
        "import sys\n"
        "%s\n"
        "import m0energy.cfg, m0energy.cpu\n"
        "from m0energy import decode\n"
        "module = sys.modules['m0energy.decode']\n"
        "print(callable(decode), decode is module.decode,\n"
        "      m0energy.cpu.dec is module, m0energy.cfg.dec is module)\n"
        % imports)
    assert out.split() == ["True"] * 4


def test_package_import_loads_no_submodule():
    out = fresh_python("import sys, m0energy\n"
                       "print([m for m in sys.modules if '.' in m\n"
                       "       and m.startswith('m0energy')])")
    assert out.strip() == "[]"


def test_every_public_name_resolves():
    for name in m0energy.__all__:
        module = "m0energy." + m0energy._SOURCES[name]
        assert getattr(m0energy, name) is getattr(sys.modules[module], name)
    assert len(set(m0energy.__all__)) == len(m0energy.__all__)
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        m0energy.nonexistent


# The public API, so that a change to it shows in a diff of this test.
PUBLIC_NAMES = [
    "AnalysisError", "Assembler", "BadEntryError", "BasicBlock", "CFG",
    "CVResult", "CpuState", "DEBUG_ADDR", "DEFAULT_TIMING", "DatasetError",
    "DegenerateDesignError", "EnergyInterval", "EnergyModel", "EventCounters",
    "FLASH_BASE", "FitResult", "FoldScore", "HardwareConfig", "Instruction",
    "InvalidConfigError", "InvalidStateFault", "M0EnergyError",
    "MalformedImageError", "MemoryFault", "MemorySystem", "PathError",
    "RAM_BASE", "RegressionDataset", "RunSummary", "Simulator",
    "StaticCounts", "StepResult", "UndefinedInstructionError",
    "builtin_configs", "builtin_model", "builtin_models", "decode",
    "estimate", "extract_cfg", "fit", "fold_indices", "kfold_cv",
    "load_dataset", "load_models", "mape", "path_energy", "r2", "resd",
    "save_dataset", "save_models",
]


def test_public_names_are_pinned():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert sorted(m0energy.__all__) == PUBLIC_NAMES
