"""The top-level README against the package: every `module.name` and
`Class.attr` it quotes resolves, so deleting a name cannot leave the README
naming it, and every command line it shows parses and its quickstart runs."""

import importlib
import pathlib
import pkgutil
import re
import shlex

import pytest

import m0energy
from m0energy import cli, save_dataset

from helpers import synth_dataset

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
DOTTED = re.compile(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)`")
SHELL_BLOCK = re.compile(r"^```sh\n(.*?)^```", re.M | re.S)
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def readme_commands():
    """The argv of each `m0energy` line in README's shell blocks (its
    comment dropped), as one list per block that has such lines."""
    blocks = [[shlex.split(line, comments=True)[1:]
               for line in block.splitlines() if line.startswith("m0energy ")]
              for block in SHELL_BLOCK.findall(README.read_text("utf-8"))]
    return [block for block in blocks if block]


def test_readme_command_lines_parse():
    commands = [argv for block in readme_commands() for argv in block]
    assert len(commands) >= 6
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail("README line does not parse: m0energy "
                        + shlex.join(argv))


def test_readme_quickstart_runs(tmp_path, monkeypatch):
    """README's first Python block builds loop.bin; then each line of the
    first command block exits 0, in order (so `--model-file` reads the
    model that `fit` wrote), on a dataset the test writes as data.csv."""
    monkeypatch.chdir(tmp_path)
    build = PYTHON_BLOCK.findall(README.read_text("utf-8"))[0]
    exec(compile(build, str(README), "exec"), {})
    save_dataset(tmp_path / "data.csv", synth_dataset(seed=0, n=40))
    quickstart = readme_commands()[0]
    assert {argv[0] for argv in quickstart} == {"run", "analyze", "fit"}
    for argv in quickstart:
        assert cli.main(argv) == 0, shlex.join(argv)


def test_readme_module_and_class_names_resolve():
    """Names whose first part is neither a submodule nor a class the
    package exports (`np.loadtxt`, `mem.ram`, `pyproject.toml`) are not
    the package's and are skipped."""
    modules = {info.name for info in pkgutil.iter_modules(m0energy.__path__)}
    checked, missing = [], []
    for owner, attr in DOTTED.findall(README.read_text(encoding="utf-8")):
        if owner in modules:
            obj = importlib.import_module("m0energy." + owner)
        elif owner in m0energy.__all__ and isinstance(
                getattr(m0energy, owner), type):
            obj = getattr(m0energy, owner)
        else:
            continue
        checked.append("%s.%s" % (owner, attr))
        if not hasattr(obj, attr):
            missing.append(checked[-1])
    assert missing == []
    assert len(checked) >= 10, checked


# README's names for the base-cycle entries -> the `timing` keys they set
BASE_CYCLE_LABELS = {
    "data processing": ["dp"], "MULS": ["muls"],
    "loads/stores": ["load", "store"], "LDM/STM/PUSH/POP": ["block_base"],
    "taken branch": ["branch_taken"], "not-taken": ["branch_not_taken"],
    "BL": ["bl"], "BX/BLX": ["bx", "blx"], "MOV/ADD into pc": ["pc_branch"],
    "BKPT": ["bkpt"]}


def test_readme_base_cycles_are_decode_default_timing():
    """README's sentence "Base cycles before memory stalls: ..." lists
    every entry of `decode.DEFAULT_TIMING` with its value (a register list's
    "1+N" is block_base 1), and nothing else."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    sentence = re.search(r"Base cycles before memory stalls: (.*?)\. ",
                         text).group(1)
    documented = {}
    for item in re.sub(r" \([^)]*\)", "", sentence).split(", "):
        label, cycles = item.rsplit(" ", 1)
        for key in BASE_CYCLE_LABELS[label]:
            documented[key] = int(cycles.replace("+N", ""))
    decode = importlib.import_module("m0energy.decode")
    assert documented == decode.DEFAULT_TIMING
