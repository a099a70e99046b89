"""The top-level README against the package: every `module.name` and
`Class.attr` it quotes resolves, so deleting a name cannot leave the README
naming it."""

import importlib
import pathlib
import pkgutil
import re

import m0energy

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
DOTTED = re.compile(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)`")


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
