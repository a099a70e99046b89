"""Cortex-M0 (STM32F0xx) simulation and event-counter energy modeling.

Pieces: a cycle-accurate ARMv6-M Thumb simulator that collects the six
energy-model event counters, the ten published per-configuration energy
models, zero-intercept regression with k-fold cross-validation for
training new models, and static basic-block counter/energy attribution.

Each public name is imported from its submodule on first use (PEP 562),
so a caller loads only the modules it uses.  The package's class keeps
`decode` the function: a first import of the `decode` submodule would set
the package attribute of that name to the module.
"""

import sys
from importlib import import_module

# public name -> the submodule that defines it
_SOURCES = {name: module for module, names in {
    "asm": "Assembler",
    "cfg": "BasicBlock CFG StaticCounts extract_cfg path_energy",
    "counters": "EventCounters",
    "cpu": "CpuState RunSummary Simulator StepResult",
    "decode": "Instruction decode DEFAULT_TIMING",
    "energy": "EnergyInterval EnergyModel HardwareConfig builtin_configs "
              "builtin_model builtin_models compare_configs estimate "
              "load_models save_models",
    "errors": "AnalysisError BadEntryError DatasetError DegenerateDesignError "
              "InvalidConfigError InvalidStateFault M0EnergyError "
              "MalformedImageError MemoryFault PathError "
              "UndefinedInstructionError",
    "memory": "MemorySystem DEBUG_ADDR FLASH_BASE RAM_BASE",
    "regression": "CVResult FitResult FoldScore RegressionDataset fit "
                  "fold_indices kfold_cv load_dataset mape r2 resd "
                  "save_dataset",
}.items() for name in names.split()}


def __getattr__(name):
    if name not in _SOURCES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + _SOURCES[name], __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


class _Package(type(sys)):
    def __setattr__(self, name, value):
        if name != "decode" or not isinstance(value, type(sys)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

__version__ = "0.1.0"

__all__ = [*_SOURCES]
