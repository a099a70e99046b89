"""Cortex-M0 (STM32F0xx) simulation and event-counter energy modeling.

Pieces: a cycle-accurate ARMv6-M Thumb simulator that collects the six
energy-model event counters, the ten published per-configuration energy
models, zero-intercept regression with k-fold cross-validation for
training new models, and static basic-block counter/energy attribution.
"""

from .asm import Assembler
from .cfg import (BasicBlock, CFG, EnergyInterval, StaticCounts, block_energy,
                  extract_cfg, path_energy, static_block_counters)
from .counters import EventCounters
from .cpu import CpuState, RunSummary, Simulator, StepResult, DEFAULT_TIMING
from .decode import Instruction, decode
from .energy import (EnergyModel, HardwareConfig, builtin_configs,
                     builtin_model, builtin_models, compare_configs, estimate,
                     load_models, relative_weights, save_models)
from .errors import (AnalysisError, BadEntryError, DatasetError,
                     DegenerateDesignError, InvalidConfigError, M0EnergyError,
                     InvalidStateFault, MalformedImageError, MemoryFault,
                     PathError, UndefinedInstructionError)
from .memory import MemorySystem, FetchUnit, DEBUG_ADDR, FLASH_BASE, RAM_BASE

# The regression names load numpy, so they are imported on first use
# (PEP 562); `run` and `analyze` never pay for numpy.
_REGRESSION_NAMES = frozenset([
    "CVResult", "FitResult", "FoldScore", "RegressionDataset", "fit",
    "fold_indices", "kfold_cv", "load_dataset", "mape", "r2", "resd",
    "save_dataset",
])


def __getattr__(name):
    if name in _REGRESSION_NAMES:
        from . import regression
        return getattr(regression, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__version__ = "0.1.0"

__all__ = [
    "Assembler", "BasicBlock", "CFG", "EnergyInterval", "StaticCounts",
    "block_energy", "extract_cfg", "path_energy", "static_block_counters",
    "EventCounters", "CpuState", "RunSummary", "Simulator", "StepResult",
    "DEFAULT_TIMING", "Instruction", "decode", "EnergyModel",
    "HardwareConfig", "builtin_configs", "builtin_model", "builtin_models",
    "compare_configs", "estimate", "load_models", "relative_weights",
    "save_models", "AnalysisError", "BadEntryError", "DatasetError",
    "DegenerateDesignError", "InvalidConfigError", "InvalidStateFault",
    "M0EnergyError", "MalformedImageError", "MemoryFault", "PathError",
    "UndefinedInstructionError", "MemorySystem", "FetchUnit", "DEBUG_ADDR",
    "FLASH_BASE", "RAM_BASE", "CVResult", "FitResult", "FoldScore",
    "RegressionDataset", "fit", "fold_indices", "kfold_cv", "load_dataset",
    "mape", "r2", "resd", "save_dataset",
]
