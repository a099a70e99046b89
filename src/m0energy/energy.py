"""Published Cortex-M0 energy models and their evaluation.

A model is six coefficients, one per event counter, in nJ per event:

    E = b1*c1 + b2*c2 + b3*c3 + b4*c4 + b5*c5 + b6*c6

There is no intercept; the regression error term is not part of the
prediction.  The ten built-in models cover every permitted combination of
core frequency (20/24/48 MHz), PreFetch (on/off), and WaitState (0/1); at
48 MHz the Flash requires one wait state, so 48 MHz WS=0 does not exist.
Coefficients are stored exactly as published (six decimal places), with
the reported hardware-validation MAPE/RESD kept as provenance metadata.
"""

import sys

from .errors import InvalidConfigError
from .record import Record

VALID_FREQUENCIES = (20, 24, 48)

# (freq MHz, prefetch, wait states) -> (b1..b6), reported MAPE %, reported RESD %
_BUILTIN_TABLE = [
    ((20, False, 0), (0.964258, 1.652455, 2.091986, 1.109833, 0.650563, 0.633621), 2.80, 3.60),
    ((20, False, 1), (1.282474, 2.110668, 2.191545, 1.185609, 0.416602, 1.178991), 2.97, 3.60),
    ((20, True, 0), (1.003378, 1.885309, 1.802974, 1.122833, 0.849223, 0.475831), 2.86, 3.53),
    ((20, True, 1), (0.895879, 2.185851, 2.001178, 1.493364, 1.076354, 1.573758), 3.68, 4.61),
    ((24, False, 0), (0.959172, 1.888565, 1.357556, 1.089427, 0.993145, 0.562952), 3.22, 3.63),
    ((24, False, 1), (1.178558, 2.540429, 2.042475, 1.190892, 0.979651, 0.891088), 3.16, 3.90),
    ((24, True, 0), (0.985415, 1.933276, 1.448160, 1.075671, 1.011891, 0.617510), 3.36, 3.88),
    ((24, True, 1), (0.883755, 2.156046, 1.633465, 1.436556, 1.152560, 1.455166), 4.15, 5.02),
    ((48, False, 1), (1.096677, 2.364495, 1.627854, 1.173680, 0.681475, 0.652665), 3.65, 4.08),
    ((48, True, 1), (0.816331, 2.014612, 1.372157, 1.402116, 0.835035, 1.250446), 4.33, 4.99),
]


class HardwareConfig(Record, frozen=True):
    def __init__(self, frequency_mhz, prefetch, wait_states):
        if (type(frequency_mhz) is not int
                or frequency_mhz not in VALID_FREQUENCIES):
            raise InvalidConfigError(
                "frequency must be one of %s MHz, got %r"
                % (list(VALID_FREQUENCIES), frequency_mhz))
        if type(wait_states) is not int or wait_states not in (0, 1):
            raise InvalidConfigError("wait states must be 0 or 1")
        if type(prefetch) is not bool:
            raise InvalidConfigError("prefetch must be True or False")
        if frequency_mhz == 48 and wait_states == 0:
            raise InvalidConfigError("48 MHz requires 1 wait state")
        self._set(frequency_mhz, prefetch, wait_states)

    def label(self):
        return "[%d, %s, %d]" % (self.frequency_mhz,
                                 "ON" if self.prefetch else "OFF",
                                 self.wait_states)


class EnergyModel(Record, frozen=True):
    def __init__(self, config, beta, provenance="builtin",
                 reported_mape=None, reported_resd=None):
        # beta: six nJ/event coefficients, c1..c6; provenance: builtin | fitted
        self._set(config, _coefficients(beta), provenance, reported_mape,
                  reported_resd)


def _coefficients(beta):  # six finite ints or floats, not bools, as a tuple
    beta = tuple(beta)
    if len(beta) != 6:
        raise InvalidConfigError("model needs exactly 6 coefficients")
    if not all(isinstance(b, (int, float)) and not isinstance(b, bool)
               and abs(b) <= sys.float_info.max for b in beta):
        raise InvalidConfigError("coefficients must be finite numbers")
    return beta


# config -> model, in table order; built once, as the models are frozen
_BUILTIN = {m.config: m for m in (
    EnergyModel(HardwareConfig(*cfg), beta, "builtin", mape, resd)
    for cfg, beta, mape, resd in _BUILTIN_TABLE)}


def builtin_models():
    """The ten published models, in table order, as a new list."""
    return list(_BUILTIN.values())


def builtin_configs():
    return list(_BUILTIN)


def builtin_model(config):
    try:
        return _BUILTIN[config]
    except (KeyError, TypeError):  # TypeError: an unhashable config
        raise InvalidConfigError("no built-in model for %s" % (config,)) from None


def estimate(counters, model):
    """Energy in nJ for a counter vector under a model (plain dot product,
    from 0.0, so that a sum of negative zeros reads 0.0)."""
    if hasattr(counters, "as_vector"):
        counters = counters.as_vector()
    return 0.0 + energies([model], counters)[0]


class EnergyInterval(Record):
    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi

    @property
    def width(self):
        return self.hi - self.lo


def energies(models, counts, loads=0, stores=0):
    """E = b1*c1 + ... + b6*c6 over the six `counts` under each of `models`,
    the one place a model is applied.  With `loads` (each c4 or c6) or
    `stores` (each c5 or none) of unknown region, each is an EnergyInterval."""
    c1, c2, c3, c4, c5, c6 = counts
    betas = [m.beta for m in models]
    points = [b1 * c1 + b2 * c2 + b3 * c3 + b4 * c4 + b5 * c5 + b6 * c6
              for b1, b2, b3, b4, b5, b6 in betas]
    if not (loads or stores):
        return points
    return [EnergyInterval(e + loads * (b6 if b6 < b4 else b4),  # min, max
                           e + loads * (b6 if b6 > b4 else b4) + stores * b5)
            for e, (_, _, _, b4, b5, b6) in zip(points, betas)]


# -- model files -----------------------------------------------------------
# One record per config: freq_mhz,prefetch,wait_states,b1..b6 (6 decimals).

MODEL_FILE_HEADER = "freq_mhz,prefetch,wait_states,b1,b2,b3,b4,b5,b6"


def save_models(path, models):
    lines = [MODEL_FILE_HEADER]
    for m in models:
        cfg = m.config
        lines.append("%d,%s,%d,%s" % (
            cfg.frequency_mhz, "on" if cfg.prefetch else "off",
            cfg.wait_states, ",".join("%.6f" % b for b in m.beta)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_models(path):
    models = []
    with open(path, encoding="latin-1") as fh:
        lines = [(n, ln.strip()) for n, ln in enumerate(fh, 1) if ln.strip()]
    if not lines or lines[0][1] != MODEL_FILE_HEADER:
        raise InvalidConfigError("model file missing header %r" % MODEL_FILE_HEADER)
    for lineno, line in lines[1:]:
        try:
            models.append(_parse_model(line))
        except (InvalidConfigError, ValueError) as exc:
            raise InvalidConfigError("model file line %d: %s" % (lineno, exc)) from None
    return models


def _parse_model(line):
    parts = line.split(",")
    if len(parts) != 9:
        raise InvalidConfigError("expected 9 fields")
    prefetch = {"on": True, "off": False}.get(parts[1].strip().lower())
    if prefetch is None:
        raise InvalidConfigError("prefetch must be on or off, got %r" % parts[1])
    beta = _coefficients(float(p) for p in parts[3:])  # before the config
    config = HardwareConfig(int(parts[0]), prefetch, int(parts[2]))
    return EnergyModel(config, beta, provenance="fitted")
