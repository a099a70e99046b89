"""Energy model tests: published table fidelity, evaluation, model files."""

import random
import sys

import pytest

from helpers import PUBLISHED_TABLE, dot_oracle
from m0energy import (EnergyInterval, EnergyModel, HardwareConfig,
                      InvalidConfigError, builtin_configs, builtin_model,
                      builtin_models, estimate, load_models, save_models)


def test_exactly_ten_builtin_models():
    models = builtin_models()
    assert len(models) == 10
    assert len({m.config for m in models}) == 10


def test_builtin_coefficients_match_published_table():
    models = builtin_models()
    assert len(PUBLISHED_TABLE) == 10
    for model, (freq, prefetch, ws, betas, mape_s, resd_s) in zip(models, PUBLISHED_TABLE):
        assert model.config == HardwareConfig(freq, prefetch, ws)
        for got, want in zip(model.beta, betas):
            assert "%.6f" % got == want
            assert got == float(want)
        assert "%.2f" % model.reported_mape == mape_s
        assert "%.2f" % model.reported_resd == resd_s
        assert model.provenance == "builtin"


def test_builtin_lookup_by_config():
    model = builtin_model(HardwareConfig(20, False, 0))
    assert model.beta[0] == 0.964258
    model = builtin_model(HardwareConfig(48, True, 1))
    assert model.beta[5] == 1.250446


def test_builtin_models_returns_a_new_list_each_call():
    first = builtin_models()
    expected = list(first)
    first.reverse()
    first.append(first[0])
    first[1] = None
    assert builtin_models() == expected
    assert builtin_configs() == [m.config for m in expected]
    for model in expected:
        assert builtin_model(model.config) is model


def test_invalid_config_rejected():
    with pytest.raises(InvalidConfigError):
        HardwareConfig(48, False, 0)  # 48 MHz needs a wait state
    with pytest.raises(InvalidConfigError):
        HardwareConfig(16, False, 0)
    with pytest.raises(InvalidConfigError):
        HardwareConfig(20, False, 2)


@pytest.mark.parametrize("args,message", [
    ((16, False, 0), "frequency must be one of [20, 24, 48] MHz, got 16"),
    ((20, False, 2), "wait states must be 0 or 1"),
    ((20, False, True), "wait states must be 0 or 1"),
    ((48, True, 0), "48 MHz requires 1 wait state"),
    ((20.0, False, 0), "frequency must be one of [20, 24, 48] MHz, got 20.0"),
])
def test_invalid_config_names_the_fault(args, message):
    with pytest.raises(InvalidConfigError) as err:
        HardwareConfig(*args)
    assert str(err.value) == message


def test_config_and_model_are_frozen_hashable_records():
    config = HardwareConfig(frequency_mhz=24, prefetch=True, wait_states=1)
    assert config == HardwareConfig(24, True, 1)
    assert config != HardwareConfig(24, False, 1)
    assert config != (24, True, 1) and (24, True, 1) != config
    assert {config: "a"}[HardwareConfig(24, True, 1)] == "a"
    assert repr(config) == ("HardwareConfig(frequency_mhz=24, prefetch=True, "
                            "wait_states=1)")
    model = EnergyModel(config, (1.0,) * 6)
    assert (model.provenance, model.reported_mape,
            model.reported_resd) == ("builtin", None, None)
    assert model == EnergyModel(config=config, beta=(1.0,) * 6,
                                provenance="builtin")
    assert model != EnergyModel(config, (1.0,) * 6, "fitted")
    assert model != builtin_model(config) and model != config
    assert {model: "b"}[EnergyModel(config, (1.0,) * 6)] == "b"
    assert repr(model) == (
        "EnergyModel(config=HardwareConfig(frequency_mhz=24, prefetch=True, "
        "wait_states=1), beta=(1.0, 1.0, 1.0, 1.0, 1.0, 1.0), "
        "provenance='builtin', reported_mape=None, reported_resd=None)")
    with pytest.raises(InvalidConfigError,
                       match="^model needs exactly 6 coefficients$"):
        EnergyModel(config, (1.0,) * 5)
    for record, name in ((config, "prefetch"), (model, "beta"),
                         (config, "new"), (model, "new")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        del config.prefetch
    assert config == HardwareConfig(24, True, 1)
    assert model == EnergyModel(config, (1.0,) * 6)


@pytest.mark.parametrize("bad", [
    float("nan"), float("inf"), -float("inf"), "1", True, False, None, 1j,
    10 ** 400, -(10 ** 309)],
    ids=["nan", "inf", "-inf", "str", "true", "false", "none", "complex",
         "huge-int", "huge-negative-int"])
def test_model_refuses_a_coefficient_that_is_not_a_finite_number(bad):
    for i in (0, 5):
        beta = [1, 2, 3, 4, 5, 6]
        beta[i] = bad
        with pytest.raises(InvalidConfigError,
                           match="^coefficients must be finite numbers$"):
            EnergyModel(HardwareConfig(20, False, 0), beta)


class Real(float):
    """A float subclass, as numpy.float64 is."""


def test_model_stores_its_coefficients_as_a_tuple():
    config = HardwareConfig(20, False, 0)
    beta = [1, 2.5, Real(3.25), -4, 0, sys.float_info.max]
    model = EnergyModel(config, beta)
    assert model.beta == tuple(beta) and type(model.beta) is tuple
    assert {model: 1}[EnergyModel(config, iter(beta))] == 1  # hashable


def test_every_accepted_model_survives_a_file_round_trip(tmp_path):
    """Seeded coefficients, some of them refused: every model the
    constructor accepts keeps its config and its six-decimal coefficients
    through save_models and load_models."""
    rng = random.Random(37)
    pool = (0, 1, -1, 10 ** 300, 10 ** 400, 0.5, -2.25, 4e-7, 1e300,
            sys.float_info.max, -sys.float_info.max, float("nan"),
            float("inf"), True, "1", None)
    accepted = []
    for _ in range(300):
        beta = [rng.choice(pool) if rng.random() < 0.3
                else rng.uniform(-5, 5) for _ in range(6)]
        try:
            accepted.append(EnergyModel(rng.choice(builtin_configs()), beta))
        except InvalidConfigError:
            pass
    path = tmp_path / "models.csv"
    save_models(path, accepted)
    loaded = load_models(path)
    assert len(loaded) == len(accepted) > 100
    for model, back in zip(accepted, loaded):
        assert back.config == model.config
        assert (["%.6f" % b for b in back.beta]
                == ["%.6f" % b for b in model.beta])


def test_energy_interval_is_a_mutable_record():
    interval = EnergyInterval(lo=1.0, hi=3.5)
    assert interval.width == 2.5
    assert interval == EnergyInterval(1.0, 3.5)
    assert interval != EnergyInterval(1.0, 3.0) and interval != (1.0, 3.5)
    assert repr(interval) == "EnergyInterval(lo=1.0, hi=3.5)"
    with pytest.raises(TypeError):
        hash(interval)
    interval.hi = 4.0
    assert interval.width == 3.0


@pytest.mark.parametrize("config", [[24, True, 1], (24, True, 1), "24-on-1",
                                    None, {"freq": 24}],
                         ids=["list", "tuple", "str", "none", "dict"])
def test_builtin_model_rejects_a_non_config(config):
    with pytest.raises(InvalidConfigError, match="no built-in model for"):
        builtin_model(config)


def test_config_space_is_exactly_ten():
    valid = []
    for freq in (20, 24, 48):
        for prefetch in (False, True):
            for ws in (0, 1):
                try:
                    valid.append(HardwareConfig(freq, prefetch, ws))
                except InvalidConfigError:
                    pass
    assert len(valid) == 10
    assert set(valid) == set(builtin_configs())


def test_estimate_zero_counters():
    assert estimate((0, 0, 0, 0, 0, 0), builtin_models()[0]) == 0.0


def test_estimate_unit_vectors_return_coefficients_exactly():
    for model in builtin_models():
        for i in range(6):
            unit = tuple(1 if j == i else 0 for j in range(6))
            assert estimate(unit, model) == model.beta[i]


def test_estimate_frozen_example():
    # 10*0.964258 + 2*1.652455 + 2.091986 + 3*1.109833 + 0.650563 + 0.633621
    model = builtin_model(HardwareConfig(20, False, 0))
    value = estimate((10, 2, 1, 3, 1, 1), model)
    assert abs(value - 19.653159) < 1e-9


def test_estimate_matches_dot_oracle_on_random_vectors():
    rng = random.Random(424242)
    for model in builtin_models():
        for _ in range(200):
            vec = tuple(rng.randrange(0, 10 ** 7) for _ in range(6))
            got = estimate(vec, model)
            want = dot_oracle(model.beta, vec)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_estimate_linearity_and_monotonicity():
    rng = random.Random(7)
    model = builtin_models()[3]
    for _ in range(100):
        a = tuple(rng.randrange(0, 10 ** 5) for _ in range(6))
        b = tuple(rng.randrange(0, 10 ** 5) for _ in range(6))
        both = tuple(x + y for x, y in zip(a, b))
        assert abs(estimate(both, model) - (estimate(a, model) + estimate(b, model))) \
            <= 1e-9 * max(1.0, estimate(both, model))
        k = rng.randrange(0, 9)
        scaled = tuple(k * x for x in a)
        assert abs(estimate(scaled, model) - k * estimate(a, model)) \
            <= 1e-9 * max(1.0, abs(k * estimate(a, model)))
    # all builtin coefficients are positive: bumping any counter adds energy
    base = (5, 5, 5, 5, 5, 5)
    for model in builtin_models():
        assert all(b > 0 for b in model.beta)
        for i in range(6):
            bumped = tuple(c + 1 if j == i else c for j, c in enumerate(base))
            assert estimate(bumped, model) > estimate(base, model)


def test_model_file_round_trip_bit_exact(tmp_path):
    path = tmp_path / "models.csv"
    save_models(path, builtin_models())
    loaded = load_models(path)
    assert len(loaded) == 10
    for original, back in zip(builtin_models(), loaded):
        assert back.config == original.config
        assert back.beta == original.beta  # 6-decimal table survives exactly
        assert back.provenance == "fitted"
    # a second save produces identical bytes
    path2 = tmp_path / "models2.csv"
    save_models(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_model_file_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n1,on,0,1,1,1,1,1,1\n")
    with pytest.raises(InvalidConfigError):
        load_models(path)


def test_model_file_reads_binary_bytes_as_latin1(tmp_path):
    # bytes that are not UTF-8: a file of them lacks the header, and a
    # record of them is a bad record, whatever the locale's encoding
    binary = bytes(range(128, 256))
    path = tmp_path / "k.bin"
    path.write_bytes(binary)
    with pytest.raises(InvalidConfigError, match="model file missing header"):
        load_models(path)
    path.write_bytes(b"freq_mhz,prefetch,wait_states,b1,b2,b3,b4,b5,b6\n"
                     b"20,on,0,1,1,1,1,1,1\n" + binary + b"\n")
    with pytest.raises(InvalidConfigError, match="model file line 3"):
        load_models(path)


def test_load_models_names_a_bad_record_by_its_file_line(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("freq_mhz,prefetch,wait_states,b1,b2,b3,b4,b5,b6\n\n"
                    "20,off,0,1,1,1,1,1,1\n\n20,maybe,0,1,1,1,1,1,1\n")
    with pytest.raises(InvalidConfigError,
                       match="^model file line 5: prefetch must be on or off"):
        load_models(path)


@pytest.mark.parametrize("record,detail", [
    ("20,off,0,0.9,oops,1,1,1,1", "could not convert"),
    ("2O,off,0,0.9,1,1,1,1,1", "invalid literal"),
    ("20,off,one,0.9,1,1,1,1,1", "invalid literal"),
    ("20,maybe,0,0.9,1,1,1,1,1", "prefetch must be on or off"),
    ("20,on,0,0.9,nan,1,1,1,1", "finite"),
    ("48,on,0,0.9,1,1,1,1,1", "48 MHz requires 1 wait state"),
    ("2O,off,0,0.9,inf,1,1,1,1", "finite"),  # coefficients before the config
])
def test_load_models_rejects_bad_records_naming_the_line(tmp_path, record,
                                                         detail):
    path = tmp_path / "bad.csv"
    path.write_text("freq_mhz,prefetch,wait_states,b1,b2,b3,b4,b5,b6\n"
                    "20,on,0,1,1,1,1,1,1\n" + record + "\n")
    with pytest.raises(InvalidConfigError) as err:
        load_models(path)
    assert "line 3" in str(err.value) and detail in str(err.value)
