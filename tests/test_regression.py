"""Fitting and metric tests with hand-computed and Monte-Carlo oracles."""

import numpy as np
import pytest

from helpers import BETA_20_OFF_0, synth_dataset
from m0energy import (DatasetError, DegenerateDesignError, RegressionDataset,
                      fit, fold_indices, kfold_cv, load_dataset, mape, r2,
                      resd, save_dataset)


# -- metrics ---------------------------------------------------------------

def test_metrics_perfect_prediction():
    pred = [10.0, 20.0, 30.0]
    assert mape(pred, pred) == 0.0
    assert resd(pred, pred) == 0.0
    assert r2(pred, pred) == 1.0


def test_metrics_hand_computed_example():
    # relative errors +10% and -10%: MAPE 10, population SD 10
    pred = [110.0, 90.0]
    actual = [100.0, 100.0]
    assert mape(pred, actual) == 10.0
    assert resd(pred, actual) == 10.0


def test_r2_constant_predictor_is_zero():
    actual = [1.0, 2.0, 3.0, 4.0]
    pred = [np.mean(actual)] * 4
    assert r2(pred, actual) == 0.0


def test_metrics_reject_bad_inputs():
    with pytest.raises(ValueError):
        mape([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        mape([1.0], [0.0])
    with pytest.raises(ValueError):
        resd([1.0, 2.0], [1.0, -2.0])
    with pytest.raises(ValueError):
        r2([], [])
    with pytest.raises(ValueError):
        r2([1.0, 2.0], [3.0, 3.0])  # zero total variance


# -- fit ------------------------------------------------------------------

def test_fit_recovers_noiseless_coefficients():
    ds = synth_dataset(seed=1, n=40, noise=0.0)
    result = fit(ds)
    for got, want in zip(result.beta, BETA_20_OFF_0):
        assert abs(got - want) < 1e-9
    assert result.mape == pytest.approx(0.0, abs=1e-9)
    assert result.r2 == pytest.approx(1.0, abs=1e-12)
    assert result.warnings == []


def test_fit_zero_column_is_degenerate():
    ds = synth_dataset(seed=2, n=30, noise=0.0)
    counts = ds.counts.copy()
    counts[:, 5] = 0.0
    broken = RegressionDataset(counts, counts @ np.array(BETA_20_OFF_0) + 1.0)
    with pytest.raises(DegenerateDesignError) as err:
        fit(broken)
    assert "c6" in err.value.dependent_columns
    assert err.value.rank == 5


def test_fit_duplicate_column_is_degenerate():
    ds = synth_dataset(seed=3, n=30, noise=0.0)
    counts = ds.counts.copy()
    counts[:, 4] = counts[:, 3]  # c5 duplicates c4
    broken = RegressionDataset(counts, ds.energies)
    with pytest.raises(DegenerateDesignError) as err:
        fit(broken)
    assert {"c4", "c5"} <= set(err.value.dependent_columns)


def test_fit_requires_seven_rows():
    ds = synth_dataset(seed=4, n=6, noise=0.0)
    with pytest.raises(DatasetError):
        fit(ds)


def test_fit_monte_carlo_recovery_under_noise():
    # spot check; the acceptance suite runs the full 100-seed version
    for seed in range(5):
        ds = synth_dataset(seed=seed, n=230, noise=0.03)
        result = fit(ds)
        for got, want in zip(result.beta, BETA_20_OFF_0):
            assert abs(got - want) / want < 0.05
        assert result.r2 > 0.99


def test_fit_scale_equivariance():
    ds = synth_dataset(seed=5, n=60, noise=0.02)
    base = fit(ds)
    scaled = fit(RegressionDataset(ds.counts, ds.energies * 3.0))
    for b_scaled, b in zip(scaled.beta, base.beta):
        assert b_scaled == pytest.approx(3.0 * b, rel=1e-9)
    assert scaled.mape == pytest.approx(base.mape, rel=1e-9)
    assert scaled.resd == pytest.approx(base.resd, rel=1e-9)
    assert scaled.r2 == pytest.approx(base.r2, rel=1e-9)


def test_fit_permutation_invariance():
    ds = synth_dataset(seed=6, n=60, noise=0.02)
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(ds))
    shuffled = RegressionDataset(ds.counts[perm], ds.energies[perm])
    a, b = fit(ds), fit(shuffled)
    for x, y in zip(a.beta, b.beta):
        assert x == pytest.approx(y, rel=1e-9)


def test_fit_training_r2_nonnegative():
    for seed in range(3):
        ds = synth_dataset(seed=seed, n=50, noise=0.2)
        assert fit(ds).r2 >= 0.0


def test_fit_warns_on_negative_coefficients():
    rng = np.random.default_rng(9)
    counts = rng.integers(1, 1000, size=(40, 6)).astype(float)
    beta = np.array([2.0, 1.0, 1.0, 1.0, 1.0, -0.5])
    energies = counts @ beta
    energies = np.maximum(energies, 1.0)
    result = fit(RegressionDataset(counts, energies))
    if any(b < 0 for b in result.beta):
        assert any("negative coefficient" in w for w in result.warnings)


# -- k-fold cross-validation ------------------------------------------------

def test_fold_indices_partition():
    folds = fold_indices(230, 10, seed=0)
    assert len(folds) == 10
    sizes = {len(f) for f in folds}
    assert max(sizes) - min(sizes) <= 1
    seen = np.concatenate(folds)
    assert sorted(seen) == list(range(230))


def test_fold_indices_partition_uneven():
    folds = fold_indices(23, 10, seed=1)
    sizes = [len(f) for f in folds]
    assert sum(sizes) == 23
    assert max(sizes) - min(sizes) <= 1


def test_kfold_deterministic_per_seed():
    ds = synth_dataset(seed=7, n=100, noise=0.03)
    a = kfold_cv(ds, k=10, seed=42)
    b = kfold_cv(ds, k=10, seed=42)
    assert a.mean_r2 == b.mean_r2 and a.sd_r2 == b.sd_r2
    assert [(f.fold, f.r2, f.mape) for f in a.folds] == \
        [(f.fold, f.r2, f.mape) for f in b.folds]
    c = kfold_cv(ds, k=10, seed=43)
    assert any(x.r2 != y.r2 for x, y in zip(a.folds, c.folds))


def test_kfold_synthetic_accuracy():
    ds = synth_dataset(seed=8, n=230, noise=0.03)
    result = kfold_cv(ds, k=10, seed=0)
    assert result.mean_r2 >= 0.98
    assert result.sd_r2 <= 0.01
    assert len(result.folds) == 10
    assert result.seed == 0 and result.k == 10


def test_kfold_size_errors():
    ds = synth_dataset(seed=9, n=50, noise=0.0)
    with pytest.raises(DatasetError):
        kfold_cv(ds, k=500)
    with pytest.raises(DatasetError):
        kfold_cv(ds, k=1)


def test_kfold_leave_one_out_runs():
    ds = synth_dataset(seed=10, n=12, noise=0.01)
    result = kfold_cv(ds, k=12, seed=0)
    assert len(result.folds) == 12
    # singleton folds have no defined R^2 but MAPE is always defined
    assert all(np.isnan(f.r2) for f in result.folds)
    assert all(np.isfinite(f.mape) for f in result.folds)
    folds = fold_indices(12, 12, seed=0)
    assert sorted(np.concatenate(folds)) == list(range(12))


# -- dataset construction and IO ------------------------------------------------

def test_dataset_rejects_all_zero_row():
    counts = np.ones((10, 6))
    counts[3] = 0.0
    with pytest.raises(DatasetError):
        RegressionDataset(counts, np.ones(10))


def test_dataset_rejects_nonpositive_energy():
    with pytest.raises(DatasetError):
        RegressionDataset(np.ones((5, 6)), np.array([1.0, 2.0, 0.0, 1.0, 1.0]))


@pytest.mark.parametrize("where", ["counts", "energies"])
def test_dataset_rejects_non_finite_values(where):
    ds = synth_dataset(seed=4, n=20)
    counts, energies = ds.counts.copy(), ds.energies.copy()
    if where == "counts":
        counts[5, 2] = np.nan
    else:
        energies[7] = np.inf
    with pytest.raises(DatasetError, match="finite"):
        RegressionDataset(counts, energies)


def test_dataset_rejects_negative_counts():
    counts = np.ones((5, 6))
    counts[0, 0] = -1
    with pytest.raises(DatasetError):
        RegressionDataset(counts, np.ones(5))


def test_csv_round_trip(tmp_path):
    ds = synth_dataset(seed=11, n=25, noise=0.03)
    path = tmp_path / "data.csv"
    save_dataset(path, ds)
    back = load_dataset(path)
    assert np.array_equal(back.counts, ds.counts)
    assert np.allclose(back.energies, ds.energies, rtol=0, atol=0)


def test_csv_malformed_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("c1,c2,c3,c4,c5,c6,energy_nj\n"
                    "1,2,3,4,5,6,7.5\n"
                    "1,2,3\n")
    with pytest.raises(DatasetError) as err:
        load_dataset(path)
    assert "line 3" in str(err.value)


def test_csv_non_numeric_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("c1,c2,c3,c4,c5,c6,energy_nj\n"
                    "1,2,3,4,5,x,7.5\n")
    with pytest.raises(DatasetError) as err:
        load_dataset(path)
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("row", ["1,2,nan,4,5,6,7.5", "1,2,3,4,5,6,inf",
                                 "1,2,3,4,5,6,-inf", "1,2,3,4,5,1e400,7.5"])
def test_csv_non_finite_value_names_line(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text("c1,c2,c3,c4,c5,c6,energy_nj\n"
                    "1,2,3,4,5,6,7.5\n"
                    "\n"
                    + row + "\n"
                    "1,2,3,4,5,6,7.5\n")
    with pytest.raises(DatasetError) as err:
        load_dataset(path)
    assert "line 4: non-finite value" in str(err.value)


def test_csv_header_required(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(DatasetError):
        load_dataset(path)
