"""Fitting and metric tests with hand-computed and Monte-Carlo oracles."""

import csv
import random
import zlib

import numpy as np
import pytest

from helpers import (BETA_20_OFF_0, reference_kfold_scores,
                     reference_load_dataset, synth_dataset)
from m0energy import (DatasetError, DegenerateDesignError, RegressionDataset,
                      fit, fold_indices, kfold_cv, load_dataset, mape, r2,
                      resd, save_dataset)
from m0energy import regression


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


@pytest.mark.parametrize("exponent", [-16, -15.5, -15, -14.5, -14, -13.5, -13])
def test_fit_rank_verdict_matches_matrix_rank(exponent):
    # c5 is c4 plus noise near the rank cut-off, eps * max(M, N) * s_max;
    # the fit's degeneracy verdict and rank are matrix_rank's
    ds = synth_dataset(seed=3, n=30, noise=0.0)
    counts = ds.counts.copy()
    noise = np.random.default_rng(0).normal(size=len(ds))
    counts[:, 4] = counts[:, 3] + 10.0 ** exponent * counts.max() * noise
    rank = np.linalg.matrix_rank(counts)
    dataset = RegressionDataset(counts, ds.energies)
    if rank == 6:
        assert len(fit(dataset).beta) == 6
    else:
        with pytest.raises(DegenerateDesignError) as err:
            fit(dataset)
        assert err.value.rank == rank
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


def bits(values):
    return np.array(values, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("n,k,seed", [(100, 10, 0), (103, 10, 5), (57, 4, 11),
                                      (40, 7, 2), (12, 12, 0), (9, 9, 3)])
def test_kfold_matches_setdiff1d_reference(n, k, seed):
    ds = synth_dataset(seed=20 + seed, n=n, noise=0.03)
    result = kfold_cv(ds, k=k, seed=seed)
    want = reference_kfold_scores(ds, k, seed)
    assert [f.fold for f in result.folds] == list(range(k))
    assert bits([(f.r2, f.mape) for f in result.folds]) == bits(want)
    r2s = np.array([w[0] for w in want])
    assert bits([result.mean_r2, result.sd_r2]) == \
        bits([np.mean(r2s), np.std(r2s)])
    assert np.isnan(result.mean_r2) == (k == n)  # leave-one-out has no R^2


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


# -- the loader against the frozen reference ------------------------------------

_ODD_FIELDS = ["1_0", "1e400", "nan", "-inf", "0x10", "", " 5 ", "\t6", "7\x0c",
               "\x1c3", "3\x1f", "\xa01", "1\x85", '"7"', '" 8"', '"1,2"',
               '"1\n2"', '"3', "\x00", "1\x00", "\xe9", "-0", "1e-400", "+.5",
               "5.", "Infinity", "-1", "0", "1.5e+2"]
_ODD_LINES = ["", " ", " \t", "\x0c", "\x1c", "\x00", ",", "\xff\xfe",
              "#1,2,3,4,5,6,7", '""']
_HEADERS = [" c1, c2 ,c3,c4,c5,c6, energy_nj", "c1,c2,c3,c4,c5,c6",
            '"c1",c2,c3,c4,c5,c6,energy_nj', "c1,c2,c3,c4,c5,c6,energy_nj,"]


def _count(rng):
    return rng.choice(["%d" % rng.randrange(1, 10 ** 6),
                       "%.3f" % rng.uniform(0, 1e5), "%e" % rng.uniform(1, 1e6),
                       repr(rng.uniform(0, 1e4)), "0"])


def _energy(rng):
    return rng.choice(["%.6f" % rng.uniform(1, 1e6), repr(rng.uniform(0.1, 1e3)),
                       "%g" % rng.uniform(1, 1e5), "%d" % rng.randrange(1, 10 ** 7)])


def corpus_csv(case):
    """A small CSV, mostly valid, seeded by crc32 of the case number.  Some
    files carry odd fields, odd lines, short or long rows, other headers
    and mixed line ends."""
    rng = random.Random(zlib.crc32(b"dataset %d" % case))
    odd = rng.random() < 0.6
    header = "c1,c2,c3,c4,c5,c6,energy_nj"
    if odd and rng.random() < 0.2:
        header = rng.choice(_HEADERS)
    lines = [header]
    for _ in range(rng.randrange(0, 12)):
        row = [_count(rng) for _ in range(6)] + [_energy(rng)]
        if odd and rng.random() < 0.2:
            kind = rng.randrange(5)
            if kind < 2:
                row[rng.randrange(7)] = rng.choice(_ODD_FIELDS)
            elif kind == 2:
                row.append(rng.choice(["", "1"]))
            elif kind == 3:
                del row[rng.randrange(7)]
            else:
                lines.append(rng.choice(_ODD_LINES))
        lines.append(",".join(row))
    eol = rng.choice(["\n", "\r\n", "\r"])
    text = ""
    for line in lines:
        text += line + (rng.choice(["\n", "\r\n", "\r"])
                        if odd and rng.random() < 0.1 else eol)
    if rng.random() < 0.2:
        text = text[:-len(eol)]
    return text.encode("latin-1")


def load_outcome(loader, path):
    try:
        ds = loader(path)
    except DatasetError as exc:
        return ("error", str(exc))
    return ("data", bits(ds.counts), bits(ds.energies), ds.name)


CORPUS = range(300)


# The value rules of RegressionDataset, one row at a time.
_VALUE_RULES = {
    "counters must be non-negative": lambda v: any(x < 0 for x in v[:6]),
    "energies must be positive": lambda v: v[6] <= 0,
    "dataset contains an all-zero counter row": lambda v: not any(v[:6]),
}


def first_line_breaking(path, message):
    """The line of the first data record that breaks the value rule."""
    with open(path, newline="", encoding="latin-1") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if (lineno > 1 and len(row) == 7
                    and _VALUE_RULES[message]([float(x) for x in row])):
                return lineno
    raise AssertionError("no record breaks %r" % message)


def expected_outcome(path):
    """The reference loader's outcome, with the line named for a value rule
    (the reference reports those without file or line)."""
    outcome = load_outcome(reference_load_dataset, path)
    if outcome[0] == "error" and outcome[1] in _VALUE_RULES:
        return ("error", "%s: line %d: %s"
                % (path, first_line_breaking(path, outcome[1]), outcome[1]))
    return outcome


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", CORPUS)
def test_load_dataset_matches_reference(tmp_path, case):
    path = tmp_path / "data.csv"
    path.write_bytes(corpus_csv(case))
    assert load_outcome(load_dataset, path) == expected_outcome(path)


def test_corpus_reaches_value_rules(tmp_path):
    broken = set()
    for case in CORPUS:
        path = tmp_path / ("%d.csv" % case)
        path.write_bytes(corpus_csv(case))
        outcome = load_outcome(reference_load_dataset, path)
        if outcome[0] == "error" and outcome[1] in _VALUE_RULES:
            broken.add(outcome[1])
    assert broken == {"counters must be non-negative", "energies must be positive"}


def test_corpus_reaches_numpy_parse_and_scan(tmp_path, monkeypatch):
    scanned = []
    scan = regression._scan

    def counting_scan(path, lines):
        scanned.append(path)
        return scan(path, lines)

    monkeypatch.setattr(regression, "_scan", counting_scan)
    loaded = 0
    for case in CORPUS:
        path = tmp_path / ("%d.csv" % case)
        path.write_bytes(corpus_csv(case))
        loaded += load_outcome(load_dataset, path)[0] == "data"
    parsed = len(CORPUS) - len(scanned)
    assert parsed >= 60 and len(scanned) >= 60
    assert loaded > parsed  # some files only the scan accepts


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_valid_dataset_never_reaches_the_scan(tmp_path, monkeypatch, eol):
    def no_scan(path, lines):
        raise AssertionError("scanned %s" % path)

    monkeypatch.setattr(regression, "_scan", no_scan)
    ds = synth_dataset(seed=12, n=50, noise=0.03)
    path = tmp_path / "data.csv"
    save_dataset(path, ds)
    text = path.read_text().replace("\r\n", "\n").replace("\n", eol)
    path.write_bytes((text + eol).encode("latin-1"))  # and a blank line
    back = load_dataset(path)
    assert bits(back.counts) == bits(ds.counts)
    assert bits(back.energies) == bits(ds.energies)


@pytest.mark.parametrize("extra", [0, 1])
def test_csv_field_size_limit_names_line(tmp_path, extra):
    limit = csv.field_size_limit()
    field = "1." + "0" * (limit - 2 + extra)  # finite, so numpy would take it
    path = tmp_path / "data.csv"
    rows = ["1,2,3,4,5,6,7.5"] * 4
    rows[2] = field + ",2,3,4,5,6,7.5"
    path.write_text("c1,c2,c3,c4,c5,c6,energy_nj\n" + "\n".join(rows) + "\n")
    if extra:
        with pytest.raises(DatasetError) as err:
            load_dataset(path)
        assert str(err.value) == ("%s: line 4: field larger than field limit "
                                  "(%d)" % (path, limit))
    else:
        assert load_outcome(load_dataset, path) == \
            load_outcome(reference_load_dataset, path)


@pytest.mark.parametrize("text,within", [
    ("", True), ("abcd", True), ("abcde", False), ("abcd\n", True),
    ("abcde\n", False), ("ab\nabcd\nabcd", True), ("abcd\nabcde", False),
    ("abc\r\nab", True), ("abcd\r\nab", False), ("\n" * 9, True)])
def test_lines_within_limit(text, within):
    assert regression._lines_within(text, 4) == within


def test_csv_oversized_header_names_line_1(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("c" * (csv.field_size_limit() + 1) + "\n1,2,3,4,5,6,7\n")
    with pytest.raises(DatasetError, match=r"line 1: field larger"):
        load_dataset(path)
