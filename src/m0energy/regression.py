"""Zero-intercept multi-linear model fitting and validation metrics.

fit() solves  min ||e - C @ beta||^2  with no constant term, via least
squares on the raw counter matrix.  Metrics:

    MAPE  mean(|pred - actual| * 100 / actual)
    RESD  population standard deviation of the signed relative errors
          (pred - actual) * 100 / actual
    R^2   1 - SSres / SStot

k-fold cross-validation shuffles rows with a seeded generator (the seed is
recorded in the result), splits them into k folds whose sizes differ by at
most one, and scores each fold with a model fitted on the other k-1.
"""

import csv
import io

import numpy as np

from .errors import DatasetError, DegenerateDesignError
from .record import Record

COUNTER_NAMES = ("c1", "c2", "c3", "c4", "c5", "c6")
CSV_HEADER = ["c1", "c2", "c3", "c4", "c5", "c6", "energy_nj"]
MIN_ROWS = 7  # one more row than coefficients


class RegressionDataset(Record):
    def __init__(self, counts, energies):
        # counts: (n, 6) non-negative event counts; energies: (n,) measured
        # energy in nJ, all > 0
        counts = np.asarray(counts, dtype=float)
        energies = np.asarray(energies, dtype=float)
        if counts.ndim != 2 or counts.shape[1] != 6:
            raise DatasetError("counter matrix must be n x 6")
        if energies.shape != (counts.shape[0],):
            raise DatasetError("need one energy per counter row")
        if not (np.isfinite(counts).all() and np.isfinite(energies).all()):
            raise DatasetError("counters and energies must be finite")
        fault = _value_fault(counts, energies)
        if fault is not None:
            raise DatasetError(fault[0])
        self.counts, self.energies = counts, energies

    def __len__(self):
        return self.counts.shape[0]


def _value_fault(counts, energies):
    """(message, first row at fault) for the first value rule the rows
    break, in this order, or None."""
    for message, broken in (
            ("counters must be non-negative", lambda: counts < 0),
            ("energies must be positive", lambda: energies <= 0),
            ("dataset contains an all-zero counter row",
             lambda: ~counts.any(axis=1))):
        bad = broken()  # by row, or by row and column
        if bad.any():
            return message, int(np.nonzero(bad)[0][0])
    return None


class FitResult(Record):
    def __init__(self, beta, mape, resd, r2, warnings=None):
        self.beta, self.mape, self.resd, self.r2 = beta, mape, resd, r2
        self.warnings = [] if warnings is None else warnings


class FoldScore(Record):
    def __init__(self, fold, r2, mape):
        self.fold, self.r2, self.mape = fold, r2, mape


class CVResult(Record):
    def __init__(self, mean_r2, sd_r2, folds, k, seed):
        self.mean_r2, self.sd_r2, self.folds = mean_r2, sd_r2, folds
        self.k, self.seed = k, seed


def load_dataset(path):
    """Read a `c1,..,c6,energy_nj` CSV; errors carry the offending line.
    Latin-1 decodes any byte, so a binary file is reported as bad CSV, and
    nan or inf (which float() accepts) is rejected like a non-number.

    The body of a file with the plain header is parsed by one numpy call.
    Any file that parse refuses goes to `_scan`, which holds the format
    rules and names the line at fault.  A value rule of RegressionDataset
    names the line of the first row that breaks it."""
    with open(path, newline="", encoding="latin-1") as fh:
        header = fh.readline()
        body = fh.read()
    data = None
    if header.rstrip("\r\n") == ",".join(CSV_HEADER):
        data = _parse_body(body)
    if data is None:
        data = _scan(path, io.StringIO(header + body, newline=""))[0]
    try:
        return RegressionDataset(data[:, :6], data[:, 6])
    except DatasetError:
        fault = _value_fault(data[:, :6], data[:, 6])
        if fault is None:
            raise
    # Only a failing file pays for the line numbers.
    lines = _scan(path, io.StringIO(header + body, newline=""))[1]
    raise DatasetError("%s: line %d: %s" % (path, lines[fault[1]], fault[0]))


# numpy strips these around a number; float() rejects them
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _parse_body(body):
    """The data rows as an (n, 7) array, or None where `_scan` must decide.

    np.loadtxt converts with the same PyOS_string_to_double as float(), so
    the values keep their bits.  It is handed only bodies on which csv and
    float() would agree with it: no field past the csv size limit, no
    character numpy alone takes for space, and some text (an empty body
    makes numpy warn).  Quotes, whitespace-only lines and `1_0` make it
    raise ValueError."""
    if (not body.strip() or any(c in body for c in _NUMPY_ONLY_SPACE)
            or not _lines_within(body, csv.field_size_limit())):
        return None
    try:
        data = np.loadtxt(io.StringIO(body, newline=""), delimiter=",",
                          comments=None, ndmin=2)
    except ValueError:
        return None
    if data.shape[1] != 7 or not np.isfinite(data).all():
        return None
    return data


def _lines_within(text, limit):
    """True when no newline-separated line of text is longer than limit."""
    pos = 0
    while len(text) - pos > limit:
        end = text.rfind("\n", pos, pos + limit + 1)
        if end < 0:
            return False
        pos = end + 1
    return True


def _scan(path, lines):
    """The format rules, applied one csv record at a time: the (n, 7) data
    and the line of each row, or a DatasetError where "line N" is the N-th
    record, the header's 1."""
    rows = []
    linenos = []
    reader = csv.reader(lines)
    lineno = 0  # the last record read
    try:
        header = next(reader, None)
        if header is None:
            raise DatasetError("%s: empty file" % path)
        lineno = 1
        if [h.strip() for h in header] != CSV_HEADER:
            raise DatasetError("%s: header must be %s" % (path, ",".join(CSV_HEADER)))
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 7:
                raise DatasetError("%s: line %d: expected 7 fields, got %d"
                                   % (path, lineno, len(row)))
            try:
                values = [float(x) for x in row]
            except ValueError:
                raise DatasetError("%s: line %d: non-numeric value" % (path, lineno)) from None
            rows.append(values)
            linenos.append(lineno)
    except csv.Error as exc:
        raise DatasetError("%s: line %d: %s" % (path, lineno + 1, exc)) from None
    if not rows:
        raise DatasetError("%s: no data rows" % path)
    data = np.array(rows)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise DatasetError("%s: line %d: non-finite value"
                           % (path, linenos[int(np.argmin(finite))]))
    return data, linenos


def save_dataset(path, dataset):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row, e in zip(dataset.counts, dataset.energies):
            writer.writerow([("%d" % v) if float(v).is_integer() else repr(float(v))
                             for v in row] + [repr(float(e))])


def _dependent_columns(counts, rank):
    # a column is flagged when dropping it does not reduce the rank
    cols = []
    for j in range(counts.shape[1]):
        reduced = np.delete(counts, j, axis=1)
        if np.linalg.matrix_rank(reduced) == rank:
            cols.append(COUNTER_NAMES[j])
    return cols


def _solve(counts, energies):
    """fit's beta for rows already valid, or the DatasetError ruling it out."""
    if len(counts) < MIN_ROWS:
        raise DatasetError("need at least %d rows for a 6-coefficient fit, got %d"
                           % (MIN_ROWS, len(counts)))
    # lstsq's rank has matrix_rank's cut-off, eps * max(M, N) * s_max
    beta, _, rank, _ = np.linalg.lstsq(counts, energies, rcond=None)
    if rank < 6:
        raise DegenerateDesignError(rank, _dependent_columns(counts, rank))
    return beta


def fit(dataset):
    """Zero-intercept least squares over the six counters."""
    beta = _solve(dataset.counts, dataset.energies)
    pred = dataset.counts @ beta
    warnings = ["negative coefficient %s = %.6g" % (COUNTER_NAMES[i], b)
                for i, b in enumerate(beta) if b < 0]
    return FitResult(tuple(float(b) for b in beta),
                     mape(pred, dataset.energies),
                     resd(pred, dataset.energies),
                     r2(pred, dataset.energies),
                     warnings)


def _check_pair(pred, actual, positive_actual):
    pred = np.asarray(pred, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if pred.shape != actual.shape or pred.ndim != 1 or pred.size == 0:
        raise ValueError("pred and actual must be equal-length nonempty vectors")
    if positive_actual and np.any(actual <= 0):
        raise ValueError("actual values must be positive")
    return pred, actual


def mape(pred, actual):
    """Mean absolute percentage error."""
    pred, actual = _check_pair(pred, actual, positive_actual=True)
    return float(np.mean(np.abs(pred - actual) * 100.0 / actual))


def resd(pred, actual):
    """Population SD of the signed relative percentage errors."""
    pred, actual = _check_pair(pred, actual, positive_actual=True)
    errors = (pred - actual) * 100.0 / actual
    return float(np.std(errors))


def r2(pred, actual):
    """Coefficient of determination, 1 - SSres/SStot."""
    pred, actual = _check_pair(pred, actual, positive_actual=False)
    ss_res = float(np.sum((actual - pred) ** 2))
    ss_tot = float(np.sum((actual - np.mean(actual)) ** 2))
    if ss_tot == 0:
        raise ValueError("R^2 undefined for constant actual values")
    return 1.0 - ss_res / ss_tot


def fold_indices(n, k, seed):
    """Shuffled row indices split into k folds with sizes differing by <= 1."""
    if k < 2:
        raise DatasetError("k must be at least 2, got %d" % k)
    if k > n:
        raise DatasetError("k=%d exceeds dataset size %d" % (k, n))
    if seed is not None and seed < 0:  # None: numpy's fresh entropy
        raise DatasetError("seed must be a non-negative integer, got %d" % seed)
    rng = np.random.default_rng(seed)
    return np.array_split(rng.permutation(n), k)


def kfold_cv(dataset, k=10, seed=0):
    """k-fold cross-validation; returns per-fold and aggregate R^2.

    A fold with constant actual values (always the case for leave-one-out)
    has no defined R^2 and is scored nan, which propagates to the mean.
    """
    n = len(dataset)
    folds = fold_indices(n, k, seed)
    scores = []
    for i, test_idx in enumerate(folds):
        keep = np.ones(n, dtype=bool)
        keep[test_idx] = False
        train_idx = np.flatnonzero(keep)  # the sorted complement of the fold
        beta = _solve(dataset.counts[train_idx], dataset.energies[train_idx])
        pred = dataset.counts[test_idx] @ beta
        actual = dataset.energies[test_idx]
        ss_tot = float(np.sum((actual - np.mean(actual)) ** 2))
        fold_r2 = r2(pred, actual) if ss_tot > 0 else float("nan")
        scores.append(FoldScore(i, fold_r2, mape(pred, actual)))
    r2s = np.array([s.r2 for s in scores])
    return CVResult(float(np.mean(r2s)), float(np.std(r2s)), scores, k, seed)
