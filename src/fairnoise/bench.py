"""Benchmark harness: data ingestion, synthetic generation and the
nocor / cor / cor_scale / denoise sweep.

Measurement protocol: corruption touches only the training split's
sensitive attribute; fairness violations and errors are always computed
against the true uncorrupted attributes, on both splits. Splits are
random 80-20 by default with the split seed equal to base_seed plus the
repetition index.
"""

import csv
import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .core import (Criterion, Dataset, FairnessLoss, FairnessSpec,
                   accuracy_risk, disparity)
from .denoise import denoise_ccn
from .errors import (EmptyDataset, FairnoiseError, FairnoiseWarning,
                     ParseError, SchemaError, ValidationError)
from .estimation import estimate_ccn_rates
from .fairtrain import TrainConfig, train_fair, train_fair_noisy
from .noise import CCNNoise, inject_ccn

METHODS = ("nocor", "cor", "cor_scale", "denoise")
AGG_COLUMNS = ("method", "tau", "rho_plus_hat", "rho_minus_hat", "split",
               "n", "mean_fairness_violation", "std_fairness_violation",
               "mean_error", "std_error")

_CELL_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))
_P_Y1_A1, _P_Y1_A0, _ANCHOR_SEPARATION = 0.65, 0.25, 2.0  # synthetic shapes
# CSV I/O: bytes per block of the line count, rows per formatted write
_READ_BLOCK = 1 << 20
_WRITE_CHUNK = 20_000


@dataclass(frozen=True)
class SyntheticConfig:
    """Gaussian-mixture sample: cell proportions over (A, Y) in the order
    (0,0), (0,1), (1,0), (1,1), one mean vector per cell, shared isotropic
    variance."""

    means: tuple[tuple[float, ...], ...]
    proportions: tuple[float, ...]
    variance: float
    n: int
    seed: int

    def __post_init__(self):
        if len(self.means) != 4 or len(self.proportions) != 4:
            raise ValidationError("means and proportions need 4 entries")
        d = len(self.means[0])
        if any(len(m) != d for m in self.means):
            raise ValidationError("mean vectors must share one dimension")
        if not np.isfinite(np.array(self.means, dtype=float)).all():
            raise ValidationError("means must be finite")
        p = np.array(self.proportions, dtype=float)
        if not ((p >= 0).all() and abs(p.sum() - 1.0) <= 1e-9):
            raise ValidationError("proportions must be nonnegative and sum to 1")
        if not 0 < self.variance < math.inf:
            raise ValidationError("variance must be finite and > 0")
        if not 1 <= self.n <= sys.maxsize:  # no array is longer
            raise ValidationError(f"n must be >= 1 and <= {sys.maxsize}")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        object.__setattr__(self, "means", tuple(tuple(float(x) for x in m)
                                                for m in self.means))
        object.__setattr__(self, "proportions", tuple(float(x) for x in p))


def synth_generate(config):
    """Draw the sample: cell indices first (multinomial on the proportions),
    then Gaussian features around the cell means. Deterministic per seed."""
    rng = np.random.default_rng(config.seed)
    cells = rng.choice(4, size=config.n, p=np.array(config.proportions))
    means = np.array(config.means, dtype=float)[cells]
    X = means + rng.normal(0.0, math.sqrt(config.variance),
                           size=(config.n, means.shape[1]))
    # a cell's index is 2 * a + y (``_CELL_ORDER``)
    return Dataset(X, cells >> 1, cells & 1)


def disparity_synthetic_config(n=4000, seed=23, base_rate=0.25):
    """Synthetic family with a group-correlated feature, calibrated so the
    unconstrained logistic fit has DDP in [0.3, 0.5] (the fairness
    constraint is active across the benchmark tau grid).

    Features: x1 carries the target signal, x2 a mixed signal, x3 the
    group signal (which also gives the denoiser's posterior something to
    rank on), x4 is noise.
    """
    means = []
    for a, y in _CELL_ORDER:
        sy, sa = 2.0 * y - 1.0, 2.0 * a - 1.0
        means.append((1.2 * sy, 0.8 * sy + 0.5 * sa, 1.0 * sa, 0.0))
    pi = base_rate
    props = ((1 - pi) * (1 - _P_Y1_A0), (1 - pi) * _P_Y1_A0,
             pi * (1 - _P_Y1_A1), pi * _P_Y1_A1)
    return SyntheticConfig(tuple(means), props, 1.0, n, seed)


def anchor_synthetic_config(n=20000, seed=3):
    """Synthetic family with anchor regions: the group feature's class
    means sit at -2 and 2, four standard deviations apart, so the tails
    are pure-group regions where P[A=1 | x] reaches 0 or 1 (what the
    noise-rate estimator needs)."""
    means = []
    for a, y in _CELL_ORDER:
        sy, sa = 2.0 * y - 1.0, 2.0 * a - 1.0
        means.append((_ANCHOR_SEPARATION * sa, 0.8 * sy))
    props = (0.3, 0.2, 0.2, 0.3)  # P[A=1]=0.5, P[Y=1|A=1]=0.6, P[Y=1|A=0]=0.4
    return SyntheticConfig(tuple(means), props, 1.0, n, seed)


# ---------------------------------------------------------------------------
# CSV ingestion


def load_csv(path, drop_missing=False):
    """Load a dataset from CSV: numeric feature columns plus a `sensitive`
    and a `label` column, both binary. Row order is preserved.

    Missing cells are a ``ParseError`` unless ``drop_missing`` removes the
    affected rows; non-numeric and non-finite cells are always errors.
    Returns the dataset; feature column order follows the file.

    A plain numeric file is parsed by numpy's C reader; any other input
    goes through the row-by-row parser, which alone reports errors, so the
    result and every error are those of ``_parse_csv``.
    """
    data = _load_numeric(path)
    if data is None:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            data = _parse_csv(fh, drop_missing)
    return data


def _load_numeric(path):
    """The dataset in ``path`` parsed by ``np.loadtxt`` from the open
    file, or None unless the file is plain: a valid header line, quoted
    names allowed, then UTF-8 lines of finite numbers, one per column,
    with 0/1 `sensitive` and `label` cells, and no bare ``\\r``.

    On a plain file both parsers give the same floats, bit for bit, since
    both round correctly. ``loadtxt`` skips empty lines, which
    ``_parse_csv`` rejects, so it must return one row per line. The header
    is read by the ``csv`` module, as ``_parse_csv`` reads it; a quoted
    name that spans lines leaves its closing quote for ``loadtxt``, which
    cannot parse it, so such a file falls back.
    """
    with open(path, "rb") as fh:
        newlines = crs = crlfs = 0
        last = b""
        for block in iter(partial(fh.read, _READ_BLOCK), b""):
            newlines += block.count(b"\n")
            crs += block.count(b"\r")
            crlfs += block.count(b"\r\n") + (last == b"\r" and block[:1] == b"\n")
            last = block[-1:]
        lines = newlines + (last not in (b"", b"\n"))
        fh.seek(0)
        head = fh.readline()
        # a bare \r ends a row for the csv module but not for loadtxt
        if crs != crlfs or lines < 2:
            return None
        try:
            header = [h.strip() for h in next(csv.reader([head.decode()]))]
            a_col, y_col, feat_cols = _columns(header)
            with warnings.catch_warnings():
                # a body of empty lines warns "input contained no data";
                # the row count below rejects it
                warnings.simplefilter("ignore")
                rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                                  encoding="utf-8")
        except (ValueError, csv.Error, SchemaError):
            return None
    if rows.shape != (lines - 1, len(header)) or not np.isfinite(rows).all():
        return None
    a, y = rows[:, a_col], rows[:, y_col]
    if not (np.isin(a, (0.0, 1.0)).all() and np.isin(y, (0.0, 1.0)).all()):
        return None
    return Dataset(rows[:, feat_cols], a, y)


def _columns(header):
    """(sensitive index, label index, feature indices) of a stripped header."""
    for required in ("sensitive", "label"):
        if required not in header:
            raise SchemaError(f"CSV header is missing the {required!r} column")
    if len(set(header)) != len(header):
        raise SchemaError("CSV header has duplicate column names")
    a_col = header.index("sensitive")
    y_col = header.index("label")
    return a_col, y_col, [i for i in range(len(header)) if i not in (a_col, y_col)]


def _parse_csv(fh, drop_missing):
    reader = csv.reader(fh)
    try:
        return _parse_rows(reader, drop_missing)
    except csv.Error as exc:
        # e.g. a cell past the csv module's field size limit
        raise ParseError(f"unreadable CSV: {exc}",
                         row=reader.line_num) from None


def _parse_rows(reader, drop_missing):
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("CSV file has no header row") from None
    header = [h.strip() for h in header]
    a_col, y_col, feat_cols = _columns(header)

    feats, sens, labels = [], [], []
    for rownum, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise ParseError("wrong number of cells", row=rownum)
        if any(cell.strip() == "" for cell in row):
            if drop_missing:
                continue
            col = next(header[i] for i, c in enumerate(row) if c.strip() == "")
            raise ParseError("missing value", row=rownum, column=col)
        parsed = []
        for i, cell in enumerate(row):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ParseError(f"non-numeric value {cell!r}", row=rownum,
                                 column=header[i]) from None
        for i, name in ((a_col, "sensitive"), (y_col, "label")):
            if parsed[i] not in (0.0, 1.0):
                raise SchemaError(
                    f"{name} must be 0 or 1, got {parsed[i]} at row {rownum}")
        for i in feat_cols:
            if not math.isfinite(parsed[i]):
                raise ParseError(f"non-finite value {parsed[i]!r}", row=rownum,
                                 column=header[i])
        feats.append([parsed[i] for i in feat_cols])
        sens.append(int(parsed[a_col]))
        labels.append(int(parsed[y_col]))
    if not feats:
        raise EmptyDataset("CSV file contains no data rows")
    return Dataset(np.array(feats, dtype=float), sens, labels)


def csv_feature_names(path):
    """A ``load_csv`` input's feature column names, stripped, in file order."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = [h.strip() for h in next(csv.reader(fh))]
    return [h for h in header if h not in ("sensitive", "label")]


def splice_sensitive(path, out_path, parsed, sensitive):
    """Copy the CSV ``path`` to ``out_path`` with each data line's
    `sensitive` cell set to the matching bit of ``sensitive`` and every
    other byte kept, and return True; ``parsed`` is the sensitive column
    ``load_csv`` read from ``path``.

    Return False, leaving ``out_path`` for the caller to overwrite, unless
    the file is plain enough for the lines to be the loaded rows: its
    body holds no ``"``, each data line has one comma fewer than the
    header has columns, each sensitive cell is the one byte ``0`` or ``1``
    of its bit in ``parsed``, and there is one data line per row (so a
    row ``drop_missing`` removed, or a cell such as ``1.0``, returns
    False). The file is copied ``_READ_BLOCK`` bytes at a time; when
    ``out_path`` is ``path``, the lines are patched in place.
    """
    with open(path, "rb") as src:
        head = src.readline()
        try:
            header = [h.strip() for h in next(csv.reader([head.decode()]))]
            a_col = _columns(header)[0]
        except (ValueError, csv.Error, SchemaError):
            return False
        width = len(header) - 1  # commas per data line
        same = os.path.exists(out_path) and os.path.samefile(path, out_path)
        with open(out_path, "r+b" if same else "wb") as dst:
            dst.write(head)
            rows, rest = 0, b""
            while True:
                block = src.read(_READ_BLOCK)
                lines = rest + block
                cut = lines.rfind(b"\n") + 1 if block else len(lines)
                lines, rest = lines[:cut], lines[cut:]
                arr = np.frombuffer(lines, np.uint8)
                ends = np.flatnonzero(arr == ord("\n"))
                if arr.size and arr[-1] != ord("\n"):
                    ends = np.append(ends, arr.size)  # the file's last line
                n = len(ends)
                commas = np.flatnonzero(arr == ord(","))
                if (b'"' in lines or rows + n > len(parsed)
                        or len(commas) != n * width):
                    return False
                # the commas are sorted and n * width in all, so each line
                # has width of them when its first and last lie inside it
                commas = commas.reshape(n, width)
                starts = np.concatenate(([0], ends + 1))[:n]
                if not ((commas[:, 0] >= starts).all()
                        and (commas[:, -1] < ends).all()):
                    return False
                first = starts if a_col == 0 else commas[:, a_col - 1] + 1
                last = (commas[:, a_col] if a_col < width
                        else ends - (arr[ends - 1] == ord("\r")))
                if not ((last - first == 1).all() and (
                        arr[first] == parsed[rows:rows + n] + ord("0")).all()):
                    return False
                out = arr.copy()
                out[first] = sensitive[rows:rows + n] + ord("0")
                dst.write(out)
                rows += n
                if not block:
                    return rows == len(parsed)


def write_csv(data, path, feature_names=None):
    """Write a dataset as CSV (features, then sensitive, then label).

    Floats use repr, so a write-then-load round trip is bit-exact. The
    bytes are those of a `csv.writer` row per example (``\\r\\n`` line
    ends, no quoting, since no float repr or 0/1 needs it); the rows are
    formatted column-wise, ``_WRITE_CHUNK`` rows at a time. Besides the
    code that makes input files (perfbench's set-up, CI and the tests),
    only ``corrupt`` still calls it, where ``splice_sensitive`` cannot copy
    its input.
    """
    d = data.dimension
    names = list(feature_names) if feature_names else [f"x{i}" for i in range(d)]
    if len(names) != d:
        raise ValidationError("feature_names length must match the dimension")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(names + ["sensitive", "label"])
        for start in range(0, len(data), _WRITE_CHUNK):
            rows = slice(start, start + _WRITE_CHUNK)
            cols = [map(repr, col.tolist()) for col in data.features[rows].T]
            cols += [map(str, data.sensitive[rows].tolist()),
                     map(str, data.target[rows].tolist())]
            fh.write("\r\n".join(map(",".join, zip(*cols))) + "\r\n")


# ---------------------------------------------------------------------------
# Sweep harness


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one benchmark sweep depends on.

    ``noise_mode`` selects how cor_scale / denoise obtain their rates:
    "known" uses the true injection rates, "estimate" runs the anchor-point
    estimator on the corrupted split, "rho_hat_sweep" sweeps the supplied
    ``rho_hat_grid`` of (rho+, rho-) pairs, which only that mode may set.
    """

    synthetic: SyntheticConfig = None
    csv_path: str = None
    criterion: Criterion = Criterion.DEMOGRAPHIC_PARITY
    loss: FairnessLoss = None
    rho_plus: float = 0.15
    rho_minus: float = 0.15
    noise_mode: str = "known"
    rho_hat_grid: tuple[tuple[float, float], ...] = ()
    tau_grid: tuple[float, ...] = (0.02, 0.05, 0.1, 0.15, 0.2)
    methods: tuple[str, ...] = METHODS
    repetitions: int = 3
    train_fraction: float = 0.8
    base_seed: int = 1
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if (self.synthetic is None) == (self.csv_path is None):
            raise ValidationError("exactly one data source must be set")
        if not self.tau_grid or any(not t >= 0 for t in self.tau_grid):
            raise ValidationError("tau_grid must be nonempty with taus >= 0")
        if not self.methods or any(m not in METHODS for m in self.methods):
            raise ValidationError(f"methods must be a nonempty subset of {METHODS}")
        if not 1 <= self.repetitions <= sys.maxsize:  # no range is longer
            raise ValidationError(f"repetitions must be >= 1 and <= {sys.maxsize}")
        if self.base_seed < 0:
            raise ValidationError("base_seed must be >= 0")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValidationError("train_fraction must lie in (0, 1)")
        if self.noise_mode not in ("known", "estimate", "rho_hat_sweep"):
            raise ValidationError("unknown noise_mode")
        CCNNoise(self.rho_plus, self.rho_minus)
        for rp, rm in self.rho_hat_grid:
            CCNNoise(rp, rm)
        object.__setattr__(self, "tau_grid", tuple(float(t) for t in self.tau_grid))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "rho_hat_grid",
                           tuple((float(p), float(m)) for p, m in self.rho_hat_grid))
        # a repeated entry would repeat its rows and skew the aggregates
        for name in ("methods", "tau_grid", "rho_hat_grid"):
            values = getattr(self, name)
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValidationError(f"{name} lists {repeated[0]!r} twice")
        if (self.noise_mode == "rho_hat_sweep") != bool(self.rho_hat_grid):
            raise ValidationError("rho_hat_grid is nonempty exactly when "
                                  "noise_mode = rho_hat_sweep")


class ResultRow(NamedTuple):
    """One results-table row; the fields are the CSV columns, in order, and
    None (a failed cell, or a method that uses no rates) is written empty."""

    method: str
    tau: float
    tau_prime: float
    rho_plus_hat: float
    rho_minus_hat: float
    split: str
    fairness_violation: float
    error: float
    seed: int
    repetition: int


RESULT_COLUMNS = ResultRow._fields


def default_experiment_config():
    """The shipped benchmark defaults (the privacy-noise regime on the
    default synthetic sample)."""
    return ExperimentConfig(synthetic=disparity_synthetic_config())


def _load_data(config):
    if config.synthetic is not None:
        return synth_generate(config.synthetic)
    return load_csv(config.csv_path)


def _split(data, config, rep):
    seed = config.base_seed + rep
    order = np.random.default_rng(seed).permutation(len(data))
    n_train = int(config.train_fraction * len(data))
    if n_train == 0 or n_train == len(data):
        raise ValidationError("split leaves an empty train or test set")
    return data.subset(order[:n_train]), data.subset(order[n_train:]), seed


def _inject_seed(config, rep):
    return (config.base_seed + rep) * 1_000_003 + 1


def _rate_pairs(config, corrupted_train):
    """(rho+, rho-) pairs the noise-consuming methods run with."""
    if config.noise_mode == "known":
        return [(config.rho_plus, config.rho_minus)]
    if config.noise_mode == "estimate":
        est = estimate_ccn_rates(corrupted_train)
        return [(est.rho_plus, est.rho_minus)]
    return list(config.rho_hat_grid)


def run_cell(config, data, rep):
    """All rows of one sweep repetition, method by method over the tau grid.

    The split, the injection and the rate pairs are built once, each
    denoised set once per pair. One presolve memo serves the trainings on
    the clean and the corrupted split, since its keys are rooted at the
    dataset object: cor and cor_scale share fits. Each denoised set has
    its own memo, dropped when its tau loop ends. The models are those of
    separate trainings, bit for bit. A failed training leaves empty rows
    for its tau, a failed denoise or rate estimate for every tau it feeds;
    each failure warns with the reason, once for each method it hits.
    """
    train_clean, test_clean, seed = _split(data, config, rep)
    corrupted = inject_ccn(train_clean, CCNNoise(config.rho_plus, config.rho_minus),
                           _inject_seed(config, rep))
    specs = [FairnessSpec(config.criterion, config.loss, tau)
             for tau in config.tau_grid]
    rows, memo = [], {}

    def add_rows(method, spec, pair, tau_prime=None, model=None):
        rows.extend([ResultRow(
            method, spec.tolerance, tau_prime, *(pair or (None, None)), name,
            None if model is None else disparity(split, model, spec),
            None if model is None else accuracy_risk(split, model),
            seed, rep) for name, split in (("train", train_clean),
                                           ("test", test_clean))])

    def fail(method, what, exc, pair, failed_specs, tau_prime=None):
        warnings.warn(f"sweep cell {method} {what} rep={rep} failed: {exc}",
                      FairnoiseWarning, stacklevel=2)
        for spec in failed_specs:
            add_rows(method, spec, pair, tau_prime)

    try:
        rates = (_rate_pairs(config, corrupted)
                 if {"cor_scale", "denoise"} & set(config.methods) else None)
    except FairnoiseError as exc:
        rates = exc
    for method in config.methods:
        train_set = train_clean if method == "nocor" else corrupted
        pairs = rates if method in ("cor_scale", "denoise") else [None]
        if isinstance(pairs, FairnoiseError):
            fail(method, "rate estimate", pairs, None, specs)
            continue
        for pair in pairs:
            fit_set, fit_memo = train_set, memo
            if method == "denoise":
                try:
                    fit_set, fit_memo = denoise_ccn(train_set, CCNNoise(*pair)), {}
                except FairnoiseError as exc:
                    fail(method, f"rho_hat={pair}", exc, pair, specs)
                    continue
            for spec in specs:
                tau_prime = None
                try:
                    if method == "cor_scale":
                        model = train_fair_noisy(fit_set, spec, CCNNoise(*pair),
                                                 config.train, memo=fit_memo)
                        tau_prime = model.trace.tau
                    else:
                        model = train_fair(fit_set, spec, config.train,
                                           memo=fit_memo)
                    add_rows(method, spec, pair, tau_prime, model)
                except FairnoiseError as exc:
                    fail(method, f"tau={spec.tolerance}", exc, pair, [spec],
                         tau_prime)
    return rows


def run_sweep(config, jobs=1):
    """Run every repetition and return the rows, in repetition order.

    The data is loaded once. Repetitions are independent given their
    derived seeds; with ``jobs`` > 1, several run as one task each in up
    to ``jobs`` worker processes. Identical configs yield identical rows.
    A worker returns the warnings its repetition raised, and this process
    warns them again as each repetition arrives, in repetition order, so
    what is shown or raised does not depend on ``jobs``; a warning raised
    as an error cancels the repetitions no worker has started.
    """
    run = partial(run_cell, config, _load_data(config))
    reps = range(config.repetitions)
    if min(jobs, len(reps)) <= 1:
        return [row for chunk in map(run, reps) for row in chunk]
    from concurrent.futures import ProcessPoolExecutor  # 12 ms of a CLI start
    rows = []
    with ProcessPoolExecutor(max_workers=min(jobs, len(reps))) as pool:
        try:
            for chunk, caught in pool.map(partial(_run_recording, run), reps):
                for warning in caught:
                    _warn_again(*warning)
                rows += chunk
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return rows


def _run_recording(run, rep):
    """``run(rep)`` in a worker: its rows, and every warning it raised as
    (message, category, file name, line number)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = run(rep)
    return rows, [(w.message, w.category, w.filename, w.lineno)
                  for w in caught]


def _warn_again(message, category, filename, lineno):
    """Warn as the worker's ``warnings.warn`` did, but in this process: at
    the same file and line, under this process's filters, and once per
    location as ``warn`` counts it, in the registry of the module that
    warned."""
    module = next((m for m in list(sys.modules.values())
                   if getattr(m, "__file__", None) == filename), None)
    scope = {} if module is None else vars(module)
    warnings.warn_explicit(message, category, filename, lineno,
                           module=scope.get("__name__"),
                           registry=scope.setdefault("__warningregistry__", {}))


def _fmt_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _sort_key(values):
    """A sort key for a tuple of cells in which None sorts first."""
    return tuple(-1.0 if v is None else v for v in values)


def _write_table(path, columns, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt_cell(v) for v in row])


def agg_path(path):
    """The companion ``*_agg`` file that ``emit_results`` writes."""
    root, ext = os.path.splitext(path)
    return root + "_agg" + (ext or ".csv")


def emit_results(rows, path, by_pair=True):
    """Write the results table plus a companion ``*_agg`` file holding
    per-(method, tau, rho_hat, split) means and standard deviations, and
    return the ``*_agg`` rows: tuples of ``AGG_COLUMNS`` values, with None
    for an empty cell, in file order.

    With ``by_pair`` false (``noise_mode = estimate``, where each
    repetition estimates its own pair), the groups are per (method, tau,
    split) and their rho_hat cells hold the mean estimate of the group.
    Output is byte-stable: rows are sorted, floats use repr, no
    timestamps.
    """
    rows = sorted(rows, key=lambda r: _sort_key(
        (r.method, r.tau, r.rho_plus_hat, r.rho_minus_hat, r.repetition, r.split)))
    _write_table(path, RESULT_COLUMNS, rows)

    groups = {}
    for row in rows:
        if row.fairness_violation is None:
            continue
        pair = (row.rho_plus_hat, row.rho_minus_hat) if by_pair else (None, None)
        groups.setdefault((row.method, row.tau, *pair, row.split), []).append(row)
    agg = []
    for key in sorted(groups, key=_sort_key):
        members = groups[key]
        if not by_pair and members[0].rho_plus_hat is not None:
            key = (*key[:2],
                   float(np.mean([r.rho_plus_hat for r in members])),
                   float(np.mean([r.rho_minus_hat for r in members])),
                   key[4])
        stats = []
        for values in (np.array([r.fairness_violation for r in members]),
                       np.array([r.error for r in members])):
            stats += [float(values.mean()),
                      float(values.std(ddof=1)) if len(values) > 1 else 0.0]
        agg.append((*key, len(members), *stats))
    _write_table(agg_path(path), AGG_COLUMNS, agg)
    return agg


def read_results(path):
    """Parse a results CSV back into ResultRow objects: an empty cell reads
    as None, any other as its field's annotated type. An empty file or a
    wrong header is a ``SchemaError``, as is a row the ``csv`` module cannot
    read, one without one cell per column, or a cell its field type cannot
    read; those name their file row."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            if tuple(next(reader, ())) != RESULT_COLUMNS:
                raise SchemaError("unexpected results header")
            for rownum, rec in enumerate(reader, start=2):
                if len(rec) != len(RESULT_COLUMNS):
                    raise SchemaError(
                        f"results row {rownum} has {len(rec)} cells, "
                        f"expected {len(RESULT_COLUMNS)}")
                values = []
                for (name, t), cell in zip(ResultRow.__annotations__.items(),
                                           rec):
                    try:
                        values.append(t(cell) if cell else None)
                    except ValueError:
                        raise SchemaError(
                            f"results row {rownum}, column {name!r}: cannot "
                            f"read {cell!r} as {t.__name__}") from None
                rows.append(ResultRow(*values))
        except csv.Error as exc:
            # e.g. a cell past the csv module's field size limit
            raise SchemaError(f"results row {reader.line_num}: unreadable "
                              f"CSV: {exc}") from None
    return rows
