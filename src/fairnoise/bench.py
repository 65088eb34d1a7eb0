"""Benchmark harness: data ingestion, synthetic generation, exact oracles
and the nocor / cor / cor_scale / denoise sweep.

Measurement protocol: corruption touches only the training split's
sensitive attribute; fairness violations and errors are always computed
against the true uncorrupted attributes, on both splits. Splits are
random 80-20 by default with the split seed equal to base_seed plus the
repetition index.
"""

import csv
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .core import (Criterion, Dataset, DiscretePopulation, FairnessLoss,
                   FairnessSpec, accuracy_risk, disparity)
from .denoise import denoise_ccn
from .errors import (EmptyDataset, FairnoiseError, FairnoiseWarning,
                     ParseError, SchemaError, ValidationError)
from .estimation import EstimatorConfig, estimate_ccn_rates
from .fairtrain import TrainConfig, train_fair, train_fair_noisy
from .noise import CCNNoise, inject_ccn, merge_cells

METHODS = ("nocor", "cor", "cor_scale", "denoise")
AGG_COLUMNS = ("method", "tau", "rho_plus_hat", "rho_minus_hat", "split",
               "n", "mean_fairness_violation", "std_fairness_violation",
               "mean_error", "std_error")

_CELL_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))
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
        if self.n < 1:
            raise ValidationError("n must be >= 1")
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
    a = [_CELL_ORDER[c][0] for c in cells]
    y = [_CELL_ORDER[c][1] for c in cells]
    return Dataset(X, a, y)


def disparity_synthetic_config(n=4000, seed=23, base_rate=0.25, p_y1_a1=0.65,
                               p_y1_a0=0.25):
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
    props = ((1 - pi) * (1 - p_y1_a0), (1 - pi) * p_y1_a0,
             pi * (1 - p_y1_a1), pi * p_y1_a1)
    return SyntheticConfig(tuple(means), props, 1.0, n, seed)


def default_synthetic_config():
    """The shipped default benchmark sample (n=4000)."""
    return disparity_synthetic_config()


def anchor_synthetic_config(n=20000, seed=3, separation=2.0):
    """Synthetic family with anchor regions: the group feature's class
    means sit ``2 * separation`` standard deviations apart, so the tails
    are pure-group regions where P[A=1 | x] reaches 0 or 1 (what the
    noise-rate estimator needs)."""
    means = []
    for a, y in _CELL_ORDER:
        sy, sa = 2.0 * y - 1.0, 2.0 * a - 1.0
        means.append((separation * sa, 0.8 * sy))
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
    file, or None unless the file is plain: a valid header line without
    quotes, then UTF-8 lines of finite numbers, one per column, with 0/1
    `sensitive` and `label` cells, and no bare ``\\r``.

    On a plain file both parsers give the same floats, bit for bit, since
    both round correctly. ``loadtxt`` skips empty lines, which
    ``_parse_csv`` rejects, so it must return one row per line.
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
        if crs != crlfs or b'"' in head or lines < 2:
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
        header = next(reader)
    except StopIteration:
        raise SchemaError("CSV file has no header row") from None
    header = [h.strip() for h in header]
    a_col, y_col, feat_cols = _columns(header)

    feats, sens, labels, dropped = [], [], [], []
    for rownum, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise ParseError("wrong number of cells", row=rownum)
        if any(cell.strip() == "" for cell in row):
            if drop_missing:
                dropped.append(rownum)
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
        feats.append([parsed[i] for i in feat_cols])
        sens.append(int(parsed[a_col]))
        labels.append(int(parsed[y_col]))
    if not feats:
        raise EmptyDataset("CSV file contains no data rows")
    X = np.array(feats, dtype=float)
    bad = np.argwhere(~np.isfinite(X))
    if len(bad):
        r, c = bad[0]
        rownum = r + 2  # the file row of data row r, past any dropped rows
        for skipped in dropped:
            if skipped <= rownum:
                rownum += 1
        raise ParseError(f"non-finite value {float(X[r, c])!r}", row=rownum,
                         column=header[feat_cols[c]])
    return Dataset(X, sens, labels)


def csv_feature_names(path):
    """A ``load_csv`` input's feature column names, stripped, in file order."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = [h.strip() for h in next(csv.reader(fh))]
    return [h for h in header if h not in ("sensitive", "label")]


def write_csv(data, path, feature_names=None):
    """Write a dataset as CSV (features, then sensitive, then label).

    Floats use repr, so a write-then-load round trip is bit-exact. The
    bytes are those of a `csv.writer` row per example (``\\r\\n`` line
    ends, no quoting, since no float repr or 0/1 needs it); the rows are
    formatted column-wise, ``_WRITE_CHUNK`` rows at a time.
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
# Exact oracles


def materialize(pop, denominator):
    """Dataset realising a population whose masses are integer multiples of
    1/denominator; empirical metrics on it equal population metrics
    exactly."""
    counts = np.asarray(pop.mass) * denominator
    rounded = np.rint(counts)
    if np.abs(counts - rounded).max() > 1e-6:
        raise ValidationError(
            "population masses are not integer multiples of 1/denominator")
    counts = rounded.astype(int)
    return Dataset(np.repeat(pop.features, counts, axis=0),
                   np.repeat(pop.sensitive, counts), np.repeat(pop.target, counts))


def mix_populations(pop_a, pop_b, weight_a):
    """Mixture weight_a * pop_a + (1-weight_a) * pop_b, cells merged."""
    if not 0.0 <= weight_a <= 1.0:
        raise ValidationError("weight_a must lie in [0, 1]")
    return DiscretePopulation(*merge_cells(
        (pop.features[i], int(pop.sensitive[i]), int(pop.target[i]), w * pop.mass[i])
        for pop, w in ((pop_a, weight_a), (pop_b, 1.0 - weight_a))
        for i in range(pop.n_cells)))


# ---------------------------------------------------------------------------
# Sweep harness


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one benchmark sweep depends on.

    ``noise_mode`` selects how cor_scale / denoise obtain their rates:
    "known" uses the true injection rates, "estimate" runs the anchor-point
    estimator on the corrupted split, "rho_hat_sweep" sweeps the supplied
    ``rho_hat_grid`` of (rho+, rho-) pairs (the estimate-error experiment).
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
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)

    def __post_init__(self):
        if (self.synthetic is None) == (self.csv_path is None):
            raise ValidationError("exactly one data source must be set")
        if not self.tau_grid or any(not t >= 0 for t in self.tau_grid):
            raise ValidationError("tau_grid must be nonempty with taus >= 0")
        if not self.methods or any(m not in METHODS for m in self.methods):
            raise ValidationError(f"methods must be a nonempty subset of {METHODS}")
        if self.repetitions < 1:
            raise ValidationError("repetitions must be >= 1")
        if self.base_seed < 0:
            raise ValidationError("base_seed must be >= 0")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValidationError("train_fraction must lie in (0, 1)")
        if self.noise_mode not in ("known", "estimate", "rho_hat_sweep"):
            raise ValidationError("unknown noise_mode")
        if self.noise_mode == "rho_hat_sweep" and not self.rho_hat_grid:
            raise ValidationError("rho_hat_sweep needs a nonempty rho_hat_grid")
        CCNNoise(self.rho_plus, self.rho_minus)
        for rp, rm in self.rho_hat_grid:
            CCNNoise(rp, rm)
        object.__setattr__(self, "tau_grid", tuple(float(t) for t in self.tau_grid))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "rho_hat_grid",
                           tuple((float(p), float(m)) for p, m in self.rho_hat_grid))


@dataclass(frozen=True)
class ResultRow:
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


RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))


def default_experiment_config():
    """The shipped benchmark defaults (the privacy-noise regime on the
    default synthetic sample)."""
    return ExperimentConfig(synthetic=default_synthetic_config())


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
        est = estimate_ccn_rates(corrupted_train, config.estimator)
        return [(est.rho_plus, est.rho_minus)]
    return list(config.rho_hat_grid)


def run_cell(config, data, rep, method):
    """All rows of one (repetition, method) sweep cell, over the tau grid.

    Only the tolerance depends on tau, so the split, the injection, the
    rate estimate and each denoised training set are built once here;
    then every tau trains and is evaluated. A failed training leaves empty
    rows for its tau, a failed rate estimate or denoise for every tau it
    feeds; each failure warns once with the reason. Deterministic.
    """
    train_clean, test_clean, seed = _split(data, config, rep)
    specs = [FairnessSpec(config.criterion, config.loss, tau)
             for tau in config.tau_grid]
    rows = []

    def add_rows(spec, pair, tau_prime=None, model=None):
        rows.extend([ResultRow(
            method, spec.tolerance, tau_prime, *(pair or (None, None)), name,
            None if model is None else disparity(split, model, spec),
            None if model is None else accuracy_risk(split, model),
            seed, rep) for name, split in (("train", train_clean),
                                           ("test", test_clean))])

    def fail(what, exc, pair, failed_specs, tau_prime=None):
        warnings.warn(f"sweep cell {method} {what} rep={rep} failed: {exc}",
                      FairnoiseWarning, stacklevel=2)
        for spec in failed_specs:
            add_rows(spec, pair, tau_prime)

    train_set, pairs = train_clean, [None]
    if method != "nocor":
        train_set = inject_ccn(train_clean,
                               CCNNoise(config.rho_plus, config.rho_minus),
                               _inject_seed(config, rep))
    if method in ("cor_scale", "denoise"):
        try:
            pairs = _rate_pairs(config, train_set)
        except FairnoiseError as exc:
            fail("rate estimate", exc, None, specs)
            return rows
    for pair in pairs:
        fit_set = train_set
        if method == "denoise":
            try:
                fit_set, _ = denoise_ccn(train_set, CCNNoise(*pair))
            except FairnoiseError as exc:
                fail(f"rho_hat={pair}", exc, pair, specs)
                continue
        for spec in specs:
            tau_prime = None
            try:
                if method == "cor_scale":
                    model = train_fair_noisy(fit_set, spec, CCNNoise(*pair),
                                             config.train)
                    tau_prime = model.trace.tau
                else:
                    model = train_fair(fit_set, spec, config.train)
                add_rows(spec, pair, tau_prime, model)
            except FairnoiseError as exc:
                fail(f"tau={spec.tolerance}", exc, pair, [spec], tau_prime)
    return rows


def run_sweep(config, jobs=1):
    """Run every (repetition, method) cell and return the result rows.

    The data is loaded once. Cells are independent given their derived
    seeds; ``jobs`` > 1 runs them in worker processes. Identical configs
    yield identical rows.
    """
    data = _load_data(config)
    tasks = zip(*[(config, data, rep, method) for rep in range(config.repetitions)
                  for method in config.methods])
    if jobs <= 1:
        return [row for chunk in map(run_cell, *tasks) for row in chunk]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return [row for chunk in pool.map(run_cell, *tasks) for row in chunk]


def _fmt_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _sort_key(row):
    return (row.method, row.tau,
            -1.0 if row.rho_plus_hat is None else row.rho_plus_hat,
            -1.0 if row.rho_minus_hat is None else row.rho_minus_hat,
            row.repetition, row.split)


def emit_results(rows, path):
    """Write the results table plus a companion ``*_agg`` file holding
    per-(method, tau, rho_hat, split) means and standard deviations.

    Output is byte-stable: rows are sorted, floats use repr, no
    timestamps.
    """
    rows = sorted(rows, key=_sort_key)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for row in rows:
            writer.writerow([_fmt_cell(getattr(row, c)) for c in RESULT_COLUMNS])

    groups = {}
    for row in rows:
        if row.fairness_violation is None:
            continue
        key = (row.method, row.tau, row.rho_plus_hat, row.rho_minus_hat, row.split)
        groups.setdefault(key, []).append(row)
    root, ext = os.path.splitext(path)
    agg_path = root + "_agg" + (ext or ".csv")
    with open(agg_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(AGG_COLUMNS)
        for key in sorted(groups, key=lambda k: tuple(
                -1.0 if v is None else v for v in k)):
            members = groups[key]
            fv = np.array([r.fairness_violation for r in members])
            er = np.array([r.error for r in members])
            std_fv = float(fv.std(ddof=1)) if len(fv) > 1 else 0.0
            std_er = float(er.std(ddof=1)) if len(er) > 1 else 0.0
            writer.writerow([_fmt_cell(v) for v in key]
                            + [len(members), repr(float(fv.mean())), repr(std_fv),
                               repr(float(er.mean())), repr(std_er)])
    return agg_path


def read_results(path):
    """Parse a results CSV back into ResultRow objects: an empty cell reads
    as None, any other as its field's annotated type. A row without one
    cell per column is a ``SchemaError`` naming its file row."""
    types = [f.type for f in fields(ResultRow)]
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader)) != RESULT_COLUMNS:
            raise SchemaError("unexpected results header")
        for rownum, rec in enumerate(reader, start=2):
            if len(rec) != len(RESULT_COLUMNS):
                raise SchemaError(
                    f"results row {rownum} has {len(rec)} cells, "
                    f"expected {len(RESULT_COLUMNS)}")
            rows.append(ResultRow(*(t(cell) if cell else None
                                    for t, cell in zip(types, rec))))
    return rows
