"""Data model, accuracy risk and mean-difference fairness metrics.

Two data substrates are supported: ``Dataset`` (an empirical sample) and
``DiscretePopulation`` (an exact finite distribution used as the
brute-force oracle). Every metric accepts either.

Sign convention: a score strictly greater than 0 predicts class 1; a
score of exactly 0 predicts class 0.
"""

import enum
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyDataset, EmptySlice, PairingWarning, ValidationError

_COMPENSATED_THRESHOLD = 100_000


class Criterion(enum.Enum):
    DEMOGRAPHIC_PARITY = "dp"
    EQUAL_OPPORTUNITY = "eo"


class FairnessLoss(enum.Enum):
    #: 1[sign(s) != 1]: penalises non-positive predictions.
    PREDICT_NONPOSITIVE = "predict_nonpositive"
    #: 1[sign(s) != y]: the 0-1 loss against the target.
    ZERO_ONE = "zero_one"


DEFAULT_LOSS = {
    Criterion.DEMOGRAPHIC_PARITY: FairnessLoss.PREDICT_NONPOSITIVE,
    Criterion.EQUAL_OPPORTUNITY: FairnessLoss.ZERO_ONE,
}


@dataclass(frozen=True)
class LabeledExample:
    """One (features, sensitive bit, target bit) triplet."""

    features: tuple
    sensitive: int
    target: int

    def __post_init__(self):
        if self.sensitive not in (0, 1):
            raise ValidationError(f"sensitive must be 0 or 1, got {self.sensitive}")
        if self.target not in (0, 1):
            raise ValidationError(f"target must be 0 or 1, got {self.target}")


def _binary_array(values, name):
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional")
    if not np.isin(arr, (0, 1)).all():
        raise ValidationError(f"{name} entries must be 0 or 1")
    out = arr.astype(np.int64)
    out.setflags(write=False)
    return out


class Dataset:
    """Immutable empirical sample of (features, sensitive, target) rows."""

    __slots__ = ("features", "sensitive", "target")

    def __init__(self, features, sensitive, target):
        X = np.array(features, dtype=float)
        if X.ndim != 2:
            raise ValidationError("features must be a 2-d array (n, d)")
        if not np.isfinite(X).all():
            raise ValidationError("features must be finite")
        a = _binary_array(sensitive, "sensitive")
        y = _binary_array(target, "target")
        if len(a) != len(X) or len(y) != len(X):
            raise ValidationError("features, sensitive and target lengths differ")
        X.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "sensitive", a)
        object.__setattr__(self, "target", y)

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")

    def __reduce__(self):
        # rebuild through __init__: the default protocol sets the slots
        # through __setattr__, which refuses
        return Dataset, (self.features, self.sensitive, self.target)

    @classmethod
    def from_examples(cls, examples):
        examples = list(examples)
        if not examples:
            raise EmptyDataset("cannot build a Dataset from zero examples")
        d = len(examples[0].features)
        if any(len(e.features) != d for e in examples):
            raise ValidationError("all examples must share one feature dimension")
        return cls(
            np.array([e.features for e in examples], dtype=float),
            [e.sensitive for e in examples],
            [e.target for e in examples],
        )

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def dimension(self):
        return self.features.shape[1]

    def __len__(self):
        return self.n

    def __iter__(self):
        for i in range(self.n):
            yield LabeledExample(tuple(self.features[i]),
                                 int(self.sensitive[i]), int(self.target[i]))

    def base_rate(self):
        """Empirical P[A=1]."""
        self._require_nonempty()
        return float(self.sensitive.mean())

    def target_rate_given_sensitive(self, a):
        """Empirical P[Y=1 | A=a]."""
        mask = self.sensitive == a
        if not mask.any():
            raise EmptySlice(f"no examples with sensitive={a}")
        return float(self.target[mask].mean())

    def with_sensitive(self, new_sensitive):
        """Copy of the dataset with the sensitive column replaced."""
        return Dataset(self.features, new_sensitive, self.target)

    def subset(self, index):
        return Dataset(self.features[index], self.sensitive[index], self.target[index])

    def _require_nonempty(self):
        if self.n == 0:
            raise EmptyDataset("operation requires a nonempty dataset")


@dataclass(frozen=True)
class DiscretePopulation:
    """Exact finite distribution over (features, sensitive, target) cells.

    Cell masses must be nonnegative and sum to 1 within 1e-12. Operations
    that condition on a slice require that slice to carry positive mass.
    """

    features: np.ndarray
    sensitive: np.ndarray
    target: np.ndarray
    mass: np.ndarray

    def __init__(self, features, sensitive, target, mass):
        X = np.array(features, dtype=float)
        if X.ndim != 2:
            raise ValidationError("cell features must be a 2-d array")
        a = _binary_array(sensitive, "sensitive")
        y = _binary_array(target, "target")
        m = np.array(mass, dtype=float)
        if m.ndim != 1 or len(m) != len(X) or len(a) != len(X) or len(y) != len(X):
            raise ValidationError("cell arrays must have matching lengths")
        if (m < 0).any():
            raise ValidationError("cell masses must be nonnegative")
        if len(m) == 0 or abs(m.sum() - 1.0) > 1e-12:
            raise ValidationError("cell masses must sum to 1 within 1e-12")
        X.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "sensitive", a)
        object.__setattr__(self, "target", y)
        object.__setattr__(self, "mass", m)

    @classmethod
    def from_cells(cls, cells):
        """Build from (features, sensitive, target, mass) tuples."""
        cells = list(cells)
        return cls(
            np.array([c[0] for c in cells], dtype=float),
            [c[1] for c in cells],
            [c[2] for c in cells],
            [c[3] for c in cells],
        )

    @property
    def n_cells(self):
        return len(self.mass)

    @property
    def dimension(self):
        return self.features.shape[1]

    def base_rate(self):
        return float(self.mass[self.sensitive == 1].sum())

    def target_rate_given_sensitive(self, a):
        mask = self.sensitive == a
        denom = float(self.mass[mask].sum())
        if denom <= 0.0:
            raise EmptySlice(f"no mass with sensitive={a}")
        return float(self.mass[mask & (self.target == 1)].sum()) / denom


def condition_population(pop, sensitive=None, target=None):
    """Renormalised sub-population matching the given slice."""
    mask = _slice_mask(pop.sensitive, pop.target, sensitive, target)
    total = float(pop.mass[mask].sum())
    if total <= 0.0:
        raise EmptySlice(f"slice sensitive={sensitive}, target={target} has no mass")
    return DiscretePopulation(pop.features[mask], pop.sensitive[mask],
                              pop.target[mask], pop.mass[mask] / total)


class LinearScorer:
    """Score function x -> x . coef + intercept."""

    __slots__ = ("coef", "intercept")

    def __init__(self, coef, intercept=0.0):
        c = np.array(coef, dtype=float)
        if c.ndim != 1:
            raise ValidationError("coef must be a vector")
        c.setflags(write=False)
        object.__setattr__(self, "coef", c)
        object.__setattr__(self, "intercept", float(intercept))

    def __setattr__(self, name, value):
        raise AttributeError("LinearScorer is immutable")

    def scores(self, X):
        return np.asarray(X, dtype=float) @ self.coef + self.intercept


class ConstantScorer:
    """Scores every instance with the same value."""

    def __init__(self, value):
        self.value = float(value)

    def scores(self, X):
        return np.full(np.asarray(X).shape[0], self.value)


def predictions(scorer, X):
    """Deterministic sign-threshold predictions: score > 0 -> 1, else 0."""
    return (np.asarray(scorer.scores(X)) > 0).astype(np.int64)


@dataclass(frozen=True)
class FairnessSpec:
    """Fairness criterion, fairness loss and tolerance for training.

    When ``fairness_loss`` is omitted the default pairing is used
    (demographic parity with PREDICT_NONPOSITIVE, equal opportunity with
    ZERO_ONE). Other pairings are accepted but flagged with a
    ``PairingWarning``.
    """

    criterion: Criterion
    fairness_loss: FairnessLoss = None
    tolerance: float = 0.0

    def __post_init__(self):
        if not isinstance(self.criterion, Criterion):
            raise ValidationError("criterion must be a Criterion")
        if not self.tolerance >= 0:
            raise ValidationError("tolerance must be >= 0")
        if self.fairness_loss is None:
            object.__setattr__(self, "fairness_loss", DEFAULT_LOSS[self.criterion])
        elif self.fairness_loss != DEFAULT_LOSS[self.criterion]:
            warnings.warn(
                f"non-default pairing of {self.criterion.name} with "
                f"{self.fairness_loss.name}", PairingWarning, stacklevel=2)


def fairness_loss_values(loss, preds, targets):
    """Per-example fairness-loss values in {0.0, 1.0}."""
    if loss == FairnessLoss.PREDICT_NONPOSITIVE:
        return 1.0 - preds.astype(float)
    if loss == FairnessLoss.ZERO_ONE:
        return (preds != targets).astype(float)
    raise ValidationError(f"unknown fairness loss {loss!r}")


def _slice_mask(sensitive, target, a, y):
    mask = np.ones(len(sensitive), dtype=bool)
    if a is not None:
        mask &= sensitive == a
    if y is not None:
        mask &= target == y
    return mask


def _mean(values, weights=None):
    # Unweighted values are 0/1 losses, whose sum numpy forms exactly. For
    # weighted (population) slices, compensated summation keeps large-slice
    # means exact at the 1e-12 tolerances the population oracles are held to.
    values = np.asarray(values, dtype=float)
    if weights is None:
        return float(values.mean())
    weights = np.asarray(weights, dtype=float)
    if len(values) > _COMPENSATED_THRESHOLD:
        return math.fsum(values * weights) / math.fsum(weights)
    return float((values * weights).sum() / weights.sum())


def mean_fairness_loss(data, scorer, loss, sensitive=None, target=None):
    """Mean fairness loss over the (A, Y) slice of a dataset or population.

    Raises ``EmptySlice`` when the slice holds no examples (or no mass).
    """
    if isinstance(data, Dataset):
        data._require_nonempty()
        mask = _slice_mask(data.sensitive, data.target, sensitive, target)
        if not mask.any():
            raise EmptySlice(f"slice sensitive={sensitive}, target={target} is empty")
        preds = predictions(scorer, data.features[mask])
        return _mean(fairness_loss_values(loss, preds, data.target[mask]))
    mask = _slice_mask(data.sensitive, data.target, sensitive, target)
    w = data.mass[mask]
    if float(w.sum()) <= 0.0:
        raise EmptySlice(f"slice sensitive={sensitive}, target={target} has no mass")
    preds = predictions(scorer, data.features[mask])
    return _mean(fairness_loss_values(loss, preds, data.target[mask]), w)


def ddp(data, scorer, loss=FairnessLoss.PREDICT_NONPOSITIVE):
    """Disparity of demographic parity: |mean loss at A=0 - mean loss at A=1|."""
    return abs(mean_fairness_loss(data, scorer, loss, sensitive=0)
               - mean_fairness_loss(data, scorer, loss, sensitive=1))


def deo(data, scorer, loss=FairnessLoss.ZERO_ONE):
    """Disparity of equality of opportunity: group loss gap on the Y=1 slice."""
    return abs(mean_fairness_loss(data, scorer, loss, sensitive=0, target=1)
               - mean_fairness_loss(data, scorer, loss, sensitive=1, target=1))


def disparity(data, scorer, spec):
    """The mean-difference score selected by a FairnessSpec."""
    if spec.criterion == Criterion.DEMOGRAPHIC_PARITY:
        return ddp(data, scorer, spec.fairness_loss)
    return deo(data, scorer, spec.fairness_loss)


def accuracy_risk(data, scorer):
    """Mean 0-1 loss of the sign-threshold classifier against the target."""
    if isinstance(data, Dataset):
        data._require_nonempty()
        preds = predictions(scorer, data.features)
        return _mean((preds != data.target).astype(float))
    preds = predictions(scorer, data.features)
    return _mean((preds != data.target).astype(float), data.mass)
