"""Data model, accuracy risk and mean-difference fairness metrics over an
empirical sample, the ``Dataset``.

Sign convention: a score strictly greater than 0 predicts class 1; a
score of exactly 0 predicts class 0.
"""

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataset, EmptySlice, PairingWarning, ValidationError


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

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def dimension(self):
        return self.features.shape[1]

    def __len__(self):
        return self.n

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


def predictions(scorer, X):
    """Deterministic sign-threshold predictions: score > 0 -> 1, else 0."""
    return (np.asarray(scorer.scores(X)) > 0).astype(np.int64)


@dataclass(frozen=True)
class FairnessSpec:
    """Fairness criterion, fairness loss and tolerance for training.

    When ``fairness_loss`` is omitted the default pairing is used
    (demographic parity with PREDICT_NONPOSITIVE, equal opportunity with
    ZERO_ONE). On the Y=1 slice that equal opportunity measures the two
    losses coincide, so only demographic parity with ZERO_ONE changes
    results; it is accepted but flagged with a ``PairingWarning``.
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
        if not isinstance(self.fairness_loss, FairnessLoss):
            raise ValidationError("fairness_loss must be a FairnessLoss")
        if (self.criterion == Criterion.DEMOGRAPHIC_PARITY
                and self.fairness_loss == FairnessLoss.ZERO_ONE):
            warnings.warn(
                f"non-default pairing of {self.criterion.name} with "
                f"{self.fairness_loss.name}", PairingWarning, stacklevel=3)


def _slice_mask(sensitive, target, a, y):
    mask = np.ones(len(sensitive), dtype=bool)
    if a is not None:
        mask &= sensitive == a
    if y is not None:
        mask &= target == y
    return mask


#: The (A, Y) slices, None for any value, whose mean fairness losses each
#: criterion compares: slice 0 minus slice 1 is its signed violation.
SLICES = {Criterion.DEMOGRAPHIC_PARITY: ((0, None), (1, None)),
          Criterion.EQUAL_OPPORTUNITY: ((0, 1), (1, 1))}


def slice_masks(data, slices):
    """Row masks and row counts of the (A, Y) ``slices`` of a dataset;
    raises ``EmptySlice`` for the first slice that holds no examples."""
    data._require_nonempty()
    masks = [_slice_mask(data.sensitive, data.target, a, y) for a, y in slices]
    counts = [np.count_nonzero(mask) for mask in masks]
    for (a, y), count in zip(slices, counts):
        if not count:
            raise EmptySlice(f"slice sensitive={a}, target={y} is empty")
    return masks, counts


def fairness_losses(loss, pos, target):
    """The rows whose 0-1 fairness loss is 1, given the predictions ``pos``
    (true where the score is positive) and the targets."""
    if loss == FairnessLoss.PREDICT_NONPOSITIVE:
        return ~pos
    if loss == FairnessLoss.ZERO_ONE:
        return pos != target
    raise ValidationError(f"unknown fairness loss {loss!r}")


def slice_means(bad, masks, counts):
    """Mean of the per-row losses ``bad`` over each ``slice_masks`` slice."""
    return [float(np.count_nonzero(bad & mask) / count)
            for mask, count in zip(masks, counts)]


def _scorer_means(data, scorer, loss, slices):
    """Mean fairness loss of ``scorer`` over each (A, Y) slice."""
    masks, counts = slice_masks(data, slices)
    pos = np.asarray(scorer.scores(data.features)) > 0
    return slice_means(fairness_losses(loss, pos, data.target), masks, counts)


def mean_fairness_loss(data, scorer, loss, sensitive=None, target=None):
    """Mean fairness loss over the (A, Y) slice of a dataset; raises
    ``EmptySlice`` when the slice holds no examples."""
    return _scorer_means(data, scorer, loss, [(sensitive, target)])[0]


def _gap(data, scorer, loss, criterion):
    m0, m1 = _scorer_means(data, scorer, loss, SLICES[criterion])
    return abs(m0 - m1)


def ddp(data, scorer, loss=FairnessLoss.PREDICT_NONPOSITIVE):
    """Disparity of demographic parity: |mean loss at A=0 - mean loss at A=1|."""
    return _gap(data, scorer, loss, Criterion.DEMOGRAPHIC_PARITY)


def deo(data, scorer, loss=FairnessLoss.ZERO_ONE):
    """Disparity of equality of opportunity: group loss gap on the Y=1 slice."""
    return _gap(data, scorer, loss, Criterion.EQUAL_OPPORTUNITY)


def disparity(data, scorer, spec):
    """The mean-difference score selected by a FairnessSpec."""
    return _gap(data, scorer, spec.fairness_loss, spec.criterion)


def accuracy_risk(data, scorer):
    """Mean 0-1 loss of the sign-threshold classifier against the target."""
    return mean_fairness_loss(data, scorer, FairnessLoss.ZERO_ONE)
