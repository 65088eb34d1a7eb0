"""Noise-rate estimation from corrupted data alone.

Under CCN flips of the sensitive bit the observed group-membership
posterior satisfies eta_corr(x) = rho- + (1 - rho+ - rho-) eta(x), so on
data containing anchor points (instances whose clean posterior is 0 or 1)
the extremes of a calibrated estimate of eta_corr identify the rates:
rho- at the bottom, 1 - rho+ at the top; robust low/high quantiles stand
in for the strict extrema. One anchor routine serves both estimates: the
CCN rates on all rows and, from the rates on the Y=1 rows, the EO weights.

The posterior is a regularized logistic scorer whose outputs are
recalibrated by equal-count binning of the training scores, which keeps
the estimate inside the empirically observed rate range.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._logit import fit_logistic
from .errors import (DegenerateEstimateWarning, EmptySlice,
                     NonConvergenceWarning, NumericalError, ValidationError)
from .noise import CCNNoise, EOConditionalNoise, ccn_to_mc_from_corrupted

_CLAMP = 1e-6
_MAX_RATE_SUM = 1.0 - 1e-3
# The posterior fit (ridge 1/n) stops at this gradient norm.
_GRAD_TOL = 1e-6
# Calibration bins need enough mass that their empirical rates
# concentrate; with fewer examples per bin the extremes are noise.
_MIN_BIN_COUNT = 1000
_N_BINS = 20  # cap on the equal-count calibration bins
# The anchor quantiles (q, 1 - q) of the calibrated posterior stand in for
# its strict min/max, for outlier robustness.
_ANCHOR_QUANTILE = 0.005


@dataclass(frozen=True)
class PosteriorModel:
    """Calibrated estimate of P[A_corr = 1 | row of the fitted design].

    ``scores`` and ``predict_proba`` take rows with the fitted columns;
    ``predict_proba`` returns the bin-calibrated posterior, clamped to
    [1e-6, 1 - 1e-6]. ``iterations``/``converged`` record the logistic fit.
    """

    coef: np.ndarray
    intercept: float
    bin_upper_scores: np.ndarray
    bin_rates: np.ndarray
    iterations: int
    converged: bool

    def scores(self, X):
        """Raw (uncalibrated) posterior scores; monotone in the posterior."""
        return np.asarray(X, dtype=float) @ self.coef + self.intercept

    def predict_proba(self, X):
        s = self.scores(X)
        idx = np.searchsorted(self.bin_upper_scores[:-1], s, side="left")
        return np.clip(self.bin_rates[idx], _CLAMP, 1.0 - _CLAMP)


def ccn_design(data):
    """The CCN-rate posterior's design: the features plus the target column."""
    return np.column_stack([data.features, data.target.astype(float)])


def fit_posterior(X, sensitive):
    """Fit the calibrated posterior of the (possibly corrupted) sensitive
    bit on the design ``X``, one row per entry of ``sensitive``:
    ``ccn_design(data)`` for the CCN rates, the Y=1 slice's features for
    the EO rates. ``X`` must be finite and ``sensitive`` binary (else a
    ``ValidationError``), with both groups present (else an
    ``EmptySlice``). Deterministic given the row order. The scores
    are calibrated by up to 20 equal-count bins, each of 1,000 examples or
    more, two bins at least.

    A fit that stops with the gradient norm above 1e-6 (where no step
    lowers the loss, or at ``fit_logistic``'s iteration cap) emits a
    ``NonConvergenceWarning`` (the model is still returned); one whose
    gradient overflows raises ``NumericalError``.
    """
    X = np.asarray(X, dtype=float)
    t = np.asarray(sensitive, dtype=float)
    if X.ndim != 2 or t.ndim != 1 or len(X) != len(t):
        raise ValidationError("X must be 2-d with one row per sensitive value")
    if not np.isin(t, (0.0, 1.0)).all():
        raise ValidationError("sensitive entries must be 0 or 1")
    if not np.isfinite(X).all():
        raise ValidationError("X must be finite")
    n = len(t)
    if n == 0:
        raise EmptySlice("cannot fit a posterior on empty data")
    if not 0 < t.sum() < n:
        raise EmptySlice("both apparent groups must be present")
    coef, b, iters, gnorm = fit_logistic(
        X, t, np.full(n, 1.0 / n), reg=1.0 / n, tol=_GRAD_TOL)
    if not math.isfinite(gnorm):
        raise NumericalError(
            f"the posterior fit overflowed (gradient norm {gnorm}); "
            "the features are too large to fit, rescale them")
    converged = gnorm <= _GRAD_TOL
    if not converged:
        warnings.warn(
            f"posterior fit stopped after {iters} iterations with gradient "
            f"norm {gnorm:.3g}", NonConvergenceWarning, stacklevel=2)

    scores = X @ coef + b
    order = np.argsort(scores, kind="stable")
    # two bins minimum, so small samples stay directional
    n_bins = min(n, min(_N_BINS, max(2, n // _MIN_BIN_COUNT)))
    uppers, sums, counts = [], [], []
    for chunk in np.array_split(order, n_bins):
        top = float(scores[chunk].max())
        if uppers and top == uppers[-1]:
            # score ties must not straddle a bin boundary
            sums[-1] += float(t[chunk].sum())
            counts[-1] += len(chunk)
        else:
            uppers.append(top)
            sums.append(float(t[chunk].sum()))
            counts.append(len(chunk))
    rates = np.array(sums) / np.array(counts)
    return PosteriorModel(coef, float(b), np.array(uppers), rates, iters,
                          converged)


def _anchor_rates(X, sensitive):
    """CCN rates from the calibrated posterior of ``sensitive`` fitted on
    the design ``X``: rho- and 1 - rho+ at its anchor quantiles."""
    eta = fit_posterior(X, sensitive).predict_proba(X)
    lo = float(np.quantile(eta, _ANCHOR_QUANTILE))
    hi = float(np.quantile(eta, 1.0 - _ANCHOR_QUANTILE))
    rho_minus = max(lo, 0.0)
    rho_plus = max(1.0 - hi, 0.0)
    if rho_plus + rho_minus >= _MAX_RATE_SUM:
        shrink = _MAX_RATE_SUM / (rho_plus + rho_minus)
        warnings.warn(
            "estimated rates were clamped to keep rho+ + rho- below 1 "
            f"(shrunk by {shrink:.4f}); estimates are unreliable",
            DegenerateEstimateWarning, stacklevel=3)
        rho_plus *= shrink
        rho_minus *= shrink
    return CCNNoise(rho_plus, rho_minus)


def estimate_ccn_rates(data):
    """Anchor-point estimate of the CCN flip rates from corrupted data."""
    return _anchor_rates(ccn_design(data), data.sensitive)


def _positives(data):
    """The mask of the Y=1 rows, which equal opportunity conditions on."""
    mask = data.target == 1
    if not mask.any():
        raise EmptySlice("Y=1 slice is empty")
    return mask


def _ccn_to_eo(noise, data):
    """EO-conditional weights of CCN rates: CCN flips are independent of Y,
    so the Y=1 slice is CCN with the same rates, and its MC weights through
    the slice's observed base rate are exactly (alpha', beta')."""
    mc, _ = ccn_to_mc_from_corrupted(
        noise, float(data.sensitive[_positives(data)].mean()))
    return EOConditionalNoise(mc.alpha, mc.beta)


def estimate_eo_rates(data):
    """Anchor-point estimate of the EO-conditional mixture weights: the
    CCN rates estimated on the Y=1 slice, converted by ``_ccn_to_eo``."""
    y1 = _positives(data)
    return _ccn_to_eo(_anchor_rates(data.features[y1], data.sensitive[y1]),
                      data)
