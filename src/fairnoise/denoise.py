"""Explicit relabeling baseline: denoise the sensitive attribute before
fair training (simplified confidence-rank stand-in for prune-and-reweight
denoisers; comparative benchmark role only, labeled "denoise (simplified)"
in all outputs).
"""

from math import ceil

import numpy as np

from .estimation import ccn_design, fit_posterior

LABEL = "denoise (simplified)"


def denoise_ccn(data, rates):
    """Relabel the most suspect sensitive bits given CCN rates.

    Fits the group-membership posterior, then flips the ceil(rho+ * |A=1|)
    lowest-posterior members of the apparent A=1 group to 0 and the
    ceil(rho- * |A=0|) highest-posterior members of the apparent A=0 group
    to 1. Ranking uses the posterior's raw score (the calibrated
    probability is piecewise constant, which would tie whole blocks), so
    no calibration setting can change the result; score ties break by
    original index order. Returns the relabeled dataset; features and
    targets are untouched.
    """
    idx1 = np.flatnonzero(data.sensitive == 1)
    idx0 = np.flatnonzero(data.sensitive == 0)

    X = ccn_design(data)
    eta = fit_posterior(X, data.sensitive).scores(X)

    k1 = min(len(idx1), ceil(rates.rho_plus * len(idx1)))
    k0 = min(len(idx0), ceil(rates.rho_minus * len(idx0)))

    new_a = data.sensitive.copy()
    order = idx1[np.lexsort((idx1, eta[idx1]))]
    new_a[order[:k1]] = 0
    order = idx0[np.lexsort((idx0, -eta[idx0]))]
    new_a[order[:k0]] = 1
    return data.with_sensitive(new_a)
