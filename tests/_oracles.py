"""Exact population oracles for the tests.

A ``Population`` is a finite distribution: one row per (features,
sensitive, target) cell with its mass, the masses summing to 1. Its
metrics are mass-weighted means of the product's per-example losses, MC
corruption is computed cell by cell, and ``materialize`` realises a
population whose masses are multiples of 1/denominator as a ``Dataset``
on which the product's empirical metrics equal the population's exactly.
"""

import numpy as np

from fairnoise.core import (Dataset, FairnessLoss, _slice_mask,
                            mean_fairness_loss, predictions)
from fairnoise.errors import ValidationError

PNP = FairnessLoss.PREDICT_NONPOSITIVE
ZO = FairnessLoss.ZERO_ONE


class Population:
    def __init__(self, features, sensitive, target, mass):
        self.features = np.asarray(features, dtype=float)
        self.sensitive = np.asarray(sensitive)
        self.target = np.asarray(target)
        self.mass = np.asarray(mass, dtype=float)

    @property
    def dimension(self):
        return self.features.shape[1]

    def base_rate(self):
        return float(self.mass[self.sensitive == 1].sum())

    def target_rate_given_sensitive(self, a):
        mask = self.sensitive == a
        return (float(self.mass[mask & (self.target == 1)].sum())
                / float(self.mass[mask].sum()))

    def cells(self):
        """Iterate (features, sensitive, target, mass) per cell."""
        return zip(self.features, self.sensitive.tolist(),
                   self.target.tolist(), self.mass)


def fairness_loss_values(loss, preds, targets):
    """Per-example fairness-loss values in {0.0, 1.0}."""
    if loss == PNP:
        return 1.0 - preds.astype(float)
    if loss == ZO:
        return (preds != targets).astype(float)
    raise ValidationError(f"unknown fairness loss {loss!r}")


def mean_loss(pop, scorer, loss, sensitive=None, target=None):
    """Mass-weighted mean fairness loss over an (A, Y) slice."""
    mask = _slice_mask(pop.sensitive, pop.target, sensitive, target)
    w = pop.mass[mask]
    values = fairness_loss_values(loss, predictions(scorer, pop.features[mask]),
                                  pop.target[mask])
    return float((values * w).sum() / w.sum())


def ddp(pop, scorer, loss=PNP):
    return abs(mean_loss(pop, scorer, loss, sensitive=0)
               - mean_loss(pop, scorer, loss, sensitive=1))


def deo(pop, scorer, loss=ZO):
    return abs(mean_loss(pop, scorer, loss, sensitive=0, target=1)
               - mean_loss(pop, scorer, loss, sensitive=1, target=1))


def accuracy_risk(pop, scorer):
    return mean_loss(pop, scorer, ZO)


def condition(pop, sensitive=None, target=None):
    """Renormalised sub-population of one (A, Y) slice."""
    mask = _slice_mask(pop.sensitive, pop.target, sensitive, target)
    return Population(pop.features[mask], pop.sensitive[mask],
                      pop.target[mask], pop.mass[mask] / pop.mass[mask].sum())


def _merge(cells):
    """Population of the given cells, coinciding ones merged by summing
    their masses in input order; cells keep first-seen order."""
    merged = {}
    for feats, a, y, mass in cells:
        key = (tuple(feats), a, y)
        merged[key] = merged.get(key, 0.0) + mass
    return Population([k[0] for k in merged], [k[1] for k in merged],
                      [k[2] for k in merged], list(merged.values()))


def mix(pop_a, pop_b, weight_a):
    """The mixture weight_a * pop_a + (1 - weight_a) * pop_b."""
    return _merge((x, a, y, w * m) for pop, w in ((pop_a, weight_a),
                                                  (pop_b, 1.0 - weight_a))
                  for x, a, y, m in pop.cells())


def corrupt(pop, noise, target_base_rate):
    """Exact MC corruption: the corrupted A=1 conditional is (1-alpha) *
    clean A=1 + alpha * clean A=0, the corrupted A=0 conditional is beta *
    clean A=1 + (1-beta) * clean A=0, and P[A_corr = 1] is
    ``target_base_rate`` (the MC model leaves it free)."""
    cond1 = np.where(pop.sensitive == 1, pop.mass / pop.base_rate(), 0.0)
    cond0 = np.where(pop.sensitive == 0,
                     pop.mass / float(pop.mass[pop.sensitive == 0].sum()), 0.0)
    corr1 = (1.0 - noise.alpha) * cond1 + noise.alpha * cond0
    corr0 = noise.beta * cond1 + (1.0 - noise.beta) * cond0
    out = _merge((x, a_corr, y, group_mass * buckets[i])
                 for buckets, a_corr, group_mass in ((corr1, 1, target_base_rate),
                                                     (corr0, 0, 1.0 - target_base_rate))
                 for i, (x, _, y, _) in enumerate(pop.cells()) if buckets[i] != 0.0)
    return Population(out.features, out.sensitive, out.target,
                      out.mass / out.mass.sum())


def materialize(pop, denominator):
    """Dataset repeating each cell mass * denominator times."""
    counts = pop.mass * denominator
    rounded = np.rint(counts)
    if np.abs(counts - rounded).max() > 1e-6:
        raise ValueError("masses are not integer multiples of 1/denominator")
    counts = rounded.astype(int)
    return Dataset(np.repeat(pop.features, counts, axis=0),
                   np.repeat(pop.sensitive, counts), np.repeat(pop.target, counts))


def reduction_constraint_value(data, scorer, y_cond=None):
    """Largest deviation of a group's positive-prediction rate from the
    overall rate, the constraint of reduction-style fair classifiers; with
    ``y_cond=1`` the rates are taken on the Y=1 slice (the EO form)."""
    overall = 1.0 - mean_fairness_loss(data, scorer, PNP, target=y_cond)
    return max(abs(1.0 - mean_fairness_loss(data, scorer, PNP, sensitive=a,
                                            target=y_cond) - overall)
               for a in (0, 1))
