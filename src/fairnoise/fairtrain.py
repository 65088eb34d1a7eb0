"""Fairness-constrained training and the noise-aware wrapper.

The constrained problem min risk s.t. |mean-difference| <= tau is solved
through its Lagrangian. The absolute value is split into two one-sided
constraints with duals (lambda+, lambda-) bounded by B; a best response
depends only on the net dual lambda+ - lambda-. It folds the dual-weighted
fairness loss into per-example weights and soft targets of one
regularized logistic fit, so it stays convex and is solved exactly; its
gradient sees the smooth (sigmoid) group rates while the dual search and
feasibility use exact 0-1 counts.

A bisection presolve on the net dual finds the constraint boundary, at an
internal tolerance shrunk by a small margin that absorbs the
boundary-riding generalization gap: a doubling search brackets it in
[hi / 2, hi] (or [0, hi] when its first probe is feasible), starting at
the largest power of two at which no row's fairness weight nu / n_k
exceeds its accuracy weight 1 / n and capped at the dual bound B, which
it probes (an infeasible fit at B ends the presolve there); then
halvings narrow the bracket to a width of hi * 2**-18 (by default). Once
the fits at the bracket ends predict differently on one counted row
only, the violation jumps where that row's score crosses zero, and a
safeguarded secant (after Dowell and Jarratt, BIT 1971) places two steps
that width apart around the interpolated crossing; when they do not
close the bracket, the halving resumes. Each step starts from the fits
at the bracket ends interpolated in the dual, so a deep step converges
at its first gradient. A default training returns the one best response
at the returned dual, started from the presolve's fit there. Each
presolve step is an exact fit that depends only on the data, criterion,
loss, its dual and its warm start, which the path of earlier
accept/reject decisions fixes; so trainings that differ only in
tolerance walk one bisection tree until their decisions split, and given
a caller-owned memo they fit each shared step once and reuse it bit for
bit.

With ``outer_iterations > 1`` the duals are then updated by capped
multiplicative exponentiated gradient on the signed 0-1 violation minus
tau and the iterates are averaged, as in Agarwal et al. (ICML 2018);
with an exact convex best response that loop moves the net dual very
little, so it is off by default.
"""

import math
import sys
import warnings
from collections import namedtuple
from dataclasses import astuple, dataclass

import numpy as np

from ._logit import Workspace, fit_logistic
from .core import (SLICES, Criterion, LinearScorer, fairness_losses,
                   slice_masks, slice_means)
from .errors import InfeasibleWarning, NumericalError, ValidationError
from .estimation import _ccn_to_eo, estimate_ccn_rates, estimate_eo_rates
from .noise import (CCNNoise, EOConditionalNoise, MCNoise,
                    ccn_to_mc_from_corrupted, mc_to_eo, scale_tolerance)

MODEL_MAGIC = "fairnoise-model 2"
_EG_STEP = 0.3  # exponentiated-gradient step, decayed as 1/sqrt(t)
_DUAL_BOUND = 100.0  # B, the cap on each dual
_REGULARIZATION = 3e-3  # ridge of every best-response fit
# A run is feasible when some iterate's violation is within tau plus this.
_FEASIBILITY_SLACK = 0.01
_BOUNDARY_MARGIN = 0.01  # the internal tolerance is tau minus this
_MAX_LEVELS = 1022 - 63 - 6  # the most presolve_iterations, see TrainConfig


@dataclass(frozen=True)
class TrainConfig:
    """Iteration counts of the reduction; its dual step and bound, ridge
    and margins are module constants.

    ``outer_iterations`` counts the best responses after the presolve: 1
    (the default) fits the presolve's dual alone, more runs the
    exponentiated-gradient dual loop for that many steps.

    The base learner is fixed to regularized logistic regression, solved
    to a gradient norm of 1e-8 by damped Newton, so every best response is
    exact. ``base_iterations`` (each fit after the presolve) and
    ``presolve_base_iterations`` (each presolve step; four times that for
    the unconstrained start) only cap the Newton iterations of one fit; a
    cold one needs under ten, an interpolation-started presolve step one
    to three. ``presolve_iterations`` sets a width rule: the returned dual
    is within ``hi * 2**-presolve_iterations`` of the boundary, where
    ``hi`` is the doubling bracket's top: the first of nu_1, 2 nu_1, 4
    nu_1, ..., capped at the dual bound, whose fit is feasible (nu_1 is
    the largest power of two at most ``min(n0, n1) / n`` for slices of n0
    and n1 of the n rows). At most that many halvings plus the secant's
    two steps follow; an infeasible fit at the bound is returned before
    any. ``presolve_iterations`` is at most 953: below 2**63 rows, ``hi >=
    nu_1 >= 2**-63``, so the secant's grid (that width / 64) stays normal.
    Training is deterministic.
    """

    outer_iterations: int = 1
    base_iterations: int = 40
    presolve_iterations: int = 18
    presolve_base_iterations: int = 120

    def __post_init__(self):
        if min(self.outer_iterations, self.base_iterations,
               self.presolve_base_iterations) < 1:
            raise ValidationError("iteration counts must be >= 1")
        if self.outer_iterations > sys.maxsize:  # no array is longer
            raise ValidationError(f"outer_iterations must be <= {sys.maxsize}")
        if not 0 <= self.presolve_iterations <= _MAX_LEVELS:
            raise ValidationError("presolve_iterations must be >= 0 and <= "
                                  f"{_MAX_LEVELS} (0: none)")


@dataclass
class TrainingTrace:
    """One training run: the enforced tolerance, each best response's
    signed training violation after the presolve (one entry by default,
    ``outer_iterations`` in all) and whether any was feasible; the last
    three fields are set by ``train_fair_noisy``."""

    tau: float
    tau_internal: float
    violations: np.ndarray
    feasible: bool
    tau_original: float = None
    tolerance_scale: float = None
    noise_used: tuple = None


class FairClassifier(LinearScorer):
    """The trained linear scorer (``core.predictions`` thresholds it) and
    the diagnostics of the training run that produced it."""

    __slots__ = ("trace",)

    def __init__(self, coef, intercept, trace=None):
        super().__init__(coef, intercept)
        object.__setattr__(self, "trace", trace)

    @property
    def dimension(self):
        return len(self.coef)


_CELL_Y = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])  # y of cells 0..5


class _Reduction:
    """Best-response machinery shared by the presolve and the dual loop,
    for the constraint of ``core``: the criterion's ``SLICES`` and the
    loss's ``fairness_losses``.

    Every row falls in one of six cells, coded ``2 * class + y`` with class
    0 outside both slices, 1 in slice 0 and 2 in slice 1. A best response
    weights and targets rows by cell alone, so each fit builds a 6-entry
    weight and target table and gathers it through the row code into
    the training's one ``Workspace``, which every fit reuses.
    """

    def __init__(self, data, criterion, loss, memo=None):
        self.masks, self.counts = slice_masks(data, SLICES[criterion])
        self.X, self.loss = data.features, loss
        self.positive = data.target == 1
        self.n = len(data)
        self.coef = np.zeros(data.dimension)
        self.intercept = 0.0
        cls = self.masks[0] + 2 * self.masks[1]  # the slices are disjoint
        self.code = 2 * cls + data.target
        self.counted = cls > 0  # the rows whose losses the violation counts
        # per cell, whether the loss counts a positive prediction
        self.loses_pos = fairness_losses(loss, np.ones(6, bool), _CELL_Y)
        self.ws = Workspace(self.n)
        self.memo = {} if memo is None else memo
        self.key = (data, criterion, loss)

    def best_response(self, nu, iters):
        # Fairness cost +nu/n0 on slice-0 losses, -nu/n1 on slice-1 losses,
        # folded with the 1/n accuracy term into weights and soft targets,
        # one entry per (class, y) cell.
        c0, c1 = nu / self.counts[0], -nu / self.counts[1]
        c = np.array([0.0, 0.0, c0, c0, c1, c1])
        y = _CELL_Y
        push = np.abs(c)
        # a positive cost pushes toward the prediction the loss spares
        push_label = (c > 0) != self.loses_pos
        u = 1.0 / self.n + push
        t = (y / self.n + push * push_label) / u
        ws = self.ws
        # the codes are 0..5, so clipping is a no-op; the default mode
        # would buffer a length-n copy
        np.take(t, self.code, out=ws.targets, mode="clip")
        np.take(u, self.code, out=ws.weights, mode="clip")
        self.coef, self.intercept, _, gnorm = fit_logistic(
            self.X, ws.targets, ws.weights,
            reg=_REGULARIZATION, max_iter=iters,
            coef0=self.coef, intercept0=self.intercept, workspace=ws)
        if not math.isfinite(gnorm):
            # the features overflow the fit: the result is no best response
            raise NumericalError(
                f"a best-response fit overflowed (gradient norm {gnorm}); "
                "the features are too large to fit, rescale them")
        return self.coef.copy(), self.intercept

    def presolve_step(self, nu, iters):
        """Best response at ``nu`` warm-started from the current fit, and
        its violation; ``pos`` is left holding its training predictions. A
        fit depends only on the data, criterion and loss (the root key),
        ``nu``, ``iters`` and the warm start, which the chain of earlier
        steps fixes; so the memo keys each step by ``(parent key, nu,
        iters)`` and a hit restores the fit in place of running it. A
        failed fit raises before it is stored."""
        self.key = (self.key, nu, iters)
        fit = self.memo.get(self.key)
        if fit is None:
            self.best_response(nu, iters)
            self.pos = self.ws.score > 0
            fit = self.memo[self.key] = (self.coef, self.intercept,
                                         self.violation(self.pos))
        else:
            self.coef, self.intercept = fit[0], fit[1]
            self.pos = self.X @ self.coef + self.intercept > 0
        return fit[2]

    def violation(self, pos):
        """Signed 0-1 violation of the training predictions ``pos`` (true
        where the score is positive). Right after a best response,
        ``ws.score`` is bitwise ``X @ coef + intercept``, so the trainer
        predicts from it."""
        m0, m1 = slice_means(fairness_losses(self.loss, pos, self.positive),
                             self.masks, self.counts)
        return m0 - m1


# A presolve fit at a bracket end: its dual magnitude, its fit and its
# training predictions.
_End = namedtuple("_End", "nu coef intercept pos")


def _warm_start(nu, ends):
    """The fit at ``nu`` interpolated in the dual through the fits of
    ``ends``, at distinct duals: the chord through two, the quadratic
    through three."""
    coef = intercept = 0.0
    for a in ends:
        w = math.prod((nu - b.nu) / (a.nu - b.nu) for b in ends if b is not a)
        coef, intercept = coef + w * a.coef, intercept + w * a.intercept
    return coef, intercept


def _secant_probes(red, lo, hi, width):
    """The duals of a secant attempt, or None until the fits at the
    bracket ends ``lo`` and ``hi`` predict differently on exactly one row
    the violation counts. Then the violation jumps where that row's score
    crosses zero: interpolated linearly in the dual between the ends and
    rounded to a multiple of ``width / 64``, that crossing ``nu_s`` gives
    the probes ``nu_s + width / 2`` (feasible if the estimate holds) and
    ``nu_s - width / 2``. The rounding keeps the probes, their distance
    and every later midpoint exact in floating point."""
    flips = lo.pos != hi.pos
    flips &= red.counted
    if np.count_nonzero(flips) != 1:
        return None
    x = red.X[np.argmax(flips)]
    s_lo, s_hi = (float(x @ end.coef) + end.intercept for end in (lo, hi))
    if s_lo == s_hi:  # recomputed, the scores agree: no crossing to place
        return []
    grid = width / 64.0
    nu_s = round((lo.nu + (hi.nu - lo.nu) * s_lo / (s_lo - s_hi)) / grid)
    return [(nu_s + 32) * grid, (nu_s - 32) * grid]


def _presolve(red, tau_int, config):
    """Bisection on the net dual pressure to the constraint boundary.

    The doubling starts at the largest power of two at which no counted
    row's fairness weight ``nu / n_k`` exceeds its accuracy weight ``1 /
    n``, so at most 0.5, and each step starts from the previous fit; each
    infeasible probe becomes the bracket's lower end. Both depend only on
    the data and the criterion, so trainings at other tolerances share the
    doubling, and powers of two keep every later midpoint exact. The
    doubling ends at the dual bound, which it probes; an infeasible fit
    there is returned. Then one midpoint per level narrows the bracket
    toward ``width = hi * 2**-presolve_iterations`` until one secant
    attempt can start (``_secant_probes``); its two steps usually close the
    bracket, else the halving resumes, so at most
    ``presolve_iterations + 2`` steps follow the doubling. A step starts
    from the fit interpolated at its dual through the bracket ends and the
    end replaced last (the chord until an end has been replaced),
    O(width^3) from its answer because the fit is smooth in the dual.
    Every returned dual was fitted, and its fit is left as the warm start
    of the final best response, which it ends at its first gradient.
    """
    iters = config.presolve_base_iterations
    v0 = red.presolve_step(0.0, 4 * iters)
    if abs(v0) <= tau_int:
        return 0.0
    lo = _End(0.0, red.coef, red.intercept, red.pos)
    sgn = 1.0 if v0 > 0 else -1.0
    top = 2.0 ** math.floor(math.log2(min(red.counts) / red.n))
    while sgn * red.presolve_step(sgn * top, iters) > tau_int:
        if top == _DUAL_BOUND:
            return sgn * top
        lo = _End(top, red.coef, red.intercept, red.pos)
        top = min(2.0 * top, _DUAL_BOUND)
    hi = _End(top, red.coef, red.intercept, red.pos)
    width = hi.nu * 2.0 ** -config.presolve_iterations
    old = probes = None  # the end replaced last; the secant's duals
    levels = 0
    while hi.nu - lo.nu > width:
        if probes is None:
            probes = _secant_probes(red, lo, hi, width)
        if probes:
            nu = probes.pop(0)
        elif levels < config.presolve_iterations:
            nu = 0.5 * (lo.nu + hi.nu)
            levels += 1
        else:
            break
        if not lo.nu < nu < hi.nu:
            continue  # a probe outside the bracket, or a rounded midpoint
        red.coef, red.intercept = _warm_start(
            nu, (lo, hi) if old is None else (lo, hi, old))
        v = red.presolve_step(sgn * nu, iters)
        end = _End(nu, red.coef, red.intercept, red.pos)
        if sgn * v <= tau_int:  # the replaced end keeps no predictions
            old, hi = hi._replace(pos=None), end
        else:
            old, lo = lo._replace(pos=None), end
    red.coef, red.intercept = hi.coef, hi.intercept
    return sgn * hi.nu


def _train(data, criterion, loss, tau, config, memo=None):
    tau_int = max(0.0, tau - _BOUNDARY_MARGIN)
    red = _Reduction(data, criterion, loss, memo)

    nu0 = _presolve(red, tau_int, config)
    lam_p = min(_DUAL_BOUND, max(nu0, 1e-12))
    lam_m = min(_DUAL_BOUND, max(-nu0, 1e-12))

    T = config.outer_iterations
    coefs = np.empty((T, data.dimension))
    intercepts = np.empty(T)
    viols = np.empty(T)
    for t in range(T):
        coefs[t], intercepts[t] = red.best_response(lam_p - lam_m,
                                                    config.base_iterations)
        v = viols[t] = red.violation(red.ws.score > 0)
        eta = _EG_STEP / np.sqrt(t + 1.0)
        lam_p = min(_DUAL_BOUND, lam_p * np.exp(eta * (v - tau_int)))
        lam_m = min(_DUAL_BOUND, lam_m * np.exp(eta * (-v - tau_int)))

    feasible = bool((np.abs(viols) <= tau + _FEASIBILITY_SLACK).any())
    trace = TrainingTrace(tau=tau, tau_internal=tau_int, violations=viols,
                          feasible=feasible)
    if not feasible:
        bound = tau + _FEASIBILITY_SLACK
        if T == 1:
            message = (f"the best response at the presolve's dual has "
                       f"violation {abs(viols[0]):.4g} > {bound:.4g}; "
                       "returning it")
        else:
            message = (f"no iterate reached violation <= {bound:.4g}; "
                       "returning the least-violating iterate")
        warnings.warn(message, InfeasibleWarning, stacklevel=3)
        i = int(np.argmin(np.abs(viols)))
        return FairClassifier(coefs[i], intercepts[i], trace)
    # The uniform average of linear iterates scores as one linear scorer.
    weights = np.full(T, 1.0 / T)
    return FairClassifier(weights @ coefs, float(weights @ intercepts), trace)


def train_fair(data, spec, config=TrainConfig(), *, memo=None):
    """Train a fairness-constrained linear classifier.

    By default returns the one best response at the presolve's dual; when
    its violation exceeds the tolerance plus the feasibility slack, an
    ``InfeasibleWarning`` names both and it is returned all the same. With
    ``config.outer_iterations > 1`` it returns the uniform average over
    the dual-loop iterates, or, when no iterate is feasible, warns and
    returns the least-violating one.

    ``memo``, a dict the caller owns, shares presolve best responses
    between trainings: those on one dataset object, criterion and loss
    walk one bisection tree until their tolerances split it, and a shared
    step is fitted once. The model is bit-identical to one trained
    without it. The memo holds O(dimension) numbers per fitted step, for
    as long as the caller keeps it.
    """
    return _train(data, spec.criterion, spec.fairness_loss, spec.tolerance,
                  config, memo)


def _clean_conditionals_from_corrupted(mc, data):
    """Solve the clean P[Y=1|A=a] from corrupted-group rates under MC noise."""
    c1 = data.target_rate_given_sensitive(1)
    c0 = data.target_rate_given_sensitive(0)
    det = 1.0 - mc.alpha - mc.beta
    q1 = ((1.0 - mc.beta) * c1 - mc.alpha * c0) / det
    q0 = ((1.0 - mc.alpha) * c0 - mc.beta * c1) / det
    return q1, q0


def _resolve_noise(data, criterion, noise):
    """The weights of A that scale the tolerance (``MCNoise`` on all rows
    for DP, ``EOConditionalNoise`` on the Y=1 rows for EO) and the pair the
    trace reports. ``None`` is estimated; CCN rates, reported as given,
    convert through those rows' base rate; EO takes MC through ``mc_to_eo``."""
    dp = criterion == Criterion.DEMOGRAPHIC_PARITY
    if noise is None:
        noise = estimate_ccn_rates(data) if dp else estimate_eo_rates(data)
    if isinstance(noise, CCNNoise):
        return (ccn_to_mc_from_corrupted(noise, data.base_rate())[0] if dp
                else _ccn_to_eo(noise, data)), astuple(noise)
    if not dp and isinstance(noise, MCNoise):
        noise = mc_to_eo(noise, *_clean_conditionals_from_corrupted(noise, data))
    if isinstance(noise, MCNoise if dp else EOConditionalNoise):
        return noise, astuple(noise)
    raise ValidationError("demographic parity scaling needs MC or CCN noise"
                          if dp else
                          "equal opportunity scaling needs EO, MC or CCN noise")


def train_fair_noisy(data_corrupted, spec, noise=None, config=TrainConfig(),
                     *, memo=None):
    """Noise-aware fair training: scale the tolerance, then train as usual.

    ``noise`` may be an ``MCNoise``, ``EOConditionalNoise`` or ``CCNNoise``
    (known rates), or ``None`` to estimate CCN rates from the corrupted
    data. The scaled tolerance and the noise actually used are recorded in
    the training trace; ``memo`` shares presolve fits as in ``train_fair``.
    Any other fair classifier that takes a tolerance is made noise-aware
    the same way: train it at ``scale_tolerance(tau, noise)``.
    """
    resolved, noise_used = _resolve_noise(data_corrupted, spec.criterion, noise)
    tau_prime = scale_tolerance(spec.tolerance, resolved)
    model = _train(data_corrupted, spec.criterion, spec.fairness_loss,
                   tau_prime, config, memo)
    model.trace.tau_original = spec.tolerance
    model.trace.tolerance_scale = 1.0 - resolved.rate_sum
    model.trace.noise_used = noise_used
    return model


def _fmt(x):
    return format(float(x), ".17g")


def save_model(classifier, path):
    """Write the scorer as plain text: the magic line, ``dimension <d>`` and
    one line ``<intercept> <coef_1> ... <coef_d>``, 17 significant digits
    per value, so loading reproduces the scores bit-for-bit."""
    values = [classifier.intercept, *classifier.coef]
    lines = [MODEL_MAGIC, f"dimension {classifier.dimension}",
             " ".join(_fmt(x) for x in values)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path):
    """Read a model file written by ``save_model``; a malformed file, or one
    of the retired version 1 (weighted-ensemble) format, is a
    ``ValidationError``."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != MODEL_MAGIC:
        raise ValidationError(f"not a fairnoise model file: {path}")
    parts = lines[1].split() if len(lines) > 1 else []
    if len(parts) != 2 or parts[0] != "dimension" or not parts[1].isdecimal():
        raise ValidationError("model file needs a 'dimension <count>' line")
    if len(lines) != 3:
        raise ValidationError("model file needs exactly one scorer line")
    try:
        row = [float(p) for p in lines[2].split()]
    except ValueError:
        raise ValidationError("model values must be numbers") from None
    if len(row) != 1 + int(parts[1]):
        raise ValidationError("model line has a wrong coefficient count")
    if not np.isfinite(row).all():
        raise ValidationError("model file holds a non-finite value")
    return FairClassifier(row[1:], row[0])
