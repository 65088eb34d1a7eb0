"""Fairness-constrained training and the noise-aware wrapper.

The constrained problem min risk s.t. |mean-difference| <= tau is solved
as a Lagrangian saddle point. The absolute value is split into two
one-sided constraints with duals (lambda+, lambda-) bounded by B and
updated by capped multiplicative exponentiated gradient on the signed
0-1 violation minus tau. The primal best response folds the dual-weighted
fairness loss into per-example weights and soft targets of one
regularized logistic fit, so it stays convex; its gradient sees the
smooth (sigmoid) group rates while dual updates and feasibility use exact
0-1 counts.

Two deterministic refinements keep the returned classifier at the
constraint boundary: the duals are initialised by bisection on the net
dual pressure (killing the transient that would otherwise pollute the
iterate average), and the internally enforced tolerance is shrunk by a
small margin that absorbs the boundary-riding generalization gap.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from ._logit import fit_logistic
from .core import (Criterion, FairnessLoss, FairnessSpec, LinearScorer,
                   fairness_loss_values, mean_fairness_loss, predictions)
from .errors import (EmptySlice, InfeasibleWarning, OutOfRangeWeight,
                     PairingWarning, ValidationError)
from .estimation import estimate_ccn_rates, estimate_eo_rates
from .noise import (CCNNoise, EOConditionalNoise, MCNoise,
                    ccn_to_mc_from_corrupted, mc_to_eo, scale_tolerance)

MODEL_MAGIC = "fairnoise-model 2"
MODEL_MAGIC_V1 = "fairnoise-model 1"


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the saddle-point reduction.

    The base learner is fixed to regularized logistic regression, solved
    to a gradient norm of 1e-8 by damped Newton, so every best response is
    exact. ``base_iterations`` (dual loop) and ``presolve_base_iterations``
    (each presolve step; four times that for the unconstrained start) only
    cap the Newton iterations of one fit; a warm-started fit needs a few,
    a cold one under ten. Training is deterministic.
    """

    dual_step: float = 0.3
    dual_bound: float = 100.0
    outer_iterations: int = 50
    base_iterations: int = 40
    regularization: float = 3e-3
    select_best: bool = False
    feasibility_slack: float = 0.01
    boundary_margin: float = 0.01
    presolve_iterations: int = 25
    presolve_base_iterations: int = 120

    def __post_init__(self):
        if self.outer_iterations < 1 or self.base_iterations < 1:
            raise ValidationError("iteration counts must be >= 1")
        if not self.dual_step > 0:
            raise ValidationError("dual_step must be > 0")
        if not self.dual_bound > 0:
            raise ValidationError("dual_bound must be > 0")
        if not self.regularization >= 0:
            raise ValidationError("regularization must be >= 0")
        if not (self.boundary_margin >= 0 and self.feasibility_slack >= 0):
            raise ValidationError("margins must be >= 0")


@dataclass
class TrainingTrace:
    """Per-iterate diagnostics of one training run."""

    tau: float
    tau_internal: float
    violations: np.ndarray
    risks: np.ndarray
    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    gaps: np.ndarray
    best_gaps: np.ndarray
    selected: object  # "average" or an iterate index
    feasible: bool
    tau_original: float = None
    tolerance_scale: float = None
    noise_used: tuple = None


class FairClassifier(LinearScorer):
    """The trained linear scorer, with sign-threshold prediction and the
    diagnostics of the training run that produced it."""

    __slots__ = ("trace",)

    def __init__(self, coef, intercept, trace=None):
        super().__init__(coef, intercept)
        object.__setattr__(self, "trace", trace)

    @property
    def dimension(self):
        return len(self.coef)

    def predict(self, X):
        return predictions(self, X)


def _criterion_masks(data, criterion):
    a, y = data.sensitive, data.target
    if criterion == Criterion.DEMOGRAPHIC_PARITY:
        m0, m1 = a == 0, a == 1
        what = "sensitive group"
    else:
        m0, m1 = (a == 0) & (y == 1), (a == 1) & (y == 1)
        what = "(sensitive, Y=1) group"
    if not m0.any() or not m1.any():
        raise EmptySlice(f"training needs both {what}s present")
    return m0, m1


def _signed_violation(preds, y, loss, m0, m1):
    vals = fairness_loss_values(loss, preds, y)
    return float(vals[m0].mean() - vals[m1].mean())


class _Reduction:
    """Best-response machinery shared by the presolve and the dual loop."""

    def __init__(self, data, loss, m0, m1, config):
        self.X = data.features
        self.y = data.target
        self.yf = data.target.astype(float)
        self.loss = loss
        self.m0, self.m1 = m0, m1
        self.n0, self.n1 = int(m0.sum()), int(m1.sum())
        self.n = len(data)
        self.config = config
        self.coef = np.zeros(data.dimension)
        self.intercept = 0.0

    def best_response(self, nu, iters):
        # Fairness cost +nu/n0 on slice-0 losses, -nu/n1 on slice-1 losses,
        # folded with the 1/n accuracy term into weights and soft targets.
        c = np.zeros(self.n)
        c[self.m0] = nu / self.n0
        c[self.m1] = -nu / self.n1
        push = np.abs(c)
        if self.loss == FairnessLoss.PREDICT_NONPOSITIVE:
            push_label = (c > 0).astype(float)
        else:
            push_label = np.where(c > 0, self.yf, 1.0 - self.yf)
        u = 1.0 / self.n + push
        t = (self.yf / self.n + push * push_label) / u
        self.coef, self.intercept, _, _ = fit_logistic(
            self.X, t, u, reg=self.config.regularization, max_iter=iters,
            coef0=self.coef, intercept0=self.intercept)
        return self.coef.copy(), self.intercept

    def stats(self):
        preds = ((self.X @ self.coef + self.intercept) > 0).astype(np.int64)
        v = _signed_violation(preds, self.y, self.loss, self.m0, self.m1)
        return v, float((preds != self.y).mean())


def _presolve(red, tau_int, config):
    """Bisection on the net dual pressure to the constraint boundary."""
    red.best_response(0.0, 4 * config.presolve_base_iterations)
    v0, _ = red.stats()
    if abs(v0) <= tau_int:
        return 0.0
    sgn = 1.0 if v0 > 0 else -1.0
    hi = 1.0
    while hi < config.dual_bound:
        red.best_response(sgn * hi, config.presolve_base_iterations)
        v, _ = red.stats()
        if sgn * v <= tau_int:
            break
        hi *= 2.0
    hi = min(hi, config.dual_bound)
    lo = 0.0
    for _ in range(config.presolve_iterations):
        mid = 0.5 * (lo + hi)
        red.best_response(sgn * mid, config.presolve_base_iterations)
        v, _ = red.stats()
        if sgn * v <= tau_int:
            hi = mid
        else:
            lo = mid
    return sgn * hi


def _train(data, criterion, loss, tau, config):
    if len(data) == 0:
        raise EmptySlice("cannot train on empty data")
    m0, m1 = _criterion_masks(data, criterion)
    tau_int = max(0.0, tau - config.boundary_margin)
    red = _Reduction(data, loss, m0, m1, config)

    nu0 = _presolve(red, tau_int, config)
    B = config.dual_bound
    lam_p = min(B, max(nu0, 1e-12))
    lam_m = min(B, max(-nu0, 1e-12))

    T = config.outer_iterations
    coefs = np.empty((T, data.dimension))
    intercepts = np.empty(T)
    viols = np.empty(T)
    risks = np.empty(T)
    lams_p = np.empty(T)
    lams_m = np.empty(T)
    for t in range(T):
        lams_p[t], lams_m[t] = lam_p, lam_m
        coefs[t], intercepts[t] = red.best_response(lam_p - lam_m,
                                                    config.base_iterations)
        v, r = red.stats()
        viols[t], risks[t] = v, r
        eta = config.dual_step / np.sqrt(t + 1.0)
        lam_p = min(B, lam_p * np.exp(eta * (v - tau_int)))
        lam_m = min(B, lam_m * np.exp(eta * (-v - tau_int)))

    # Saddle gap of the averaged play after k iterates, against the best
    # response among those k.
    k = np.arange(1.0, T + 1)
    avg_lp, avg_lm = np.cumsum(lams_p) / k, np.cumsum(lams_m) / k
    primal = np.cumsum(risks) / k + B * np.maximum(
        0.0, np.abs(np.cumsum(viols) / k) - tau_int)
    dual = np.array([np.min(risks[:j] + avg_lp[j - 1] * (viols[:j] - tau_int)
                            + avg_lm[j - 1] * (-viols[:j] - tau_int))
                     for j in range(1, T + 1)])
    gaps = primal - dual
    best_gaps = np.minimum.accumulate(gaps)

    feasible_mask = np.abs(viols) <= tau + config.feasibility_slack
    feasible = bool(feasible_mask.any())
    if not feasible:
        selected = int(np.argmin(np.abs(viols)))
        warnings.warn(
            f"no iterate reached violation <= {tau + config.feasibility_slack:.4g}; "
            "returning the least-violating iterate", InfeasibleWarning, stacklevel=3)
    elif config.select_best:
        selected = int(np.argmin(np.where(feasible_mask, risks, np.inf)))
    else:
        selected = "average"

    trace = TrainingTrace(tau=tau, tau_internal=tau_int, violations=viols,
                          risks=risks, lambda_plus=lams_p, lambda_minus=lams_m,
                          gaps=gaps, best_gaps=best_gaps, selected=selected,
                          feasible=feasible)
    if selected != "average":
        return FairClassifier(coefs[selected], intercepts[selected], trace)
    # The uniform average of linear iterates scores as one linear scorer.
    weights = np.full(T, 1.0 / T)
    return FairClassifier(weights @ coefs, float(weights @ intercepts), trace)


def train_fair(data, spec, config=TrainConfig()):
    """Train a fairness-constrained linear classifier.

    Returns the uniform average over outer iterates, or the lowest-risk
    feasible iterate when ``config.select_best``. When no iterate is
    feasible an ``InfeasibleWarning`` is emitted and the least-violating
    iterate is returned.
    """
    return _train(data, spec.criterion, spec.fairness_loss, spec.tolerance, config)


def _clean_conditionals_from_corrupted(mc, data):
    """Solve the clean P[Y=1|A=a] from corrupted-group rates under MC noise."""
    c1 = data.target_rate_given_sensitive(1)
    c0 = data.target_rate_given_sensitive(0)
    det = 1.0 - mc.alpha - mc.beta
    q1 = ((1.0 - mc.beta) * c1 - mc.alpha * c0) / det
    q0 = ((1.0 - mc.alpha) * c0 - mc.beta * c1) / det
    return q1, q0


def _resolve_noise(data, criterion, noise):
    """Map whatever noise description was supplied to the parameterisation
    the tolerance scaling needs for this criterion."""
    if criterion == Criterion.DEMOGRAPHIC_PARITY:
        if noise is None:
            noise = estimate_ccn_rates(data)
        if isinstance(noise, CCNNoise):
            mc, _ = ccn_to_mc_from_corrupted(noise, data.base_rate())
            return mc, (noise.rho_plus, noise.rho_minus)
        if isinstance(noise, MCNoise):
            return noise, None
        raise ValidationError("demographic parity scaling needs MC or CCN noise")
    if noise is None:
        noise = estimate_eo_rates(data)
    if isinstance(noise, EOConditionalNoise):
        return noise, None
    if isinstance(noise, CCNNoise):
        # CCN flips are independent of Y, so the Y=1 slice is CCN with the
        # same rates; its MC weights are exactly (alpha', beta').
        y1 = data.subset(data.target == 1)
        if len(y1) == 0:
            raise EmptySlice("Y=1 slice is empty")
        mc, _ = ccn_to_mc_from_corrupted(noise, y1.base_rate())
        return (EOConditionalNoise(mc.alpha, mc.beta),
                (noise.rho_plus, noise.rho_minus))
    if isinstance(noise, MCNoise):
        q1, q0 = _clean_conditionals_from_corrupted(noise, data)
        return mc_to_eo(noise, q1, q0), None
    raise ValidationError("equal opportunity scaling needs EO, MC or CCN noise")


def train_fair_noisy(data_corrupted, spec, noise=None, config=TrainConfig(),
                     trainer=None):
    """Noise-aware fair training: scale the tolerance, then train as usual.

    ``noise`` may be an ``MCNoise``, ``EOConditionalNoise`` or ``CCNNoise``
    (known rates), or ``None`` to estimate CCN rates from the corrupted
    data. The scaled tolerance and the noise actually used are recorded in
    the training trace.

    Any downstream fair classifier that accepts a tolerance works as the
    base method: pass ``trainer(data, spec, config)`` and it is invoked
    with the spec rescaled to the noise-adjusted tolerance.
    """
    resolved, rates = _resolve_noise(data_corrupted, spec.criterion, noise)
    tau_prime = scale_tolerance(spec.tolerance, resolved)
    if trainer is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PairingWarning)
            scaled_spec = FairnessSpec(spec.criterion, spec.fairness_loss,
                                       tau_prime)
        return trainer(data_corrupted, scaled_spec, config)
    if rates is not None:
        noise_used = rates
    elif isinstance(resolved, MCNoise):
        noise_used = (resolved.alpha, resolved.beta)
    else:
        noise_used = (resolved.alpha_prime, resolved.beta_prime)
    model = _train(data_corrupted, spec.criterion, spec.fairness_loss,
                   tau_prime, config)
    model.trace.tau_original = spec.tolerance
    model.trace.tolerance_scale = 1.0 - resolved.rate_sum
    model.trace.noise_used = noise_used
    return model


def reduction_constraint_value(data, scorer, criterion=Criterion.DEMOGRAPHIC_PARITY):
    """Per-group-vs-overall deviation of the positive-prediction rate,
    max over groups (the constraint enforced by reduction-style fair
    classifiers). For equal opportunity the rates are taken on the Y=1
    slice."""
    y_cond = None if criterion == Criterion.DEMOGRAPHIC_PARITY else 1
    loss = FairnessLoss.PREDICT_NONPOSITIVE
    overall = 1.0 - mean_fairness_loss(data, scorer, loss, target=y_cond)
    dev = 0.0
    for a in (0, 1):
        rate = 1.0 - mean_fairness_loss(data, scorer, loss, sensitive=a,
                                        target=y_cond)
        dev = max(dev, abs(rate - overall))
    return dev


def mean_diff_from_reduction(value, pi_weight):
    """Invert the base-rate scaling between the reduction-style constraint
    and the mean-difference score: returns value / pi_weight."""
    if not 0.5 <= pi_weight <= 1.0:
        raise OutOfRangeWeight("pi_weight must lie in [0.5, 1]")
    return value / pi_weight


def conservative_half_tolerance(tau, noise):
    """Scaled tolerance halved: sufficient for the clean reduction-style
    constraint even when corruption shifts the group base rates."""
    return 0.5 * scale_tolerance(tau, noise)


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


def _header_count(lines, index, name):
    parts = lines[index].split() if index < len(lines) else []
    if len(parts) != 2 or parts[0] != name or not parts[1].isdecimal():
        raise ValidationError(f"model file needs a '{name} <count>' line")
    return int(parts[1])


def _parse_rows(lines, width):
    try:
        rows = [[float(p) for p in ln.split()] for ln in lines]
    except ValueError:
        raise ValidationError("model values must be numbers") from None
    if any(len(row) != width for row in rows):
        raise ValidationError("model line has a wrong coefficient count")
    if not np.isfinite(rows).all():
        raise ValidationError("model file holds a non-finite value")
    return rows


def load_model(path):
    """Read a model file written by ``save_model``; a malformed file is a
    ``ValidationError``. A version 1 file (a weighted ensemble of linear
    members) loads as the weighted average of its members."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] not in (MODEL_MAGIC, MODEL_MAGIC_V1):
        raise ValidationError(f"not a fairnoise model file: {path}")
    dim = _header_count(lines, 1, "dimension")
    if lines[0] == MODEL_MAGIC:
        if len(lines) != 3:
            raise ValidationError("model file needs exactly one scorer line")
        row = _parse_rows(lines[2:], 1 + dim)[0]
        return FairClassifier(row[1:], row[0])
    m = _header_count(lines, 2, "members")
    if m == 0 or len(lines) != 3 + m:
        raise ValidationError("model file has a wrong member count")
    members = _parse_rows(lines[3:], 2 + dim)
    w = np.array([row[0] for row in members])
    b = np.array([row[1] for row in members])
    c = np.array([row[2:] for row in members])
    if (w < 0).any() or abs(w.sum() - 1.0) > 1e-9:
        raise ValidationError("member weights must be nonnegative and sum to 1")
    return FairClassifier(w @ c, float(w @ b))
