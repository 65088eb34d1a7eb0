"""Constrained-trainer tests: boundary behavior, the noise-aware wrapper,
reduction-constraint conversions and model persistence."""

import dataclasses
import math
import sys
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

from fairnoise import estimation, fairtrain
from fairnoise._logit import fit_logistic
from fairnoise.bench import (ExperimentConfig, anchor_synthetic_config,
                             default_experiment_config,
                             disparity_synthetic_config, run_sweep,
                             synth_generate)
from fairnoise.cli import main
from fairnoise.core import (SLICES, Criterion, Dataset, FairnessLoss,
                            FairnessSpec, LinearScorer, accuracy_risk, ddp,
                            deo, mean_fairness_loss, predictions, slice_masks)
from fairnoise.errors import (EmptyDataset, EmptySlice, InfeasibleWarning,
                              NumericalError, PairingWarning, ValidationError)
from fairnoise.estimation import estimate_ccn_rates, estimate_eo_rates
from fairnoise.fairtrain import (_BOUNDARY_MARGIN, _DUAL_BOUND,
                                 _FEASIBILITY_SLACK, _MAX_LEVELS,
                                 _REGULARIZATION, TrainConfig,
                                 _clean_conditionals_from_corrupted,
                                 _Reduction, _resolve_noise,
                                 load_model, save_model, train_fair,
                                 train_fair_noisy)
from fairnoise.noise import (CCNNoise, EOConditionalNoise, MCNoise,
                             ccn_to_mc_from_corrupted, inject_ccn, mc_to_eo,
                             scale_tolerance)

from _oracles import (corrupt, fairness_loss_values,
                      reduction_constraint_value)
from _random_cases import random_dataset, random_population, random_scorer

DP = Criterion.DEMOGRAPHIC_PARITY
EO = Criterion.EQUAL_OPPORTUNITY


@pytest.fixture(scope="module")
def synth_data():
    return synth_generate(disparity_synthetic_config())


FAST = TrainConfig(outer_iterations=20, base_iterations=30,
                   presolve_iterations=18, presolve_base_iterations=60)


class TestTrainFair:
    def test_vacuous_constraint_matches_unconstrained_logistic(self, synth_data):
        model = train_fair(synth_data, FairnessSpec(DP, tolerance=1.0))
        n = len(synth_data)
        coef, b, _, _ = fit_logistic(
            synth_data.features, synth_data.target.astype(float),
            np.full(n, 1.0 / n), reg=_REGULARIZATION, max_iter=3000)
        oracle = LinearScorer(coef, b)
        assert abs(accuracy_risk(synth_data, model)
                   - accuracy_risk(synth_data, oracle)) <= 0.01

    def test_tight_constraint_reaches_low_disparity(self, synth_data):
        model = train_fair(synth_data, FairnessSpec(DP, tolerance=0.01))
        assert ddp(synth_data, model) <= 0.05

    def test_boundary_tracking(self, synth_data):
        for tau in (0.1, 0.2):
            model = train_fair(synth_data, FairnessSpec(DP, tolerance=tau))
            assert ddp(synth_data, model) <= tau + 0.02

    def test_eo_criterion_trains(self, synth_data):
        model = train_fair(synth_data, FairnessSpec(EO, tolerance=0.05), FAST)
        assert deo(synth_data, model) <= 0.05 + _FEASIBILITY_SLACK + 0.02

    @pytest.mark.parametrize("tau", [0.0, 0.02, 0.1])
    def test_eo_losses_train_the_same_model(self, tau):
        # on the Y=1 slice a 0-1 error is a non-positive prediction
        data = synth_generate(disparity_synthetic_config(n=800, seed=5))
        specs = [FairnessSpec(EO, loss, tau) for loss in FairnessLoss]
        noisy = partial(train_fair_noisy, noise=CCNNoise(0.1, 0.1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InfeasibleWarning)
            for train in (train_fair, noisy):
                a, b = (train(data, spec) for spec in specs)
                assert a.coef.tobytes() == b.coef.tobytes()
                assert a.intercept == b.intercept

    def test_single_group_raises(self):
        data = Dataset(np.random.default_rng(0).normal(0, 1, (30, 2)),
                       [1] * 30, [0, 1] * 15)
        with pytest.raises(EmptySlice):
            train_fair(data, FairnessSpec(DP, tolerance=0.1), FAST)

    def test_eo_needs_positives_in_both_groups(self):
        rng = np.random.default_rng(1)
        data = Dataset(rng.normal(0, 1, (30, 2)), [0, 1] * 15,
                       [1, 0] * 15)  # A=1 examples never have Y=1
        with pytest.raises(EmptySlice):
            train_fair(data, FairnessSpec(EO, tolerance=0.1), FAST)

    def test_determinism(self, synth_data):
        spec = FairnessSpec(DP, tolerance=0.1)
        a = train_fair(synth_data, spec, FAST)
        b = train_fair(synth_data, spec, FAST)
        assert np.array_equal(a.coef, b.coef)
        assert a.intercept == b.intercept
        assert np.array_equal(a.trace.violations, b.trace.violations)
        assert a.trace.tau == 0.1
        assert a.trace.tau_internal == pytest.approx(0.1 - _BOUNDARY_MARGIN)

    def test_infeasible_warns_and_returns_least_violating(self, synth_data):
        # five dual steps from a four-step presolve cannot reach tau = 0
        config = TrainConfig(outer_iterations=5, base_iterations=30,
                             presolve_iterations=4,
                             presolve_base_iterations=40)
        with pytest.warns(InfeasibleWarning):
            model = train_fair(synth_data, FairnessSpec(DP, tolerance=0.0),
                               config)
        viols = model.trace.violations
        assert ddp(synth_data, model) == abs(viols[np.argmin(np.abs(viols))])
        assert not model.trace.feasible


class TestTrainConfig:
    @pytest.mark.parametrize("bad", [
        dict(outer_iterations=0), dict(base_iterations=-3),
        dict(presolve_base_iterations=0), dict(presolve_base_iterations=-3),
        dict(presolve_iterations=-1)])
    def test_bad_iteration_counts_rejected(self, bad):
        with pytest.raises(ValidationError, match="must be >="):
            TrainConfig(**bad)

    @pytest.mark.parametrize("ok", [
        dict(presolve_iterations=0, presolve_base_iterations=1),
        dict(outer_iterations=4, base_iterations=5, presolve_iterations=3,
             presolve_base_iterations=10)])
    def test_small_iteration_counts_accepted(self, ok):
        assert TrainConfig(**ok).presolve_iterations == ok["presolve_iterations"]

    @pytest.mark.parametrize("bad", [
        dict(outer_iterations=sys.maxsize + 1), dict(outer_iterations=10**400),
        dict(presolve_iterations=_MAX_LEVELS + 1),
        dict(presolve_iterations=10**400)])
    def test_huge_iteration_counts_rejected(self, bad):
        with pytest.raises(ValidationError, match=r"<= \d+"):
            TrainConfig(**bad)

    def test_deepest_presolve_keeps_the_secant_grid_normal(self):
        # the doubling's top is at least 2**-63 below 2**63 rows, and up to
        # the dual bound; the secant's grid is width / 64
        for top in (2.0 ** -63, 2.0 ** -1, _DUAL_BOUND):
            grid = top * 2.0 ** -_MAX_LEVELS / 64.0
            assert grid >= sys.float_info.min
        assert 2.0 ** -63 * 2.0 ** -(_MAX_LEVELS + 1) / 64.0 < sys.float_info.min
        assert TrainConfig(presolve_iterations=_MAX_LEVELS).presolve_iterations \
            == _MAX_LEVELS


class TestDefaultTraining:
    """A default training is the presolve bisection plus one best response."""

    def test_default_runs_no_dual_loop(self):
        assert TrainConfig().outer_iterations == 1

    @pytest.mark.parametrize("tau", [0.0, 0.05, 1.0])
    def test_presolve_fits_plus_one(self, synth_data, monkeypatch, tau):
        presolve = fairtrain._presolve
        fits = []
        presolve_fits = []

        def counting_fit(*args, **kwargs):
            fits.append(1)
            return fit_logistic(*args, **kwargs)

        def counting_presolve(*args):
            nu = presolve(*args)
            presolve_fits.append(len(fits))
            return nu

        monkeypatch.setattr(fairtrain, "fit_logistic", counting_fit)
        monkeypatch.setattr(fairtrain, "_presolve", counting_presolve)
        train_fair(synth_data, FairnessSpec(DP, tolerance=tau))
        assert len(fits) == presolve_fits[0] + 1

    def test_infeasible_warning_names_the_one_best_response(self, synth_data):
        # two bisection steps leave the dual short of the boundary at tau 0
        with pytest.warns(InfeasibleWarning,
                          match=r"^the best response at the presolve's dual "
                                r"has violation 0\.\d+ > 0\.01; returning it$"):
            model = train_fair(synth_data, FairnessSpec(DP, tolerance=0.0),
                               TrainConfig(presolve_iterations=2))
        assert not model.trace.feasible
        assert ddp(synth_data, model) == abs(model.trace.violations[0]) > 0.01

    @pytest.mark.parametrize("criterion", [DP, EO])
    def test_trace_holds_the_returned_fit_violation(self, synth_data,
                                                    criterion):
        spec = FairnessSpec(criterion, tolerance=0.05)
        model = train_fair(synth_data, spec)
        target = None if criterion == DP else 1
        signed = (mean_fairness_loss(synth_data, model, spec.fairness_loss,
                                     0, target)
                  - mean_fairness_loss(synth_data, model, spec.fairness_loss,
                                       1, target))
        assert len(model.trace.violations) == 1
        assert model.trace.violations[0] == signed

    @pytest.mark.parametrize("criterion", [DP, EO])
    @pytest.mark.parametrize("tau", [0.0, 0.005, 0.05])
    def test_small_tolerances_stay_feasible(self, synth_data, criterion, tau):
        with warnings.catch_warnings():
            warnings.simplefilter("error", InfeasibleWarning)
            model = train_fair(synth_data, FairnessSpec(criterion, tolerance=tau))
        assert model.trace.feasible


def _specs(criterion, loss, taus):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PairingWarning)
        return [FairnessSpec(criterion, loss, tau) for tau in taus]


def _train_recording(data, spec, config, memo=None):
    """The model and the messages of the InfeasibleWarnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", InfeasibleWarning)
        model = train_fair(data, spec, config, memo=memo)
    return model, [str(w.message) for w in caught]


class TestPresolveMemo:
    """Trainings that share a presolve memo return the models of separate
    trainings, bit for bit, and fit a shared bisection step once."""

    # at tau = inf the unconstrained fit (nu = 0) is feasible, so the
    # presolve stops at the root of the tree
    TAUS = (0.0, 0.005, 0.02, 0.1, 0.2, np.inf)

    @pytest.fixture(scope="class")
    def data(self):
        return synth_generate(disparity_synthetic_config(n=800, seed=5))

    @pytest.mark.parametrize("config", [
        TrainConfig(), TrainConfig(presolve_iterations=0),
        TrainConfig(presolve_iterations=2)], ids=["default", "p0", "p2"])
    @pytest.mark.parametrize("loss", [None, FairnessLoss.PREDICT_NONPOSITIVE,
                                      FairnessLoss.ZERO_ONE])
    @pytest.mark.parametrize("criterion", [DP, EO])
    def test_shared_memo_is_bit_identical(self, data, criterion, loss, config):
        memo = {}
        for spec in _specs(criterion, loss, self.TAUS):
            shared, shared_warned = _train_recording(data, spec, config, memo)
            alone, alone_warned = _train_recording(data, spec, config)
            assert shared.coef.tobytes() == alone.coef.tobytes()
            assert shared.intercept == alone.intercept
            assert (shared.trace.violations.tobytes()
                    == alone.trace.violations.tobytes())
            assert shared.trace.feasible == alone.trace.feasible
            assert shared_warned == alone_warned
            assert len(alone_warned) == (not alone.trace.feasible)
        if config.presolve_iterations == 2:
            # a repeated training, all memo hits, warns again; at this
            # depth only DP with the zero-one loss reaches tau = 0, its
            # first doubling probe landing on a crossing near nu = 0
            infeasible = (criterion, loss) != (DP, FairnessLoss.ZERO_ONE)
            assert len(_train_recording(data, _specs(criterion, loss, [0.0])[0],
                                        config, memo)[1]) == infeasible
        # an entry holds a fit's coefficients, intercept and violation only
        assert all(coef.shape == (data.dimension,) and isinstance(b, float)
                   and isinstance(v, float) for coef, b, v in memo.values())

    def test_failed_fit_fails_every_tau_alike(self, data):
        big = Dataset(1e160 * data.features, data.sensitive, data.target)
        memo = {}
        messages = []
        for spec in _specs(DP, None, self.TAUS):
            for shared in (memo, None):
                with pytest.raises(NumericalError, match="fit overflowed") as exc:
                    train_fair(big, spec, memo=shared)
                messages.append(str(exc.value))
        assert len(set(messages)) == 1
        assert memo == {}

    @pytest.fixture
    def fits(self, monkeypatch):
        calls = []

        def counting_fit(*args, **kwargs):
            calls.append(1)
            return fit_logistic(*args, **kwargs)

        monkeypatch.setattr(fairtrain, "fit_logistic", counting_fit)
        return calls

    def test_shared_steps_are_fitted_once(self, data, fits):
        specs = _specs(DP, None, (0.02, 0.05, 0.1, 0.15, 0.2))
        alone = []
        for spec in specs:
            train_fair(data, spec)
            alone.append(len(fits))
        fits.clear()
        memo = {}
        train_fair(data, specs[0], memo=memo)
        # a one-tau training fits every step: presolve fits plus one
        assert len(fits) == alone[0]
        for spec in specs[1:]:
            train_fair(data, spec, memo=memo)
        assert len(fits) < alone[-1]
        # a repeated training finds its whole presolve in the memo
        fits.clear()
        train_fair(data, specs[0], memo=memo)
        assert len(fits) == 1

    def test_no_hit_outside_a_memo_and_its_scope(self, data, fits):
        spec = FairnessSpec(DP, tolerance=0.05)
        train_fair(data, spec)
        alone = len(fits)
        fits.clear()
        train_fair(data, spec)  # nothing outlives a memo-less call
        assert len(fits) == alone
        memo = {}
        train_fair(data, spec, memo=memo)
        # another dataset object or criterion starts a tree of its own
        copy = Dataset(data.features, data.sensitive, data.target)
        for other_data, other_spec in ((copy, spec),
                                       (data, FairnessSpec(EO, tolerance=0.05))):
            fits.clear()
            train_fair(other_data, other_spec)
            alone = len(fits)
            fits.clear()
            train_fair(other_data, other_spec, memo=memo)
            assert len(fits) == alone


class TestChordPresolve:
    """The bisection narrows its bracket to ``hi * 2**-presolve_iterations``
    with a feasible fit at the returned dual; interpolated warm starts and
    the secant keep the fits and Newton iterations of a training low."""

    @pytest.fixture(scope="class")
    def data(self):
        return synth_generate(disparity_synthetic_config(n=800, seed=5))

    @pytest.mark.parametrize("depth", [0, 2, 18, 25])
    @pytest.mark.parametrize("tau", [0.0, 0.02, 0.1])
    @pytest.mark.parametrize("loss", [None, FairnessLoss.ZERO_ONE])
    @pytest.mark.parametrize("criterion", [DP, EO])
    def test_bracket_width_and_violation_at_the_returned_dual(
            self, data, monkeypatch, criterion, loss, tau, depth):
        presolve, step = fairtrain._presolve, _Reduction.presolve_step
        steps, returned = [], []

        def recording_step(red, nu, iters):
            v = step(red, nu, iters)
            steps.append((nu, v, red.coef.copy(), red.intercept))
            return v

        def recording_presolve(red, tau_int, config):
            returned.append((presolve(red, tau_int, config), tau_int))
            return returned[-1][0]

        monkeypatch.setattr(_Reduction, "presolve_step", recording_step)
        monkeypatch.setattr(fairtrain, "_presolve", recording_presolve)
        spec = _specs(criterion, loss, [tau])[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InfeasibleWarning)
            model = train_fair(data, spec, TrainConfig(presolve_iterations=depth))
        (nu, tau_int), = returned
        sgn = 1.0 if steps[0][1] > 0 else -1.0
        if abs(steps[0][1]) <= tau_int:  # the unconstrained fit is feasible
            assert nu == 0.0 and len(steps) == 1
        else:
            # the doubling starts at the largest power of two whose
            # fairness weight nu / n_k stays within the accuracy weight 1 / n
            # on both slices, and ends at its first feasible fit; a secant
            # attempt adds at most two steps to the bisection's depth
            n_min = min(slice_masks(data, SLICES[criterion])[1])
            nu_1 = max(2.0 ** k for k in range(-40, 1)
                       if 2.0 ** k * len(data) <= n_min)
            assert nu_1 == 0.125  # slices of 189 (DP) and 117 (EO) of 800
            cut = 1 + next(i for i, s in enumerate(steps[1:], 1)
                           if sgn * s[1] <= tau_int)
            doubling, bisection = steps[1:cut], steps[cut:]
            assert len(bisection) <= depth + 2
            assert [abs(s[0]) for s in doubling] == [
                nu_1 * 2.0 ** k for k in range(len(doubling))]
            # on these data the doubling finds a feasible top below the cap
            hi0 = abs(doubling[-1][0])
            assert sgn * doubling[-1][1] <= tau_int
            # the infeasible doubling probes are bracket ends too
            lo = max([abs(s[0]) for s in steps[1:] if sgn * s[1] > tau_int],
                     default=0.0)
            assert lo < sgn * nu <= hi0
            assert sgn * nu - lo <= hi0 * 2.0 ** -depth
        # the returned dual was fitted, its violation toward the side the
        # presolve pushes against is within tau_int, and its fit is the
        # model: the final best response starts there and stops at once
        at_nu = [s for s in steps if s[0] == nu]
        assert at_nu and sgn * at_nu[-1][1] <= tau_int
        assert model.coef.tobytes() == at_nu[-1][2].tobytes()
        assert model.intercept == at_nu[-1][3]
        assert model.trace.violations[0] == at_nu[-1][1]

    def test_newton_iterations_of_default_trainings(self, data, monkeypatch):
        iterations = []

        def counting_fit(*args, **kwargs):
            fit = fit_logistic(*args, **kwargs)
            iterations.append(fit[2])
            return fit

        monkeypatch.setattr(fairtrain, "fit_logistic", counting_fit)
        for criterion in (DP, EO):
            for tau in (0.02, 0.05, 0.1):
                assert train_fair(data, FairnessSpec(criterion, tolerance=tau)
                                  ).trace.feasible
        # 6 trainings of 13-22 fits (the unconstrained start, one to three
        # doubling steps from nu = 0.125, 9-19 bisection and secant steps,
        # and the final best response) and 284 Newton iterations when
        # measured; 99 fits and 348 iterations with the doubling started
        # at nu = 1 and the last infeasible probe refitted; with 18
        # chord-started bisection steps and every step line-searched, 126
        # fits and 402 iterations, 566 at depth 25 with steps started from
        # the previous fit, 473 at depth 18 started so
        assert len(iterations) == 107
        assert sum(iterations) <= 300

    @pytest.mark.parametrize("loss", [None, FairnessLoss.ZERO_ONE])
    @pytest.mark.parametrize("criterion", [DP, EO])
    def test_no_dual_is_fitted_twice(self, data, monkeypatch, criterion,
                                     loss):
        # each infeasible doubling probe is the bracket's lower end, so the
        # first midpoint lies above the last one instead of refitting it
        step = _Reduction.presolve_step
        duals = []

        def recording_step(red, nu, iters):
            duals.append(nu)
            return step(red, nu, iters)

        monkeypatch.setattr(_Reduction, "presolve_step", recording_step)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InfeasibleWarning)
            for spec in _specs(criterion, loss, TestPresolveMemo.TAUS):
                duals.clear()
                train_fair(data, spec)
                assert len(set(duals)) == len(duals)

    def test_a_five_row_slice_of_20000_rows_trains(self, monkeypatch):
        # 5 / 20,000 puts the first probe at 2**-12, so the doubling makes
        # 11 infeasible probes below its feasible top of 0.5: 26 fits,
        # where a start at nu = 1 made 17 to the same model
        full = synth_generate(disparity_synthetic_config(n=20000, seed=5))
        a = np.zeros(len(full), dtype=int)
        a[np.flatnonzero(full.sensitive)[:5]] = 1
        data = Dataset(full.features, a, full.target)
        fits = []

        def counting_fit(*args, **kwargs):
            fits.append(1)
            return fit_logistic(*args, **kwargs)

        monkeypatch.setattr(fairtrain, "fit_logistic", counting_fit)
        model = train_fair(data, FairnessSpec(DP, tolerance=0.05))
        assert len(fits) == 26
        assert model.trace.feasible
        assert ddp(data, model) == model.trace.violations[0] <= 0.05

    def test_every_fit_of_a_default_sweep_converges(self, monkeypatch):
        # Chord-started steps used to stall at the loss's rounding floor,
        # 5 of 320 fits per repetition at a gradient norm just above tol;
        # the unchecked full Newton step carries them under it.
        fits = []

        def recording_fit(*args, **kwargs):
            fit = fit_logistic(*args, **kwargs)
            fits.append((fit[2], fit[3], kwargs["max_iter"]))
            return fit

        monkeypatch.setattr(fairtrain, "fit_logistic", recording_fit)
        config = default_experiment_config()
        run_sweep(dataclasses.replace(config, repetitions=1))
        # 239 with the doubling started at nu = 1, 320 with the plain
        # bisection before that
        assert len(fits) == 249
        assert all(gnorm <= 1e-8 or it == cap for it, gnorm, cap in fits)

    @pytest.mark.parametrize("case", [
        {}, {"noise_mode": "estimate"},
        {"noise_mode": "rho_hat_sweep",
         "rho_hat_grid": ((0.1, 0.1), (0.15, 0.15), (0.2, 0.2))},
        {"criterion": EO},
        {"loss": FairnessLoss.ZERO_ONE, "tau_grid": (0.0, 0.005, 0.02)}],
        ids=["known", "estimate", "rho_hat_sweep", "eo", "zero_one"])
    def test_sweep_rows_match_the_plain_bisection(self, monkeypatch, case):
        # The secant and the interpolated warm starts return other duals
        # than the plain bisection, within the same width of the boundary;
        # the swept models still score every row alike.
        config = ExperimentConfig(
            synthetic=disparity_synthetic_config(n=700, seed=4),
            repetitions=1, **case)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PairingWarning)
            rows = run_sweep(config)
            monkeypatch.setattr(fairtrain, "_presolve", _bisection_presolve)
            assert run_sweep(config) == rows


def _bisection_presolve(red, tau_int, config):
    """The presolve before the secant and the interpolated warm starts: the
    same doubling, then halvings to the same width, each started from the
    chord midpoint."""
    iters = config.presolve_base_iterations
    v0 = red.presolve_step(0.0, 4 * iters)
    if abs(v0) <= tau_int:
        return 0.0
    lo, lo_fit = 0.0, (red.coef, red.intercept)
    sgn = 1.0 if v0 > 0 else -1.0
    hi = 2.0 ** math.floor(math.log2(min(red.counts) / red.n))
    while sgn * red.presolve_step(sgn * hi, iters) > tau_int:
        if hi == _DUAL_BOUND:
            return sgn * hi
        lo, lo_fit = hi, (red.coef, red.intercept)
        hi = min(2.0 * hi, _DUAL_BOUND)
    hi_fit = red.coef, red.intercept
    width = hi * 2.0 ** -config.presolve_iterations
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        red.coef = 0.5 * (lo_fit[0] + hi_fit[0])
        red.intercept = 0.5 * (lo_fit[1] + hi_fit[1])
        v = red.presolve_step(sgn * mid, iters)
        if sgn * v <= tau_int:
            hi, hi_fit = mid, (red.coef, red.intercept)
        else:
            lo, lo_fit = mid, (red.coef, red.intercept)
    red.coef, red.intercept = hi_fit
    return sgn * hi


def _small_grid_data(seed):
    """A seeded data set of 6 to 59 rows, two features at one of three
    scales, with every (A, Y) cell present."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 60))
    X = rng.normal(size=(n, 2)) * (0.3, 1.0, 3.0)[seed % 3]
    a, y = rng.integers(0, 2, n), rng.integers(0, 2, n)
    a[:4], y[:4] = (0, 1, 0, 1), (1, 1, 0, 0)
    return Dataset(X, a, y)


class TestBracketAtTheBound:
    """The doubling probes the dual bound itself, so every dual the
    presolve returns was fitted, and the final best response starts from
    a converged fit at that dual."""

    def test_an_infeasible_bound_ends_the_presolve(self, monkeypatch):
        rng = np.random.default_rng(105)
        n = int(rng.integers(6, 60))
        X = rng.normal(size=(n, 2))
        a, y = rng.integers(0, 2, n), rng.integers(0, 2, n)
        a[0], a[1] = 0, 1
        data = Dataset(X, a, y)
        assert n == 21
        step = _Reduction.presolve_step
        duals = []

        def recording_step(red, nu, iters):
            duals.append(abs(nu))
            return step(red, nu, iters)

        monkeypatch.setattr(_Reduction, "presolve_step", recording_step)
        with pytest.warns(InfeasibleWarning):
            model = train_fair(data, FairnessSpec(DP, tolerance=0.0))
        # 28 steps when the doubling stopped at 64 and the bisection of
        # (64, 100] started from the fit at 64, 18 of them above 64
        assert len(duals) <= 11
        assert duals[-2:] == [64.0, _DUAL_BOUND]
        assert not model.trace.feasible

    def test_every_training_returns_its_presolve_end_fit(self, monkeypatch):
        presolve = fairtrain._presolve
        ends = []

        def recording_presolve(red, tau_int, config):
            nu = presolve(red, tau_int, config)
            ends.append((nu, red.coef.copy(), red.intercept))
            return nu

        monkeypatch.setattr(fairtrain, "_presolve", recording_presolve)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InfeasibleWarning)
            for seed in range(100):
                data = _small_grid_data(seed)
                for criterion in (DP, EO):
                    for loss in FairnessLoss:
                        for spec in _specs(criterion, loss, (0.0, 0.02, 0.1)):
                            model = train_fair(data, spec)
                            _, coef, intercept = ends[-1]
                            assert (model.coef.tobytes() == coef.tobytes()
                                    and model.intercept == intercept), (
                                seed, spec)
        assert len(ends) == 1200
        # the grid reaches the bound: 19 trainings whose model differed
        # from the end fit when the doubling stopped short of it
        assert sum(abs(nu) == _DUAL_BOUND for nu, _, _ in ends) == 19


class TestTrainFairNoisy:
    def test_zero_noise_identical_to_plain_training(self, synth_data):
        spec = FairnessSpec(DP, tolerance=0.1)
        plain = train_fair(synth_data, spec, FAST)
        noisy = train_fair_noisy(synth_data, spec, MCNoise(0.0, 0.0), FAST)
        assert np.array_equal(plain.coef, noisy.coef)
        assert plain.intercept == noisy.intercept

    def test_scaled_tolerance_recorded(self, synth_data):
        spec = FairnessSpec(DP, tolerance=0.2)
        model = train_fair_noisy(synth_data, spec, MCNoise(0.15, 0.15), FAST)
        assert model.trace.tau == pytest.approx(0.14, abs=1e-12)
        assert model.trace.tau_original == 0.2
        assert model.trace.tolerance_scale == pytest.approx(0.7, abs=1e-12)

    def test_ccn_rates_resolved_through_corrupted_base_rate(self, synth_data):
        corrupted = inject_ccn(synth_data, CCNNoise(0.15, 0.15), 5)
        spec = FairnessSpec(DP, tolerance=0.2)
        model = train_fair_noisy(corrupted, spec, CCNNoise(0.15, 0.15), FAST)
        mc, _ = ccn_to_mc_from_corrupted(CCNNoise(0.15, 0.15),
                                         corrupted.base_rate())
        assert model.trace.tau == pytest.approx(
            scale_tolerance(0.2, mc), abs=1e-12)
        assert model.trace.noise_used == (0.15, 0.15)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_eo_ccn_rates_resolved_on_the_y1_slice(self, seed):
        # bit for bit the base rate of the Y=1 subset, without building it
        data = synth_generate(disparity_synthetic_config(n=1001, seed=seed))
        noise = CCNNoise(0.15, 0.1)
        corrupted = inject_ccn(data, noise, seed)
        resolved, rates = _resolve_noise(corrupted, EO, noise)
        y1 = corrupted.subset(corrupted.target == 1)
        mc, _ = ccn_to_mc_from_corrupted(noise, y1.base_rate())
        assert resolved == EOConditionalNoise(mc.alpha, mc.beta)
        assert rates == (0.15, 0.1)

    def test_eo_ccn_without_positives_raises(self):
        data = Dataset(np.random.default_rng(2).normal(0, 1, (20, 2)),
                       [0, 1] * 10, [0] * 20)
        with pytest.raises(EmptySlice, match="Y=1 slice is empty"):
            train_fair_noisy(data, FairnessSpec(EO, tolerance=0.1),
                             CCNNoise(0.1, 0.1), FAST)

    def test_eo_mc_noise_resolved_through_the_clean_conditionals(
            self, synth_data):
        mc = MCNoise(0.1, 0.05)
        model = train_fair_noisy(synth_data, FairnessSpec(EO, tolerance=0.2),
                                 mc, FAST)
        eo = mc_to_eo(mc, *_clean_conditionals_from_corrupted(mc, synth_data))
        assert model.trace.tau == scale_tolerance(0.2, eo)
        assert model.trace.noise_used == (eo.alpha_prime, eo.beta_prime)

    def test_eo_estimated_noise_is_the_eo_rate_estimate(self):
        from fairnoise.bench import anchor_synthetic_config
        data = synth_generate(anchor_synthetic_config(n=4000, seed=9))
        corrupted = inject_ccn(data, CCNNoise(0.2, 0.1), 6)
        model = train_fair_noisy(corrupted, FairnessSpec(EO, tolerance=0.2),
                                 None, FAST)
        est = estimate_eo_rates(corrupted)
        assert model.trace.tau == scale_tolerance(0.2, est)
        assert model.trace.noise_used == (est.alpha_prime, est.beta_prime)

    def test_eo_conditional_noise_scaling(self, synth_data):
        spec = FairnessSpec(EO, tolerance=0.2)
        model = train_fair_noisy(synth_data, spec,
                                 EOConditionalNoise(0.1, 0.1), FAST)
        assert model.trace.tau == pytest.approx(0.16, abs=1e-12)

    def test_estimated_noise_path_runs(self):
        from fairnoise.bench import anchor_synthetic_config
        data = synth_generate(anchor_synthetic_config(n=4000, seed=9))
        corrupted = inject_ccn(data, CCNNoise(0.0, 0.2), 6)
        spec = FairnessSpec(DP, tolerance=0.2)
        model = train_fair_noisy(corrupted, spec, None, FAST)
        assert model.trace.tau_original == 0.2
        assert 0.0 < model.trace.tau < 0.2
        assert model.trace.noise_used is not None

    def test_end_to_end_scaling_beats_unscaled_baseline(self):
        # censoring-heavy regime: noise shrinks the measured disparity by
        # more than half, so the unscaled constraint badly overshoots
        n = 40000
        synth = disparity_synthetic_config(n=n, seed=6, base_rate=0.15)
        data = synth_generate(synth)
        order = np.random.default_rng(0).permutation(n)
        train, test = data.subset(order[: n // 2]), data.subset(order[n // 2:])
        corrupted = inject_ccn(train, CCNNoise(0.2, 0.2), 77)
        tau = 0.05
        spec = FairnessSpec(DP, tolerance=tau)
        scaled = train_fair_noisy(corrupted, spec, CCNNoise(0.2, 0.2))
        unscaled = train_fair(corrupted, spec)
        assert ddp(test, scaled) <= tau + 0.03
        assert ddp(test, unscaled) >= tau + 0.05


_DP_NEEDS = "^demographic parity scaling needs MC or CCN noise$"
_EO_NEEDS = "^equal opportunity scaling needs EO, MC or CCN noise$"


class TestResolveNoise:
    """``_resolve_noise`` is the public conversions and estimators, bit for
    bit: one rule per kind of noise, whichever criterion asks."""

    @staticmethod
    def _corrupted(seed):
        data = synth_generate(anchor_synthetic_config(n=4000, seed=seed))
        return inject_ccn(data, CCNNoise(0.2, 0.1), 100 + seed)

    @staticmethod
    def _expected(data, criterion, noise):
        dp = criterion == DP
        if noise is None:
            noise = estimate_ccn_rates(data) if dp else estimate_eo_rates(data)
        if isinstance(noise, CCNNoise):
            rows = data if dp else data.subset(data.target == 1)
            mc, _ = ccn_to_mc_from_corrupted(noise, rows.base_rate())
            weights = mc if dp else EOConditionalNoise(mc.alpha, mc.beta)
            return weights, (noise.rho_plus, noise.rho_minus)
        if isinstance(noise, EOConditionalNoise):
            return noise, (noise.alpha_prime, noise.beta_prime)
        if dp:
            return noise, (noise.alpha, noise.beta)
        c1 = data.target_rate_given_sensitive(1)
        c0 = data.target_rate_given_sensitive(0)
        det = 1.0 - noise.alpha - noise.beta
        eo = mc_to_eo(noise, ((1.0 - noise.beta) * c1 - noise.alpha * c0) / det,
                      ((1.0 - noise.alpha) * c0 - noise.beta * c1) / det)
        return eo, (eo.alpha_prime, eo.beta_prime)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("criterion, noise", [
        (DP, None), (DP, CCNNoise(0.15, 0.1)), (DP, MCNoise(0.1, 0.05)),
        (EO, None), (EO, CCNNoise(0.15, 0.1)), (EO, MCNoise(0.1, 0.05)),
        (EO, EOConditionalNoise(0.12, 0.07))])
    def test_values_are_the_public_rules(self, seed, criterion, noise):
        data = self._corrupted(seed)
        weights, pair = _resolve_noise(data, criterion, noise)
        want_weights, want_pair = self._expected(data, criterion, noise)
        assert type(weights) is type(want_weights)
        assert weights == want_weights
        assert pair == want_pair

    @pytest.mark.parametrize("criterion, noise, message", [
        (DP, EOConditionalNoise(0.1, 0.1), _DP_NEEDS),
        (DP, (0.1, 0.1), _DP_NEEDS), (EO, (0.1, 0.1), _EO_NEEDS),
        (DP, "0.1", _DP_NEEDS), (EO, "0.1", _EO_NEEDS)])
    def test_unaccepted_noise_names_the_accepted_types(self, criterion, noise,
                                                       message):
        with pytest.raises(ValidationError, match=message):
            _resolve_noise(self._corrupted(0), criterion, noise)

    def test_dp_ccn_on_an_empty_dataset(self):
        data = Dataset(np.zeros((0, 2)), [], [])
        with pytest.raises(EmptyDataset):
            _resolve_noise(data, DP, CCNNoise(0.1, 0.1))

    @pytest.mark.parametrize("noise", [None, CCNNoise(0.1, 0.1)])
    def test_eo_without_positives_fails_before_any_fit(self, monkeypatch,
                                                       noise):
        def no_fit(*args):
            raise AssertionError("a posterior was fitted")
        monkeypatch.setattr(estimation, "fit_posterior", no_fit)
        data = Dataset(np.random.default_rng(2).normal(0, 1, (20, 2)),
                       [0, 1] * 10, [0] * 20)
        with pytest.raises(EmptySlice, match="^Y=1 slice is empty$"):
            _resolve_noise(data, EO, noise)


class TestCleanConditionalRecovery:
    def test_recovers_clean_rates_from_exact_corruption(self):
        # the corrupted population's group-conditional target rates invert
        # exactly back to the clean conditionals
        rng = np.random.default_rng(17)
        for _ in range(20):
            pop = random_population(rng, require_all_cells=True)
            noise = MCNoise(rng.random() * 0.5, rng.random() * 0.4)
            corr = corrupt(pop, noise, float(rng.uniform(0.1, 0.9)))
            q1, q0 = _clean_conditionals_from_corrupted(noise, corr)
            assert q1 == pytest.approx(pop.target_rate_given_sensitive(1),
                                       abs=1e-10)
            assert q0 == pytest.approx(pop.target_rate_given_sensitive(0),
                                       abs=1e-10)


class TestReductionConstraint:
    def test_constant_scorer(self):
        rng = np.random.default_rng(2)
        data = random_dataset(rng)
        scorer = LinearScorer(np.zeros(data.dimension), 1.0)
        assert reduction_constraint_value(data, scorer) == 0.0

    def test_balanced_groups_half_ddp(self):
        # balanced groups, rates 1/2 and 1 -> ddp 0.5, value 0.25
        X = np.array([[1.0], [-1.0], [1.0], [2.0]])
        data = Dataset(X, [0, 0, 1, 1], [0, 0, 0, 0])
        scorer = LinearScorer([1.0])
        assert ddp(data, scorer) == 0.5
        assert reduction_constraint_value(data, scorer) == pytest.approx(0.25,
                                                                         abs=1e-12)

    def test_unbalanced_worked_example(self):
        # P[A=1]=0.8 with rates 0.9 / 0.5 -> max deviation 0.32
        rows_a1 = [((1.0,), 1, 0)] * 72 + [((-1.0,), 1, 0)] * 8
        rows_a0 = [((1.0,), 0, 0)] * 10 + [((-1.0,), 0, 0)] * 10
        rows = rows_a1 + rows_a0
        data = Dataset(np.array([r[0] for r in rows]),
                       [r[1] for r in rows], [r[2] for r in rows])
        scorer = LinearScorer([1.0])
        value = reduction_constraint_value(data, scorer)
        assert value == pytest.approx(0.32, abs=1e-12)
        preds = predictions(scorer, data.features)
        overall = preds.mean()
        direct = max(abs(preds[data.sensitive == a].mean() - overall)
                     for a in (0, 1))
        assert value == pytest.approx(direct, abs=1e-15)

    def test_identity_and_bounds_on_random_datasets(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            data = random_dataset(rng)
            scorer = random_scorer(rng, data.dimension)
            value = reduction_constraint_value(data, scorer)
            gap = ddp(data, scorer)
            pi = data.base_rate()
            assert value == pytest.approx(max(pi, 1 - pi) * gap, abs=1e-12)
            assert 0.5 * gap - 1e-12 <= value <= gap + 1e-12

    def test_eo_form_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            data = random_dataset(rng, n=40)
            if not (((data.sensitive == 0) & (data.target == 1)).any()
                    and ((data.sensitive == 1) & (data.target == 1)).any()):
                continue
            scorer = random_scorer(rng, data.dimension)
            value = reduction_constraint_value(data, scorer, y_cond=1)
            y1 = data.subset(data.target == 1)
            pi = y1.base_rate()
            gap = deo(data, scorer, FairnessLoss.PREDICT_NONPOSITIVE)
            assert value == pytest.approx(max(pi, 1 - pi) * gap, abs=1e-12)

    def test_missing_group_raises(self):
        data = Dataset(np.zeros((4, 1)), [0, 0, 0, 0], [0, 1, 0, 1])
        with pytest.raises(EmptySlice):
            reduction_constraint_value(data, LinearScorer([0.0], 1.0))


class TestBalancedGroupEquivalence:
    def test_constraint_acceptance_matches_at_half_tolerance(self):
        rng = np.random.default_rng(7)
        n = 64  # exactly balanced groups
        X = rng.normal(0, 1, (n, 3))
        data = Dataset(X, [0, 1] * (n // 2), rng.integers(0, 2, n))
        assert data.base_rate() == 0.5
        tau = 0.3
        for _ in range(200):
            scorer = random_scorer(rng, 3)
            accept_reduction = reduction_constraint_value(data, scorer) <= tau / 2
            accept_mean_diff = ddp(data, scorer) <= tau
            assert accept_reduction == accept_mean_diff


class TestModelPersistence:
    def test_round_trip_bit_for_bit(self, synth_data, tmp_path):
        model = train_fair(synth_data, FairnessSpec(DP, tolerance=0.1), FAST)
        path = tmp_path / "model.txt"
        save_model(model, path)
        lines = path.read_text().splitlines()
        assert lines[:2] == ["fairnoise-model 2", f"dimension {synth_data.dimension}"]
        assert len(lines) == 3
        loaded = load_model(path)
        assert np.array_equal(loaded.coef, model.coef)
        assert loaded.intercept == model.intercept
        X = np.random.default_rng(8).normal(0, 2, (500, synth_data.dimension))
        assert np.array_equal(loaded.scores(X), model.scores(X))
        assert np.array_equal(predictions(loaded, X), predictions(model, X))

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a model\n")
        with pytest.raises(ValidationError):
            load_model(path)

    @pytest.mark.parametrize("text", [
        "fairnoise-model 2\ndimension 2\n",
        "fairnoise-model 2\ndimension 2\n0 1\n",
        "fairnoise-model 2\ndimension 2\n0 1 2\n0 1 2\n",
        "fairnoise-model 2\ndimension 2\n0 1 x\n",
        "fairnoise-model 2\ndimension 2\n0 1 nan\n",
        "fairnoise-model 2\nmembers 1\n0 1 2\n",
        "fairnoise-model 1\ndimension 2\nmembers 0\n",
        "fairnoise-model 3\ndimension 2\n0 1 2\n"])
    def test_malformed_file_rejected(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValidationError):
            load_model(path)


def _reference_targets_weights(data, loss, m0, m1, nu):
    """Per-row soft targets and weights of one best response, built row by
    row (the construction the 6-entry table replaced)."""
    n, n0, n1 = len(data), int(m0.sum()), int(m1.sum())
    yf = data.target.astype(float)
    c = np.zeros(n)
    c[m0] = nu / n0
    c[m1] = -nu / n1
    push = np.abs(c)
    if loss == FairnessLoss.PREDICT_NONPOSITIVE:
        push_label = (c > 0).astype(float)
    else:
        push_label = np.where(c > 0, yf, 1.0 - yf)
    u = 1.0 / n + push
    t = (yf / n + push * push_label) / u
    return t, u


def _reference_violation(data, loss, m0, m1, coef, intercept):
    """Signed violation as slice means of per-row 0-1 losses."""
    preds = ((data.features @ coef + intercept) > 0).astype(np.int64)
    vals = fairness_loss_values(loss, preds, data.target)
    return float(vals[m0].mean() - vals[m1].mean())


class TestReductionBitIdentity:
    """The cell-table best response and the counted violation reproduce the
    row-by-row construction bit for bit."""

    NUS = (-3.7, -1e-3, -0.0, 0.0, 1e-3, 0.5, 42.0, np.float64(0.25))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("criterion", [DP, EO])
    @pytest.mark.parametrize("loss", list(FairnessLoss))
    def test_matches_row_by_row_reference(self, monkeypatch, seed, criterion,
                                          loss):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 300))
        a, y = rng.integers(0, 2, n), rng.integers(0, 2, n)
        a[:4], y[:4] = (0, 1, 0, 1), (1, 1, 0, 0)  # every (A, Y) cell present
        data = Dataset(rng.normal(0.0, 1.5, (n, 3)), a, y)
        m0, m1 = slice_masks(data, SLICES[criterion])[0]
        if criterion == EO:
            assert not (m0 | m1).all()  # rows outside both slices
        red = _Reduction(data, criterion, loss)
        seen = []

        def spy(X, t, u, **kwargs):
            seen.append((t, u))
            return fit_logistic(X, t, u, **kwargs)

        monkeypatch.setattr(fairtrain, "fit_logistic", spy)
        for nu in self.NUS:
            red.best_response(nu, 30)
            t, u = seen[-1]
            t_ref, u_ref = _reference_targets_weights(data, loss, m0, m1, nu)
            assert t.dtype == t_ref.dtype and t.tobytes() == t_ref.tobytes()
            assert u.dtype == u_ref.dtype and u.tobytes() == u_ref.tobytes()
            assert red.violation(red.ws.score > 0) == _reference_violation(
                data, loss, m0, m1, red.coef, red.intercept)
        assert len(seen) == len(self.NUS)
        for _ in range(5):
            coef = rng.normal(0.0, 1.0, 3)
            intercept = float(rng.normal(0.0, 0.5))
            score = data.features @ coef + intercept
            assert red.violation(score > 0) == _reference_violation(
                data, loss, m0, m1, coef, intercept)

    @pytest.mark.parametrize("criterion", [DP, EO])
    @pytest.mark.parametrize("loss", list(FairnessLoss))
    def test_violation_from_the_fit_score(self, criterion, loss):
        # the fit's own final score is bitwise X @ coef + intercept, so the
        # violation counted from it is the recomputed one
        data = synth_generate(disparity_synthetic_config(n=2000, seed=3))
        red = _Reduction(data, criterion, loss)
        for nu, iters in ((0.0, 120), (2.0, 3), (-1.5, 120), (0.25, 1)):
            red.best_response(nu, iters)
            score = data.features @ red.coef + red.intercept
            assert red.ws.score.tobytes() == score.tobytes()
            assert red.violation(red.ws.score > 0) == red.violation(score > 0)

    def test_default_sweep_bytes_do_not_depend_on_jobs(self, tmp_path):
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}" / "results.csv"
            out.parent.mkdir()
            assert main(["sweep", "--set", "repetitions=1", "--jobs", jobs,
                         "--out", str(out)]) == 0
            outs.append(out)
        for name in ("results.csv", "results_agg.csv"):
            assert ((outs[0].parent / name).read_bytes()
                    == (outs[1].parent / name).read_bytes())


def test_warm_best_response_allocates_under_four_columns():
    # The training's workspace holds every length-n buffer of a fit; what
    # a warm best response and its violation still allocate is sigmoid's
    # temporaries next to the previous iteration's residual, about 3.6
    # float columns at this n (11.2 when each fit made its own buffers).
    # tracemalloc counts bytes requested, so the bound is deterministic.
    data = synth_generate(disparity_synthetic_config(n=20000, seed=5))
    n = len(data)
    red = _Reduction(data, EO, FairnessLoss.ZERO_ONE)
    red.best_response(0.0, 120)
    red.violation(red.ws.score > 0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        red.best_response(0.5, 120)
        red.violation(red.ws.score > 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 4 * 8 * n
