"""Constrained-trainer tests: boundary behavior, the noise-aware wrapper,
reduction-constraint conversions and model persistence."""

from pathlib import Path

import numpy as np
import pytest

from fairnoise._logit import fit_logistic
from fairnoise.bench import (disparity_synthetic_config, materialize,
                             synth_generate)
from fairnoise.core import (ConstantScorer, Criterion, Dataset, FairnessLoss,
                            FairnessSpec, LinearScorer, accuracy_risk, ddp,
                            deo, predictions)
from fairnoise.errors import (EmptySlice, InfeasibleWarning, OutOfRangeWeight,
                              ValidationError)
from fairnoise.fairtrain import (TrainConfig, _clean_conditionals_from_corrupted,
                                 conservative_half_tolerance, load_model,
                                 mean_diff_from_reduction,
                                 reduction_constraint_value, save_model,
                                 train_fair, train_fair_noisy)
from fairnoise.noise import (CCNNoise, EOConditionalNoise, MCNoise,
                             corrupt_population, inject_ccn, scale_tolerance)

from _random_cases import (random_dataset, random_population, random_scorer,
                           v1_model_text)

DP = Criterion.DEMOGRAPHIC_PARITY
EO = Criterion.EQUAL_OPPORTUNITY


@pytest.fixture(scope="module")
def synth_data():
    return synth_generate(disparity_synthetic_config())


FAST = TrainConfig(outer_iterations=20, base_iterations=30,
                   presolve_iterations=18, presolve_base_iterations=60)


class TestTrainFair:
    def test_vacuous_constraint_matches_unconstrained_logistic(self, synth_data):
        config = TrainConfig()
        model = train_fair(synth_data, FairnessSpec(DP, tolerance=1.0), config)
        n = len(synth_data)
        coef, b, _, _ = fit_logistic(
            synth_data.features, synth_data.target.astype(float),
            np.full(n, 1.0 / n), reg=config.regularization, max_iter=3000)
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
        assert deo(synth_data, model) <= 0.05 + FAST.feasibility_slack + 0.02

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
        assert a.trace.selected == b.trace.selected == "average"

    def test_best_gap_trace_non_increasing(self, synth_data):
        model = train_fair(synth_data, FairnessSpec(DP, tolerance=0.1), FAST)
        gaps = model.trace.best_gaps
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert model.trace.tau == 0.1
        assert model.trace.tau_internal == pytest.approx(
            0.1 - FAST.boundary_margin)

    @pytest.mark.parametrize("criterion, tau", [(DP, 0.0), (DP, 0.1), (EO, 0.05)])
    def test_gap_trace_matches_the_per_iterate_formula(self, synth_data,
                                                       criterion, tau):
        # After k iterates: the averaged play's penalised risk, minus the
        # best of those k iterates against the averaged duals.
        tr = train_fair(synth_data, FairnessSpec(criterion, tolerance=tau),
                        FAST).trace
        B, t = FAST.dual_bound, tr.tau_internal
        v, r = tr.violations, tr.risks
        for k in range(1, FAST.outer_iterations + 1):
            lp, lm = np.mean(tr.lambda_plus[:k]), np.mean(tr.lambda_minus[:k])
            primal = np.mean(r[:k]) + B * max(0.0, abs(np.mean(v[:k])) - t)
            dual = min(r[j] + lp * (v[j] - t) + lm * (-v[j] - t)
                       for j in range(k))
            assert tr.gaps[k - 1] == pytest.approx(primal - dual, rel=1e-12,
                                                   abs=1e-12)
            assert tr.best_gaps[k - 1] == min(tr.gaps[:k])

    def test_select_best_returns_single_feasible_iterate(self, synth_data):
        config = TrainConfig(outer_iterations=20, base_iterations=30,
                             presolve_iterations=18,
                             presolve_base_iterations=60, select_best=True)
        spec = FairnessSpec(DP, tolerance=0.1)
        model = train_fair(synth_data, spec, config)
        selected = model.trace.selected
        assert isinstance(selected, int)
        assert accuracy_risk(synth_data, model) == model.trace.risks[selected]
        assert ddp(synth_data, model) <= 0.1 + config.feasibility_slack

    def test_infeasible_warns_and_returns_least_violating(self, synth_data):
        # a dual bound this small cannot push the violation to zero
        config = TrainConfig(outer_iterations=5, base_iterations=30,
                             presolve_iterations=5,
                             presolve_base_iterations=40,
                             dual_bound=0.05, boundary_margin=0.0,
                             feasibility_slack=0.0)
        with pytest.warns(InfeasibleWarning):
            model = train_fair(synth_data, FairnessSpec(DP, tolerance=0.0),
                               config)
        viols = model.trace.violations
        assert model.trace.selected == int(np.argmin(np.abs(viols)))
        assert (accuracy_risk(synth_data, model)
                == model.trace.risks[model.trace.selected])
        assert not model.trace.feasible


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
        from fairnoise.noise import ccn_to_mc_from_corrupted
        mc, _ = ccn_to_mc_from_corrupted(CCNNoise(0.15, 0.15),
                                         corrupted.base_rate())
        assert model.trace.tau == pytest.approx(
            scale_tolerance(0.2, mc), abs=1e-12)
        assert model.trace.noise_used == (0.15, 0.15)

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


class TestCleanConditionalRecovery:
    def test_recovers_clean_rates_from_exact_corruption(self):
        # the corrupted population's group-conditional target rates invert
        # exactly back to the clean conditionals
        rng = np.random.default_rng(17)
        for _ in range(20):
            pop = random_population(rng, require_all_cells=True)
            noise = MCNoise(rng.random() * 0.5, rng.random() * 0.4)
            corr = corrupt_population(pop, noise, float(rng.uniform(0.1, 0.9)))
            q1, q0 = _clean_conditionals_from_corrupted(noise, corr)
            assert q1 == pytest.approx(pop.target_rate_given_sensitive(1),
                                       abs=1e-10)
            assert q0 == pytest.approx(pop.target_rate_given_sensitive(0),
                                       abs=1e-10)


class TestReductionConstraint:
    def test_constant_scorer(self):
        rng = np.random.default_rng(2)
        data = random_dataset(rng)
        assert reduction_constraint_value(data, ConstantScorer(1.0)) == 0.0

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
            value = reduction_constraint_value(data, scorer, criterion=EO)
            y1 = data.subset(data.target == 1)
            pi = y1.base_rate()
            gap = deo(data, scorer, FairnessLoss.PREDICT_NONPOSITIVE)
            assert value == pytest.approx(max(pi, 1 - pi) * gap, abs=1e-12)

    def test_missing_group_raises(self):
        data = Dataset(np.zeros((4, 1)), [0, 0, 0, 0], [0, 1, 0, 1])
        with pytest.raises(EmptySlice):
            reduction_constraint_value(data, ConstantScorer(1.0))


class TestMeanDiffFromReduction:
    def test_worked_values(self):
        assert mean_diff_from_reduction(0.25, 0.5) == 0.5
        assert mean_diff_from_reduction(0.0, 0.7) == 0.0

    def test_round_trip_with_constraint_value(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            data = random_dataset(rng)
            scorer = random_scorer(rng, data.dimension)
            pi = data.base_rate()
            value = reduction_constraint_value(data, scorer)
            assert mean_diff_from_reduction(value, max(pi, 1 - pi)) == \
                pytest.approx(ddp(data, scorer), abs=1e-12)

    def test_out_of_range_weight(self):
        with pytest.raises(OutOfRangeWeight):
            mean_diff_from_reduction(0.2, 0.4)
        with pytest.raises(OutOfRangeWeight):
            mean_diff_from_reduction(0.2, 1.2)


class TestConservativeHalfTolerance:
    def test_values(self):
        assert conservative_half_tolerance(0.2, MCNoise(0.15, 0.15)) == \
            pytest.approx(0.07, abs=1e-12)
        assert conservative_half_tolerance(0.3, MCNoise(0.0, 0.0)) == \
            pytest.approx(0.15, abs=1e-15)

    def test_exactly_half_the_scaled_tolerance(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = rng.random() * 0.6
            b = rng.random() * (0.95 - a)
            tau = rng.random()
            noise = MCNoise(a, b)
            assert conservative_half_tolerance(tau, noise) == \
                pytest.approx(0.5 * scale_tolerance(tau, noise), abs=1e-15)


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
        assert np.array_equal(loaded.predict(X), model.predict(X))

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a model\n")
        with pytest.raises(ValidationError):
            load_model(path)


class TestFairClassifierInvariants:
    """Version 1 model files hold a weighted ensemble; loading checks the
    weights and collapses the members into one linear scorer."""

    def test_weights_must_sum_to_one(self, tmp_path):
        path = tmp_path / "v1.txt"
        for weights in ([0.5, 0.6], [1.5, -0.5]):
            path.write_text(v1_model_text(weights, [[0.0, 0.0]] * 2, [0.0, 0.0]))
            with pytest.raises(ValidationError, match="weights"):
                load_model(path)

    def test_ensemble_score_is_weighted_average(self, tmp_path):
        path = tmp_path / "v1.txt"
        path.write_text(v1_model_text([0.25, 0.75], [[1.0, 0.0], [0.0, 2.0]],
                                      [1.0, -1.0]))
        clf = load_model(path)
        X = np.array([[2.0, 3.0]])
        want = 0.25 * (2.0 + 1.0) + 0.75 * (6.0 - 1.0)
        assert clf.scores(X)[0] == pytest.approx(want, abs=1e-15)
        assert np.array_equal(clf.coef, [0.25, 1.5])
        assert clf.intercept == -0.5

    def test_trained_v1_file_collapses_bitwise(self):
        # Written by the version 1 writer from a real training (8 averaged
        # iterates); the expected scorer is what that version computed.
        path = Path(__file__).parent / "data" / "model_v1.txt"
        rows = [[float(v) for v in line.split()]
                for line in path.read_text().splitlines()[3:]]
        w = np.array([row[0] for row in rows])
        b = np.array([row[1] for row in rows])
        C = np.array([row[2:] for row in rows])
        clf = load_model(path)
        assert np.array_equal(clf.coef, w @ C)
        assert clf.intercept == float(w @ b)
        assert [float(x).hex() for x in clf.coef] == [
            "0x1.d6233386dae10p-2", "0x1.b24c363a4715cp-4",
            "-0x1.768767f5678c6p-2", "-0x1.596e301ebd0b1p-5"]
        assert float(clf.intercept).hex() == "-0x1.6e4bcfad73416p-2"

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


class TestClassifierAgnosticWrapper:
    def test_custom_trainer_receives_scaled_spec(self, synth_data):
        seen = {}

        def spy_trainer(data, spec, config):
            seen["tolerance"] = spec.tolerance
            return train_fair(data, spec, config)

        spec = FairnessSpec(DP, tolerance=0.2)
        model = train_fair_noisy(synth_data, spec, MCNoise(0.15, 0.15), FAST,
                                 trainer=spy_trainer)
        assert seen["tolerance"] == pytest.approx(0.14, abs=1e-12)
        assert model.trace.tau == pytest.approx(0.14, abs=1e-12)
