"""Noise-rate estimator tests: calibrated posterior and anchor-point
quantile extrema."""

import numpy as np
import pytest

from fairnoise import estimation
from fairnoise.bench import anchor_synthetic_config, synth_generate
from fairnoise.core import Dataset
from fairnoise.errors import (DegenerateEstimateWarning, EmptySlice,
                              NonConvergenceWarning, ValidationError)
from fairnoise.estimation import (ccn_design, estimate_ccn_rates,
                                  estimate_eo_rates, fit_posterior)
from fairnoise.noise import CCNNoise, ccn_to_mc, inject_ccn, mc_to_eo


def anchor_data(n=20000, seed=3):
    return synth_generate(anchor_synthetic_config(n=n, seed=seed))


def corrupted_anchor(rho_plus, rho_minus, n=20000, seed=3, inject_seed=100):
    data = anchor_data(n, seed)
    return data, inject_ccn(data, CCNNoise(rho_plus, rho_minus), inject_seed)


class TestFitPosterior:
    def test_separable_data_has_low_heldout_logloss(self):
        rng = np.random.default_rng(0)
        n = 4000
        a = rng.integers(0, 2, n)
        X = np.column_stack([a * 2.0 - 1.0 + rng.normal(0, 0.05, n),
                             rng.normal(0, 1, n)])
        model = fit_posterior(X[: n // 2], a[: n // 2])
        held = X[n // 2:], a[n // 2:]
        eta = model.predict_proba(held[0])
        t = held[1]
        logloss = float(np.mean(-t * np.log(eta) - (1 - t) * np.log(1 - eta)))
        assert logloss < 0.1

    def test_no_signal_predicts_base_rate(self):
        rng = np.random.default_rng(1)
        n = 5000
        a = (rng.random(n) < 0.35).astype(int)
        X = ccn_design(Dataset(rng.normal(0, 1, (n, 3)), a,
                               rng.integers(0, 2, n)))
        eta = fit_posterior(X, a).predict_proba(X)
        assert np.all(np.abs(eta - a.mean()) <= 0.05)

    def test_constant_features_give_exact_base_rate(self):
        a = np.array([1, 0, 0, 1, 0, 0, 0, 1])
        X = ccn_design(Dataset(np.ones((8, 2)), a, np.zeros(8, dtype=int)))
        eta = fit_posterior(X, a).predict_proba(X)
        assert np.all(eta == a.mean())

    def test_unmet_tolerance_warns_and_reports_no_convergence(
            self, monkeypatch):
        # no fit reaches a gradient norm of 0, so this one stops at its cap
        monkeypatch.setattr(estimation, "_GRAD_TOL", 0.0)
        data = anchor_data(n=2000)
        with pytest.warns(NonConvergenceWarning,
                          match="posterior fit stopped after"):
            model = fit_posterior(ccn_design(data), data.sensitive)
        assert model.converged is False

    def test_empty_y1_slice(self):
        data = Dataset(np.zeros((3, 1)), [0, 1, 0], [0, 0, 0])
        with pytest.raises(EmptySlice, match="Y=1 slice is empty"):
            estimate_eo_rates(data)

    def test_empty_design(self):
        with pytest.raises(EmptySlice, match="cannot fit a posterior"):
            fit_posterior(np.zeros((0, 2)), [])

    @pytest.mark.parametrize("group", [0, 1])
    def test_one_group_rejected(self, group):
        with pytest.raises(EmptySlice,
                           match="^both apparent groups must be present$"):
            fit_posterior(np.arange(8.0).reshape(4, 2), [group] * 4)

    @pytest.mark.parametrize("X, sensitive", [
        (np.zeros((4, 2)), [0, 1, 0]),
        (np.zeros((3, 2)), [0, 1, 0, 1]),
        (np.zeros(3), [0, 1, 0]),
        (np.zeros((3, 2, 1)), [0, 1, 0]),
        (np.zeros((3, 2)), np.zeros((3, 1))),
        # malformed values, not shapes
        pytest.param([[0.], [1.], [2.], [3.]], [0, 2, 5, 1],
                     id="nonbinary_sensitive"),
        pytest.param([[0.], [np.nan], [2.], [3.]], [0, 1, 0, 1],
                     id="nonfinite_X"),
    ])
    def test_design_shape_mismatch_rejected(self, X, sensitive):
        with pytest.raises(ValidationError, match="one row per sensitive|"
                           "sensitive entries must be 0 or 1|X must be finite"):
            fit_posterior(X, sensitive)

    def test_outputs_clamped(self):
        rng = np.random.default_rng(2)
        n = 2000
        a = rng.integers(0, 2, n)
        X = (a * 20.0 - 10.0).reshape(-1, 1) + rng.normal(0, 0.01, (n, 1))
        eta = fit_posterior(X, a).predict_proba(X)
        assert eta.min() >= 1e-6 and eta.max() <= 1 - 1e-6

    def test_fit_metadata_recorded(self):
        data = anchor_data(n=3000)
        model = fit_posterior(ccn_design(data), data.sensitive)
        assert model.iterations >= 1
        assert model.converged in (True, False)


class TestEstimateCcnRates:
    def test_clean_anchor_data(self):
        _, corr = corrupted_anchor(0.0, 0.0)
        est = estimate_ccn_rates(corr)
        assert est.rho_plus <= 0.03 and est.rho_minus <= 0.03

    def test_symmetric_noise(self):
        _, corr = corrupted_anchor(0.2, 0.2)
        est = estimate_ccn_rates(corr)
        assert abs(est.rho_plus - 0.2) <= 0.05
        assert abs(est.rho_minus - 0.2) <= 0.05

    def test_pu_noise(self):
        _, corr = corrupted_anchor(0.0, 0.2)
        est = estimate_ccn_rates(corr)
        assert est.rho_plus <= 0.05
        assert abs(est.rho_minus - 0.2) <= 0.05

    def test_estimates_stay_valid_and_flag_degenerate_inputs(self):
        # constant features force a flat posterior at the base rate, which
        # implies rho+ + rho- = 1 and must be clamped with a warning
        rng = np.random.default_rng(3)
        n = 4000
        data = Dataset(np.ones((n, 2)), rng.integers(0, 2, n),
                       np.zeros(n, dtype=int))
        with pytest.warns(DegenerateEstimateWarning):
            est = estimate_ccn_rates(data)
        assert est.rho_plus + est.rho_minus < 1.0

    def test_noisy_featureless_estimates_stay_valid(self):
        rng = np.random.default_rng(3)
        n = 4000
        data = Dataset(rng.normal(0, 1, (n, 2)), rng.integers(0, 2, n),
                       rng.integers(0, 2, n))
        est = estimate_ccn_rates(data)
        assert est.rho_plus + est.rho_minus < 1.0

    def test_single_group_rejected(self):
        data = Dataset(np.zeros((4, 1)), [1, 1, 1, 1], [0, 1, 0, 1])
        with pytest.raises(EmptySlice):
            estimate_ccn_rates(data)


class TestWarningLocation:
    """A clamped estimate warns at the line that asked for it."""

    @pytest.mark.parametrize("estimate", [estimate_ccn_rates,
                                          estimate_eo_rates])
    def test_degenerate_estimate_names_the_caller(self, estimate):
        # constant features force a flat posterior, which must be clamped
        rng = np.random.default_rng(3)
        n = 4000
        data = Dataset(np.ones((n, 2)), rng.integers(0, 2, n),
                       np.ones(n, dtype=int))
        with pytest.warns(DegenerateEstimateWarning) as caught:
            estimate(data)
        assert [w.filename for w in caught] == [__file__]


class TestEstimateEoRates:
    def test_clean_data(self):
        _, corr = corrupted_anchor(0.0, 0.0)
        est = estimate_eo_rates(corr)
        assert est.alpha_prime <= 0.05 and est.beta_prime <= 0.05

    def test_matches_population_conversion(self):
        clean, corr = corrupted_anchor(0.15, 0.15)
        est = estimate_eo_rates(corr)
        mc, _ = ccn_to_mc(CCNNoise(0.15, 0.15), clean.base_rate())
        want = mc_to_eo(mc, clean.target_rate_given_sensitive(1),
                        clean.target_rate_given_sensitive(0))
        got = est.alpha_prime + est.beta_prime
        assert abs(got - (want.alpha_prime + want.beta_prime)) <= 0.08

    def test_missing_group_in_y1_slice(self):
        data = Dataset(np.zeros((4, 1)), [0, 1, 0, 0], [1, 0, 1, 1])
        with pytest.raises(EmptySlice):
            estimate_eo_rates(data)


class TestEstimatorProperties:
    def test_error_non_increasing_in_sample_size(self):
        sizes = (1000, 10_000, 100_000)
        errors = {n: [] for n in sizes}
        for seed in range(10):
            for n in sizes:
                data = synth_generate(anchor_synthetic_config(n=n, seed=50 + seed))
                corr = inject_ccn(data, CCNNoise(0.2, 0.2), 900 + seed)
                est = estimate_ccn_rates(corr)
                errors[n].append(abs(est.rho_plus - 0.2) + abs(est.rho_minus - 0.2))
        means = [np.mean(errors[n]) for n in sizes]
        assert means[0] >= means[1] >= means[2]

    def test_scaled_tolerance_lipschitz_in_estimates(self):
        # numeric Lipschitz bound from differentiating the conversion
        from fairnoise.noise import scale_tolerance
        tau, pi_corr = 0.2, 0.55
        grid = np.linspace(0.02, 0.3, 8)

        def tau_prime(rp, rm):
            from fairnoise.noise import ccn_to_mc_from_corrupted
            mc, _ = ccn_to_mc_from_corrupted(CCNNoise(rp, rm), pi_corr)
            return scale_tolerance(tau, mc)

        eps = 1e-6
        slopes = []
        for rp in grid:
            for rm in grid:
                slopes.append(abs(tau_prime(rp + eps, rm) - tau_prime(rp, rm)) / eps)
                slopes.append(abs(tau_prime(rp, rm + eps) - tau_prime(rp, rm)) / eps)
        C = max(slopes) / tau
        rng = np.random.default_rng(4)
        for _ in range(200):
            rp, rm = rng.uniform(0.02, 0.3, 2)
            dp_, dm = rng.uniform(-0.02, 0.02, 2)
            lhs = abs(tau_prime(rp + dp_, rm + dm) - tau_prime(rp, rm))
            assert lhs <= tau * C * (abs(dp_) + abs(dm)) * 1.02 + 1e-12


class TestPinnedOutputs:
    """Both rate estimates on one seeded corrupted anchor sample, pinned bit
    for bit (as ``float.hex``): a change to the posterior fit or its design
    matrix that moves the last digit fails here, not only in the sweep."""

    def test_rates_pinned(self):
        _, corr = corrupted_anchor(0.2, 0.1)
        ccn = estimate_ccn_rates(corr)
        eo = estimate_eo_rates(corr)
        assert [ccn.rho_plus.hex(), ccn.rho_minus.hex()] == [
            "0x1.810624dd2f1a8p-3", "0x1.6c8b439581062p-4"]
        assert [eo.alpha_prime.hex(), eo.beta_prime.hex()] == [
            "0x1.32733e65a6726p-4", "0x1.c380e7e17d604p-3"]


class TestDeterminism:
    def test_repeat_fit_identical(self):
        _, corr = corrupted_anchor(0.1, 0.2, n=3000)
        a = estimate_ccn_rates(corr)
        b = estimate_ccn_rates(corr)
        assert (a.rho_plus, a.rho_minus) == (b.rho_plus, b.rho_minus)
