"""Noise model tests: injection, conversions checked against exact
corruption, scaling, and the differential-privacy calibration."""

import math

import numpy as np
import pytest

from fairnoise.core import Dataset, FairnessLoss
from fairnoise.errors import (DegenerateBaseRate, DegenerateConditional,
                              NonPositiveEpsilon, OutOfRangeRho,
                              ValidationError)
from fairnoise.noise import (CCNNoise, EOConditionalNoise, MCNoise,
                             ccn_to_mc, ccn_to_mc_from_corrupted,
                             dp_epsilon_for_rho, dp_rho_for_epsilon,
                             inject_ccn, mc_to_eo, scale_tolerance)

import _oracles as oracle
from _random_cases import random_population, random_scorer

PNP = FairnessLoss.PREDICT_NONPOSITIVE
ZO = FairnessLoss.ZERO_ONE


def two_point_ccn_oracle(rho_plus, rho_minus, pi_a):
    """Exact enumeration of CCN corruption on a two-point population.

    Point x1 carries the true A=1 group, x0 the true A=0 group. Returns
    (alpha, beta, pi_corr) read off the corrupted mixtures, independent
    of the closed-form converter.
    """
    # A_corr = 1 receives the unflipped A=1 mass and the flipped A=0 mass
    m1_from_1 = pi_a * (1.0 - rho_plus)
    m1_from_0 = (1.0 - pi_a) * rho_minus
    m0_from_1 = pi_a * rho_plus
    m0_from_0 = (1.0 - pi_a) * (1.0 - rho_minus)
    pi_corr = m1_from_1 + m1_from_0
    alpha = m1_from_0 / pi_corr            # weight of clean A=0 inside corr A=1
    beta = m0_from_1 / (1.0 - pi_corr)     # weight of clean A=1 inside corr A=0
    return alpha, beta, pi_corr


def group_flags_dataset(n, pi_a, seed):
    """Dataset whose single feature records the true group, so mixture
    proportions of injected corruption are measurable."""
    rng = np.random.default_rng(seed)
    a = (rng.random(n) < pi_a).astype(int)
    return Dataset(a.reshape(-1, 1).astype(float), a, np.zeros(n, dtype=int))


class TestNoiseParams:
    def test_rate_sum_must_stay_below_one(self):
        with pytest.raises(ValidationError):
            MCNoise(0.6, 0.4)
        with pytest.raises(ValidationError):
            CCNNoise(0.5, 0.5)
        with pytest.raises(ValidationError):
            EOConditionalNoise(-0.1, 0.2)
        assert MCNoise(0.6, 0.39).rate_sum == pytest.approx(0.99)



class TestInjectCcn:
    def test_zero_noise_is_identity(self):
        data = group_flags_dataset(500, 0.4, 1)
        out = inject_ccn(data, CCNNoise(0.0, 0.0), 9)
        assert np.array_equal(out.sensitive, data.sensitive)
        assert np.array_equal(out.features, data.features)

    def test_high_flip_rate_concentrates(self):
        data = group_flags_dataset(100_000, 0.5, 2)
        out = inject_ccn(data, CCNNoise(0.99, 0.0), 3)
        ones = data.sensitive == 1
        frac = (out.sensitive[ones] != 1).mean()
        assert abs(frac - 0.99) <= 0.01
        assert np.array_equal(out.sensitive[~ones], data.sensitive[~ones])

    def test_flip_fraction_binomial(self):
        data = Dataset(np.zeros((100_000, 1)), np.zeros(100_000, dtype=int),
                       np.zeros(100_000, dtype=int))
        out = inject_ccn(data, CCNNoise(0.0, 0.2), 4)
        assert abs(out.sensitive.mean() - 0.2) <= 0.012

    def test_deterministic_per_seed(self):
        data = group_flags_dataset(1000, 0.5, 5)
        a = inject_ccn(data, CCNNoise(0.3, 0.1), 11)
        b = inject_ccn(data, CCNNoise(0.3, 0.1), 11)
        c = inject_ccn(data, CCNNoise(0.3, 0.1), 12)
        assert np.array_equal(a.sensitive, b.sensitive)
        assert not np.array_equal(a.sensitive, c.sensitive)

    def test_negative_seed_rejected(self):
        data = group_flags_dataset(10, 0.5, 5)
        with pytest.raises(ValidationError, match="seed"):
            inject_ccn(data, CCNNoise(0.3, 0.1), -1)


class TestInjectPu:
    # censoring (PU) is CCN injection with rho+ = 0
    def test_zero_rate_identity(self):
        data = group_flags_dataset(300, 0.5, 6)
        out = inject_ccn(data, CCNNoise(0.0, 0.0), 7)
        assert np.array_equal(out.sensitive, data.sensitive)

    def test_censoring_orientation(self):
        # the benchmark regime: rho+ = 0, rho- = 0.2; no true A=1 is hidden
        data = group_flags_dataset(20_000, 0.5, 9)
        out = inject_ccn(data, CCNNoise(0.0, 0.2), 14)
        ones = data.sensitive == 1
        assert np.array_equal(out.sensitive[ones], data.sensitive[ones])
        assert (out.sensitive[~ones] == 1).mean() == pytest.approx(0.2, abs=0.02)


def pop_cells(pop):
    return {(tuple(x), a, y): m for x, a, y, m in pop.cells()}


class TestCorruptPopulation:
    def test_identity_corruption(self):
        rng = np.random.default_rng(21)
        pop = random_population(rng)
        out = oracle.corrupt(pop, MCNoise(0.0, 0.0), pop.base_rate())
        got, want = pop_cells(out), pop_cells(pop)
        assert set(got) == set(want)
        for key in want:
            assert got[key] == pytest.approx(want[key], abs=1e-12)

    def test_two_cell_hand_expansion(self):
        pop = oracle.Population([[0.0], [1.0]], [0, 1], [0, 1], [0.4, 0.6])
        out = oracle.corrupt(pop, MCNoise(0.3, 0.1), 0.5)
        got = pop_cells(out)
        # corrupted A=1 conditional: 0.7 on the old A=1 cell, 0.3 on A=0
        assert got[((1.0,), 1, 1)] == pytest.approx(0.5 * 0.7, abs=1e-12)
        assert got[((0.0,), 1, 0)] == pytest.approx(0.5 * 0.3, abs=1e-12)
        # corrupted A=0 conditional: 0.1 on the old A=1 cell, 0.9 on A=0
        assert got[((1.0,), 0, 1)] == pytest.approx(0.5 * 0.1, abs=1e-12)
        assert got[((0.0,), 0, 0)] == pytest.approx(0.5 * 0.9, abs=1e-12)

    def test_scaling_identity_for_ddp(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            pop = random_population(rng)
            alpha, beta = rng.random() * 0.6, rng.random() * 0.35
            noise = MCNoise(alpha, beta)
            target = float(rng.uniform(0.05, 0.95))
            corr = oracle.corrupt(pop, noise, target)
            scorer = random_scorer(rng, pop.dimension)
            for loss in (PNP, ZO):
                assert oracle.ddp(corr, scorer, loss) == pytest.approx(
                    (1.0 - alpha - beta) * oracle.ddp(pop, scorer, loss),
                    abs=1e-12)

    def test_eo_scaling_with_converted_rates(self):
        rng = np.random.default_rng(24)
        for _ in range(25):
            pop = random_population(rng, require_all_cells=True)
            noise = MCNoise(rng.random() * 0.5, rng.random() * 0.4)
            eo = mc_to_eo(noise, pop.target_rate_given_sensitive(1),
                          pop.target_rate_given_sensitive(0))
            corr = oracle.corrupt(pop, noise, float(rng.uniform(0.1, 0.9)))
            scorer = random_scorer(rng, pop.dimension)
            assert oracle.deo(corr, scorer) == pytest.approx(
                (1.0 - eo.alpha_prime - eo.beta_prime) * oracle.deo(pop, scorer),
                abs=1e-12)

    def test_condition_after_corrupt_matches_eo_mixture(self):
        rng = np.random.default_rng(25)
        pop = random_population(rng, require_all_cells=True)
        noise = MCNoise(0.25, 0.15)
        eo = mc_to_eo(noise, pop.target_rate_given_sensitive(1),
                      pop.target_rate_given_sensitive(0))
        corr = oracle.corrupt(pop, noise, 0.45)
        clean11 = oracle.condition(pop, sensitive=1, target=1)
        clean01 = oracle.condition(pop, sensitive=0, target=1)
        want = pop_cells(oracle.mix(clean11, clean01, 1.0 - eo.alpha_prime))
        got = pop_cells(oracle.condition(corr, sensitive=1, target=1))
        # conditioned corrupted cells keep the corrupted group label
        got = {(k[0], 1, k[2]): v for k, v in got.items()}
        want = {(k[0], 1, k[2]): v for k, v in want.items()}
        assert set(got) == set(want)
        for key in want:
            assert got[key] == pytest.approx(want[key], abs=1e-12)


class TestCcnToMc:
    def test_zero_noise(self):
        mc, pi_corr = ccn_to_mc(CCNNoise(0.0, 0.0), 0.3)
        assert (mc.alpha, mc.beta, pi_corr) == (0.0, 0.0, 0.3)

    def test_symmetric_case_against_oracle(self):
        mc, pi_corr = ccn_to_mc(CCNNoise(0.15, 0.15), 0.5)
        a, b, pc = two_point_ccn_oracle(0.15, 0.15, 0.5)
        assert pi_corr == pytest.approx(pc, abs=1e-15)
        assert mc.alpha == pytest.approx(a, abs=1e-15)
        assert mc.beta == pytest.approx(b, abs=1e-15)
        assert (pi_corr, mc.alpha, mc.beta) == (0.5, 0.15, 0.15)
        assert 1.0 - mc.alpha - mc.beta == pytest.approx(0.7, abs=1e-12)

    def test_pu_case_against_oracle(self):
        mc, pi_corr = ccn_to_mc(CCNNoise(0.0, 0.2), 0.5)
        a, b, pc = two_point_ccn_oracle(0.0, 0.2, 0.5)
        assert pi_corr == pytest.approx(0.6, abs=1e-15) and pc == pi_corr
        assert mc.alpha == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert mc.alpha == pytest.approx(a, abs=1e-15)
        assert mc.beta == 0.0 == b

    def test_inverse_from_corrupted(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            rp, rm = rng.random() * 0.5, rng.random() * 0.45
            if rp + rm >= 0.95:
                continue
            pi_a = float(rng.uniform(0.05, 0.95))
            noise = CCNNoise(rp, rm)
            mc, pi_corr = ccn_to_mc(noise, pi_a)
            mc2, pi_back = ccn_to_mc_from_corrupted(noise, pi_corr)
            assert pi_back == pytest.approx(pi_a, abs=1e-10)
            assert mc2.alpha == pytest.approx(mc.alpha, abs=1e-10)
            assert mc2.beta == pytest.approx(mc.beta, abs=1e-10)

    def test_degenerate_base_rate(self):
        with pytest.raises(DegenerateBaseRate):
            ccn_to_mc(CCNNoise(0.1, 0.1), 0.0)
        with pytest.raises(DegenerateBaseRate):
            ccn_to_mc_from_corrupted(CCNNoise(0.0, 0.4), 0.3)

    def test_sampling_agreement(self):
        # empirical mixture proportions at n = 1e5 match alpha, beta
        for rp, rm in ((0.15, 0.15), (0.0, 0.2)):
            data = group_flags_dataset(100_000, 0.5, 41)
            out = inject_ccn(data, CCNNoise(rp, rm), 42)
            mc, _ = ccn_to_mc(CCNNoise(rp, rm), float(data.sensitive.mean()))
            corr1 = out.sensitive == 1
            alpha_hat = (data.sensitive[corr1] == 0).mean()
            beta_hat = (data.sensitive[~corr1] == 1).mean()
            assert abs(alpha_hat - mc.alpha) <= 0.015
            assert abs(beta_hat - mc.beta) <= 0.015


class TestMcToEo:
    def test_equal_conditionals_collapse(self):
        eo = mc_to_eo(MCNoise(0.23, 0.11), 0.4, 0.4)
        assert eo.alpha_prime == pytest.approx(0.23, abs=1e-15)
        assert eo.beta_prime == pytest.approx(0.11, abs=1e-15)

    def test_worked_example(self):
        eo = mc_to_eo(MCNoise(0.2, 0.0), 0.5, 0.25)
        assert eo.alpha_prime == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert eo.beta_prime == 0.0

    def test_worked_example_against_population_enumeration(self):
        # four-cell population with P[Y=1|A=1]=0.5, P[Y=1|A=0]=0.25
        pop = oracle.Population([[0.0], [1.0], [2.0], [3.0]], [1, 1, 0, 0],
                                [1, 0, 1, 0], [0.25, 0.25, 0.125, 0.375])
        noise = MCNoise(0.2, 0.0)
        corr = oracle.corrupt(pop, noise, 0.5)
        y1 = oracle.condition(corr, target=1)
        mass_a1 = float(y1.mass[y1.sensitive == 1].sum())
        # inside the corrupted (A=1, Y=1) slice, the clean-A=0 cell (x=2)
        # carries exactly alpha' of the conditional mass
        a1 = oracle.condition(corr, sensitive=1, target=1)
        idx = [i for i in range(len(a1.mass)) if a1.features[i][0] == 2.0]
        eo = mc_to_eo(noise, 0.5, 0.25)
        assert a1.mass[idx[0]] == pytest.approx(eo.alpha_prime, abs=1e-12)
        assert mass_a1 > 0

    def test_zero_noise(self):
        eo = mc_to_eo(MCNoise(0.0, 0.0), 0.7, 0.2)
        assert (eo.alpha_prime, eo.beta_prime) == (0.0, 0.0)

    def test_rate_sum_guarantee(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            alpha = rng.random() * 0.95
            beta = rng.random() * (0.95 - alpha)
            q1, q0 = rng.uniform(0.02, 0.98, 2)
            eo = mc_to_eo(MCNoise(alpha, beta), q1, q0)
            assert eo.alpha_prime + eo.beta_prime < 1.0

    def test_degenerate_conditional(self):
        with pytest.raises(DegenerateConditional):
            mc_to_eo(MCNoise(0.1, 0.1), 1.0, 0.5)


class TestScaleTolerance:
    def test_values(self):
        assert scale_tolerance(0.3, MCNoise(0.0, 0.0)) == 0.3
        assert scale_tolerance(0.2, MCNoise(0.15, 0.15)) == pytest.approx(0.14, abs=1e-12)
        assert scale_tolerance(0.1, MCNoise(0.6, 0.39)) == pytest.approx(0.001, abs=1e-12)
        assert scale_tolerance(0.2, EOConditionalNoise(0.25, 0.25)) == pytest.approx(0.1)

    def test_monotonicity(self):
        taus = np.linspace(0.0, 1.0, 9)
        vals = [scale_tolerance(t, MCNoise(0.2, 0.2)) for t in taus]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        sums = [(0.0, 0.0), (0.1, 0.1), (0.3, 0.2), (0.5, 0.4)]
        vals = [scale_tolerance(0.5, MCNoise(a, b)) for a, b in sums]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert scale_tolerance(0.0, MCNoise(0.3, 0.3)) == 0.0

    def test_rejects_other_types(self):
        with pytest.raises(ValidationError):
            scale_tolerance(0.1, CCNNoise(0.1, 0.1))

    def test_rejects_negative_and_nan_tau(self):
        for tau in (-0.1, float("nan")):
            with pytest.raises(ValidationError):
                scale_tolerance(tau, MCNoise(0.1, 0.1))
        assert scale_tolerance(float("inf"), MCNoise(0.1, 0.1)) == float("inf")


class TestDpCalibration:
    def test_paper_anchor(self):
        assert dp_rho_for_epsilon(1.73) == pytest.approx(0.1506, abs=5e-4)
        assert dp_epsilon_for_rho(0.15) == pytest.approx(1.7346, abs=0.005)

    def test_limits(self):
        assert dp_rho_for_epsilon(50.0) < 1e-20
        assert dp_rho_for_epsilon(1.73) == 1.0 / (math.exp(1.73) + 1.0)
        assert 0.0 < dp_rho_for_epsilon(709.0) < 1e-300
        assert dp_rho_for_epsilon(1000.0) == dp_rho_for_epsilon(math.inf) == 0.0
        assert dp_rho_for_epsilon(1.0) == pytest.approx(1.0 / (math.e + 1.0),
                                                        abs=1e-15)
        assert dp_epsilon_for_rho(0.499999) < 1e-5

    def test_round_trip(self):
        for rho in np.arange(0.05, 0.46, 0.05):
            assert dp_rho_for_epsilon(dp_epsilon_for_rho(rho)) == pytest.approx(
                rho, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(NonPositiveEpsilon):
            dp_rho_for_epsilon(0.0)
        with pytest.raises(OutOfRangeRho):
            dp_epsilon_for_rho(0.5)
        with pytest.raises(OutOfRangeRho):
            dp_epsilon_for_rho(0.6)
        with pytest.raises(OutOfRangeRho):
            dp_epsilon_for_rho(0.0)
