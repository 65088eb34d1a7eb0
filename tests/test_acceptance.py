"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time
from dataclasses import replace

import numpy as np

from fairnoise._logit import fit_logistic
from fairnoise.bench import (ExperimentConfig, default_experiment_config,
                             anchor_synthetic_config,
                             disparity_synthetic_config, emit_results,
                             run_sweep, synth_generate)
from fairnoise.core import (Criterion, Dataset, FairnessLoss, FairnessSpec,
                            LinearScorer, accuracy_risk, ddp)
from fairnoise.estimation import estimate_ccn_rates
from fairnoise.fairtrain import _REGULARIZATION, TrainConfig, train_fair
from fairnoise.noise import (CCNNoise, MCNoise, ccn_to_mc, dp_epsilon_for_rho,
                             dp_rho_for_epsilon, inject_ccn, mc_to_eo)

import _oracles as oracle
from _random_cases import random_population, random_scorer


def report(number, ok, detail):
    print(f"[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_tolerance_scaling_identity():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        pop = random_population(rng, require_all_cells=True)
        alpha = float(rng.random() * 0.95)
        beta = float(rng.random() * (0.95 - alpha))
        noise = MCNoise(alpha, beta)
        target = float(rng.uniform(0.02, 0.98))
        corr = oracle.corrupt(pop, noise, target)
        scorer = random_scorer(rng, pop.dimension)
        for loss in (FairnessLoss.PREDICT_NONPOSITIVE, FairnessLoss.ZERO_ONE):
            got = oracle.ddp(corr, scorer, loss)
            want = (1.0 - alpha - beta) * oracle.ddp(pop, scorer, loss)
            worst = max(worst, abs(got - want))
        eo = mc_to_eo(noise, pop.target_rate_given_sensitive(1),
                      pop.target_rate_given_sensitive(0))
        got = oracle.deo(corr, scorer)
        want = (1.0 - eo.alpha_prime - eo.beta_prime) * oracle.deo(pop, scorer)
        worst = max(worst, abs(got - want))
    elapsed = time.time() - start
    report(1, worst <= 1e-12 and elapsed < 5.0,
           f"max deviation {worst:.2e}, {elapsed:.1f}s")


def _cells(pop):
    return {(tuple(x), y): m for x, _, y, m in pop.cells()}


def test_criterion_2_conditional_corruption_identity():
    start = time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(200):
        pop = random_population(rng, require_all_cells=True)
        alpha = float(rng.random() * 0.9)
        beta = float(rng.random() * (0.95 - alpha))
        noise = MCNoise(alpha, beta)
        corr = oracle.corrupt(pop, noise, float(rng.uniform(0.05, 0.95)))
        eo = mc_to_eo(noise, pop.target_rate_given_sensitive(1),
                      pop.target_rate_given_sensitive(0))
        clean11 = oracle.condition(pop, sensitive=1, target=1)
        clean01 = oracle.condition(pop, sensitive=0, target=1)
        for a_corr, w11 in ((1, 1.0 - eo.alpha_prime), (0, eo.beta_prime)):
            got = _cells(oracle.condition(corr, sensitive=a_corr, target=1))
            want = _cells(oracle.mix(clean11, clean01, w11))
            keys = set(got) | set(want)
            for key in keys:
                worst = max(worst, abs(got.get(key, 0.0) - want.get(key, 0.0)))
    elapsed = time.time() - start
    report(2, worst <= 1e-12 and elapsed < 5.0,
           f"max cell-mass deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_ccn_to_mc_consistency():
    worst = 0.0
    for rho_plus in np.linspace(0.0, 0.475, 20):
        for rho_minus in np.linspace(0.0, 0.475, 20):
            for pi_a in np.linspace(0.1, 0.9, 9):
                # brute-force two-point enumeration
                m1 = pi_a * (1.0 - rho_plus) + (1.0 - pi_a) * rho_minus
                alpha_bf = (1.0 - pi_a) * rho_minus / m1
                beta_bf = pi_a * rho_plus / (1.0 - m1)
                mc, pi_corr = ccn_to_mc(CCNNoise(rho_plus, rho_minus), pi_a)
                worst = max(worst, abs(mc.alpha - alpha_bf),
                            abs(mc.beta - beta_bf), abs(pi_corr - m1))
    ok_grid = worst <= 1e-12

    emp_worst = 0.0
    for rho_plus, rho_minus in ((0.15, 0.15), (0.0, 0.2)):
        n = 100_000
        rng = np.random.default_rng(103)
        a = (rng.random(n) < 0.5).astype(int)
        data = Dataset(a.reshape(-1, 1).astype(float), a, np.zeros(n, dtype=int))
        out = inject_ccn(data, CCNNoise(rho_plus, rho_minus), 104)
        mc, _ = ccn_to_mc(CCNNoise(rho_plus, rho_minus), float(a.mean()))
        corr1 = out.sensitive == 1
        emp_worst = max(emp_worst,
                        abs((a[corr1] == 0).mean() - mc.alpha),
                        abs((a[~corr1] == 1).mean() - mc.beta))
    report(3, ok_grid and emp_worst <= 0.015,
           f"grid deviation {worst:.2e}, empirical deviation {emp_worst:.4f}")


def test_criterion_4_dp_calibration():
    eps = dp_epsilon_for_rho(0.15)
    ok_anchor = abs(eps - 1.7346) <= 0.005
    worst = 0.0
    for rho in np.arange(0.05, 0.451, 0.05):
        worst = max(worst, abs(dp_rho_for_epsilon(dp_epsilon_for_rho(rho)) - rho))
    report(4, ok_anchor and worst <= 1e-12,
           f"epsilon(0.15)={eps:.4f}, round-trip deviation {worst:.2e}")


def test_criterion_5_reduction_constraint_identity():
    rng = np.random.default_rng(105)
    worst = 0.0
    bounds_ok = True
    from _random_cases import random_dataset
    for _ in range(100):
        data = random_dataset(rng)
        scorer = random_scorer(rng, data.dimension)
        value = oracle.reduction_constraint_value(data, scorer)
        gap = ddp(data, scorer)
        pi = data.base_rate()
        worst = max(worst, abs(value - max(pi, 1.0 - pi) * gap))
        bounds_ok &= (0.5 * gap - 1e-12 <= value <= gap + 1e-12)
    report(5, worst <= 1e-12 and bounds_ok,
           f"max identity deviation {worst:.2e}, bounds held {bounds_ok}")


def test_criterion_6_trainer_sanity():
    data = synth_generate(disparity_synthetic_config())
    config = TrainConfig()
    start = time.time()
    vacuous = train_fair(data, FairnessSpec(Criterion.DEMOGRAPHIC_PARITY,
                                            tolerance=1.0), config)
    fit_one = time.time() - start
    n = len(data)
    coef, b, _, _ = fit_logistic(data.features, data.target.astype(float),
                                 np.full(n, 1.0 / n), reg=_REGULARIZATION,
                                 max_iter=3000)
    acc_gap = abs(accuracy_risk(data, vacuous)
                  - accuracy_risk(data, LinearScorer(coef, b)))

    start = time.time()
    tight = train_fair(data, FairnessSpec(Criterion.DEMOGRAPHIC_PARITY,
                                          tolerance=0.01), config)
    fit_two = time.time() - start
    tight_ddp = ddp(data, tight)
    ok = acc_gap <= 0.01 and tight_ddp <= 0.05 and max(fit_one, fit_two) < 60.0
    report(6, ok, f"vacuous accuracy gap {acc_gap:.4f}, "
                  f"ddp at tau=0.01 {tight_ddp:.4f}, "
                  f"slowest fit {max(fit_one, fit_two):.1f}s")


def _mean_test_metrics(rows):
    out = {}
    for row in rows:
        if row.split != "test" or row.fairness_violation is None:
            continue
        key = (row.method, row.tau, row.rho_minus_hat)
        out.setdefault(key, []).append((row.fairness_violation, row.error))
    return {k: (float(np.mean([v[0] for v in vs])),
                float(np.mean([v[1] for v in vs])))
            for k, vs in out.items()}


def test_criterion_7_benchmark_trend():
    start = time.time()
    config = default_experiment_config()
    rows = run_sweep(config)
    m = _mean_test_metrics(rows)
    problems = []
    for tau in config.tau_grid:
        cs_v, cs_e = m[("cor_scale", tau, config.rho_minus)]
        _, den_e = m[("denoise", tau, config.rho_minus)]
        if cs_v > tau + 0.03:
            problems.append(f"cor_scale violation {cs_v:.4f} > {tau + 0.03:.3f} "
                            f"at tau={tau}")
        if cs_e > den_e + 0.01:
            problems.append(f"cor_scale error {cs_e:.4f} > denoise {den_e:.4f} "
                            f"+ 0.01 at tau={tau}")
    # Method separation at the small-tau end of the grid. At tau=0.02 the
    # population-level gap is (1/scale - 1) * tau ~ 0.013, below the 0.02
    # threshold for any trainer that also satisfies the tolerance clause,
    # so the separation is asserted at tau=0.05 (see the decisions ledger);
    # the tau=0.02 gap is reported for reference.
    gap_005 = m[("cor", 0.05, None)][0] - m[("cor_scale", 0.05, config.rho_minus)][0]
    gap_002 = m[("cor", 0.02, None)][0] - m[("cor_scale", 0.02, config.rho_minus)][0]
    if gap_005 < 0.02:
        problems.append(f"cor-vs-cor_scale gap {gap_005:.4f} < 0.02 at tau=0.05")
    # the tau=0.1 point of the same regime: the ideal (nocor) method also
    # respects the tolerance and the unscaled method stays separated
    nocor_01 = m[("nocor", 0.1, None)][0]
    gap_01 = m[("cor", 0.1, None)][0] - m[("cor_scale", 0.1, config.rho_minus)][0]
    if nocor_01 > 0.13:
        problems.append(f"nocor violation {nocor_01:.4f} > 0.13 at tau=0.1")
    if gap_01 < 0.02:
        problems.append(f"cor-vs-cor_scale gap {gap_01:.4f} < 0.02 at tau=0.1")
    elapsed = time.time() - start
    if elapsed >= 900:
        problems.append(f"runtime {elapsed:.0f}s >= 900s")
    report(7, not problems,
           f"gap at tau=0.05 {gap_005:+.4f} (tau=0.02 ref {gap_002:+.4f}), "
           f"{elapsed:.0f}s" + ("; " + "; ".join(problems) if problems else ""))


def test_criterion_8_estimate_error_robustness():
    start = time.time()
    config = ExperimentConfig(
        synthetic=disparity_synthetic_config(base_rate=0.5),
        rho_plus=0.0, rho_minus=0.2,
        noise_mode="rho_hat_sweep",
        rho_hat_grid=tuple((0.0, r) for r in (0.1, 0.15, 0.2, 0.25, 0.3)),
        tau_grid=(0.2,), methods=("nocor", "cor_scale"),
        repetitions=3, base_seed=1)
    rows = run_sweep(config)
    m = _mean_test_metrics(rows)
    sweep_vals = [m[("cor_scale", 0.2, r)][0] for r in (0.1, 0.15, 0.2, 0.25, 0.3)]
    value_range = max(sweep_vals) - min(sweep_vals)
    nocor_gap = abs(m[("cor_scale", 0.2, 0.2)][0] - m[("nocor", 0.2, None)][0])
    elapsed = time.time() - start
    ok = value_range <= 0.08 and nocor_gap <= 0.03 and elapsed < 600
    report(8, ok, f"violation range {value_range:.4f}, "
                  f"gap to nocor at true rate {nocor_gap:.4f}, {elapsed:.0f}s")


def test_criterion_9_estimator_accuracy():
    errors = {(0.2, 0.2): [], (0.0, 0.2): []}
    for rates in errors:
        for seed in range(5):
            data = synth_generate(anchor_synthetic_config(n=20_000,
                                                          seed=200 + seed))
            corrupted = inject_ccn(data, CCNNoise(*rates), 300 + seed)
            est = estimate_ccn_rates(corrupted)
            errors[rates].append((abs(est.rho_plus - rates[0]),
                                  abs(est.rho_minus - rates[1])))
    worst = max(float(np.mean([e[i] for e in errs]))
                for errs in errors.values() for i in (0, 1))
    report(9, worst <= 0.05, f"worst mean estimation error {worst:.4f}")


def test_criterion_10_sweep_determinism(tmp_path):
    config = replace(
        default_experiment_config(),
        synthetic=disparity_synthetic_config(n=900, seed=16),
        tau_grid=(0.05, 0.2), repetitions=2,
        train=TrainConfig(outer_iterations=10, base_iterations=25,
                          presolve_iterations=12, presolve_base_iterations=40))
    paths = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        emit_results(run_sweep(config), out)
        paths.append(out)
    same = paths[0].read_bytes() == paths[1].read_bytes()
    same_agg = (tmp_path / "a_agg.csv").read_bytes() == \
        (tmp_path / "b_agg.csv").read_bytes()
    report(10, same and same_agg,
           f"results byte-identical {same}, aggregates byte-identical {same_agg}")
