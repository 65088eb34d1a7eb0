"""Benchmark harness tests: data IO, synthetic generation, oracles and the
sweep protocol."""

import csv
import warnings
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from _random_cases import csv_load_outcome, random_dataset, row_parser_load
from fairnoise import bench
from fairnoise._logit import fit_logistic
from fairnoise.bench import (METHODS, ExperimentConfig, ResultRow,
                             SyntheticConfig, anchor_synthetic_config,
                             default_experiment_config,
                             disparity_synthetic_config, emit_results,
                             load_csv, materialize, mix_populations,
                             read_results, run_sweep,
                             synth_generate, write_csv, _inject_seed,
                             _load_numeric, _sort_key, _split)
from fairnoise.core import (ConstantScorer, Criterion, Dataset,
                            DiscretePopulation, FairnessSpec, LinearScorer,
                            accuracy_risk, ddp, deo, disparity)
from fairnoise.denoise import denoise_ccn
from fairnoise.errors import (EmptyDataset, FairnoiseError, FairnoiseWarning,
                              ParseError, SchemaError, ValidationError)
from fairnoise.estimation import estimate_ccn_rates
from fairnoise.fairtrain import TrainConfig, train_fair, train_fair_noisy
from fairnoise.noise import CCNNoise, ccn_to_mc_from_corrupted, inject_ccn

FAST_TRAIN = TrainConfig(outer_iterations=8, base_iterations=25,
                         presolve_iterations=12, presolve_base_iterations=40)


def small_config(**kw):
    base = dict(
        synthetic=disparity_synthetic_config(n=700, seed=4),
        tau_grid=(0.05, 0.2), methods=("nocor", "cor"), repetitions=2,
        base_seed=3, train=FAST_TRAIN)
    base.update(kw)
    return ExperimentConfig(**base)


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,x1,sensitive,label\n1.0,2.0,0,1\n3.5,-1.0,1,0\n0.0,0.25,1,1\n")
        data = load_csv(p)
        assert len(data) == 3 and data.dimension == 2
        assert list(data.sensitive) == [0, 1, 1]
        assert list(data.target) == [1, 0, 1]
        assert data.features[1, 0] == 3.5

    def test_sensitive_out_of_range(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,sensitive,label\n1.0,2,0\n")
        with pytest.raises(SchemaError):
            load_csv(p)

    def test_missing_cell_location(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,x1,sensitive,label\n1.0,2.0,0,1\n1.0,,0,1\n")
        with pytest.raises(ParseError) as err:
            load_csv(p)
        assert err.value.row == 3 and err.value.column == "x1"

    def test_drop_missing(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,sensitive,label\n1.0,0,1\n,0,1\n2.0,1,0\n")
        data = load_csv(p, drop_missing=True)
        assert len(data) == 2

    def test_non_numeric(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,sensitive,label\nfoo,0,1\n")
        with pytest.raises(ParseError) as err:
            load_csv(p)
        assert err.value.column == "x0"

    def test_missing_required_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,label\n1.0,1\n")
        with pytest.raises(SchemaError):
            load_csv(p)

    def test_header_only_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,sensitive,label\n")
        with pytest.raises(EmptyDataset):
            load_csv(p)

    def test_write_then_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        data = synth_generate(disparity_synthetic_config(n=60, seed=1))
        p = tmp_path / "d.csv"
        write_csv(data, p)
        back = load_csv(p)
        assert np.array_equal(back.features, data.features)
        assert np.array_equal(back.sensitive, data.sensitive)
        assert np.array_equal(back.target, data.target)


def _row_writer(data, path, feature_names=None):
    """``write_csv`` as it was before the chunked writer, verbatim: one
    ``csv.writer`` row per example. The reference for the written bytes."""
    d = data.dimension
    names = list(feature_names) if feature_names else [f"x{i}" for i in range(d)]
    if len(names) != d:
        raise ValidationError("feature_names length must match the dimension")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + ["sensitive", "label"])
        for i in range(len(data)):
            writer.writerow([repr(float(v)) for v in data.features[i]]
                            + [int(data.sensitive[i]), int(data.target[i])])


# (dataset, feature names) builders; 45,000 rows span three write chunks
# and two 1 MiB blocks of the loader's line count
_WRITE_CASES = {
    "d1": lambda: (random_dataset(np.random.default_rng(1), n=300, dim=1), None),
    "d2": lambda: (random_dataset(np.random.default_rng(2), n=300, dim=2), None),
    "d4": lambda: (random_dataset(np.random.default_rng(4), n=300, dim=4), None),
    "n1": lambda: (Dataset([[0.5, -2.0]], [1], [0]), None),
    "45k_rows": lambda: (synth_generate(anchor_synthetic_config(n=45_000)), None),
    "special_values": lambda: (Dataset([[-0.0, 5e-324], [1e16, 1e-05],
                                        [0.1, -1.5e300]], [0, 1, 0], [1, 1, 0]),
                               None),
    "quoted_names": lambda: (random_dataset(np.random.default_rng(3), n=20, dim=3),
                             ["a,b", 'say "hi"', "two\nlines"]),
}

_H = "x0,x1,sensitive,label\n"
# raw file, drop_missing, the exception the row-by-row parser raises (None:
# it loads the file)
_LOAD_CASES = {
    "blank_line": (_H + "1,2,0,1\n\n3,4,1,0\n", False, ParseError),
    "blank_body": (_H + "\n", False, ParseError),
    "whitespace_line": (_H + "1,2,0,1\n  \n3,4,1,0\n", False, ParseError),
    "bare_cr_between_rows": (_H + "1,2,0,1\r3,4,1,0\n", False, None),
    "bare_cr_in_row": (_H + "1,2\r,0,1\n", False, ParseError),
    "crlf_and_lf": (_H + "1,2,0,1\r\n3,4,1,0\n", False, None),
    "padded_cells": (_H + " 1.5 ,\t2,0 , 1\n", False, None),
    "quoted_cell": (_H + '"1.5",2,0,1\n', False, None),
    "quoted_header": ('"x0",x1,sensitive,label\n1.5,2,0,1\n', False, None),
    "underscore_literal": (_H + "1_000,2,0,1\n", False, None),
    "unicode_digit": (_H + "\u0661,2,0,1\n", False, None),
    "comment_char": (_H + "#1,2,0,1\n", False, ParseError),
    "nan": (_H + "nan,2,0,1\n", False, ParseError),
    "inf": (_H + "1,-inf,0,1\n", False, ParseError),
    "overflow_1e999": (_H + "1e999,2,0,1\n", False, ParseError),
    "sensitive_2": (_H + "1,2,2,1\n", False, SchemaError),
    "label_nan": (_H + "1,2,0,nan\n", False, SchemaError),
    "negative_zero_label": (_H + "1,2,1,-0\n", False, None),
    "empty_cell": (_H + "1,2,0,1\n1,,0,1\n3,4,1,0\n", False, ParseError),
    "empty_cell_dropped": (_H + "1,2,0,1\n1,,0,1\n3,4,1,0\n", True, None),
    "short_row": (_H + "1,2,0\n", False, ParseError),
    "long_row": (_H + "1,2,0,1,5\n", False, ParseError),
    "header_only": (_H, False, EmptyDataset),
    "header_only_no_newline": (_H[:-1], False, EmptyDataset),
    "empty_file": ("", False, SchemaError),
    "no_label_column": ("x0,sensitive\n1,0\n", False, SchemaError),
    "duplicate_column": ("x0,x0,sensitive,label\n1,2,0,1\n", False, SchemaError),
    "no_features": ("sensitive,label\n0,1\n1,0\n", False, None),
    "bad_byte": (_H.encode() + b"1,\xff,0,1\n", False, UnicodeDecodeError),
    "bad_byte_header": (b"x0,\xff,sensitive,label\n1,2,0,1\n", False,
                        UnicodeDecodeError),
}


class TestCsvFastPath:
    """``load_csv`` reads plain numeric files with numpy and the rest with
    the row-by-row parser; ``write_csv`` formats rows column-wise. Both
    must match the row-by-row code bit for bit and error for error."""

    @pytest.mark.parametrize("case", sorted(_WRITE_CASES))
    def test_write_matches_row_writer(self, tmp_path, case):
        data, names = _WRITE_CASES[case]()
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        write_csv(data, new, names)
        _row_writer(data, ref, names)
        assert new.read_bytes() == ref.read_bytes()
        back = load_csv(new)
        assert np.array_equal(back.features.view(np.uint64),
                              data.features.view(np.uint64))

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    @pytest.mark.parametrize("final_eol", [True, False])
    @pytest.mark.parametrize("block", [2, 3, 1 << 20])
    def test_load_bit_identical(self, tmp_path, monkeypatch, eol, final_eol,
                                block):
        # tiny blocks split \r\n pairs across the line count's reads
        monkeypatch.setattr(bench, "_READ_BLOCK", block)
        data = random_dataset(np.random.default_rng(5), n=40, dim=3)
        p = tmp_path / "d.csv"
        write_csv(data, p)
        text = p.read_bytes().replace(b"\r\n", eol.encode())
        p.write_bytes(text if final_eol else text[:-len(eol)])
        fast = _load_numeric(p)
        assert fast is not None  # a plain numeric file takes numpy's reader
        for loaded in (fast, load_csv(p), row_parser_load(p)):
            assert np.array_equal(loaded.features.view(np.uint64),
                                  data.features.view(np.uint64))
            assert np.array_equal(loaded.sensitive, data.sensitive)
            assert np.array_equal(loaded.target, data.target)
            assert loaded.sensitive.dtype == loaded.target.dtype == np.int64

    @pytest.mark.parametrize("case", sorted(_LOAD_CASES))
    def test_outcome_matches_row_parser(self, tmp_path, case):
        raw, drop_missing, raised = _LOAD_CASES[case]
        p = tmp_path / "d.csv"
        p.write_bytes(raw if isinstance(raw, bytes) else raw.encode())
        got = csv_load_outcome(load_csv, p, drop_missing)
        assert got == csv_load_outcome(row_parser_load, p, drop_missing)
        assert got[:2] == (("raises", raised) if raised else ("ok", got[1]))


class TestSynthGenerate:
    def test_degenerate_proportions(self):
        cfg = SyntheticConfig(means=((0.0,), (1.0,), (2.0,), (3.0,)),
                              proportions=(1.0, 0.0, 0.0, 0.0),
                              variance=1.0, n=50, seed=2)
        data = synth_generate(cfg)
        assert (data.sensitive == 0).all() and (data.target == 0).all()

    def test_cell_fractions_concentrate(self):
        cfg = SyntheticConfig(means=((0.0,),) * 4,
                              proportions=(0.25, 0.25, 0.25, 0.25),
                              variance=1.0, n=100_000, seed=3)
        data = synth_generate(cfg)
        for a in (0, 1):
            for y in (0, 1):
                frac = ((data.sensitive == a) & (data.target == y)).mean()
                assert abs(frac - 0.25) <= 0.01

    def test_separated_means_are_learnable(self):
        # class means 4 sigma apart on the target axis
        cfg = SyntheticConfig(means=((-2.0, 0.0), (2.0, 0.0),
                                     (-2.0, 1.0), (2.0, 1.0)),
                              proportions=(0.3, 0.3, 0.2, 0.2),
                              variance=1.0, n=4000, seed=4)
        data = synth_generate(cfg)
        train, test = data.subset(np.arange(3000)), data.subset(np.arange(3000, 4000))
        coef, b, _, _ = fit_logistic(train.features, train.target.astype(float),
                                     np.full(3000, 1 / 3000), max_iter=2000)
        assert accuracy_risk(test, LinearScorer(coef, b)) <= 0.05

    def test_deterministic(self):
        cfg = disparity_synthetic_config(n=100, seed=5)
        assert np.array_equal(synth_generate(cfg).features,
                              synth_generate(cfg).features)

    def test_default_synthetic_has_active_disparity(self):
        # the shipped sample is calibrated so the unconstrained fit's DDP
        # lands inside [0.3, 0.5]
        data = synth_generate(disparity_synthetic_config())
        n = len(data)
        coef, b, _, _ = fit_logistic(data.features, data.target.astype(float),
                                     np.full(n, 1.0 / n), reg=3e-3, max_iter=2000)
        assert 0.3 <= ddp(data, LinearScorer(coef, b)) <= 0.5

    def test_validation(self):
        with pytest.raises(ValidationError):
            SyntheticConfig(means=((0.0,),) * 4, proportions=(0.5, 0.5, 0.2, -0.2),
                            variance=1.0, n=10, seed=0)
        with pytest.raises(ValidationError):
            SyntheticConfig(means=((0.0,),) * 3, proportions=(0.25,) * 4,
                            variance=1.0, n=10, seed=0)
        with pytest.raises(ValidationError, match="seed"):
            SyntheticConfig(means=((0.0,),) * 4, proportions=(0.25,) * 4,
                            variance=1.0, n=10, seed=-1)


class TestOracles:
    def test_uniform_population_constant_scorer(self):
        pop = DiscretePopulation(np.zeros((4, 1)), [0, 0, 1, 1], [0, 1, 0, 1],
                                 [0.25] * 4)
        scorer = ConstantScorer(1.0)
        d, e, r = ddp(pop, scorer), deo(pop, scorer), accuracy_risk(pop, scorer)
        assert d == 0.0 and e == 0.0
        assert r == pytest.approx(0.5, abs=1e-15)

    def test_two_cell_hand_computed(self):
        pop = DiscretePopulation(np.array([[1.0], [-1.0]]), [0, 1], [1, 1],
                                 [0.3, 0.7])
        scorer = LinearScorer([1.0])
        d, e, r = ddp(pop, scorer), deo(pop, scorer), accuracy_risk(pop, scorer)
        assert d == pytest.approx(1.0, abs=1e-15)  # groups predict 1 vs 0
        assert e == pytest.approx(1.0, abs=1e-15)
        assert r == pytest.approx(0.7, abs=1e-15)

    def test_materialize_requires_integer_counts(self):
        pop = DiscretePopulation(np.zeros((2, 1)), [0, 1], [0, 1],
                                 [1 / 3, 2 / 3])
        with pytest.raises(ValidationError):
            materialize(pop, 1000)
        data = materialize(pop, 9)
        assert len(data) == 9 and (data.sensitive == 1).sum() == 6

    def test_mix_populations_weights(self):
        a = DiscretePopulation(np.array([[0.0]]), [0], [0], [1.0])
        b = DiscretePopulation(np.array([[1.0]]), [1], [1], [1.0])
        mixed = mix_populations(a, b, 0.25)
        cells = {(tuple(mixed.features[i]), int(mixed.sensitive[i])):
                 mixed.mass[i] for i in range(mixed.n_cells)}
        assert cells[((0.0,), 0)] == pytest.approx(0.25, abs=1e-15)
        assert cells[((1.0,), 1)] == pytest.approx(0.75, abs=1e-15)


class TestRunSweep:
    def test_structural_row_count(self):
        cfg = small_config(methods=("nocor",), tau_grid=(0.02, 0.1, 0.2),
                           repetitions=2)
        rows = run_sweep(cfg)
        assert len(rows) == 3 * 2 * 2  # taus x reps x splits
        assert {r.split for r in rows} == {"train", "test"}
        assert all(0.0 <= r.fairness_violation <= 1.0 and 0.0 <= r.error <= 1.0
                   for r in rows)

    def test_zero_noise_cor_equals_nocor(self):
        cfg = small_config(rho_plus=0.0, rho_minus=0.0)
        rows = run_sweep(cfg)
        key = lambda r: (r.tau, r.repetition, r.split)
        nocor = {key(r): r for r in rows if r.method == "nocor"}
        cor = {key(r): r for r in rows if r.method == "cor"}
        assert set(nocor) == set(cor)
        for k in nocor:
            assert nocor[k].fairness_violation == cor[k].fairness_violation
            assert nocor[k].error == cor[k].error

    def test_tau_prime_formula(self):
        cfg = small_config(methods=("cor_scale",), tau_grid=(0.1,))
        rows = run_sweep(cfg)
        data = synth_generate(cfg.synthetic)
        for row in rows:
            train, _, _ = _split(data, cfg, row.repetition)
            corrupted = inject_ccn(train, CCNNoise(cfg.rho_plus, cfg.rho_minus),
                                   _inject_seed(cfg, row.repetition))
            mc, _ = ccn_to_mc_from_corrupted(
                CCNNoise(row.rho_plus_hat, row.rho_minus_hat),
                corrupted.base_rate())
            assert row.tau_prime == pytest.approx(
                row.tau * (1.0 - mc.alpha - mc.beta), abs=1e-12)

    def test_violation_measured_on_clean_attributes(self):
        # at a vacuous tau the cor model is the unconstrained fit on the
        # corrupted split; its recorded violation must equal the clean-
        # attribute ddp, which we recompute independently
        cfg = small_config(methods=("cor",), tau_grid=(1.0,), repetitions=1)
        rows = run_sweep(cfg)
        data = synth_generate(cfg.synthetic)
        train, test, _ = _split(data, cfg, 0)
        corrupted = inject_ccn(train, CCNNoise(cfg.rho_plus, cfg.rho_minus),
                               _inject_seed(cfg, 0))
        spec = FairnessSpec(cfg.criterion, cfg.loss, 1.0)
        model = train_fair(corrupted, spec, cfg.train)
        want = {"train": ddp(train, model), "test": ddp(test, model)}
        for row in rows:
            assert row.fairness_violation == pytest.approx(want[row.split],
                                                           abs=1e-15)

    def test_failed_cell_recorded_not_raised(self, tmp_path):
        # EO training needs positives in both groups; this dataset has no
        # (A=1, Y=1) examples at all, so every cell fails
        rng = np.random.default_rng(1)
        n = 40
        a = np.array([0, 1] * (n // 2))
        y = np.where(a == 1, 0, rng.integers(0, 2, n))
        p = tmp_path / "d.csv"
        write_csv(Dataset(rng.normal(0, 1, (n, 2)), a, y), p)
        cfg = ExperimentConfig(csv_path=str(p), criterion=Criterion.EQUAL_OPPORTUNITY,
                               methods=("nocor",), tau_grid=(0.1,),
                               repetitions=1, rho_plus=0.0, rho_minus=0.0,
                               train=FAST_TRAIN, base_seed=1)
        with pytest.warns(FairnoiseWarning):
            rows = run_sweep(cfg)
        assert len(rows) == 2
        assert all(r.fairness_violation is None and r.error is None for r in rows)

    def test_overflowing_features_leave_empty_rows(self, tmp_path):
        data = synth_generate(disparity_synthetic_config(n=400, seed=1))
        p = tmp_path / "big.csv"
        write_csv(Dataset(1e160 * data.features, data.sensitive, data.target), p)
        cfg = ExperimentConfig(csv_path=str(p), methods=("nocor",),
                               tau_grid=(0.1,), repetitions=1, train=FAST_TRAIN)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warnings.simplefilter("ignore", RuntimeWarning)
            rows = run_sweep(cfg)
        assert len(rows) == 2
        assert all(r.fairness_violation is None and r.error is None for r in rows)
        reasons = [str(w.message) for w in caught
                   if issubclass(w.category, FairnoiseWarning)]
        assert len(reasons) == 1 and "fit overflowed" in reasons[0]

    def test_rho_hat_sweep_mode(self):
        cfg = small_config(methods=("cor_scale",), tau_grid=(0.2,),
                           repetitions=1, noise_mode="rho_hat_sweep",
                           rho_hat_grid=((0.0, 0.1), (0.0, 0.3)),
                           rho_plus=0.0, rho_minus=0.2)
        rows = run_sweep(cfg)
        assert len(rows) == 4  # two rho-hats x two splits
        assert {r.rho_minus_hat for r in rows} == {0.1, 0.3}

    def test_estimate_mode_records_estimates(self):
        cfg = small_config(
            synthetic=disparity_synthetic_config(n=2500, seed=8),
            methods=("cor_scale",), tau_grid=(0.2,), repetitions=1,
            noise_mode="estimate")
        rows = run_sweep(cfg)
        assert all(r.rho_plus_hat is not None and r.rho_minus_hat is not None
                   for r in rows)
        assert all(0.0 <= r.rho_minus_hat < 1.0 for r in rows)

    def test_parallel_jobs_match_sequential(self):
        cfg = small_config(tau_grid=(0.1,), repetitions=2)
        seq = run_sweep(cfg, jobs=1)
        par = run_sweep(cfg, jobs=2)
        key = lambda r: (r.method, r.tau, r.repetition, r.split)
        assert sorted(seq, key=key) == sorted(par, key=key)


class TestEmitResults:
    def test_schema_and_round_trip(self, tmp_path):
        cfg = small_config(tau_grid=(0.1,), repetitions=1)
        # plus a failed cell's row: every optional cell empty
        rows = run_sweep(cfg) + [ResultRow("cor_scale", 0.1, None, None, None,
                                           "test", None, None, 3, 0)]
        out = tmp_path / "results.csv"
        agg = emit_results(rows, out)
        header = out.read_text().splitlines()[0]
        assert header == ("method,tau,tau_prime,rho_plus_hat,rho_minus_hat,"
                          "split,fairness_violation,error,seed,repetition")
        back = read_results(out)
        assert sorted(back, key=str) == sorted(rows, key=str)
        assert agg.endswith("_agg.csv")

    def test_empty_rows_header_only(self, tmp_path):
        out = tmp_path / "results.csv"
        emit_results([], out)
        lines = out.read_text().splitlines()
        assert len(lines) == 1

    def test_aggregation_mean(self, tmp_path):
        rows = [ResultRow("nocor", 0.1, None, None, None, "test", v, e, 3, i)
                for i, (v, e) in enumerate([(0.1, 0.2), (0.2, 0.3), (0.3, 0.4)])]
        out = tmp_path / "r.csv"
        agg_path = emit_results(rows, out)
        line = Path(agg_path).read_text().splitlines()[1].split(",")
        assert float(line[6]) == pytest.approx(0.2, abs=1e-12)   # mean violation
        assert float(line[8]) == pytest.approx(0.3, abs=1e-12)   # mean error

    @pytest.mark.parametrize("extra", ["nocor,0.1", "nocor" + ",0" * 10])
    def test_row_with_wrong_cell_count(self, tmp_path, extra):
        out = tmp_path / "results.csv"
        emit_results([], out)
        with open(out, "a", encoding="utf-8", newline="") as fh:
            fh.write(extra + "\r\n")
        n_cells = extra.count(",") + 1
        with pytest.raises(SchemaError, match=f"results row 2 has {n_cells} cells"):
            read_results(out)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_config(tau_grid=(0.05,), repetitions=1)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results(run_sweep(cfg), a)
        emit_results(run_sweep(cfg), b)
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a_agg.csv").read_bytes() == \
            (tmp_path / "b_agg.csv").read_bytes()


class TestDefaultConfig:
    def test_shipped_file_matches_code_default(self):
        from importlib import resources
        from fairnoise.sweepconfig import build_experiment_config, parse_config_file
        with resources.as_file(resources.files("fairnoise") /
                               "default_sweep.cfg") as p:
            cfg = build_experiment_config(parse_config_file(p))
        assert cfg == default_experiment_config()

    def test_config_file_round_trip(self, tmp_path):
        from fairnoise.sweepconfig import (build_experiment_config,
                                           config_to_mapping, parse_config_file,
                                           write_config_file)
        cfg = small_config(noise_mode="rho_hat_sweep",
                           rho_hat_grid=((0.0, 0.1), (0.05, 0.2)))
        p = tmp_path / "sweep.cfg"
        write_config_file(cfg, p)
        assert build_experiment_config(parse_config_file(p)) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        from fairnoise.sweepconfig import parse_config_file
        p = tmp_path / "bad.cfg"
        p.write_text("nonsense = 1\n")
        with pytest.raises(ValidationError):
            parse_config_file(p)


# A valid non-default value for every sweep key but the data-source pair,
# written the way config_to_mapping writes it.
NON_DEFAULT_SETTINGS = {
    "synth_mean_a0y0": "-1.0,-1.0,-1.0,0.5", "synth_mean_a0y1": "1.0,0.5,-1.0,0.5",
    "synth_mean_a1y0": "-1.0,-0.5,1.0,0.5", "synth_mean_a1y1": "1.0,1.0,1.0,0.5",
    "synth_proportions": "0.25,0.25,0.25,0.25", "synth_variance": "2.0",
    "synth_n": "500", "synth_seed": "7", "criterion": "eo", "loss": "zero_one",
    "rho_plus": "0.1", "rho_minus": "0.05", "noise_mode": "estimate",
    "rho_hat_grid": "0.1:0.2", "tau_grid": "0.3", "methods": "nocor",
    "repetitions": "2", "train_fraction": "0.7", "base_seed": "9",
    "dual_step": "0.5", "dual_bound": "10.0", "outer_iterations": "7",
    "base_iterations": "9", "regularization": "0.01",
    "select_best": "true", "feasibility_slack": "0.02",
    "boundary_margin": "0.02", "presolve_iterations": "5",
    "presolve_base_iterations": "11", "est_n_bins": "7",
    "est_anchor_quantile": "0.01",
}


def _config_leaves(cfg, prefix=()):
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            out.update(_config_leaves(value, prefix + (f.name,)))
        else:
            out[prefix + (f.name,)] = value
    return out


class TestConfigSchema:
    def test_every_key_is_wired(self):
        from fairnoise.sweepconfig import (KNOWN_KEYS, build_experiment_config,
                                           config_to_mapping)
        assert set(NON_DEFAULT_SETTINGS) == KNOWN_KEYS - {"data", "csv_path"}
        default = default_experiment_config()
        default_leaves = _config_leaves(default)
        default_mapping = config_to_mapping(default)
        for key, value in NON_DEFAULT_SETTINGS.items():
            cfg = build_experiment_config({key: value})
            leaves = _config_leaves(cfg)
            changed = [f for f in leaves if leaves[f] != default_leaves[f]]
            assert len(changed) == 1, (key, changed)
            mapping = config_to_mapping(cfg)
            assert mapping[key] == value
            assert {k for k in mapping.keys() | default_mapping.keys()
                    if mapping.get(k) != default_mapping.get(k)} == {key}

    @pytest.mark.parametrize("mapping", [
        {"data": "parquet"}, {"data": "csv"}, {"csv_path": "x.csv"},
        {"select_best": "maybe"}, {"criterion": "eq"}, {"loss": "hinge"},
        {"rho_hat_grid": "0.1"}, {"synth_n": "many"}, {"nonsense": "1"},
        {"base_seed": "-5"}, {"synth_seed": "-1"}, {"tau_grid": "0.1,nan"},
        {"dual_step": "nan"}, {"base_step": "nan"}, {"dual_bound": "nan"},
        {"regularization": "nan"}, {"boundary_margin": "nan"},
        {"feasibility_slack": "nan"}, {"est_max_iter": "1000"}])
    def test_bad_mapping_rejected(self, mapping):
        from fairnoise.sweepconfig import build_experiment_config
        with pytest.raises(ValidationError):
            build_experiment_config(mapping)

    def test_removed_train_seed_key_rejected(self, tmp_path):
        from fairnoise.sweepconfig import parse_config_file
        p = tmp_path / "old.cfg"
        p.write_text("train_seed = 0\n")
        with pytest.raises(ValidationError, match="unknown key 'train_seed'"):
            parse_config_file(p)


class TestCsvDataSource:
    def test_sweep_runs_from_csv_config(self, tmp_path):
        data = synth_generate(disparity_synthetic_config(n=500, seed=19))
        p = tmp_path / "src.csv"
        write_csv(data, p)
        from fairnoise.sweepconfig import build_experiment_config
        cfg = build_experiment_config({
            "data": "csv", "csv_path": str(p), "tau_grid": "0.1",
            "methods": "nocor,cor_scale", "repetitions": "1",
            "outer_iterations": "6", "base_iterations": "20",
            "presolve_iterations": "8", "presolve_base_iterations": "30"})
        assert cfg.csv_path == str(p) and cfg.synthetic is None
        rows = run_sweep(cfg)
        assert len(rows) == 4
        assert all(r.fairness_violation is not None for r in rows)


# ---------------------------------------------------------------------------
# The per-(repetition, tau) runner that run_cell replaced, verbatim except
# for the ``_ref_`` prefix on its names and one dropped argument: it passed
# ``config.estimator`` to ``denoise_ccn``, which ranks rows by raw posterior
# scores that no estimator setting reaches, so the argument was removed.
# It rebuilt the data, the split, the injection, the rate estimate and the
# denoised set for every tau; the per-(repetition, method) runner must give
# the same rows.


def _ref_load_data(config):
    if config.synthetic is not None:
        return synth_generate(config.synthetic)
    return load_csv(config.csv_path)


def _ref_split(data, config, rep):
    seed = config.base_seed + rep
    order = np.random.default_rng(seed).permutation(len(data))
    n_train = int(config.train_fraction * len(data))
    if n_train == 0 or n_train == len(data):
        raise ValidationError("split leaves an empty train or test set")
    return data.subset(order[:n_train]), data.subset(order[n_train:]), seed


def _ref_inject_seed(config, rep):
    return (config.base_seed + rep) * 1_000_003 + 1


def _ref_rate_pairs(config, corrupted_train):
    """(rho+, rho-) pairs the noise-consuming methods run with."""
    if config.noise_mode == "known":
        return [(config.rho_plus, config.rho_minus)]
    if config.noise_mode == "estimate":
        est = estimate_ccn_rates(corrupted_train, config.estimator)
        return [(est.rho_plus, est.rho_minus)]
    return list(config.rho_hat_grid)


def _ref_evaluate(model, spec, train_clean, test_clean, base, seed, rep):
    rows = []
    for split_name, split_data in (("train", train_clean), ("test", test_clean)):
        rows.append(ResultRow(
            split=split_name,
            fairness_violation=disparity(split_data, model, spec),
            error=accuracy_risk(split_data, model),
            seed=seed, repetition=rep, **base))
    return rows


def _ref_run_cell(config, rep, tau):
    """All rows of one (repetition, tau) sweep cell. Deterministic."""
    data = _ref_load_data(config)
    spec = FairnessSpec(config.criterion, config.loss, tau)
    train_clean, test_clean, seed = _ref_split(data, config, rep)
    corrupted = inject_ccn(train_clean, CCNNoise(config.rho_plus, config.rho_minus),
                           _ref_inject_seed(config, rep))
    rows = []

    def record(method, rho_pair, runner):
        base = {"method": method, "tau": tau,
                "tau_prime": None,
                "rho_plus_hat": rho_pair[0] if rho_pair else None,
                "rho_minus_hat": rho_pair[1] if rho_pair else None}
        try:
            model, tau_prime = runner()
            base["tau_prime"] = tau_prime
            rows.extend(_ref_evaluate(model, spec, train_clean, test_clean,
                                      base, seed, rep))
        except FairnoiseError as exc:
            warnings.warn(f"sweep cell {method} tau={tau} rep={rep} failed: {exc}",
                          FairnoiseWarning, stacklevel=2)
            for split_name in ("train", "test"):
                rows.append(ResultRow(split=split_name, fairness_violation=None,
                                      error=None, seed=seed, repetition=rep,
                                      **base))

    for method in config.methods:
        if method == "nocor":
            record(method, None,
                   lambda: (train_fair(train_clean, spec, config.train), None))
        elif method == "cor":
            record(method, None,
                   lambda: (train_fair(corrupted, spec, config.train), None))
        elif method == "cor_scale":
            for pair in _ref_rate_pairs(config, corrupted):
                def scale_runner(pair=pair):
                    model = train_fair_noisy(corrupted, spec, CCNNoise(*pair),
                                             config.train)
                    return model, model.trace.tau
                record(method, pair, scale_runner)
        else:
            for pair in _ref_rate_pairs(config, corrupted):
                def denoise_runner(pair=pair):
                    cleaned, _ = denoise_ccn(corrupted, CCNNoise(*pair))
                    return train_fair(cleaned, spec, config.train), None
                record(method, pair, denoise_runner)
    return rows


def _ref_run_sweep(config):
    """The sequential branch of the old run_sweep."""
    tasks = [(rep, tau) for rep in range(config.repetitions)
             for tau in config.tau_grid]
    rows = []
    for rep, tau in tasks:
        rows.extend(_ref_run_cell(config, rep, tau))
    return rows


def _quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FairnoiseWarning)
        return fn(*args, **kwargs)


NOISE_MODES = {
    "known": {},
    "estimate": {"noise_mode": "estimate"},
    "rho_hat_sweep": {"noise_mode": "rho_hat_sweep",
                      "rho_hat_grid": ((0.1, 0.1), (0.05, 0.25))},
}


def _no_apparent_a0_in_train_csv(path, n=20, base_seed=1):
    """A CSV whose train split (80%, split seed ``base_seed``) holds only
    A=1 rows: every training and every rate estimate on it fails."""
    order = np.random.default_rng(base_seed).permutation(n)
    a = np.ones(n, dtype=int)
    a[order[int(0.8 * n):]] = 0
    rng = np.random.default_rng(5)
    write_csv(Dataset(rng.normal(0, 1, (n, 2)), a, rng.integers(0, 2, n)), path)


class TestPerMethodRunner:
    @pytest.mark.parametrize("mode", sorted(NOISE_MODES))
    def test_rows_match_per_tau_reference(self, mode):
        cfg = small_config(methods=METHODS, **NOISE_MODES[mode])
        want = sorted(_quiet(_ref_run_sweep, cfg), key=_sort_key)
        pairs = len(cfg.rho_hat_grid) or 1
        # repetitions x taus x splits x (nocor, cor, one cor_scale and one
        # denoise per rho-hat pair), all evaluated
        assert len(want) == 2 * 2 * 2 * (2 + 2 * pairs)
        assert all(r.fairness_violation is not None for r in want)
        for jobs in (1, 2):
            got = _quiet(run_sweep, cfg, jobs=jobs)
            assert sorted(got, key=_sort_key) == want

    def test_failed_cells_match_per_tau_reference(self, tmp_path):
        # known rates: every training and every denoise fails
        p = tmp_path / "d.csv"
        _no_apparent_a0_in_train_csv(p)
        cfg = ExperimentConfig(csv_path=str(p), rho_plus=0.0, rho_minus=0.0,
                               tau_grid=(0.05, 0.1), repetitions=1, base_seed=1,
                               train=FAST_TRAIN)
        want = sorted(_quiet(_ref_run_sweep, cfg), key=_sort_key)
        assert len(want) == 4 * 2 * 2  # methods x taus x splits, all empty
        assert all(r.fairness_violation is None for r in want)
        assert sorted(_quiet(run_sweep, cfg), key=_sort_key) == want

    def test_tau_independent_work_runs_once(self, monkeypatch):
        from fairnoise import bench
        calls = {"_load_data": 0, "denoise_ccn": 0, "estimate_ccn_rates": 0}

        def counting(name):
            original = getattr(bench, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(bench, name, counting(name))
        cfg = small_config(methods=METHODS, **NOISE_MODES["rho_hat_sweep"])
        _quiet(run_sweep, cfg)
        assert calls == {"_load_data": 1, "denoise_ccn": 2 * 2,
                         "estimate_ccn_rates": 0}
        for name in calls:
            calls[name] = 0
        cfg = small_config(methods=METHODS, **NOISE_MODES["estimate"])
        _quiet(run_sweep, cfg)
        # one estimate per (repetition, noise-consuming method)
        assert calls == {"_load_data": 1, "denoise_ccn": 2,
                         "estimate_ccn_rates": 2 * 2}

    def test_failed_rate_estimate_leaves_empty_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        _no_apparent_a0_in_train_csv(p)
        cfg = ExperimentConfig(csv_path=str(p), rho_plus=0.0, rho_minus=0.0,
                               noise_mode="estimate",
                               methods=("cor_scale", "denoise"),
                               tau_grid=(0.05, 0.1), repetitions=1, base_seed=1,
                               train=FAST_TRAIN)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = run_sweep(cfg)
        assert len(rows) == 2 * 2 * 2  # methods x taus x splits
        assert all(r.fairness_violation is None and r.error is None
                   and r.tau_prime is None and r.rho_plus_hat is None
                   and r.rho_minus_hat is None for r in rows)
        messages = sorted(str(w.message) for w in caught
                          if issubclass(w.category, FairnoiseWarning))
        assert messages == [
            f"sweep cell {m} rate estimate rep=0 failed: both apparent groups "
            "must be present" for m in ("cor_scale", "denoise")]
