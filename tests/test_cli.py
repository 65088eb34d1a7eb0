"""CLI surface tests: subcommand behavior and the exit-code contract."""

import re
from pathlib import Path

import numpy as np
import pytest

from _random_cases import (FILE_MUTATIONS, csv_load_outcome, mutate_file_text,
                           row_parser_load, v1_model_text)
from fairnoise.bench import (anchor_synthetic_config,
                             disparity_synthetic_config, load_csv,
                             read_results, synth_generate, write_csv)
from fairnoise.cli import main
from fairnoise.core import Dataset
from fairnoise.errors import ParseError
from fairnoise.fairtrain import FairClassifier, save_model
from fairnoise.noise import CCNNoise, inject_ccn


@pytest.fixture()
def csv_path(tmp_path):
    data = synth_generate(disparity_synthetic_config(n=800, seed=12))
    p = tmp_path / "data.csv"
    write_csv(data, p)
    return p


@pytest.fixture()
def big_csv(tmp_path):
    """Features near 1e160 overflow every fit's Hessian, so no fit leaves its
    start. No floating-point warning may escape either: the suite turns
    every warning into an error."""
    data = synth_generate(disparity_synthetic_config(n=400, seed=1))
    p = tmp_path / "big.csv"
    write_csv(Dataset(1e160 * data.features, data.sensitive, data.target), p)
    return p


class TestCorrupt:
    def test_zero_rates_preserve_file(self, csv_path, tmp_path, capsys):
        out = tmp_path / "out.csv"
        rc = main(["corrupt", "--input", str(csv_path), "--output", str(out),
                   "--rho-plus", "0.0", "--rho-minus", "0.0", "--seed", "1"])
        assert rc == 0
        a = load_csv(csv_path)
        b = load_csv(out)
        assert np.array_equal(a.sensitive, b.sensitive)
        assert np.array_equal(a.features, b.features)

    def test_flip_fraction_reported(self, tmp_path, capsys):
        data = synth_generate(disparity_synthetic_config(n=100_000, seed=13))
        src = tmp_path / "big.csv"
        write_csv(data, src)
        out = tmp_path / "big_out.csv"
        rc = main(["corrupt", "--input", str(src), "--output", str(out),
                   "--rho-plus", "0.0", "--rho-minus", "0.2", "--seed", "2"])
        assert rc == 0
        corrupted = load_csv(out)
        zeros = data.sensitive == 0
        frac = (corrupted.sensitive[zeros] == 1).mean()
        assert abs(frac - 0.2) <= 0.012
        assert "flipped 0->1" in capsys.readouterr().out

    def test_missing_sensitive_column_exits_2(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x0,label\n1.0,1\n")
        rc = main(["corrupt", "--input", str(p), "--output",
                   str(tmp_path / "o.csv")])
        assert rc == 2

    def test_bad_rate_exits_1(self, csv_path, tmp_path):
        rc = main(["corrupt", "--input", str(csv_path), "--output",
                   str(tmp_path / "o.csv"), "--rho-plus", "0.7",
                   "--rho-minus", "0.5"])
        assert rc == 1

    def test_negative_seed_exits_1(self, csv_path, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(["corrupt", "--input", str(csv_path), "--output", str(out),
                     "--rho-plus", "0.1", "--seed", "-1"]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()


    def test_feature_names_kept(self, tmp_path):
        # sensitive sits between the features and the names carry
        # whitespace: the output keeps the stripped names, in file order,
        # then sensitive, then label
        src = tmp_path / "named.csv"
        src.write_text(" age ,sensitive,income,label\n"
                       "31.0,1,2.5,0\n45.0,0,1.25,1\n")
        out = tmp_path / "out.csv"
        assert main(["corrupt", "--input", str(src), "--output", str(out),
                     "--rho-plus", "0.0", "--rho-minus", "0.0"]) == 0
        assert out.read_text().splitlines() == [
            "age,income,sensitive,label", "31.0,2.5,1,0", "45.0,1.25,0,1"]


class TestDpCalibrate:
    def test_epsilon_to_rho(self, capsys):
        assert main(["dp-calibrate", "--epsilon", "1.73"]) == 0
        out = capsys.readouterr().out
        assert "rho = 0.150588" in out

    def test_rho_to_epsilon(self, capsys):
        assert main(["dp-calibrate", "--rho", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "epsilon = 1.734601" in out

    def test_out_of_range_rho_exits_1(self):
        assert main(["dp-calibrate", "--rho", "0.6"]) == 1

    def test_requires_exactly_one_flag(self):
        assert main(["dp-calibrate"]) == 1

    @pytest.mark.parametrize("base_rate", ["0", "1", "1.5", "nan"])
    def test_out_of_range_base_rate_exits_1(self, capsys, base_rate):
        assert main(["dp-calibrate", "--rho", "0.15",
                     "--base-rate", base_rate]) == 1
        assert "--base-rate" in capsys.readouterr().err


class TestTrain:
    def test_known_rates_report_scaled_tolerance(self, tmp_path, capsys):
        data = synth_generate(disparity_synthetic_config(n=1200, seed=14))
        # balanced groups so the scale is exactly 1 - 0.15 - 0.15
        src = tmp_path / "train.csv"
        write_csv(data.with_sensitive(np.array([0, 1] * 600)), src)
        model_out = tmp_path / "model.txt"
        rc = main(["train", "--input", str(src), "--tau", "0.2",
                   "--rho-plus", "0.15", "--rho-minus", "0.15",
                   "--model-out", str(model_out), "--outer-iterations", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tau' = 0.140000" in out
        assert model_out.exists()

    def test_overflowing_features_exit_3(self, big_csv, tmp_path, capsys):
        # training must fail, not save the all-zero start as a feasible
        # model, whether the rates are given or estimated
        model_out = tmp_path / "m.txt"
        for flags in ([], ["--estimate-noise"]):
            rc = main(["train", "--input", str(big_csv), "--tau", "0.1",
                       "--model-out", str(model_out)] + flags)
            assert rc == 3, flags
            err = capsys.readouterr().err
            assert "numerical failure" in err and "fit overflowed" in err
            assert not model_out.exists()

    def test_conflicting_noise_flags_exit_1(self, csv_path, tmp_path):
        rc = main(["train", "--input", str(csv_path), "--tau", "0.1",
                   "--rho-plus", "0.1", "--rho-minus", "0.1",
                   "--estimate-noise", "--model-out", str(tmp_path / "m.txt")])
        assert rc == 1

    @pytest.mark.parametrize("flag", ["--outer-iterations"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_iterations_exit_1(self, csv_path, tmp_path, capsys,
                                            flag, value):
        model_out = tmp_path / "m.txt"
        rc = main(["train", "--input", str(csv_path), "--tau", "0.1",
                   "--model-out", str(model_out), flag, value])
        assert rc == 1
        assert "iteration counts must be >= 1" in capsys.readouterr().err
        assert not model_out.exists()

    @pytest.mark.parametrize("value", ["0", "-3", "5"])
    def test_removed_base_iterations_flag_exits_1(self, csv_path, tmp_path,
                                                  capsys, value):
        model_out = tmp_path / "m.txt"
        rc = main(["train", "--input", str(csv_path), "--tau", "0.1",
                   "--model-out", str(model_out), "--base-iterations", value])
        assert rc == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --base-iterations" in err
        assert "Traceback" not in err
        assert not model_out.exists()

    def test_nan_tau_exits_1(self, csv_path, tmp_path):
        model_out = tmp_path / "m.txt"
        assert main(["train", "--input", str(csv_path), "--tau", "nan",
                     "--model-out", str(model_out)]) == 1
        assert not model_out.exists()

    @pytest.mark.parametrize("flags", [["--select-best"], []])
    def test_summary_reports_the_saved_model(self, csv_path, tmp_path, capsys,
                                             flags):
        model_out = tmp_path / "m.txt"
        assert main(["train", "--input", str(csv_path), "--tau", "0.02",
                     "--model-out", str(model_out), "--outer-iterations", "8",
                     *flags]) == 0
        printed = re.search(r"violation = ([-+0-9.]+), risk = ([0-9.]+)",
                            capsys.readouterr().out)
        assert main(["metrics", "--input", str(csv_path),
                     "--model", str(model_out)]) == 0
        metrics = dict(line.split(" = ") for line in
                       capsys.readouterr().out.strip().splitlines())
        assert float(printed[1]) == float(metrics["ddp"])
        assert float(printed[2]) == float(metrics["error"])


class TestEstimate:
    def test_zero_noise_fixture(self, tmp_path, capsys):
        data = synth_generate(anchor_synthetic_config(n=20_000, seed=15))
        src = tmp_path / "anchor.csv"
        write_csv(data, src)
        out = tmp_path / "rates.txt"
        rc = main(["estimate", "--input", str(src), "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        rates = dict(line.split(" = ") for line in text.strip().splitlines())
        assert float(rates["rho_plus"]) <= 0.03
        assert float(rates["rho_minus"]) <= 0.03

    @pytest.mark.parametrize("flags", [[], ["--eo"]])
    def test_overflowing_features_exit_3(self, big_csv, capsys, flags):
        # the estimate must fail, not print the rates of the unfitted start
        assert main(["estimate", "--input", str(big_csv)] + flags) == 3
        assert "posterior fit overflowed" in capsys.readouterr().err


class TestMetrics:
    def test_model_evaluation(self, csv_path, tmp_path, capsys):
        model_out = tmp_path / "model.txt"
        assert main(["train", "--input", str(csv_path), "--tau", "1.0",
                     "--model-out", str(model_out),
                     "--outer-iterations", "8"]) == 0
        capsys.readouterr()
        out = tmp_path / "metrics.txt"
        rc = main(["metrics", "--input", str(csv_path), "--model",
                   str(model_out), "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "ddp = " in printed and "error = " in printed
        assert out.exists()

    def test_version_1_model_file(self, csv_path, capsys):
        # The committed file was written by the version 1 (ensemble) writer
        # from a training on this CSV; the values are what that version
        # printed for it.
        model = Path(__file__).parent / "data" / "model_v1.txt"
        assert main(["metrics", "--input", str(csv_path),
                     "--model", str(model)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "ddp = 0.038442", "deo = 0.386733", "error = 0.183750"]


def _save_random_model(rng, path, dimension):
    save_model(FairClassifier(rng.normal(size=dimension), rng.normal()), path)


def _write_random_v1_model(rng, path, dimension, members=3):
    weights = rng.random(members) + 0.1
    path.write_text(v1_model_text(weights / weights.sum(),
                                  rng.normal(size=(members, dimension)),
                                  rng.normal(size=members)))


class TestMalformedInputs:
    def test_non_numeric_model_header_exits_1(self, csv_path, tmp_path):
        p = tmp_path / "m.txt"
        for text in ("fairnoise-model 1\ndimension x\nmembers 1\n0 0 0 0 0 0\n",
                     "fairnoise-model 1\ndimension 4\nmembers y\n",
                     "fairnoise-model 1\n",
                     "fairnoise-model 1\ndimension 4\nmembers 2\n"
                     "0.5 0 0 0 0 0\n0.6 0 0 0 0 0\n"):
            p.write_text(text)
            assert main(["metrics", "--input", str(csv_path),
                         "--model", str(p)]) == 1

    def test_model_dimension_mismatch_exits_2(self, csv_path, tmp_path, capsys):
        p = tmp_path / "m.txt"
        _save_random_model(np.random.default_rng(0), p, dimension=3)
        assert main(["metrics", "--input", str(csv_path), "--model", str(p)]) == 2
        assert "feature columns" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_cell_exits_2(self, tmp_path, capsys, cell):
        p = tmp_path / "d.csv"
        p.write_text(f"x0,x1,sensitive,label\n1.0,2.0,0,1\n0.5,{cell},1,0\n")
        assert main(["estimate", "--input", str(p)]) == 2
        assert "row 3, column 'x1'" in capsys.readouterr().err

    def test_non_finite_cell_row_counts_dropped_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,sensitive,label\n,0,1\n1.0,1,0\n,0,0\n2.0,0,1\nnan,1,1\n")
        with pytest.raises(ParseError, match="row 6, column 'x0'"):
            load_csv(p, drop_missing=True)


class TestExitCodeFuzz:
    """Seeded mutations of a valid CSV and a valid model file: every
    ``metrics`` and ``estimate`` call ends in a documented exit code, and
    ``load_csv`` loads every mutated CSV as the row-by-row parser does."""

    @pytest.mark.filterwarnings("ignore::fairnoise.errors.DegenerateEstimateWarning")
    def test_mutated_inputs_never_raise(self, tmp_path, capsys):
        rng = np.random.default_rng(2024)
        data = synth_generate(anchor_synthetic_config(n=300, seed=5))
        csv_ok, model_ok = tmp_path / "ok.csv", tmp_path / "ok.txt"
        write_csv(data, csv_ok)
        _save_random_model(rng, model_ok, data.dimension)
        csv_text, model_texts = csv_ok.read_text(), {"model": model_ok.read_text()}
        _write_random_v1_model(rng, model_ok, data.dimension)
        model_texts["model_v1"] = model_ok.read_text()
        csv_bad, model_bad = tmp_path / "bad.csv", tmp_path / "bad.txt"
        cases = [(target, kind) for target in ("csv", "model", "model_v1")
                 for kind in FILE_MUTATIONS + ("dimension",) for _ in range(6)]
        for target, kind in cases:
            model_text = model_texts.get(target, model_texts["model"])
            csv_bad.write_bytes(csv_text.encode())
            model_bad.write_bytes(model_text.encode())
            if kind == "dimension" and target == "csv":
                kept = int(rng.integers(0, data.dimension))
                write_csv(Dataset(data.features[:, :kept], data.sensitive,
                                  data.target), csv_bad)
            elif kind == "dimension" and target == "model":
                _save_random_model(rng, model_bad,
                                   data.dimension + int(rng.choice([-1, 1])))
            elif kind == "dimension":
                _write_random_v1_model(rng, model_bad,
                                       data.dimension + int(rng.choice([-1, 1])))
            elif target == "csv":
                csv_bad.write_bytes(mutate_file_text(rng, csv_text, ",", kind))
            else:
                model_bad.write_bytes(mutate_file_text(rng, model_text, " ", kind))
            for argv in (["metrics", "--input", str(csv_bad), "--model", str(model_bad)],
                         ["estimate", "--input", str(csv_bad)]):
                rc = main(argv)
                assert rc in (0, 1, 2, 3), (target, kind, argv[0], rc)
            if target == "csv":
                # the numpy fast path yields the row-by-row parser's dataset
                # or error, so the exit code is the same too
                assert csv_load_outcome(load_csv, csv_bad) == \
                    csv_load_outcome(row_parser_load, csv_bad), kind
        capsys.readouterr()

    @pytest.mark.filterwarnings("ignore::fairnoise.errors.FairnoiseWarning")
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_flag_values_never_raise(self, tmp_path, capsys):
        """Every numeric flag or --set value of corrupt, train, dp-calibrate
        and sweep takes each value of a hostile pool in turn, the others
        seeded valid values. Sizes and iteration counts come only from small
        ranges, and --jobs stays 1."""
        rng = np.random.default_rng(99)
        pool = ("nan", "inf", "-inf", "-1", "0", "1e999")
        csv = tmp_path / "tiny.csv"
        write_csv(synth_generate(disparity_synthetic_config(n=80, seed=4)), csv)
        out, model = str(tmp_path / "out.csv"), str(tmp_path / "m.txt")

        def rate():
            return str(rng.uniform(0.0, 0.3))

        def small_int(lo, hi):
            return str(int(rng.integers(lo, hi + 1)))

        def vector(values):
            return ",".join(repr(float(v)) for v in values)

        def corrupt(values):
            return ["corrupt", "--input", str(csv), "--output", out,
                    *[f"--{k}={v}" for k, v in values.items()]]

        def train(values):
            return ["train", "--input", str(csv), "--model-out", model,
                    "--outer-iterations", small_int(1, 3),
                    *[f"--{k}={v}" for k, v in values.items()]]

        def dp_calibrate(values):
            return ["dp-calibrate", *[f"--{k}={v}" for k, v in values.items()]]

        def sweep(values):
            fixed = {"synth_n": small_int(20, 120), "repetitions": "1",
                     "methods": "nocor,cor_scale",
                     "outer_iterations": small_int(1, 2), "base_iterations": "3",
                     "presolve_iterations": "2", "presolve_base_iterations": "3"}
            return ["sweep", "--out", out, "--jobs", "1",
                    *[arg for k, v in {**fixed, **values}.items()
                      for arg in ("--set", f"{k}={v}")]]

        commands = [
            (corrupt, lambda: {"rho-plus": rate(), "rho-minus": rate(),
                               "seed": small_int(0, 99)}),
            (train, lambda: {"tau": rate(), "rho-plus": rate(),
                             "rho-minus": rate()}),
            (dp_calibrate, lambda: {"epsilon": str(rng.uniform(0.1, 3.0)),
                                    "base-rate": str(rng.uniform(0.1, 0.9))}),
            (dp_calibrate, lambda: {"rho": rate(),
                                    "base-rate": str(rng.uniform(0.1, 0.9))}),
            (sweep, lambda: {"tau_grid": rate(), "base_seed": small_int(0, 99),
                             "synth_seed": small_int(0, 99), "rho_plus": rate(),
                             "rho_minus": rate(),
                             "train_fraction": str(rng.uniform(0.5, 0.9)),
                             "synth_variance": str(rng.uniform(0.5, 2.0)),
                             "synth_proportions": vector(rng.dirichlet(np.ones(4))),
                             "synth_mean_a0y0": vector(rng.normal(size=4)),
                             "synth_mean_a1y1": vector(rng.normal(size=4))}),
        ]
        for make, valid in commands:
            for key in valid():
                for bad in pool:
                    values = valid()
                    # a vector value takes the hostile entry in its first slot
                    values[key] = ",".join([bad, *values[key].split(",")[1:]])
                    argv = make(values)
                    assert main(argv) in (0, 1, 2, 3), argv
        capsys.readouterr()


class TestSweep:
    def test_default_config_with_overrides(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        rc = main(["sweep", "--out", str(out),
                   "--set", "synth_n=600",
                   "--set", "tau_grid=0.1",
                   "--set", "repetitions=1",
                   "--set", "methods=nocor,cor_scale",
                   "--set", "outer_iterations=8",
                   "--set", "base_iterations=25",
                   "--set", "presolve_iterations=10",
                   "--set", "presolve_base_iterations=40"])
        assert rc == 0
        header = out.read_text().splitlines()[0]
        assert header == ("method,tau,tau_prime,rho_plus_hat,rho_minus_hat,"
                          "split,fairness_violation,error,seed,repetition")
        rows = read_results(out)
        assert {r.method for r in rows} == {"nocor", "cor_scale"}
        assert (tmp_path / "results_agg.csv").exists()
        assert "test violation" in capsys.readouterr().out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_singular_design_at_zero_regularization(self, tmp_path):
        # A constant column copies the intercept and the last column copies
        # the first, so every best-response Hessian is singular at reg = 0.
        data = synth_generate(disparity_synthetic_config(n=600, seed=3))
        X = data.features
        path = tmp_path / "singular.csv"
        write_csv(Dataset(np.column_stack([X, np.ones(len(X)), X[:, 0]]),
                          data.sensitive, data.target), path)
        out = tmp_path / "results.csv"
        settings = {"data": "csv", "csv_path": str(path), "regularization": "0",
                    "repetitions": "1", "tau_grid": "0.05,0.2",
                    "outer_iterations": "10"}
        rc = main(["sweep", "--out", str(out), "--jobs", "1",
                   *[a for k, v in settings.items() for a in ("--set", f"{k}={v}")]])
        assert rc == 0
        rows = read_results(out)
        assert len(rows) == 16
        assert all(r.fairness_violation is not None and r.error is not None
                   for r in rows)

    @pytest.mark.parametrize("setting", ["presolve_base_iterations=0",
                                         "presolve_base_iterations=-3",
                                         "presolve_iterations=-3"])
    def test_bad_presolve_iterations_exit_1(self, tmp_path, capsys, setting):
        out = tmp_path / "r.csv"
        assert main(["sweep", "--out", str(out), "--set", "repetitions=1",
                     "--set", "methods=nocor", "--set", setting]) == 1
        err = capsys.readouterr().err
        assert "invalid parameter" in err and "Traceback" not in err
        assert not out.exists()

    def test_rho_hat_sweep_summary_per_pair(self, tmp_path, capsys):
        fast = ["--set", "synth_n=600", "--set", "tau_grid=0.05",
                "--set", "repetitions=1", "--set", "methods=nocor,cor_scale",
                "--set", "outer_iterations=6", "--set", "presolve_iterations=8"]
        out = tmp_path / "r.csv"
        assert main(["sweep", "--out", str(out), *fast,
                     "--set", "noise_mode=rho_hat_sweep",
                     "--set", "rho_hat_grid=0.0:0.0,0.3:0.3"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert [line.split()[:2] for line in lines] == [
            ["cor_scale", "rho_hat=0:0"], ["cor_scale", "rho_hat=0.3:0.3"],
            ["nocor", "tau=0.05"]]
        # each line is its own pair's mean, as in the _agg file
        agg = (tmp_path / "r_agg.csv").read_text().splitlines()
        means = [f"violation={float(rec.split(',')[6]):.4f}" for rec in agg
                 if rec.startswith("cor_scale") and ",test," in rec]
        assert [line.split()[4] for line in lines[:2]] == means
        # known mode names no pair
        assert main(["sweep", "--out", str(out), *fast]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert [line.split()[:2] for line in lines] == [
            ["cor_scale", "tau=0.05"], ["nocor", "tau=0.05"]]

    def test_unknown_set_key_exits_1(self, tmp_path):
        assert main(["sweep", "--out", str(tmp_path / "r.csv"),
                     "--set", "bogus=1"]) == 1

    def test_removed_est_max_iter_key_exits_1(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["sweep", "--out", str(out), "--set", "est_max_iter=5"]) == 1
        assert "unknown config key 'est_max_iter'" in capsys.readouterr().err
        cfg = tmp_path / "old.cfg"
        cfg.write_text("est_max_iter = 5\n")
        assert main(["sweep", "--out", str(out), "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "unknown key 'est_max_iter'" in err and "Traceback" not in err
        assert not out.exists()

    def test_write_default_config(self, tmp_path):
        p = tmp_path / "default.cfg"
        assert main(["sweep", "--write-default-config", str(p)]) == 0
        from importlib import resources
        from fairnoise.sweepconfig import build_experiment_config, parse_config_file
        from fairnoise.bench import default_experiment_config
        assert build_experiment_config(parse_config_file(p)) == \
            default_experiment_config()
        # the shipped file is exactly what the code writes
        shipped = resources.files("fairnoise") / "default_sweep.cfg"
        assert p.read_bytes() == shipped.read_bytes()


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self):
        assert main(["dp-calibrate", "--epsilon", "1.0", "--wat"]) == 1


class TestJobsEnvVar:
    def test_fairnoise_jobs_sets_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FAIRNOISE_JOBS", "2")
        out = tmp_path / "r.csv"
        rc = main(["sweep", "--out", str(out),
                   "--set", "synth_n=600", "--set", "tau_grid=0.2",
                   "--set", "repetitions=2", "--set", "methods=nocor",
                   "--set", "outer_iterations=6", "--set", "base_iterations=20",
                   "--set", "presolve_iterations=8",
                   "--set", "presolve_base_iterations=30"])
        assert rc == 0
        assert len(read_results(out)) == 4

    @pytest.mark.parametrize("command", [["dp-calibrate", "--epsilon", "1.0"],
                                         ["sweep", "--write-default-config", "c.cfg"]])
    def test_bad_value_ignored_outside_sweep_runs(self, tmp_path, monkeypatch,
                                                  command):
        monkeypatch.setenv("FAIRNOISE_JOBS", "abc")
        monkeypatch.chdir(tmp_path)
        assert main(command) == 0

    @pytest.mark.parametrize("value", ["abc", "1.5", ""])
    def test_non_integer_value_is_usage_error(self, tmp_path, monkeypatch,
                                              capsys, value):
        monkeypatch.setenv("FAIRNOISE_JOBS", value)
        out = tmp_path / "r.csv"
        assert main(["sweep", "--out", str(out)]) == 1
        assert "FAIRNOISE_JOBS" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_flag_overrides_bad_value(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FAIRNOISE_JOBS", "abc")
        out = tmp_path / "r.csv"
        assert main(["sweep", "--out", str(out), "--jobs", "1",
                     "--set", "synth_n=400", "--set", "tau_grid=0.2",
                     "--set", "repetitions=1", "--set", "methods=nocor",
                     "--set", "outer_iterations=4", "--set", "base_iterations=10",
                     "--set", "presolve_iterations=4",
                     "--set", "presolve_base_iterations=10"]) == 0
        assert len(read_results(out)) == 2


class TestDenoiseLabel:
    def test_summary_flags_simplified_denoiser(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = main(["sweep", "--out", str(out),
                   "--set", "synth_n=600", "--set", "tau_grid=0.2",
                   "--set", "repetitions=1", "--set", "methods=denoise",
                   "--set", "outer_iterations=6", "--set", "base_iterations=20",
                   "--set", "presolve_iterations=8",
                   "--set", "presolve_base_iterations=30"])
        assert rc == 0
        assert "denoise (simplified)" in capsys.readouterr().out
        # the machine-readable table keeps the plain method name
        assert any(r.method == "denoise" for r in read_results(out))
