"""CLI surface tests: subcommand behavior and the exit-code contract."""

import contextlib
import csv
import io
import os
import re
import subprocess
import sys
import time
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from _random_cases import (FILE_MUTATIONS, csv_load_outcome, mutate_file_text,
                           row_parser_load)
from fairnoise import bench, cli, sweepconfig
from fairnoise.bench import (ExperimentConfig, anchor_synthetic_config,
                             disparity_synthetic_config, load_csv,
                             read_results, run_cell, synth_generate,
                             write_csv)
from fairnoise.cli import main
from fairnoise.core import Dataset, FairnessLoss
from fairnoise.errors import PairingWarning, ParseError
from fairnoise.estimation import estimate_eo_rates
from fairnoise.fairtrain import _MAX_LEVELS, FairClassifier, save_model
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


def _corrupt(src, out, rates=("0.3", "0.2"), seed="5", flags=()):
    assert main(["corrupt", "--input", str(src), "--output", str(out),
                 "--rho-plus", rates[0], "--rho-minus", rates[1],
                 "--seed", seed, *flags]) == 0


def _rewritten(src, tmp_path, rates=("0.3", "0.2"), seed="5",
               drop_missing=False):
    """The bytes ``write_csv`` gives for ``src`` corrupted as ``_corrupt``
    corrupts it."""
    data = inject_ccn(load_csv(src, drop_missing=drop_missing),
                      CCNNoise(float(rates[0]), float(rates[1])), int(seed))
    ref = tmp_path / "reference.csv"
    write_csv(data, ref, bench.csv_feature_names(src))
    return ref.read_bytes()


def _plain_text(columns, rows, sensitive, newline, final):
    """CSV text of ``rows`` (cell strings by column name) with the
    sensitive cells taken from ``sensitive``."""
    lines = [",".join(columns)]
    for row, bit in zip(rows, sensitive):
        lines.append(",".join(str(bit) if c == "sensitive" else row[c]
                              for c in columns))
    return newline.join(lines) + (newline if final else "")


class TestCorrupt:
    """``corrupt`` copies a plain input with only its sensitive cells
    replaced; any other input is written anew by ``write_csv``, as before."""

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
        # whitespace: a plain input is copied as it is, header included
        src = tmp_path / "named.csv"
        src.write_text(" age ,sensitive,income,label\n"
                       "31.0,1,2.5,0\n45.0,0,1.25,1\n")
        out = tmp_path / "out.csv"
        assert main(["corrupt", "--input", str(src), "--output", str(out),
                     "--rho-plus", "0.0", "--rho-minus", "0.0"]) == 0
        assert out.read_bytes() == src.read_bytes()

    def test_feature_names_kept_where_the_input_is_rewritten(self, tmp_path):
        # a sensitive cell written 1.0 is no one-byte bit, so the output is
        # written anew: the stripped names, in file order, then sensitive,
        # then label
        src = tmp_path / "named.csv"
        src.write_text(" age ,sensitive,income,label\n"
                       "31.0,1.0,2.5,0\n45.0,0.0,1.25,1\n")
        out = tmp_path / "out.csv"
        assert main(["corrupt", "--input", str(src), "--output", str(out),
                     "--rho-plus", "0.0", "--rho-minus", "0.0"]) == 0
        assert out.read_text().splitlines() == [
            "age,income,sensitive,label", "31.0,2.5,1,0", "45.0,1.25,0,1"]

    @pytest.mark.parametrize("rates", [("0.0", "0.0"), ("0.3", "0.2")],
                             ids=["zero", "nonzero"])
    def test_write_csv_inputs_are_written_as_before(self, tmp_path, rates):
        src, out = tmp_path / "in.csv", tmp_path / "out.csv"
        data = synth_generate(anchor_synthetic_config(n=3000, seed=8))
        write_csv(data, src, ["g", "f"])
        _corrupt(src, out, rates)
        assert out.read_bytes() == _rewritten(src, tmp_path, rates)

    @pytest.mark.parametrize("block", [None, 7], ids=["one_block", "7_bytes"])
    @pytest.mark.parametrize("final", [True, False], ids=["final_eol", "no_final_eol"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("columns", [
        ["sensitive", "x0", "x1", "label"], [" x0", "sensitive", "x1", "label"],
        ["x0", "x1", "label", "sensitive"]], ids=["first", "middle", "last"])
    def test_plain_inputs_keep_every_other_byte(self, tmp_path, monkeypatch,
                                                block, final, newline,
                                                columns):
        # integer-looking features and 2.50, which write_csv would write as
        # 2.0 and 2.5; a 7-byte block splits most lines between reads
        if block:
            monkeypatch.setattr(bench, "_READ_BLOCK", block)
        rng = np.random.default_rng(11)
        rows = [{" x0": str(int(v)), "x0": str(int(v)), "x1": "2.50",
                 "label": str(int(y))}
                for v, y in zip(rng.integers(-50, 50, 60), rng.integers(0, 2, 60))]
        bits = rng.integers(0, 2, 60)
        src, out = tmp_path / "in.csv", tmp_path / "out.csv"
        src.write_bytes(_plain_text(columns, rows, bits, newline, final).encode())
        _corrupt(src, out)
        injected = inject_ccn(load_csv(src), CCNNoise(0.3, 0.2), 5)
        assert (injected.sensitive != bits).sum() >= 5
        assert out.read_bytes() == _plain_text(
            columns, rows, injected.sensitive, newline, final).encode()
        got = load_csv(out)
        assert np.array_equal(got.features, injected.features)
        assert np.array_equal(got.sensitive, injected.sensitive)
        assert np.array_equal(got.target, injected.target)

    @pytest.mark.parametrize("block", [None, 7], ids=["one_block", "7_bytes"])
    @pytest.mark.parametrize("text, drop_missing", [
        ("x0,sensitive,label\n1.5,1.0,0\n2.5,0.0,1\n3.5,1,1\n", False),
        ("x0,sensitive,label\n1.5,1,0\n2.5,0,1\n3.5,1,1\n4.5,0,1\n5.5,1.0,0\n",
         False),
        ("x0,sensitive,label\n1.5,1,0\n\"2.5\",0,1\n3.5,1,1\n", False),
        ("x0,sensitive,label\n1.5,1,0\n,0,1\n3.5,1,1\n", True),
        ("x0,sensitive,label\n1.5,1,0\n2.5, 0,1\n3.5,1,1\n", False)],
        ids=["float_bits", "last_line_float_bit", "quoted_cell",
             "dropped_row", "spaced_bit"])
    def test_other_inputs_are_written_anew(self, tmp_path, monkeypatch, block,
                                           text, drop_missing):
        if block:
            monkeypatch.setattr(bench, "_READ_BLOCK", block)
        src, out = tmp_path / "in.csv", tmp_path / "out.csv"
        src.write_text(text)
        _corrupt(src, out, flags=["--drop-missing"] if drop_missing else [])
        assert out.read_bytes() == _rewritten(src, tmp_path,
                                              drop_missing=drop_missing)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "in.csv", "out.csv", "reference.csv"]

    @pytest.mark.parametrize("bit", ["1", "1.0"], ids=["spliced", "rewritten"])
    def test_output_may_be_the_input(self, tmp_path, bit):
        # corrupting a file onto itself gives the bytes of a separate output
        text = f"x0,sensitive,label\r\n1,{bit},0\r\n" + "2,0,1\r\n3,1,1\r\n" * 20
        src, copy, out = (tmp_path / name for name in ("in.csv", "copy.csv",
                                                       "out.csv"))
        src.write_bytes(text.encode())
        copy.write_bytes(text.encode())
        _corrupt(copy, out)
        _corrupt(src, src)
        assert src.read_bytes() == out.read_bytes() != text.encode()


class TestDpCalibrate:
    def test_epsilon_to_rho(self, capsys):
        assert main(["dp-calibrate", "--epsilon", "1.73"]) == 0
        out = capsys.readouterr().out
        assert "rho = 0.150588" in out

    def test_rho_to_epsilon(self, capsys):
        assert main(["dp-calibrate", "--rho", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "epsilon = 1.734601" in out

    @pytest.mark.parametrize("eps", ["709", "710", "1000", "1e308", "inf"])
    def test_huge_epsilon_gives_zero_rho(self, capsys, eps):
        # exp(eps) overflows past about 709.78; rho is 0 there, as at inf
        assert main(["dp-calibrate", "--epsilon", eps]) == 0
        assert "rho = 0.000000" in capsys.readouterr().out

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
                   "--model-out", str(model_out)])
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

    @pytest.mark.parametrize("flag", ["--base-iterations", "--outer-iterations",
                                      "--select-best"])
    @pytest.mark.parametrize("value", ["0", "-3", "5"])
    def test_removed_base_iterations_flag_exits_1(self, csv_path, tmp_path,
                                                  capsys, flag, value):
        model_out = tmp_path / "m.txt"
        rc = main(["train", "--input", str(csv_path), "--tau", "0.1",
                   "--model-out", str(model_out), flag, value])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag}" in err
        assert "Traceback" not in err
        assert not model_out.exists()

    def test_nan_tau_exits_1(self, csv_path, tmp_path):
        model_out = tmp_path / "m.txt"
        assert main(["train", "--input", str(csv_path), "--tau", "nan",
                     "--model-out", str(model_out)]) == 1
        assert not model_out.exists()

    def test_summary_reports_the_saved_model(self, csv_path, tmp_path, capsys):
        model_out = tmp_path / "m.txt"
        assert main(["train", "--input", str(csv_path), "--tau", "0.02",
                     "--model-out", str(model_out)]) == 0
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

    def test_eo_rates_written(self, tmp_path, capsys):
        data = synth_generate(anchor_synthetic_config(n=4000, seed=15))
        src = tmp_path / "corrupted.csv"
        write_csv(inject_ccn(data, CCNNoise(0.2, 0.1), 3), src)
        out = tmp_path / "rates.txt"
        assert main(["estimate", "--eo", "--input", str(src),
                     "--out", str(out)]) == 0
        est = estimate_eo_rates(load_csv(src))
        assert out.read_text() == (f"alpha_prime = {est.alpha_prime!r}\n"
                                   f"beta_prime = {est.beta_prime!r}\n")
        assert capsys.readouterr().out.endswith(f"wrote {out}\n")

    def test_eo_slice_with_one_apparent_group_exits_2(self, tmp_path, capsys):
        # both groups are present, but every Y=1 row reports A=1
        p = tmp_path / "d.csv"
        p.write_text("x0,sensitive,label\n0.5,1,1\n1.5,1,1\n2.5,0,0\n3.5,1,0\n")
        assert main(["estimate", "--eo", "--input", str(p)]) == 2
        assert capsys.readouterr().err == (
            "data error: both apparent groups must be present\n")


class TestMetrics:
    def test_model_evaluation(self, csv_path, tmp_path, capsys):
        model_out = tmp_path / "model.txt"
        assert main(["train", "--input", str(csv_path), "--tau", "1.0",
                     "--model-out", str(model_out)]) == 0
        capsys.readouterr()
        out = tmp_path / "metrics.txt"
        rc = main(["metrics", "--input", str(csv_path), "--model",
                   str(model_out), "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "ddp = " in printed and "error = " in printed
        assert out.exists()

    def test_version_1_model_file(self, csv_path, capsys):
        # The committed file was written by the retired version 1 (ensemble)
        # writer from a training on this CSV; it no longer loads.
        model = Path(__file__).parent / "data" / "model_v1.txt"
        assert main(["metrics", "--input", str(csv_path),
                     "--model", str(model)]) == 1
        err = capsys.readouterr().err
        assert "not a fairnoise model file" in err and "Traceback" not in err


class TestMissingOutputDirectory:
    """Every output flag is checked before the input is read, so a missing
    directory, or a directory given as the output path, exits 2 without
    doing the command's work."""

    COMMANDS = [("train", "--model-out", "train_fair"),
                ("corrupt", "--output", "inject_ccn"),
                ("estimate", "--out", "estimate_ccn_rates"),
                ("metrics", "--out", "load_model")]

    def _exits_2(self, csv_path, tmp_path, monkeypatch, capsys, command,
                 flag, work, out):
        def never(*args, **kwargs):
            raise AssertionError(f"{command} ran")

        monkeypatch.setattr(bench, "load_csv", never)
        monkeypatch.setattr(cli, work, never)
        extra = {"train": ["--tau", "0.1"],
                 "metrics": ["--model", str(tmp_path / "model.txt")]}
        before = sorted(tmp_path.rglob("*"))
        assert main([command, "--input", str(csv_path), flag, str(out),
                     *extra.get(command, [])]) == 2
        assert sorted(tmp_path.rglob("*")) == before
        return capsys.readouterr().err.strip()

    @pytest.mark.parametrize("command, flag, work", COMMANDS)
    def test_exits_2_before_running(self, csv_path, tmp_path, monkeypatch,
                                    capsys, command, flag, work):
        out = tmp_path / "missing" / "out.txt"
        assert self._exits_2(csv_path, tmp_path, monkeypatch, capsys, command,
                             flag, work, out) == (
            f"io error: [Errno 2] No such file or directory: '{out}'")

    @pytest.mark.parametrize("command, flag, work", COMMANDS)
    def test_directory_as_output_exits_2_before_running(
            self, csv_path, tmp_path, monkeypatch, capsys, command, flag, work):
        out = tmp_path / "somedir"
        out.mkdir()
        assert self._exits_2(csv_path, tmp_path, monkeypatch, capsys, command,
                             flag, work, out) == (
            f"io error: [Errno 21] Is a directory: '{out}'")


def _save_random_model(rng, path, dimension):
    save_model(FairClassifier(rng.normal(size=dimension), rng.normal()), path)


class TestMalformedInputs:
    def test_non_numeric_model_header_exits_1(self, csv_path, tmp_path):
        p = tmp_path / "m.txt"
        for text in ("fairnoise-model 2\ndimension x\n0 0 0 0 0\n",
                     "fairnoise-model 2\ndimension -4\n0 0 0 0 0\n",
                     "fairnoise-model 2\ndimensions 4\n0 0 0 0 0\n",
                     "fairnoise-model 2\n"):
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

    def test_cell_past_the_field_limit_exits_2(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        p.write_text("a" * 140_000)
        assert main(["estimate", "--input", str(p)]) == 2
        err = capsys.readouterr().err
        assert "field larger than field limit" in err and "(row 1)" in err
        assert "Traceback" not in err

    def test_non_finite_cell_row_counts_dropped_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,sensitive,label\n,0,1\n1.0,1,0\n,0,0\n2.0,0,1\nnan,1,1\n")
        with pytest.raises(ParseError, match="row 6, column 'x0'"):
            load_csv(p, drop_missing=True)

    def test_first_bad_row_in_file_order_is_reported(self, tmp_path):
        # a non-finite feature at row 3 comes before a sensitive 2 at row 5
        p = tmp_path / "d.csv"
        p.write_text("x0,sensitive,label\n1.0,0,1\ninf,1,0\n2.0,0,0\n3.0,2,1\n")
        with pytest.raises(ParseError, match="non-finite value inf "
                                             r"\(row 3, column 'x0'\)"):
            load_csv(p)


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
        csv_text, model_text = csv_ok.read_text(), model_ok.read_text()
        csv_bad, model_bad = tmp_path / "bad.csv", tmp_path / "bad.txt"
        cases = [(target, kind) for target in ("csv", "model")
                 for kind in FILE_MUTATIONS + ("dimension",) for _ in range(6)]
        for target, kind in cases:
            csv_bad.write_bytes(csv_text.encode())
            model_bad.write_bytes(model_text.encode())
            if kind == "dimension" and target == "csv":
                kept = int(rng.integers(0, data.dimension))
                write_csv(Dataset(data.features[:, :kept], data.sensitive,
                                  data.target), csv_bad)
            elif kind == "dimension":
                _save_random_model(rng, model_bad,
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

    # the keys whose values size an array, a range or the secant's grid are
    # bounded; seeds and Newton caps take any size
    HUGE = "9" * 400
    INT_KEYS = {"synth_n": 1, "repetitions": 1, "outer_iterations": 1,
                "presolve_iterations": 1, "synth_seed": 0, "base_seed": 0,
                "base_iterations": 0, "presolve_base_iterations": 0}

    def test_every_integer_key_is_covered(self):
        assert {row[0] for row in sweepconfig._SCHEMA
                if row[3] is sweepconfig._CODECS[int]} == set(self.INT_KEYS)

    @pytest.mark.parametrize("key", sorted(INT_KEYS))
    def test_400_digit_integer_values(self, tmp_path, capsys, key):
        out = tmp_path / "results.csv"
        rc = main(["sweep", "--set", "repetitions=1", "--set", "synth_n=400",
                   "--set", f"{key}={self.HUGE}", "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert rc == self.INT_KEYS[key]
        if rc:
            assert len(err) == 1 and err[0].startswith("invalid parameter: ")
            assert not out.exists()
        else:
            assert read_results(out)

    @pytest.mark.parametrize("levels, rc", [
        (_MAX_LEVELS, 0), (_MAX_LEVELS + 1, 1), (1020, 1), (2000, 1)])
    def test_presolve_depth_bound(self, tmp_path, capsys, levels, rc):
        # on the default sweep, 1020 levels overflowed the secant's grid
        out = tmp_path / "results.csv"
        assert main(["sweep", "--set", "repetitions=1", "--set",
                     f"presolve_iterations={levels}", "--out", str(out)]) == rc
        err = capsys.readouterr().err
        assert err == ("" if rc == 0 else "invalid parameter: presolve_"
                       f"iterations must be >= 0 and <= {_MAX_LEVELS} "
                       "(0: none)\n")

    @pytest.mark.parametrize("setting", [
        "methods=nocor,nocor", "tau_grid=0.05,5e-2",
        "rho_hat_grid=0.1:0.1,0.1:1e-1"])
    def test_duplicate_entry_is_a_usage_error(self, tmp_path, capsys,
                                              setting):
        out = tmp_path / "results.csv"
        rc = main(["sweep", "--set", "repetitions=2", "--set", setting,
                   "--out", str(out)])
        assert rc == 1
        assert "twice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", [[], ["--set", "noise_mode=estimate"]])
    def test_rho_hat_grid_without_its_sweep_is_a_usage_error(
            self, tmp_path, capsys, mode):
        out = tmp_path / "results.csv"
        rc = main(["sweep", "--set", "repetitions=1", "--set",
                   "rho_hat_grid=0.3:0.3", "--set", "methods=cor_scale",
                   "--set", "tau_grid=0.05", *mode, "--out", str(out)])
        assert rc == 1
        assert "noise_mode = rho_hat_sweep" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_collinear_design_sweeps_without_warning(self, tmp_path):
        # A constant column copies the intercept and the last column copies
        # the first; the fixed ridge keeps every best response solvable.
        data = synth_generate(disparity_synthetic_config(n=600, seed=3))
        X = data.features
        path = tmp_path / "singular.csv"
        write_csv(Dataset(np.column_stack([X, np.ones(len(X)), X[:, 0]]),
                          data.sensitive, data.target), path)
        out = tmp_path / "results.csv"
        settings = {"data": "csv", "csv_path": str(path), "repetitions": "1",
                    "tau_grid": "0.05,0.2", "outer_iterations": "10"}
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
        fast = ["--set", "synth_n=600", "--set", "tau_grid=0.02,0.05",
                "--set", "repetitions=1", "--set", "methods=nocor,cor_scale",
                "--set", "outer_iterations=6", "--set", "presolve_iterations=8"]
        out = tmp_path / "r.csv"
        assert main(["sweep", "--out", str(out), *fast,
                     "--set", "noise_mode=rho_hat_sweep",
                     "--set", "rho_hat_grid=0.0:0.0,0.3:0.3"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        # the _agg file's test rows, line for line, each method's by pair
        # and then by tau (the file orders them by tau and then by pair)
        with open(bench.agg_path(str(out)), newline="") as fh:
            agg = {(g["method"], g["rho_plus_hat"], g["tau"]): g
                   for g in csv.DictReader(fh) if g["split"] == "test"}
        order = [("cor_scale", "0.0", "0.02"), ("cor_scale", "0.0", "0.05"),
                 ("cor_scale", "0.3", "0.02"), ("cor_scale", "0.3", "0.05"),
                 ("nocor", "", "0.02"), ("nocor", "", "0.05")]
        assert sorted(agg) == sorted(order)
        want = []
        for method, rho, tau in order:
            g = agg[method, rho, tau]
            at = f"rho_hat={float(rho):g}:{float(rho):g}" if rho else ""
            want.append([method, *([at] if at else []), f"tau={tau}", "test",
                         f"violation={float(g['mean_fairness_violation']):.4f}",
                         f"error={float(g['mean_error']):.4f}"])
        assert [line.split() for line in lines] == want
        # known mode names no pair
        assert main(["sweep", "--out", str(out), *fast]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert [line.split()[:2] for line in lines] == [
            ["cor_scale", "tau=0.02"], ["cor_scale", "tau=0.05"],
            ["nocor", "tau=0.02"], ["nocor", "tau=0.05"]]

    def _sweep_exits_2(self, tmp_path, monkeypatch, capsys, out):
        def run_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(bench, "run_sweep", run_sweep)
        before = sorted(tmp_path.rglob("*"))
        assert main(["sweep", "--set", "repetitions=1", "--out", str(out)]) == 2
        assert sorted(tmp_path.rglob("*")) == before
        return capsys.readouterr().err.strip()

    def test_missing_out_directory_exits_2_before_running(self, tmp_path,
                                                          monkeypatch, capsys):
        out = tmp_path / "missing" / "results.csv"
        assert self._sweep_exits_2(tmp_path, monkeypatch, capsys, out) == (
            f"io error: [Errno 2] No such file or directory: '{out}'")

    def test_directory_as_out_exits_2_before_running(self, tmp_path,
                                                     monkeypatch, capsys):
        out = tmp_path / "somedir"
        out.mkdir()
        assert self._sweep_exits_2(tmp_path, monkeypatch, capsys, out) == (
            f"io error: [Errno 21] Is a directory: '{out}'")
        # the companion _agg file's path is checked as well
        agg = tmp_path / "r_agg.csv"
        agg.mkdir()
        assert self._sweep_exits_2(tmp_path, monkeypatch, capsys,
                                   tmp_path / "r.csv") == (
            f"io error: [Errno 21] Is a directory: '{agg}'")

    def test_unknown_set_key_exits_1(self, tmp_path):
        assert main(["sweep", "--out", str(tmp_path / "r.csv"),
                     "--set", "bogus=1"]) == 1

    @pytest.mark.parametrize("key", [
        "est_max_iter", "select_best", "dual_step", "dual_bound", "regularization",
        "feasibility_slack", "boundary_margin", "est_n_bins", "est_anchor_quantile"])
    def test_removed_est_max_iter_key_exits_1(self, tmp_path, capsys, key):
        out = tmp_path / "r.csv"
        assert main(["sweep", "--out", str(out), "--set", f"{key}=5"]) == 1
        assert f"unknown config key '{key}'" in capsys.readouterr().err
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"{key} = 5\n")
        assert main(["sweep", "--out", str(out), "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"unknown key '{key}'" in err and "Traceback" not in err
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


_SUMMARY_LINE = re.compile(r"^  (.+?) +tau=(\S+) +test violation=(\S+) "
                           r"error=(\S+)$")


class TestEstimateModeAggregates:
    """With ``noise_mode=estimate`` each repetition estimates its own rate
    pair; ``_agg`` still averages over the repetitions, as stdout does."""

    CASES = {"default": [],
             # the paper's case study: the sensitive attribute is censored,
             # some A=1 rows report A=0 and none go the other way
             "censoring": ["--set", "rho_plus=0.3", "--set", "rho_minus=0",
                           "--set", "synth_n=20000"]}

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        """Each case's (rows, agg rows, stdout), its sweep run once."""
        done = {}

        def run(case):
            if case not in done:
                out = tmp_path_factory.mktemp(case) / "r.csv"
                argv = ["sweep", "--set", "noise_mode=estimate", "--set",
                        "repetitions=3", *self.CASES[case], "--jobs", "1",
                        "--out", str(out)]
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    assert main(argv) == 0
                with open(bench.agg_path(str(out)), newline="") as fh:
                    agg = list(csv.DictReader(fh))
                done[case] = read_results(out), agg, stdout.getvalue()
            return done[case]
        return run

    @pytest.fixture(params=sorted(CASES))
    def sweep(self, request, run):
        return run(request.param)

    def test_every_group_holds_the_repetitions(self, sweep):
        rows, agg, _ = sweep
        assert len(agg) == 4 * 5 * 2  # methods x taus x splits
        assert all(g["n"] == "3" for g in agg)
        for g in agg:
            members = [r for r in rows if (r.method, r.tau, r.split)
                       == (g["method"], float(g["tau"]), g["split"])]
            assert len(members) == 3
            if g["method"] in ("cor_scale", "denoise"):
                for cell in ("rho_plus_hat", "rho_minus_hat"):
                    values = [getattr(r, cell) for r in members]
                    assert len(set(values)) > 1  # one estimate per repetition
                    assert float(g[cell]) == float(np.mean(values))
            else:
                assert g["rho_plus_hat"] == g["rho_minus_hat"] == ""

    def test_test_split_means_are_the_summary(self, sweep):
        from fairnoise.denoise import LABEL
        _, agg, stdout = sweep
        summary = {}
        for line in stdout.splitlines():
            m = _SUMMARY_LINE.match(line)
            if m:
                method = "denoise" if m[1] == LABEL else m[1]
                summary[method, float(m[2])] = (m[3], m[4])
        expected = {(g["method"], float(g["tau"])): (
            f"{float(g['mean_fairness_violation']):.4f}",
            f"{float(g['mean_error']):.4f}") for g in agg
            if g["split"] == "test"}
        assert summary == expected

    def test_censored_rates_are_estimated(self, run):
        # measured: rho+ 0.302-0.312 and rho- 1e-06-0.001 over the three
        # repetitions; the bounds leave the measured spread and no more
        rows, _, _ = run("censoring")
        pairs = {(r.rho_plus_hat, r.rho_minus_hat) for r in rows
                 if r.rho_plus_hat is not None}
        assert len(pairs) == 3
        assert all(0.295 <= p <= 0.315 and 0.0 <= m <= 0.002
                   for p, m in pairs)


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self):
        assert main(["dp-calibrate", "--epsilon", "1.0", "--wat"]) == 1


class TestWarningAsError:
    """Under ``-W error`` a fairnoise warning becomes an exception; the CLI
    maps it to exit 1 with the warning's text on one stderr line."""

    @staticmethod
    def exits_1(argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        return err

    def test_pairing_warning(self, csv_path, tmp_path, capsys):
        err = self.exits_1(["train", "--input", str(csv_path), "--tau", "0.1",
                            "--loss", "zero_one",
                            "--model-out", str(tmp_path / "m.txt")], capsys)
        assert err.startswith("PairingWarning: non-default pairing")

    def test_failed_sweep_cell(self, tmp_path, capsys):
        err = self.exits_1(["sweep", "--set", "synth_n=3", "--set",
                            "repetitions=1", "--out", str(tmp_path / "r.csv")],
                           capsys)
        assert "sweep cell nocor tau=0.02 rep=0 failed" in err

    def test_sweep_pairing_warning(self, tmp_path, capsys):
        err = self.exits_1(["sweep", "--set", "synth_n=200", "--set",
                            "repetitions=1", "--set", "loss=zero_one",
                            "--jobs", "1", "--out", str(tmp_path / "r.csv")],
                           capsys)
        assert err.startswith("PairingWarning: non-default pairing")
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("noise", [[], ["--rho-plus", "0.1",
                                            "--rho-minus", "0.1"]],
                             ids=["clean", "known_rates"])
    def test_unescalated_warning_names_the_cli_line(self, csv_path, tmp_path,
                                                    capsys, noise):
        # without the filter the warning stays a warning: one per training,
        # attributed to the CLI's own line, and the command succeeds
        with pytest.warns(PairingWarning) as record:
            assert main(["train", "--input", str(csv_path), "--tau", "0.1",
                         "--loss", "zero_one", *noise,
                         "--model-out", str(tmp_path / "m.txt")]) == 0
        assert len(record) == 1
        assert Path(record[0].filename) == Path(cli.__file__)
        assert (tmp_path / "m.txt").exists()


def _logged_run_cell(log, config, data, rep):
    """``run_cell`` that first appends ``rep`` to the file ``log``. Every
    repetition after the first then sleeps 0.3 s, so the workers are still
    busy when the first one's warnings arrive."""
    with open(log, "a") as fh:
        fh.write(f"{rep}\n")
    if rep:
        time.sleep(0.3)
    return run_cell(config, data, rep)


class TestWorkerWarnings:
    """Workers return their warnings and the parent warns them again, so a
    sweep's stderr does not depend on ``--jobs``."""

    @staticmethod
    def stderr(tmp_path, sets, jobs, *flags):
        src = str(Path(cli.__file__).resolve().parents[1])
        argv = [sys.executable, *flags, "-m", "fairnoise.cli", "sweep",
                "--jobs", jobs, "--out", str(tmp_path / f"r{jobs}.csv")]
        for item in sets:
            argv += ["--set", item]
        done = subprocess.run(argv, capture_output=True, text=True,
                              timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        return done.returncode, done.stderr

    @pytest.mark.parametrize("sets, pairing, failed", [
        (["loss=zero_one", "tau_grid=0,0.005,0.02", "synth_n=600"], 1, 0),
        (["loss=zero_one", "synth_n=3", "repetitions=2"], 1, 40)],
        ids=["pairing", "failed_cells"])
    def test_stderr_does_not_depend_on_jobs(self, tmp_path, sets, pairing,
                                            failed):
        # one PairingWarning per sweep (its location repeats in every
        # repetition) and one warning per failed cell, in repetition order
        one, two = (self.stderr(tmp_path, sets, jobs) for jobs in ("1", "2"))
        assert one == two
        assert one[0] == 0
        assert one[1].count("PairingWarning: non-default pairing") == pairing
        assert one[1].count("FairnoiseWarning: sweep cell") == failed
        # as an error, the first of them ends either run
        one, two = (self.stderr(tmp_path, sets, jobs, "-W", "error")
                    for jobs in ("1", "2"))
        assert one == two
        assert one[0] == 1 and one[1].count("\n") == 1
        assert one[1].startswith("PairingWarning: non-default pairing")

    def test_a_raised_warning_cancels_the_waiting_repetitions(
            self, tmp_path, monkeypatch):
        # the workers are forked, so they run the patched run_cell too
        log = tmp_path / "started.txt"
        monkeypatch.setattr(bench, "run_cell",
                            partial(_logged_run_cell, str(log)))
        config = ExperimentConfig(
            synthetic=disparity_synthetic_config(n=200, seed=3),
            loss=FairnessLoss.ZERO_ONE, tau_grid=(0.05,), methods=("nocor",),
            repetitions=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PairingWarning, match="non-default pairing"):
                bench.run_sweep(config, jobs=2)
        assert len(log.read_text().split()) < 8


class TestJobsEnvVar:
    def test_import_leaves_the_process_pool_unloaded(self):
        # the pool is imported by a sweep with --jobs > 1, not by the CLI
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys, fairnoise.cli; "
                "print('concurrent.futures.process' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        assert out == "False\n"

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
