"""One benchmark process: set up a workload, time it, check its outputs.

``run.py`` starts this script in a fresh interpreter for every set-up
probe and every measured run, with ``PYTHONPATH`` pointing at the
checkout's ``src``, BLAS pinned to one thread and ``FAIRNOISE_JOBS``
removed. It prints one JSON object as its last line of standard output.

The package is driven only through ``cli.main`` and the public functions
of ``bench``, ``core``, ``fairtrain`` and ``noise``; stdout of ``cli.main``
is captured so that the JSON line stays last.
"""

import time

# Set-up time counts from here, so the imports below are part of it.
_T0 = time.perf_counter()

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
import warnings
from collections import Counter

import numpy as np

import fairnoise
from fairnoise import bench, cli, core, fairtrain, noise

from tracer import Tracer

TOL = 1e-12


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _seed(seed):
    return seed % 2**31


class SweepDefault:
    """``fairnoise sweep --set repetitions=1 --jobs 1`` on the shipped
    default config. Seed 0 is that config exactly (synth_seed 23,
    base_seed 1); seed s shifts both by s."""

    work_unit = "trainings"

    def __init__(self, seed, tiny, run_dir):
        base = bench.default_experiment_config()
        sets = {"repetitions": 1, "synth_seed": base.synthetic.seed + seed,
                "base_seed": base.base_seed + seed}
        if tiny:
            sets.update(synth_n=400, outer_iterations=4, base_iterations=5,
                        presolve_iterations=3, presolve_base_iterations=10)
        self.out = os.path.join(run_dir, "results.csv")
        self.argv = ["sweep", "--jobs", "1", "--out", self.out]
        for key, value in sets.items():
            self.argv += ["--set", f"{key}={value}"]
        self.config = dataclasses.replace(
            base, repetitions=1, base_seed=sets["base_seed"],
            synthetic=dataclasses.replace(base.synthetic, seed=sets["synth_seed"],
                                          n=sets.get("synth_n", base.synthetic.n)))
        self.work = self.operations = (len(self.config.methods)
                                       * len(self.config.tau_grid))
        self._pi_corr = None

    def iterate(self):
        return _cli(self.argv)

    def corrupted_base_rate(self):
        """P[A_corr = 1] of the corrupted training split, rebuilt with the
        split and injection seeds ``bench.run_cell`` uses for repetition 0."""
        if self._pi_corr is None:
            cfg = self.config
            data = bench.synth_generate(cfg.synthetic)
            order = np.random.default_rng(cfg.base_seed).permutation(len(data))
            train = data.subset(order[:int(cfg.train_fraction * len(data))])
            corrupted = noise.inject_ccn(train, noise.CCNNoise(cfg.rho_plus, cfg.rho_minus),
                                         cfg.base_seed * 1_000_003 + 1)
            self._pi_corr = corrupted.base_rate()
        return self._pi_corr

    def check(self, code, problems):
        """Returns (failed trainings, quality, info)."""
        if code != 0:
            problems.append(f"sweep exited with code {code}")
            return self.work, {}, {}
        agg = os.path.splitext(self.out)[0] + "_agg.csv"
        for path, columns in ((self.out, bench.RESULT_COLUMNS),
                              (agg, bench.AGG_COLUMNS)):
            with open(path, newline="", encoding="utf-8") as fh:
                header = next(csv.reader(fh), None)
            if header != list(columns):
                problems.append(f"{os.path.basename(path)} header is {header}")
        rows = bench.read_results(self.out)
        want = 2 * self.work
        if len(rows) != want:
            problems.append(f"sweep wrote {len(rows)} rows, expected {want}")
        empty = [r for r in rows if r.fairness_violation is None or r.error is None]
        if empty:
            problems.append(f"{len(empty)} sweep rows are empty")
        pi_corr = self.corrupted_base_rate()
        scaled = [r for r in rows if r.method == "cor_scale" and r not in empty]
        for r in scaled:
            mc, _ = noise.ccn_to_mc_from_corrupted(
                noise.CCNNoise(r.rho_plus_hat, r.rho_minus_hat), pi_corr)
            want_tau = r.tau * (1.0 - mc.alpha - mc.beta)
            if r.tau_prime is None or abs(r.tau_prime - want_tau) > TOL:
                problems.append(f"cor_scale tau={r.tau}: tau_prime {r.tau_prime} "
                                f"!= tau * (1 - alpha - beta) = {want_tau}")
        test = [r for r in scaled if r.split == "test"]
        quality = {}
        if test:
            quality = {"violation_excess": max(r.fairness_violation - r.tau
                                               for r in test),
                       "test_error": statistics.fmean(r.error for r in test)}
        with open(self.out, "rb") as fh:
            info = {"results_sha256": hashlib.sha256(fh.read()).hexdigest()}
        return (len(empty) + 1) // 2, quality, info


class TrainEO50k:
    """One ``train_fair_noisy`` with equal opportunity, tau 0.05 and known
    CCN 0.15/0.15 on 50k rows, evaluated on a separate clean 12.5k-row
    sample. Corruption is part of set-up: the trainer receives it as
    input."""

    work_unit = "trainings"
    work = operations = 1
    tau = 0.05

    def __init__(self, seed, tiny, run_dir):
        n = 2_000 if tiny else 50_000
        train = bench.synth_generate(bench.disparity_synthetic_config(n=n, seed=23 + seed))
        self.test = bench.synth_generate(
            bench.disparity_synthetic_config(n=n // 4, seed=1_000_023 + seed))
        self.rates = noise.CCNNoise(0.15, 0.15)
        self.corrupted = noise.inject_ccn(train, self.rates, 7 + seed)
        self.spec = core.FairnessSpec(core.Criterion.EQUAL_OPPORTUNITY, None, self.tau)
        self.config = fairtrain.TrainConfig()
        if tiny:
            self.config = fairtrain.TrainConfig(
                outer_iterations=4, base_iterations=5, presolve_iterations=3,
                presolve_base_iterations=10)

    def iterate(self):
        try:
            model = fairtrain.train_fair_noisy(self.corrupted, self.spec,
                                               self.rates, self.config)
        except Exception:  # a failed training is counted, not fatal
            traceback.print_exc()
            return None
        return (model, core.disparity(self.test, model, self.spec),
                core.accuracy_risk(self.test, model))

    def check(self, out, problems):
        if out is None:
            problems.append("train_fair_noisy raised")
            return 1, {}, {}
        model, violation, error = out
        trace = model.trace
        if trace.tau != trace.tau_original * trace.tolerance_scale:
            problems.append(f"trace tau {trace.tau} != tau_original * "
                            f"tolerance_scale = {trace.tau_original * trace.tolerance_scale}")
        if trace.tau_original != self.tau:
            problems.append(f"trace tau_original is {trace.tau_original}")
        if not (math.isfinite(violation) and math.isfinite(error)):
            problems.append("test violation or error is not finite")
        quality = {"violation_excess": violation - self.tau, "test_error": error}
        return 0, quality, {"feasible": bool(trace.feasible)}


class IngestEstimate200k:
    """``fairnoise corrupt``, ``estimate`` and ``estimate --eo`` through
    ``cli.main`` on a 200k-row anchor-point CSV written during set-up."""

    work_unit = "csv_rows_parsed"
    operations = 3  # CLI commands per iteration
    rates = (0.2, 0.1)

    def __init__(self, seed, tiny, run_dir):
        self.n = 4_000 if tiny else 200_000
        self.work = 3 * self.n  # three commands, each parses the whole file
        self.clean = bench.synth_generate(bench.anchor_synthetic_config(n=self.n, seed=3 + seed))
        self.paths = {k: os.path.join(run_dir, k) for k in
                      ("input.csv", "corrupted.csv", "ccn.txt", "eo.txt")}
        bench.write_csv(self.clean, self.paths["input.csv"])
        self.corrupt_seed = seed

    def iterate(self):
        p = self.paths
        rp, rm = self.rates
        return [
            _cli(["corrupt", "--input", p["input.csv"], "--output", p["corrupted.csv"],
                  "--rho-plus", str(rp), "--rho-minus", str(rm),
                  "--seed", str(self.corrupt_seed)]),
            _cli(["estimate", "--input", p["corrupted.csv"], "--out", p["ccn.txt"]]),
            _cli(["estimate", "--eo", "--input", p["corrupted.csv"], "--out", p["eo.txt"]]),
        ]

    def _read_pairs(self, path, problems):
        values = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition("=")
                values[key.strip()] = float(value)
        for key, value in values.items():
            if not 0.0 <= value < 1.0:
                problems.append(f"estimated {key} = {value} is outside [0, 1)")
        return values

    def check(self, codes, problems):
        failed = sum(code != 0 for code in codes)
        if failed:
            problems.append(f"CLI exit codes {codes}")
            return failed, {}, {}
        ccn = self._read_pairs(self.paths["ccn.txt"], problems)
        eo = self._read_pairs(self.paths["eo.txt"], problems)
        injected = noise.CCNNoise(*self.rates)
        corrupted = noise.inject_ccn(self.clean, injected, self.corrupt_seed)
        y1 = corrupted.subset(corrupted.target == 1)
        mc, _ = noise.ccn_to_mc_from_corrupted(injected, y1.base_rate())
        errors = [abs(ccn["rho_plus"] - injected.rho_plus),
                  abs(ccn["rho_minus"] - injected.rho_minus),
                  abs(eo["alpha_prime"] - mc.alpha),
                  abs(eo["beta_prime"] - mc.beta)]
        return 0, {"rate_abs_err": max(errors)}, {**ccn, **eo}


WORKLOADS = {"sweep_default": SweepDefault, "train_eo_50k": TrainEO50k,
             "ingest_estimate_200k": IngestEstimate200k}


def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "nproc_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            **{var: value for var, value in sorted(os.environ.items())
               if var.endswith("_NUM_THREADS")},
            "FAIRNOISE_JOBS": os.environ.get("FAIRNOISE_JOBS")}


def measure(workload, seconds, trace):
    """Timed loop. Iterations run until the next one would end after
    ``seconds``; with ``trace`` each untraced iteration is paired with a
    traced one. At least one iteration (or pair) always runs. Warnings the
    package raises are counted by category instead of printed."""
    walls, traced_walls, layers, passes = [], [], [], []
    attempted = failed = 0
    problems, quality, info = [], {}, {}
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        while True:
            pass_start = t0 = time.perf_counter()
            outputs = [workload.iterate()]
            walls.append(time.perf_counter() - t0)
            if trace:
                with Tracer() as tracer:
                    t0 = time.perf_counter()
                    outputs.append(workload.iterate())
                    wall = time.perf_counter() - t0
                traced_walls.append(wall)
                layers.append(tracer.metrics(wall))
            for out in outputs:
                n_failed, quality, info = workload.check(out, problems)
                attempted += workload.operations
                failed += n_failed
            now = time.perf_counter()
            passes.append(now - pass_start)
            if now - start + statistics.median(passes) > seconds:
                break
    info["warnings"] = dict(Counter(w.category.__name__ for w in caught))
    return {"walls": walls, "traced_walls": traced_walls, "layers": layers,
            "attempted": attempted, "failed": failed, "problems": problems,
            "quality": quality, "info": info}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--dir", required=True, help="scratch directory for this process")
    parser.add_argument("--src", required=True, help="the src directory the package must come from")
    parser.add_argument("--tiny", action="store_true", help="self-check sizes")
    args = parser.parse_args(argv)

    package_dir = os.path.dirname(os.path.realpath(fairnoise.__file__))
    if os.path.dirname(package_dir) != os.path.realpath(args.src):
        print(f"fairnoise was imported from {package_dir}, not from {args.src}",
              file=sys.stderr)
        return 2
    os.makedirs(args.dir, exist_ok=True)
    workload = WORKLOADS[args.workload](_seed(args.seed), args.tiny, args.dir)
    result = {"setup_s": time.perf_counter() - _T0, "machine": machine(),
              "work_per_iteration": workload.work, "work_unit": workload.work_unit}
    if args.mode == "run":
        result.update(measure(workload, args.seconds, args.trace))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
