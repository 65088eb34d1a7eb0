"""Command-line surface.

Exit codes: 0 success, 1 usage error (bad flags or out-of-range
parameters), 2 data error, 3 numerical failure. A fairnoise warning made
an error (``python -W error``) exits 1 with its text on one stderr line.
All randomness is seeded: ``corrupt --seed`` and the sweep's
``base_seed`` and ``synth_seed`` config keys. Human summaries go to
standard output while machine-readable tables go to files.
"""

import argparse
import errno
import os
import sys

from . import bench, sweepconfig
from .core import FairnessSpec, accuracy_risk, ddp, deo, disparity
from .errors import (DataError, FairnoiseError, FairnoiseWarning,
                     NumericalError, SchemaError, ValidationError)
from .estimation import estimate_ccn_rates, estimate_eo_rates
from .fairtrain import load_model, save_model, train_fair, train_fair_noisy
from .noise import (CCNNoise, ccn_to_mc, dp_epsilon_for_rho, dp_rho_for_epsilon,
                    inject_ccn)


class _UsageExit(Exception):
    def __init__(self, message):
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures raise instead of exiting 2."""

    def error(self, message):
        raise _UsageExit(message)


def _build_parser():
    parser = _Parser(prog="fairnoise",
                     description="Noise-tolerant fair classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corrupt", help="inject CCN noise into a CSV dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--rho-plus", type=float, default=0.0)
    p.add_argument("--rho-minus", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--drop-missing", action="store_true")

    p = sub.add_parser("estimate", help="estimate CCN noise rates from a CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--eo", action="store_true",
                   help="estimate the EO-conditional rates on the Y=1 slice")
    p.add_argument("--out", help="write key=value output here")
    p.add_argument("--drop-missing", action="store_true")

    p = sub.add_parser("dp-calibrate",
                       help="match randomized-response noise to a privacy level")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--epsilon", type=float)
    g.add_argument("--rho", type=float)
    p.add_argument("--base-rate", type=float, default=0.5,
                   help="clean P[A=1] used to report the tolerance scale")

    p = sub.add_parser("train", help="train a fair classifier on a CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--criterion", choices=sorted(sweepconfig.CRITERIA),
                   default="dp")
    p.add_argument("--loss", choices=sorted(sweepconfig.LOSSES),
                   default="default")
    p.add_argument("--rho-plus", type=float)
    p.add_argument("--rho-minus", type=float)
    p.add_argument("--estimate-noise", action="store_true")
    p.add_argument("--model-out", required=True)
    p.add_argument("--drop-missing", action="store_true")

    p = sub.add_parser("metrics", help="evaluate a model file on a CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", help="write key=value output here")
    p.add_argument("--drop-missing", action="store_true")

    p = sub.add_parser("sweep", help="run the benchmark sweep")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--out", default="results.csv")
    p.add_argument("--jobs", type=int,
                   help="worker processes (default: $FAIRNOISE_JOBS, else 1)")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override one config key (repeatable)")
    p.add_argument("--write-default-config", metavar="PATH",
                   help="write the shipped default config to PATH and exit")
    return parser


def _require_out_dir(path):
    """Fail before any work when the directory of an output path is
    missing, or the path is itself a directory, with the error its
    ``open`` would raise (exit 2)."""
    if not path:
        return
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _cmd_corrupt(args):
    _require_out_dir(args.output)
    data = bench.load_csv(args.input, drop_missing=args.drop_missing)
    noise = CCNNoise(args.rho_plus, args.rho_minus)
    corrupted = inject_ccn(data, noise, args.seed)
    if not bench.splice_sensitive(args.input, args.output, data.sensitive,
                                  corrupted.sensitive):
        bench.write_csv(corrupted, args.output,
                        bench.csv_feature_names(args.input))
    flipped = data.sensitive != corrupted.sensitive
    n1 = int((data.sensitive == 1).sum())
    n0 = len(data) - n1
    f10 = int((flipped & (data.sensitive == 1)).sum())
    f01 = int((flipped & (data.sensitive == 0)).sum())
    print(f"wrote {args.output}: {len(data)} rows")
    print(f"flipped 1->0: {f10}/{n1} ({f10 / n1:.4f})" if n1 else "flipped 1->0: 0/0")
    print(f"flipped 0->1: {f01}/{n0} ({f01 / n0:.4f})" if n0 else "flipped 0->1: 0/0")
    return 0


def _cmd_estimate(args):
    _require_out_dir(args.out)
    data = bench.load_csv(args.input, drop_missing=args.drop_missing)
    if args.eo:
        est = estimate_eo_rates(data)
        pairs = [("alpha_prime", est.alpha_prime), ("beta_prime", est.beta_prime)]
        print(f"estimated EO-conditional rates: alpha'={est.alpha_prime:.4f} "
              f"beta'={est.beta_prime:.4f}")
    else:
        est = estimate_ccn_rates(data)
        pairs = [("rho_plus", est.rho_plus), ("rho_minus", est.rho_minus)]
        print(f"estimated CCN rates: rho+={est.rho_plus:.4f} "
              f"rho-={est.rho_minus:.4f}")
    if args.out:
        _write_pairs(args.out, pairs)
    return 0


def _write_pairs(path, pairs):
    """Write the machine-readable ``key = repr(value)`` lines of ``--out``."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, val in pairs:
            fh.write(f"{key} = {val!r}\n")
    print(f"wrote {path}")


def _cmd_dp_calibrate(args):
    if not 0.0 < args.base_rate < 1.0:
        raise ValidationError("--base-rate must lie in (0, 1)")
    if args.epsilon is not None:
        eps = args.epsilon
        rho = dp_rho_for_epsilon(eps)
    else:
        rho = args.rho
        eps = dp_epsilon_for_rho(rho)
    mc, pi_corr = ccn_to_mc(CCNNoise(rho, rho), args.base_rate)
    scale = 1.0 - mc.alpha - mc.beta
    print(f"epsilon = {eps:.6f}")
    print(f"rho = {rho:.6f}")
    print(f"at base rate P[A=1] = {args.base_rate}: corrupted base rate = "
          f"{pi_corr:.6f}, tolerance scale 1 - alpha - beta = {scale:.6f}")
    return 0


def _cmd_train(args):
    _require_out_dir(args.model_out)
    data = bench.load_csv(args.input, drop_missing=args.drop_missing)
    spec = FairnessSpec(sweepconfig.CRITERIA[args.criterion],
                        sweepconfig.LOSSES[args.loss], args.tau)
    if (args.rho_plus is None) != (args.rho_minus is None):
        raise _UsageExit("--rho-plus and --rho-minus go together")
    if args.estimate_noise and args.rho_plus is not None:
        raise _UsageExit("--estimate-noise conflicts with explicit rates")

    if args.rho_plus is not None:
        model = train_fair_noisy(data, spec, CCNNoise(args.rho_plus,
                                                      args.rho_minus))
    elif args.estimate_noise:
        model = train_fair_noisy(data, spec)
    else:
        model = train_fair(data, spec)

    save_model(model, args.model_out)
    trace = model.trace
    print(f"trained on {len(data)} rows; criterion={args.criterion} "
          f"tau={args.tau}")
    if trace.tau_original is not None:
        print(f"noise used (rho+ or alpha, rho- or beta) = "
              f"({trace.noise_used[0]:.4f}, {trace.noise_used[1]:.4f})")
        print(f"scaled tolerance tau' = {trace.tau:.6f} "
              f"(scale {trace.tolerance_scale:.4f})")
    print(f"saved model on the training data: violation = "
          f"{disparity(data, model, spec):.6f}, risk = "
          f"{accuracy_risk(data, model):.6f}, feasible = {trace.feasible}")
    print(f"wrote {args.model_out}")
    return 0


def _cmd_metrics(args):
    _require_out_dir(args.out)
    data = bench.load_csv(args.input, drop_missing=args.drop_missing)
    model = load_model(args.model)
    if model.dimension != data.dimension:
        raise SchemaError(f"the model expects {model.dimension} feature columns, "
                          f"the CSV has {data.dimension}")
    vals = [("ddp", ddp(data, model)), ("deo", deo(data, model)),
            ("error", accuracy_risk(data, model))]
    for key, val in vals:
        print(f"{key} = {val:.6f}")
    if args.out:
        _write_pairs(args.out, vals)
    return 0


def _cmd_sweep(args):
    if args.write_default_config:
        sweepconfig.write_config_file(bench.default_experiment_config(),
                                      args.write_default_config)
        print(f"wrote {args.write_default_config}")
        return 0
    mapping = {}
    if args.config:
        mapping.update(sweepconfig.parse_config_file(args.config))
    for item in args.set:
        if "=" not in item:
            raise _UsageExit(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        if key.strip() not in sweepconfig.KNOWN_KEYS:
            raise _UsageExit(f"unknown config key {key.strip()!r}")
        mapping[key.strip()] = value.strip()
    config = sweepconfig.build_experiment_config(mapping)
    jobs = args.jobs if args.jobs is not None else _jobs_from_env()
    if jobs < 1:
        raise _UsageExit("--jobs (or FAIRNOISE_JOBS) must be >= 1")
    _require_out_dir(args.out)
    _require_out_dir(bench.agg_path(args.out))
    rows = bench.run_sweep(config, jobs=jobs)
    agg = bench.emit_results(rows, args.out,
                             by_pair=config.noise_mode != "estimate")
    done = sum(1 for r in rows if r.fairness_violation is not None)
    print(f"wrote {args.out} ({len(rows)} rows, {done} evaluated) and "
          f"{bench.agg_path(args.out)}")
    for line in _summarize(agg, config.noise_mode == "rho_hat_sweep"):
        print(line)
    return 0


def _jobs_from_env():
    value = os.environ.get("FAIRNOISE_JOBS", "1")
    try:
        return int(value)
    except ValueError:
        raise _UsageExit(f"FAIRNOISE_JOBS must be an integer, got {value!r}") from None


def _summarize(agg, show_pair):
    """The test rows of the sweep's ``_agg`` file (``bench.emit_results``):
    mean violation and error per (method, [rho-hat pair,] tau)."""
    from .denoise import LABEL as DENOISE_LABEL
    test = [row for row in agg if row[4] == "test"]
    if show_pair:  # the file orders each method's rows by tau first
        test.sort(key=lambda row: bench._sort_key(row[:1] + row[2:4]))
    out = []
    for method, tau, rho_plus, rho_minus, _, _, fv, _, er, _ in test:
        shown = DENOISE_LABEL if method == "denoise" else method
        at = (f"rho_hat={rho_plus:g}:{rho_minus:g}".ljust(17)
              if show_pair and rho_plus is not None else "")
        out.append(f"  {shown:<20s} {at}tau={tau:<5g} test violation={fv:.4f} "
                   f"error={er:.4f}")
    return out


_COMMANDS = {"corrupt": _cmd_corrupt, "estimate": _cmd_estimate,
             "dp-calibrate": _cmd_dp_calibrate, "train": _cmd_train,
             "metrics": _cmd_metrics, "sweep": _cmd_sweep}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageExit as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"invalid parameter: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except FairnoiseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FairnoiseWarning as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
