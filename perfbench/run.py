"""fairnoise benchmark: one workload, one seed, end-to-end or per-layer.

    python3 perfbench/run.py --workload sweep_default --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. Every set-up probe and the measured run
are fresh interpreters (``workloads.py``) that import the package from the
checkout's ``src``, with BLAS pinned to one thread and ``FAIRNOISE_JOBS``
removed; their scratch files live in a per-run directory under
``.perfbench_tmp`` that is removed afterwards.

The report names every metric with its unit; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``. A failed correctness check
prints that line with ``correct: false`` and exits 1.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 4  # set-up-only processes per run, besides the measured one
DEADLINE_S = 170.0
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
QUALITY_UNITS = {"violation_excess": "fraction", "test_error": "fraction",
                 "rate_abs_err": "rate"}


class ChildFailed(Exception):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "FAIRNOISE_JOBS"}
    env.update(BLAS_THREADS)
    env["PYTHONPATH"] = SRC
    return env


def run_child(args, mode, scratch, deadline):
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--dir", scratch, "--src", SRC]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} process timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def tail(values):
    """Highest whole percentile with at least ten samples beyond it."""
    k = len(values)
    if k < 11:
        return None
    p = math.floor(100 * (1 - 10 / k))
    return p, statistics.quantiles(values, n=100)[p - 1]


def end_to_end(child, setups):
    wall = statistics.median(child["walls"])
    return {"setup_s": statistics.median(setups),
            "wall_s": wall,
            "work_per_s": child["work_per_iteration"] / wall,
            "peak_rss_mb": child["peak_rss_mb"]}


def per_layer(child):
    layers = child["layers"]
    values = {name: statistics.median(d[name] for d in layers) for name in layers[0]}
    values["trace.overhead_s"] = (statistics.median(child["traced_walls"])
                                  - statistics.median(child["walls"]))
    return values


def report(args, child, setups, values, units):
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + json.dumps(child["machine"], sort_keys=True))
    walls = child["walls"]
    q1, q3 = quartiles(walls)
    t = tail(walls)
    print(f"  wall_s samples {len(walls)}: median {statistics.median(walls):.4f} "
          f"q1 {q1:.4f} q3 {q3:.4f} tail "
          + (f"p{t[0]} {t[1]:.4f}" if t else "n/a (fewer than 11 samples)")
          + " | " + " ".join(f"{w:.4f}" for w in walls))
    print(f"  setup_s samples {len(setups)}: " + " ".join(f"{s:.4f}" for s in setups))
    print(f"  work unit: {child['work_unit']} ({child['work_per_iteration']} per iteration)")
    for name, value in values.items():
        print(f"  {name:<42s} {value:14.6g} {units[name]}")
    attempted, failed = child["attempted"], child["failed"]
    print(f"  {'fail_frac':<42s} {failed / attempted:14.6g} fraction ({failed}/{attempted})")
    for name, value in child["quality"].items():
        print(f"  {name:<42s} {value:14.6g} {QUALITY_UNITS[name]} (quality, seed-dependent)")
    for name, value in child["info"].items():
        print(f"  {name:<42s} {value}")
    for problem in child["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description="fairnoise benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the harness self-check only")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fairnoise", "__init__.py")):
        print(f"no fairnoise package under {SRC}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    deadline = time.monotonic() + DEADLINE_S
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        setups = [run_child(args, "setup", os.path.join(run_dir, f"probe{i}"),
                            deadline)["setup_s"] for i in range(SETUP_PROBES)]
        child = run_child(args, "run", os.path.join(run_dir, "run"), deadline)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass
    setups.append(child["setup_s"])

    values = per_layer(child) if args.trace else end_to_end(child, setups)
    if set(values) != set(units):
        print(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 1
    report(args, child, setups, values, units)
    correct = not child["problems"]
    print(json.dumps({"correct": correct, "attempted": child["attempted"],
                      "failed": child["failed"],
                      "metrics": {name: {"value": values[name], "unit": units[name]}
                                  for name in units}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
