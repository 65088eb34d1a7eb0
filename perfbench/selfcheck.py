"""Fast self-check of the benchmark harness at tiny input sizes.

    python3 perfbench/selfcheck.py

For every workload in ``BENCHMARK.json`` it runs ``run.py --tiny``
untraced and traced, and asserts that the last line of output is the
result object, that the correctness checks passed, and that exactly the
declared ``end_to_end`` (untraced) or ``per_layer`` (traced) metrics are
present, each with its declared unit and a finite value. Last, it runs a
copy of the harness in a directory holding only ``BENCHMARK.json`` and
``perfbench/``, where the benchmark must fail without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class CheckFailed(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def run(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)


def check_result(proc, declared, label):
    expect(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, label)
    expect(result["correct"] is True, label)
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, label)
    expect(result["failed"] == 0, label)
    metrics = result["metrics"]
    expect(set(metrics) == set(declared), f"{label}: {sorted(set(metrics) ^ set(declared))}")
    for name, unit in declared.items():
        expect(metrics[name]["unit"] == unit, f"{label}: {name} unit")
        expect(math.isfinite(metrics[name]["value"]), f"{label}: {name} value")


def check_without_program(spec):
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="selfcheck-", dir=tmp_root)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        expect(proc.returncode != 0, "benchmark succeeded without the program")
        lines = proc.stdout.strip().splitlines()
        expect(not lines or not lines[-1].startswith("{"), "printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for workload in spec["workloads"]:
            label = f"{workload['name']} trace={trace}"
            check_result(run(ROOT, workload["name"], trace), declared, label)
            print(f"ok  {label}: {len(declared)} metrics")
    check_without_program(spec)
    print("ok  fails without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
