"""Per-layer spans recorded from outside the package.

A traced iteration rebinds each wrapped function in every ``fairnoise``
module that holds it (the modules import each other's functions by name,
so patching only the defining module would miss most callers), runs the
workload, and restores the originals. Spans stay in memory; the per-layer
metrics are derived from them when the iteration ends.

Layer names follow the package's modules, except that ``_logit`` is
reported as ``logit`` because a metric name must start with a letter.
"""

import sys
from collections import defaultdict
from time import perf_counter

# (span name, defining module, function name). Both training entry points
# share one span: train_fair_noisy calls the trainer directly, so the two
# never nest.
SPANS = (
    ("cli.main", "cli", "main"),
    ("bench.run_cell", "bench", "run_cell"),
    ("bench.synth_generate", "bench", "synth_generate"),
    ("bench.load_csv", "bench", "load_csv"),
    ("bench.write_csv", "bench", "write_csv"),
    ("bench.emit_results", "bench", "emit_results"),
    ("noise.inject_ccn", "noise", "inject_ccn"),
    ("estimation.fit_posterior", "estimation", "fit_posterior"),
    ("estimation.estimate_ccn_rates", "estimation", "estimate_ccn_rates"),
    ("estimation.estimate_eo_rates", "estimation", "estimate_eo_rates"),
    ("denoise.denoise_ccn", "denoise", "denoise_ccn"),
    ("fairtrain.train", "fairtrain", "train_fair"),
    ("fairtrain.train", "fairtrain", "train_fair_noisy"),
    ("core.disparity", "core", "disparity"),
    ("core.accuracy_risk", "core", "accuracy_risk"),
    ("logit.fit_logistic", "_logit", "fit_logistic"),
)

FIT = "logit.fit_logistic"
TRAIN = "fairtrain.train"


def grad_bytes(n, d):
    """Bytes one gradient evaluation of ``fit_logistic`` moves, computed
    from array shapes (not measured): two passes over the (n, d) float64
    design matrix plus 16 passes over length-n float64 vectors."""
    return 8 * (2 * n * d + 16 * n)


class Tracer:
    """Span recorder for one traced iteration. Use as a context manager:
    entering installs the wrappers, leaving restores the originals."""

    def __init__(self):
        self.stack = []  # open frames: [name, child seconds, child spans]
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.top_level_s = 0.0
        self._patches = []

    # -- installation -----------------------------------------------------

    def __enter__(self):
        hooks = {FIT: self._after_fit, TRAIN: self._after_training,
                 "estimation.fit_posterior": self._after_posterior}
        for name, module, func in SPANS:
            self._rebind(module, func, self._span(name, hooks.get(name)))
        self._rebind("_logit", "sigmoid", self._sigmoid)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        return False

    def _rebind(self, module, func, make_wrapper):
        original = getattr(sys.modules["fairnoise." + module], func)
        wrapper = make_wrapper(original)
        for modname, mod in list(sys.modules.items()):
            if modname != "fairnoise" and not modname.startswith("fairnoise."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    # -- spans ------------------------------------------------------------

    def _span(self, name, after):
        def make(fn):
            def traced(*args, **kwargs):
                frame = [name, 0.0, []]
                self.stack.append(frame)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    self.stack.pop()
                    self._close(name, t0, t1, frame)
                if after is not None:
                    after(args, result, t1, frame)
                return result
            return traced
        return make

    def _close(self, name, t0, t1, frame):
        dur = t1 - t0
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - frame[1]
        if self.stack:
            parent = self.stack[-1]
            parent[1] += dur
            parent[2].append((name, t0, t1))
        else:
            self.top_level_s += dur

    def _sigmoid(self, fn):
        # Called ~10^5 times per sweep, so it records time and counts
        # only, without a frame of its own.
        def traced(z):
            t0 = perf_counter()
            out = fn(z)
            dur = perf_counter() - t0
            self.calls["logit.sigmoid"] += 1
            self.total_s["logit.sigmoid"] += dur
            if self.stack:
                parent = self.stack[-1]
                parent[1] += dur
                if parent[0] == FIT:
                    self.counts["grad_evals"] += 1
            return out
        return traced

    # -- per-span hooks ---------------------------------------------------

    def _after_fit(self, args, result, t1, frame):
        n, d = args[0].shape
        self.counts["grad_bytes"] += result[2] * grad_bytes(n, d)

    def _after_posterior(self, args, result, t1, frame):
        self.counts["posterior_iters"] += result.iterations
        self.counts["posterior_converged"] += bool(result.converged)

    def _after_training(self, args, model, t1, frame):
        # The dual loop makes exactly T = len(trace.violations) best-response
        # fits at the end of a training; every fit before them is presolve.
        fits = [span for span in frame[2] if span[0] == FIT]
        split = max(0, len(fits) - len(model.trace.violations))
        presolve, dual = fits[:split], fits[split:]
        if presolve:
            self.counts["presolve_s"] += dual[0][1] - presolve[0][1]
            self.counts["presolve_fits"] += len(presolve)
        if dual:
            self.counts["dual_loop_s"] += t1 - dual[0][1]
        self.counts["feasible"] += bool(model.trace.feasible)

    # -- results ----------------------------------------------------------

    def metrics(self, wall_s):
        """Per-layer metrics of the traced iteration that took ``wall_s``.
        A ratio whose base is zero (the layer did not run) reads 0."""
        c, tot, slf, k = self.calls, self.total_s, self.self_s, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "logit.fit_logistic.calls": c[FIT],
            "logit.fit_logistic.self_s": slf[FIT],
            "logit.grad_evals": k["grad_evals"],
            "logit.sigmoid.s": tot["logit.sigmoid"],
            "logit.grad_us": 1e6 * ratio(tot[FIT], k["grad_evals"]),
            "logit.grad_mb_computed": k["grad_bytes"] / 1e6,
            "fairtrain.trainings": c[TRAIN],
            "fairtrain.train.s": tot[TRAIN],
            "fairtrain.self_s": slf[TRAIN],
            "fairtrain.presolve.s": k["presolve_s"],
            "fairtrain.presolve.fits": k["presolve_fits"],
            "fairtrain.dual_loop.s": k["dual_loop_s"],
            "fairtrain.presolve_share": ratio(k["presolve_s"], tot[TRAIN]),
            "fairtrain.feasible_frac": ratio(k["feasible"], c[TRAIN]),
            "bench.run_cell.calls": c["bench.run_cell"],
            "bench.run_cell.self_s": slf["bench.run_cell"],
            "bench.synth_generate.calls": c["bench.synth_generate"],
            "bench.load_csv.s": tot["bench.load_csv"],
            "bench.write_csv.s": tot["bench.write_csv"],
            "bench.emit_results.s": tot["bench.emit_results"],
            "noise.inject_ccn.calls": c["noise.inject_ccn"],
            "noise.inject_ccn.s": tot["noise.inject_ccn"],
            "estimation.fit_posterior.calls": c["estimation.fit_posterior"],
            "estimation.fit_posterior.s": tot["estimation.fit_posterior"],
            "estimation.fit_posterior.iters": k["posterior_iters"],
            "estimation.fit_posterior.converged_frac": ratio(
                k["posterior_converged"], c["estimation.fit_posterior"]),
            "estimation.estimate_ccn_rates.s": tot["estimation.estimate_ccn_rates"],
            "estimation.estimate_eo_rates.s": tot["estimation.estimate_eo_rates"],
            "denoise.denoise_ccn.s": tot["denoise.denoise_ccn"],
            "core.disparity.s": tot["core.disparity"],
            "core.accuracy_risk.s": tot["core.accuracy_risk"],
            "cli.main.self_s": slf["cli.main"],
            "trace.uncovered_s": wall_s - self.top_level_s,
        }
