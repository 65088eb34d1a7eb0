"""Optimality, robustness and bit-identity of the Newton logistic solver.

``_reference_fit`` is a deliberately plain solve written here: the dense
Hessian of the intercept-augmented design, a step-halving on the
objective written with the masked cross-entropy, and many more iterations
than needed. The solver must land on the same optimum, report a gradient
norm within its tolerance, and never raise or warn on finite input.

``_unbuffered_fit`` is the solver's own arithmetic written without its
buffers: fresh arrays every iteration, no ``out=`` writes, no swapped
score arrays. The solver must match it bit for bit: the sweep output is
compared byte for byte across changes, so a last-digit drift from the
buffering is a numerics change.
"""

import math
import warnings

import numpy as np
import pytest

from fairnoise import _logit
from fairnoise._logit import fit_logistic, sigmoid


def _masked_sigmoid(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _augment(X):
    return np.column_stack([X, np.ones(len(X))])


def _gradient(X, targets, weights, reg, coef, intercept):
    wn = weights / weights.sum()
    z = np.append(coef, intercept)
    p = _masked_sigmoid(_augment(X) @ z)
    g = _augment(X).T @ (wn * (p - targets))
    g[:-1] += reg * z[:-1]
    return g


def _reference_fit(X, targets, weights, reg):
    Xa = _augment(X)
    wn = weights / weights.sum()
    penalty = np.append(np.full(X.shape[1], reg), 0.0)

    def objective(z):
        s = Xa @ z
        ce = targets * np.logaddexp(0.0, -s) + (1 - targets) * np.logaddexp(0.0, s)
        return wn @ ce + 0.5 * (penalty * z) @ z

    z = np.zeros(Xa.shape[1])
    for _ in range(100):
        p = _masked_sigmoid(Xa @ z)
        g = Xa.T @ (wn * (p - targets)) + penalty * z
        H = Xa.T @ (Xa * (wn * p * (1 - p))[:, None]) + np.diag(penalty)
        step = np.linalg.lstsq(H, -g, rcond=None)[0]
        a = 1.0
        while objective(z + a * step) > objective(z) and a > 1e-10:
            a /= 2
        z = z + a * step
    return z[:-1], z[-1]


def _unbuffered_fit(X, targets, weights, reg=0.0, max_iter=200, tol=1e-8,
                    coef0=None, intercept0=0.0):
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    wn = weights / weights.sum()
    wt = wn * targets
    z = np.zeros(d + 1)
    if coef0 is not None:
        z[:d] = coef0
    z[d] = intercept0

    def loss(v):
        s = X @ v[:d] + v[d]
        f = wn @ np.log1p(np.exp(-np.abs(s))) - wt @ s
        return float(f + wn @ np.maximum(s, 0.0)) + 0.5 * reg * float(v[:d] @ v[:d])

    f = loss(z)
    g = None
    it = 0
    for it in range(1, max_iter + 1):
        p = _masked_sigmoid(X @ z[:d] + z[d])
        h = (1.0 - p) * p * wn
        r = (p - targets) * wn
        g = np.append(X.T @ r + reg * z[:d], r.sum())
        if math.sqrt(g @ g) <= tol:
            break
        H = np.empty((d + 1, d + 1))
        for j in range(d):
            col = X[:, j] * h
            H[j, :d] = X.T @ col
            H[j, j] += reg
            H[j, d] = col.sum()
        H[d, :d] = X.T @ h
        H[d, d] = h.sum()
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, -g, rcond=None)[0]
        slope = float(g @ step)
        a = 1.0
        for _ in range(40):
            v = z + a * step
            f_new = loss(v)
            if f_new < f and f_new <= f + 1e-4 * a * slope:
                break
            a *= 0.5
        else:
            break
        z, f = v, f_new
    gnorm = math.sqrt(g @ g) if it else np.inf
    return z[:d], float(z[d]), it, gnorm


def _problem(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0, size=d)
    targets = rng.uniform(size=n)
    weights = rng.uniform(0.1, 2.0, size=n)
    coef0 = rng.normal(size=d)
    return X, targets, weights, coef0


def _fit_quietly(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fit_logistic(*args, **kwargs)


def _assert_same_fit(got, want):
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1]
    assert got[2] == want[2]
    assert got[3] == want[3]


SPECIALS = [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 745.0, -745.0,
            1000.0, -1000.0, np.inf, -np.inf]


class TestSigmoid:
    def test_bit_equal_to_masked_form(self):
        rng = np.random.default_rng(0)
        z = np.concatenate([SPECIALS, rng.normal(scale=5.0, size=4000),
                            rng.normal(scale=300.0, size=1000)])
        got, want = sigmoid(z), _masked_sigmoid(z)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    def test_nan_propagates(self):
        z = np.array([np.nan, 1.0, -1.0])
        got = sigmoid(z)
        assert np.isnan(got[0])
        assert got[1:].tobytes() == _masked_sigmoid(z)[1:].tobytes()

    def test_input_not_written(self):
        z = np.array(SPECIALS)
        before = z.copy()
        sigmoid(z)
        assert z.tobytes() == before.tobytes()


SIZES = [(7, 1), (200, 3), (3200, 4)]

# The ids are those of the gradient-descent table this guard first covered,
# where "accel" named the momentum variant. The "accel" rows here drop the
# ridge, so at n = 1 the Hessian is singular and the least-squares
# fallback is compared too. tol = 0 runs until no step lowers the loss.
FIT_CASES = [
    dict(reg=3e-3, tol=0.0, max_iter=60),
    dict(reg=3e-3, tol=1e-3, max_iter=400),
    dict(reg=0.0, tol=0.0, max_iter=60),
    dict(reg=0.0, tol=1e-6, max_iter=400),
]


class TestFitLogistic:
    @pytest.mark.parametrize("n", [1, 7, 3200])
    @pytest.mark.parametrize("d", [1, 4])
    @pytest.mark.parametrize("case", FIT_CASES,
                             ids=["plain", "plain-tol", "accel", "accel-tol"])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_bit_equal_to_reference(self, n, d, case, warm):
        X, targets, weights, coef0 = _problem(n, d, seed=10 * n + d)
        kwargs = dict(case)
        if warm:
            kwargs.update(coef0=coef0, intercept0=-0.25)
        got = _fit_quietly(X, targets, weights, **kwargs)
        _assert_same_fit(got, _unbuffered_fit(X, targets, weights, **kwargs))
        assert got[3] <= max(case["tol"], 1e-8)

    @pytest.mark.parametrize("reg", [3e-3, 0.1])
    @pytest.mark.parametrize("tol", [1e-8, 1e-6])
    @pytest.mark.parametrize("n, d", SIZES)
    def test_gradient_norm_within_tolerance(self, n, d, tol, reg):
        X, targets, weights, _ = _problem(n, d, seed=n + d)
        coef, b, n_iter, gnorm = _fit_quietly(X, targets, weights, reg=reg,
                                              tol=tol)
        # an exact Hessian converges quadratically: a handful of iterations
        assert gnorm <= tol and n_iter <= 8
        g = _gradient(X, targets, weights, reg, coef, b)
        assert np.sqrt(g @ g) <= tol + 1e-12

    @pytest.mark.parametrize("reg", [0.0, 3e-3])
    @pytest.mark.parametrize("n, d", SIZES)
    def test_matches_reference_solve(self, n, d, reg):
        # n = 7 at reg = 0 can be separable; soft targets keep it bounded
        X, targets, weights, _ = _problem(n, d, seed=2 * n + d)
        coef, b, _, _ = _fit_quietly(X, targets, weights, reg=reg)
        ref_coef, ref_b = _reference_fit(X, targets, weights, reg)
        assert np.allclose(coef, ref_coef, rtol=0, atol=1e-7)
        assert abs(b - ref_b) <= 1e-7

    @pytest.mark.parametrize("n, d", SIZES)
    def test_warm_and_cold_start_same_optimum(self, n, d):
        X, targets, weights, coef0 = _problem(n, d, seed=3 * n + d)
        cold = _fit_quietly(X, targets, weights, reg=3e-3)
        warm = _fit_quietly(X, targets, weights, reg=3e-3, coef0=5 * coef0,
                            intercept0=-4.0)
        assert np.allclose(cold[0], warm[0], rtol=0, atol=1e-7)
        assert abs(cold[1] - warm[1]) <= 1e-7
        # a start at the optimum is already converged
        again = _fit_quietly(X, targets, weights, reg=3e-3, coef0=cold[0],
                             intercept0=cold[1])
        assert again[2] == 1 and np.array_equal(again[0], cold[0])

    def test_soft_targets_and_zero_weights(self):
        X, targets, weights, _ = _problem(300, 3, seed=6)
        weights[::3] = 0.0
        coef, b, _, gnorm = _fit_quietly(X, targets, weights, reg=1e-3)
        keep = weights > 0
        sub = _fit_quietly(X[keep], targets[keep], weights[keep], reg=1e-3)
        assert gnorm <= 1e-8
        assert np.allclose(coef, sub[0], rtol=0, atol=1e-8)
        assert abs(b - sub[1]) <= 1e-8
        ref_coef, ref_b = _reference_fit(X, targets, weights, 1e-3)
        assert np.allclose(coef, ref_coef, rtol=0, atol=1e-7)

    def test_early_stop_matches_reference(self):
        X, targets, weights, _ = _problem(200, 3, seed=1)
        loose = _fit_quietly(X, targets, weights, tol=1e-2)
        tight = _fit_quietly(X, targets, weights)
        assert loose[3] <= 1e-2 and loose[2] < tight[2]
        ref_coef, ref_b = _reference_fit(X, targets, weights, 0.0)
        assert np.allclose(tight[0], ref_coef, rtol=0, atol=1e-7)
        # a loose stop lands near, not on, the optimum
        assert 0 < np.abs(loose[0] - ref_coef).max() <= 0.5

    def test_zero_iterations(self):
        X, targets, weights, coef0 = _problem(7, 2, seed=2)
        coef, b, n_iter, gnorm = fit_logistic(X, targets, weights, max_iter=0,
                                              coef0=coef0, intercept0=0.7)
        assert np.array_equal(coef, coef0) and b == 0.7
        assert n_iter == 0 and gnorm == np.inf

    def test_caller_arrays_not_written(self):
        X, targets, weights, coef0 = _problem(50, 3, seed=3)
        # float64 inputs: np.asarray hands the caller's arrays to the kernel
        saved = [a.copy() for a in (X, targets, weights, coef0)]
        coef, _, _, _ = fit_logistic(X, targets, weights, coef0=coef0)
        for before, after in zip(saved, (X, targets, weights, coef0)):
            assert before.tobytes() == after.tobytes()
        assert not np.shares_memory(coef, coef0)

    def test_no_state_between_fits(self):
        X, targets, weights, coef0 = _problem(300, 4, seed=4)
        for case in (dict(), dict(tol=1e-3), dict(reg=0.0, max_iter=3)):
            first = fit_logistic(X, targets, weights, coef0=coef0, **case)
            second = fit_logistic(X, targets, weights, coef0=coef0, **case)
            _assert_same_fit(first, second)
            assert not np.shares_memory(first[0], second[0])

    def test_one_sigmoid_call_per_gradient(self, monkeypatch):
        calls = []

        def counting(z):
            calls.append(z.shape)
            return sigmoid(z)

        monkeypatch.setattr(_logit, "sigmoid", counting)
        X, targets, weights, _ = _problem(20, 2, seed=5)
        _, _, n_iter, _ = fit_logistic(X, targets, weights)
        assert n_iter >= 3
        assert calls == [(20,)] * n_iter


def _duplicated_column(rng):
    X = rng.normal(size=(60, 2))
    return np.column_stack([X, X[:, 0]])


def _zero_column(rng):
    return np.column_stack([rng.normal(size=(60, 2)), np.zeros(60)])


def _constant_column(rng):
    # a copy of the intercept column
    return np.column_stack([rng.normal(size=(60, 2)), np.full(60, 3.0)])


class TestDegenerateInputs:
    @pytest.mark.parametrize("make", [_duplicated_column, _zero_column,
                                      _constant_column])
    def test_singular_design_at_zero_reg(self, make):
        rng = np.random.default_rng(7)
        X = make(rng)
        targets = (rng.uniform(size=60) < 0.4).astype(float)
        coef, b, n_iter, gnorm = _fit_quietly(X, targets, np.ones(60), reg=0.0)
        assert np.isfinite(coef).all() and np.isfinite(b)
        assert gnorm <= 1e-8 and n_iter <= 10
        # the fitted scores are the full-rank fit's scores
        full = _fit_quietly(X[:, :2], targets, np.ones(60), reg=0.0)
        assert np.allclose(X @ coef + b, X[:, :2] @ full[0] + full[1],
                           rtol=0, atol=1e-6)

    def test_single_row(self):
        X = np.array([[0.5, -2.0, 1.0]])
        for t in (0.0, 0.3, 1.0):
            coef, b, _, _ = _fit_quietly(X, np.array([t]), np.ones(1), reg=0.0)
            assert np.isfinite(coef).all() and np.isfinite(b)

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_all_equal_targets_stop_at_the_cap(self, value):
        # the optimum is at infinity: every iteration still makes progress
        X, _, weights, _ = _problem(80, 2, seed=8)
        targets = np.full(80, value)
        coef, b, n_iter, gnorm = _fit_quietly(X, targets, weights, reg=0.0,
                                              max_iter=6)
        assert n_iter == 6 and gnorm > 1e-8
        assert np.isfinite(coef).all() and np.isfinite(b)
        assert (b > 3.0) if value else (b < -3.0)

    def test_overflowing_trial_step_is_rejected_silently(self):
        # Scaled features at reg = 0 with a warm start: the first Newton
        # steps are so long that the trial loss overflows; those steps are
        # rejected without a floating-point warning.
        X, targets, weights, coef0 = _problem(1, 4, seed=14)
        coef, b, n_iter, gnorm = _fit_quietly(30 * X, targets, weights, reg=0.0,
                                              coef0=coef0, intercept0=-0.25)
        assert np.isfinite(coef).all() and np.isfinite(b)
        assert np.isfinite(gnorm) and n_iter >= 1

    def test_no_decrease_stops_without_a_step(self):
        # Started at the optimum with tol = 0, the Newton steps are rounding
        # noise and no step length lowers the loss: the fit must stop
        # instead of running to the cap, and its last iteration took no
        # step (the fit capped one iteration earlier ends at the same point).
        X, targets, weights, _ = _problem(200, 3, seed=0)
        opt = _fit_quietly(X, targets, weights, reg=1e-3)
        start = dict(reg=1e-3, tol=0.0, coef0=opt[0], intercept0=opt[1])
        coef, b, n_iter, gnorm = _fit_quietly(X, targets, weights, max_iter=50,
                                              **start)
        assert n_iter < 50 and 0.0 < gnorm <= 1e-8
        before = _fit_quietly(X, targets, weights, max_iter=n_iter - 1, **start)
        assert np.array_equal(before[0], coef) and before[1] == b
