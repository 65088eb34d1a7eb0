"""Bit-identity guard for the logistic kernel.

``_masked_sigmoid`` and ``_reference_fit`` are verbatim copies of the
masked-sigmoid kernel that ``fairnoise._logit`` replaced. The fast kernel
must match them bit for bit: the sweep output is compared byte for byte
across changes, so a last-digit drift here is a numerics change.
"""

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


def _reference_fit(X, targets, weights, reg=0.0, lr=1.0, max_iter=200, tol=0.0,
                   coef0=None, intercept0=0.0, accelerated=False):
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    wn = np.asarray(weights, dtype=float)
    wn = wn / wn.sum()
    t = np.asarray(targets, dtype=float)
    z = np.zeros(d + 1)
    if coef0 is not None:
        z[:d] = coef0
    z[d] = intercept0
    row_sq = (X * X).sum(axis=1) + 1.0
    step = lr / (0.25 * row_sq.max() + reg)

    def grad(v):
        p = _masked_sigmoid(X @ v[:d] + v[d])
        g = wn * (p - t)
        out = np.empty(d + 1)
        out[:d] = X.T @ g + reg * v[:d]
        out[d] = g.sum()
        return out

    gnorm = np.inf
    it = 0
    if not accelerated:
        for it in range(1, max_iter + 1):
            g = grad(z)
            gnorm = float(np.sqrt(g @ g))
            if tol > 0.0 and gnorm <= tol:
                break
            z -= step * g
        return z[:d], float(z[d]), it, gnorm

    y = z.copy()
    momentum = 0.0
    for it in range(1, max_iter + 1):
        g = grad(y)
        gnorm = float(np.sqrt(g @ g))
        if tol > 0.0 and gnorm <= tol:
            z = y
            break
        z_new = y - step * g
        delta = z_new - z
        # gradient restart keeps the momentum from overshooting
        momentum = 0.0 if g @ delta > 0.0 else momentum + 1.0
        y = z_new + (momentum / (momentum + 3.0)) * delta
        z = z_new
    return z[:d], float(z[d]), it, gnorm


def _problem(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0, size=d)
    targets = rng.uniform(size=n)
    weights = rng.uniform(0.1, 2.0, size=n)
    coef0 = rng.normal(size=d)
    return X, targets, weights, coef0


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


FIT_CASES = [
    dict(accelerated=False, tol=0.0, max_iter=60),
    dict(accelerated=False, tol=1e-3, max_iter=400),
    dict(accelerated=True, tol=0.0, max_iter=60),
    dict(accelerated=True, tol=1e-6, max_iter=400),
]


class TestFitLogistic:
    @pytest.mark.parametrize("n", [1, 7, 3200])
    @pytest.mark.parametrize("d", [1, 4])
    @pytest.mark.parametrize("case", FIT_CASES,
                             ids=["plain", "plain-tol", "accel", "accel-tol"])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_bit_equal_to_reference(self, n, d, case, warm):
        X, targets, weights, coef0 = _problem(n, d, seed=10 * n + d)
        kwargs = dict(case, reg=3e-3)
        if warm:
            kwargs.update(coef0=coef0, intercept0=-0.25)
        _assert_same_fit(fit_logistic(X, targets, weights, **kwargs),
                         _reference_fit(X, targets, weights, **kwargs))

    def test_early_stop_matches_reference(self):
        X, targets, weights, _ = _problem(200, 3, seed=1)
        got = fit_logistic(X, targets, weights, tol=1e-2, max_iter=5000)
        want = _reference_fit(X, targets, weights, tol=1e-2, max_iter=5000)
        assert got[2] < 5000
        _assert_same_fit(got, want)

    def test_zero_iterations(self):
        X, targets, weights, coef0 = _problem(7, 2, seed=2)
        for accelerated in (False, True):
            got = fit_logistic(X, targets, weights, max_iter=0, coef0=coef0,
                               accelerated=accelerated)
            _assert_same_fit(got, _reference_fit(X, targets, weights, max_iter=0,
                                                 coef0=coef0,
                                                 accelerated=accelerated))
            assert got[2] == 0 and got[3] == np.inf

    def test_caller_arrays_not_written(self):
        X, targets, weights, coef0 = _problem(50, 3, seed=3)
        # float64 inputs: np.asarray hands the caller's arrays to the kernel
        saved = [a.copy() for a in (X, targets, weights, coef0)]
        coef, _, _, _ = fit_logistic(X, targets, weights, coef0=coef0, max_iter=30)
        for before, after in zip(saved, (X, targets, weights, coef0)):
            assert before.tobytes() == after.tobytes()
        assert not np.shares_memory(coef, coef0)

    def test_no_state_between_fits(self):
        X, targets, weights, coef0 = _problem(300, 4, seed=4)
        for case in FIT_CASES:
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
        _, _, n_iter, _ = fit_logistic(X, targets, weights, max_iter=17)
        assert n_iter == 17
        assert calls == [(20,)] * 17
