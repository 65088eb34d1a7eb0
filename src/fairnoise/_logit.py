"""Weighted logistic regression by full-batch gradient descent.

Shared base learner for the fair trainer, the posterior estimator and the
denoiser. Targets may be soft (in [0, 1]); example weights must be
nonnegative. The step size is normalised by the standard curvature bound
0.25 * max_i ||x_i||^2 + reg, so ``lr=1.0`` is a safe default for any
feature scale.

The gradient is the hot path of every training (about 10^5 evaluations in
one default sweep), so the kernel keeps this contract:

- ``sigmoid`` is branch-free: ``e = exp(-|z|)``, then
  ``where(z >= 0, 1, e) / (1 + e)``. That is bit-identical to the masked
  form ``1 / (1 + exp(-z))`` for z >= 0 and ``exp(z) / (1 + exp(z))``
  otherwise, because ``-|z| == z`` exactly for z < 0, and NaN takes the
  second branch in both.
- ``fit_logistic`` does the same floating-point operations, in the same
  order, as the plain masked loop; ``tests/test_logit.py`` keeps that loop
  as the reference and checks bitwise equality.
- Scratch buffers (the length-n score, the length-(d+1) gradient) are
  allocated once per fit and written with ``out=``. No state outlives a
  fit, and the caller's arrays are never written.
- Each gradient evaluation calls the module-global ``sigmoid`` exactly
  once, looked up by name at call time, so a wrapper bound to that name
  sees every gradient.
"""

import math

import numpy as np


def sigmoid(z):
    e = np.abs(z, dtype=float)
    np.negative(e, out=e)
    np.exp(e, out=e)
    p = np.where(z >= 0, 1.0, e)
    np.add(e, 1.0, out=e)
    p /= e
    return p


def fit_logistic(X, targets, weights, reg=0.0, lr=1.0, max_iter=200, tol=0.0,
                 coef0=None, intercept0=0.0, accelerated=False):
    """Minimise sum_i w_i * CE(sigmoid(x_i.w + b), t_i) / sum(w) + reg/2 ||w||^2.

    The intercept is not penalised. Returns (coef, intercept, n_iter,
    grad_norm) where grad_norm is the final gradient norm (used by callers
    that report convergence). ``accelerated`` switches to Nesterov momentum
    with gradient restarts (used by the posterior estimator, which needs a
    tight gradient tolerance).
    """
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

    XT = X.T
    score = np.empty(n)
    g = np.empty(d + 1)
    g_coef = g[:d]

    def grad(v):
        # writes the gradient at v into g
        coef = v[:d]
        np.matmul(X, coef, out=score)
        np.add(score, v[d], out=score)
        r = sigmoid(score)
        r -= t
        r *= wn
        np.matmul(XT, r, out=g_coef)
        np.add(g_coef, reg * coef, out=g_coef)
        g[d] = r.sum()

    it = 0
    if not accelerated:
        for it in range(1, max_iter + 1):
            grad(z)
            if tol > 0.0 and math.sqrt(g @ g) <= tol:
                break
            z -= step * g
    else:
        y = z.copy()
        momentum = 0.0
        for it in range(1, max_iter + 1):
            grad(y)
            if tol > 0.0 and math.sqrt(g @ g) <= tol:
                z = y
                break
            z_new = y - step * g
            delta = z_new - z
            # gradient restart keeps the momentum from overshooting
            momentum = 0.0 if g @ delta > 0.0 else momentum + 1.0
            y = z_new + (momentum / (momentum + 3.0)) * delta
            z = z_new
    # g still holds the last gradient: the updates above only read it
    gnorm = math.sqrt(g @ g) if it else np.inf
    return z[:d], float(z[d]), it, gnorm


def log_loss(p, t, eps=1e-12):
    p = np.clip(p, eps, 1.0 - eps)
    return float(np.mean(-t * np.log(p) - (1.0 - t) * np.log(1.0 - p)))
