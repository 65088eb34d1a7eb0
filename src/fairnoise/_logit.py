"""Weighted logistic regression by damped Newton (IRLS).

Shared base learner for the fair trainer, the posterior estimator and the
denoiser. Targets may be soft (in [0, 1]); example weights must be
nonnegative. The dimension is small (a handful of features plus the
intercept), so each iteration forms the (d+1)x(d+1) Hessian
``X~^T diag(w p (1 - p)) X~ + reg`` (``X~`` is ``X`` with an intercept
column) and solves it exactly; a backtracking (Armijo) line search on the
weighted cross-entropy makes every accepted step decrease the objective.
A cold fit reaches a gradient norm of 1e-8 in under ten iterations, and
a warm start already within a rounding error of the optimum stops at its
first gradient, before the loss is ever evaluated; so a fit is an exact
best response, not a fixed number of descent steps.

Kernel contract:

- ``sigmoid`` is branch-free: ``e = exp(-|z|)``, then
  ``where(z >= 0, 1, e) / (1 + e)``. That is bit-identical to the masked
  form ``1 / (1 + exp(-z))`` for z >= 0 and ``exp(z) / (1 + exp(z))``
  otherwise, because ``-|z| == z`` exactly for z < 0, and NaN takes the
  second branch in both.
- Each iteration evaluates one gradient and calls the module-global
  ``sigmoid`` exactly once, looked up by name at call time, so a wrapper
  bound to that name sees every iteration. The line search evaluates the
  loss as ``softplus(s) - t s`` and never calls ``sigmoid``.
- The length-n buffers (score, trial score, curvature weight, one
  Hessian column) are allocated once per fit and written with
  ``out=``; the Hessian is built one feature column at a time, so no
  (n, d) temporary exists. No state outlives a fit, and the caller's
  arrays are never written.
- Finite input never raises. A singular Hessian (a zero, constant or
  duplicated column at ``reg = 0``), or a nearly singular one whose
  solve is not finite, gets the least-squares, minimum-norm Newton step.
  When no length of the Newton step decreases the loss (a saturated warm
  start, whose curvature underflows), the line search backtracks along
  the negative gradient instead; when that fails too, or the Hessian
  overflows, the fit stops where it is. A trial step whose loss
  overflows is rejected.
- A fit emits no floating-point warning. Input so large that the
  gradient overflows ends the fit with a non-finite gradient norm, which
  every caller turns into a ``NumericalError``.
"""

import math

import numpy as np

_ARMIJO = 1e-4
_HALVINGS = 40


def sigmoid(z):
    e = np.abs(z, dtype=float)
    np.negative(e, out=e)
    np.exp(e, out=e)
    p = np.where(z >= 0, 1.0, e)
    np.add(e, 1.0, out=e)
    p /= e
    return p


@np.errstate(over="ignore", invalid="ignore")
def fit_logistic(X, targets, weights, reg=0.0, max_iter=200, tol=1e-8,
                 coef0=None, intercept0=0.0):
    """Minimise sum_i w_i * CE(sigmoid(x_i.w + b), t_i) / sum(w) + reg/2 ||w||^2.

    The intercept is not penalised. Stops once the gradient norm is at
    most ``tol``, after ``max_iter`` gradient evaluations, or when the line
    search finds no decrease. Returns (coef, intercept, n_iter, grad_norm):
    ``n_iter`` counts gradient evaluations and ``grad_norm`` is the norm of
    the last one (inf when ``max_iter`` is 0).
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    wn = np.asarray(weights, dtype=float)
    wn = wn / wn.sum()
    t = np.asarray(targets, dtype=float)
    wt = wn * t
    z = np.zeros(d + 1)
    if coef0 is not None:
        z[:d] = coef0
    z[d] = intercept0
    coef = z[:d]

    XT = X.T
    score, trial, h, col = (np.empty(n) for _ in range(4))
    g = np.empty(d + 1)
    H = np.empty((d + 1, d + 1))

    def loss(s, v):
        # softplus(s) = log(1 + e^s) = max(s, 0) + log1p(e^-|s|); the same
        # value as np.logaddexp(0, s), about five times faster
        np.abs(s, out=col)
        np.negative(col, out=col)
        np.exp(col, out=col)
        np.log1p(col, out=col)
        f = wn @ col - wt @ s
        np.maximum(s, 0.0, out=col)
        return float(f + wn @ col) + 0.5 * reg * float(v[:d] @ v[:d])

    def line_search(step, f, trial):
        # Armijo backtracking from the full step: the accepted point and its
        # loss (its score left in ``trial``), or None when no length
        # decreases the loss ``f``. A huge trial step can overflow to a
        # non-finite loss, which the comparison rejects like any other
        # non-decrease.
        slope = float(g @ step)
        a = 1.0
        for _ in range(_HALVINGS):
            v = z + a * step
            np.matmul(X, v[:d], out=trial)
            trial += v[d]
            f_new = loss(trial, v)
            if f_new < f and f_new <= f + _ARMIJO * a * slope:
                return v, f_new
            a *= 0.5
        return None

    np.matmul(X, coef, out=score)
    score += z[d]
    f = None  # the loss at z, first evaluated when a line search needs it
    it = 0
    for it in range(1, max_iter + 1):
        r = sigmoid(score)
        np.subtract(1.0, r, out=h)
        h *= r
        h *= wn
        r -= t
        r *= wn
        np.matmul(XT, r, out=g[:d])
        g[:d] += reg * coef
        g[d] = r.sum()
        if math.sqrt(g @ g) <= tol:
            break

        for j in range(d):
            np.multiply(X[:, j], h, out=col)
            np.matmul(XT, col, out=H[j, :d])
            H[j, j] += reg
            H[j, d] = col.sum()
        np.matmul(XT, h, out=H[d, :d])
        H[d, d] = h.sum()
        try:
            step = np.linalg.solve(H, -g)
            if not np.isfinite(step).all():  # nearly singular: no error raised
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            if not np.isfinite(H).all():
                break  # the curvature overflows: no step to take, stay put
            step = np.linalg.lstsq(H, -g, rcond=None)[0]
        if f is None:
            f = loss(score, z)
        accepted = (line_search(step, f, trial)
                    or line_search(-g, f, trial))
        if accepted is None:
            break  # no step length decreases the loss: stay put
        v, f = accepted
        z[:] = v
        score, trial = trial, score
    gnorm = math.sqrt(g @ g) if it else np.inf
    return z[:d], float(z[d]), it, gnorm

