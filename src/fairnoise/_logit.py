"""Weighted logistic regression by damped Newton (IRLS).

Shared base learner for the fair trainer, the posterior estimator and the
denoiser. Targets may be soft (in [0, 1]); example weights must be
nonnegative. The dimension is small (a handful of features plus the
intercept), so each iteration forms the (d+1)x(d+1) Hessian
``X~^T diag(w p (1 - p)) X~ + reg`` (``X~`` is ``X`` with an intercept
column) and solves it exactly. Away from the optimum a backtracking
(Armijo) line search on the weighted cross-entropy makes every accepted
step decrease the objective; near it, in the quadratic regime, the full
Newton step is taken unchecked (Boyd and Vandenberghe, Convex
Optimization, 9.5). A cold fit reaches a gradient norm of 1e-8 in under
ten iterations, and a warm start already within a rounding error of the
optimum stops at its first gradient; so a fit is an exact best response,
not a fixed number of descent steps.

Kernel contract:

- ``sigmoid`` is branch-free: ``e = exp(-|z|)``, then
  ``max(e, z >= 0) / (1 + e)``. The numerator is ``where(z >= 0, 1, e)``
  without a masked select: ``e`` lies in [0, 1], so the maximum with the
  mask cast to 0 or 1 is 1 where ``z >= 0`` and ``e`` elsewhere, and
  ``maximum`` propagates NaN. That is bit-identical to the masked form
  ``1 / (1 + exp(-z))`` for z >= 0 and ``exp(z) / (1 + exp(z))``
  otherwise, because ``-|z| == z`` exactly for z < 0, and NaN takes the
  second branch in both.
- Each iteration evaluates one gradient and calls the module-global
  ``sigmoid`` exactly once, looked up by name at call time, so a wrapper
  bound to that name sees every iteration. The curvature weights
  ``w p (1 - p)`` are built only after the gradient check, when a Newton
  step follows it.
- A Newton step whose decrement ``-g . step`` is positive and at most
  ``_FULL_STEP`` is taken in full without evaluating the loss, while
  each such step shrinks the gradient norm. Wherever measured, the line
  search accepted those steps at its first trial, so they are the same
  steps bit for bit; at the loss's rounding floor, where the line search
  finds no decrease, the full step still reaches a gradient norm under
  1e-8. Other steps are line-searched on the loss ``softplus(s) - t s``,
  evaluated when first needed and without ``sigmoid``. A fit whose line
  search finds no decrease stops, so even ``tol = 0`` ends before
  ``max_iter``.
- The length-n buffers (normalised weights, weighted targets, score,
  trial score, curvature weight, one residual or Hessian column) live in a
  ``Workspace``, written with ``out=``; the Hessian is built one feature
  column at a time, so no (n, d) temporary exists. A caller that fits
  many times on one n, such as a training's presolve, owns one workspace
  and passes it to every fit; otherwise each fit makes its own. A fit
  writes every buffer before it reads it, so no value carries from one
  fit to the next and a fit is bit-identical with or without a reused
  workspace. On return the workspace's ``score`` holds the returned
  fit's score, bitwise ``X @ coef + intercept``. The caller's arrays are
  never written.
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
_FULL_STEP = 1e-4  # the largest Newton decrement of an unchecked full step


class Workspace:
    """Length-n float buffers for any number of fits on an n-row design.

    ``fit_logistic`` writes the first six; ``targets`` and ``weights`` are
    the caller's, to gather a fit's inputs into without allocating, and a
    fit only reads them.
    """

    __slots__ = ("n", "wn", "wt", "score", "trial", "h", "col", "targets",
                 "weights")

    def __init__(self, n):
        self.n = n
        (self.wn, self.wt, self.score, self.trial, self.h, self.col,
         self.targets, self.weights) = (np.empty(n) for _ in range(8))


def sigmoid(z):
    e = np.abs(z, dtype=float)
    np.negative(e, out=e)
    np.exp(e, out=e)
    p = np.maximum(e, z >= 0)
    np.add(e, 1.0, out=e)
    p /= e
    return p


@np.errstate(over="ignore", invalid="ignore")
def fit_logistic(X, targets, weights, reg=0.0, max_iter=200, tol=1e-8,
                 coef0=None, intercept0=0.0, workspace=None):
    """Minimise sum_i w_i * CE(sigmoid(x_i.w + b), t_i) / sum(w) + reg/2 ||w||^2.

    The intercept is not penalised. Stops once the gradient norm is at
    most ``tol``, after ``max_iter`` gradient evaluations, or when the line
    search finds no decrease. Returns (coef, intercept, n_iter, grad_norm):
    ``n_iter`` counts gradient evaluations and ``grad_norm`` is the norm of
    the last one (inf when ``max_iter`` is 0). ``workspace``, a
    ``Workspace`` of ``len(X)`` rows, holds the buffers; a workspace of
    another length is a ``ValueError``.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    ws = Workspace(n) if workspace is None else workspace
    if ws.n != n:
        raise ValueError(f"a workspace of {ws.n} rows cannot fit {n} rows")
    w = np.asarray(weights, dtype=float)
    wn = np.divide(w, w.sum(), out=ws.wn)
    t = np.asarray(targets, dtype=float)
    wt = np.multiply(wn, t, out=ws.wt)
    z = np.zeros(d + 1)
    if coef0 is not None:
        z[:d] = coef0
    z[d] = intercept0
    coef = z[:d]

    XT = X.T
    score, trial, h, col = ws.score, ws.trial, ws.h, ws.col
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
    g_full = np.inf  # the gradient norm before the last unchecked full step
    it = 0
    for it in range(1, max_iter + 1):
        p = sigmoid(score)
        np.subtract(p, t, out=col)
        col *= wn
        np.matmul(XT, col, out=g[:d])
        g[:d] += reg * coef
        g[d] = col.sum()
        gnorm = math.sqrt(g @ g)
        if gnorm <= tol:
            break

        np.subtract(1.0, p, out=h)
        h *= p
        h *= wn
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
        if 0.0 < -float(g @ step) <= _FULL_STEP and gnorm < g_full:
            # the quadratic regime: the full step, unchecked
            z += step
            np.matmul(X, coef, out=score)
            score += z[d]
            f, g_full = None, gnorm
            continue
        if f is None:
            f = loss(score, z)
        accepted = (line_search(step, f, trial)
                    or line_search(-g, f, trial))
        if accepted is None:
            break  # no step length decreases the loss: stay put
        v, f = accepted
        z[:] = v
        score, trial = trial, score
    ws.score, ws.trial = score, trial
    return z[:d], float(z[d]), it, gnorm if it else np.inf

