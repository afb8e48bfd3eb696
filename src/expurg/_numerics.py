"""Small-array numerics: a lean log-sum-exp, a log-factorial table and the
entropic-scaling kernel.

The solvers here work on alphabets of a handful of symbols; scipy's
logsumexp spends more time in dispatch than in arithmetic at that size, so
the hot loops use this minimal max-shift version instead.  The method-of-types
counts read log k! from one table built with ``math.lgamma``, so importing the
package loads numpy only; scipy is imported inside the few functions that
call its optimizers.
"""

from __future__ import annotations

import math

import numpy as np

# kernels whose log dynamic range exceeds this stay in log domain
_LINEAR_DOMAIN_SPAN = 500.0


def lse(a: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """log(sum(exp(a))) with max shifting; tolerates -inf entries."""
    m = np.max(a, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - shift), axis=axis)) + np.squeeze(shift, axis=axis)
    if axis is None:
        return float(out)
    return out


def log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n; each entry is lgamma(k + 1), so no rounding error accumulates."""
    return np.array([math.lgamma(k + 1.0) for k in range(n + 1)])


def scale_marginals(lk: np.ndarray, lq: np.ndarray, la0: np.ndarray | None,
                    tol: float, max_iter: int, trace: list | None = None):
    """Entropic marginal scaling (Sinkhorn) of Q(x)Q(z)K(x,z), K = exp(lk), to marginals Q.

    Solves psi(z) * sum_x Q(x) K(x,z) / S(x) = 1, S(x) = sum_z Q(z) K(x,z) psi(z),
    for psi = exp(la) from ``la0``, with log Q = ``lq`` on the support of Q.
    Multiplicative with psi renormalized every sweep when the kernel's log
    range allows, log domain otherwise; stops once the span of a sweep's change
    in log psi is below ``tol``.  A ``trace`` list gets the per-sweep Q-mean of
    log S - log psi' (psi' not yet renormalized), the merit over the entropy weight.
    Returns (la, ls, iterations, converged) with ls = log S at the returned la.
    """
    la = np.zeros(len(lq)) if la0 is None else la0
    finite = lk[np.isfinite(lk)]
    if finite.size and finite.max() - finite.min() < _LINEAR_DOMAIN_SPAN:
        out = _scale_linear(lk, finite.max(), lq, la, tol, max_iter, trace)
        if out is not None:
            return out
        if trace is not None:
            trace.clear()
    qv = np.exp(lq)
    converged = False
    iters = 0
    for iters in range(1, max_iter + 1):
        ls = lse(lk + (lq + la)[None, :], axis=1)
        new_la = -lse(lk + (lq - ls)[:, None], axis=0)
        if trace is not None:
            trace.append(float(qv @ (ls - new_la)))
        dd = new_la - la
        la = new_la
        if float(dd.max() - dd.min()) < tol:
            converged = True
            break
    ls = lse(lk + (lq + la)[None, :], axis=1)
    return la, ls, iters, converged


def _scale_linear(lk: np.ndarray, shift: float, lq: np.ndarray, la: np.ndarray, tol: float,
                  max_iter: int, trace: list | None):
    """Multiplicative scale_marginals on K rescaled by exp(-shift); None on numeric trouble."""
    qv = np.exp(lq)
    with np.errstate(over="ignore"):
        kq = np.exp(lk - shift) * qv[None, :]      # Q(z) K(x,z), rescaled
        kxq = np.exp(lk - shift) * qv[:, None]     # Q(x) K(x,z), rescaled
        psi = np.exp(la)
    converged = False
    iters = 0
    for iters in range(1, max_iter + 1):
        s = kq @ psi
        if not np.all(s > 0) or not np.all(np.isfinite(s)):
            return None
        t = (1.0 / s) @ kxq
        new_psi = 1.0 / t
        if trace is not None:
            trace.append(float(qv @ (np.log(s) + np.log(t))) + shift)
        new_psi /= new_psi.max()
        with np.errstate(divide="ignore"):
            dd = np.log(new_psi) - np.log(psi)
        psi = new_psi
        if float(dd.max() - dd.min()) < tol:
            converged = True
            break
    s = kq @ psi
    if not np.all(s > 0) or not np.all(np.isfinite(s)):
        return None
    return np.log(psi), np.log(s) + shift, iters, converged
