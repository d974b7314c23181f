"""The baseline's solver, `fit`: logistic regression by truncated Newton
(preconditioned conjugate gradients) with a backtracking line search,
deterministic given its inputs. It imports no claimcheck module, so a copy
of this file from another tree loads by file path beside this one."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

# The solver stops once the gradient's 2-norm falls below this.
GRADIENT_TOLERANCE = 1e-5
# No Newton step's conjugate gradients aim below this residual norm: a step
# that starts near GRADIENT_TOLERANCE would otherwise be solved 10-100x past
# what the stopping rule asks (oversolving; Eisenstat & Walker, SIAM J. Sci.
# Comput. 1996).
CG_TOLERANCE_FLOOR = 0.1 * GRADIENT_TOLERANCE
# The weight of diag(H) in the solver's diagonal preconditioner; 1 would be
# pure Jacobi. CG steps over the 56 fits of a cold bench table3 pass
# (corpus seed 0): 0.01 -> 2,770, 0.1 -> 2,082, 1 -> 3,613.
PRECONDITIONER_MIX = 0.1

__all__ = ["GRADIENT_TOLERANCE", "FitStats", "fit"]


@dataclass(frozen=True)
class FitStats:
    """A fit's trial points (accepted or not), CG steps (Hessian-vector
    products), final gradient norm and sparse products by x or x.T."""

    trials: int
    cg_steps: int
    grad_norm: float
    products: int


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a·b summed in the order numpy's own loop fixes, on any host: a BLAS
    `ddot`, which `a @ b` calls, splits a long sum over its threads."""
    return float(np.einsum("i,i->", a, b))


def _newton_cg(hessp, g, m, gnorm: float):
    """An inexact Newton step: minimize the model g·s + s·H·s/2 from s = 0
    by conjugate gradients preconditioned with the diagonal `m`, until the
    model's gradient r = g + H·s has ||r|| < min(0.5, sqrt(||g||))·||g||,
    or ||r|| < CG_TOLERANCE_FLOOR. `hessp(d)` returns H·d and d's margins
    X·d_w + d_b, which the step's margins sum, so a trial point along the
    step is priced without a product of its own. A direction of curvature
    d·H·d <= 0 ends it with the step so far, or with the first direction
    -g/m if there is none. Returns the step, its margins and the number of
    CG steps (Hessian-vector products) taken."""
    tol = max(min(0.5, math.sqrt(gnorm)) * gnorm, CG_TOLERANCE_FLOOR)
    s, q = np.zeros_like(g), 0.0
    r = g
    z = r / m
    d = -z
    rz = _dot(r, z)
    steps = 0
    while True:
        hd, xd = hessp(d)
        steps += 1
        dhd = _dot(d, hd)
        if dhd <= 0:
            return (s, q, steps) if steps > 1 else (d, xd, steps)
        alpha = rz / dhd
        s, q, r = s + alpha * d, q + alpha * xd, r + alpha * hd
        if math.sqrt(_dot(r, r)) < tol:
            return s, q, steps
        z = r / m
        rz_next = _dot(r, z)
        d = (rz_next / rz) * d - z
        rz = rz_next


def _preconditioner(xsq_c, curvature, l2: float):
    """The diagonal (1 - a)·l2 + a·diag(H) of Hsia, Chiang & Lin (ACML
    2018), a = PRECONDITIONER_MIX, in this module's mean-loss scaling:
    diag(H) is xsq_c_j + l2 for a weight, xsq_c_j = sum_i x_ij^2·c_i, and
    sum_i c_i for the bias, c = `curvature` the Hessian's row weights
    p(1 - p)/n. Floored at machine epsilon, so a curvature that underflows
    to 0 at l2 = 0 divides nothing by zero."""
    m = np.empty(xsq_c.size + 1)
    m[:-1] = PRECONDITIONER_MIX * xsq_c + l2
    m[-1] = (PRECONDITIONER_MIX * curvature.sum()
             + (1.0 - PRECONDITIONER_MIX) * l2)
    return np.maximum(m, np.finfo(float).eps, out=m)


def fit(x, y, l2: float, max_iter: int):
    """Minimize mean(log(1 + e^z) - y·z) + l2/2·||w||^2, z = x·w + b, over
    theta = (w, b), the bias unregularized, by truncated Newton with a
    backtracking line search (Nocedal & Wright, Alg. 7.1): each step comes from
    `_newton_cg`, whose conjugate gradients are preconditioned by a diagonal M
    built at the start of each step (Hsia, Chiang & Lin, ACML 2018), and is
    halved until the loss falls enough (Armijo). `y` holds both classes. Starts
    at the intercept-only optimum w = 0, b = log(ybar / (1 - ybar)), whose
    margins are b everywhere, or at zero when l2 = 0, as unregularized fits
    took more CG steps from the intercept (2,879 against 1,978 over a cold
    bench table3 pass, corpus seed 1). Stops once ||gradient|| <
    GRADIENT_TOLERANCE, after `max_iter` trial points, accepted or not, or at a
    step that does not descend. The margins z are carried along: a trial
    point's are z plus the step's margins, which halve with it (Galli & Lin,
    IEEE TNNLS 2021), so only the gradient, the preconditioner and CG multiply
    by x. Returns theta and the fit's `FitStats`."""
    n = x.shape[0]
    # CSC views of x and of its squared counts; a matvec with x.T is faster
    # than one with x.T.tocsr()
    xt = x.T
    xsq_t = sparse.csr_matrix((x.data ** 2, x.indices, x.indptr),
                              shape=x.shape).T
    products = 0

    def product(a, v):  # every sparse product of the fit, counted
        nonlocal products
        products += 1
        return a @ v

    def loss(theta, z):
        w = theta[:-1]
        soft = np.logaddexp(0.0, z)
        return float(np.mean(soft - y * z)) + 0.5 * l2 * _dot(w, w), soft

    def gradient(theta, z, soft):
        """The gradient, and p(1 - p)/n per row, which weighs the Hessian."""
        err = (np.exp(z - soft) - y) / n  # exp(z - soft) is p, overflow-free
        g = np.empty_like(theta)
        g[:-1] = product(xt, err) + l2 * theta[:-1]
        g[-1] = err.sum()
        return g, np.exp(z - 2.0 * soft) / n

    def hessp(v):
        """H·v, and v's margins x·v_w + v_b."""
        xv = product(x, v[:-1]) + v[-1]
        t = curvature * xv
        hv = np.empty_like(v)
        hv[:-1] = product(xt, t) + l2 * v[:-1]
        hv[-1] = t.sum()
        return hv, xv

    theta = np.zeros(x.shape[1] + 1)
    if l2 > 0:
        positives = int(np.count_nonzero(y))
        # math.log, unlike np.log, gives the same bits on every CPU
        theta[-1] = math.log(positives / (n - positives))
    z = np.full(n, theta[-1])
    f, soft = loss(theta, z)
    g, curvature = gradient(theta, z, soft)
    gnorm = math.sqrt(_dot(g, g))
    done = cg_steps = 0
    while gnorm >= GRADIENT_TOLERANCE and done < max_iter:
        m = _preconditioner(product(xsq_t, curvature), curvature, l2)
        step, margins, steps = _newton_cg(hessp, g, m, gnorm)
        cg_steps += steps
        slope = _dot(g, step)
        if slope >= 0:  # rounding has left no descent direction
            break
        while done < max_iter:
            done += 1
            trial, z_trial = theta + step, z + margins
            f_trial, soft = loss(trial, z_trial)
            # Armijo's sufficient decrease, with the usual constant 1e-4
            if f_trial <= f + 1e-4 * slope:
                theta, z, f = trial, z_trial, f_trial
                g, curvature = gradient(theta, z, soft)
                gnorm = math.sqrt(_dot(g, g))
                break
            # halving is exact, so slope stays g·step and the margins
            # x·step_w + step_b to the last bit
            step, margins, slope = 0.5 * step, 0.5 * margins, 0.5 * slope
    return theta, FitStats(done, cg_steps, gnorm, products)
