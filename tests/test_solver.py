"""The baseline's solver, `claimcheck.solver`, on count matrices built
here: its optimum, preconditioner, Newton-CG steps, tolerance floor, line
search and products, and the rule that keeps it a leaf module."""

import ast
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from claimcheck import solver
from claimcheck.solver import GRADIENT_TOLERANCE, FitStats, fit

L2, ITERATIONS = 1e-4, 300  # the baseline's defaults


def counts(texts):
    """Token counts of `texts` as a float64 CSR matrix over their sorted
    tokens, counted by a dictionary per text."""
    rows = [Counter(text.split()) for text in texts]
    tokens = sorted(set().union(*rows))
    column = {t: j for j, t in enumerate(tokens)}
    cells = [sorted((column[t], float(c)) for t, c in row.items())
             for row in rows]
    return sparse.csr_matrix(
        ([c for row in cells for _, c in row],
         [j for row in cells for j, _ in row],
         np.cumsum([0] + [len(row) for row in cells])),
        shape=(len(texts), len(tokens)))


def planted_texts(n=60, seed=5):
    """CW texts (y = 1) always carry the token X; NCW texts never do."""
    rng = random.Random(seed)
    vocab = [f"w{j}" for j in range(30)]
    texts, y = [], []
    for i in range(n):
        tokens = rng.sample(vocab, 6)
        if i % 3 == 0:
            tokens[rng.randrange(6)] = "X"
        texts.append(" ".join(tokens))
        y.append(1.0 if i % 3 == 0 else 0.0)
    return texts, np.array(y)


def planted_problem():
    texts, y = planted_texts()
    return counts(texts), y


def planted_fit(l2=L2, iterations=ITERATIONS):
    x, y = planted_problem()
    return fit(x, y, l2, iterations)


def _dense_loss_and_gradient(x, y, l2, w, b):
    """The regularized mean logistic loss and its gradient, written
    directly from their definitions over a dense matrix."""
    z = x @ w + b
    p = 1.0 / (1.0 + np.exp(-z))
    loss = np.mean(np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0) - y * z)
    loss += 0.5 * l2 * (w @ w)
    return loss, np.append(x.T @ (p - y) / len(y) + l2 * w, np.mean(p - y))


def _reference_optimum(x, y, l2):
    optimize = pytest.importorskip("scipy.optimize")
    return optimize.minimize(
        lambda theta: _dense_loss_and_gradient(x, y, l2, theta[:-1],
                                               theta[-1]),
        np.zeros(x.shape[1] + 1), jac=True, method="L-BFGS-B",
        options={"gtol": 1e-12, "ftol": 1e-15, "maxiter": 10_000}).fun


# ---------------------------------------------------------------------------
# the optimum


def test_a_fit_reaches_the_regularized_optimum():
    texts, y = planted_texts(n=80)
    x = counts(texts)
    theta, stats = fit(x, y, L2, ITERATIONS)
    x = x.toarray()
    loss, grad = _dense_loss_and_gradient(x, y, L2, theta[:-1], theta[-1])
    assert np.linalg.norm(grad) < GRADIENT_TOLERANCE
    assert stats.grad_norm == pytest.approx(np.linalg.norm(grad), rel=1e-6)
    assert 1 <= stats.trials < ITERATIONS
    assert loss == pytest.approx(_reference_optimum(x, y, L2), abs=1e-8)


def test_a_fit_converges_on_badly_scaled_columns():
    """Count columns differing in scale by orders of magnitude, as a
    preconditioner is there to handle: one token repeated 30 times in a
    few texts, and one token in every text."""
    texts, y = planted_texts(n=80)
    texts = [("R " * 30 if i % 13 == 0 else "") + text + " E"
             for i, text in enumerate(texts)]
    assert len(set(y[::13])) == 2
    x = counts(texts)
    theta, stats = fit(x, y, L2, ITERATIONS)
    x = x.toarray()
    loss, grad = _dense_loss_and_gradient(x, y, L2, theta[:-1], theta[-1])
    assert np.linalg.norm(grad) < GRADIENT_TOLERANCE
    assert stats.trials <= stats.cg_steps
    assert loss == pytest.approx(_reference_optimum(x, y, L2), abs=1e-8)


# ---------------------------------------------------------------------------
# the preconditioner and Newton-CG


def test_preconditioner_mixes_l2_and_the_hessian_diagonal():
    x = counts(["a b", "b c c", "a", "c c c c"])
    curvature = np.array([0.1, 0.2, 0.05, 0.3])
    l2, mix = 0.5, solver.PRECONDITIONER_MIX
    xb = np.hstack([x.toarray(), np.ones((4, 1))])  # the bias column
    hessian = xb.T @ (curvature[:, None] * xb) + np.diag([l2] * 3 + [0.0])
    m = solver._preconditioner(x.multiply(x).T @ curvature, curvature, l2)
    assert m == pytest.approx((1 - mix) * l2 + mix * np.diag(hessian),
                              rel=1e-12)


def test_preconditioner_stays_positive_without_curvature_or_l2():
    x = counts(["a b", "b c c", "a"])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        m = solver._preconditioner(x.multiply(x).T @ np.zeros(3),
                                   np.zeros(3), 0.0)
        assert np.all(np.isfinite(1.0 / m))
    assert m.shape == (x.shape[1] + 1,)
    assert np.all(np.isfinite(m)) and np.all(m > 0)


def test_newton_cg_without_curvature_steps_along_the_preconditioned_gradient():
    g, m = np.array([0.3, -1.2, 0.5]), np.array([2.0, 0.5, 4.0])
    margins = np.array([7.0, -8.0])

    def hessp(d):
        return np.zeros_like(d), margins

    step, step_margins, steps = solver._newton_cg(hessp, g, m,
                                                  float(np.linalg.norm(g)))
    assert steps == 1
    assert np.array_equal(step, -g / m)
    assert step_margins is margins


def test_newton_cg_keeps_its_step_when_curvature_vanishes_later():
    g, h = np.array([1.0, -1.0, 1.0]), np.array([1.0, 10.0, 100.0])
    calls = []

    def hessp(d):  # the diagonal h on the first direction, then none
        calls.append(d)
        margins = np.array([d.sum(), d[0]])  # linear in d, as margins are
        return (h * d if len(calls) == 1 else np.zeros_like(d)), margins

    step, margins, steps = solver._newton_cg(hessp, g, np.ones(3),
                                             float(np.linalg.norm(g)))
    assert steps == 2
    assert step == pytest.approx(-g * (g @ g) / (g @ (h * g)), rel=1e-12)
    assert margins == pytest.approx([step.sum(), step[0]], rel=1e-12)


def _recorded_newton_steps(monkeypatch) -> list:
    """What each `_newton_cg` call of the fits that follow returns."""
    seen, newton_cg = [], solver._newton_cg

    def recording(*args):
        seen.append(newton_cg(*args))
        return seen[-1]

    monkeypatch.setattr(solver, "_newton_cg", recording)
    return seen


def test_a_fit_multiplies_by_x_only_in_cg_gradients_and_preconditioners(
        monkeypatch):
    """Each CG step takes x·d and x.T·t, each iterate one x.T product for
    its gradient and each Newton step one for its preconditioner; the
    start point's margins and every trial point's come without one. The
    fit's stats count exactly those products and CG steps."""
    x, y = planted_problem()
    products = []
    for cls in (sparse.csr_matrix, sparse.csc_matrix):
        def counted(a, b, matmul=cls.__matmul__):
            products.append(type(a))
            return matmul(a, b)
        monkeypatch.setattr(cls, "__matmul__", counted)
    newton_steps = _recorded_newton_steps(monkeypatch)
    _, stats = fit(x, y, L2, ITERATIONS)
    # a converged fit accepted a trial point after each of its Newton steps
    assert stats.grad_norm < GRADIENT_TOLERANCE
    assert stats.trials >= len(newton_steps) > 1
    iterates = len(newton_steps) + 1  # the start point, then one per step
    assert len(products) == (2 * stats.cg_steps + iterates
                             + len(newton_steps))
    assert stats.cg_steps == sum(steps for _, _, steps in newton_steps)
    assert stats.products == len(products)


def test_newton_cg_margins_are_those_of_its_step(monkeypatch):
    x, y = planted_problem()
    newton_steps = _recorded_newton_steps(monkeypatch)
    fit(x, y, L2, ITERATIONS)
    assert len(newton_steps) > 1
    for step, margins, _ in newton_steps:
        direct = x @ step[:-1] + step[-1]
        assert np.abs(margins - direct).max() <= 1e-12 * np.abs(direct).max()


def test_the_tolerance_floor_ends_cg_once_the_residual_is_below_it():
    """A gradient near GRADIENT_TOLERANCE asks CG for a residual far below
    it; the floor stops at the first CG step whose residual is under
    CG_TOLERANCE_FLOOR. Plain CG on a diagonal H = diag(h) gives the
    residuals."""
    h = np.linspace(1.0, 30.0, 16)
    g = np.random.default_rng(3).normal(size=h.size)
    g *= 2 * GRADIENT_TOLERANCE / np.linalg.norm(g)
    gnorm = float(np.linalg.norm(g))
    unfloored = min(0.5, math.sqrt(gnorm)) * gnorm
    residuals, r = [], g
    d = -r
    while not residuals or residuals[-1] >= unfloored:
        r_next = r + (r @ r) / (d @ (h * d)) * h * d
        residuals.append(float(np.linalg.norm(r_next)))
        d = (r_next @ r_next) / (r @ r) * d - r_next
        r = r_next
    floor = solver.CG_TOLERANCE_FLOOR
    assert floor == 0.1 * GRADIENT_TOLERANCE
    below = [k + 1 for k, res in enumerate(residuals) if res < floor]
    assert not any(0.9 < res / floor < 1.1 for res in residuals)
    assert below[0] < len(residuals)  # the unfloored rule would go on

    step, _, steps = solver._newton_cg(lambda d: (h * d, d[:2]), g,
                                       np.ones_like(g), gnorm)
    assert steps == below[0]
    assert np.linalg.norm(g + h * step) < floor


# ---------------------------------------------------------------------------
# the line search and the iteration cap


def _scaled_steps(monkeypatch, factor: float) -> None:
    """Make every Newton step the solver tries, and so its margins,
    `factor` times as long."""
    newton_cg = solver._newton_cg

    def scaled(*args):
        step, margins, steps = newton_cg(*args)
        return factor * step, factor * margins, steps

    monkeypatch.setattr(solver, "_newton_cg", scaled)


def test_a_too_long_newton_step_is_backtracked_and_still_converges(
        monkeypatch):
    x, y = planted_problem()
    x = x.toarray()
    _, plain = planted_fit()
    _scaled_steps(monkeypatch, 8.0)
    _, backtracked = planted_fit()
    assert backtracked.grad_norm < GRADIENT_TOLERANCE
    assert backtracked.trials > plain.trials
    # the iterate after each trial point, as a fit capped there returns it
    losses = []
    for cap in range(1, backtracked.trials + 1):
        capped, _ = planted_fit(iterations=cap)
        losses.append(_dense_loss_and_gradient(x, y, L2, capped[:-1],
                                               capped[-1])[0])
    assert all(after <= before for before, after in zip(losses, losses[1:]))
    assert any(after == before for before, after in zip(losses, losses[1:]))


def _intercept_start(y) -> float:
    """The bias a regularized fit starts from: the log-odds of y = 1, with
    every weight zero."""
    positives = int(np.count_nonzero(y))
    return math.log(positives / (len(y) - positives))


def test_a_rejected_trial_at_the_iteration_cap_keeps_the_start_point(
        monkeypatch):
    _scaled_steps(monkeypatch, 100.0)
    theta, stats = planted_fit(iterations=1)
    assert stats.trials == 1
    assert not theta[:-1].any()
    x, y = planted_problem()
    assert theta[-1] == _intercept_start(y)
    # the start point is the intercept-only optimum: its bias gradient
    # vanishes, so only the weights' part remains
    _, grad = _dense_loss_and_gradient(x.toarray(), y, L2, theta[:-1],
                                       theta[-1])
    assert abs(grad[-1]) < 1e-12
    assert stats.grad_norm == pytest.approx(np.linalg.norm(grad), rel=1e-9)


@pytest.mark.parametrize("l2", [L2, 0])
def test_a_step_that_does_not_descend_stops_the_fit_at_the_start_point(
        monkeypatch, l2):
    """An unregularized fit starts at zero, any other at the intercept."""
    _scaled_steps(monkeypatch, -1.0)
    theta, stats = planted_fit(l2=l2)
    assert stats.trials == 0 and stats.cg_steps >= 1
    assert not theta[:-1].any()
    assert theta[-1] == (_intercept_start(planted_problem()[1]) if l2
                         else 0.0)
    assert stats.grad_norm > GRADIENT_TOLERANCE


# ---------------------------------------------------------------------------
# bytes that do not depend on the process


def test_a_fit_has_the_same_bytes_on_one_and_two_blas_threads():
    """OpenBLAS splits a dot product of more than 10,000 terms over its
    threads, which changes its rounding; the solver's dots are numpy's own,
    so 30,000 columns fit to the same theta either way. Each fit runs in a
    fresh process, as OpenBLAS reads its thread count when numpy loads."""
    probe = (
        "import hashlib\n"
        "import numpy as np\n"
        "from scipy import sparse\n"
        "from claimcheck.solver import fit\n"
        "rng = np.random.default_rng(8)\n"
        "n, d, k = 400, 30_000, 50\n"
        "cols = rng.integers(0, d, size=(n, k))\n"
        "x = sparse.csr_matrix((np.ones(n * k), cols.ravel(),\n"
        "                       np.arange(0, n * k + 1, k)), shape=(n, d))\n"
        "x.sum_duplicates()\n"
        "theta = fit(x, (cols[:, 0] < d // 2) * 1.0, 1e-4, 300)[0]\n"
        "print(hashlib.sha256(theta.tobytes()).hexdigest())\n"
    )
    src = os.path.join(os.path.dirname(solver.__file__), os.pardir)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [os.path.abspath(src), os.environ.get("PYTHONPATH")]))}
    digests = [subprocess.run([sys.executable, "-c", probe],
                              env={**env, "OPENBLAS_NUM_THREADS": threads},
                              capture_output=True, text=True, timeout=120,
                              check=True).stdout
               for threads in ("1", "2")]
    assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# a leaf module


def test_the_solver_imports_only_numpy_scipy_sparse_and_the_stdlib():
    """No relative import and no claimcheck module, so a copy of solver.py
    from another tree loads by file path beside this one."""
    tree = ast.parse(Path(solver.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import of {node.module}"
            imported.update(f"scipy.{alias.name}" if node.module == "scipy"
                            else node.module for alias in node.names)
    assert imported <= {"__future__", "math", "dataclasses", "typing",
                        "numpy", "scipy.sparse"}, imported


# one fixed fit problem, built alike in this process and in the loader's
_PROBLEM = (
    "rng = np.random.default_rng(4)\n"
    "n, d, k = 300, 2_000, 20\n"
    "cols = rng.integers(0, d, size=(n, k))\n"
    "x = sparse.csr_matrix((np.ones(n * k), cols.ravel(),\n"
    "                       np.arange(0, n * k + 1, k)), shape=(n, d))\n"
    "x.sum_duplicates()\n"
    "y = (cols[:, 0] < d // 2) * 1.0\n"
)


def test_solver_py_loads_by_file_path_in_an_isolated_process(tmp_path):
    """As a replay of another tree's solver would load it: `python -I`
    outside the repository, under a name outside the package, registered
    in sys.modules before it runs, as its frozen dataclass needs. The fit
    gives this process's theta bytes and stats, and no claimcheck module
    loads."""
    loader = (
        "import dataclasses, hashlib, importlib.util, json, sys\n"
        "import numpy as np\n"
        "from scipy import sparse\n"
        "spec = importlib.util.spec_from_file_location(\n"
        "    'replayed_solver', sys.argv[1])\n"
        "module = importlib.util.module_from_spec(spec)\n"
        "sys.modules[spec.name] = module\n"
        "spec.loader.exec_module(module)\n"
        + _PROBLEM +
        "theta, stats = module.fit(x, y, 1e-4, 300)\n"
        "print(json.dumps([hashlib.sha256(theta.tobytes()).hexdigest(),\n"
        "                  dataclasses.asdict(stats),\n"
        "                  sorted(m for m in sys.modules\n"
        "                         if m.split('.')[0] == 'claimcheck')]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", loader,
         os.path.abspath(solver.__file__)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        check=True).stdout
    digest, stats, loaded = json.loads(out)
    scope = {"np": np, "sparse": sparse}
    exec(_PROBLEM, scope)
    theta, expected = fit(scope["x"], scope["y"], 1e-4, 300)
    assert digest == hashlib.sha256(theta.tobytes()).hexdigest()
    assert FitStats(**stats) == expected
    assert expected.trials > 1
    assert loaded == []
