"""Least squares and L1-penalized fitting used by the causal pipeline.

Least squares solves the normal equations by Cholesky: the Gram matrix is
equilibrated to a unit diagonal (each column scaled by its norm), factored
once, and solved through that factor, so no SVD runs. The rank rule, with
tol = max(n, p) machine epsilons: a design is rank deficient when a column's
norm is at most tol times the largest column norm (lstsq's default cutoff, so
a column of rounding noise counts as zero), or when the equilibrated Gram
fails to factor or has a pivot (a column's squared distance from the span of
the columns before it, as a fraction of its own) at or below tol, the Gram's
own rounding. ``ols_fit`` raises on such a design and takes its classical
covariance from the same factor.

``lasso_fit`` minimizes (1/2n)*||y - X b||^2 + lam*||b||_1 on the raw scale.
Columns are rescaled to unit root-mean-square internally purely for
conditioning; the per-coordinate penalty is adjusted so the solved problem is
identical, and coefficients are reported on the original scale.
``lasso_cv_path`` rescales each fold's design once for its whole penalty grid.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError, EstimationError
from ..rng import stream

LASSO_TOL = 1e-8
LASSO_MAX_SWEEPS = 10_000
LASSO_GRID_SPAN = 1e-4  # smallest grid point relative to lambda_max


def gram_cholesky(gram: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Factor a Gram matrix of n rows as ``diag(scale) L Lᵀ diag(scale)``.

    ``scale`` holds the column norms and ``L`` is the lower Cholesky factor of
    the unit-diagonal (equilibrated) Gram. Returns None when the design is
    rank deficient by the module's rank rule.
    """
    tol = max(n, len(gram)) * np.finfo(float).eps
    scale = np.sqrt(np.diag(gram))
    if not np.all(scale > tol * scale.max(initial=0.0)):  # also a column of zeros
        return None
    try:
        factor = np.linalg.cholesky(gram / np.outer(scale, scale))
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.diag(factor) ** 2 > tol):
        return None
    return factor, scale


def cholesky_solve(factor: np.ndarray, scale: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``gram @ b = rhs`` through `gram_cholesky`'s factorization."""
    lower = np.linalg.solve(factor, (rhs.T / scale).T)
    return (np.linalg.solve(factor.T, lower).T / scale).T


def ols_fit(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ordinary least squares with classical standard errors.

    Requires more rows than columns and a full-column-rank design; a
    rank-deficient X raises instead of silently pseudo-inverting.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise DomainError(f"X must be 2-D, got shape {X.shape}")
    n, p = X.shape
    if len(y) != n:
        raise DomainError(f"y length {len(y)} != {n} rows")
    if n <= p:
        raise EstimationError(f"need n > p, got n={n}, p={p}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise DomainError("non-finite values in X or y")
    factored = gram_cholesky(X.T @ X, n)
    if factored is None:
        raise EstimationError(f"design matrix is rank deficient ({p} columns)")
    factor, scale = factored
    beta = cholesky_solve(factor, scale, X.T @ y)
    resid = y - X @ beta
    # unlike a BLAS dot, np.add.reduce sums in an order free of the thread count
    sigma2 = float(np.add.reduce(resid * resid)) / (n - p)
    # diag((XᵀX)⁻¹) = diag(L⁻ᵀ L⁻¹) / scale², the column sums of (L⁻¹)² over scale²
    inverse = np.linalg.solve(factor, np.eye(p))
    stderr = np.sqrt(sigma2 * np.add.reduce(inverse * inverse, axis=0)) / scale
    return beta, stderr


def _soft_threshold(z: float, t: float) -> float:
    if z > t:
        return z - t
    if z < -t:
        return z + t
    return 0.0


def _lasso_inputs(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X and y as float arrays, checked: a 2-D design, one target per row,
    every value finite."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise DomainError(f"X must be 2-D, got shape {X.shape}")
    if len(y) != len(X):
        raise DomainError(f"y length {len(y)} != {len(X)} rows")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise DomainError("non-finite values in lasso inputs")
    return X, y


def _unit_rms(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X with each nonzero column scaled to unit root-mean-square (a zero
    column stays zero), the same columns as contiguous rows, and the scales."""
    scale = np.linalg.norm(X, axis=0) / np.sqrt(len(X))
    live = scale > 0.0
    Xs = np.where(live, X / np.where(live, scale, 1.0), 0.0)
    return Xs, np.ascontiguousarray(Xs.T), scale


def _coordinate_descent(
    scaled: tuple[np.ndarray, np.ndarray, np.ndarray],
    y: np.ndarray,
    lam: float,
    beta_init: np.ndarray | None,
) -> np.ndarray:
    """`lasso_fit` on a design `_unit_rms` has already scaled."""
    Xs, columns, scale = scaled
    n, p = Xs.shape
    live = scale > 0.0
    penalty = np.where(live, lam / np.where(live, scale, 1.0), np.inf)

    b = np.zeros(p)
    if beta_init is not None:
        b = np.asarray(beta_init, dtype=float) * np.where(live, scale, 0.0)
    r = y - Xs @ b
    cols = [j for j in range(p) if live[j]]
    for _ in range(LASSO_MAX_SWEEPS):
        max_change = 0.0
        for j in cols:
            old = b[j]
            # unit-RMS columns make the curvature along each coordinate 1/n-normalized to 1
            rho = np.add.reduce(columns[j] * r) / n + old  # unlike a BLAS dot, thread-count free
            new = _soft_threshold(rho, penalty[j])
            if new != old:
                r -= columns[j] * (new - old)
                b[j] = new
            change = abs(new - old)
            if change > max_change:
                max_change = change
        if max_change < LASSO_TOL:
            break
    # snap float dust: a soft threshold hit at exact equality (lam == lam_max)
    # leaves ~1e-17 residue that must read as an exact zero
    snap = 1e-12 * max(1.0, float(np.abs(b).max(initial=0.0)))
    b[np.abs(b) < snap] = 0.0
    return np.where(live, b / np.where(live, scale, 1.0), 0.0)


def lasso_fit(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    beta_init: np.ndarray | None = None,
) -> np.ndarray:
    """Coordinate descent for the L1-penalized least squares objective.

    Sweeps until the largest coefficient change falls below ``LASSO_TOL`` or
    ``LASSO_MAX_SWEEPS`` is reached. ``beta_init`` (original scale) warm-starts
    path computations.
    """
    X, y = _lasso_inputs(X, y)
    if not np.isfinite(lam):
        raise DomainError("non-finite values in lasso inputs")
    if lam < 0:
        raise DomainError(f"lambda must be >= 0, got {lam}")
    return _coordinate_descent(_unit_rms(X), y, lam, beta_init)


def lasso_lambda_max(X: np.ndarray, y: np.ndarray) -> float:
    """Smallest penalty that forces all coefficients to zero."""
    return float(np.max(np.abs(np.asarray(X).T @ np.asarray(y))) / len(y))


def lasso_cv_path(
    X: np.ndarray,
    y: np.ndarray,
    grid_points: int = 20,
    folds: int = 3,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """Cross-validated penalty search over a log-spaced grid.

    Returns (grid, mean out-of-fold MSE per grid point, selected lambda,
    coefficients refit on all rows at the selected lambda). Ties in CV error
    resolve toward the larger penalty.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if folds < 2:
        raise DomainError(f"folds must be >= 2, got {folds}")
    if n < folds:
        raise EstimationError(f"need at least {folds} rows, got {n}")
    if float(np.var(y)) == 0.0:
        raise EstimationError("degenerate target: zero variance")
    lam_max = lasso_lambda_max(X, y)
    if lam_max <= 0.0:
        raise EstimationError("degenerate problem: all columns orthogonal to target")
    # descending grid so each fit warm-starts the next
    grid = np.geomspace(lam_max, LASSO_GRID_SPAN * lam_max, grid_points)

    perm = stream(seed, "lasso_cv_folds").permutation(n)
    fold_of = np.empty(n, dtype=np.intp)
    for f, chunk in enumerate(np.array_split(perm, folds)):
        fold_of[chunk] = f

    X, y = _lasso_inputs(X, y)
    fold_mse = np.zeros((grid_points, folds))
    for f in range(folds):
        tr = fold_of != f
        X_tr, y_tr, X_te, y_te = X[tr], y[tr], X[~tr], y[~tr]
        # scaled once per fold; each warm start still passes through the original scale
        scaled = _unit_rms(X_tr)
        beta = None
        for i, lam in enumerate(grid):
            beta = _coordinate_descent(scaled, y_tr, lam, beta)
            err = y_te - X_te @ beta
            fold_mse[i, f] = float(np.add.reduce(err * err)) / len(y_te)
    mean_mse = fold_mse.mean(axis=1)
    best = 0
    for i in range(1, grid_points):
        if mean_mse[i] < mean_mse[best]:
            best = i
    lam_star = float(grid[best])
    beta = lasso_fit(X, y, lam_star)
    return grid, mean_mse, lam_star, beta
