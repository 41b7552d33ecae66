"""Iterative removal of crossed fixed effects by alternating group demeaning.

Subtracting group means over one key, then the other, and repeating converges
to the residual of the joint projection onto both sets of group indicators,
i.e. the same transformation as regressing out a full dummy encoding, without
materializing dummies.

The passes run on a column-major copy, so each column a weighted bincount reads
or a mean is subtracted from is contiguous. A pass ends by taking every key's
group means to check convergence: the next pass subtracts the first key's
without recomputing them, and the last check's maxima are the diagnostics.
Each bin still sums its rows in row order, so every bit matches a row-major
loop that recomputes these sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DomainError

EARLY_STOP_TOL = 1e-9


@dataclass(frozen=True)
class DeaverageDiagnostics:
    """Convergence record: per-key max absolute residual group mean, and the
    iteration count actually run."""

    max_group_means: tuple[float, ...]
    iterations_run: int


def deaverage(
    values: np.ndarray,
    group_keys: list[np.ndarray],
    iterations: int,
) -> tuple[np.ndarray, DeaverageDiagnostics]:
    """Alternately demean ``values`` columns within each key's groups.

    ``values`` is (n, c); ``group_keys`` holds one length-n key array per
    grouping dimension (any dtype; values are grouped by equality). Runs
    ``iterations`` full passes, stopping early once every group mean is below
    ``EARLY_STOP_TOL`` in absolute value. Returns the transformed C-ordered
    copy and convergence diagnostics.
    """
    if iterations < 1:
        raise DomainError(f"iterations must be >= 1, got {iterations}")
    if values.ndim != 2:
        values = np.asarray(values, dtype=float).reshape(len(values), -1)
    n = values.shape[0]
    if n == 0:
        raise DomainError("cannot de-average an empty dataset")
    if not group_keys:
        raise DomainError("need at least one group key")
    codes: list[tuple[np.ndarray, int]] = []
    for keys in group_keys:
        if len(keys) != n:
            raise DomainError(f"group key length {len(keys)} != {n} rows")
        _, inverse = np.unique(np.asarray(keys), return_inverse=True)
        codes.append((inverse.astype(np.intp), int(inverse.max()) + 1))

    out = np.array(values, dtype=float, order="F")
    finite = np.isfinite(out).all(axis=0)
    if not finite.all():
        raise DomainError(f"column {int(np.argmin(finite))} holds a non-finite value")
    counts = [np.bincount(c, minlength=g).astype(float) for c, g in codes]
    check: list[np.ndarray] = []  # every key's group means at the last check
    for iterations_run in range(1, iterations + 1):
        for k, ((c, g), cnt) in enumerate(zip(codes, counts)):
            # nothing moved since the last check, so its first-key means hold
            means = check[0] if k == 0 and check else _group_means(out, c, g, cnt)
            for j, m in enumerate(means):
                out[:, j] -= m[c]
        check = [_group_means(out, c, g, cnt) for (c, g), cnt in zip(codes, counts)]
        maxima = tuple(float(np.max(np.abs(m))) for m in check)
        if max(maxima) < EARLY_STOP_TOL:
            break
    return np.ascontiguousarray(out), DeaverageDiagnostics(maxima, iterations_run)


def _group_means(out: np.ndarray, codes: np.ndarray, g: int, counts: np.ndarray) -> np.ndarray:
    """(c, g): each column's means over the g groups, one weighted bincount a column."""
    return np.array([np.bincount(codes, weights=col, minlength=g) for col in out.T]) / counts
