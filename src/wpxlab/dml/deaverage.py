"""Iterative removal of crossed fixed effects by alternating group demeaning.

Subtracting group means over one key, then the other, and repeating converges
to the residual of the joint projection onto both sets of group indicators,
i.e. the same transformation as regressing out a full dummy encoding, without
materializing dummies.

Groups are numbered in sorted key order without sorting strings: a `<U` key is
a fixed-width row of code points, read as integers and mixed into one integer
code per row. Other key dtypes are numbered by ``np.unique``. A cell, one
combination of every key's group, is numbered in the order of its groups.

Every demeaning subtracts a constant per cell, so the passes need the rows only
through each cell's row count and column sums, each cell summing its rows in
row order. A pass demeans the cells' residual sums key by key, a group summing
its cells in cell order, and adds the means to a per-cell shift: the cell order
sets the bits. The output, ``values − shift[cell]``, is written once, and the
diagnostics are its per-cell sums' group means: they describe the rows
returned, and can fail after the passes stopped early."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DomainError

EARLY_STOP_TOL = 1e-9
#: a running integer code stays below this while code-point columns or keys are mixed in
_CODE_LIMIT = 2**62


@dataclass(frozen=True)
class DeaverageDiagnostics:
    """Convergence record: per-key max absolute group mean of the returned
    rows, the iteration count actually run, and whether every one of those
    means fell below ``EARLY_STOP_TOL``. The passes stop on the cell sums'
    means, so a result can stop short of the cap and still not converge."""

    max_group_means: tuple[float, ...]
    iterations_run: int
    converged: bool


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
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        values = values.reshape(len(values), -1)
    n = values.shape[0]
    if n == 0:
        raise DomainError("cannot de-average an empty dataset")
    if not group_keys:
        raise DomainError("need at least one group key")
    codes: list[tuple[np.ndarray, int]] = []
    for keys in group_keys:
        if len(keys) != n:
            raise DomainError(f"group key length {len(keys)} != {n} rows")
        codes.append(_group_numbers(np.asarray(keys)))

    finite = np.isfinite(values).all(axis=0)
    if not finite.all():
        raise DomainError(f"column {int(np.argmin(finite))} holds a non-finite value")
    cell, n_cells = codes[0]
    for c, g in codes[1:]:
        if n_cells * g > _CODE_LIMIT:
            cell, n_cells = _dense(cell, n_cells)
        cell, n_cells = cell * g + c, n_cells * g
    cell, n_cells = _dense(cell, n_cells)
    row_of_cell = np.empty(n_cells, dtype=np.intp)
    row_of_cell[cell] = np.arange(n)
    size = np.bincount(cell, minlength=n_cells).astype(float)
    # per key: each cell's group, the group count and the groups' row counts
    groups = [(c[row_of_cell], g, np.bincount(c, minlength=g).astype(float)) for c, g in codes]

    resid = _sums(values.T, cell, n_cells)  # (c, cells): row sums minus size × shift
    shift = np.zeros_like(resid)
    for iterations_run in range(1, iterations + 1):
        for group, g, cnt in groups:
            means = (_sums(resid, group, g) / cnt)[:, group]
            resid -= size * means
            shift += means
        if max(_maxima(resid, groups)) < EARLY_STOP_TOL:
            break
    out = np.empty(values.shape, order="F")  # each column written and summed is contiguous
    for j, s in enumerate(shift):
        np.subtract(values[:, j], s[cell], out=out[:, j])
    maxima = _maxima(_sums(out.T, cell, n_cells), groups)
    converged = max(maxima) < EARLY_STOP_TOL
    return np.ascontiguousarray(out), DeaverageDiagnostics(maxima, iterations_run, converged)


def _sums(columns: np.ndarray, bins: np.ndarray, size: int) -> np.ndarray:
    """(c, size): each column's sums over ``size`` bins, a bin summing in column order."""
    return np.array([np.bincount(bins, weights=col, minlength=size) for col in columns])


def _maxima(cell_sums: np.ndarray, groups: list) -> tuple[float, ...]:
    """Per key, the largest absolute group mean of the cells' column sums."""
    return tuple(float(np.max(np.abs(_sums(cell_sums, gr, g) / cnt))) for gr, g, cnt in groups)


def _group_numbers(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Each row's group number in 0..g-1, in sorted key order, and g."""
    if keys.dtype.kind != "U":
        _, inverse = np.unique(keys, return_inverse=True)
        return inverse.astype(np.intp).reshape(-1), int(inverse.max()) + 1
    # one row of code points per key, zero-padded to the dtype's width; the
    # running code is renumbered densely before another column could overflow it
    points = np.ascontiguousarray(keys).view(np.uint32).reshape(len(keys), -1)
    code = np.zeros(len(keys), dtype=np.int64)
    size = 1
    for column in points.T:
        low = int(column.min())
        span = int(column.max()) - low + 1
        if size * span > _CODE_LIMIT:
            code, size = _dense(code, size)
        code = code * span + (column - low)
        size *= span
    return _dense(code, size)


def _dense(code: np.ndarray, size: int) -> tuple[np.ndarray, int]:
    """Renumber codes in 0..size-1 to 0..g-1 over the g values present, in order."""
    if size > 4 * len(code):
        _, inverse = np.unique(code, return_inverse=True)  # an integer sort
        return inverse.astype(np.intp), int(inverse.max()) + 1
    present = np.zeros(size, dtype=np.intp)
    present[code] = 1
    number = np.cumsum(present) - 1
    return number[code], int(number[-1]) + 1
