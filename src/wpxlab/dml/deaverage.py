"""Iterative removal of crossed fixed effects by alternating group demeaning.

Subtracting group means over one key, then the other, and repeating converges
to the residual of the joint projection onto both sets of group indicators,
i.e. the same transformation as regressing out a full dummy encoding, without
materializing dummies.

Groups are numbered without sorting strings: a `<U` key is a fixed-width row
of code points, read as integers and mixed into one integer code per row.
Other key dtypes are numbered by ``np.unique``. Any numbering gives the same
bits, because each bin sums its rows in row order and is only gathered back.

The passes run on a column-major copy, so each column a weighted bincount reads
or a mean is subtracted from is contiguous. A pass ends by checking
convergence. The first key's group means taken there are the next pass's
first demeaning. The last key's were just subtracted, so they are taken only
when every other key passes the early stop, or on the last pass. The last
check's maxima are the diagnostics. So every bit matches a row-major loop
that recomputes all of these sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DomainError

EARLY_STOP_TOL = 1e-9
#: a key's running integer code stays below this while code-point columns are mixed in
_CODE_LIMIT = 2**62


@dataclass(frozen=True)
class DeaverageDiagnostics:
    """Convergence record: per-key max absolute residual group mean, the
    iteration count actually run, and whether every group mean fell below
    ``EARLY_STOP_TOL`` (so the passes stopped short of the iteration cap, or
    met the tolerance on its last pass)."""

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
        codes.append(_group_numbers(np.asarray(keys)))

    out = np.array(values, dtype=float, order="F")
    finite = np.isfinite(out).all(axis=0)
    if not finite.all():
        raise DomainError(f"column {int(np.argmin(finite))} holds a non-finite value")
    counts = [np.bincount(c, minlength=g).astype(float) for c, g in codes]
    check: list[np.ndarray] = []  # key group means taken at the last check
    for iterations_run in range(1, iterations + 1):
        for k, ((c, g), cnt) in enumerate(zip(codes, counts)):
            # nothing moved since the last check, so its first-key means hold
            means = check[0] if k == 0 and check else _group_means(out, c, g, cnt)
            for j, m in enumerate(means):
                out[:, j] -= m[c]
        check = [_group_means(out, c, g, cnt) for (c, g), cnt in zip(codes[:-1], counts[:-1])]
        maxima = [float(np.max(np.abs(m))) for m in check]
        last_pass = iterations_run == iterations
        if last_pass or max(maxima, default=0.0) < EARLY_STOP_TOL:
            (c, g), cnt = codes[-1], counts[-1]
            check.append(_group_means(out, c, g, cnt))
            maxima.append(float(np.max(np.abs(check[-1]))))
            if last_pass or max(maxima) < EARLY_STOP_TOL:
                break
    diagnostics = DeaverageDiagnostics(
        tuple(maxima), iterations_run, converged=max(maxima) < EARLY_STOP_TOL
    )
    return np.ascontiguousarray(out), diagnostics


def _group_numbers(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Each row's group number in 0..g-1, and g."""
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
    """Renumber codes in 0..size-1 to 0..g-1 over the g values present."""
    if size > 4 * len(code):
        _, inverse = np.unique(code, return_inverse=True)  # an integer sort
        return inverse.astype(np.intp), int(inverse.max()) + 1
    present = np.zeros(size, dtype=np.intp)
    present[code] = 1
    number = np.cumsum(present) - 1
    return number[code], int(number[-1]) + 1


def _group_means(out: np.ndarray, codes: np.ndarray, g: int, counts: np.ndarray) -> np.ndarray:
    """(c, g): each column's means over the g groups, one weighted bincount a column."""
    return np.array([np.bincount(codes, weights=col, minlength=g) for col in out.T]) / counts
