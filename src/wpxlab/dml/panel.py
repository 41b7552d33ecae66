"""Panel data container and its CSV contract.

One row per search event: string keys (event, customer, query group, zip),
a long-horizon revenue target, and float64 metric blocks discovered by
column prefix: ``x_`` quality surrogates, ``m_`` short-term metrics, ``h_``
customer history controls.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import DomainError, EstimationError
from ..rng import stream

KEY_COLUMNS = ("event_id", "customer_id", "query_group", "zip")
TARGET_COLUMN = "drev"


@dataclass
class PanelDataset:
    """Flat panel of search events.

    Keys are string arrays; metric blocks are float64 matrices whose columns
    follow ``x_names`` / ``m_names`` / ``h_names``.
    """

    event_id: np.ndarray
    customer_id: np.ndarray
    query_group: np.ndarray
    zip_code: np.ndarray
    drev: np.ndarray
    x: np.ndarray
    m: np.ndarray
    h: np.ndarray
    x_names: tuple[str, ...]
    m_names: tuple[str, ...]
    h_names: tuple[str, ...]

    def __post_init__(self) -> None:
        n = len(self.event_id)
        for name in ("customer_id", "query_group", "zip_code", "drev"):
            if len(getattr(self, name)) != n:
                raise DomainError(f"column {name} has length != {n}")
        for block, names in (("x", self.x_names), ("m", self.m_names), ("h", self.h_names)):
            mat = getattr(self, block)
            if mat.shape != (n, len(names)):
                raise DomainError(
                    f"block {block} has shape {mat.shape}, expected {(n, len(names))}"
                )
        for block in ("drev", "x", "m", "h"):
            if not np.all(np.isfinite(getattr(self, block))):
                raise DomainError(f"non-finite values in block {block}")

    @property
    def n_rows(self) -> int:
        return len(self.event_id)

    def subset(self, idx: np.ndarray) -> "PanelDataset":
        return PanelDataset(
            event_id=self.event_id[idx],
            customer_id=self.customer_id[idx],
            query_group=self.query_group[idx],
            zip_code=self.zip_code[idx],
            drev=self.drev[idx],
            x=self.x[idx],
            m=self.m[idx],
            h=self.h[idx],
            x_names=self.x_names,
            m_names=self.m_names,
            h_names=self.h_names,
        )

    def header(self) -> list[str]:
        return (
            list(KEY_COLUMNS)
            + [TARGET_COLUMN]
            + list(self.x_names)
            + list(self.m_names)
            + list(self.h_names)
        )


def write_panel_csv(dataset: PanelDataset, path: str | Path) -> None:
    """Write the panel; floats use shortest round-trip decimal form, so a
    read-back reproduces every bit pattern."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.header())
        keys = (dataset.event_id, dataset.customer_id, dataset.query_group, dataset.zip_code)
        values = np.column_stack([dataset.drev, dataset.x, dataset.m, dataset.h])
        for *key, row in zip(*keys, values.astype(float, copy=False)):
            writer.writerow([*key, *map(repr, row.tolist())])


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def read_panel_csv(path: str | Path) -> PanelDataset:
    """Load a panel CSV, discovering metric blocks by column prefix."""
    path = Path(path)
    with path.open("r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DomainError(f"{path}: empty file") from None
        rows = list(reader)
    missing = [c for c in (*KEY_COLUMNS, TARGET_COLUMN) if c not in header]
    if missing:
        raise DomainError(f"{path}: missing required columns {missing}")
    col = {name: i for i, name in enumerate(header)}
    x_names = tuple(c for c in header if c.startswith("x_"))
    m_names = tuple(c for c in header if c.startswith("m_"))
    h_names = tuple(c for c in header if c.startswith("h_"))
    n = len(rows)
    # the header is line 1, so row i is on line i + 2
    short = next((i for i, r in enumerate(rows) if len(r) != len(header)), None)
    if short is not None:
        raise DomainError(
            f"{path}: line {short + 2} has {len(rows[short])} cells, the header {len(header)}"
        )

    def strings(name: str) -> np.ndarray:
        j = col[name]
        return np.array([r[j] for r in rows], dtype=object)

    def floats(names: tuple[str, ...]) -> np.ndarray:
        out = np.empty((n, len(names)))
        for k, name in enumerate(names):
            j = col[name]
            try:
                out[:, k] = [float(r[j]) for r in rows]
            except ValueError:
                i = next(i for i, r in enumerate(rows) if not _is_number(r[j]))
                raise DomainError(
                    f"{path}: line {i + 2} column {name} is not a number: {rows[i][j]!r}"
                ) from None
        return out

    return PanelDataset(
        event_id=strings("event_id"),
        customer_id=strings("customer_id"),
        query_group=strings("query_group"),
        zip_code=strings("zip"),
        drev=floats((TARGET_COLUMN,))[:, 0],
        x=floats(x_names),
        m=floats(m_names),
        h=floats(h_names),
        x_names=x_names,
        m_names=m_names,
        h_names=h_names,
    )


def split_train_test(
    n_rows: int, train_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic seeded row partition; sizes within one row of the fractions.

    Returns (train_idx, test_idx) as sorted index arrays.
    """
    if not 0.0 < train_fraction < 1.0:
        raise DomainError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if n_rows < 2:
        raise EstimationError(f"need at least 2 rows to split, got {n_rows}")
    n_train = int(round(train_fraction * n_rows))
    n_train = min(max(n_train, 1), n_rows - 1)
    perm = stream(seed, "train_test_split").permutation(n_rows)
    train = np.sort(perm[:n_train])
    test = np.sort(perm[n_train:])
    return train, test
