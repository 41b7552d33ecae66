"""Panel data container and its CSV contract.

One row per search event: string keys (event, customer, query group, zip),
a long-horizon revenue target, and float64 metric blocks discovered by
column prefix: ``x_`` quality surrogates, ``m_`` short-term metrics, ``h_``
customer history controls.

The CSV is UTF-8, a header row and then one row per event, each ended by
``\r\n``. Key cells are quoted as Python's ``csv`` module quotes them (only a
cell holding a comma, a quote or a line break, its quotes doubled), and floats
are written in shortest round-trip form, so a read-back keeps every bit.
The writer formats ``CHUNK_ROWS`` rows per write; the reader parses the body
in one ``np.loadtxt`` pass, keys as ``<U`` strings. A blank line, a row whose
cell count differs from the header's, a numeric cell that is not a number or
a byte that is not UTF-8 is a ``DomainError`` naming the file and line.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import DomainError, EstimationError
from ..rng import stream

KEY_COLUMNS = ("event_id", "customer_id", "query_group", "zip")
TARGET_COLUMN = "drev"
CHUNK_ROWS = 4096  # rows formatted per write
_CSV_SPECIALS = (",", '"', "\r", "\n")  # cells the csv module quotes


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


def _key_cells(keys: np.ndarray) -> list[str]:
    """Key cells as the ``csv`` module writes them: a cell holding a comma,
    a quote or a line break is quoted, with its quotes doubled."""
    keys = np.asarray(keys)
    cells = keys.tolist()
    if keys.dtype.kind != "U":
        # as csv.writer writes any other cell: None empty, the rest str()
        cells = ["" if c is None else str(c) for c in cells]
    if any(c in "".join(cells) for c in _CSV_SPECIALS):
        cells = [
            '"' + cell.replace('"', '""') + '"' if any(c in cell for c in _CSV_SPECIALS) else cell
            for cell in cells
        ]
    return cells


def write_panel_csv(dataset: PanelDataset, path: str | Path) -> None:
    """Write the panel as UTF-8 with ``\\r\\n`` line ends; floats use shortest
    round-trip decimal form, so a read-back reproduces every bit pattern."""
    path = Path(path)
    keys = [
        _key_cells(k)
        for k in (dataset.event_id, dataset.customer_id, dataset.query_group, dataset.zip_code)
    ]
    prefixes = list(map(",".join, zip(*keys)))
    values = np.column_stack([dataset.drev, dataset.x, dataset.m, dataset.h]).astype(float)
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(dataset.header())
        for a in range(0, len(prefixes), CHUNK_ROWS):
            rows = values[a : a + CHUNK_ROWS].tolist()
            fh.write(
                "".join(
                    [
                        f"{key},{','.join(map(repr, row))}\r\n"
                        for key, row in zip(prefixes[a : a + CHUNK_ROWS], rows)
                    ]
                )
            )


def _line_ends(text: str) -> int:
    """Lines in `text`, counting a last one without a line end."""
    ends = text.count("\n") + text.count("\r") - text.count("\r\n")
    unended = text != "" and not text.endswith(("\n", "\r"))
    return ends + unended


def _raise_first_problem(
    path: Path, header: list[str], header_lines: int, body: str, float_names: list[str]
) -> None:
    """Raise a DomainError naming the first blank, short or long row, or
    non-number cell, of `body` as ``csv`` reads it, by the physical line the
    row starts on; return if there is none. The header spans `header_lines`."""
    reader = csv.reader(io.StringIO(body, newline=""))
    rows, line = [], header_lines + 1
    for row in reader:
        rows.append((line, row))
        # line_num counts the physical lines read so far
        line = header_lines + reader.line_num + 1
    for line, row in rows:
        if len(row) != len(header):
            raise DomainError(
                f"{path}: line {line} has {len(row)} cells, the header {len(header)}"
            )
    col = {name: j for j, name in enumerate(header)}
    for name in float_names:
        j = col[name]
        for line, row in rows:
            try:
                float(row[j])
            except ValueError:
                raise DomainError(
                    f"{path}: line {line} column {name} is not a number: {row[j]!r}"
                ) from None


def read_panel_csv(path: str | Path) -> PanelDataset:
    """Load a panel CSV, discovering metric blocks by column prefix."""
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines end in \n, \r\n or \r; the sentinel counts the line holding the byte
        line = len((data[: exc.start] + b"x").splitlines())
        raise DomainError(f"{path}: line {line} is not valid UTF-8") from None
    buf = io.StringIO(text, newline="")
    header_reader = csv.reader(buf)
    try:
        header = next(header_reader)
    except StopIteration:
        raise DomainError(f"{path}: empty file") from None
    missing = [c for c in (*KEY_COLUMNS, TARGET_COLUMN) if c not in header]
    if missing:
        raise DomainError(f"{path}: missing required columns {missing}")
    col = {name: i for i, name in enumerate(header)}
    x_names = tuple(c for c in header if c.startswith("x_"))
    m_names = tuple(c for c in header if c.startswith("m_"))
    h_names = tuple(c for c in header if c.startswith("h_"))
    float_names = [TARGET_COLUMN, *x_names, *m_names, *h_names]
    float_cols = {col[name] for name in float_names}
    # positional field names: a header may repeat a name or leave one empty
    dtype = [(f"c{j}", "f8" if j in float_cols else "O") for j in range(len(header))]
    body = text[buf.tell() :]
    records = np.empty(0, dtype=dtype)
    error = None
    if body.strip():
        try:
            records = np.loadtxt(
                io.StringIO(body, newline=""),
                dtype=dtype,
                delimiter=",",
                quotechar='"',
                comments=None,
                ndmin=1,
            )
        except ValueError as exc:
            error = exc
    # loadtxt skips blank lines, and a quoted key may span lines
    if error is not None or len(records) != _line_ends(body):
        _raise_first_problem(path, header, header_reader.line_num, body, float_names)
        if error is not None:
            raise DomainError(f"{path}: {error}")

    def strings(name: str) -> np.ndarray:
        return records[f"c{col[name]}"].astype(str)

    def floats(names: tuple[str, ...]) -> np.ndarray:
        out = np.empty((len(records), len(names)))
        for k, name in enumerate(names):
            out[:, k] = records[f"c{col[name]}"]
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
