"""Counter-based random streams with explicit splitting.

Every stochastic component draws from a Philox generator keyed by a
(seed, label...) tuple, so results are reproducible regardless of how work
is ordered or parallelized. One rule places every draw: a whole-run purpose
(the world, the logging assignment, retrains, splits, the bootstrap, one
`rank` selection) reads its rows in order from one :func:`stream`, and a
per-id purpose (an event, a session, a request's Thompson normals) reads
block-keyed rows from :func:`block_rows`. There, the ids fall into blocks of
`RNG_BLOCK`, block ``b`` is one bulk draw from ``stream(seed, *labels, b)``,
and id ``i`` reads row ``i % RNG_BLOCK`` of it. numpy fills ``random((m,
...))``, ``standard_normal((m, ...))`` and ``integers(0, n, m)`` in order, so
the first m rows of a block's draw are the m-row draw: an id's draws do not
depend on how a caller blocks the ids or on how many it asks for.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

_MIX = 0x9E3779B97F4A7C15  # splitmix64 increment
_MASK = 0xFFFFFFFFFFFFFFFF

#: Ids per block of a block-keyed purpose. Fixed: an id's draws depend on it.
RNG_BLOCK = 4096


def _splitmix64(x: int) -> int:
    x = (x + _MIX) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


def _label_code(label: int | str) -> int:
    if isinstance(label, str):
        code = 0
        for ch in label.encode("utf-8"):
            code = _splitmix64(code ^ ch)
        return code
    return label & _MASK


def stream(seed: int, *labels: int | str) -> np.random.Generator:
    """Return the generator for the substream named by ``labels``.

    The same (seed, labels) always yields the same stream; distinct label
    tuples yield statistically independent streams.
    """
    k = _splitmix64(seed & _MASK)
    for label in labels:
        k = _splitmix64(k ^ _label_code(label))
    key = np.array([k, _splitmix64(k)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def block_rows(
    seed: int,
    labels: Sequence[int | str],
    start: int,
    stop: int,
    draw: Callable[[np.random.Generator, int], np.ndarray],
) -> np.ndarray:
    """Rows ``[start, stop)`` of the block-keyed purpose named by ``labels``.

    ``draw(g, m)`` returns the first m rows of a purpose's draw from ``g``,
    filled in row order, so that they do not depend on m. Row ``i`` is row
    ``i % RNG_BLOCK`` of ``draw(stream(seed, *labels, i // RNG_BLOCK),
    RNG_BLOCK)``; each block the range covers is drawn once, up to its last
    row in the range; an empty range is ``draw``'s zero rows.
    """
    parts = []
    for block in range(start // RNG_BLOCK, max(start, stop - 1) // RNG_BLOCK + 1):
        first = block * RNG_BLOCK
        rows = draw(stream(seed, *labels, block), min(stop, first + RNG_BLOCK) - first)
        parts.append(rows[max(start - first, 0) :])
    return parts[0] if len(parts) == 1 else np.concatenate(parts)
