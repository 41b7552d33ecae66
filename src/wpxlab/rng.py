"""Counter-based random streams with explicit splitting.

Every stochastic component draws from a Philox generator keyed by a
(seed, label...) tuple, so results are reproducible regardless of how work
is ordered or parallelized. Whole-run components (the world, the logging
assignment, retrains, splits and the bootstrap) draw from one stream per
purpose and index rows by order.

Per-event and per-session draws are block-keyed (:func:`block_rows`): the ids
of a purpose fall into blocks of `RNG_BLOCK`, block ``b`` is one bulk draw from
``stream(seed, *labels, b)``, and id ``i`` reads row ``i % RNG_BLOCK`` of it.
numpy fills ``random((m, ...))``, ``standard_normal(m)`` and
``integers(0, n, m)`` in order, so the first m rows of a block's draw are the
m-row draw: an id's draws do not depend on how a caller blocks the ids or on
how many it asks for.

The bandit's Thompson draws still use one stream per (request, purpose): keys
for a block of ids at once (:func:`stream_keys`, the same splitmix64 chain in
wrapping ``uint64`` arithmetic), replayed by re-keying one Philox generator in
place (:class:`KeyedGenerator`, :func:`keyed_streams`). They serve nothing
else, and go when those draws move to block streams too.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

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


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """:func:`_splitmix64` elementwise; ``uint64`` arithmetic wraps like the mask.
    Only :func:`stream_keys` (the Thompson draws) uses it."""
    x = x + np.uint64(_MIX)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


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


def stream_keys(
    seed: int,
    prefix_labels: Sequence[int | str],
    ids: np.ndarray,
    suffix_labels: Sequence[int | str] = (),
) -> np.ndarray:
    """Philox keys of ``stream(seed, *prefix_labels, i, *suffix_labels)`` for
    every non-negative id ``i`` in ``ids``, one ``(2,)`` uint64 row per id.
    The Thompson draws' keys; every other per-id draw uses :func:`block_rows`."""
    k = _splitmix64(seed & _MASK)
    for label in prefix_labels:
        k = _splitmix64(k ^ _label_code(label))
    k = _splitmix64_array(np.uint64(k) ^ np.asarray(ids, dtype=np.uint64))
    for label in suffix_labels:
        k = _splitmix64_array(k ^ np.uint64(_label_code(label)))
    return np.column_stack([k, _splitmix64_array(k)])


class KeyedGenerator:
    """One Philox generator whose key is replaced in place.

    After ``rekey(key)`` the generator is at counter 0 with an empty buffer,
    exactly as ``Generator(Philox(key=key))`` starts, for about a tenth of the
    cost of constructing one. It replays the Thompson draws' per-request
    streams.
    """

    def __init__(self) -> None:
        self._bit_generator = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self._generator = np.random.Generator(self._bit_generator)
        # the fresh state, with plain lists so the setter reads Python ints
        state = self._bit_generator.state
        state["state"] = {"counter": state["state"]["counter"].tolist(), "key": [0, 0]}
        state["buffer"] = state["buffer"].tolist()
        self._state = state

    def rekey(self, key: Sequence[int]) -> np.random.Generator:
        self._state["state"]["key"] = key
        self._bit_generator.state = self._state
        return self._generator


def keyed_streams(keys: np.ndarray) -> Iterator[np.random.Generator]:
    """The stream keyed by each row of ``keys`` (a block of :func:`stream_keys`)
    in turn, each starting fresh as :func:`stream` does. One generator is
    re-keyed for every row, so finish with a stream before taking the next.
    The Thompson draws read their per-request streams through it."""
    replay = KeyedGenerator()
    for key in keys.tolist():
        yield replay.rekey(key)
