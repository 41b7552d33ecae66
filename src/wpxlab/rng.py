"""Counter-based random streams with explicit splitting.

Every stochastic component draws from a Philox generator keyed by a
(seed, label...) tuple, so results are reproducible regardless of how work
is ordered or parallelized. Event-level randomness uses one substream per
(event_id, purpose); batch components use one substream per purpose and
index rows by event order.

Batch code derives the keys of a whole block of substreams at once: any label
prefix and suffix around a block of integer ids (:func:`stream_keys`, the same
splitmix64 chain in wrapping ``uint64`` arithmetic). It replays each
substream's draws by re-keying one Philox generator in place
(:class:`KeyedGenerator`, :func:`keyed_streams`). The draws are identical to
those of :func:`stream`; only the cost of constructing a generator per
substream is gone.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

_MIX = 0x9E3779B97F4A7C15  # splitmix64 increment
_MASK = 0xFFFFFFFFFFFFFFFF


def _splitmix64(x: int) -> int:
    x = (x + _MIX) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """:func:`_splitmix64` elementwise; ``uint64`` arithmetic wraps like the mask."""
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


def stream_keys(
    seed: int,
    prefix_labels: Sequence[int | str],
    ids: np.ndarray,
    suffix_labels: Sequence[int | str] = (),
) -> np.ndarray:
    """Philox keys of ``stream(seed, *prefix_labels, i, *suffix_labels)`` for
    every non-negative id ``i`` in ``ids``, one ``(2,)`` uint64 row per id."""
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
    cost of constructing one.
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
    re-keyed for every row, so finish with a stream before taking the next."""
    replay = KeyedGenerator()
    for key in keys.tolist():
        yield replay.rekey(key)


def keyed_uniforms(keys: np.ndarray, per_key: int) -> np.ndarray:
    """Row ``i`` holds the first ``per_key`` uniforms of the stream keyed ``keys[i]``."""
    out = np.empty((len(keys), per_key))
    for i, g in enumerate(keyed_streams(keys)):
        out[i] = g.random(per_key)
    return out


def keyed_normals(keys: np.ndarray) -> np.ndarray:
    """Entry ``i`` is the first standard normal of the stream keyed ``keys[i]``."""
    out = np.empty(len(keys))
    for i, g in enumerate(keyed_streams(keys)):
        out[i] = g.standard_normal()
    return out
