"""Counter-based random streams with explicit splitting.

Every stochastic component draws from a Philox generator keyed by a
(seed, label...) tuple, so results are reproducible regardless of how work
is ordered or parallelized. Event-level randomness uses one substream per
(event_id, purpose); batch components use one substream per purpose and
index rows by event order.

Batch code derives the event substream keys for a whole block of event ids at
once (:func:`event_keys`, the same splitmix64 chain in wrapping ``uint64``
arithmetic) and replays each event's draws by re-keying one Philox generator
in place (:class:`KeyedGenerator`). The draws are identical to those of
:func:`event_stream`; only the cost of constructing a generator per event is
gone.
"""

from __future__ import annotations

from collections.abc import Sequence

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


def event_stream(seed: int, event_id: int, purpose: str) -> np.random.Generator:
    """Substream for one simulated event and one purpose (clicks, noise...)."""
    return stream(seed, event_id, purpose)


def event_keys(seed: int, event_ids: np.ndarray, purpose: str) -> np.ndarray:
    """Philox keys of ``event_stream(seed, i, purpose)`` for every non-negative
    id ``i`` in ``event_ids``, one ``(2,)`` uint64 row per id."""
    k = np.uint64(_splitmix64(seed & _MASK)) ^ np.asarray(event_ids, dtype=np.uint64)
    k = _splitmix64_array(_splitmix64_array(k) ^ np.uint64(_label_code(purpose)))
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


# Generator.random maps a raw 64-bit draw r to (r >> 11) * 2**-53
_DOUBLE_SHIFT = np.uint64(11)
_DOUBLE_SCALE = 1.0 / 9007199254740992.0


def event_uniforms(
    seed: int, event_ids: np.ndarray, purpose: str, per_event: int
) -> np.ndarray:
    """Row ``i`` holds the first ``per_event`` uniforms of
    ``event_stream(seed, event_ids[i], purpose)``."""
    raw = np.empty((len(event_ids), per_event), dtype=np.uint64)
    replay = KeyedGenerator()
    for i, key in enumerate(event_keys(seed, event_ids, purpose).tolist()):
        raw[i] = replay.rekey(key).bit_generator.random_raw(per_event)
    return (raw >> _DOUBLE_SHIFT).astype(float) * _DOUBLE_SCALE


def event_normals(seed: int, event_ids: np.ndarray, purpose: str) -> np.ndarray:
    """Entry ``i`` is the first standard normal of
    ``event_stream(seed, event_ids[i], purpose)``."""
    replay = KeyedGenerator()
    return np.array(
        [
            replay.rekey(key).standard_normal()
            for key in event_keys(seed, event_ids, purpose).tolist()
        ],
        dtype=float,
    )
