"""Bulk stream keys and the re-keyed generator replay stream exactly."""

import numpy as np
import pytest

from wpxlab.rng import (
    KeyedGenerator,
    event_stream,
    keyed_normals,
    keyed_uniforms,
    stream,
    stream_keys,
)

SEEDS = [0, 7, 2**63 + 11, -3]
IDS = np.array([0, 1, 2, 99, 4096, 123_456_789, 2**40 + 3])


def _key(generator):
    return generator.bit_generator.state["state"]["key"].tolist()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("purpose", ["availability", "session", "long_term"])
def test_bulk_keys_equal_event_stream_keys(seed, purpose):
    keys = stream_keys(seed, (), IDS, (purpose,))
    assert keys.dtype == np.uint64 and keys.shape == (len(IDS), 2)
    for event_id, key in zip(IDS, keys):
        assert key.tolist() == _key(event_stream(seed, int(event_id), purpose))


@pytest.mark.parametrize("seed", SEEDS)
def test_uniforms_and_normals_replay_event_stream(seed):
    uniforms = keyed_uniforms(stream_keys(seed, (), IDS, ("session",)), 72)
    normals = keyed_normals(stream_keys(seed, (), IDS, ("long_term",)))
    for i, event_id in enumerate(IDS):
        assert np.array_equal(
            uniforms[i], event_stream(seed, int(event_id), "session").random(72)
        )
        assert normals[i] == event_stream(seed, int(event_id), "long_term").standard_normal()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "prefix, suffix",
    [
        (("exp_session", 3), ()),
        (("exp_thompson", "t2", 5), ()),
        (("rank_warmup",), ()),
        ((), ()),
        ((7, "x", 2**40), ("y", 4)),
    ],
)
def test_stream_keys_equal_stream_keys_for_any_labels(seed, prefix, suffix):
    keys = stream_keys(seed, prefix, IDS, suffix)
    assert keys.dtype == np.uint64 and keys.shape == (len(IDS), 2)
    for i, key in zip(IDS, keys):
        assert key.tolist() == _key(stream(seed, *prefix, int(i), *suffix))


def test_rekey_restarts_a_used_generator():
    replay = KeyedGenerator()
    key = stream_keys(5, (), np.array([3]), ("x",))[0].tolist()
    used = replay.rekey([1, 2])
    # leave a half-consumed buffer and a cached 32-bit word behind
    used.integers(0, 10, 3, dtype=np.uint32)
    used.standard_normal(5)
    again = replay.rekey(key)
    fresh = event_stream(5, 3, "x")
    words = [g.integers(0, 2**32, 5, dtype=np.uint32) for g in (again, fresh)]
    assert np.array_equal(*words)
    assert np.array_equal(again.random(9), fresh.random(9))
    assert again.standard_normal() == fresh.standard_normal()
