"""Block-keyed purpose rows, bulk stream keys and the re-keyed generator."""

import numpy as np
import pytest

from wpxlab.rng import RNG_BLOCK, KeyedGenerator, block_rows, stream, stream_keys

SEEDS = [0, 7, 2**63 + 11, -3]
IDS = np.array([0, 1, 2, 99, 4096, 123_456_789, 2**40 + 3])

# the draws the simulator and the experiment make per id
DRAWS = {
    "availability": lambda g, m: g.random((m, 240)),
    "session": lambda g, m: g.random((m, 3, 24)),
    "long_term": lambda g, m: g.standard_normal(m),
    "customer": lambda g, m: g.integers(0, 2000, m),
}


def _key(generator):
    return generator.bit_generator.state["state"]["key"].tolist()


@pytest.mark.parametrize("name", DRAWS)
@pytest.mark.parametrize("m", [0, 1, 7, 400, RNG_BLOCK - 1])
def test_first_rows_of_a_block_draw_are_the_shorter_draw(name, m):
    # the premise of block keying: numpy fills every draw in row order
    draw = DRAWS[name]
    assert np.array_equal(draw(stream(3, name, 0), RNG_BLOCK)[:m], draw(stream(3, name, 0), m))


@pytest.mark.parametrize("seed", SEEDS[:2])
@pytest.mark.parametrize("name", DRAWS)
def test_row_i_is_row_i_mod_block_of_its_blocks_full_draw(seed, name):
    draw, labels = DRAWS[name], (name, 5)
    start, stop = RNG_BLOCK - 3, 2 * RNG_BLOCK + 2  # three blocks, two boundaries
    rows = block_rows(seed, labels, start, stop, draw)
    assert len(rows) == stop - start
    full = {b: draw(stream(seed, *labels, b), RNG_BLOCK) for b in range(3)}
    for i in range(start, stop):
        assert np.array_equal(rows[i - start], full[i // RNG_BLOCK][i % RNG_BLOCK]), i


@pytest.mark.parametrize(
    "start, stop",
    [(0, 1), (5, 9), (RNG_BLOCK - 1, RNG_BLOCK + 1), (RNG_BLOCK, 2 * RNG_BLOCK), (7, 7)],
)
def test_rows_do_not_depend_on_the_range_asked_for(start, stop):
    whole = block_rows(2, ("session",), 0, 2 * RNG_BLOCK, DRAWS["session"])
    part = block_rows(2, ("session",), start, stop, DRAWS["session"])
    assert part.shape == (stop - start, 3, 24)
    assert np.array_equal(part, whole[start:stop])


def test_labels_and_blocks_name_distinct_streams():
    rows = [
        block_rows(0, labels, start, start + 4, DRAWS["long_term"])
        for labels in (("a", 1), ("a", 2), ("b", 1))
        for start in (0, RNG_BLOCK)
    ]
    assert len({r.tobytes() for r in rows}) == len(rows)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("purpose", ["availability", "session", "long_term"])
def test_bulk_keys_equal_event_stream_keys(seed, purpose):
    keys = stream_keys(seed, (), IDS, (purpose,))
    assert keys.dtype == np.uint64 and keys.shape == (len(IDS), 2)
    for event_id, key in zip(IDS, keys):
        assert key.tolist() == _key(stream(seed, int(event_id), purpose))


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
    fresh = stream(5, 3, "x")
    words = [g.integers(0, 2**32, 5, dtype=np.uint32) for g in (again, fresh)]
    assert np.array_equal(*words)
    assert np.array_equal(again.random(9), fresh.random(9))
    assert again.standard_normal() == fresh.standard_normal()
