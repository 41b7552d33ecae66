"""Block-keyed purpose rows."""

import numpy as np
import pytest

from wpxlab import rng
from wpxlab.rng import RNG_BLOCK, block_rows, stream

SEEDS = [0, 7]

# the draws the simulator and the experiment make per id
DRAWS = {
    "availability": lambda g, m: g.random((m, 240)),
    "session": lambda g, m: g.random((m, 3, 24)),
    "long_term": lambda g, m: g.standard_normal(m),
    "customer": lambda g, m: g.integers(0, 2000, m),
    "thompson": lambda g, m: g.standard_normal((m, 6, 3, 10)),
}


@pytest.mark.parametrize("name", DRAWS)
@pytest.mark.parametrize("m", [0, 1, 7, 400, RNG_BLOCK - 1])
def test_first_rows_of_a_block_draw_are_the_shorter_draw(name, m):
    # the premise of block keying: numpy fills every draw in row order
    draw = DRAWS[name]
    assert np.array_equal(draw(stream(3, name, 0), RNG_BLOCK)[:m], draw(stream(3, name, 0), m))


@pytest.mark.parametrize("seed", SEEDS)
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


@pytest.mark.parametrize("name", DRAWS)
def test_chunked_reads_join_into_one_read(name):
    # a caller may walk a purpose in chunks of any size, across block edges
    draw, labels = DRAWS[name], (name, 9)
    stop = 2 * RNG_BLOCK + 5
    whole = block_rows(1, labels, 0, stop, draw)
    cuts = [0, 1, 700, RNG_BLOCK - 1, RNG_BLOCK + 2, 2 * RNG_BLOCK, stop]
    joined = np.concatenate([block_rows(1, labels, a, b, draw) for a, b in zip(cuts, cuts[1:])])
    assert joined.dtype == whole.dtype
    assert np.array_equal(joined, whole)


def test_the_module_offers_one_mechanism_per_rule():
    # whole-run purposes read a stream, per-id purposes block_rows
    defined = {
        name
        for name, value in vars(rng).items()
        if callable(value) and getattr(value, "__module__", None) == rng.__name__
    }
    assert {name for name in defined if not name.startswith("_")} == {"stream", "block_rows"}


def test_labels_and_blocks_name_distinct_streams():
    rows = [
        block_rows(0, labels, start, start + 4, DRAWS["long_term"])
        for labels in (("a", 1), ("a", 2), ("b", 1))
        for start in (0, RNG_BLOCK)
    ]
    assert len({r.tobytes() for r in rows}) == len(rows)
