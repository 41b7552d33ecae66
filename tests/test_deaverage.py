"""Iterative group demeaning against the explicit dummy-variable oracle."""

import numpy as np
import pytest
from oracles import deaverage_cell_table, deaverage_row_major

from wpxlab.dml.deaverage import EARLY_STOP_TOL, deaverage
from wpxlab.errors import DomainError


def _max_group_mean(values: np.ndarray, keys: np.ndarray) -> float:
    worst = 0.0
    for g in np.unique(keys):
        worst = max(worst, float(np.abs(values[keys == g].mean(axis=0)).max()))
    return worst


def _crossed_instance(seed: int, n: int = 200, n_q: int = 10, n_z: int = 8):
    rng = np.random.default_rng(seed)
    q = np.array([f"q{v}" for v in rng.integers(0, n_q, n)], dtype=object)
    z = np.array([f"z{v}" for v in rng.integers(0, n_z, n)], dtype=object)
    X = rng.normal(size=(n, 3))
    alpha = {k: rng.normal() for k in np.unique(q)}
    zeta = {k: rng.normal() for k in np.unique(z)}
    beta = np.array([1.5, -0.7, 0.2])
    y = (
        X @ beta
        + np.array([alpha[k] for k in q])
        + np.array([zeta[k] for k in z])
        + 0.3 * rng.normal(size=n)
    )
    return y, X, q, z, beta


def _dummy_ols_beta(y, X, q, z):
    dq = (q[:, None] == np.unique(q)[None, 1:]).astype(float)
    dz = (z[:, None] == np.unique(z)[None, 1:]).astype(float)
    design = np.column_stack([np.ones(len(y)), X, dq, dz])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return coef[1 : 1 + X.shape[1]]


class TestDeaverage:
    def test_single_group_is_plain_demeaning_in_one_pass(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(40, 2))
        keys = np.array(["only"] * 40, dtype=object)
        out, diag = deaverage(v, [keys], iterations=1)
        assert np.allclose(out, v - v.mean(axis=0), atol=1e-12)
        assert diag.iterations_run == 1
        assert max(diag.max_group_means) < 1e-12

    def test_column_constant_within_groups_becomes_zero(self):
        keys = np.array(["a"] * 5 + ["b"] * 7 + ["c"] * 4, dtype=object)
        levels = {"a": 1.5, "b": -2.25, "c": 0.375}
        v = np.array([[levels[k]] for k in keys])
        out, _ = deaverage(v, [keys], iterations=1)
        assert np.allclose(out, 0.0, atol=1e-12)

    @pytest.mark.parametrize("blocks", ["connected", "disconnected"])
    def test_crossed_design_converges_and_matches_dummy_ols(self, blocks):
        y, X, q, z, _ = _crossed_instance(seed=5)
        if blocks == "disconnected":
            # two blocks of queries, each seen only in its own zips: the dummy
            # design has one more collinearity, and the projection is the same
            block = np.array([int(k[1:]) < 5 for k in q])
            z = np.where(block, z, np.char.add("w", z.astype(str)).astype(object))
            assert not set(z[block]) & set(z[~block])
        stacked = np.column_stack([y[:, None], X])
        out, diag = deaverage(stacked, [q, z], iterations=20)
        yd, Xd = out[:, 0], out[:, 1:]
        assert _max_group_mean(out, q) < 1e-6
        assert _max_group_mean(out, z) < 1e-6
        assert diag.converged and max(diag.max_group_means) < 1e-6

        coef, *_ = np.linalg.lstsq(
            np.column_stack([np.ones(len(yd)), Xd]), yd, rcond=None
        )
        oracle = _dummy_ols_beta(y, X, q, z)
        assert np.max(np.abs(coef[1:] - oracle)) < 1e-4

    def test_idempotent_within_tolerance(self):
        y, X, q, z, _ = _crossed_instance(seed=9)
        out1, _ = deaverage(np.column_stack([y[:, None], X]), [q, z], iterations=20)
        out2, _ = deaverage(out1, [q, z], iterations=20)
        # the second run can only shave off group means the early stop left
        # behind, each below 1e-9
        assert np.max(np.abs(out2 - out1)) < 1e-8

    def test_early_stop_caps_iterations(self):
        rng = np.random.default_rng(17)
        v = rng.normal(size=(30, 1))
        keys = np.array(["g"] * 30, dtype=object)
        _, diag = deaverage(v, [keys], iterations=20)
        assert diag.iterations_run == 1

    def test_diagnostics_report_one_maximum_per_key(self):
        y, X, q, z, _ = _crossed_instance(seed=21, n=120)
        _, diag = deaverage(np.column_stack([y[:, None], X]), [q, z], iterations=20)
        assert len(diag.max_group_means) == 2

    def test_integer_group_keys_accepted(self):
        rng = np.random.default_rng(23)
        v = rng.normal(size=(50, 2))
        keys = rng.integers(0, 4, 50)
        out, _ = deaverage(v, [keys], iterations=5)
        assert _max_group_mean(out, keys) < 1e-9


def _estimate_shaped_block(seed: int, n: int = 3000):
    """C-ordered (n, 10) block like the estimator's stacked target, surrogate,
    short-term and history columns, with partly crossed `<U` keys."""
    rng = np.random.default_rng(seed)
    q = rng.integers(0, 40, n)
    z = np.where(rng.random(n) < 0.3, q % 25, rng.integers(0, 25, n))
    values = np.column_stack(
        [
            rng.normal(size=n) + 0.1 * q,
            rng.random((n, 3)) + 0.05 * z[:, None],
            50.0 * rng.normal(size=(n, 2)),
            rng.gamma(2.0, 3.0, (n, 4)),
        ]
    )
    return values, [np.array([f"q{v}" for v in q]), np.array([f"z{v}" for v in z])]


def _wide_code_point_keys(rng, n: int) -> np.ndarray:
    """`<U6` keys of random code points up to U+10FFFF, widths 1 to 6: the
    running integer code overflows its limit and is renumbered mid-key."""
    pool = ["".join(map(chr, rng.integers(1, 0x110000, rng.integers(1, 7)))) for _ in range(9)]
    return np.array(pool)[rng.integers(0, len(pool), n)]


#: `<U` keys of mixed width with non-ASCII code points, some sharing a prefix
_MIXED_KEYS = np.array(["q1", "q10", "é", "中文", "\U0001f600x", "q", "ü1", "中"])


def _cases():
    y, X, q, z, _ = _crossed_instance(seed=31)
    rng = np.random.default_rng(37)
    ints = rng.integers(0, 6, 90)
    block, block_keys = _estimate_shaped_block(41)
    return {
        "object_keys": (np.column_stack([y[:, None], X]), [q, z], 20),
        "unicode_keys": (
            np.column_stack([y[:, None], X]),
            [_MIXED_KEYS[rng.integers(0, len(_MIXED_KEYS), len(y))], q.astype(str)],
            20,
        ),
        "wide_code_points": (rng.normal(size=(90, 2)), [_wide_code_point_keys(rng, 90)], 20),
        "integer_keys": (rng.normal(size=(90, 3)), [ints, ints % 4 + 7 * (ints > 2)], 20),
        "single_key": (rng.normal(size=(90, 2)), [ints], 20),
        "one_dimensional": (y, [q, z], 20),
        "stopped_at_cap": (np.column_stack([y[:, None], X]), [q, z], 2),
        "estimate_shaped": (block, block_keys, 20),
    }


class TestAgainstRowMajorOracle:
    """Bit for bit against the cell-table loop, and within rounding of the
    row-major loop that demeans and checks every row."""

    @pytest.mark.parametrize("case", sorted(_cases()))
    def test_bitwise_equal_to_the_oracle(self, case):
        values, keys, iterations = _cases()[case]
        out, diag = deaverage(values, keys, iterations)
        ref, ref_maxima, ref_iterations = deaverage_cell_table(values, keys, iterations)
        assert out.shape == ref.shape and out.flags.c_contiguous
        assert out.tobytes() == ref.tobytes()
        assert diag.max_group_means == ref_maxima
        assert diag.iterations_run == ref_iterations
        assert diag.converged == (case != "stopped_at_cap")
        if case == "stopped_at_cap":
            assert diag.iterations_run == 2 and max(diag.max_group_means) > 1e-9

    @pytest.mark.parametrize("case", sorted(_cases()))
    def test_within_rounding_of_the_row_major_loop(self, case):
        # the cell table sums in another order than the rows do, so the bits
        # may differ; the passes run and the convergence verdict may not
        values, keys, iterations = _cases()[case]
        out, diag = deaverage(values, keys, iterations)
        ref, ref_maxima, ref_iterations = deaverage_row_major(values, keys, iterations)
        assert diag.iterations_run == ref_iterations
        assert diag.converged == (max(ref_maxima) < EARLY_STOP_TOL)
        scale = np.abs(values.reshape(len(values), -1)).max(axis=0)
        assert np.all(np.abs(out - ref) <= 1e-14 * scale)

    def test_rows_are_read_the_same_number_of_times_at_any_pass_count(self, monkeypatch):
        # the cell sums of the input and of the output are the only weighted
        # bincounts over the rows; the passes read the cell table
        values, keys = _estimate_shaped_block(43)
        n, width = values.shape
        bincount = np.bincount
        row_reads = []

        def counted(x, weights=None, minlength=0):
            if weights is not None and len(x) == n:
                row_reads[-1] += 1
            return bincount(x, weights=weights, minlength=minlength)

        monkeypatch.setattr(np, "bincount", counted)
        passes = []
        for iterations in (2, 20):
            row_reads.append(0)
            passes.append(deaverage(values, keys, iterations)[1].iterations_run)
        assert passes[0] == 2 < passes[1]
        assert row_reads[0] == row_reads[1] <= 3 * width

    def test_stop_on_the_cell_sums_can_leave_the_rows_unconverged(self):
        # 1e16 absorbs the 1.0 in the cell sum and the shift's 0.75 in the
        # output, so the cell sums' mean is 0 after one pass while the returned
        # rows' is 0.5625: the passes stop early and the check still fails
        values = np.array([[1e16], [1.0], [-1e16], [3.0]])
        keys = [np.array(["a"] * 4)]
        out, diag = deaverage(values, keys, 5)
        ref, ref_maxima, ref_iterations = deaverage_cell_table(values, keys, 5)
        assert out.tobytes() == ref.tobytes() and diag.max_group_means == ref_maxima
        assert diag.iterations_run == ref_iterations == 1
        assert diag.max_group_means == (0.5625,) and not diag.converged

    def test_object_and_unicode_keys_give_identical_bytes(self):
        # the cell order sets the bits, and both dtypes number groups in
        # sorted key order
        values, (q, z) = _estimate_shaped_block(47, n=600)
        mixed = _MIXED_KEYS[np.random.default_rng(47).integers(0, len(_MIXED_KEYS), len(q))]
        as_str, as_obj = [q, mixed, z], [k.astype(object) for k in (q, mixed, z)]
        out, diag = deaverage(values, as_str, 20)
        obj_out, obj_diag = deaverage(values, as_obj, 20)
        assert out.tobytes() == obj_out.tobytes() and diag == obj_diag


class TestDeaverageErrors:
    def test_iterations_below_one_rejected(self):
        with pytest.raises(DomainError):
            deaverage(np.ones((3, 1)), [np.array(["a", "a", "b"])], iterations=0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DomainError):
            deaverage(np.empty((0, 1)), [np.array([], dtype=object)], iterations=1)

    def test_key_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            deaverage(np.ones((3, 1)), [np.array(["a", "b"])], iterations=1)

    def test_missing_keys_rejected(self):
        with pytest.raises(DomainError):
            deaverage(np.ones((3, 1)), [], iterations=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected_naming_its_column(self, bad):
        # NaN used to "converge": max(0.0, nan) is 0.0, so the early stop fired
        v = np.ones((6, 3))
        v[4, 2] = bad
        keys = np.array(["a", "b"] * 3)
        with pytest.raises(DomainError, match="column 2 holds a non-finite value"):
            deaverage(v, [keys], iterations=5)
