import math
import re

import numpy as np
import pytest

from earc import tensorops
from earc.embedding import (as_series, build_data_matrices, compressed_features,
                            compression_plan, delay_windows, embed_dim)
from earc.errors import (DimensionOverflowError, InsufficientDataError, ShapeError,
                         ValidationError)
from earc.groups import window_action
from earc.systems import builtin_rep

from oracles import (assembled_action, class_of, class_tuple, compress,
                     compression_plan_by_enumeration, compression_plan_by_tuples, embed, expand,
                     expansion_matrix, full_dim,
                     insert_tables_by_passes, kron_power, lifted_action,
                     monomial_features_by_column, plan_chains, selection_matrix)


ENUMERATED_DIM = 2 * 10**5
"""Largest full embedding that ``compression_plan_by_enumeration`` lists in a test."""

ORACLE_SIZES = sorted({(m, p) for m in range(1, 9) for p in range(1, 6)
                       if embed_dim(m, p) <= ENUMERATED_DIM}
                      | {(5, 2), (6, 3), (10, 3), (10, 4), (14, 4)})

DEEP_SIZES = [(1, 1), (1, 250), (2, 20), (3, 12), (6, 6), (20, 4)]
"""Plans past ``ORACLE_SIZES``: one variable to a high order, and deep degrees."""


def assert_same_tables(plan, oracle):
    """Every table of ``plan`` is bitwise ``oracle``'s, of the same dtype."""
    assert plan.reduced_dim == oracle.reduced_dim
    got, want = plan.rep_index, oracle.rep_index
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert len(plan.blocks) == len(oracle.blocks) == plan.order
    for got, want in zip(plan.blocks, oracle.blocks):
        assert got[:2] == want[:2]
        for i in (2, 3):  # lead, parent
            assert got[i].dtype == want[i].dtype and np.array_equal(got[i], want[i])
        assert (got[4] is None) == (want[4] is None)
        if got[4] is not None:
            assert got[4].dtype == want[4].dtype == np.int64
            assert np.array_equal(got[4], want[4])


class TestEmbedDim:
    @pytest.mark.parametrize("n,p,expected", [(2, 2, 7), (10, 3, 1111), (5, 2, 31)])
    def test_known_values(self, n, p, expected):
        assert embed_dim(n, p) == expected

    def test_degenerate_single_channel(self):
        assert embed_dim(1, 4) == 5

    def test_empty_input_refused(self):
        with pytest.raises(ShapeError, match=re.escape("need n >= 1 and p >= 1, got n=0, p=3")):
            embed_dim(0, 3)

    def test_matches_geometric_sum(self):
        for n in range(2, 6):
            for p in range(1, 5):
                assert embed_dim(n, p) == sum(n ** k for k in range(1, p + 1)) + 1

    def test_largest_dimensions_under_the_cap(self):
        # 2 + 4 + ... + 2^27 + 1 = 2^28 - 1; a single channel has p + 1
        assert embed_dim(2, 27) == tensorops.ENTRY_CAP - 1
        assert embed_dim(1, tensorops.ENTRY_CAP - 1) == tensorops.ENTRY_CAP
        for n, p in ((2, 28), (1, tensorops.ENTRY_CAP)):
            with pytest.raises(DimensionOverflowError):
                embed_dim(n, p)

    @pytest.mark.parametrize("n,p", [(5, 10**6), (5, 10**8), (2, 10**18)])
    def test_huge_order_refused_without_forming_the_power(self, n, p):
        # n^(p+1) has more than 4300 digits, which str() refuses, or takes minutes
        with pytest.raises(DimensionOverflowError, match=f"cap of {tensorops.ENTRY_CAP}"):
            embed_dim(n, p)


class TestEmbed:
    def test_order_two(self):
        out = embed(np.array([1.0, 2.0]), 2)
        assert np.array_equal(out, [1.0, 2.0, 1.0, 2.0, 2.0, 4.0, 1.0])

    def test_zero_input_keeps_constant(self):
        out = embed(np.zeros(2), 2)
        assert np.array_equal(out, [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0])

    def test_kron_power_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            x = rng.standard_normal(2)
            expected = np.concatenate([kron_power(x, k) for k in (1, 2, 3)]
                                      + [np.ones(1)])
            assert np.allclose(embed(x, 3), expected, rtol=1e-12, atol=1e-14)


class TestDelayWindows:
    def test_single_channel(self):
        out = delay_windows(np.array([[1.0], [2.0], [3.0]]), 2)
        assert np.array_equal(out, [[1.0, 2.0], [2.0, 3.0]])

    def test_channel_major_blocks(self):
        series = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        out = delay_windows(series, 2)
        assert np.array_equal(out, [[1.0, 2.0, 10.0, 20.0], [2.0, 3.0, 20.0, 30.0]])

    def test_lag_one_is_identity(self):
        series = np.array([[1.0, 4.0], [2.0, 5.0]])
        assert np.array_equal(delay_windows(series, 1), series)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            delay_windows(np.ones((2, 1)), 3)

    def test_lag_below_one(self):
        with pytest.raises(ShapeError, match="lag must be >= 1, got 0"):
            delay_windows(np.ones((3, 1)), 0)

    def test_one_dimensional_series_is_one_channel(self):
        out = as_series([1.0, 2.0, 3.0])
        assert out.shape == (3, 1) and np.array_equal(out[:, 0], [1.0, 2.0, 3.0])

    def test_three_dimensional_series_rejected(self):
        with pytest.raises(ShapeError, match=re.escape("series must be (T, n), got shape (2, 2, 2)")):
            as_series(np.ones((2, 2, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            as_series(np.array([[1.0], [np.nan]]))


class TestCompressionPlan:
    def test_two_vars_order_two(self):
        plan = compression_plan(2, 2)
        assert full_dim(plan) == 7
        assert plan.reduced_dim == 6
        # degree-2 block occupies full coordinates 2..5; the mixed monomial
        # appears twice (1-2 and 2-1) and shares a class
        assert list(class_of(plan)[2:6]) == [2, 3, 3, 4]
        assert list(plan.rep_index) == [0, 1, 2, 3, 5, 6]

    @pytest.mark.parametrize("m,p,q", [(5, 2, 21), (10, 3, 286)])
    def test_reduced_dims(self, m, p, q):
        assert compression_plan(m, p).reduced_dim == q

    def test_empty_window_refused(self):
        with pytest.raises(ShapeError, match="need dim_in >= 1 and order >= 1, got 0, 3"):
            compression_plan(0, 3)

    def test_reduced_dim_formula_sweep(self):
        for m in range(1, 7):
            for p in range(1, 7):
                if embed_dim(m, p) > 10**5:
                    continue
                plan = compression_plan(m, p)
                expected = sum(math.comb(m + k - 1, k) for k in range(1, p + 1)) + 1
                assert plan.reduced_dim == expected

    @pytest.mark.parametrize("m,p", [(1, 1), (2, 3), (4, 1), (5, 2), (10, 3)])
    def test_degree_one_classes_are_the_window(self, m, p):
        # the rollout keeps its window as the degree-1 block of the features
        plan = compression_plan(m, p)
        assert plan.blocks[0][:2] == (0, m)
        assert np.array_equal(plan.blocks[0][2], np.arange(m))
        assert np.array_equal(plan.blocks[0][3], np.full(m, plan.reduced_dim - 1))

    def test_selection_times_expansion_is_identity(self):
        for m, p in [(2, 2), (3, 3), (5, 2)]:
            plan = compression_plan(m, p)
            prod = selection_matrix(plan) @ expansion_matrix(plan)
            assert np.array_equal(prod, np.eye(plan.reduced_dim))

    @pytest.mark.parametrize("m,p", sorted(set(ORACLE_SIZES) | set(DEEP_SIZES)))
    def test_matches_enumeration_oracle(self, m, p):
        plan = compression_plan(m, p)
        by_tuples = compression_plan_by_tuples(m, p)
        assert_same_tables(plan, by_tuples)
        if embed_dim(m, p) > ENUMERATED_DIM:
            return
        oracle = compression_plan_by_enumeration(m, p)
        assert plan.reduced_dim == oracle.reduced_dim
        assert np.array_equal(plan.rep_index, oracle.rep_index)
        lead, parent = plan_chains(plan)
        assert np.array_equal(lead, oracle.lead) and np.array_equal(parent, oracle.parent)
        for k in range(1, p + 1):
            lo, hi = plan.blocks[k - 1][:2]
            assert np.array_equal(np.arange(lo, hi), np.flatnonzero(oracle.degree == k))
            assert np.array_equal(by_tuples.tuples[k - 1],
                                  [class_tuple(oracle, c) for c in range(lo, hi)])
        assert len(plan.blocks) == len(oracle.blocks) == p
        inserts = insert_tables_by_passes(plan)
        for got, want, insert in zip(plan.blocks[1:], oracle.blocks[1:], inserts):
            assert got[:2] == want[:2]
            assert np.array_equal(got[2], want[2]) and np.array_equal(got[3], want[3])
            assert np.array_equal(got[4], insert)

    @pytest.mark.parametrize("seed", range(8))
    def test_insert_tables_match_the_passes_on_random_plans(self, seed):
        # the tables are built from the degree below, without a tuple
        rng = np.random.default_rng(seed)
        m, p = (12, 4) if seed == 0 else (int(rng.integers(1, 13)), int(rng.integers(2, 5)))
        plan = compression_plan(m, p)
        assert_same_tables(plan, compression_plan_by_tuples(m, p))
        inserts = insert_tables_by_passes(plan)
        assert len(plan.blocks) == len(inserts) + 1 == p
        for table, insert in zip(plan.blocks[1:], inserts):
            assert table[4].dtype == np.int64 and np.array_equal(table[4], insert)

    @pytest.mark.parametrize("m,p", [(1, 1), (1, 4), (3, 1), (3, 3), (10, 3)])
    def test_every_array_is_read_only(self, m, p):
        # the plan is shared by every call on one model: none may alter it
        plan = compression_plan(m, p)
        assert len(plan.blocks) == p and plan.blocks[0][4] is None
        arrays = [plan.rep_index]
        for k, (lo, hi, lead, parent, insert) in enumerate(plan.blocks, 1):
            assert lead.shape == parent.shape == (hi - lo,)
            arrays += [lead, parent] + ([insert] if k > 1 else [])
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 0

    @pytest.mark.parametrize("m,p", [(3, 20), (2, 31)])
    def test_overflowing_full_embedding_refused(self, m, p):
        # the plans themselves would have only 1771 and 528 features
        with pytest.raises(DimensionOverflowError):
            compression_plan(m, p)

    @pytest.mark.parametrize("p", [60000, 65535, 65536, 10**5, 10**8])
    def test_single_variable_tuple_table_refused(self, p):
        # the monomials' p(p + 1)/2 variable factors pass the cap from
        # p = 23170 on, although the embedding has only p + 1 entries
        with pytest.raises(DimensionOverflowError, match="table more than the cap"):
            compression_plan(1, p)

    @pytest.mark.parametrize("m,p", [(1, 10), (3, 3), (4, 2)])
    def test_tuple_entries_at_and_past_the_cap(self, monkeypatch, m, p):
        entries = sum(k * math.comb(m + k - 1, k) for k in range(1, p + 1))
        monkeypatch.setattr(tensorops, "ENTRY_CAP", entries)
        compression_plan(m, p)
        assert sum(t.size for t in compression_plan_by_tuples(m, p).tuples) == entries
        monkeypatch.setattr(tensorops, "ENTRY_CAP", entries - 1)
        with pytest.raises(DimensionOverflowError, match="table more than the cap"):
            compression_plan(m, p)

    def test_each_call_checks_the_cap(self, monkeypatch):
        # a plan built once is not handed out again past a lowered cap
        compression_plan(3, 3)
        monkeypatch.setattr(tensorops, "ENTRY_CAP", 3 + 2 * 6 + 3 * 10 - 1)
        with pytest.raises(DimensionOverflowError, match="table more than the cap"):
            compression_plan(3, 3)

    def test_class_tuples_are_sorted_and_consistent(self):
        plan = compression_plan(3, 3)
        for c in range(plan.reduced_dim - 1):
            tup = class_tuple(plan, c)
            assert tup == tuple(sorted(tup))
            assert len(tup) == compression_plan_by_enumeration(3, 3).degree[c]
        assert class_tuple(plan, plan.reduced_dim - 1) == ()


class TestCompressExpand:
    def test_compress_drops_duplicate(self):
        plan = compression_plan(2, 2)
        out = compress(plan, embed(np.array([1.0, 2.0]), 2))
        assert np.array_equal(out, [1.0, 2.0, 1.0, 2.0, 4.0, 1.0])

    def test_expand_restores_duplicate(self):
        plan = compression_plan(2, 2)
        out = expand(plan, np.array([1.0, 2.0, 1.0, 2.0, 4.0, 1.0]))
        assert np.array_equal(out, [1.0, 2.0, 1.0, 2.0, 2.0, 4.0, 1.0])

    def test_round_trip_exact(self):
        plan = compression_plan(4, 3)
        rng = np.random.default_rng(11)
        for _ in range(100):
            full = embed(rng.standard_normal(4), 3)
            assert np.array_equal(expand(plan, compress(plan, full)), full)

    def test_dim_mismatch(self):
        plan = compression_plan(2, 2)
        with pytest.raises(ShapeError):
            compress(plan, np.ones(5))
        with pytest.raises(ShapeError):
            expand(plan, np.ones(5))


class TestCompressedFeatures:
    def test_matches_compress_of_embed(self):
        plan = compression_plan(6, 3)
        rng = np.random.default_rng(12)
        windows = rng.standard_normal((20, 6))
        feats = compressed_features(plan, windows)
        for i in range(20):
            assert np.array_equal(feats[i], compress(plan, embed(windows[i], 3)))

    @pytest.mark.parametrize("m,p", [(1, 1), (1, 3), (5, 2), (6, 3), (10, 3)])
    def test_matches_column_loop_oracle(self, m, p):
        plan = compression_plan(m, p)
        rng = np.random.default_rng(13)
        windows = rng.standard_normal((300, m))  # several row blocks at (10, 3)
        expected = monomial_features_by_column(windows, plan)
        assert np.array_equal(compressed_features(plan, windows), expected)

    def test_windows_of_another_width_rejected(self):
        with pytest.raises(ShapeError, match=re.escape("windows must be (rows, 6), got (4, 5)")):
            compressed_features(compression_plan(6, 3), np.ones((4, 5)))


class TestBuildDataMatrices:
    def test_affine_features(self):
        series = np.array([[1.0], [2.0], [3.0]])
        plan = compression_plan(1, 1)
        h0r, h1 = build_data_matrices(series, 1, 1, plan)
        assert np.array_equal(h0r, [[1.0, 2.0], [1.0, 1.0]])
        assert np.array_equal(h1, [[2.0, 3.0]])

    @pytest.mark.parametrize("t,lag", [(10, 1), (10, 3), (50, 7)])
    def test_column_counts(self, t, lag):
        rng = np.random.default_rng(t * lag)
        series = rng.standard_normal((t, 2))
        plan = compression_plan(2 * lag, 2)
        h0r, h1 = build_data_matrices(series, lag, 2, plan)
        assert h0r.shape[1] == t - lag
        assert h1.shape == (2 * lag, t - lag)

    def test_competition_configuration_shapes(self):
        rng = np.random.default_rng(14)
        series = rng.uniform(0.1, 0.9, (31, 5))
        plan = compression_plan(5, 2)
        h0r, h1 = build_data_matrices(series, 1, 2, plan)
        assert h0r.shape == (21, 30)
        assert h1.shape == (5, 30)

    def test_insufficient_data(self):
        plan = compression_plan(2, 1)
        with pytest.raises(InsufficientDataError):
            build_data_matrices(np.ones((2, 1)), 2, 1, plan)

    def test_plan_of_another_order_rejected(self):
        message = "plan is for dim_in=2, order=1; series needs dim_in=2, order=2"
        with pytest.raises(ShapeError, match=re.escape(message)):
            build_data_matrices(np.ones((10, 1)), 2, 2, compression_plan(2, 1))


class TestEmbeddedEquivariance:
    """Embedding commutes with the lifted and reduced group actions."""

    @pytest.mark.parametrize("name,lag,order", [("k4", 5, 3), ("z5", 1, 2)])
    def test_full_coordinates(self, name, lag, order):
        rep = builtin_rep(name)
        rng = np.random.default_rng(15)
        for g in rep.elements:
            lifted = lifted_action(g, lag, order)
            h = window_action(g, lag)
            for _ in range(5):
                x = rng.standard_normal(rep.n * lag)
                diff = embed(h @ x, order) - lifted @ embed(x, order)
                assert np.max(np.abs(diff)) <= 1e-12

    @pytest.mark.parametrize("name,lag,order", [("k4", 5, 3), ("z5", 1, 2)])
    def test_reduced_coordinates(self, name, lag, order):
        rep = builtin_rep(name)
        plan = compression_plan(rep.n * lag, order)
        rng = np.random.default_rng(16)
        for g in rep.elements:
            ghat = assembled_action(g, lag, plan)
            h = window_action(g, lag)
            for _ in range(5):
                x = rng.standard_normal(rep.n * lag)
                lhs = compress(plan, embed(h @ x, order))
                rhs = ghat @ compress(plan, embed(x, order))
                assert np.max(np.abs(lhs - rhs)) <= 1e-12
