import math

import numpy as np
import pytest

from earc import tensorops
from earc.embedding import (as_series, build_data_matrices, compress,
                            compressed_features, compression_plan, delay_windows,
                            embed, embed_dim, expand)
from earc.errors import InsufficientDataError, ShapeError, ValidationError
from earc.groups import lifted_action, reduced_action, window_action
from earc.systems import builtin_rep

from oracles import monomial_features_by_column


class TestEmbedDim:
    @pytest.mark.parametrize("n,p,expected", [(2, 2, 7), (10, 3, 1111), (5, 2, 31)])
    def test_known_values(self, n, p, expected):
        assert embed_dim(n, p) == expected

    def test_degenerate_single_channel(self):
        assert embed_dim(1, 4) == 5

    def test_matches_geometric_sum(self):
        for n in range(2, 6):
            for p in range(1, 5):
                assert embed_dim(n, p) == sum(n ** k for k in range(1, p + 1)) + 1


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
            expected = np.concatenate([tensorops.kron_power(x, k) for k in (1, 2, 3)]
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

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            as_series(np.array([[1.0], [np.nan]]))


class TestCompressionPlan:
    def test_two_vars_order_two(self):
        plan = compression_plan(2, 2)
        assert plan.full_dim == 7
        assert plan.reduced_dim == 6
        # degree-2 block occupies full coordinates 2..5; the mixed monomial
        # appears twice (1-2 and 2-1) and shares a class
        assert list(plan.class_of[2:6]) == [2, 3, 3, 4]
        assert list(plan.rep_index) == [0, 1, 2, 3, 5, 6]

    @pytest.mark.parametrize("m,p,q", [(5, 2, 21), (10, 3, 286)])
    def test_reduced_dims(self, m, p, q):
        assert compression_plan(m, p).reduced_dim == q

    def test_reduced_dim_formula_sweep(self):
        for m in range(1, 7):
            for p in range(1, 7):
                if embed_dim(m, p) > 10**5:
                    continue
                plan = compression_plan(m, p)
                expected = sum(math.comb(m + k - 1, k) for k in range(1, p + 1)) + 1
                assert plan.reduced_dim == expected

    def test_selection_times_expansion_is_identity(self):
        for m, p in [(2, 2), (3, 3), (5, 2)]:
            plan = compression_plan(m, p)
            prod = plan.selection_matrix() @ plan.expansion_matrix()
            assert np.array_equal(prod, np.eye(plan.reduced_dim))

    def test_class_tuples_are_sorted_and_consistent(self):
        plan = compression_plan(3, 3)
        for c in range(plan.reduced_dim - 1):
            tup = plan.class_tuple(c)
            assert tup == tuple(sorted(tup))
            assert len(tup) == plan.degree[c]
        assert plan.class_tuple(plan.reduced_dim - 1) == ()


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
        expected = monomial_features_by_column(windows, plan.lead, plan.parent)
        assert np.array_equal(compressed_features(plan, windows), expected)


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
            ghat = reduced_action(g, lag, plan)
            h = window_action(g, lag)
            for _ in range(5):
                x = rng.standard_normal(rep.n * lag)
                lhs = compress(plan, embed(h @ x, order))
                rhs = ghat @ compress(plan, embed(x, order))
                assert np.max(np.abs(lhs - rhs)) <= 1e-12
