import numpy as np
import pytest

from earc import tensorops as T
from earc.errors import DimensionOverflowError, ShapeError

from oracles import direct_sum, kron_power, unvec, vec


class TestKron:
    def test_identity_case(self):
        assert np.array_equal(T.kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_definition_1x2_times_2x1(self):
        out = T.kron(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        assert np.array_equal(out, np.array([[3.0, 6.0], [4.0, 8.0]]))

    def test_swap_blocks(self):
        g = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = T.kron(g, np.eye(2))
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[1, 3] = expected[2, 0] = expected[3, 1] = 1.0
        assert np.array_equal(out, expected)

    def test_dimension_cap(self):
        a = np.ones((2**16, 1))
        with pytest.raises(DimensionOverflowError):
            T.kron(a, a)

    def test_associativity(self):
        rng = np.random.default_rng(0)
        a, b, c = rng.standard_normal((2, 2)), rng.standard_normal((3, 3)), rng.standard_normal((2, 2))
        lhs = T.kron(T.kron(a, b), c)
        rhs = T.kron(a, T.kron(b, c))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_mixed_product(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 2))
        c = rng.standard_normal((3, 2))
        d = rng.standard_normal((2, 4))
        lhs = T.kron(a, b) @ T.kron(c, d)
        rhs = T.kron(a @ c, b @ d)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestKronPower:
    def test_definition(self):
        assert np.array_equal(kron_power(np.array([1.0, 2.0]), 2),
                              np.array([1.0, 2.0, 2.0, 4.0]))

    def test_basis_vector(self):
        out = kron_power(np.array([1.0, 0.0]), 3)
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.array_equal(out, expected)

    def test_outer_product_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(3)
        assert np.array_equal(kron_power(x, 2), np.outer(x, x).ravel())

    def test_power_one_is_identity(self):
        x = np.array([3.0, -1.0])
        assert np.array_equal(kron_power(x, 1), x)

    def test_invalid_power(self):
        with pytest.raises(ShapeError):
            kron_power(np.ones(2), 0)


class TestVecUnvec:
    def test_column_stacking(self):
        assert np.array_equal(vec(np.array([[1.0, 2.0], [3.0, 4.0]])),
                              np.array([1.0, 3.0, 2.0, 4.0]))

    def test_inverse(self):
        assert np.array_equal(unvec(np.array([1.0, 3.0, 2.0, 4.0]), 2),
                              np.array([[1.0, 2.0], [3.0, 4.0]]))

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (3, 2), (4, 4), (1, 7)])
    def test_round_trip(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        a = rng.standard_normal(shape)
        assert np.array_equal(unvec(vec(a), shape[0]), a)

    def test_vec_of_product_identity(self):
        rng = np.random.default_rng(3)
        a, x, b = (rng.standard_normal((2, 2)) for _ in range(3))
        lhs = vec(a @ x @ b)
        rhs = T.kron(b.T, a) @ vec(x)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_divisibility_error(self):
        with pytest.raises(ShapeError):
            unvec(np.ones(5), 2)


class TestDirectSum:
    def test_identities(self):
        assert np.array_equal(direct_sum([np.eye(2), np.eye(3)]), np.eye(5))

    def test_scalars(self):
        out = direct_sum([np.array([[2.0]]), np.array([[3.0]])])
        assert np.array_equal(out, np.array([[2.0, 0.0], [0.0, 3.0]]))

    def test_block_layout(self):
        g = np.array([[0.0, 1.0], [1.0, 0.0]])
        gg = T.kron(g, g)
        out = direct_sum([g, gg])
        assert out.shape == (6, 6)
        assert np.array_equal(out[:2, :2], g)
        assert np.array_equal(out[2:, 2:], gg)
        assert np.all(out[:2, 2:] == 0.0) and np.all(out[2:, :2] == 0.0)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            direct_sum([np.ones((2, 3))])


class TestNullSpace:
    @pytest.mark.parametrize("rel_tol", [0.0, -1e-10, np.nan, np.inf])
    def test_cutoff_must_be_finite_and_positive(self, rel_tol):
        with pytest.raises(ShapeError, match="null-space rel_tol"):
            T.null_space(np.eye(2), rel_tol)

    def test_full_rank_empty(self):
        assert T.null_space(np.eye(3), 1e-10).shape == (3, 0)

    def test_zero_matrix(self):
        out = T.null_space(np.zeros((3, 3)), 1e-10)
        assert out.shape == (3, 3)
        assert np.max(np.abs(out.T @ out - np.eye(3))) <= 1e-12

    def test_rank_one(self):
        out = T.null_space(np.array([[1.0, 1.0], [1.0, 1.0]]), 1e-10)
        assert out.shape == (2, 1)
        direction = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert abs(abs(out[:, 0] @ direction) - 1.0) <= 1e-12

    def test_wide_matrix(self):
        out = T.null_space(np.array([[1.0, 0.0, 0.0]]), 1e-10)
        assert out.shape == (3, 2)
        assert np.max(np.abs(out[0])) <= 1e-12

    def test_residual_bound(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 4)) @ rng.standard_normal((4, 8))
        rel_tol = 1e-10
        basis = T.null_space(a, rel_tol)
        assert basis.shape[1] >= 4
        smax = np.linalg.svd(a, compute_uv=False)[0]
        assert np.linalg.norm(a @ basis) <= 10 * rel_tol * smax * np.linalg.norm(basis)
        gram = basis.T @ basis
        assert np.max(np.abs(gram - np.eye(basis.shape[1]))) <= 1e-12


class TestLstsq:
    def test_identity(self):
        assert np.allclose(T.lstsq(np.eye(2), np.array([3.0, 4.0])), [3.0, 4.0])

    def test_mean(self):
        out = T.lstsq(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]))
        assert np.allclose(out, [2.0])

    def test_plant_and_recover(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((20, 5))
        x_true = rng.standard_normal(5)
        out = T.lstsq(a, a @ x_true)
        assert np.max(np.abs(out - x_true)) <= 1e-10

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((12, 4))
        b = rng.standard_normal(12)
        x = T.lstsq(a, b)
        u, s, _ = np.linalg.svd(a, full_matrices=False)
        kept = u[:, s > 1e-12 * s[0]]
        r = b - a @ x
        assert np.max(np.abs(kept.T @ r)) <= 1e-9 * np.linalg.norm(b)

    def test_omp_recovers_sparse_solution(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((30, 10))
        x_true = np.zeros(10)
        x_true[[1, 4, 8]] = [2.0, -1.5, 0.75]
        out = T.lstsq(a, a @ x_true, sparsify=3)
        assert np.count_nonzero(out) <= 3
        assert np.max(np.abs(out - x_true)) <= 1e-8

    def test_omp_budget_larger_than_support(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((15, 6))
        x_true = np.zeros(6)
        x_true[2] = 3.0
        out = T.lstsq(a, a @ x_true, sparsify=5)
        assert np.max(np.abs(out - x_true)) <= 1e-8

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.lstsq(np.eye(3), np.ones(2))
