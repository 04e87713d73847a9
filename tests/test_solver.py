import numpy as np
import pytest

from earc import solver, tensorops
from earc.embedding import build_data_matrices, compression_plan
from earc.errors import DimensionOverflowError, NoFeasibleModelError, ShapeError
from earc.groups import close_group, reduced_action
from earc.solver import (EquivariantBasis, assemble, constraint_matrix,
                         equivariance_residual, equivariant_basis,
                         fit_coefficients, generator_residuals, unconstrained_fit)
from earc.systems import builtin_rep, competition_generate, CompetitionConfig

TRIVIAL_2 = close_group([np.eye(2)])
SIGN_GROUP = close_group([-np.eye(2)])  # {I, -I} acting on the plane


@pytest.fixture(scope="module")
def z5_setup():
    rep = builtin_rep("z5")
    plan = compression_plan(5, 2)
    basis = equivariant_basis(rep, 1, plan)
    return rep, plan, basis


class TestEquivariantBasis:
    def test_trivial_group_spans_everything(self):
        plan = compression_plan(2, 1)
        basis = equivariant_basis(TRIVIAL_2, 1, plan)
        assert basis.size == 2 * 3  # n*lag x reduced_dim unknowns, no constraint

    def test_sign_group_kills_constant_column(self):
        # (-I) X = X diag(-1,-1,1) forces the constant column to zero,
        # leaving the 2x2 linear block free: dimension 4.
        plan = compression_plan(2, 1)
        basis = equivariant_basis(SIGN_GROUP, 1, plan)
        assert basis.size == 4
        for mat in basis.matrices:
            assert np.max(np.abs(mat[:, 2])) <= 1e-12

    def test_basis_vectors_orthonormal(self, z5_setup):
        _, _, basis = z5_setup
        flat = basis.matrices.reshape(basis.size, -1)
        gram = flat @ flat.T
        assert np.max(np.abs(gram - np.eye(basis.size))) <= 1e-10

    def test_generator_residuals_vanish(self, z5_setup):
        rep, plan, basis = z5_setup
        for mat in basis.matrices:
            scale = max(1.0, np.linalg.norm(mat))
            for g in rep.generators:
                ghat = reduced_action(g, 1, plan)
                assert np.linalg.norm(g @ mat - mat @ ghat) <= 1e-9 * scale

    def test_generators_suffice_for_whole_group(self, z5_setup):
        rep, plan, basis = z5_setup
        for mat in basis.matrices:
            scale = max(1.0, np.linalg.norm(mat))
            for g in rep.elements:
                ghat = reduced_action(g, 1, plan)
                assert np.linalg.norm(g @ mat - mat @ ghat) <= 1e-9 * scale

    def test_kernel_equals_summed_normal_form(self):
        # stacked-SVD kernel == ker(sum K^T K), compared as projectors
        plan = compression_plan(2, 1)
        ks = [constraint_matrix(g, 1, plan) for g in SIGN_GROUP.generators]
        stacked_kernel = tensorops.null_space(np.vstack(ks), 1e-10)
        p1 = stacked_kernel @ stacked_kernel.T
        normal = sum(k.T @ k for k in ks)
        eigvals, eigvecs = np.linalg.eigh(normal)
        kernel2 = eigvecs[:, eigvals <= 1e-10 * max(eigvals.max(), 1.0)]
        p2 = kernel2 @ kernel2.T
        assert np.max(np.abs(p1 - p2)) <= 1e-8

    def test_plan_group_mismatch(self):
        plan = compression_plan(4, 2)
        with pytest.raises(ShapeError):
            equivariant_basis(TRIVIAL_2, 1, plan)


class TestFitCoefficients:
    def test_planted_basis_element(self, z5_setup):
        _, _, basis = z5_setup
        rng = np.random.default_rng(20)
        h0r = rng.standard_normal((basis.reduced_dim, 10))
        h1 = basis.matrices[0] @ h0r
        fit = fit_coefficients(basis, h0r, h1)
        expected = np.zeros(basis.size)
        expected[0] = 1.0
        assert np.max(np.abs(fit.coefficients - expected)) <= 1e-10
        assert fit.train_residual <= 1e-10

    def test_interpolates_two_points(self):
        # trivial group, affine features: unique map through (1,2) and (2,3)
        rep = close_group([np.eye(1)])
        plan = compression_plan(1, 1)
        h0r, h1 = build_data_matrices(np.array([[1.0], [2.0], [3.0]]), 1, 1, plan)
        basis = equivariant_basis(rep, 1, plan)
        fit = fit_coefficients(basis, h0r, h1)
        w = assemble(basis, fit)
        assert np.allclose(w, [[1.0, 1.0]], atol=1e-12)
        assert fit.train_residual <= 1e-12

    def test_normal_equation_path_matches_direct(self, z5_setup, monkeypatch):
        _, _, basis = z5_setup
        rng = np.random.default_rng(21)
        h0r = rng.standard_normal((basis.reduced_dim, 12))
        h1 = rng.standard_normal((basis.state_dim, 12))
        direct = fit_coefficients(basis, h0r, h1)
        monkeypatch.setattr(solver, "NORMAL_EQ_THRESHOLD", 1)
        normal = fit_coefficients(basis, h0r, h1)
        w_direct = assemble(basis, direct)
        w_normal = assemble(basis, normal)
        assert np.max(np.abs(w_direct @ h0r - w_normal @ h0r)) <= 1e-8

    def test_sparsify_selects_planted_column(self, z5_setup):
        _, _, basis = z5_setup
        rng = np.random.default_rng(22)
        h0r = rng.standard_normal((basis.reduced_dim, 10))
        h1 = 2.5 * (basis.matrices[3] @ h0r)
        fit = fit_coefficients(basis, h0r, h1, sparsify=1)
        assert np.count_nonzero(fit.coefficients) == 1
        assert abs(fit.coefficients[3] - 2.5) <= 1e-9

    def test_empty_basis_rejected(self):
        empty = EquivariantBasis(state_dim=2, reduced_dim=3,
                                 matrices=np.zeros((0, 2, 3)))
        with pytest.raises(NoFeasibleModelError):
            fit_coefficients(empty, np.ones((3, 1)), np.ones((2, 1)))

    def test_memory_cap(self, z5_setup, monkeypatch):
        _, _, basis = z5_setup
        monkeypatch.setattr(solver, "NORMAL_EQ_THRESHOLD", 0)
        with pytest.raises(DimensionOverflowError):
            fit_coefficients(basis, np.ones((basis.reduced_dim, 4)),
                             np.ones((basis.state_dim, 4)), entry_cap=16)

    def test_shape_checks(self, z5_setup):
        _, _, basis = z5_setup
        with pytest.raises(ShapeError):
            fit_coefficients(basis, np.ones((4, 3)), np.ones((5, 3)))


class TestAssemble:
    def test_unit_coefficient(self, z5_setup):
        _, _, basis = z5_setup
        fit = fit_coefficients(basis, np.eye(basis.reduced_dim),
                               basis.matrices[0])
        assert np.max(np.abs(assemble(basis, fit) - basis.matrices[0])) <= 1e-10

    def test_zero_and_linearity(self, z5_setup):
        _, _, basis = z5_setup
        rng = np.random.default_rng(23)
        c1 = rng.standard_normal(basis.size)
        c2 = rng.standard_normal(basis.size)
        combine = lambda c: np.tensordot(c, basis.matrices, axes=1)
        assert np.array_equal(combine(np.zeros(basis.size)), np.zeros((5, 21)))
        assert np.allclose(combine(c1) + combine(c2), combine(c1 + c2), atol=1e-12)


class TestEquivarianceResidual:
    def test_basis_span_is_equivariant(self, z5_setup):
        rep, plan, basis = z5_setup
        rng = np.random.default_rng(24)
        w = np.tensordot(rng.standard_normal(basis.size), basis.matrices, axes=1)
        assert equivariance_residual(w, rep, 1, plan) <= 1e-10

    def test_random_matrix_is_not(self, z5_setup):
        rep, plan, _ = z5_setup
        rng = np.random.default_rng(25)
        w = rng.standard_normal((5, plan.reduced_dim))
        assert equivariance_residual(w, rep, 1, plan) > 1e-3

    def test_trivial_group_residual_is_zero(self):
        plan = compression_plan(2, 1)
        w = np.random.default_rng(26).standard_normal((2, 3))
        assert equivariance_residual(w, TRIVIAL_2, 1, plan) == 0.0

    def test_generator_residuals_reported_per_generator(self, z5_setup):
        rep, plan, basis = z5_setup
        out = generator_residuals(basis.matrices[0], rep, 1, plan)
        assert len(out) == len(rep.generators)
        assert all(r <= 1e-9 for r in out)


class TestUnconstrainedFit:
    def test_recovers_full_row_rank_map(self):
        rng = np.random.default_rng(27)
        h0r = rng.standard_normal((4, 12))
        a = rng.standard_normal((3, 4))
        w = unconstrained_fit(h0r, a @ h0r)
        assert np.max(np.abs(w - a)) <= 1e-10

    def test_single_column_min_norm(self):
        w = unconstrained_fit(np.array([[1.0], [1.0]]), np.array([[2.0]]))
        assert np.allclose(w, [[1.0, 1.0]], atol=1e-12)

    def test_matches_equivariant_fit_for_trivial_group(self):
        rng = np.random.default_rng(28)
        a = np.array([[0.9, 0.1], [-0.1, 0.8]])
        series = np.empty((20, 2))
        series[0] = [1.0, 0.5]
        for t in range(19):
            series[t + 1] = a @ series[t]
        plan = compression_plan(2, 1)
        h0r, h1 = build_data_matrices(series, 1, 1, plan)
        basis = equivariant_basis(TRIVIAL_2, 1, plan)
        fit = fit_coefficients(basis, h0r, h1)
        w_equi = assemble(basis, fit)
        w_plain = unconstrained_fit(h0r, h1)
        pred_gap = np.linalg.norm(w_equi @ h0r - w_plain @ h0r)
        assert pred_gap <= 1e-8 * max(1.0, np.linalg.norm(h1))


class TestPredictorEquivariance:
    def test_assembled_map_commutes_with_group(self, z5_setup):
        rep, plan, basis = z5_setup
        series = competition_generate(CompetitionConfig(steps=40))
        h0r, h1 = build_data_matrices(series, 1, 2, plan)
        w = assemble(basis, fit_coefficients(basis, h0r, h1))
        rng = np.random.default_rng(29)
        from earc.embedding import compressed_features
        for _ in range(20):
            x = rng.standard_normal(5)
            tx = w @ compressed_features(plan, x[None, :])[0]
            for g in rep.elements:
                tgx = w @ compressed_features(plan, (g @ x)[None, :])[0]
                gap = np.linalg.norm(tgx - g @ tx)
                assert gap <= 1e-9 * (1.0 + np.linalg.norm(tx))
