import numpy as np
import pytest

from earc import solver, tensorops
from earc.embedding import build_data_matrices, compression_plan, delay_windows
from earc.errors import (DimensionOverflowError, NoFeasibleModelError, NumericalError,
                         ShapeError)
from earc.groups import close_group, reduced_action
from earc.solver import (EquivariantBasis, assemble, constraint_matrix,
                         equivariance_residual, equivariant_basis,
                         fit_coefficients, generator_residuals)
from earc.model import rollout, train
from earc.systems import (CompetitionConfig, HamiltonianConfig, builtin_rep,
                          competition_generate, hamiltonian_generate)
from tests.test_model import manual_model

from oracles import (dense_fit, dense_matrices, svd_rank, unconstrained_fit,
                     unreduced_fit, window_equivariant_basis)

TRIVIAL_2 = close_group([np.eye(2)])
SIGN_GROUP = close_group([-np.eye(2)])  # {I, -I} acting on the plane
C3 = close_group([[[-0.5, -np.sqrt(0.75)], [np.sqrt(0.75), -0.5]]])
"""Rotations by multiples of 120 degrees: a group that is not a signed permutation."""


def _design(basis, h0r):
    mapped = np.einsum("jab,bc->jac", dense_matrices(basis), h0r)
    return mapped.transpose(0, 2, 1).reshape(basis.size, -1).T


def _slot_design(basis, h0r):
    """A = [vec(K_j @ h0r)] over the one-slot matrices K_j."""
    mapped = np.einsum("jab,bc->jac", basis.slot_matrices, h0r)
    return mapped.transpose(0, 2, 1).reshape(mapped.shape[0], -1).T


def _k4_setup(ham_series, lag):
    rep = builtin_rep("k4")
    plan = compression_plan(2 * lag, 3)
    h0r, h1 = build_data_matrices(ham_series[:90], lag, 3, plan)
    return rep, equivariant_basis(rep, lag, plan), h0r, h1


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
        for mat in dense_matrices(basis):
            assert np.max(np.abs(mat[:, 2])) <= 1e-12

    def test_basis_vectors_orthonormal(self, z5_setup):
        _, _, basis = z5_setup
        flat = dense_matrices(basis).reshape(basis.size, -1)
        gram = flat @ flat.T
        assert np.max(np.abs(gram - np.eye(basis.size))) <= 1e-10

    def test_generator_residuals_vanish(self, z5_setup):
        rep, plan, basis = z5_setup
        for mat in dense_matrices(basis):
            scale = max(1.0, np.linalg.norm(mat))
            for g in rep.generators:
                ghat = reduced_action(g, 1, plan)
                assert np.linalg.norm(g @ mat - mat @ ghat) <= 1e-9 * scale

    def test_generators_suffice_for_whole_group(self, z5_setup):
        rep, plan, basis = z5_setup
        for mat in dense_matrices(basis):
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

    @pytest.mark.parametrize("name,lag,order,size", [
        ("k4", 2, 3, 48), ("k4", 3, 3, 186), ("k4", 4, 3, 512), ("z5", 2, 2, 132),
        ("c3", 2, 2, 20)])
    def test_matches_whole_window_oracle(self, name, lag, order, size):
        rep = C3 if name == "c3" else builtin_rep(name)
        plan = compression_plan(rep.n * lag, order)
        basis = equivariant_basis(rep, lag, plan)
        oracle = window_equivariant_basis(rep, lag, plan)
        assert basis.size == oracle.shape[0] == size
        flat = dense_matrices(basis).reshape(basis.size, -1)
        assert np.max(np.abs(flat @ flat.T - np.eye(basis.size))) <= 1e-12
        oflat = oracle.reshape(oracle.shape[0], -1)
        assert np.max(np.abs(flat.T @ flat - oflat.T @ oflat)) <= 1e-12

    def test_k4_paper_constraint_has_one_slot_of_unknowns(self):
        rep = builtin_rep("k4")
        plan = compression_plan(10, 3)
        for g in rep.generators:
            assert constraint_matrix(g, 5, plan).shape == (572, 572)
        assert equivariant_basis(rep, 5, plan).size == 1150

    @pytest.mark.parametrize("lag", [3, 4])
    def test_k4_forecast_matches_whole_window_oracle(self, ham_series, lag):
        rep = builtin_rep("k4")
        plan = compression_plan(2 * lag, 3)
        h0r, h1 = build_data_matrices(ham_series[:90], lag, 3, plan)
        seed = delay_windows(ham_series[:90], lag)[-1]
        basis = equivariant_basis(rep, lag, plan)
        oracle = window_equivariant_basis(rep, lag, plan)
        rmse = []
        for coupling in (assemble(basis, fit_coefficients(basis, h0r, h1)),
                         np.tensordot(dense_fit(oracle, h0r, h1)[0], oracle, axes=1)):
            fc = rollout(manual_model(coupling, rep, lag, 3), seed, 100)
            rmse.append(np.sqrt(np.mean((fc.values - ham_series[90:190]) ** 2)))
        assert abs(rmse[0] / rmse[1] - 1.0) <= 0.01


class TestFitCoefficients:
    def test_planted_basis_element(self, z5_setup):
        _, _, basis = z5_setup
        rng = np.random.default_rng(20)
        h0r = rng.standard_normal((basis.reduced_dim, 10))
        h1 = dense_matrices(basis)[0] @ h0r
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

    def test_sparsify_selects_planted_column(self, z5_setup):
        _, _, basis = z5_setup
        rng = np.random.default_rng(22)
        h0r = rng.standard_normal((basis.reduced_dim, 10))
        h1 = 2.5 * (dense_matrices(basis)[3] @ h0r)
        fit = fit_coefficients(basis, h0r, h1, sparsify=1)
        assert np.count_nonzero(fit.coefficients) == 1
        assert abs(fit.coefficients[3] - 2.5) <= 1e-9

    def test_rank_of_z5_model_matches_separate_svd(self):
        series = competition_generate(CompetitionConfig(steps=425))[:31]
        m = train(series, builtin_rep("z5"), 1, 2)
        basis = equivariant_basis(m.group, 1, m.plan)
        h0r, _ = build_data_matrices(series, 1, 2, m.plan)
        assert m.fit.rank == svd_rank(_design(basis, h0r), m.fit.rel_tol)

    def test_rank_of_k4_model_matches_separate_svd(self, k4_model, ham_series):
        m, _ = k4_model
        basis = equivariant_basis(m.group, 5, m.plan)
        h0r, _ = build_data_matrices(ham_series[:90], 5, 3, m.plan)
        assert m.fit.rank == svd_rank(_design(basis, h0r), m.fit.rel_tol)

    def test_sparsify_rank_is_nonzero_count_on_both_paths(self, z5_setup):
        # 10 columns are fitted directly, 60 >= 2 (q + n*lag) on the R factor
        _, _, basis = z5_setup
        rng = np.random.default_rng(32)
        for cols in (10, 60):
            h0r = rng.standard_normal((basis.reduced_dim, cols))
            h1 = 2.5 * (dense_matrices(basis)[3] @ h0r)
            fit = fit_coefficients(basis, h0r, h1, sparsify=2)
            assert fit.rank == np.count_nonzero(fit.coefficients) == 1

    def test_empty_basis_rejected(self):
        empty = EquivariantBasis(state_dim=2, reduced_dim=3, lag=1,
                                 slot_matrices=np.zeros((0, 2, 3)))
        with pytest.raises(NoFeasibleModelError):
            fit_coefficients(empty, np.ones((3, 1)), np.ones((2, 1)))

    def test_memory_cap(self, z5_setup, monkeypatch):
        _, _, basis = z5_setup
        monkeypatch.setattr(tensorops, "ENTRY_CAP", 16)
        with pytest.raises(DimensionOverflowError):
            fit_coefficients(basis, np.ones((basis.reduced_dim, 4)),
                             np.ones((basis.state_dim, 4)))

    def test_shape_checks(self, z5_setup):
        _, _, basis = z5_setup
        with pytest.raises(ShapeError):
            fit_coefficients(basis, np.ones((4, 3)), np.ones((5, 3)))

    @pytest.mark.parametrize("sparsify", [None, 2])
    @pytest.mark.parametrize("rel_tol", [-1e-12, np.nan, np.inf])
    def test_cutoff_must_be_finite_and_non_negative(self, z5_setup, rel_tol, sparsify):
        _, _, basis = z5_setup
        h0r = np.ones((basis.reduced_dim, 4))
        with pytest.raises(ShapeError, match="least-squares rel_tol"):
            fit_coefficients(basis, h0r, np.ones((basis.state_dim, 4)), rel_tol, sparsify)



class TestSlotFactoredFit:
    """The fit over A = [vec(K_j @ h0r)] against the dense fit over the whole
    (n*lag*T, k*lag) design built from the dense basis stack."""

    @pytest.mark.parametrize("lag", [2, 3, 4, 5])
    def test_k4_matches_dense_fit(self, ham_series, lag):
        rep, basis, h0r, h1 = _k4_setup(ham_series, lag)
        dense = dense_matrices(basis)
        fit = fit_coefficients(basis, h0r, h1)
        coeffs, rank = dense_fit(dense, h0r, h1)
        assert fit.rank == rank
        seed = delay_windows(ham_series[:90], lag)[-1]
        rmse = []
        for coupling in (assemble(basis, fit), np.tensordot(coeffs, dense, axes=1)):
            fc = rollout(manual_model(coupling, rep, lag, 3), seed, 100)
            rmse.append(np.sqrt(np.mean((fc.values - ham_series[90:190]) ** 2)))
        assert abs(rmse[0] / rmse[1] - 1.0) <= 0.01

    def test_c3_matches_dense_fit(self):
        plan = compression_plan(4, 2)
        basis = equivariant_basis(C3, 2, plan)
        series = np.random.default_rng(33).standard_normal((40, 2))
        h0r, h1 = build_data_matrices(series, 2, 2, plan)
        dense = dense_matrices(basis)
        fit = fit_coefficients(basis, h0r, h1)
        coeffs, rank = dense_fit(dense, h0r, h1)
        w_dense = np.tensordot(coeffs, dense, axes=1)
        assert fit.rank == rank
        assert np.linalg.norm(assemble(basis, fit) - w_dense) <= 1e-8 * np.linalg.norm(w_dense)

    @pytest.mark.parametrize("sparsify", [1, 2])
    def test_sparsify_matches_dense_omp(self, ham_series, sparsify):
        _, basis, h0r, _ = _k4_setup(ham_series, 2)
        dense = dense_matrices(basis)
        planted = 3 * basis.lag + 1  # one-slot matrix 3 on lag slot 1
        noise = 1e-3 * np.random.default_rng(34).standard_normal((basis.state_dim, h0r.shape[1]))
        h1 = 2.5 * (dense[planted] @ h0r) + noise
        fit = fit_coefficients(basis, h0r, h1, sparsify=sparsify)
        coeffs, rank = dense_fit(dense, h0r, h1, sparsify=sparsify)
        support = np.flatnonzero(fit.coefficients)
        assert planted in support and support.size == sparsify
        assert np.array_equal(support, np.flatnonzero(coeffs))
        assert np.max(np.abs(fit.coefficients - coeffs)) <= 1e-12
        assert fit.rank == rank

    def test_entry_cap_counts_the_slot_design(self, ham_series, monkeypatch):
        # a cap the whole design (lag**2 times larger) would exceed still fits
        _, basis, h0r, h1 = _k4_setup(ham_series, 3)
        k, n, _ = basis.slot_matrices.shape
        entries = n * h0r.shape[1] * k
        cap = 2 * entries
        assert entries < cap < entries * basis.lag ** 2
        monkeypatch.setattr(tensorops, "ENTRY_CAP", cap)
        fit = fit_coefficients(basis, h0r, h1)
        assert fit.rank == svd_rank(_slot_design(basis, h0r), fit.rel_tol) * basis.lag
        monkeypatch.setattr(tensorops, "ENTRY_CAP", entries - 1)
        with pytest.raises(DimensionOverflowError):
            fit_coefficients(basis, h0r, h1)

    def test_sparsify_checks_the_whole_design_before_building(self, ham_series, monkeypatch):
        # matching pursuit holds A (x) I_lag: above the cap nothing is built
        _, basis, h0r, h1 = _k4_setup(ham_series, 3)
        k, n, _ = basis.slot_matrices.shape
        entries = n * h0r.shape[1] * k
        monkeypatch.setattr(tensorops, "ENTRY_CAP", 2 * entries)
        monkeypatch.setattr(solver, "_slot_system", None)  # calling it would raise TypeError
        with pytest.raises(DimensionOverflowError):
            fit_coefficients(basis, h0r, h1, sparsify=2)

    def test_normal_eq_threshold_is_not_read(self, ham_series, monkeypatch):
        # the k4 paper fit: 16 singular values of A kept, each once per lag slot
        _, basis, h0r, h1 = _k4_setup(ham_series, 5)
        default = fit_coefficients(basis, h0r, h1)
        monkeypatch.setattr(solver, "NORMAL_EQ_THRESHOLD", 0)
        fit = fit_coefficients(basis, h0r, h1)
        assert np.array_equal(fit.coefficients, default.coefficients)
        assert fit.rank == default.rank == 80


@pytest.fixture(scope="module")
def k4_long_case():
    """k4 at L=3, p=3 on 2,000 samples (T=1,997 against q+nL=90) and 100 more
    to forecast."""
    series = hamiltonian_generate(HamiltonianConfig(steps=2100))
    plan = compression_plan(6, 3)
    h0r, h1 = build_data_matrices(series[:2000], 3, 3, plan)
    return series, equivariant_basis(builtin_rep("k4"), 3, plan), h0r, h1


@pytest.fixture(scope="module")
def z5_long_case():
    """z5 at L=2, p=2 on 500 samples (T=498 against q+nL=76)."""
    series = competition_generate(CompetitionConfig(steps=500))[:500]
    plan = compression_plan(10, 2)
    h0r, h1 = build_data_matrices(series, 2, 2, plan)
    return equivariant_basis(builtin_rep("z5"), 2, plan), h0r, h1


def _fitted_gap(basis, fit, coeffs, h0r, h1):
    """max |W h0r - W_oracle h0r| / max |h1|."""
    gap = assemble(basis, fit) @ h0r - solver._combine(basis, coeffs) @ h0r
    return np.max(np.abs(gap)) / np.max(np.abs(h1))


class TestReducedFit:
    """With T >= 2 (q + n*lag) the fit runs on the R factor of [h0r; h1]^T;
    the fit on the data itself is the oracle."""

    def test_k4_matches_unreduced_fit(self, k4_long_case):
        series, basis, h0r, h1 = k4_long_case
        fit = fit_coefficients(basis, h0r, h1)
        coeffs, rank = unreduced_fit(basis, h0r, h1)
        assert fit.rank == rank == 90
        assert _fitted_gap(basis, fit, coeffs, h0r, h1) <= 1e-10
        w_oracle = solver._combine(basis, coeffs)
        oracle_residual = np.linalg.norm(w_oracle @ h0r - h1) / np.linalg.norm(h1)
        assert abs(fit.train_residual - oracle_residual) <= 1e-12
        seed = delay_windows(series[:2000], 3)[-1]
        rmse = []
        for coupling in (assemble(basis, fit), w_oracle):
            fc = rollout(manual_model(coupling, builtin_rep("k4"), 3, 3), seed, 100)
            rmse.append(np.sqrt(np.mean((fc.values - series[2000:2100]) ** 2)))
        assert abs(rmse[0] / rmse[1] - 1.0) <= 0.02

    def test_z5_matches_unreduced_fit(self, z5_long_case):
        basis, h0r, h1 = z5_long_case
        fit = fit_coefficients(basis, h0r, h1)
        coeffs, rank = unreduced_fit(basis, h0r, h1)
        assert fit.rank == rank == 122
        assert _fitted_gap(basis, fit, coeffs, h0r, h1) <= 1e-10

    @pytest.mark.parametrize("extra,reduced", [(-1, False), (0, True)])
    def test_threshold(self, k4_long_case, monkeypatch, extra, reduced):
        # below T = 2 (q + n*lag) the fit is the oracle's, bit for bit
        _, basis, h0r, h1 = k4_long_case
        cols = 2 * (h0r.shape[0] + h1.shape[0]) + extra
        calls = []
        qr = np.linalg.qr

        def counted_qr(*args, **kwargs):
            calls.append(args[0].shape)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted_qr)
        fit = fit_coefficients(basis, h0r[:, :cols], h1[:, :cols])
        assert calls == ([(cols, h0r.shape[0] + h1.shape[0])] if reduced else [])
        if not reduced:
            coeffs, rank = unreduced_fit(basis, h0r[:, :cols], h1[:, :cols])
            assert np.array_equal(fit.coefficients, coeffs) and fit.rank == rank

    def test_paper_sizes_are_not_reduced(self, ham_series):
        cases = [(builtin_rep("k4"), ham_series[:90], 5, 3),
                 (builtin_rep("z5"), competition_generate(CompetitionConfig(steps=425))[:31], 1, 2)]
        for rep, series, lag, order in cases:
            plan = compression_plan(rep.n * lag, order)
            h0r, h1 = build_data_matrices(series, lag, order, plan)
            basis = equivariant_basis(rep, lag, plan)
            coeffs, rank = unreduced_fit(basis, h0r, h1)
            fit = fit_coefficients(basis, h0r, h1)
            assert np.array_equal(fit.coefficients, coeffs) and fit.rank == rank

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_raises(self, k4_long_case, bad):
        _, basis, h0r, h1 = k4_long_case
        h0r = h0r.copy()
        h0r[3, 5] = bad
        with pytest.raises(NumericalError):
            fit_coefficients(basis, h0r, h1)

    @pytest.mark.parametrize("sparsify", [5, 20])
    @pytest.mark.parametrize("case", ["k4", "z5"])
    def test_sparsify_matches_unreduced_omp(self, k4_long_case, z5_long_case, case, sparsify):
        basis, h0r, h1 = k4_long_case[1:] if case == "k4" else z5_long_case
        fit = fit_coefficients(basis, h0r, h1, sparsify=sparsify)
        coeffs, rank = unreduced_fit(basis, h0r, h1, sparsify=sparsify)
        assert np.array_equal(np.flatnonzero(fit.coefficients), np.flatnonzero(coeffs))
        assert fit.rank == rank == sparsify
        gap = np.max(np.abs(fit.coefficients - coeffs))
        assert gap <= 1e-10 * np.max(np.abs(coeffs))


class TestAssemble:
    def test_unit_coefficient(self, z5_setup):
        _, _, basis = z5_setup
        fit = fit_coefficients(basis, np.eye(basis.reduced_dim),
                               dense_matrices(basis)[0])
        assert np.max(np.abs(assemble(basis, fit) - dense_matrices(basis)[0])) <= 1e-10

    def test_zero_and_linearity(self, z5_setup):
        _, _, basis = z5_setup
        rng = np.random.default_rng(23)
        c1 = rng.standard_normal(basis.size)
        c2 = rng.standard_normal(basis.size)
        combine = lambda c: np.tensordot(c, dense_matrices(basis), axes=1)
        assert np.array_equal(combine(np.zeros(basis.size)), np.zeros((5, 21)))
        assert np.allclose(combine(c1) + combine(c2), combine(c1 + c2), atol=1e-12)


class TestEquivarianceResidual:
    def test_basis_span_is_equivariant(self, z5_setup):
        rep, plan, basis = z5_setup
        rng = np.random.default_rng(24)
        w = np.tensordot(rng.standard_normal(basis.size), dense_matrices(basis), axes=1)
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

    def test_coupling_shape_checked(self):
        rep = builtin_rep("k4")
        plan = compression_plan(4, 2)
        w = np.zeros((3, plan.reduced_dim))
        for residual in (equivariance_residual, generator_residuals):
            with pytest.raises(ShapeError):
                residual(w, rep, 2, plan)

    def test_generator_residuals_reported_per_generator(self, z5_setup):
        rep, plan, basis = z5_setup
        out = generator_residuals(dense_matrices(basis)[0], rep, 1, plan)
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
