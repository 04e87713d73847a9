import tracemalloc

import numpy as np
import pytest

from earc import solver, tensorops
from earc.embedding import build_data_matrices, compression_plan, delay_windows
from earc.errors import DimensionOverflowError, NumericalError, ShapeError
from earc.groups import GroupRep, action_rows, close_group, window_action
from earc.solver import (EquivariantBasis, assemble, basis_features, degree_kernel_dims,
                         equivariance_residual, equivariant_basis, fit_coefficients,
                         generator_residuals)
from earc.model import rollout, train
from earc.systems import (CompetitionConfig, HamiltonianConfig, builtin_rep,
                          competition_generate, hamiltonian_generate)
from tests import test_groups
from tests.test_groups import named_rep, rotation
from tests.test_model import manual_model

import oracles
from oracles import (assembled_action, constraint_matrix, cutoff_equivariant_basis,
                     degree_kernel_dims_by_lists, dense_fit, dense_matrices, feature_components,
                     full_width_qr_fit, kron_constraint_matrix, lower_plan_equivariant_basis,
                     null_space, one_svd_equivariant_basis, svd_rank, unconstrained_fit,
                     unreduced_fit, whole_constraint_equivariant_basis, whole_equivariant_basis,
                     window_equivariant_basis)

TRIVIAL_2 = close_group([np.eye(2)])
SIGN_GROUP = close_group([-np.eye(2)])  # {I, -I} acting on the plane
C3 = close_group([[[-0.5, -np.sqrt(0.75)], [np.sqrt(0.75), -0.5]]])
"""Rotations by multiples of 120 degrees: a group that is not a signed permutation."""
C3_CYCLE = close_group([np.roll(np.eye(3), 1, axis=0)])
"""The cyclic shift of three coordinates: C_3 with the trivial representation in it."""


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
                ghat = assembled_action(g, 1, plan)
                assert np.linalg.norm(g @ mat - mat @ ghat) <= 1e-9 * scale

    def test_generators_suffice_for_whole_group(self, z5_setup):
        rep, plan, basis = z5_setup
        for mat in dense_matrices(basis):
            scale = max(1.0, np.linalg.norm(mat))
            for g in rep.elements:
                ghat = assembled_action(g, 1, plan)
                assert np.linalg.norm(g @ mat - mat @ ghat) <= 1e-9 * scale

    def test_kernel_equals_summed_normal_form(self):
        # stacked-SVD kernel == ker(sum K^T K), compared as projectors
        plan = compression_plan(2, 1)
        stacked = constraint_matrix(np.array(SIGN_GROUP.generators), 1, plan,
                                    np.arange(plan.reduced_dim))
        stacked_kernel = null_space(stacked, 1e-10)
        p1 = stacked_kernel @ stacked_kernel.T
        normal = stacked.T @ stacked  # the sum of K^T K over the generators
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
        stacked = constraint_matrix(np.array(rep.generators), 5, plan, np.arange(plan.reduced_dim))
        assert stacked.shape == (1144, 572)  # two generators over 572 unknowns
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


def _degree_features(plan, k):
    """Feature indices of degree block k; 0 is the constant."""
    if k == 0:
        return np.array([plan.reduced_dim - 1])
    return np.arange(*plan.blocks[k - 1][:2])


def _stacked(rep, lag, plan, features):
    return constraint_matrix(np.array(rep.generators), lag, plan, features)


def _kernel_dim(a):
    """Right singular vectors of ``a`` whose singular value is at most
    ``solver.KERNEL_RTOL`` of the largest, counted from the singular values alone."""
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(s <= solver.KERNEL_RTOL * s[0])) + a.shape[1] - s.size


def _projector(basis):
    flat = basis.slot_matrices.reshape(basis.slot_matrices.shape[0], -1)
    return flat.T @ flat


def _assert_agrees(basis, oracle):
    """The library's basis spans the oracle's: equal sizes, projectors within
    1e-13."""
    assert basis.size == oracle.size
    assert np.max(np.abs(_projector(basis) - _projector(oracle))) <= 1e-13


COUNT_CASES = ([("k4", lag, order) for lag in (2, 3, 4, 5) for order in (3, 4)]
               + [("z5", lag, order) for lag in (1, 2) for order in (2, 3)]
               + [("c3", 1, 3), ("c3", 2, 2), ("k4Q", 2, 3), ("k4Q", 3, 4), ("z5Q", 1, 3),
                  ("z5Q", 2, 2), ("c3Q", 2, 3)])
"""(group, lag, order); a trailing Q conjugates the group by a random orthogonal
matrix, which leaves no element but the identity and -I a signed permutation."""

MARGIN_CASES = [case for case in COUNT_CASES if case[0] in ("k4", "z5")]


def _rep(name):
    if name.endswith("Q"):
        return test_groups.TestRandomFiniteGroups.conjugated(name[:-1], 63)
    return named_rep(name)


class TestDegreeBlocks:
    """The basis SVDs run on the degree blocks whose character count is not 0;
    the one SVD of the whole one-slot constraint is the oracle, and the
    one-SVD oracle on those blocks (``one_svd_equivariant_basis``) is what the
    library's per-component basis is held to by projector."""

    @pytest.mark.parametrize("rep,lag", [(builtin_rep("z5"), 1), (builtin_rep("z5"), 2),
                                         (C3_CYCLE, 1), (C3_CYCLE, 2)],
                             ids=["z5-1", "z5-2", "c3-1", "c3-2"])
    def test_no_empty_block_is_bitwise_the_whole_matrix(self, rep, lag):
        plan = compression_plan(rep.n * lag, 2)
        assert np.array_equal(basis_features(degree_kernel_dims(rep, lag, 2), plan),
                              np.arange(plan.reduced_dim))
        oracle = one_svd_equivariant_basis(rep, lag, plan)
        assert np.array_equal(oracle.slot_matrices,
                              whole_equivariant_basis(rep, lag, plan).slot_matrices)
        basis = equivariant_basis(rep, lag, plan)
        assert basis.slot_matrices.flags.c_contiguous
        _assert_agrees(basis, oracle)

    @pytest.mark.parametrize("name,lag,order", [("k4", lag, 3) for lag in (2, 3, 4, 5)]
                             + [("c3", 2, 2), ("c3", 1, 3)])
    def test_projector_matches_whole_matrix_basis(self, name, lag, order):
        # measured: at most 1.6e-15 on k4, 1.7e-16 on the rotations C3, which
        # leave out the constant
        rep = named_rep(name)
        plan = compression_plan(rep.n * lag, order)
        basis = equivariant_basis(rep, lag, plan)
        oracle = whole_equivariant_basis(rep, lag, plan)
        assert basis.size == oracle.size
        assert np.max(np.abs(_projector(basis) - _projector(oracle))) <= 1e-13

    def test_k4_paper_forecast_matches_whole_matrix_basis(self, k4_model, ham_series):
        m, _ = k4_model
        h0r, h1 = build_data_matrices(ham_series[:90], 5, 3, m.plan)
        oracle = whole_equivariant_basis(m.group, 5, m.plan)
        w_oracle = assemble(oracle, fit_coefficients(oracle, h0r, h1))
        seed = delay_windows(ham_series[:90], 5)[-1]
        rmse = []
        for coupling in (m.coupling, w_oracle):
            fc = rollout(manual_model(coupling, m.group, 5, 3), seed, 100)
            rmse.append(np.sqrt(np.mean((fc.values - ham_series[90:190]) ** 2)))
        assert abs(rmse[0] / rmse[1] - 1.0) <= 0.01  # measured 0.063%

    def test_k4_skips_the_constant_and_even_degrees(self):
        rep = builtin_rep("k4")
        plan = compression_plan(10, 4)
        dims = degree_kernel_dims(rep, 5, 4)
        assert dims.tolist() == [0, 10, 0, 220, 0]
        lo, hi = plan.blocks[2][:2]
        assert np.array_equal(basis_features(dims, plan),
                              np.concatenate([np.arange(10), np.arange(lo, hi)]))
        basis = equivariant_basis(rep, 5, plan)
        assert basis.size == 230 * 5
        kept = np.zeros(plan.reduced_dim, dtype=bool)
        kept[basis_features(dims, plan)] = True
        assert not np.any(basis.slot_matrices[:, :, ~kept])

    @pytest.mark.parametrize("name,lag,order", COUNT_CASES)
    def test_character_count_is_each_blocks_kernel_dimension(self, name, lag, order,
                                                             monkeypatch):
        # the counts' measured distance from integers is at most 2.1e-14; hold
        # them to 1e-13 here, far inside the library's CHARACTER_TOL
        monkeypatch.setattr(solver, "CHARACTER_TOL", 1e-13)
        rep = _rep(name)
        plan = compression_plan(rep.n * lag, order)
        dims = degree_kernel_dims(rep, lag, order)
        svd = [_kernel_dim(_stacked(rep, lag, plan, _degree_features(plan, k)))
               for k in range(order + 1)]
        assert dims.tolist() == svd
        assert dims[1] >= 1

    @pytest.mark.parametrize("name", ["k4", "z5", "c3", "k4Q", "z5Q", "c3Q"])
    def test_counts_equal_the_list_oracle(self, name):
        rep = _rep(name)
        for lag in range(1, 6):
            for order in range(1, 5):
                assert np.array_equal(degree_kernel_dims(rep, lag, order),
                                      degree_kernel_dims_by_lists(rep, lag, order))

    def test_count_off_an_integer_raises(self):
        # two rotations by 60 degrees are no group: the degree-1 count is 2.5
        half_closed = GroupRep(n=2, generators=(rotation(np.pi / 3),),
                               elements=(np.eye(2), rotation(np.pi / 3)), order=2)
        for counts in (degree_kernel_dims, degree_kernel_dims_by_lists):
            with pytest.raises(NumericalError, match="from integers"):
                counts(half_closed, 1, 2)
        with pytest.raises(NumericalError):
            equivariant_basis(half_closed, 1, compression_plan(2, 2))

    @pytest.mark.parametrize("name,lag,order", MARGIN_CASES)
    def test_null_space_cutoff_has_margin(self, name, lag, order):
        # every singular value of the restricted stack sits far from the
        # KERNEL_RTOL bound of the count check; measured: dropped <= 1.2e-15,
        # kept 1.000 on k4 and >= 0.618 on z5
        rep = _rep(name)
        plan = compression_plan(rep.n * lag, order)
        dims = degree_kernel_dims(rep, lag, order)
        stacked = _stacked(rep, lag, plan, basis_features(dims, plan))
        ratio = np.linalg.svd(stacked, compute_uv=False)
        ratio /= ratio[0]
        assert np.all((ratio <= 1e-14) | (ratio >= 0.5))
        assert 1e-14 < solver.KERNEL_RTOL < 0.5
        assert _kernel_dim(stacked) == sum(dims)

    @pytest.mark.parametrize("name,lag,order", COUNT_CASES)
    def test_count_selects_the_cutoff_oracles_basis(self, name, lag, order):
        rep = _rep(name)
        plan = compression_plan(rep.n * lag, order)
        oracle = one_svd_equivariant_basis(rep, lag, plan)
        assert np.array_equal(oracle.slot_matrices,
                              cutoff_equivariant_basis(rep, lag, plan).slot_matrices)
        basis = equivariant_basis(rep, lag, plan)
        assert basis.slot_matrices.flags.c_contiguous
        _assert_agrees(basis, oracle)

    @pytest.mark.parametrize("name,block", [("z5", 1), ("z5", 2), ("k4", 1), ("k4", 0),
                                            ("k4", 2)])
    def test_count_disagreeing_with_the_svd_raises(self, name, block, monkeypatch):
        # one more than the SVD holds, on a block with a kernel or (k4's
        # constant and degree 2) on one the count left out
        counted = solver.degree_kernel_dims

        def one_more(group, lag, order):
            dims = counted(group, lag, order).copy()
            dims[block] += 1
            return dims

        rep = builtin_rep(name)
        plan = compression_plan(rep.n * 2, 3)
        monkeypatch.setattr(solver, "degree_kernel_dims", one_more)
        with pytest.raises(NumericalError, match="not the character count"):
            equivariant_basis(rep, 2, plan)

    def test_entry_cap_counts_the_slot_matrices(self, monkeypatch):
        # the 230 one-slot matrices of 2 channels by 286 features are the
        # largest array the basis allocates: its 115 two-feature component
        # blocks hold 115 * 2 * 4 * 4 = 3,680 entries
        rep = builtin_rep("k4")
        plan = compression_plan(10, 3)
        slots = 230 * 2 * plan.reduced_dim
        assert slots == 131_560
        monkeypatch.setattr(tensorops, "ENTRY_CAP", slots)
        assert equivariant_basis(rep, 5, plan).slot_matrices.size == slots
        monkeypatch.setattr(tensorops, "ENTRY_CAP", slots - 1)
        tracemalloc.start()
        try:
            with pytest.raises(DimensionOverflowError, match=f"{slots} entries"):
                equivariant_basis(rep, 5, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # refused before the slot matrices' 1,052,480 bytes; measured 150 kB
        assert peak < slots * 8 // 2


def _components(rep, lag, plan):
    """The basis features and their components, by ``feature_components``."""
    features = basis_features(degree_kernel_dims(rep, lag, plan.order), plan)
    return features, feature_components(rep, lag, plan, features)


class TestComponents:
    """The basis is solved per connected component of the generators' Ghat
    pattern, one stacked SVD per component size; the components come from a
    breadth-first search over the dense actions (``feature_components``)."""

    @pytest.mark.parametrize("name,lag,order", COUNT_CASES)
    def test_each_element_lies_on_one_component(self, name, lag, order):
        rep = _rep(name)
        plan = compression_plan(rep.n * lag, order)
        features, components = _components(rep, lag, plan)
        owner = np.full(plan.reduced_dim, -1)
        for k, c in enumerate(components):
            owner[features[c]] = k
        basis = equivariant_basis(rep, lag, plan)
        on = [np.unique(owner[np.flatnonzero(m.any(axis=0))]) for m in basis.slot_matrices]
        assert all(o.size == 1 and o[0] >= 0 for o in on)
        # the elements are listed by component, components by smallest feature
        assert np.all(np.diff([o[0] for o in on]) >= 0)

    @pytest.mark.parametrize("name,lag,order", [("k4", 5, 3), ("k4", 3, 4), ("z5", 2, 3),
                                                ("c3", 2, 2), ("k4Q", 2, 3), ("z5Q", 1, 3),
                                                ("c3Q", 2, 3)])
    def test_stacked_svd_is_each_components_own(self, name, lag, order, monkeypatch):
        rep = _rep(name)
        plan = compression_plan(rep.n * lag, order)
        features, components = _components(rep, lag, plan)
        calls = []
        svd = tensorops._svd

        def recorded(a, full_matrices):
            calls.append((a, svd(a, full_matrices)))
            return calls[-1][1]

        monkeypatch.setattr(tensorops, "_svd", recorded)
        equivariant_basis(rep, lag, plan)
        sizes = sorted({c.size for c in components})
        assert [a.shape[0] for a, _ in calls] == [sum(c.size == s for c in components)
                                                  for s in sizes]
        for (stack, factors), size in zip(calls, sizes):
            for k, c in enumerate([c for c in components if c.size == size]):
                own = _stacked(rep, lag, plan, features[c])
                assert stack[k].tobytes() == own.tobytes()
                for got, alone in zip(factors, np.linalg.svd(own, full_matrices=False)):
                    assert got[k].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("name,lag,order", MARGIN_CASES)
    def test_null_space_cutoff_has_margin(self, name, lag, order):
        # every singular value of each component's stack sits far from the
        # KERNEL_RTOL bound of the count check; measured: dropped <= 2.1e-16,
        # kept >= 0.618 of the component's largest
        rep = _rep(name)
        plan = compression_plan(rep.n * lag, order)
        features, components = _components(rep, lag, plan)
        found = 0
        for c in components:
            own = _stacked(rep, lag, plan, features[c])
            ratio = np.linalg.svd(own, compute_uv=False)
            ratio /= ratio[0]
            assert np.all((ratio <= 1e-14) | (ratio >= 0.5))
            found += _kernel_dim(own)
        assert found == sum(degree_kernel_dims(rep, lag, order))


def _kron_stack(elements, lag, plan, features):
    """The stacked one-slot constraint as one Kronecker form per element."""
    return np.vstack([kron_constraint_matrix(g, lag, plan, features) for g in elements])


RANDOM_LAG_ORDERS = [(lag, order) for lag in range(1, 4) for order in range(1, 4)
                     if lag + order < 6]
"""(lag, order) pairs run on each random group; lag 3 at order 3 takes seconds
per group and is left out."""


class TestConstraintFromRows:
    """The stacked constraint that ``constraint_matrix`` (the whole-constraint
    oracle, whose entries the library's component blocks repeat) fills from
    one ``action_rows`` call against the per-generator Kronecker products it
    replaced: equal values (the signs of zeros differ), and the one-SVD
    oracle's SVD factors and basis bitwise equal on either; and that basis
    against the one built on the plan that stops at the highest kept degree.
    The library's per-component basis agrees with the oracle's by projector.
    CI also runs this class at one and at two BLAS threads."""

    @staticmethod
    def build(rep, lag, order, monkeypatch):
        """The stacked constraint, its SVD factors and the one-SVD oracle's
        basis, once from the rows and once from the Kronecker oracle; the
        library's basis is checked against that basis."""
        plan = compression_plan(rep.n * lag, order)
        svd = tensorops._svd
        out = []
        for build in (constraint_matrix, _kron_stack):
            run = {}

            def stacked(elements, lag, plan, features, build=build):
                run["stack"] = build(elements, lag, plan, features)
                return run["stack"]

            def factors(a, full_matrices):
                run["factors"] = svd(a, full_matrices)
                return run["factors"]

            with monkeypatch.context() as patch:
                patch.setattr(oracles, "constraint_matrix", stacked)
                patch.setattr(tensorops, "_svd", factors)
                run["basis"] = one_svd_equivariant_basis(rep, lag, plan)
            out.append(run)
        got, oracle = out
        assert np.array_equal(got["stack"], oracle["stack"])
        assert got["basis"].slot_matrices.tobytes() == oracle["basis"].slot_matrices.tobytes()
        _assert_agrees(equivariant_basis(rep, lag, plan), got["basis"])
        return got["factors"], oracle["factors"]

    @pytest.mark.parametrize("name,lag,order", [("k4", 5, 3), ("z5", 1, 2), ("k4", 3, 3),
                                                ("c3", 2, 3)])
    def test_bitwise_equal_to_kron_oracle(self, name, lag, order, monkeypatch):
        for a, b in zip(*self.build(named_rep(name), lag, order, monkeypatch)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", ["signed", "conjugated", "rotation+flip"])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_groups(self, kind, seed, monkeypatch):
        # for the rotation (+) flip at lag 2 or 3, the right singular vectors
        # outside the kernel can differ in the sign of a zero; the kernel never does
        rep = test_groups.TestBitwiseOnRandomGroups.random_group(kind, seed)
        for lag, order in RANDOM_LAG_ORDERS:
            (u, s, vt), (ou, os, ovt) = self.build(rep, lag, order, monkeypatch)
            assert u.tobytes() == ou.tobytes() and s.tobytes() == os.tobytes()
            if kind == "rotation+flip":
                assert np.array_equal(vt, ovt)
            else:
                assert vt.tobytes() == ovt.tobytes()

    def test_one_action_rows_call_on_the_models_plan(self, monkeypatch):
        # k4 at p=4 keeps degrees 1 and 3: one action_rows call builds the
        # rows of both generators, on the order-4 plan the basis is for, and
        # one SVD factorises every component, all of two features
        rep, plan = builtin_rep("k4"), compression_plan(10, 4)
        features = basis_features(degree_kernel_dims(rep, 5, 4), plan)
        sizes = {c.size for c in feature_components(rep, 5, plan, features)}
        assert sizes == {2}
        built, factored = [], []
        svd = tensorops._svd

        def recorded(elements, lag, plan):
            built.append((len(elements), plan.order))
            return action_rows(elements, lag, plan)

        def counted(a, full_matrices):
            factored.append(a.shape)
            return svd(a, full_matrices)

        monkeypatch.setattr(solver, "action_rows", recorded)
        monkeypatch.setattr(tensorops, "_svd", counted)
        basis = equivariant_basis(rep, 5, plan)
        assert built == [(2, 4)]
        assert factored == [(115, 2 * 2 * 2, 2 * 2)]  # 115 components, 2 generators
        assert basis.size == 230 * 5

    @pytest.mark.parametrize("name", ["k4", "k4'"])
    @pytest.mark.parametrize("lag,order", [(5, 4), (3, 4), (2, 6)])
    def test_bitwise_equal_to_lower_plan_oracle(self, name, lag, order):
        # the rows of the degree blocks above the highest kept one, built on
        # the model's plan, change nothing; k4' is k4 conjugated by a dense
        # orthogonal matrix
        rep = named_rep("k4")
        if name == "k4'":
            rep = test_groups.TestRandomFiniteGroups.conjugated("k4", 64)
        plan = compression_plan(rep.n * lag, order)
        got = one_svd_equivariant_basis(rep, lag, plan)
        oracle = lower_plan_equivariant_basis(rep, lag, plan)
        assert got.slot_matrices.tobytes() == oracle.slot_matrices.tobytes()
        _assert_agrees(equivariant_basis(rep, lag, plan), got)


BYTEWISE_CASES = ([("k4", lag, 3) for lag in range(2, 8)] + [("k4", 6, 4)]
                  + [("z5", lag, order) for lag in (1, 2, 3) for order in (2, 3)]
                  + [("c3", 2, 3), ("c3", 1, 3)])


class TestBasisFromRows:
    """The library fills each component-size group's blocks straight from the
    action rows and writes each kernel vector into its final row; the oracle
    ``whole_constraint_equivariant_basis`` slices the same blocks out of the
    whole stacked constraint.  The slot matrices are bytewise equal.  CI also
    runs this class at one and at two BLAS threads."""

    @pytest.mark.parametrize("name,lag,order", BYTEWISE_CASES)
    def test_bitwise_equal_to_whole_constraint_oracle(self, name, lag, order):
        rep = named_rep(name)
        plan = compression_plan(rep.n * lag, order)
        got = equivariant_basis(rep, lag, plan).slot_matrices
        oracle = whole_constraint_equivariant_basis(rep, lag, plan).slot_matrices
        assert got.flags.c_contiguous
        assert got.shape == oracle.shape and got.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("kind", ["signed", "conjugated", "rotation+flip"])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_groups(self, kind, seed):
        rep = test_groups.TestBitwiseOnRandomGroups.random_group(kind, seed)
        for lag, order in RANDOM_LAG_ORDERS:
            plan = compression_plan(rep.n * lag, order)
            got = equivariant_basis(rep, lag, plan).slot_matrices
            oracle = whole_constraint_equivariant_basis(rep, lag, plan).slot_matrices
            assert got.tobytes() == oracle.tobytes()

    def test_traced_peak_within_one_and_a_half_slot_matrices(self):
        # the whole constraint alone is 133 MB here, five times the 26.6 MB
        # slot matrices; measured 1.11-1.15 times them without it
        rep = builtin_rep("z5")
        plan = compression_plan(15, 3)
        tracemalloc.start()
        try:
            basis = equivariant_basis(rep, 3, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * basis.slot_matrices.nbytes


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
        assert m.fit.rank == svd_rank(_design(basis, h0r), tensorops.LSTSQ_RTOL)

    def test_rank_of_k4_model_matches_separate_svd(self, k4_model, ham_series):
        m, _ = k4_model
        basis = equivariant_basis(m.group, 5, m.plan)
        h0r, _ = build_data_matrices(ham_series[:90], 5, 3, m.plan)
        assert m.fit.rank == svd_rank(_design(basis, h0r), tensorops.LSTSQ_RTOL)

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
        with pytest.raises(ShapeError, match="0 elements"):
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
        with pytest.raises(ShapeError, match="feature and target column counts differ: 3 vs 4"):
            fit_coefficients(basis, np.ones((basis.reduced_dim, 3)),
                             np.ones((basis.state_dim, 4)))

    def test_assemble_checks_the_coefficient_count(self, z5_setup):
        _, _, basis = z5_setup
        report = solver.FitReport(coefficients=np.ones(basis.size + 1), train_residual=0.0,
                                  equivariance_residual=0.0, basis_dim=basis.size, rank=1)
        with pytest.raises(ShapeError, match=f"{basis.size + 1} coefficients for a basis "
                                             f"of size {basis.size}"):
            assemble(basis, report)


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
        assert fit.rank == svd_rank(_slot_design(basis, h0r), tensorops.LSTSQ_RTOL) * basis.lag
        monkeypatch.setattr(tensorops, "ENTRY_CAP", entries - 1)
        with pytest.raises(DimensionOverflowError):
            fit_coefficients(basis, h0r, h1)

    def test_sparsify_checks_its_working_set_before_building(self, ham_series, monkeypatch):
        # matching pursuit holds A and its largest refit design, sparsify
        # columns of A (x) I_lag, never the whole design (lag**2 times A)
        _, basis, h0r, h1 = _k4_setup(ham_series, 3)
        k, n, _ = basis.slot_matrices.shape
        rows = n * h0r.shape[1]
        working = rows * k + rows * basis.lag * 2
        assert working < rows * k * basis.lag ** 2
        monkeypatch.setattr(tensorops, "ENTRY_CAP", working)
        assert fit_coefficients(basis, h0r, h1, sparsify=2).rank == 2
        monkeypatch.setattr(tensorops, "ENTRY_CAP", working - 1)
        monkeypatch.setattr(solver, "_slot_system", None)  # calling it would raise TypeError
        with pytest.raises(DimensionOverflowError):
            fit_coefficients(basis, h0r, h1, sparsify=2)

    def test_sparsify_past_the_basis_counts_every_column(self, z5_setup, monkeypatch):
        # a budget above the basis size refits at most all k*lag columns
        _, _, basis = z5_setup
        h0r = np.random.default_rng(35).standard_normal((basis.reduced_dim, 10))
        h1 = dense_matrices(basis)[3] @ h0r
        k, n, _ = basis.slot_matrices.shape
        rows = n * h0r.shape[1]
        working = rows * k + rows * basis.lag * k * basis.lag
        monkeypatch.setattr(tensorops, "ENTRY_CAP", working)
        assert fit_coefficients(basis, h0r, h1, sparsify=10**6).rank >= 1
        monkeypatch.setattr(tensorops, "ENTRY_CAP", working - 1)
        with pytest.raises(DimensionOverflowError):
            fit_coefficients(basis, h0r, h1, sparsify=10**6)

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
    """With T >= 2 (q + n*lag) the fit runs on the R factor of [h0r_u; h1]^T,
    h0r_u the rows of h0r that some basis element uses; the fit on the data
    itself and the fit on the R factor of all rows are the oracles."""

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

    def test_k4_matches_full_width_qr_fit(self, k4_long_case):
        # the k4 basis is zero on the 22 features of even degree
        series, basis, h0r, h1 = k4_long_case
        fit = fit_coefficients(basis, h0r, h1)
        coeffs, rank = full_width_qr_fit(basis, h0r, h1)
        assert fit.rank == rank == 90
        assert _fitted_gap(basis, fit, coeffs, h0r, h1) <= 1e-10
        seed = delay_windows(series[:2000], 3)[-1]
        rmse = []
        for coupling in (assemble(basis, fit), solver._combine(basis, coeffs)):
            fc = rollout(manual_model(coupling, builtin_rep("k4"), 3, 3), seed, 100)
            rmse.append(np.sqrt(np.mean((fc.values - series[2000:2100]) ** 2)))
        assert abs(rmse[0] / rmse[1] - 1.0) <= 0.02

    @pytest.mark.parametrize("sparsify", [None, 5])
    def test_unused_features_are_not_read(self, k4_long_case, sparsify):
        _, basis, h0r, h1 = k4_long_case
        unused = ~basis.slot_matrices.any(axis=(0, 1))
        assert np.count_nonzero(unused) == 22
        changed = h0r.copy()
        rng = np.random.default_rng(5)
        changed[unused] = rng.normal(scale=1e3, size=(np.count_nonzero(unused), h0r.shape[1]))
        fits = [fit_coefficients(basis, data, h1, sparsify=sparsify) for data in (h0r, changed)]
        assert np.array_equal(fits[0].coefficients, fits[1].coefficients)
        assert fits[0].rank == fits[1].rank

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
        # the 62 features of odd degree and the 6 targets at k4 L=3 p=3
        assert calls == ([(cols, 68)] if reduced else [])
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


class TestSparseFitWithoutKron:
    """Matching pursuit over A and the lag slots' right-hand sides against the
    former pursuit over the whole design A (x) I_lag.  The data is short
    enough to be fitted directly, so both solve the same problem; CI also
    runs this class at one and at two BLAS threads."""

    CASES = [("k4", 2, 3, 70), ("k4", 3, 3, 70), ("k4", 5, 3, 70), ("k4", 7, 3, 70),
             ("z5", 1, 2, 31), ("z5", 2, 3, 400)]

    @pytest.fixture(scope="class", params=CASES, ids=lambda c: f"{c[0]}-L{c[1]}-p{c[2]}")
    def case(self, request, ham_series):
        name, lag, order, count = request.param
        series = (ham_series if name == "k4"
                  else competition_generate(CompetitionConfig(steps=425)))[:count]
        plan = compression_plan(builtin_rep(name).n * lag, order)
        h0r, h1 = build_data_matrices(series, lag, order, plan)
        assert h0r.shape[1] < 2 * (h0r.shape[0] + h1.shape[0])  # no QR
        return equivariant_basis(builtin_rep(name), lag, plan), h0r, h1

    @pytest.mark.parametrize("sparsify", [1, 5, 20])
    def test_matches_the_kronecker_design_oracle(self, case, sparsify):
        basis, h0r, h1 = case
        fit = fit_coefficients(basis, h0r, h1, sparsify=sparsify)
        coeffs, rank = unreduced_fit(basis, h0r, h1, sparsify=sparsify)
        assert np.array_equal(np.flatnonzero(fit.coefficients), np.flatnonzero(coeffs))
        assert fit.rank == rank
        assert np.max(np.abs(fit.coefficients - coeffs)) <= 1e-12 * np.max(np.abs(coeffs))

    def test_traced_peak_within_one_and_a_half_dense_trains(self, ham_series):
        # with the whole design A (x) I_lag the sparse trains peaked at 366 MB
        # here; measured 16.7 and 20.2 MB against the dense train's 19.7 MB
        peaks = []
        for sparsify in (None, 20, 60):
            tracemalloc.start()
            try:
                train(ham_series[:400], builtin_rep("k4"), 7, 3, sparsify=sparsify)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks[1:]) <= 1.5 * peaks[0], peaks


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

    @pytest.mark.parametrize("case", ["k4-paper", "z5-paper", "conjugated", "rotation+flip"])
    def test_norms_bitwise_equal_to_window_action(self, k4_model, case):
        # h comes from Ghat's degree-1 block instead of a second window_action
        if case == "k4-paper":
            m = k4_model[0]
            group, lag, plan, w = m.group, m.lag, m.plan, m.coupling
        elif case == "z5-paper":
            group, lag = builtin_rep("z5"), 1
            plan = compression_plan(5, 2)
            w = train(competition_generate(CompetitionConfig())[:31], group, lag, 2).coupling
        else:
            group, lag = test_groups.TestBitwiseOnRandomGroups.random_group(case, 1), 2
            plan = compression_plan(group.n * lag, 3)
            w = np.random.default_rng(27).standard_normal((plan.dim_in, plan.reduced_dim))
        expected = [np.linalg.norm(window_action(g, lag) @ w - w @ assembled_action(g, lag, plan))
                    for g in group.elements]
        got = solver.equivariance_residuals(w, group, lag, plan)
        assert np.array(got).tobytes() == np.array(expected).tobytes()

    def test_residual_never_holds_a_dense_action(self):
        # k4 at L=6, p=4 (q=1820): one dense Ghat is 26.5 MB; the residual of
        # all 4 elements stays under a quarter of that
        rep, lag = builtin_rep("k4"), 6
        plan = compression_plan(rep.n * lag, 4)
        w = np.random.default_rng(28).standard_normal((plan.dim_in, plan.reduced_dim))
        solver.equivariance_residuals(w, rep, lag, plan)  # builds the plan's tables
        tracemalloc.start()
        try:
            solver.equivariance_residuals(w, rep, lag, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < plan.reduced_dim ** 2 * 8 / 4

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
