import json

import numpy as np
import pytest

from earc.embedding import compression_plan, embed_dim
from earc.errors import NonFiniteGroupError, ShapeError, ValidationError
from earc.groups import close_group, from_json_dict, load_group, reduced_action, window_action
from earc.solver import equivariant_basis
from earc.systems import builtin_rep

from oracles import (dense_matrices, expansion_matrix, lifted_action,
                     reduced_action_by_class, save_group, selection_matrix, to_json_dict,
                     window_equivariant_basis)

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
FLIP = -np.eye(2)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def random_orthogonal(n, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def named_rep(name):
    """k4 or z5, or the rotations by multiples of 120 degrees in the plane (c3)."""
    return close_group([rotation(2 * np.pi / 3)]) if name == "c3" else builtin_rep(name)


class TestCloseGroup:
    def test_signed_swap_group_has_order_four(self):
        assert close_group([SWAP, FLIP]).order == 4

    def test_cyclic_shift_has_order_five(self):
        shift = np.roll(np.eye(5), -1, axis=0)
        assert close_group([shift]).order == 5

    def test_trivial_group(self):
        rep = close_group([np.eye(3)])
        assert rep.order == 1
        assert np.array_equal(rep.elements[0], np.eye(3))

    def test_identity_is_first(self):
        rep = close_group([SWAP, FLIP])
        assert np.array_equal(rep.elements[0], np.eye(2))

    def test_elements_orthogonal_and_closed(self):
        rep = close_group([SWAP, FLIP])
        for g in rep.elements:
            assert np.linalg.norm(g.T @ g - np.eye(2)) <= 1e-10
        for a in rep.elements:
            for b in rep.elements:
                prod = a @ b
                assert min(np.linalg.norm(prod - e) for e in rep.elements) <= 1e-9

    def test_non_orthogonal_generator_rejected(self):
        with pytest.raises(ValidationError):
            close_group([np.array([[1.0, 1.0], [0.0, 1.0]])])

    def test_non_finite_closure_rejected(self):
        with pytest.raises(NonFiniteGroupError):
            close_group([rotation(1.0)], max_order=16)


class TestLiftedAction:
    def test_order_one_structure(self):
        out = lifted_action(SWAP, 2, 1)
        assert out.shape == (5, 5)
        assert np.array_equal(out[:4, :4], np.kron(SWAP, np.eye(2)))
        assert out[4, 4] == 1.0

    def test_identity_element(self):
        out = lifted_action(np.eye(2), 3, 2)
        assert np.array_equal(out, np.eye(embed_dim(6, 2)))

    def test_homomorphism(self):
        rep = close_group([SWAP, FLIP])
        for a in rep.elements:
            for b in rep.elements:
                lhs = lifted_action(a @ b, 2, 2)
                rhs = lifted_action(a, 2, 2) @ lifted_action(b, 2, 2)
                assert np.max(np.abs(lhs - rhs)) <= 1e-10


class TestReducedAction:
    def test_trivial_group_gives_identity(self):
        plan = compression_plan(4, 2)
        out = reduced_action(np.eye(2), 2, plan)
        assert np.array_equal(out, np.eye(plan.reduced_dim))

    def test_swap_relabels_monomials(self):
        # classes: x1, x2, x1^2, x1x2, x2^2, 1
        plan = compression_plan(2, 2)
        out = reduced_action(SWAP, 1, plan)
        expected = np.zeros((6, 6))
        expected[0, 1] = expected[1, 0] = 1.0
        expected[2, 4] = expected[4, 2] = 1.0
        expected[3, 3] = 1.0
        expected[5, 5] = 1.0
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("name,lag,order", [("k4", 2, 2), ("z5", 1, 2), ("k4", 5, 3)])
    def test_matches_dense_construction(self, name, lag, order):
        rep = builtin_rep(name)
        plan = compression_plan(rep.n * lag, order)
        r = selection_matrix(plan)
        e = expansion_matrix(plan)
        for g in rep.generators:
            dense = r @ lifted_action(g, lag, order) @ e
            assert np.max(np.abs(reduced_action(g, lag, plan) - dense)) <= 1e-12

    def test_general_orthogonal_element(self):
        # a non-permutation element exercises the aggregation over repeats
        plan = compression_plan(2, 3)
        g = rotation(0.7)
        dense = selection_matrix(plan) @ lifted_action(g, 1, 3) @ expansion_matrix(plan)
        assert np.max(np.abs(reduced_action(g, 1, plan) - dense)) <= 1e-12

    def test_homomorphism(self):
        rep = builtin_rep("z5")
        plan = compression_plan(5, 2)
        for a in rep.elements:
            for b in rep.elements:
                lhs = reduced_action(a @ b, 1, plan)
                rhs = reduced_action(a, 1, plan) @ reduced_action(b, 1, plan)
                assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_signed_permutation_structure(self):
        rep = builtin_rep("k4")
        plan = compression_plan(10, 3)
        for g in rep.elements:
            out = reduced_action(g, 5, plan)
            nonzero_per_row = np.count_nonzero(out, axis=1)
            assert np.all(nonzero_per_row == 1)
            vals = out[out != 0.0]
            assert np.all(np.isin(vals, (1.0, -1.0)))

    def test_dimension_mismatch(self):
        plan = compression_plan(4, 2)
        with pytest.raises(ShapeError):
            reduced_action(SWAP, 1, plan)

    @pytest.mark.parametrize("name,lag,order", [
        ("k4", 1, 3), ("k4", 2, 3), ("k4", 3, 3), ("k4", 4, 3), ("k4", 5, 3),
        ("z5", 1, 2), ("z5", 2, 3), ("c3", 2, 2), ("c3", 4, 3)])
    def test_bitwise_equal_to_class_loop(self, name, lag, order):
        rep = named_rep(name)
        plan = compression_plan(rep.n * lag, order)
        for g in rep.elements:
            assert np.array_equal(reduced_action(g, lag, plan),
                                  reduced_action_by_class(g, lag, plan))

    def test_dense_orthogonal_bitwise_equal_to_class_loop(self):
        g = random_orthogonal(3, 50)
        plan = compression_plan(3, 4)
        out = reduced_action(g, 1, plan)
        ranges = [plan.degree_class_range(k) for k in range(1, 5)]
        assert np.count_nonzero(out) == sum((hi - lo) ** 2 for lo, hi in ranges) + 1
        assert np.array_equal(out, reduced_action_by_class(g, 1, plan))


class TestRandomFiniteGroups:
    """k4, z5 and c3 conjugated by a random orthogonal matrix: only the
    identity and, in k4, the central -I remain signed permutations."""

    CASES = [("k4", 2, 3), ("z5", 1, 2), ("c3", 2, 2), ("z5", 2, 2)]

    @staticmethod
    def conjugated(name, seed):
        rep = named_rep(name)
        q = random_orthogonal(rep.n, seed)
        out = close_group([q @ g @ q.T for g in rep.generators])
        assert out.order == rep.order
        eye = np.eye(rep.n)
        for g in out.elements:
            if min(np.max(np.abs(g - eye)), np.max(np.abs(g + eye))) > 1e-9:
                assert np.any(np.abs(np.abs(g) - np.round(np.abs(g))) > 1e-3)
        return out

    @pytest.mark.parametrize("name,lag,order", CASES)
    def test_homomorphism(self, name, lag, order):
        rep = self.conjugated(name, 60)
        plan = compression_plan(rep.n * lag, order)
        actions = [reduced_action(g, lag, plan) for g in rep.elements]
        for a, ga in zip(rep.elements, actions):
            for b, gb in zip(rep.elements, actions):
                assert np.max(np.abs(ga @ gb - reduced_action(a @ b, lag, plan))) <= 1e-10

    @pytest.mark.parametrize("name,lag,order", CASES)
    def test_matches_dense_construction(self, name, lag, order):
        rep = self.conjugated(name, 61)
        plan = compression_plan(rep.n * lag, order)
        r = selection_matrix(plan)
        e = expansion_matrix(plan)
        for g in rep.elements:
            dense = r @ lifted_action(g, lag, order) @ e
            assert np.max(np.abs(reduced_action(g, lag, plan) - dense)) <= 1e-12

    @pytest.mark.parametrize("name,lag,order", CASES)
    def test_one_slot_basis_matches_whole_window_oracle(self, name, lag, order):
        rep = self.conjugated(name, 62)
        plan = compression_plan(rep.n * lag, order)
        flat = dense_matrices(equivariant_basis(rep, lag, plan))
        flat = flat.reshape(flat.shape[0], -1)
        oracle = window_equivariant_basis(rep, lag, plan)
        oflat = oracle.reshape(oracle.shape[0], -1)
        assert flat.shape[0] == oflat.shape[0] > 0
        assert np.max(np.abs(flat.T @ flat - oflat.T @ oflat)) <= 1e-12


class TestJsonEncoding:
    def test_round_trip(self):
        rep = close_group([SWAP, FLIP])
        data = to_json_dict(rep)
        assert data["n"] == 2
        assert data["generators"] == [[0.0, 1.0, 1.0, 0.0], [-1.0, 0.0, 0.0, -1.0]]
        rebuilt = from_json_dict(json.loads(json.dumps(data)))
        assert rebuilt.order == 4

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "group.json"
        save_group(builtin_rep("z5"), path)
        rebuilt = load_group(path)
        assert rebuilt.order == 5
        assert np.array_equal(rebuilt.generators[0], builtin_rep("z5").generators[0])

    def test_malformed_dict_rejected(self):
        with pytest.raises(ValidationError):
            from_json_dict({"n": 2})

    @pytest.mark.parametrize("n", [1.9, 2.0, True, "2"])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(ValidationError, match="n must be an integer"):
            from_json_dict({"n": n, "generators": [[0.0, 1.0, 1.0, 0.0]]})


class TestWindowAction:
    def test_lag_one_returns_element(self):
        assert np.array_equal(window_action(SWAP, 1), SWAP)

    def test_block_structure(self):
        out = window_action(SWAP, 3)
        assert np.array_equal(out, np.kron(SWAP, np.eye(3)))
