import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from earc import _kernels
from earc.errors import (DimensionOverflowError, DivergenceError, ShapeError,
                         UnknownNameError, ValidationError)
from earc.systems import (DEFAULT_COMPETITION_START, GROWTH_RATE, INTERACTION_MATRIX,
                          CompetitionConfig, HamiltonianConfig, builtin_rep,
                          competition_generate, hamiltonian_generate, planted_linear)

from oracles import (competition_generate_by_step, competition_step,
                     hamiltonian_energy, hamiltonian_generate_by_array,
                     hamiltonian_vector_field)


def assert_same_bits(a, b):
    """Equal shapes and equal bytes: stricter than np.array_equal on -0.0 and NaN."""
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def diverged_message(generate, cfg):
    with pytest.raises(DivergenceError) as info:
        generate(cfg)
    return str(info.value)


def quiet_diverged_message(generate, cfg):
    """``diverged_message`` with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return diverged_message(generate, cfg)


class TestHamiltonian:
    def test_printed_start_is_an_equilibrium(self):
        assert np.array_equal(hamiltonian_vector_field(np.array([1.0, 0.0])),
                              np.zeros(2))

    def test_default_start_is_not(self):
        deriv = hamiltonian_vector_field(np.array([0.5, 0.0]))
        assert deriv[0] == 0.0
        assert deriv[1] == pytest.approx(-0.375)

    def test_shapes_and_start(self):
        series = hamiltonian_generate(HamiltonianConfig())
        assert series.shape == (601, 2)
        assert np.array_equal(series[0], [0.5, 0.0])

    def test_energy_drift(self):
        series = hamiltonian_generate(HamiltonianConfig())
        energy = hamiltonian_energy(series[:, 0], series[:, 1])
        drift = np.max(np.abs(energy - energy[0])) / abs(energy[0])
        assert drift <= 1e-8

    def test_orbit_is_bounded_and_nontrivial(self):
        series = hamiltonian_generate(HamiltonianConfig())
        assert np.max(np.abs(series)) <= 2.0
        assert np.ptp(series[:, 0]) > 0.5

    def test_symmetry_of_generated_orbits(self):
        # the vector field commutes with the signed-swap group, so a
        # transformed start yields the transformed trajectory
        base = hamiltonian_generate(HamiltonianConfig(steps=200))
        for g in builtin_rep("k4").elements:
            q0, p0 = g @ np.array([0.5, 0.0])
            mapped = hamiltonian_generate(HamiltonianConfig(q0=q0, p0=p0, steps=200))
            assert np.max(np.abs(mapped - base @ g.T)) <= 1e-10

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            HamiltonianConfig(dt=0.0)
        with pytest.raises(ValidationError):
            HamiltonianConfig(steps=0)

    @pytest.mark.parametrize("field,value", [("dt", math.nan), ("dt", math.inf),
                                             ("q0", math.nan), ("q0", math.inf),
                                             ("p0", -math.inf)])
    def test_non_finite_config_rejected(self, field, value):
        with pytest.raises(ValidationError, match="finite"):
            HamiltonianConfig(**{field: value})


class TestCompetition:
    def test_interaction_rows_sum_to_common_value(self):
        sums = INTERACTION_MATRIX.sum(axis=1)
        assert np.allclose(sums, 3.1, atol=1e-15)

    def test_interaction_matrix_is_circulant(self):
        for i in range(4):
            assert np.array_equal(np.roll(INTERACTION_MATRIX[i], 1),
                                  INTERACTION_MATRIX[i + 1])

    def test_uniform_fixed_point(self):
        p_star = np.full(5, 1.0 / 3.1)
        out = competition_step(p_star, np.full(5, GROWTH_RATE), INTERACTION_MATRIX)
        assert np.max(np.abs(out - p_star)) <= 1e-15

    def test_extinction_fixed_point(self):
        out = competition_step(np.zeros(5), np.full(5, GROWTH_RATE),
                               INTERACTION_MATRIX)
        assert np.array_equal(out, np.zeros(5))

    def test_zero_growth_freezes(self):
        p = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        assert np.array_equal(competition_step(p, np.zeros(5), INTERACTION_MATRIX), p)

    def test_step_commutes_with_shift(self):
        rep = builtin_rep("z5")
        rng = np.random.default_rng(30)
        r = np.full(5, GROWTH_RATE)
        for _ in range(10):
            p = rng.uniform(0.05, 0.95, 5)
            for g in rep.elements:
                lhs = g @ competition_step(p, r, INTERACTION_MATRIX)
                rhs = competition_step(g @ p, r, INTERACTION_MATRIX)
                assert np.max(np.abs(lhs - rhs)) <= 1e-14

    def test_trajectory_commutes_with_shift(self):
        rep = builtin_rep("z5")
        g = rep.generators[0]
        base = competition_generate(CompetitionConfig(steps=60))
        shifted = competition_generate(
            CompetitionConfig(p0=g @ np.array([0.2, 0.35, 0.5, 0.65, 0.8]), steps=60))
        assert np.max(np.abs(shifted - base @ g.T)) <= 1e-12

    def test_zero_steps(self):
        series = competition_generate(CompetitionConfig(steps=0))
        assert series.shape == (1, 5)
        assert np.array_equal(series[0], [0.2, 0.35, 0.5, 0.65, 0.8])

    def test_default_run_settles_on_exclusion_pattern(self):
        # The uniform state 1/3.1 is linearly unstable at the default growth
        # rate; the default start converges to a non-uniform fixed point with
        # two surviving participants instead.
        series = competition_generate(CompetitionConfig())
        final = series[-1]
        assert np.all(series >= -1e-12) and np.all(series <= 1.01)
        residual = competition_step(final, np.full(5, GROWTH_RATE),
                                    INTERACTION_MATRIX) - final
        assert np.max(np.abs(residual)) <= 1e-5
        assert np.max(np.abs(final - 1.0 / 3.1)) > 0.5

    def test_divergence_detected(self):
        with pytest.raises(DivergenceError):
            competition_generate(CompetitionConfig(r=np.full(5, 80.0), steps=50))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            CompetitionConfig(p0=np.array([0.0, 0.5, 0.5, 0.5, 0.5]))
        with pytest.raises(ValidationError):
            CompetitionConfig(interactions=-INTERACTION_MATRIX)

    @pytest.mark.parametrize("fields,shapes", [
        ({"p0": np.full((1, 5), 0.5)}, "p (1, 5), r (5,), N (5, 5)"),
        ({"p0": np.zeros(0)}, "p (0,), r (5,), N (5, 5)"),
        ({"p0": [0.5, 0.5]}, "p (2,), r (5,), N (5, 5)"),
        ({"r": np.full(4, GROWTH_RATE)}, "p (5,), r (4,), N (5, 5)"),
        ({"interactions": INTERACTION_MATRIX[:, :4]}, "p (5,), r (5,), N (5, 4)"),
        # dims that agree with each other, so only the rank or size test refuses them
        ({"p0": np.full((1, 1), 0.5), "r": np.ones((1, 1)), "interactions": np.ones((1,) * 4)},
         "p (1, 1), r (1, 1), N (1, 1, 1, 1)"),
        ({"p0": [], "r": [], "interactions": np.zeros((0, 0))}, "p (0,), r (0,), N (0, 0)"),
    ], ids=["2-D-p0", "empty-p0", "short-p0", "short-r", "non-square-N", "all-2-D", "all-empty"])
    def test_inconsistent_dims_rejected_by_the_config(self, fields, shapes):
        with pytest.raises(ShapeError, match=re.escape(f"inconsistent dims: {shapes}")):
            CompetitionConfig(**fields)

    def test_config_operands_of_any_matching_dim_are_iterated(self):
        # two species, given as lists: the config checks them, generate converts them
        series = competition_generate(CompetitionConfig(p0=[0.25, 0.5], r=[0.5, 0.5],
                                                        interactions=[[1.0, 0.0], [0.0, 1.0]],
                                                        steps=3))
        expected = [[0.25, 0.5]]
        for _ in range(3):
            expected.append(competition_step(expected[-1], [0.5, 0.5], np.eye(2)))
        assert np.array_equal(series, expected)

    @pytest.mark.parametrize("field,value", [
        ("p0", [0.2, math.nan, 0.5, 0.65, 0.8]), ("r", np.full(5, math.nan)),
        ("r", np.full(5, math.inf)), ("interactions", np.full((5, 5), math.nan)),
        ("interactions", np.full((5, 5), math.inf))])
    def test_non_finite_config_rejected(self, field, value):
        with pytest.raises(ValidationError):
            CompetitionConfig(**{field: np.asarray(value)})


class TestStepLoopOracles:
    """The scalar RK4 and the hoisted-check competition loop reproduce the
    array loops they replaced bit for bit, and diverge at the same step."""

    @pytest.mark.parametrize("element", range(4))
    def test_hamiltonian_from_benchmark_starts(self, element):
        # the benchmark moves the default start by each k4 element (one gives p0 = -0.0)
        q0, p0 = builtin_rep("k4").elements[element] @ np.array([0.5, 0.0])
        cfg = HamiltonianConfig(q0=float(q0), p0=float(p0), steps=21000)
        assert_same_bits(hamiltonian_generate(cfg), hamiltonian_generate_by_array(cfg))

    @pytest.mark.parametrize("cfg", [
        HamiltonianConfig(steps=600, dt=0.01),          # the README run
        HamiltonianConfig(q0=1.0, p0=0.0, steps=50),    # the historic equilibrium
        HamiltonianConfig(q0=0.3, p0=-0.2, dt=0.05, steps=5000),
        HamiltonianConfig(q0=1e-105, p0=0.0, steps=50),  # q^3 is subnormal
    ])
    def test_hamiltonian_other_runs(self, cfg):
        assert_same_bits(hamiltonian_generate(cfg), hamiltonian_generate_by_array(cfg))

    @pytest.mark.parametrize("cfg", [
        HamiltonianConfig(q0=3.0, p0=3.0, dt=0.1, steps=200),  # float ** 3 overflows
        HamiltonianConfig(q0=1e103, p0=0.0, steps=10),          # overflow in the first step
        # starts that HamiltonianConfig refuses, for the loop's own check
        SimpleNamespace(q0=math.nan, p0=0.0, dt=0.01, steps=10),
        SimpleNamespace(q0=math.inf, p0=0.0, dt=0.01, steps=10),
    ])
    def test_hamiltonian_divergence_step(self, cfg):
        expected = diverged_message(hamiltonian_generate_by_array, cfg)
        assert diverged_message(hamiltonian_generate, cfg) == expected

    @pytest.mark.parametrize("element", range(5))
    def test_competition_from_benchmark_starts(self, element):
        start = builtin_rep("z5").elements[element] @ DEFAULT_COMPETITION_START
        cfg = CompetitionConfig(p0=start, steps=10031)
        assert_same_bits(competition_generate(cfg), competition_generate_by_step(cfg))

    def test_competition_readme_run(self):
        cfg = CompetitionConfig(steps=425)
        assert_same_bits(competition_generate(cfg), competition_generate_by_step(cfg))

    @pytest.mark.parametrize("growth", [3.0, 80.0])
    def test_competition_divergence_step(self, growth):
        cfg = CompetitionConfig(r=np.full(5, growth), steps=200)
        expected = diverged_message(competition_generate_by_step, cfg)
        assert quiet_diverged_message(competition_generate, cfg) == expected

    @pytest.mark.parametrize("where", ["first", "block-1", "block", "block+1", "block+2",
                                       "last"])
    def test_competition_divergence_at_block_boundaries(self, where):
        # without interactions each step multiplies the state by 1 + r, and
        # 0.5 (1 + r)^k passes the range of 10 between steps k - 1/2 and k
        block = _kernels.BLOCK_STEPS
        steps = 2 * block + 7
        step = {"first": 1, "block-1": block - 1, "block": block, "block+1": block + 1,
                "block+2": block + 2, "last": steps}[where]
        cfg = CompetitionConfig(p0=np.full(5, 0.5), r=np.full(5, 20.0 ** (1 / (step - 0.5)) - 1),
                                interactions=np.zeros((5, 5)), steps=steps)
        message = quiet_diverged_message(competition_generate, cfg)
        assert message == diverged_message(competition_generate_by_step, cfg)
        assert message.endswith(f"at step {step}")


class TestBuiltinReps:
    def test_orders(self):
        assert builtin_rep("k4").order == 4
        assert builtin_rep("z5").order == 5

    def test_elements_are_orthogonal(self):
        for name in ("k4", "z5"):
            rep = builtin_rep(name)
            for g in rep.elements:
                assert np.linalg.norm(g.T @ g - np.eye(rep.n)) <= 1e-14

    def test_unknown_name(self):
        with pytest.raises(UnknownNameError):
            builtin_rep("d8")


@pytest.mark.parametrize("generate", [
    lambda steps: hamiltonian_generate(HamiltonianConfig(steps=steps)),
    lambda steps: competition_generate(CompetitionConfig(steps=steps)),
    lambda steps: planted_linear(np.eye(2), np.ones(2), steps),
], ids=["hamiltonian", "competition", "linear"])
@pytest.mark.parametrize("steps", [10**13, 10**30])
def test_steps_past_the_entry_cap_refused(generate, steps):
    with pytest.raises(DimensionOverflowError, match="exceeding the cap"):
        generate(steps)


class TestPlantedLinear:
    def test_identity_gives_constant_series(self):
        series = planted_linear(np.eye(2), np.array([1.0, -2.0]), 5)
        assert np.array_equal(series, np.tile([1.0, -2.0], (6, 1)))

    def test_geometric_decay(self):
        series = planted_linear(0.5 * np.eye(1), np.array([8.0]), 3)
        assert np.allclose(series[:, 0], [8.0, 4.0, 2.0, 1.0])

    def test_rotation_preserves_norm(self):
        theta = 0.1
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        series = planted_linear(rot, np.array([1.0, 0.0]), 100)
        norms = np.linalg.norm(series, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_overflow_detected(self):
        with pytest.raises(DivergenceError):
            planted_linear(10.0 * np.eye(1), np.array([1.0]), 20)

    @pytest.mark.parametrize("a,x0", [([[math.nan]], [1.0]), ([[1.0]], [math.inf])])
    def test_non_finite_operands_rejected(self, a, x0):
        # before the first step: with 0 steps the start would be returned as is
        with pytest.raises(ValidationError, match="finite"):
            planted_linear(np.array(a), np.array(x0), 0)
