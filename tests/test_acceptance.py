"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import time

import numpy as np
import pytest

from earc import tensorops
from earc.cli import main
from earc.embedding import (build_data_matrices, compress, compression_plan,
                            delay_windows, embed, expand)
from earc.groups import close_group, lifted_action, window_action
from earc.model import load, predict_step, rollout, save, train
from earc.solver import (assemble, constraint_matrix, equivariant_basis,
                         fit_coefficients, unconstrained_fit)
from earc.systems import (GROWTH_RATE, INTERACTION_MATRIX, CompetitionConfig,
                          builtin_rep, competition_generate, competition_step,
                          hamiltonian_energy, planted_linear)


def _report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def comp_series():
    return competition_generate(CompetitionConfig(steps=425))


@pytest.fixture(scope="module")
def z5_model(comp_series):
    start = time.perf_counter()
    m = train(comp_series[:31], builtin_rep("z5"), 1, 2)
    return m, time.perf_counter() - start


def test_criterion_01_equivariance_residual_competition(z5_model):
    m, elapsed = z5_model
    residual = m.fit.equivariance_residual
    _report(1, residual <= 1e-10,
            f"competition model equivariance residual {residual:.3e} <= 1e-10 "
            f"(trained in {elapsed:.2f}s)")


def test_criterion_02_equivariance_residual_hamiltonian(k4_model):
    m, elapsed = k4_model
    residual = m.fit.equivariance_residual
    _report(2, residual <= 1e-10,
            f"hamiltonian model equivariance residual {residual:.3e} <= 1e-10 "
            f"(trained in {elapsed:.2f}s)")


def test_hamiltonian_training_residual(k4_model):
    # supporting check, not a numbered criterion: the order-3 embedding fits
    # the 90-sample Hamiltonian training set essentially exactly
    m, _ = k4_model
    assert m.fit.train_residual <= 1e-6


def test_criterion_03_predictor_equivariance(z5_model, k4_model):
    rng = np.random.default_rng(100)
    worst = 0.0
    for m, _ in (z5_model, k4_model):
        dim = m.n * m.lag
        for _ in range(100):
            x = rng.standard_normal(dim)
            tx = predict_step(m, x)
            for g in m.group.elements:
                h = window_action(g, m.lag)
                gap = np.linalg.norm(predict_step(m, h @ x) - h @ tx)
                worst = max(worst, gap / (1.0 + np.linalg.norm(tx)))
    _report(3, worst <= 1e-9,
            f"predictor commutes with both groups on 100 random states "
            f"(worst normalised gap {worst:.3e} <= 1e-9)")


def test_criterion_04_embedding_equivariance_oracle():
    rng = np.random.default_rng(101)
    worst = 0.0
    for name, lag, order in (("k4", 5, 3), ("z5", 1, 2)):
        rep = builtin_rep(name)
        lifted = [lifted_action(g, lag, order) for g in rep.elements]
        for _ in range(100):
            x = rng.standard_normal(rep.n * lag)
            ex = embed(x, order)
            for g, big_g in zip(rep.elements, lifted):
                h = window_action(g, lag)
                worst = max(worst, np.max(np.abs(embed(h @ x, order) - big_g @ ex)))
    _report(4, worst <= 1e-12,
            f"embedding commutes with the lifted action on 100 random states "
            f"(worst coordinate gap {worst:.3e} <= 1e-12)")


def test_criterion_05_kernel_equivalence_oracle():
    sign_group = close_group([-np.eye(2)])
    plan = compression_plan(2, 1)
    ks = [constraint_matrix(g, 1, plan) for g in sign_group.generators]
    basis = equivariant_basis(sign_group, 1, plan)
    vecs = np.array([tensorops.vec(x) for x in basis.matrices])
    p_stacked = vecs.T @ vecs
    normal = sum(k.T @ k for k in ks)
    eigvals, eigvecs = np.linalg.eigh(normal)
    kernel = eigvecs[:, eigvals <= 1e-10 * max(eigvals.max(), 1.0)]
    p_normal = kernel @ kernel.T
    gap = np.max(np.abs(p_stacked - p_normal))
    _report(5, gap <= 1e-8 and basis.size == 4,
            f"stacked-SVD kernel equals ker(sum K^T K) (projector gap {gap:.3e} "
            f"<= 1e-8) and basis size {basis.size} == 4")


def test_criterion_06_trivial_group_matches_unconstrained_fit():
    a = np.array([[0.9, 0.1, 0.0], [-0.1, 0.8, 0.1], [0.0, 0.2, 0.7]])
    series = planted_linear(a, np.array([1.0, 0.5, -0.25]), 25)
    trivial = close_group([np.eye(3)])
    plan = compression_plan(3, 1)
    h0r, h1 = build_data_matrices(series, 1, 1, plan)
    basis = equivariant_basis(trivial, 1, plan)
    w_equi = assemble(basis, fit_coefficients(basis, h0r, h1))
    w_plain = unconstrained_fit(h0r, h1)
    gap = np.linalg.norm(w_equi @ h0r - w_plain @ h0r) / np.linalg.norm(h1)
    _report(6, gap <= 1e-8,
            f"identity-group fit matches unconstrained least squares on the "
            f"training columns (relative gap {gap:.3e} <= 1e-8)")


def test_criterion_07_forecast_quality(z5_model, comp_series, k4_model, ham_series):
    m5, _ = z5_model
    seed5 = comp_series[30]
    fc5 = rollout(m5, seed5, 394)
    final_gap = np.max(np.abs(fc5.values[-1] - comp_series[424]))
    m4, _ = k4_model
    seed4 = delay_windows(ham_series[:90], 5)[-1]
    fc4 = rollout(m4, seed4, 20)
    ref = ham_series[90:110]
    rel_rmse = np.sqrt(np.mean((fc4.values - ref) ** 2)) / np.sqrt(np.mean(ref ** 2))
    _report(7, final_gap <= 1e-2 and rel_rmse <= 5e-2 and not fc5.diverged
            and not fc4.diverged,
            f"competition forecast ends within {final_gap:.3e} <= 1e-2 per "
            f"channel; hamiltonian relative RMSE over 20 held-out steps "
            f"{rel_rmse:.3e} <= 5e-2")


def test_criterion_08_competition_fixed_point():
    p_star = np.full(5, 1.0 / 3.1)
    out = competition_step(p_star, np.full(5, GROWTH_RATE), INTERACTION_MATRIX)
    gap = np.max(np.abs(out - p_star))
    _report(8, gap <= 1e-15,
            f"uniform state 1/3.1 is a fixed point of the competition map "
            f"(update gap {gap:.3e} <= 1e-15)")


def test_criterion_09_energy_drift(ham_series):
    energy = hamiltonian_energy(ham_series[:, 0], ham_series[:, 1])
    drift = np.max(np.abs(energy - energy[0])) / abs(energy[0])
    _report(9, drift <= 1e-8,
            f"RK4 conserves the energy within {drift:.3e} <= 1e-8 relative "
            f"over 600 steps at dt=0.01")


def test_criterion_10_compression_round_trip():
    rng = np.random.default_rng(102)
    ok = True
    for dim_in, order in ((5, 2), (10, 3)):
        plan = compression_plan(dim_in, order)
        identity = plan.selection_matrix() @ plan.expansion_matrix()
        ok = ok and np.array_equal(identity, np.eye(plan.reduced_dim))
        for _ in range(100):
            full = embed(rng.standard_normal(dim_in), order)
            ok = ok and np.array_equal(expand(plan, compress(plan, full)), full)
    _report(10, ok,
            "expand(compress(.)) is the exact identity on embedded vectors at "
            "(5,2) and (10,3), and R @ E = I exactly")


def test_criterion_11_determinism_and_persistence(z5_model, comp_series, tmp_path):
    m1, _ = z5_model
    seed = comp_series[30]
    direct = rollout(m1, seed, 100)
    path = tmp_path / "model.json"
    save(m1, path)
    restored = rollout(load(path), seed, 100)
    bitwise = np.array_equal(direct.values, restored.values)
    m2 = train(comp_series[:31], builtin_rep("z5"), 1, 2)
    retrain = np.array_equal(m1.coupling, m2.coupling)
    outs = []
    for tag in ("a", "b"):
        csv = tmp_path / f"series_{tag}.csv"
        model = tmp_path / f"model_{tag}.json"
        main(["generate", "--system", "competition", "--steps", "425",
              "--out", str(csv)])
        main(["train", "--data", str(csv), "--group", "z5", "--L", "1",
              "--p", "2", "--train-count", "31", "--out", str(model)])
        outs.append((csv.read_bytes(), model.read_bytes()))
    cli_identical = outs[0] == outs[1]
    _report(11, bitwise and retrain and cli_identical,
            "save/load/rollout is bitwise identical to the in-memory model, "
            "retraining reproduces the coupling exactly, and repeated CLI "
            "runs are byte-identical")
