import json
from dataclasses import replace

import numpy as np
import pytest

from earc.embedding import compression_plan, delay_windows
from earc.errors import (CorruptModelError, InsufficientDataError,
                         ModelFormatError, ShapeError, ValidationError)
from earc.groups import close_group, window_action
from earc.model import (DIVERGENCE_CAP, EarcModel, estimate_lag, load,
                        predict_step, rollout, save, train)
from earc.solver import FitReport
from earc.systems import (CompetitionConfig, builtin_rep, competition_generate,
                          planted_linear)

from oracles import autoregress_by_step


def linear_series(a, x0, steps):
    return planted_linear(np.asarray(a, float), np.asarray(x0, float), steps)


def manual_model(coupling, group, lag, order, residual=0.0):
    coupling = np.asarray(coupling, dtype=np.float64)
    plan = compression_plan(group.n * lag, order)
    fit = FitReport(coefficients=np.zeros(1), train_residual=0.0,
                    equivariance_residual=residual, basis_dim=1,
                    rank=None, rel_tol=None, sparsify=None)
    return EarcModel(n=group.n, lag=lag, order=order, group=group, plan=plan,
                     coupling=coupling, fit=fit, metadata={})


@pytest.fixture(scope="module")
def comp_series():
    return competition_generate(CompetitionConfig())


@pytest.fixture(scope="module")
def z5_model(comp_series):
    return train(comp_series[:31], builtin_rep("z5"), 1, 2)


class TestTrain:
    def test_linear_oracle_one_step(self):
        a = np.array([[0.9, 0.1], [-0.1, 0.8]])
        series = linear_series(a, [1.0, 0.5], 30)
        m = train(series[:20], close_group([np.eye(2)]), 1, 1)
        for t in range(20, 29):
            pred = predict_step(m, series[t])
            assert np.max(np.abs(pred - a @ series[t])) <= 1e-8

    def test_z5_configuration(self, z5_model):
        assert z5_model.fit.basis_dim == 21
        assert z5_model.fit.train_residual <= 1e-10
        assert z5_model.fit.equivariance_residual <= 1e-10

    def test_training_consistency(self, z5_model, comp_series):
        from earc.embedding import build_data_matrices
        h0r, h1 = build_data_matrices(comp_series[:31], 1, 2, z5_model.plan)
        bound = z5_model.fit.train_residual * np.linalg.norm(h1)
        gaps = np.linalg.norm(z5_model.coupling @ h0r - h1, axis=0)
        assert np.all(gaps <= bound + 1e-15)

    def test_deterministic(self, comp_series):
        m1 = train(comp_series[:31], builtin_rep("z5"), 1, 2)
        m2 = train(comp_series[:31], builtin_rep("z5"), 1, 2)
        assert np.array_equal(m1.coupling, m2.coupling)
        assert np.array_equal(m1.fit.coefficients, m2.fit.coefficients)

    def test_channel_mismatch(self, comp_series):
        with pytest.raises(ShapeError):
            train(comp_series[:31], builtin_rep("k4"), 1, 2)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            train(np.ones((2, 2)), builtin_rep("k4"), 2, 1)

    def test_prediction_scales_with_data_for_linear_features(self):
        a = np.array([[0.7, 0.2], [-0.2, 0.9]])
        series = linear_series(a, [1.0, -0.4], 25)
        m1 = train(series, close_group([np.eye(2)]), 1, 1)
        m2 = train(3.0 * series, close_group([np.eye(2)]), 1, 1)
        for t in range(5, 20):
            p1 = predict_step(m1, series[t])
            p2 = predict_step(m2, 3.0 * series[t])
            assert np.max(np.abs(p2 - 3.0 * p1)) <= 1e-9 * (1 + np.max(np.abs(p1)))


class TestPredictStep:
    def test_zero_coupling_gives_zero(self):
        group = close_group([np.eye(2)])
        m = manual_model(np.zeros((2, 3)), group, 1, 1)
        assert np.array_equal(predict_step(m, np.array([1.0, 2.0])), np.zeros(2))

    def test_equivariance(self, z5_model):
        rng = np.random.default_rng(40)
        for _ in range(10):
            w = rng.standard_normal(5)
            base = predict_step(z5_model, w)
            for g in z5_model.group.elements:
                mapped = predict_step(z5_model, g @ w)
                assert np.linalg.norm(mapped - g @ base) <= 1e-9 * (1 + np.linalg.norm(base))

    def test_dim_check(self, z5_model):
        with pytest.raises(ShapeError):
            predict_step(z5_model, np.ones(4))


def shift_plus_map_model(a_map):
    """Hand-built coupling for n=2, L=2, p=1 implementing an exact
    shift-and-replace: the new sample of each channel is a_map @ (newest
    samples).  Window layout: [x1(t-1), x1(t), x2(t-1), x2(t)]."""
    group = close_group([np.eye(2)])
    w = np.zeros((4, 5))
    w[0, 1] = 1.0                      # new x1(t-1) := old x1(t)
    w[1, 1] = a_map[0, 0]
    w[1, 3] = a_map[0, 1]
    w[2, 3] = 1.0                      # new x2(t-1) := old x2(t)
    w[3, 1] = a_map[1, 0]
    w[3, 3] = a_map[1, 1]
    return manual_model(w, group, 2, 1)


def assert_matches_step_loop(model, seed, horizon, mode):
    """Bitwise agreement of rollout() with the per-step column-loop oracle."""
    fc = rollout(model, seed, horizon, mode=mode)
    values, windows, steps, diverged = autoregress_by_step(
        model.coupling, model.plan.lead, model.plan.parent, seed, horizon,
        model.n, model.lag, mode == "consistent", DIVERGENCE_CAP)
    assert (fc.steps, fc.diverged) == (steps, diverged)
    assert np.array_equal(fc.values, values[:steps])
    assert np.array_equal(fc.windows, windows[:steps])
    return fc


@pytest.fixture(scope="module")
def k4_seed(ham_series):
    return delay_windows(ham_series[:90], 5)[-1]


class TestRollout:
    def test_modes_agree_for_shift_consistent_map(self):
        a_map = np.array([[0.8, 0.3], [-0.3, 0.8]])
        m = shift_plus_map_model(a_map)
        seed = np.array([1.0, 2.0, -1.0, 0.5])
        fc_c = rollout(m, seed, 10, mode="consistent")
        fc_f = rollout(m, seed, 10, mode="free")
        assert np.max(np.abs(fc_c.values - fc_f.values)) <= 1e-9
        # samples follow the planted map exactly
        x = np.array([2.0, 0.5])
        for k in range(10):
            x = a_map @ x
            assert np.max(np.abs(fc_c.values[k] - x)) <= 1e-12

    def test_horizon_one_equals_predict_step(self, z5_model, comp_series):
        seed = comp_series[30]
        fc = rollout(z5_model, seed, 1)
        pred = predict_step(z5_model, seed)
        newest = np.array([pred[j] for j in range(5)])  # L=1: window is the sample
        assert np.array_equal(fc.values[0], newest)

    @pytest.mark.parametrize("mode", ["consistent", "free"])
    def test_equivariant_rollout(self, z5_model, comp_series, mode):
        seed = comp_series[30]
        base = rollout(z5_model, seed, 50, mode=mode)
        for g in z5_model.group.elements:
            mapped = rollout(z5_model, g @ seed, 50, mode=mode)
            assert np.max(np.abs(mapped.values - base.values @ g.T)) <= 1e-8

    @pytest.mark.parametrize("mode", ["consistent", "free"])
    def test_z5_matches_step_loop_oracle(self, z5_model, comp_series, mode):
        fc = assert_matches_step_loop(z5_model, comp_series[30], 394, mode)
        assert not fc.diverged

    @pytest.mark.parametrize("mode", ["consistent", "free"])
    def test_k4_matches_step_loop_oracle(self, k4_model, k4_seed, mode):
        fc = assert_matches_step_loop(k4_model[0], k4_seed, 510, mode)
        assert not fc.diverged

    @pytest.mark.parametrize("mode", ["consistent", "free"])
    def test_diverging_rollout_matches_step_loop_oracle(self, k4_model, k4_seed, mode):
        amplified = replace(k4_model[0], coupling=2.0 * k4_model[0].coupling)
        fc = assert_matches_step_loop(amplified, k4_seed, 510, mode)
        assert fc.diverged and 0 < fc.steps < 510

    @pytest.mark.parametrize("mode", ["consistent", "free"])
    def test_k4_equivariant_over_full_horizon(self, k4_model, k4_seed, mode):
        m = k4_model[0]
        base = rollout(m, k4_seed, 510, mode=mode)
        assert base.steps == 510
        for g in m.group.elements:
            mapped = rollout(m, window_action(g, 5) @ k4_seed, 510, mode=mode)
            assert mapped.steps == 510
            assert np.max(np.abs(mapped.values - base.values @ g.T)) <= 1e-9

    def test_divergence_truncates_with_flag(self):
        group = close_group([np.eye(1)])
        m = manual_model(np.array([[2.0, 0.0]]), group, 1, 1)  # x -> 2x
        fc = rollout(m, np.array([1.0]), 100)
        assert fc.diverged
        assert fc.steps < 100
        assert np.all(np.isfinite(fc.values))
        assert np.max(np.abs(fc.values)) <= 1e12

    def test_windows_match_values(self, z5_model, comp_series):
        fc = rollout(z5_model, comp_series[30], 20)
        assert fc.windows.shape == (20, 5)
        assert np.array_equal(fc.windows, fc.values)  # L=1

    def test_bad_mode(self, z5_model, comp_series):
        with pytest.raises(ValidationError):
            rollout(z5_model, comp_series[30], 5, mode="both")


class TestEstimateLag:
    def test_white_noise_decorrelates_immediately(self):
        rng = np.random.default_rng(41)
        series = rng.standard_normal((200, 1))
        assert estimate_lag(series, 10) == 1

    def test_constant_series(self):
        assert estimate_lag(np.ones((100, 2)), 10) == 1

    def test_sinusoid_period_twenty(self):
        t = np.arange(200)
        series = np.sin(2 * np.pi * t / 20.0)[:, None]
        lag = estimate_lag(series, 10)
        assert 3 <= lag <= 7

    def test_slow_series_falls_back_to_max(self):
        series = np.linspace(0.0, 1.0, 100)[:, None]
        assert estimate_lag(series, 5) == 5

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            estimate_lag(np.ones((30, 1)), 10)


class TestPersistence:
    def test_save_load_save_is_idempotent(self, z5_model, tmp_path):
        p1 = tmp_path / "m1.json"
        p2 = tmp_path / "m2.json"
        save(z5_model, p1)
        save(load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_rolls_out_identically(self, z5_model, comp_series, tmp_path):
        path = tmp_path / "m.json"
        save(z5_model, path)
        restored = load(path)
        fc1 = rollout(z5_model, comp_series[30], 50)
        fc2 = rollout(restored, comp_series[30], 50)
        assert np.array_equal(fc1.values, fc2.values)

    def test_truncated_file_is_a_parse_error(self, z5_model, tmp_path):
        path = tmp_path / "m.json"
        save(z5_model, path)
        path.write_text(path.read_text()[:100])
        with pytest.raises(ModelFormatError):
            load(path)

    def test_perturbed_coupling_fails_equivariance_check(self, z5_model, tmp_path):
        path = tmp_path / "m.json"
        save(z5_model, path)
        payload = json.loads(path.read_text())
        payload["W"][0] += 1e-3
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptModelError):
            load(path)
        relaxed = load(path, check_equivariance=False)
        assert relaxed.coupling[0, 0] == pytest.approx(z5_model.coupling[0, 0] + 1e-3)

    def test_missing_field_rejected(self, z5_model, tmp_path):
        path = tmp_path / "m.json"
        save(z5_model, path)
        payload = json.loads(path.read_text())
        del payload["rep_index"]
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptModelError):
            load(path)

    def test_refuses_to_persist_non_equivariant_model(self, tmp_path):
        rep = builtin_rep("z5")
        w = np.random.default_rng(42).standard_normal((5, 21))
        m = manual_model(w, rep, 1, 2, residual=1.0)
        with pytest.raises(ValidationError):
            save(m, tmp_path / "bad.json")


class TestDelayWindowHelpers:
    def test_seed_window_matches_delay_windows(self, comp_series):
        windows = delay_windows(comp_series[:31], 1)
        assert np.array_equal(windows[-1], comp_series[30])

    def test_window_action_matches_channel_action(self):
        g = builtin_rep("k4").generators[0]
        w = np.arange(10.0)
        out = window_action(g, 5) @ w
        assert np.array_equal(out, np.concatenate([w[5:], w[:5]]))
