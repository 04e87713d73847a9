import errno
import json
import os
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from earc import _kernels
from earc import model as model_mod
from earc.embedding import compression_plan, delay_windows
from earc.errors import (CorruptModelError, DimensionOverflowError, InsufficientDataError,
                         ModelFormatError, ShapeError, ValidationError)
from earc.groups import close_group, window_action
from earc.model import DIVERGENCE_CAP, EarcModel, estimate_lag, load, rollout, save, train
from earc.solver import FitReport, degree_kernel_dims
from earc.systems import (CompetitionConfig, builtin_rep, competition_generate,
                          planted_linear)

from oracles import autoregress_by_matmul, autoregress_by_step, predict_step


def linear_series(a, x0, steps):
    return planted_linear(np.asarray(a, float), np.asarray(x0, float), steps)


def manual_model(coupling, group, lag, order, residual=0.0):
    """A model with the given coupling and the basis size of the symmetry,
    which ``load`` requires."""
    coupling = np.asarray(coupling, dtype=np.float64)
    plan = compression_plan(group.n * lag, order)
    size = lag * int(degree_kernel_dims(group, lag, order).sum())
    fit = FitReport(coefficients=None, train_residual=0.0,
                    equivariance_residual=residual, basis_dim=size, rank=None)
    return EarcModel(n=group.n, lag=lag, order=order, group=group, plan=plan,
                     coupling=coupling, fit=fit, metadata={})


def v1_payload(path, coefficients=None):
    """The version-1 form of the model file at ``path``: its fit stores the
    basis coefficients (zeros unless given) in place of ``basis_dim``."""
    payload = json.loads(Path(path).read_text())
    fit = payload["fit"]
    size = fit.pop("basis_dim")
    payload["version"] = 1
    payload["fit"] = {"coefficients": [0.0] * size if coefficients is None
                      else [float(c) for c in coefficients], **fit}
    return payload


def single_channel_payload(order):
    """A model file for n = L = 1 and order ``order``, with the p + 1 monomial
    representatives that ``load`` counts; the rest is never read."""
    return {"version": 2, "n": 1, "L": 1, "p": order, "generators": [[-1.0]],
            "rep_index": list(range(order + 1)), "W": [0.0],
            "fit": {"basis_dim": 1, "train_residual": 0.0, "delta_em": 0.0}}


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
    """Bitwise agreement of rollout() with the per-step column-loop oracle and
    with the kernel that tested divergence at every step; rollout() may not
    emit a warning, even where the oracles do."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fc = rollout(model, seed, horizon, mode=mode)
    values, _, steps, diverged = autoregress_by_step(
        model.coupling, model.plan, seed, horizon, model.n, model.lag, mode == "consistent",
        DIVERGENCE_CAP)
    assert (fc.steps, fc.diverged) == (steps, diverged)
    assert np.array_equal(fc.values, values[:steps])
    windows, diverged = autoregress_by_matmul(model.coupling, model.plan, seed, horizon,
                                              model.lag, mode == "consistent", DIVERGENCE_CAP)
    assert fc.diverged == diverged
    assert np.array_equal(fc.values, windows[:, model.lag - 1::model.lag])
    return fc


def doubling_model(lag):
    """n = 1, p = 1: each step predicts [2x, ..., 2x] from the newest sample x
    alone, so that in both modes the prediction norms grow by exactly 2 per
    step."""
    coupling = np.zeros((lag, lag + 1))
    coupling[:, lag - 1] = 2.0
    return manual_model(coupling, close_group([np.eye(1)]), lag, 1)


def seed_diverging_at(model, step):
    """A seed whose prediction at ``step`` is the first past DIVERGENCE_CAP, by
    a factor of sqrt(2) on each side."""
    seed = np.zeros(model.lag)
    seed[-1] = 1.0
    first = np.linalg.norm(model.coupling[:, :-1] @ seed)
    return seed * (DIVERGENCE_CAP / first * 2.0 ** (0.5 - step))


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
        base = rollout(z5_model, seed, 394, mode=mode)
        assert base.steps == 394
        for g in z5_model.group.elements:
            mapped = rollout(z5_model, g @ seed, 394, mode=mode)
            assert mapped.steps == 394
            assert np.max(np.abs(mapped.values - base.values @ g.T)) <= 1e-9

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
    def test_lag_one_diverging_rollout_matches_step_loop_oracle(self, z5_model, comp_series,
                                                               mode):
        # at lag 1 the consistent rollout makes the free rollout's one move
        amplified = replace(z5_model, coupling=3.0 * z5_model.coupling)
        fc = assert_matches_step_loop(amplified, comp_series[30], 394, mode)
        assert fc.diverged and 0 < fc.steps < 394

    @pytest.mark.parametrize("mode", ["consistent", "free"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coupling_stops_at_step_zero(self, k4_model, k4_seed, mode, bad):
        coupling = k4_model[0].coupling.copy()
        coupling[3, 7] = bad
        fc = assert_matches_step_loop(replace(k4_model[0], coupling=coupling), k4_seed,
                                      510, mode)
        assert fc.diverged and fc.steps == 0

    @pytest.mark.parametrize("mode", ["consistent", "free"])
    @pytest.mark.parametrize("lag,order", [(1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (3, 1)])
    def test_matches_step_loop_at_each_lag(self, ham_series, lag, order, mode):
        m = train(ham_series[:90], builtin_rep("k4"), lag, order)
        seed = delay_windows(ham_series[:90], lag)[-1]
        fc = assert_matches_step_loop(m, seed, 300, mode)
        assert fc.steps > 0

    @pytest.mark.parametrize("mode", ["consistent", "free"])
    def test_k4_equivariant_over_full_horizon(self, k4_model, k4_seed, mode):
        m = k4_model[0]
        base = rollout(m, k4_seed, 510, mode=mode)
        assert base.steps == 510
        for g in m.group.elements:
            mapped = rollout(m, window_action(g, 5) @ k4_seed, 510, mode=mode)
            assert mapped.steps == 510
            assert np.max(np.abs(mapped.values - base.values @ g.T)) <= 1e-9

    @pytest.mark.parametrize("mode", ["consistent", "free"])
    @pytest.mark.parametrize("lag", [1, 3])
    @pytest.mark.parametrize("where", ["first", "block-1", "block", "block+1", "2*block",
                                       "last"])
    def test_divergence_at_block_boundaries(self, lag, mode, where):
        block = _kernels.BLOCK_STEPS
        horizon = 2 * block + 5
        step = {"first": 0, "block-1": block - 1, "block": block, "block+1": block + 1,
                "2*block": 2 * block, "last": horizon - 1}[where]
        m = doubling_model(lag)
        fc = assert_matches_step_loop(m, seed_diverging_at(m, step), horizon, mode)
        assert fc.diverged and fc.steps == step

    @pytest.mark.parametrize("mode", ["consistent", "free"])
    def test_prediction_at_the_cap_is_kept(self, mode):
        # the block's norm flags a state at the cap; the per-step test keeps it
        m = doubling_model(1)
        step = _kernels.BLOCK_STEPS - 3
        fc = assert_matches_step_loop(m, np.array([DIVERGENCE_CAP * 2.0 ** -(step + 1)]),
                                      2 * _kernels.BLOCK_STEPS, mode)
        assert fc.diverged and fc.steps == step + 1
        assert fc.values[-1, 0] == DIVERGENCE_CAP

    def test_divergence_truncates_with_flag(self):
        group = close_group([np.eye(1)])
        m = manual_model(np.array([[2.0, 0.0]]), group, 1, 1)  # x -> 2x
        fc = rollout(m, np.array([1.0]), 100)
        assert fc.diverged
        assert fc.steps < 100
        assert np.all(np.isfinite(fc.values))
        assert np.max(np.abs(fc.values)) <= 1e12

    def test_bad_mode(self, z5_model, comp_series):
        with pytest.raises(ValidationError):
            rollout(z5_model, comp_series[30], 5, mode="both")

    @pytest.mark.parametrize("horizon", [10**13, 10**30])
    def test_horizon_past_the_entry_cap_refused(self, z5_model, comp_series, horizon):
        with pytest.raises(DimensionOverflowError, match="exceeding the cap"):
            rollout(z5_model, comp_series[30], horizon)


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
    def test_single_channel_plan_past_the_cap_refused(self, tmp_path):
        # p(p + 1)/2 variable factors in its monomials, against the p + 1
        # features that the count checks
        with pytest.raises(DimensionOverflowError, match="table more than the cap"):
            train(np.linspace(0.1, 0.9, 20)[:, None], close_group([-np.eye(1)]), 1, 10**5)
        path = tmp_path / "huge-p.json"
        path.write_text(json.dumps(single_channel_payload(10**5)))
        with pytest.raises(CorruptModelError, match="table more than the cap"):
            load(path)

    def test_save_load_save_is_idempotent(self, z5_model, tmp_path):
        p1 = tmp_path / "m1.json"
        p2 = tmp_path / "m2.json"
        save(z5_model, p1)
        save(load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_write_keeps_the_old_file(self, z5_model, tmp_path, monkeypatch):
        def failing_open(*args, **kwargs):
            fh = open(*args, **kwargs)

            def write(text):  # half the text, then a full disk
                fh.buffer.write(text[:len(text) // 2].encode())
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            fh.write = write
            return fh

        path = tmp_path / "m.json"
        path.write_text("old model\n")
        monkeypatch.setattr(model_mod, "open", failing_open, raising=False)
        for target in (path, tmp_path / "new.json"):
            with pytest.raises(OSError, match="No space left on device"):
                save(z5_model, target)
        assert path.read_text() == "old model\n"
        assert list(tmp_path.iterdir()) == [path]  # no new file and no temporary one
        monkeypatch.undo()
        save(z5_model, path)
        assert load(path).coupling.shape == (5, 21)
        assert list(tmp_path.iterdir()) == [path]

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

    @pytest.mark.parametrize("kept", [3, 0], ids=["truncated", "empty"])
    def test_coefficient_count_must_match_the_basis(self, z5_model, tmp_path, kept):
        path = tmp_path / "m.json"
        save(z5_model, path)
        payload = v1_payload(path)
        payload["fit"]["coefficients"] = payload["fit"]["coefficients"][:kept]
        path.write_text(json.dumps(payload))
        for check in (True, False):
            with pytest.raises(CorruptModelError, match=r"expected \(21,\)"):
                load(path, check_equivariance=check)

    def test_refuses_to_persist_non_equivariant_model(self, tmp_path):
        rep = builtin_rep("z5")
        w = np.random.default_rng(42).standard_normal((5, 21))
        m = manual_model(w, rep, 1, 2, residual=1.0)
        with pytest.raises(ValidationError):
            save(m, tmp_path / "bad.json")

    @pytest.mark.parametrize("field", ["W", "train_residual"])
    def test_refuses_to_persist_non_finite_values(self, tmp_path, field):
        m = manual_model(np.zeros((5, 21)), builtin_rep("z5"), 1, 2)
        if field == "W":
            coupling = np.zeros((5, 21))
            coupling[0, 0] = np.inf
            m = replace(m, coupling=coupling)
        else:
            m = replace(m, fit=replace(m.fit, train_residual=np.nan))
        path = tmp_path / "bad.json"
        with pytest.raises(ValidationError, match="non-finite"):
            save(m, path)
        assert not path.exists()

    def test_file_stores_the_basis_size_not_the_coefficients(self, z5_model, tmp_path):
        path = tmp_path / "m.json"
        save(z5_model, path)
        payload = json.loads(path.read_text())
        assert payload["version"] == 2
        assert payload["fit"] == {"basis_dim": 21,
                                  "train_residual": z5_model.fit.train_residual,
                                  "delta_em": z5_model.fit.equivariance_residual}
        loaded = load(path)
        assert loaded.fit.basis_dim == 21
        assert loaded.fit.coefficients is None and loaded.fit.rank is None

    @pytest.mark.parametrize("which", ["z5", "k4"])
    def test_version_1_file_loads_to_the_same_model(self, z5_model, k4_model, tmp_path, which):
        # a version-1 file as earlier releases wrote it: the trained coefficients
        trained = z5_model if which == "z5" else k4_model[0]
        v2, v1, resaved = (tmp_path / name for name in ("v2.json", "v1.json", "resaved.json"))
        save(trained, v2)
        v1.write_text(json.dumps(v1_payload(v2, trained.fit.coefficients)) + "\n")
        old, new = load(v1), load(v2)
        assert np.array_equal(old.coupling, new.coupling)
        assert np.array_equal(old.coupling, trained.coupling)
        for a, b in zip(old.group.generators, new.group.generators, strict=True):
            assert np.array_equal(a, b)
        assert np.array_equal(old.plan.rep_index, new.plan.rep_index)
        for a, b in zip(old.plan.blocks, new.plan.blocks, strict=True):
            assert a[:2] == b[:2] and (a[4] is None) == (b[4] is None)
            assert np.array_equal(a[2], b[2]) and np.array_equal(a[3], b[3])
            assert a[4] is None or np.array_equal(a[4], b[4])
        assert vars(old.fit) == vars(new.fit)
        save(old, resaved)
        assert resaved.read_bytes() == v2.read_bytes()

    @pytest.mark.parametrize("version", [0, 3])
    def test_other_versions_are_refused(self, z5_model, tmp_path, version):
        path = tmp_path / "m.json"
        save(z5_model, path)
        payload = json.loads(path.read_text())
        payload["version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptModelError, match=f"unsupported model version {version}"):
            load(path)


class TestDelayWindowHelpers:
    def test_seed_window_matches_delay_windows(self, comp_series):
        windows = delay_windows(comp_series[:31], 1)
        assert np.array_equal(windows[-1], comp_series[30])

    def test_window_action_matches_channel_action(self):
        g = builtin_rep("k4").generators[0]
        w = np.arange(10.0)
        out = window_action(g, 5) @ w
        assert np.array_equal(out, np.concatenate([w[5:], w[:5]]))
