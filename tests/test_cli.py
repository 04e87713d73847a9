import io
import json

import numpy as np
import pytest

from earc import solver
from earc.cli import CSV_BLOCK_ROWS, _write_rows, main, read_series, write_series
from earc.embedding import build_data_matrices, compression_plan
from earc.errors import DivergenceError
from earc.groups import close_group, reduced_action
from earc.model import autocorrelation, load, rollout, save
from earc.solver import equivariance_residual, equivariant_basis, generator_residuals
from earc.systems import HamiltonianConfig, builtin_rep, hamiltonian_generate, planted_linear
from tests.test_model import manual_model

from oracles import (hamiltonian_generate_by_array, predict_step, unreduced_fit,
                     write_rows_by_value)

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
FLIP = -np.eye(2)

UNDECODABLE = bytes([0xFF, 0xFE, 0x00])
"""A file that is not valid UTF-8 (nor JSON)."""


@pytest.fixture(scope="module")
def comp_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "comp.csv"
    assert main(["generate", "--system", "competition", "--steps", "425",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def z5_model_path(comp_csv, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "z5.json"
    code = main(["train", "--data", str(comp_csv), "--group", "z5",
                 "--L", "1", "--p", "2", "--train-count", "31",
                 "--out", str(path)])
    assert code == 0
    return path


class TestGenerate:
    def test_competition_shape(self, comp_csv):
        lines = comp_csv.read_text().splitlines()
        assert len(lines) == 427
        assert lines[0] == "t,ch1,ch2,ch3,ch4,ch5"
        assert all(len(line.split(",")) == 6 for line in lines[1:])

    def test_hamiltonian_shape(self, tmp_path):
        out = tmp_path / "ham.csv"
        assert main(["generate", "--system", "hamiltonian", "--steps", "600",
                     "--dt", "0.01", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 602
        assert lines[0] == "t,ch1,ch2"

    def test_linear_identity_constant_channels(self, tmp_path):
        out = tmp_path / "lin.csv"
        assert main(["generate", "--system", "linear", "--matrix", "I2",
                     "--steps", "10", "--out", str(out)]) == 0
        series = read_series(out)
        assert np.all(series == series[0])

    def test_csv_round_trip_is_exact(self, comp_csv, tmp_path):
        series = read_series(comp_csv)
        copy = tmp_path / "copy.csv"
        write_series(copy, series)
        assert copy.read_bytes() == comp_csv.read_bytes()

    def test_repeated_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["generate", "--system", "hamiltonian", "--steps", "50",
                  "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_hamiltonian_divergence_exits_4_at_the_array_loop_step(self, tmp_path, capsys):
        cfg = HamiltonianConfig(q0=3.0, p0=3.0, dt=0.1, steps=200)
        with pytest.raises(DivergenceError) as info:
            hamiltonian_generate_by_array(cfg)
        out = tmp_path / "ham.csv"
        assert main(["generate", "--system", "hamiltonian", "--q0", "3", "--p0", "3",
                     "--dt", "0.1", "--steps", "200", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err == f"divergence: {info.value}\n"
        assert "at step 3" in err
        assert not out.exists()


class TestTrain:
    def test_report_and_model_file(self, z5_model_path, capsys):
        m = load(z5_model_path)
        assert m.fit.basis_dim == 21
        assert m.fit.equivariance_residual <= 1e-10

    def test_sparsify_on_long_series_keeps_the_unreduced_support(self, tmp_path, capsys):
        # 2,000 samples at L=3: the fit runs on the R factor of the data
        series = hamiltonian_generate(HamiltonianConfig(steps=1999))
        data = tmp_path / "ham.csv"
        write_series(data, series)
        out = tmp_path / "k4.json"
        assert main(["train", "--data", str(data), "--group", "k4", "--L", "3", "--p", "3",
                     "--train-count", "2000", "--sparsify", "20", "--out", str(out)]) == 0
        plan = compression_plan(6, 3)
        h0r, h1 = build_data_matrices(read_series(data), 3, 3, plan)
        coeffs, _ = unreduced_fit(equivariant_basis(builtin_rep("k4"), 3, plan), h0r, h1,
                                  sparsify=20)
        support = np.flatnonzero(load(out).fit.coefficients)
        assert support.size == 20
        assert np.array_equal(support, np.flatnonzero(coeffs))

    def test_missing_csv_exits_2(self, capsys):
        code = main(["train", "--data", "/nonexistent/series.csv", "--group", "z5",
                     "--L", "1", "--p", "2", "--train-count", "31",
                     "--out", "/tmp/ignored.json"])
        assert code == 2
        assert "/nonexistent/series.csv" in capsys.readouterr().err

    def test_auto_lag_echoed(self, tmp_path, capsys):
        t = np.arange(200)
        series = np.sin(2 * np.pi * t / 20.0)[:, None]
        data = tmp_path / "sin.csv"
        write_series(data, series)
        code = main(["train", "--data", str(data), "--group-file",
                     str(_trivial_group_file(tmp_path, 1)), "--L", "auto",
                     "--p", "1", "--train-count", "150",
                     "--out", str(tmp_path / "m.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "estimated lag L=" in out

    def test_both_prefix_flags_rejected(self, comp_csv, tmp_path):
        code = main(["train", "--data", str(comp_csv), "--group", "z5",
                     "--L", "1", "--p", "2", "--train-count", "31",
                     "--train-fraction", "0.1",
                     "--out", str(tmp_path / "m.json")])
        assert code == 2

    def test_config_file_supplies_defaults_and_flags_win(self, comp_csv, tmp_path):
        cfg = {"data": str(comp_csv), "group": "z5", "L": 1, "p": 2,
               "train_count": 40, "out": str(tmp_path / "from_config.json")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        # flag overrides the config's train_count
        code = main(["train", "--config", str(cfg_path), "--train-count", "31"])
        assert code == 0
        direct = tmp_path / "direct.json"
        main(["train", "--data", str(comp_csv), "--group", "z5", "--L", "1",
              "--p", "2", "--train-count", "31", "--out", str(direct)])
        assert (tmp_path / "from_config.json").read_bytes() == direct.read_bytes()

    def test_misspelt_config_key_exits_2(self, comp_csv, tmp_path, capsys):
        cfg = {"data": str(comp_csv), "group": "z5", "L": 1, "p": 2,
               "train_count": 31, "lstsq_tol": 1e-8, "nullspce_tol": 5,
               "out": str(tmp_path / "m.json")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert "nullspce_tol" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("key,value", [
        ("train_count", "31"), ("train_count", 31.5), ("train_count", True),
        ("sparsify", "3"), ("train_fraction", "0.5"), ("nullspace_tol", "abc"),
        ("L", 1.7), ("p", 2.9)])
    def test_mistyped_config_value_exits_2(self, comp_csv, tmp_path, capsys, key, value):
        cfg = {"data": str(comp_csv), "group": "z5", "L": 1, "p": 2,
               "train_count": 31, "out": str(tmp_path / "m.json")}
        if key == "train_fraction":
            del cfg["train_count"]
        cfg[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert f"config key {key} " in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_null_config_value_leaves_the_key_unset(self, comp_csv, tmp_path):
        cfg = {"data": str(comp_csv), "group": "z5", "L": 1, "p": 2, "train_count": 31,
               "train_fraction": None, "sparsify": None, "out": str(tmp_path / "c.json")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path)]) == 0
        direct = tmp_path / "direct.json"
        assert main(["train", "--data", str(comp_csv), "--group", "z5", "--L", "1",
                     "--p", "2", "--train-count", "31", "--out", str(direct)]) == 0
        assert (tmp_path / "c.json").read_bytes() == direct.read_bytes()

    def test_non_integer_lag_flag_exits_2(self, comp_csv, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["train", "--data", str(comp_csv), "--group", "z5", "--L", "1.7",
                  "--p", "2", "--train-count", "31", "--out", str(tmp_path / "m.json")])
        assert info.value.code == 2
        assert not (tmp_path / "m.json").exists()

    def test_undecodable_config_exits_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(UNDECODABLE)
        assert main(["train", "--config", str(cfg_path)]) == 2

    def test_repeated_training_byte_identical(self, comp_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["train", "--data", str(comp_csv), "--group", "z5", "--L", "1",
                  "--p", "2", "--train-count", "31", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()


    @pytest.mark.parametrize("flag,value,name", [
        ("--lstsq-tol", "nan", "least-squares"), ("--lstsq-tol", "inf", "least-squares"),
        ("--lstsq-tol", "-1e-12", "least-squares"), ("--nullspace-tol", "nan", "null-space"),
        ("--nullspace-tol", "inf", "null-space")])
    def test_bad_tolerance_flag_exits_2(self, comp_csv, tmp_path, capsys, flag, value, name):
        out = tmp_path / "m.json"
        assert main(["train", "--data", str(comp_csv), "--group", "z5", "--L", "1",
                     "--p", "2", "--train-count", "31", f"{flag}={value}", "--out", str(out)]) == 2
        assert f"{name} rel_tol must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,name", [("nullspace_tol", "null-space"),
                                          ("lstsq_tol", "least-squares")])
    def test_nan_tolerance_in_config_exits_2(self, comp_csv, tmp_path, capsys, key, name):
        cfg = {"data": str(comp_csv), "group": "z5", "L": 1, "p": 2, "train_count": 31,
               key: float("nan"), "out": str(tmp_path / "m.json")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert f'"{key}": NaN' in cfg_path.read_text()  # json.load accepts the literal
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert f"{name} rel_tol must be finite" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_zero_lstsq_tol_trains(self, comp_csv, tmp_path):
        out = tmp_path / "m.json"
        assert main(["train", "--data", str(comp_csv), "--group", "z5", "--L", "1",
                     "--p", "2", "--train-count", "31", "--lstsq-tol", "0",
                     "--out", str(out)]) == 0
        assert load(out).fit.equivariance_residual <= 1e-10

    @pytest.mark.parametrize("n", [5.9, True])
    def test_non_integer_group_n_exits_2(self, comp_csv, tmp_path, capsys, n):
        # int() would read 5.9 as the z5 channel count and true as one channel
        if n is True:
            data = tmp_path / "one.csv"
            write_series(data, np.sin(np.arange(40) / 5.0)[:, None])
            generator = [1.0]
        else:
            data, generator = comp_csv, builtin_rep("z5").generators[0].ravel().tolist()
        group = tmp_path / "group.json"
        group.write_text(json.dumps({"n": n, "generators": [generator]}))
        out = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--group-file", str(group), "--L", "1",
                     "--p", "2", "--train-count", "31", "--out", str(out)]) == 2
        assert f"n must be an integer, got {n!r}" in capsys.readouterr().err
        assert not out.exists()


def _trivial_group_file(tmp_path, n):
    path = tmp_path / f"trivial{n}.json"
    path.write_text(json.dumps({"n": n, "generators": [list(np.eye(n).ravel())]}))
    return path


class TestForecast:
    def test_horizon_one_matches_predict_step(self, comp_csv, z5_model_path, tmp_path):
        out = tmp_path / "fc1.csv"
        code = main(["forecast", "--model", str(z5_model_path), "--data", str(comp_csv),
                     "--train-count", "31", "--horizon", "1", "--out", str(out)])
        assert code == 0
        m = load(z5_model_path)
        series = read_series(comp_csv)
        expected = predict_step(m, series[30])
        got = read_series(out)[0]
        assert np.max(np.abs(got - expected)) <= 1e-15

    def test_both_prefix_flags_exit_2(self, comp_csv, z5_model_path, tmp_path, capsys):
        out = tmp_path / "fc.csv"
        code = main(["forecast", "--model", str(z5_model_path), "--data", str(comp_csv),
                     "--train-count", "31", "--train-fraction", "0.9", "--horizon", "5",
                     "--out", str(out)])
        assert code == 2
        assert "--train-fraction" in capsys.readouterr().err
        assert not out.exists()

    def test_no_prefix_flag_seeds_from_the_whole_series(self, comp_csv, z5_model_path,
                                                         tmp_path):
        out = tmp_path / "fc1.csv"
        assert main(["forecast", "--model", str(z5_model_path), "--data", str(comp_csv),
                     "--horizon", "1", "--out", str(out)]) == 0
        series = read_series(comp_csv)
        expected = predict_step(load(z5_model_path), series[-1])
        row = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)[0]
        assert row[0] == series.shape[0]
        assert np.max(np.abs(row[1:] - expected)) <= 1e-15

    def test_reference_errors_appended(self, comp_csv, z5_model_path, tmp_path, capsys):
        out = tmp_path / "fc.csv"
        code = main(["forecast", "--model", str(z5_model_path), "--data", str(comp_csv),
                     "--train-count", "31", "--horizon", "100",
                     "--reference", str(comp_csv), "--out", str(out)])
        assert code == 0
        header = out.read_text().splitlines()[0].split(",")
        assert header == ["t", "ch1", "ch2", "ch3", "ch4", "ch5",
                          "err1", "err2", "err3", "err4", "err5"]
        assert "rmse overall" in capsys.readouterr().out

    def test_group_mapped_seed(self, comp_csv, z5_model_path, tmp_path):
        base = tmp_path / "base.csv"
        mapped = tmp_path / "mapped.csv"
        main(["forecast", "--model", str(z5_model_path), "--data", str(comp_csv),
              "--train-count", "31", "--horizon", "20", "--out", str(base)])
        main(["forecast", "--model", str(z5_model_path), "--data", str(comp_csv),
              "--train-count", "31", "--horizon", "20",
              "--apply-group-element", "1", "--out", str(mapped)])
        g = load(z5_model_path).group.elements[1]
        base_vals = read_series(base)
        mapped_vals = read_series(mapped)
        assert np.max(np.abs(mapped_vals - base_vals @ g.T)) <= 1e-8

    def test_divergence_exits_4(self, tmp_path):
        group = builtin_rep("z5")
        # spectral radius 2 shift blows past the cap quickly but stays equivariant
        m = manual_model(np.hstack([2.0 * np.asarray(group.generators[0]),
                                    np.zeros((5, 16))]), group, 1, 2)
        model_path = tmp_path / "explode.json"
        save(m, model_path)
        seed_path = tmp_path / "seed.csv"
        write_series(seed_path, np.full((1, 5), 0.9))
        out = tmp_path / "fc.csv"
        code = main(["forecast", "--model", str(model_path), "--seed-csv",
                     str(seed_path), "--horizon", "100", "--out", str(out)])
        assert code == 4
        assert "# diverged after" in out.read_text()

    def test_missing_seed_source_exits_2(self, z5_model_path):
        assert main(["forecast", "--model", str(z5_model_path),
                     "--horizon", "5", "--out", "/tmp/ignored.csv"]) == 2

    def test_undecodable_model_exits_2(self, comp_csv, tmp_path):
        bad = tmp_path / "binary.json"
        bad.write_bytes(UNDECODABLE)
        out = tmp_path / "fc.csv"
        assert main(["forecast", "--model", str(bad), "--data", str(comp_csv),
                     "--horizon", "5", "--out", str(out)]) == 2
        assert not out.exists()


class TestVerify:
    def test_fresh_model_passes(self, z5_model_path, capsys):
        assert main(["verify", "--model", str(z5_model_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "generator 0" in out

    def test_perturbed_model_fails(self, z5_model_path, tmp_path, capsys):
        payload = json.loads(z5_model_path.read_text())
        payload["W"][0] += 1e-3
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["verify", "--model", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        residual = float(out.splitlines()[0].rsplit(" ", 1)[1])
        assert residual > 1e-4

    def test_truncated_file_exits_2_and_broken_schema_exits_3(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"version": 1')
        assert main(["verify", "--model", str(bad)]) == 2
        bad.write_text('{"version": 1}')
        assert main(["verify", "--model", str(bad)]) == 3

    def test_undecodable_file_exits_2(self, tmp_path):
        bad = tmp_path / "binary.json"
        bad.write_bytes(UNDECODABLE)
        assert main(["verify", "--model", str(bad)]) == 2

    @pytest.mark.parametrize("generators", [
        [SWAP, SWAP, FLIP],                          # a repeated generator
        [np.eye(2), SWAP, FLIP],                     # an identity generator
        [SWAP, FLIP, SWAP + [[0.0, 1e-13], [0.0, 0.0]]],
    ], ids=["repeated", "identity", "near-duplicate"])
    def test_generator_norms_equal_direct_computation(self, k4_model, generators,
                                                      tmp_path, capsys):
        # the near-duplicate is an element only within the closure tolerance,
        # so the generator norms are computed directly
        trained = k4_model[0]
        group = close_group(generators)
        assert group.order == 4
        m = manual_model(trained.coupling, group, trained.lag, trained.order)
        path = tmp_path / "model.json"
        save(m, path)
        loaded = load(path, check_equivariance=False)
        total = equivariance_residual(loaded.coupling, loaded.group, loaded.lag, loaded.plan)
        per_gen = generator_residuals(loaded.coupling, loaded.group, loaded.lag, loaded.plan)
        expected = [f"equivariance residual (all 4 elements): {format(total, '.17g')}"]
        expected += [f"generator {i}: commutator norm {format(r, '.17g')}"
                     for i, r in enumerate(per_gen)]
        assert main(["verify", "--model", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[:4] == expected

    def test_builds_each_reduced_action_once(self, k4_model, tmp_path, monkeypatch):
        path = tmp_path / "k4.json"
        save(k4_model[0], path)
        calls = []

        def counted(g, lag, plan):
            calls.append(g)
            return reduced_action(g, lag, plan)

        monkeypatch.setattr(solver, "reduced_action", counted)
        assert main(["verify", "--model", str(path)]) == 0
        assert len(calls) == 4

    def test_trivial_group_model_is_exactly_equivariant(self, tmp_path, capsys):
        from earc.groups import close_group
        m = manual_model(np.random.default_rng(0).standard_normal((1, 2)),
                         close_group([np.eye(1)]), 1, 1)
        path = tmp_path / "trivial.json"
        save(m, path)
        assert main(["verify", "--model", str(path)]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.endswith(" 0")


class TestAcf:
    def test_sinusoid_recommendation(self, tmp_path, capsys):
        t = np.arange(200)
        data = tmp_path / "sin.csv"
        write_series(data, np.sin(2 * np.pi * t / 20.0)[:, None])
        out = tmp_path / "acf.csv"
        assert main(["acf", "--data", str(data), "--max-lag", "10",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        lag = int(printed.strip().rsplit(" ", 1)[1])
        assert 3 <= lag <= 7
        table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assert table.shape == (10, 2)

    def test_constant_series(self, tmp_path, capsys):
        data = tmp_path / "const.csv"
        write_series(data, np.ones((100, 2)))
        assert main(["acf", "--data", str(data), "--max-lag", "10"]) == 0
        assert "recommended lag: 1" in capsys.readouterr().out

    def test_too_short_exits_2(self, tmp_path):
        data = tmp_path / "short.csv"
        write_series(data, np.ones((10, 1)))
        assert main(["acf", "--data", str(data), "--max-lag", "10"]) == 2


def _oracle_csv(header, index, values):
    fh = io.StringIO()
    fh.write(header + "\n")
    write_rows_by_value(fh, index, values)
    return fh.getvalue()


@pytest.fixture(scope="module")
def special_csv(comp_csv, tmp_path_factory):
    """The competition series with a -0.0 and a subnormal in its held-out part."""
    series = read_series(comp_csv)
    series[40, 0] = -0.0
    series[41, 1] = 5e-324
    path = tmp_path_factory.mktemp("special") / "special.csv"
    write_series(path, series)
    return path


class TestCsvRows:
    """CSV files match the value-by-value row loop byte for byte."""

    def test_special_and_random_values(self):
        rng = np.random.default_rng(30)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e16,
                   2.2250738585072014e-308, 1.7976931348623157e308]
        random = rng.standard_normal(2000) * 10.0 ** rng.uniform(-300, 300, 2000)
        values = np.concatenate([special * 2, random]).reshape(-1, 10)
        index = np.arange(7, 7 + values.shape[0])
        fh = io.StringIO()
        _write_rows(fh, index, values)
        expected = io.StringIO()
        write_rows_by_value(expected, index, values)
        assert fh.getvalue() == expected.getvalue()

    @pytest.mark.parametrize("rows", [0, CSV_BLOCK_ROWS, 2500])
    def test_row_blocks(self, rows):
        values = np.random.default_rng(rows).standard_normal((rows, 3))
        index = np.arange(rows)
        fh = io.StringIO()
        _write_rows(fh, index, values)
        expected = io.StringIO()
        write_rows_by_value(expected, index, values)
        assert fh.getvalue() == expected.getvalue()

    def test_generate(self, tmp_path):
        out = tmp_path / "lin.csv"
        assert main(["generate", "--system", "linear", "--matrix", "I3",
                     "--x0", "[-0.0, 5e-324, 1.25]", "--steps", "4",
                     "--out", str(out)]) == 0
        values = planted_linear(np.eye(3), np.array([-0.0, 5e-324, 1.25]), 4)
        text = out.read_text()
        assert text == _oracle_csv("t,ch1,ch2,ch3", range(5), values)
        assert text.splitlines()[1] == "0,-0,4.9406564584124654e-324,1.25"

    def test_forecast_with_reference(self, special_csv, z5_model_path, tmp_path):
        out = tmp_path / "fc.csv"
        assert main(["forecast", "--model", str(z5_model_path), "--data", str(special_csv),
                     "--train-count", "31", "--horizon", "100",
                     "--reference", str(special_csv), "--out", str(out)]) == 0
        series = read_series(special_csv)
        fc = rollout(load(z5_model_path), series[30], 100)
        errors = np.abs(fc.values - series[31:131])
        header = "t," + ",".join(f"ch{j}" for j in range(1, 6)) + "," + \
            ",".join(f"err{j}" for j in range(1, 6))
        expected = _oracle_csv(header, range(31, 131), np.hstack([fc.values, errors]))
        assert out.read_text() == expected

    def test_acf(self, special_csv, tmp_path):
        out = tmp_path / "acf.csv"
        assert main(["acf", "--data", str(special_csv), "--max-lag", "10",
                     "--out", str(out)]) == 0
        table = autocorrelation(read_series(special_csv), 10)
        header = "lag," + ",".join(f"ch{j}" for j in range(1, 6))
        assert out.read_text() == _oracle_csv(header, range(1, 11), table)
