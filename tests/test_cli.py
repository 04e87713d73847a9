import json

import numpy as np
import pytest

from earc.cli import main, read_series, write_series
from earc.model import load, predict_step, save
from earc.systems import builtin_rep
from tests.test_model import manual_model

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


class TestTrain:
    def test_report_and_model_file(self, z5_model_path, capsys):
        m = load(z5_model_path)
        assert m.fit.basis_dim == 21
        assert m.fit.equivariance_residual <= 1e-10

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
