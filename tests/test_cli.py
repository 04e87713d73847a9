import io
import json
import tracemalloc

import numpy as np
import pytest

from earc import cli, solver
from earc.cli import (_CONFIG_TYPES, CSV_BLOCK_ROWS, _write_rows, build_parser, main,
                      read_series, write_series)
from earc.embedding import build_data_matrices, compression_plan
from earc.errors import DivergenceError, ValidationError
from earc.groups import close_group, reduced_action
from earc.model import DIVERGENCE_CAP, autocorrelation, load, rollout, save
from earc.solver import equivariance_residual, equivariant_basis, generator_residuals
from earc.systems import HamiltonianConfig, builtin_rep, hamiltonian_generate, planted_linear
from tests.test_model import manual_model

from oracles import (hamiltonian_generate_by_array, predict_step, read_series_from_row_0,
                     save_group, unreduced_fit, write_rows_by_value)

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
               "train_count": 31, "nullspce_tol": 5,
               "out": str(tmp_path / "m.json")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert "nullspce_tol" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("key,value", [
        ("train_count", "31"), ("train_count", 31.5), ("train_count", True),
        ("sparsify", "3"), ("train_fraction", "0.5"), ("L", 1.7), ("p", 2.9)])
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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_removed_nullspace_tol_flag_exits_2(self, comp_csv, tmp_path, capsys, value):
        # the basis size is the character count and the fit's cutoff is
        # tensorops.LSTSQ_RTOL: no cutoff is settable
        out = tmp_path / "m.json"
        for flag in ("--nullspace-tol", "--lstsq-tol"):
            with pytest.raises(SystemExit) as info:
                main(["train", "--data", str(comp_csv), "--group", "z5", "--L", "1", "--p", "2",
                      "--train-count", "31", f"{flag}={value}", "--out", str(out)])
            assert info.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
            assert not out.exists()

    def test_removed_nullspace_tol_key_exits_2(self, comp_csv, tmp_path, capsys):
        for key in ("nullspace_tol", "lstsq_tol"):
            cfg = {"data": str(comp_csv), "group": "z5", "L": 1, "p": 2, "train_count": 31,
                   key: float("nan"), "out": str(tmp_path / "m.json")}
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(cfg))
            assert main(["train", "--config", str(cfg_path)]) == 2
            assert f"unknown config keys {key} " in capsys.readouterr().err
            assert not (tmp_path / "m.json").exists()

    def test_config_keys_are_the_train_options(self):
        # a removed option cannot survive in only one of the two places
        train = build_parser()._subparsers._group_actions[0].choices["train"]
        dests = {action.dest for action in train._actions if action.option_strings}
        assert set(_CONFIG_TYPES) == dests - {"help", "config"}

    @staticmethod
    def _options(comp_csv, tmp_path, key):
        """Options of a z5 run in which train option ``key`` has a value other
        than its default."""
        group_file = tmp_path / "z5.json"
        save_group(builtin_rep("z5"), group_file)
        options = {"data": str(comp_csv), "group": "z5", "L": 1, "p": 2, "train_count": 31,
                   "out": str(tmp_path / "m.json")}
        other = {"group_file": str(group_file), "L": 2, "p": 3, "train_count": 40,
                 "train_fraction": 0.1, "sparsify": 5, "max_lag": 2}
        if key == "group_file":
            del options["group"]
        if key == "train_fraction":
            del options["train_count"]
        if key == "max_lag":
            del options["L"]  # the lag is estimated
        options[key] = other.get(key, options.get(key))
        return options

    @staticmethod
    def _flags(options):
        return [item for key, value in options.items()
                for item in (f"--{key.replace('_', '-')}", str(value))]

    @pytest.mark.parametrize("key", list(_CONFIG_TYPES))
    def test_config_only_and_flags_only_runs_agree(self, comp_csv, tmp_path, capsys, key):
        options = self._options(comp_csv, tmp_path, key)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(options))
        out = tmp_path / "m.json"
        runs = []
        for argv in (["--config", str(cfg_path)], self._flags(options)):
            assert main(["train", *argv]) == 0
            runs.append((out.read_bytes(), capsys.readouterr().out))
            out.unlink()
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("key", list(_CONFIG_TYPES))
    def test_mistyped_config_value_exits_2_under_its_flag(self, comp_csv, tmp_path, capsys,
                                                          key):
        options = self._options(comp_csv, tmp_path, key)
        mistyped = {str: 5, int: "1", float: "0.5"}[_CONFIG_TYPES[key]]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: mistyped}))
        assert main(["train", *self._flags(options), "--config", str(cfg_path)]) == 2
        assert f"config key {key} " in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_count_disagreeing_with_the_svd_exits_3(self, comp_csv, tmp_path, capsys,
                                                    monkeypatch):
        counted = solver.degree_kernel_dims

        def one_more(group, lag, order):
            dims = counted(group, lag, order).copy()
            dims[1] += 1
            return dims

        monkeypatch.setattr(solver, "degree_kernel_dims", one_more)
        out = tmp_path / "m.json"
        assert main(["train", "--data", str(comp_csv), "--group", "z5", "--L", "1",
                     "--p", "2", "--train-count", "31", "--out", str(out)]) == 3
        assert "not the character count 22" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flags", "config", "flag-and-key"])
    def test_group_and_group_file_exit_2(self, comp_csv, tmp_path, capsys, source):
        group_file = tmp_path / "k4.json"
        save_group(builtin_rep("k4"), group_file)
        options = {"group": "z5", "group_file": str(group_file)}
        config = {key: value for key, value in options.items()
                  if source == "config" or (source == "flag-and-key" and key == "group_file")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        flags = self._flags({key: value for key, value in options.items() if key not in config})
        out = tmp_path / "m.json"
        assert main(["train", "--data", str(comp_csv), "--L", "1", "--p", "2", "--train-count",
                     "31", *flags, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "--group and --group-file are mutually exclusive" in capsys.readouterr().err
        assert not out.exists()

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

    @staticmethod
    def _exploding_model(tmp_path):
        group = builtin_rep("z5")
        # spectral radius 2 shift blows past the cap quickly but stays equivariant
        m = manual_model(np.hstack([2.0 * np.asarray(group.generators[0]),
                                    np.zeros((5, 16))]), group, 1, 2)
        model_path = tmp_path / "explode.json"
        save(m, model_path)
        return model_path

    def test_divergence_exits_4(self, tmp_path):
        model_path = self._exploding_model(tmp_path)
        seed_path = tmp_path / "seed.csv"
        write_series(seed_path, np.full((1, 5), 0.9))
        out = tmp_path / "fc.csv"
        code = main(["forecast", "--model", str(model_path), "--seed-csv",
                     str(seed_path), "--horizon", "100", "--out", str(out)])
        assert code == 4
        assert "# diverged after" in out.read_text()

    def test_divergence_at_the_first_step_with_reference_exits_4(self, comp_csv, tmp_path):
        model_path = self._exploding_model(tmp_path)
        seed_path = tmp_path / "seed.csv"
        write_series(seed_path, np.full((1, 5), 0.9 * DIVERGENCE_CAP))
        out = tmp_path / "fc.csv"
        code = main(["forecast", "--model", str(model_path), "--seed-csv", str(seed_path),
                     "--horizon", "5", "--reference", str(comp_csv), "--out", str(out)])
        assert code == 4
        assert out.read_text().splitlines()[1] == "# diverged after 0 of 5 steps"

    @pytest.mark.parametrize("flag", ["--data", "--train-count", "--train-fraction"])
    def test_seed_csv_with_a_prefix_option_exits_2(self, comp_csv, z5_model_path, tmp_path,
                                                    capsys, flag):
        value = {"--data": str(comp_csv), "--train-count": "31", "--train-fraction": "0.5"}[flag]
        out = tmp_path / "fc.csv"
        assert main(["forecast", "--model", str(z5_model_path), "--seed-csv", str(comp_csv),
                     flag, value, "--horizon", "5", "--reference", str(comp_csv),
                     "--out", str(out)]) == 2
        assert f"--seed-csv and {flag} are mutually exclusive" in capsys.readouterr().err
        assert not out.exists()

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


    @pytest.mark.parametrize("channels", [1, 2])
    def test_reference_with_wrong_channel_count_exits_2(self, comp_csv, z5_model_path,
                                                        tmp_path, capsys, channels):
        reference = tmp_path / "ref.csv"
        write_series(reference, read_series(comp_csv)[:, :channels])
        out = tmp_path / "fc.csv"
        assert main(["forecast", "--model", str(z5_model_path), "--data", str(comp_csv),
                     "--train-count", "31", "--horizon", "10", "--reference", str(reference),
                     "--out", str(out)]) == 2
        assert f"reference has {channels} channels, the model has 5" in capsys.readouterr().err
        assert not out.exists()

    def test_short_reference_compared_from_its_first_row(self, comp_csv, z5_model_path,
                                                         tmp_path, capsys):
        series = read_series(comp_csv)
        reference = tmp_path / "ref.csv"
        write_series(reference, series[:60])  # fewer than the 31 + 50 rows of the window
        out = tmp_path / "fc.csv"
        assert main(["forecast", "--model", str(z5_model_path), "--data", str(comp_csv),
                     "--train-count", "31", "--horizon", "50", "--reference", str(reference),
                     "--out", str(out)]) == 0
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(table[:, 6:], np.abs(table[:, 1:6] - series[:50]))
        write_series(reference, series[:40])
        assert main(["forecast", "--model", str(z5_model_path), "--data", str(comp_csv),
                     "--train-count", "31", "--horizon", "50", "--reference", str(reference),
                     "--out", str(out)]) == 2
        assert "reference has 40 rows, fewer than the 50 forecast steps" in capsys.readouterr().err


def _series_copies(src, keep, tmp_path):
    """The series file ``src``, a copy cut after its first ``keep`` data rows,
    and a copy whose later rows are each replaced by the malformed line x,y."""
    lines = src.read_text().splitlines(keepends=True)
    head = "".join(lines[:1 + keep])
    cut = tmp_path / f"cut{keep}.csv"
    cut.write_text(head)
    garbage = tmp_path / f"garbage{keep}.csv"
    garbage.write_text(head + "x,y\n" * (len(lines) - 1 - keep))
    return src, cut, garbage


def _train_argv(data, out, *prefix):
    return ["train", "--data", str(data), "--group", "z5", "--L", "1", "--p", "2",
            *prefix, "--out", str(out)]


def _forecast_argv(model, data, out, *prefix, reference=False):
    argv = ["forecast", "--model", str(model), "--data", str(data), *prefix,
            "--horizon", "50", "--out", str(out)]
    return argv + ["--reference", str(data)] if reference else argv


class TestRowsRead:
    """train and forecast parse a series only up to the last row they use."""

    @staticmethod
    def _outputs(argvs, out, capsys):
        """(exit code, output file bytes, stdout, stderr) of each run in turn."""
        results = []
        for argv in argvs:
            code = main(argv)
            results.append((code, out.read_bytes(), *capsys.readouterr()))
            out.unlink()
        return results

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_train_ignores_rows_after_the_prefix(self, comp_csv, tmp_path, capsys, source):
        out = tmp_path / "m.json"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train_count": 31}))
        prefix = (["--train-count", "31"] if source == "flag"
                  else ["--config", str(config)])
        runs = self._outputs([_train_argv(path, out, *prefix)
                              for path in _series_copies(comp_csv, 31, tmp_path)], out, capsys)
        assert runs[0][0] == 0
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("reference", [False, True])
    def test_forecast_ignores_rows_after_the_window(self, comp_csv, z5_model_path, tmp_path,
                                                    capsys, reference):
        out = tmp_path / "fc.csv"
        keep = 31 + 50 if reference else 31
        runs = self._outputs([_forecast_argv(z5_model_path, path, out, "--train-count", "31",
                                             reference=reference)
                              for path in _series_copies(comp_csv, keep, tmp_path)],
                             out, capsys)
        assert runs[0][0] == 0
        assert ("rmse overall" in runs[0][2]) == reference
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("reference", [False, True])
    def test_forecast_ignores_rows_before_the_window(self, comp_csv, z5_model_path, tmp_path,
                                                     capsys, reference):
        # the seed window is row 30, and the reference is compared from row 31
        lines = comp_csv.read_text().splitlines(keepends=True)
        garbage = tmp_path / "garbage.csv"
        garbage.write_text(lines[0] + "x,y\n" * 30 + "".join(lines[31:]))
        with pytest.raises(ValidationError, match="could not convert string 'x'"):
            read_series_from_row_0(garbage)
        out = tmp_path / "fc.csv"
        runs = self._outputs([_forecast_argv(z5_model_path, path, out, "--train-count", "31",
                                             reference=reference)
                              for path in (comp_csv, garbage)], out, capsys)
        assert runs[0][0] == 0
        assert ("rmse overall" in runs[0][2]) == reference
        assert runs[1] == runs[0]

    @pytest.mark.parametrize("row", [30, 45], ids=["seed-window", "reference-window"])
    def test_malformed_row_in_the_window_exits_2(self, comp_csv, z5_model_path, tmp_path,
                                                 capsys, monkeypatch, row):
        lines = comp_csv.read_text().splitlines(keepends=True)
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(lines[:1 + row] + ["x,y\n"] + lines[2 + row:]))
        out = tmp_path / "fc.csv"
        argv = _forecast_argv(z5_model_path, bad, out, "--train-count", "31", reference=True)
        errors = []
        for reader in (read_series, read_series_from_row_0):
            monkeypatch.setattr(cli, "read_series", reader)
            assert main(argv) == 2
            errors.append(capsys.readouterr().err)
            assert not out.exists()
        # the message of a read from row 0, which counts rows from the first data row
        assert f"malformed series CSV {bad}: the number of columns changed from 6 to 2 " \
            f"at row {row + 1};" in errors[0]
        assert errors[1] == errors[0]

    @pytest.mark.parametrize("prefix", [["--train-fraction", "0.1"], []],
                             ids=["fraction", "whole-series"])
    def test_row_total_needed_reads_every_row(self, comp_csv, z5_model_path, tmp_path, capsys,
                                              prefix):
        garbage = _series_copies(comp_csv, 31, tmp_path)[2]
        out = tmp_path / "out"
        argvs = [_forecast_argv(z5_model_path, garbage, out, *prefix)]
        if prefix:
            argvs.append(_train_argv(garbage, out, *prefix))
        for argv in argvs:
            assert main(argv) == 2
            assert "malformed series CSV" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("count,train_error,forecast_error", [
        (1000, "training prefix 1000 exceeds series length 426",
         "training prefix 1000 exceeds series length 426"),
        (0, "training prefix of 0 samples is too short", "training prefix 0 is shorter than lag 1"),
        (1, "training prefix of 1 samples is too short", None),
        (-1, "training prefix of -1 samples is too short",
         "training prefix -1 is shorter than lag 1"),
    ])
    def test_prefix_count_edge_cases(self, comp_csv, z5_model_path, tmp_path, capsys, count,
                                     train_error, forecast_error):
        out = tmp_path / "out"
        assert main(_train_argv(comp_csv, out, "--train-count", str(count))) == 2
        assert f"error: {train_error}\n" == capsys.readouterr().err
        code = main(_forecast_argv(z5_model_path, comp_csv, out, "--train-count", str(count)))
        if forecast_error is None:
            assert code == 0
            row = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)[0]
            expected = predict_step(load(z5_model_path), read_series(comp_csv)[0])
            assert row[0] == 1 and np.max(np.abs(row[1:] - expected)) <= 1e-15
        else:
            assert code == 2
            assert f"error: {forecast_error}\n" == capsys.readouterr().err

    def test_comment_and_blank_lines_do_not_count_as_rows(self, comp_csv, z5_model_path,
                                                          tmp_path, capsys):
        lines = comp_csv.read_text().splitlines(keepends=True)
        # inside the 31-row prefix, and a malformed row right after it
        commented = tmp_path / "commented.csv"
        commented.write_text("".join(lines[:11] + ["# a comment\n"] + lines[11:21] + ["\n"]
                                     + lines[21:32] + ["x,y\n"]))
        out = tmp_path / "out"
        for argv_for in (lambda data: _train_argv(data, out, "--train-count", "31"),
                         lambda data: _forecast_argv(z5_model_path, data, out,
                                                     "--train-count", "31")):
            runs = self._outputs([argv_for(comp_csv), argv_for(commented)], out, capsys)
            assert runs[0][0] == 0 and runs[0][3] == ""
            assert runs[1] == runs[0]


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

    @pytest.mark.parametrize("key,value", [("p", 2.5), ("L", True), ("version", 1.9),
                                           ("n", 5.0), ("rep_index", 0.0),
                                           ("rep_index", False)])
    def test_non_integer_header_exits_3(self, z5_model_path, tmp_path, capsys, key, value):
        payload = json.loads(z5_model_path.read_text())
        if key == "rep_index":
            payload[key][0] = value  # the first representative is the integer 0
        else:
            payload[key] = value
        bad = tmp_path / "mistyped.json"
        bad.write_text(json.dumps(payload))
        assert main(["verify", "--model", str(bad)]) == 3
        err = capsys.readouterr().err
        assert "must be an integer" in err and "PASS" not in err

    @pytest.mark.parametrize("tamper", ["empty", "non-orthogonal", "nan"])
    def test_invalid_generators_exit_3(self, z5_model_path, tmp_path, capsys, tamper):
        payload = json.loads(z5_model_path.read_text())
        if tamper == "empty":
            payload["generators"] = []
        else:
            payload["generators"][0][0] = 2.0 if tamper == "non-orthogonal" else float("nan")
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(payload))
        assert main(["verify", "--model", str(bad)]) == 3
        assert "invalid generators" in capsys.readouterr().err

    def test_non_orthogonal_group_file_exits_2(self, comp_csv, tmp_path, capsys):
        generator = builtin_rep("z5").generators[0].ravel().tolist()
        generator[0] = 2.0
        group = tmp_path / "group.json"
        group.write_text(json.dumps({"n": 5, "generators": [generator]}))
        assert main(["train", "--data", str(comp_csv), "--group-file", str(group), "--L", "1",
                     "--p", "2", "--train-count", "31", "--out", str(tmp_path / "m.json")]) == 2
        assert "not orthogonal" in capsys.readouterr().err

    def test_undecodable_file_exits_2(self, tmp_path):
        bad = tmp_path / "binary.json"
        bad.write_bytes(UNDECODABLE)
        assert main(["verify", "--model", str(bad)]) == 2

    @pytest.mark.parametrize("threshold", ["nan", "-1"])
    def test_bad_threshold_exits_2(self, z5_model_path, capsys, threshold):
        assert main(["verify", "--model", str(z5_model_path), "--threshold", threshold]) == 2
        captured = capsys.readouterr()
        assert "--threshold must be finite and >= 0" in captured.err
        assert "PASS" not in captured.out and "FAIL" not in captured.out

    @pytest.mark.parametrize("kept", [3, 0], ids=["truncated", "empty"])
    def test_wrong_coefficient_count_exits_3(self, comp_csv, z5_model_path, tmp_path, capsys,
                                             kept):
        payload = json.loads(z5_model_path.read_text())
        assert len(payload["fit"]["coefficients"]) == 21
        payload["fit"]["coefficients"] = payload["fit"]["coefficients"][:kept]
        bad = tmp_path / "cut.json"
        bad.write_text(json.dumps(payload))
        assert main(["verify", "--model", str(bad)]) == 3
        assert "expected (21,)" in capsys.readouterr().err
        out = tmp_path / "fc.csv"
        assert main(["forecast", "--model", str(bad), "--data", str(comp_csv),
                     "--train-count", "31", "--horizon", "3", "--out", str(out)]) == 3
        assert not out.exists()

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


@pytest.fixture(scope="module")
def k4_long(tmp_path_factory):
    """The k4-long benchmark's series (21,001 rows) and its L=3, p=3 model
    trained on the first 20,000 rows."""
    root = tmp_path_factory.mktemp("k4long")
    data, model = root / "ham.csv", root / "k4.json"
    assert main(["generate", "--system", "hamiltonian", "--steps", "21000",
                 "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--group", "k4", "--L", "3", "--p", "3",
                 "--train-count", "20000", "--out", str(model)]) == 0
    return data, model


NON_DATA_LINES = ["", "#", "# a comment", "#1,2,3", "#x,y,z", "# , ,"]
"""Lines that ``np.loadtxt`` does not count as rows."""


def _outcome(read, *args):
    """Shape and bytes of ``read(*args)``, or the type and message of its error."""
    try:
        data = read(*args)
    except (ValidationError, FileNotFoundError) as exc:
        return type(exc), str(exc)
    return data.shape, data.dtype, data.tobytes()


def _data_line(rng, i):
    values = rng.standard_normal(2) * 10.0 ** rng.integers(-8, 8, 2)
    if rng.random() < 0.05:
        values[rng.integers(2)] = rng.choice([np.inf, -np.inf, np.nan, -0.0, 5e-324])
    return f"{i}," + ",".join(format(v, ".17g") for v in values)


def _write_lines(path, lines, rng, ending):
    """``lines`` joined by ``ending`` ("mixed": a random one per line), with or
    without a final line ending."""
    endings = ["\n", "\r\n", "\r"]
    text = "".join(line + (rng.choice(endings) if ending == "mixed" else ending)
                   for line in lines)
    if rng.random() < 0.5:
        text = text.rstrip("\r\n")
    path.write_bytes(text.encode())


# numpy warns on a read of max_rows=0 ("." stands for the ":" the filter syntax reserves)
@pytest.mark.filterwarnings("ignore:loadtxt. input contained no data:UserWarning")
class TestSeekRead:
    """``read_series`` with a first row skips the lines before it unparsed, and
    returns what a read from row 0 followed by a slice returns."""

    @staticmethod
    def _assert_reads_agree(path, rows, max_rows_each=(None, 0, 1, 3)):
        for first_row in sorted({0, 1, rows // 2, rows - 1, rows, rows + 3}):
            for max_rows in max_rows_each:
                expected = _outcome(read_series_from_row_0, path, max_rows, first_row)
                assert _outcome(read_series, path, max_rows, first_row) == expected, \
                    (first_row, max_rows)

    @pytest.mark.parametrize("seed", range(24))
    def test_random_files_match_a_read_from_row_0(self, tmp_path, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        monkeypatch.setattr(cli, "SCAN_BLOCK_CHARS",
                            int(rng.choice([2, 3, 5, 16, 64, cli.SCAN_BLOCK_CHARS])))
        rows = int(rng.integers(1, 60))
        lines = ["t,ch1,ch2"]
        for i in range(rows):
            while rng.random() < 0.25:
                lines.append(rng.choice(NON_DATA_LINES))
            lines.append(_data_line(rng, i))
        while rng.random() < 0.25:
            lines.append(rng.choice(NON_DATA_LINES))
        path = tmp_path / "series.csv"
        _write_lines(path, lines, rng, rng.choice(["\n", "\r\n", "\r", "mixed"]))
        self._assert_reads_agree(path, rows)

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_every_block_boundary_around_the_first_row(self, tmp_path, monkeypatch, ending):
        # non-data lines just before the rows read, so that across the block
        # sizes every line straddles a boundary and one falls at every line start
        rng = np.random.default_rng(7)
        lines = ["t,ch1,ch2", "0,1,2", "", "#", "1,3,4", "# c", "", "2,5,6", "3,7,8",
                 "#4,9,9", "4,10,11", "", "", "5,12,13"]
        path = tmp_path / "series.csv"
        _write_lines(path, lines, rng, ending)
        size = len(path.read_bytes())
        for block in range(1, size + 2):
            monkeypatch.setattr(cli, "SCAN_BLOCK_CHARS", block)
            self._assert_reads_agree(path, 6, (None, 1))

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_lines_at_the_scan_blocks_of_a_long_file(self, tmp_path, ending):
        """A comment straddles the end of the first scan block and an empty
        line starts at the end of a later, full-size one; the rows after them
        are read first."""
        # where the scan's blocks end, counted from the line after the header
        ends, size = [], cli.SCAN_BLOCK_CHARS // 16
        while len(ends) < 6:
            ends.append(sum(ends[-1:]) + size)
            size = min(2 * size, cli.SCAN_BLOCK_CHARS)
        rng = np.random.default_rng(11)
        lines, offset, rows, targets = ["t,ch1,ch2"], 0, 0, []
        for boundary in (ends[0], ends[5]):
            while offset + len(_data_line(rng, rows)) + 1 < boundary - 40:
                lines.append(_data_line(rng, rows))
                offset += len(lines[-1]) + 1  # a line ending reads as one "\n"
                rows += 1
            if boundary == ends[0]:
                extra = ["#" + "-" * 80]
            else:
                extra = ["#" + "-" * (boundary - offset - 2), ""]
            lines += extra
            offset += sum(len(line) + 1 for line in extra)
            assert offset > boundary if boundary == ends[0] else offset == boundary + 1
            targets.append(rows)
        lines += [_data_line(rng, rows + i) for i in range(5)]
        path = tmp_path / "series.csv"
        _write_lines(path, lines, rng, ending)
        for first_row in targets + [targets[0] - 1, targets[1] - 1, rows + 4, rows + 5]:
            for max_rows in (None, 1, 2):
                assert _outcome(read_series, path, max_rows, first_row) == \
                    _outcome(read_series_from_row_0, path, max_rows, first_row)

    @pytest.mark.parametrize("bad", ["x,y,z", "   ", " # indented", "1,2"])
    def test_rows_before_the_first_row_are_not_parsed(self, tmp_path, bad):
        # a line that starts with whitespace is a row to numpy, and fails to parse
        good = ["t,ch1,ch2"] + [f"{i},{i},{-i}" for i in range(8)]
        paths = tmp_path / "good.csv", tmp_path / "bad.csv"
        paths[0].write_text("\n".join(good) + "\n")
        paths[1].write_text("\n".join(good[:3] + [bad] + good[4:]) + "\n")
        with pytest.raises(ValidationError):
            read_series_from_row_0(paths[1])
        assert np.array_equal(read_series(paths[1], 2, first_row=3),
                              read_series_from_row_0(paths[0], 2, first_row=3))

    @pytest.mark.parametrize("mode", ["consistent", "free"])
    def test_k4_long_forecast_matches_a_read_from_row_0(self, k4_long, tmp_path, capsys,
                                                        monkeypatch, mode):
        data, model = k4_long
        scanned, scan = [], cli._line_of_row

        def line_of_row(path, row):
            scanned.append(scan(path, row))
            return scanned[-1]

        monkeypatch.setattr(cli, "_line_of_row", line_of_row)
        out = tmp_path / "fc.csv"
        argv = ["forecast", "--model", str(model), "--data", str(data), "--train-count", "20000",
                "--horizon", "1000", "--reference", str(data), "--apply-group-element", "1",
                "--mode", mode, "--out", str(out)]
        runs = []
        for reader in (read_series, read_series_from_row_0):
            monkeypatch.setattr(cli, "read_series", reader)
            runs.append((main(argv), out.read_bytes(), *capsys.readouterr()))
        # the seed window starts on line 19,998 (row 19,997) and the reference on 20,001
        assert scanned == [19998, 20001]
        assert runs[0][0] == 0 and "rmse overall" in runs[0][2]
        assert runs[1] == runs[0]

    def test_seek_read_memory(self, k4_long):
        data, _ = k4_long
        # a few block-sized buffers at once: the block, the text it is joined
        # to, its UTF-8 bytes and the newline mask, and numpy's own read buffer
        bound = 10 * cli.SCAN_BLOCK_CHARS
        assert data.stat().st_size > bound  # holding the whole file exceeds it
        for max_rows, first_row in ((3, 19997), (1000, 20000)):
            tracemalloc.start()
            try:
                rows = read_series(data, max_rows, first_row)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rows.shape == (max_rows, 2)
            assert peak < bound, (first_row, peak)
