import errno
import io
import json
import os
import re
import signal
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from earc import cli, solver, systems, tensorops
from earc.cli import (_CONFIG_TYPES, CSV_BLOCK_ROWS, PARALLEL_ENTRIES, _write_rows, build_parser,
                      main, read_series, write_series)
from earc.embedding import build_data_matrices, compression_plan
from earc.errors import (CorruptModelError, DivergenceError, EarcError, NonFiniteGroupError,
                         NumericalError, ValidationError)
from earc.groups import action_rows, close_group
from earc.model import DIVERGENCE_CAP, autocorrelation, load, rollout, save, train
from earc.solver import equivariance_residual, equivariant_basis, generator_residuals
from earc.systems import HamiltonianConfig, builtin_rep, hamiltonian_generate, planted_linear
from tests.test_model import manual_model, single_channel_payload, v1_payload

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


GENERATE_OPTIONS = {"hamiltonian": [["--dt", "0.01"], ["--q0", "0.5"], ["--p0", "0.0"],
                                    ["--printed-ic"]],
                    "competition": [["--p0-vec", "[0.2, 0.35, 0.5, 0.65, 0.8]"],
                                    ["--growth", "0.376"]],
                    "linear": [["--matrix", "I2"], ["--x0", "[1.0, 1.0]"]]}
"""The options that only one ``generate --system`` takes, each with a value."""


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

    @pytest.mark.parametrize("system,explicit", [
        ("hamiltonian", ["--dt", "0.01", "--q0", "0.5", "--p0", "0.0", "--steps", "600"]),
        ("competition", ["--steps", "425", "--p0-vec", "[0.2, 0.35, 0.5, 0.65, 0.8]",
                         "--growth", "0.376"])])
    def test_no_options_equal_the_config_defaults_given(self, system, explicit, tmp_path):
        bare, given = tmp_path / "bare.csv", tmp_path / "given.csv"
        assert main(["generate", "--system", system, "--out", str(bare)]) == 0
        assert main(["generate", "--system", system, *explicit, "--out", str(given)]) == 0
        assert bare.read_bytes() == given.read_bytes()

    def test_defaults_come_from_the_config_dataclasses(self, tmp_path, monkeypatch):
        @dataclass(frozen=True)
        class Config(systems.HamiltonianConfig):
            q0: float = 0.25
            dt: float = 0.02
            steps: int = 7

        monkeypatch.setattr(systems, "HamiltonianConfig", Config)
        out = tmp_path / "ham.csv"
        assert main(["generate", "--system", "hamiltonian", "--out", str(out)]) == 0
        assert np.array_equal(read_series(out), hamiltonian_generate(Config()))
        assert read_series(out).shape == (8, 2)

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


    def test_identity_matrix_at_and_past_the_entry_cap(self, tmp_path, capsys, monkeypatch):
        """``--matrix I<n>`` is refused before the identity is built when n^2
        entries pass the cap."""
        monkeypatch.setattr(tensorops, "ENTRY_CAP", 100)
        at, past = tmp_path / "i10.csv", tmp_path / "i11.csv"
        assert main(["generate", "--system", "linear", "--matrix", "I10", "--steps", "3",
                     "--out", str(at)]) == 0
        assert np.array_equal(read_series(at), np.ones((4, 10)))
        capsys.readouterr()
        code, err = _code_and_err(["generate", "--system", "linear", "--matrix", "I11",
                                   "--steps", "3", "--out", past], capsys)
        assert code == 2
        assert err == "error: result would hold 121 entries, exceeding the cap of 100\n"
        assert not past.exists()

    @pytest.mark.parametrize("size", ["9" * 30, "9" * 5000, "\u00b2"],
                             ids=["30 nines", "5000 nines", "superscript two"])
    def test_identity_size_that_cannot_be_built_exits_2(self, size, tmp_path, capsys):
        """Too many entries (DimensionOverflowError), a digit string past
        int's digit limit or a digit that is not decimal (ValidationError)."""
        out = tmp_path / "lin.csv"
        code, err = _code_and_err(["generate", "--system", "linear", "--matrix", "I" + size,
                                   "--out", out], capsys)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists()

    @pytest.mark.parametrize("system,option", [
        (system, option) for system in GENERATE_OPTIONS
        for other, options in GENERATE_OPTIONS.items() if other != system for option in options],
        ids=lambda value: value if isinstance(value, str) else value[0])
    def test_option_of_another_system_exits_2(self, tmp_path, capsys, system, option):
        out = tmp_path / "gen.csv"
        code, err = _code_and_err(["generate", "--system", system, "--steps", "5", *option,
                                   "--out", out], capsys)
        assert code == 2
        assert err == f"error: --system {system} takes no {option[0]}\n"
        assert not out.exists()
        # every option of the system itself is taken
        own = [arg for given in GENERATE_OPTIONS[system] for arg in given
               if given != ["--printed-ic"]]
        assert main(["generate", "--system", system, "--steps", "5", *own, "--out", str(out)]) == 0

    @pytest.mark.parametrize("start", [["--q0", "3"], ["--p0", "0.5"],
                                       ["--q0", "3", "--p0", "0.5"]],
                             ids=["q0", "p0", "both"])
    def test_printed_start_with_a_given_start_exits_2(self, tmp_path, capsys, start):
        out = tmp_path / "gen.csv"
        code, err = _code_and_err(["generate", "--system", "hamiltonian", "--printed-ic",
                                   "--steps", "5", *start, "--out", out], capsys)
        assert code == 2
        assert err == "error: --printed-ic takes no " + ", ".join(start[::2]) + "\n"
        assert not out.exists()
        assert main(["generate", "--system", "hamiltonian", "--printed-ic", "--dt", "0.02",
                     "--steps", "5", "--out", str(out)]) == 0

    @pytest.mark.parametrize("flags,message", [
        (["--system", "competition", "--steps", "-1"], "steps must be >= 0, got -1"),
        (["--system", "linear", "--steps", "-1"], "steps must be >= 0, got -1"),
        (["--system", "competition", "--p0-vec", "[0.5, 0.5]"],
         "inconsistent dims: p (2,), r (5,), N (5, 5)"),
        (["--system", "competition", "--p0-vec", "[]"],
         "inconsistent dims: p (0,), r (5,), N (5, 5)"),
        (["--system", "competition", "--p0-vec", "[[0.5]]"], "vector spec '[[0.5]]' is not 1-D"),
        (["--system", "linear", "--matrix", "I3", "--x0", "[1, 2]"],
         "matrix (3, 3) does not act on start of dim 2"),
        (["--system", "linear", "--x0", "[]"], "x0 must be 1-D and non-empty, got shape (0,)"),
        (["--system", "linear", "--matrix", "[[]]"],
         "a must be 2-D and non-empty, got shape (1, 0)"),
    ], ids=["competition-steps", "linear-steps", "short-p0", "empty-p0", "2-D-p0",
            "matrix-against-x0", "empty-x0", "empty-matrix"])
    def test_invalid_steps_or_start_exits_2(self, tmp_path, capsys, flags, message):
        out = tmp_path / "gen.csv"
        assert _code_and_err(["generate", *flags, "--out", out], capsys) == (
            2, f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("system", ["hamiltonian", "competition", "linear"])
    def test_steps_past_the_entry_cap_exit_2(self, tmp_path, capsys, system):
        out = tmp_path / "gen.csv"
        code, err = _code_and_err(["generate", "--system", system, "--steps", 10**13,
                                   "--out", out], capsys)
        assert code == 2 and "exceeding the cap" in err and "Traceback" not in err
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
        # model files store the coupling, not the coefficients it was assembled from
        trained = train(read_series(data), builtin_rep("k4"), 3, 3, sparsify=20)
        assert np.array_equal(load(out).coupling, trained.coupling)
        support = np.flatnonzero(trained.fit.coefficients)
        assert support.size == 20
        assert np.array_equal(support, np.flatnonzero(coeffs))

    @pytest.mark.parametrize("order", [10**6, 10**8])
    def test_order_past_the_entry_cap_exits_2(self, comp_csv, tmp_path, capsys, order):
        # n^(p+1) would have too many digits to format, or take minutes to form
        out = tmp_path / "m.json"
        code, err = _code_and_err(["train", "--data", comp_csv, "--group", "z5", "--L", "1",
                                   "--p", order, "--train-count", "31", "--out", out], capsys)
        assert code == 2 and f"cap of {tensorops.ENTRY_CAP} entries" in err
        assert not out.exists()

    def test_single_channel_order_past_the_tuple_cap_exits_2(self, tmp_path, capsys):
        data = tmp_path / "line.csv"
        write_series(data, np.linspace(0.1, 0.9, 20)[:, None])
        group = tmp_path / "sign.json"
        group.write_text(json.dumps({"n": 1, "generators": [[-1.0]]}))
        out = tmp_path / "m.json"
        code, err = _code_and_err(["train", "--data", data, "--group-file", group, "--L", "1",
                                   "--p", 10**5, "--train-count", "20", "--out", out], capsys)
        assert code == 2 and "table more than the cap" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("dropped,message", [
        ("--train-count", "one of --train-count / --train-fraction is required"),
        ("--group", "one of --group / --group-file is required"),
        ("--data", "--data is required"),
    ])
    def test_missing_required_option_exits_2(self, comp_csv, tmp_path, capsys, dropped,
                                             message):
        out = tmp_path / "m.json"
        options = {"--data": comp_csv, "--group": "z5", "--L": "1", "--p": "2",
                   "--train-count": "31", "--out": out}
        del options[dropped]
        argv = ["train", *(item for pair in options.items() for item in pair)]
        assert _code_and_err(argv, capsys) == (2, f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--sparsify", "0", "sparsify must be >= 1, got 0"),
        ("--L", "0", "need lag >= 1 and order >= 1, got 0, 2"),
        ("--p", "0", "need lag >= 1 and order >= 1, got 1, 0"),
    ], ids=["sparsify", "L", "p"])
    def test_value_below_one_exits_2(self, comp_csv, tmp_path, capsys, flag, value, message):
        out = tmp_path / "m.json"
        options = {"--data": comp_csv, "--group": "z5", "--L": "1", "--p": "2",
                   "--train-count": "31", "--out": out, flag: value}
        argv = ["train", *(item for pair in options.items() for item in pair)]
        assert _code_and_err(argv, capsys) == (2, f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("content", ["[1, 2]", "3", '"z5"', "null"])
    def test_config_that_is_not_an_object_exits_2(self, comp_csv, tmp_path, capsys, content):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(content)
        out = tmp_path / "m.json"
        code, err = _code_and_err(["train", "--data", comp_csv, "--group", "z5", "--L", "1",
                                   "--p", "2", "--train-count", "31", "--config", cfg_path,
                                   "--out", out], capsys)
        assert (code, err) == (2, f"error: config {cfg_path} must hold a JSON object\n")
        assert not out.exists()

    def test_config_lag_auto_matches_the_flag(self, comp_csv, tmp_path, capsys):
        out = tmp_path / "m.json"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"data": str(comp_csv), "group": "z5", "L": "auto",
                                        "max_lag": 2, "p": 2, "train_count": 31,
                                        "out": str(out)}))
        runs = []
        for argv in (["--config", str(cfg_path)],
                     ["--data", str(comp_csv), "--group", "z5", "--L", "auto", "--max-lag", "2",
                      "--p", "2", "--train-count", "31", "--out", str(out)]):
            assert main(["train", *argv]) == 0
            runs.append((out.read_bytes(), capsys.readouterr().out))
            out.unlink()
        assert runs[0] == runs[1]
        assert "estimated lag L=" in runs[0][1]

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
        err = capsys.readouterr().err
        assert "degree-1 block's components" in err and "not the character count 6" in err
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

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_horizon_below_one_exits_2(self, comp_csv, z5_model_path, tmp_path, capsys,
                                       horizon):
        out = tmp_path / "fc.csv"
        code, err = _code_and_err(["forecast", "--model", z5_model_path, "--data", comp_csv,
                                   "--train-count", "31", "--horizon", horizon,
                                   "--out", out], capsys)
        assert (code, err) == (2, f"error: horizon must be >= 1, got {horizon}\n")
        assert not out.exists()

    def test_seed_of_another_channel_count_exits_2(self, comp_csv, tmp_path, capsys):
        model_path = tmp_path / "k4.json"
        save(manual_model(np.zeros((10, 11)), builtin_rep("k4"), 5, 1), model_path)
        out = tmp_path / "fc.csv"
        code, err = _code_and_err(["forecast", "--model", model_path, "--seed-csv", comp_csv,
                                   "--horizon", "5", "--out", out], capsys)
        assert (code, err) == (2, "error: seed dim 25 does not match n*lag=10\n")
        assert not out.exists()

    @pytest.mark.parametrize("horizon", [10**13, 10**30])
    def test_horizon_past_the_entry_cap_exits_2(self, comp_csv, z5_model_path, tmp_path,
                                                capsys, horizon):
        out = tmp_path / "fc.csv"
        code, err = _code_and_err(["forecast", "--model", z5_model_path, "--data", comp_csv,
                                   "--train-count", "31", "--horizon", horizon, "--out", out],
                                  capsys)
        assert code == 2 and "exceeding the cap" in err
        assert not out.exists()

    def test_allocation_failure_exits_2(self, comp_csv, z5_model_path, tmp_path, capsys,
                                        monkeypatch):
        # a horizon under the entry cap can still need more memory than the host has
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 16.0 GiB")
        monkeypatch.setattr("earc.model.rollout", fail)
        out = tmp_path / "fc.csv"
        code, err = _code_and_err(["forecast", "--model", z5_model_path, "--data", comp_csv,
                                   "--train-count", "31", "--horizon", 2**28, "--out", out],
                                  capsys)
        assert (code, err) == (2, "error: Unable to allocate 16.0 GiB\n")
        assert not out.exists()

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

    def test_seed_csv_shorter_than_the_lag_exits_2(self, tmp_path, capsys):
        model_path = tmp_path / "lag2.json"
        save(manual_model(np.zeros((10, 11)), builtin_rep("z5"), 2, 1), model_path)
        seed_path = tmp_path / "seed.csv"
        out = tmp_path / "fc.csv"
        argv = ["forecast", "--model", model_path, "--seed-csv", seed_path, "--horizon", "5",
                "--out", out]
        write_series(seed_path, np.ones((1, 5)))
        assert _code_and_err(argv, capsys) == (
            2, "error: seed series has 1 rows, need at least 2\n")
        assert not out.exists()
        write_series(seed_path, np.ones((2, 5)))
        assert _code_and_err(argv, capsys) == (0, "")

    @pytest.mark.parametrize("index", [5, -1])
    def test_group_element_out_of_range_exits_2(self, comp_csv, z5_model_path, tmp_path,
                                                capsys, index):
        out = tmp_path / "fc.csv"
        code, err = _code_and_err(["forecast", "--model", z5_model_path, "--data", comp_csv,
                                   "--train-count", "31", "--horizon", "5",
                                   "--apply-group-element", index, "--out", out], capsys)
        assert (code, err) == (2, f"error: group element index {index} outside 0..4\n")
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

    @pytest.mark.parametrize("fraction", ["0", "-0.5", "1.5", "nan"])
    def test_train_fraction_outside_the_unit_interval_exits_2(self, comp_csv, z5_model_path,
                                                              tmp_path, capsys, fraction):
        out = tmp_path / "out"
        message = f"error: train fraction must be in (0, 1], got {float(fraction)}\n"
        for argv in (_train_argv(comp_csv, out, "--train-fraction", fraction),
                     _forecast_argv(z5_model_path, comp_csv, out, "--train-fraction", fraction)):
            assert _code_and_err(argv, capsys) == (2, message)
            assert not out.exists()

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

    @pytest.mark.parametrize("key,value,message", [
        ("W", 3, "W must be a JSON list, got int"),
        ("rep_index", 2**70, "each entry of rep_index must be a finite int64"),
    ], ids=["scalar-W", "rep_index-past-int64"])
    def test_malformed_entry_exits_3(self, z5_model_path, tmp_path, capsys, key, value,
                                     message):
        payload = json.loads(z5_model_path.read_text())
        if key == "rep_index":
            payload[key][0] = value
        else:
            payload[key] = value
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(payload))
        assert _code_and_err(["verify", "--model", bad], capsys) == (
            3, f"numerical failure: model file {bad} is malformed: {message}\n")

    @pytest.mark.parametrize("changes", [{"p": 50}, {"L": 1000000}, {"L": 200, "p": 3},
                                         {"L": 10**9, "p": 10**9}],
                             ids=["p=50", "L=1e6", "L=200", "both-1e9"])
    def test_dimensions_unlike_the_stored_features_exit_3(self, z5_model_path, tmp_path,
                                                          capsys, monkeypatch, changes):
        # the feature count is checked before the plan's monomials are tabulated
        payload = json.loads(z5_model_path.read_text())
        payload.update(changes)
        bad = tmp_path / "resized.json"
        bad.write_text(json.dumps(payload))
        planned = []
        monkeypatch.setattr("earc.model.compression_plan", lambda *args: planned.append(args))
        assert main(["verify", "--model", str(bad)]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "monomial representatives" in err
        assert planned == []

    @pytest.mark.parametrize("tamper,message", [
        ({"L": 0}, "invalid dimensions L=0, p=2"),
        ({"p": 0}, "invalid dimensions L=1, p=0"),
        ({"L": -1, "p": -3}, "invalid dimensions L=-1, p=-3"),
        ("rep_index", "stored monomial representatives do not match the plan"),
        ("W", "coupling has 104 entries, expected 105"),
    ], ids=["L=0", "p=0", "both-negative", "swapped-rep_index", "short-W"])
    def test_invalid_dimensions_or_tables_exit_3(self, z5_model_path, tmp_path, capsys,
                                                 tamper, message):
        payload = json.loads(z5_model_path.read_text())
        if tamper == "rep_index":
            reps = payload["rep_index"]
            reps[1], reps[2] = reps[2], reps[1]
        elif tamper == "W":
            del payload["W"][-1]
        else:
            payload.update(tamper)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(CorruptModelError, match=re.escape(message)):
            load(bad)
        assert _code_and_err(["verify", "--model", bad], capsys) == (
            3, f"numerical failure: {message}\n")

    def test_single_channel_order_past_the_tuple_cap_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "huge-p.json"
        bad.write_text(json.dumps(single_channel_payload(10**5)))
        assert main(["verify", "--model", str(bad)]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "table more than the cap" in err

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
        payload = v1_payload(z5_model_path)
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

    @pytest.mark.parametrize("basis_dim,message", [
        (20, "expected (21,)"), (True, "must be an integer"), (21.0, "must be an integer"),
        ("21", "must be an integer"), (None, "'basis_dim'"),
    ], ids=["wrong", "true", "float", "string", "missing"])
    def test_bad_basis_dim_exits_3(self, comp_csv, z5_model_path, tmp_path, capsys,
                                   basis_dim, message):
        payload = json.loads(z5_model_path.read_text())
        if basis_dim is None:
            del payload["fit"]["basis_dim"]
        else:
            payload["fit"]["basis_dim"] = basis_dim
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        code, err = _code_and_err(["verify", "--model", bad], capsys)
        assert code == 3 and err.startswith("numerical failure: ") and message in err
        out = tmp_path / "fc.csv"
        code, err = _code_and_err(["forecast", "--model", bad, "--data", comp_csv,
                                   "--train-count", "31", "--horizon", "3", "--out", out],
                                  capsys)
        assert code == 3 and message in err
        assert not out.exists()

    def test_version_1_file_gives_the_same_outputs(self, comp_csv, z5_model_path, tmp_path,
                                                   capsys):
        v1 = tmp_path / "v1.json"
        v1.write_text(json.dumps(v1_payload(z5_model_path)) + "\n")
        outputs = []
        for path in (z5_model_path, v1):
            assert main(["verify", "--model", str(path)]) == 0
            report = capsys.readouterr().out
            fc = tmp_path / f"{path.stem}.csv"
            assert main(["forecast", "--model", str(path), "--data", str(comp_csv),
                         "--train-count", "31", "--horizon", "50", "--apply-group-element",
                         "2", "--out", str(fc)]) == 0
            capsys.readouterr()
            outputs.append((report, fc.read_bytes()))
        assert outputs[0] == outputs[1]

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

    def test_builds_every_action_in_one_call(self, k4_model, tmp_path, monkeypatch):
        # one action_rows call covers the 4 elements, so verify builds no basis
        # constraint: its rows would be a second call
        path = tmp_path / "k4.json"
        save(k4_model[0], path)
        stacks = []

        def rows(elements, lag, plan):
            stacks.append(len(elements))
            return action_rows(elements, lag, plan)

        monkeypatch.setattr(solver, "action_rows", rows)
        assert main(["verify", "--model", str(path)]) == 0
        assert stacks == [4]

    def test_trivial_group_model_is_exactly_equivariant(self, tmp_path, capsys):
        from earc.groups import close_group
        m = manual_model(np.random.default_rng(0).standard_normal((1, 2)),
                         close_group([np.eye(1)]), 1, 1)
        path = tmp_path / "trivial.json"
        save(m, path)
        assert main(["verify", "--model", str(path)]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.endswith(" 0")


class TestOnePlanPerCommand:
    """Each command builds its compression plan once and passes it down."""

    @pytest.mark.parametrize("command", ["train", "forecast", "verify"])
    def test_one_plan(self, comp_csv, z5_model_path, tmp_path, monkeypatch, command):
        args = {"train": ["--data", comp_csv, "--group", "z5", "--L", 1, "--p", 2,
                          "--train-count", 31, "--out", tmp_path / "m.json"],
                "forecast": ["--model", z5_model_path, "--data", comp_csv, "--train-count", 31,
                             "--horizon", 5, "--out", tmp_path / "fc.csv"],
                "verify": ["--model", z5_model_path]}[command]
        # every module-level binding in earc, as the benchmark's tracer wraps them
        planned = []
        plan = compression_plan

        def counted(dim_in, order):
            planned.append((dim_in, order))
            return plan(dim_in, order)

        for name, module in list(sys.modules.items()):
            if name == "earc" or name.startswith("earc."):
                for attr, value in list(vars(module).items()):
                    if value is plan:
                        monkeypatch.setattr(module, attr, counted)
        assert main([command, *map(str, args)]) == 0
        assert planned == [(5, 2)]


class TestParser:
    """``main`` builds only the arguments of the command it runs; what it
    prints and the exit status must be those of the parser with every
    command's arguments."""

    CASES = ([["--help"], []] + [[name, "--help"] for name in cli.COMMANDS]
             # a missing required option; train's are checked after parsing
             + [[name] for name in cli.COMMANDS if name != "train"]
             + [["bogus"], ["bogus", "--help"], ["--help", "verify"],
                ["verify", "--model"], ["train", "--L", "1.5"], ["acf", "--bogus", "x"]])

    @pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv) or "none")
    def test_output_is_the_full_parsers(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "100")
        with pytest.raises(SystemExit) as full:
            build_parser().parse_args(argv)
        want = capsys.readouterr()
        with pytest.raises(SystemExit) as lazy:
            main(argv)
        assert capsys.readouterr() == want
        assert lazy.value.code == full.value.code
        assert want.out or want.err

    def test_builds_only_the_command_run(self):
        parser = build_parser("verify")
        subparsers = parser._subparsers._group_actions[0].choices
        assert list(subparsers) == list(cli.COMMANDS)
        for name, sub in subparsers.items():
            options = [a.dest for a in sub._actions]
            assert options == (["help", "model", "threshold"] if name == "verify" else [])
        args = parser.parse_args(["verify", "--model", "m.json"])
        assert args.func is cli.cmd_verify
        assert vars(args) == vars(build_parser().parse_args(["verify", "--model", "m.json"]))


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

    def test_max_lag_below_one_exits_2(self, comp_csv, tmp_path, capsys):
        out = tmp_path / "acf.csv"
        assert _code_and_err(["acf", "--data", comp_csv, "--max-lag", "0", "--out", out],
                             capsys) == (2, "error: max_lag must be >= 1, got 0\n")
        assert not out.exists()


NOT_FINITE_NUMBERS = ('"0.5"', "true", "false", "null", "NaN", "Infinity", "-Infinity",
                      "1e999")
"""JSON values that are not finite numbers; each replaces one number of an input."""


def _number_paths(data, path=()):
    """The key path of every number (not bool) in a decoded JSON document."""
    if isinstance(data, (dict, list)):
        items = data.items() if isinstance(data, dict) else enumerate(data)
        return [found for key, value in items for found in _number_paths(value, path + (key,))]
    return [path] if type(data) in (int, float) else []


def _broken_json(text, rng, tokens=NOT_FINITE_NUMBERS):
    """(kind, text) pairs: ``text`` cut short, with a byte that is not UTF-8
    (a lone surrogate, as Python passes such an argv byte), and with each
    token in place of one seeded number."""
    cut = int(rng.integers(0, len(text) - 1))  # drops at least the closing bracket
    at = int(rng.integers(0, len(text) + 1))
    out = [("truncated", text[:cut]), ("not UTF-8", text[:at] + "\udcff" + text[at:])]
    data = json.loads(text)
    paths = _number_paths(data)
    for token in tokens:
        path = paths[int(rng.integers(len(paths)))]
        changed = json.loads(text)
        target = changed
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = "@number@"
        out.append((f"{token} at {path}", json.dumps(changed).replace('"@number@"', token)))
    return out


def _write_text(path, text):
    """Write ``text``; a lone surrogate becomes the byte it stands for."""
    path.write_bytes(text.encode("utf-8", "surrogateescape"))


def _code_and_err(argv, capsys):
    code = main([str(a) for a in argv])  # must return, not raise
    return code, capsys.readouterr().err


class TestMalformedInputs:
    """Config, group and model files and the command-line arrays are decoded
    by one JSON reader: a file that does not parse, or a number that is a
    string, a bool, null or not finite, exits 2, or 3 in a model file that
    parses, with a message and without a traceback."""

    def _sweep(self, text, run, expected, capsys, seed, tokens=NOT_FINITE_NUMBERS):
        failures = []
        for kind, broken in _broken_json(text, np.random.default_rng(seed), tokens):
            code, err = _code_and_err(run(broken), capsys)
            want = 2 if kind in ("truncated", "not UTF-8") else expected
            if code != want or not err.startswith(("error: ", "numerical failure: ")):
                failures.append((kind, code, err))
        assert failures == []

    @pytest.mark.parametrize("seed", range(3))
    def test_config_sweep(self, comp_csv, tmp_path, capsys, seed):
        text = json.dumps({"data": str(comp_csv), "group": "z5", "L": 1, "p": 2,
                           "train_count": 31, "max_lag": 5, "out": str(tmp_path / "m.json")})
        path = tmp_path / "config.json"

        def run(broken):
            _write_text(path, broken)
            return ["train", "--config", path]
        # null leaves a config key unset, and every key here has a default
        self._sweep(text, run, 2, capsys, seed,
                    tuple(t for t in NOT_FINITE_NUMBERS if t != "null"))
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("seed", range(3))
    def test_group_file_sweep(self, comp_csv, tmp_path, capsys, seed):
        text = json.dumps({"n": 5, "generators": [builtin_rep("z5").generators[0].ravel().tolist()]})
        path = tmp_path / "group.json"

        def run(broken):
            _write_text(path, broken)
            return ["train", "--data", comp_csv, "--group-file", path, "--L", "1", "--p", "2",
                    "--train-count", "31", "--out", tmp_path / "m.json"]
        self._sweep(text, run, 2, capsys, seed)
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("command", ["verify", "forecast"])
    @pytest.mark.parametrize("seed", range(3))
    def test_model_sweep(self, comp_csv, z5_model_path, tmp_path, capsys, command, seed):
        path = tmp_path / "model.json"
        options = {"verify": [], "forecast": ["--data", comp_csv, "--train-count", "31",
                                              "--horizon", "3", "--out", tmp_path / "fc.csv"]}

        def run(broken):
            _write_text(path, broken)
            return [command, "--model", path, *options[command]]
        self._sweep(z5_model_path.read_text().strip(), run, 3, capsys, seed)
        assert not (tmp_path / "fc.csv").exists()

    @pytest.mark.parametrize("flag,text", [
        ("--matrix", "[[0.9, 0.1], [-0.1, 0.8]]"), ("--x0", "[1.0, 0.5]"),
        ("--p0-vec", "[0.2, 0.35, 0.5, 0.65, 0.8]")], ids=["matrix", "x0", "p0-vec"])
    @pytest.mark.parametrize("seed", range(3))
    def test_generate_array_sweep(self, tmp_path, capsys, flag, text, seed):
        system = "competition" if flag == "--p0-vec" else "linear"
        out = tmp_path / "gen.csv"
        self._sweep(text, lambda broken: ["generate", "--system", system, flag, broken,
                                          "--steps", "5", "--out", out], 2, capsys, seed)
        assert not out.exists()

    @pytest.mark.parametrize("field", ["W", "generators", "coefficients", "train_residual"])
    def test_model_numbers_written_as_strings_exit_3(self, z5_model_path, tmp_path, capsys,
                                                     field):
        payload = (v1_payload(z5_model_path) if field == "coefficients"
                   else json.loads(z5_model_path.read_text()))
        holder = payload["fit"] if field in ("coefficients", "train_residual") else payload
        if field == "generators":
            holder[field] = [[repr(v) for v in g] for g in holder[field]]
        elif field == "train_residual":
            holder[field] = repr(holder[field])
        else:
            holder[field] = [repr(v) for v in holder[field]]
        path = tmp_path / "strings.json"
        path.write_text(json.dumps(payload))
        code, err = _code_and_err(["verify", "--model", path], capsys)
        assert code == 3 and "must be a number" in err

    @pytest.mark.parametrize("token", NOT_FINITE_NUMBERS)
    def test_version_1_coefficients_must_be_finite_numbers(self, z5_model_path, tmp_path,
                                                            capsys, token):
        payload = v1_payload(z5_model_path)
        payload["fit"]["coefficients"][4] = "slot"
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(payload).replace('"slot"', token))
        code, err = _code_and_err(["verify", "--model", path], capsys)
        assert code == 3 and "each entry of fit.coefficients must be" in err

    @pytest.mark.parametrize("entry", ["strings", "bools"])
    def test_group_file_entries_must_be_numbers(self, comp_csv, tmp_path, capsys, entry):
        generator = builtin_rep("z5").generators[0].ravel().tolist()
        values = [repr(v) for v in generator] if entry == "strings" else [bool(v) for v in generator]
        path = tmp_path / "group.json"
        path.write_text(json.dumps({"n": 5, "generators": [values]}))
        code, err = _code_and_err(["train", "--data", comp_csv, "--group-file", path, "--L", "1",
                                   "--p", "2", "--train-count", "31",
                                   "--out", tmp_path / "m.json"], capsys)
        assert code == 2 and "each entry of generator 0 must be a number" in err

    @pytest.mark.parametrize("content,message", [
        (b'{"n": 5, "generators": [[0', "at line 1 column 27"),
        (b'{"n": 5,\n "generators": \xff}', "not UTF-8 text (invalid start byte) at line 2 column 16"),
        # json raises a bare ValueError and a RecursionError for these
        (b'{"n": 5, "generators": [[' + b"1" * 5000 + b"]]}", "4300 digits"),
        (b"[" * 100000, "recursion"),
    ], ids=["truncated", "not-UTF-8", "long-integer", "deep-nesting"])
    def test_unparsable_group_file_exits_2(self, comp_csv, tmp_path, capsys, content, message):
        path = tmp_path / "group.json"
        path.write_bytes(content)
        code, err = _code_and_err(["train", "--data", comp_csv, "--group-file", path, "--L", "1",
                                   "--p", "2", "--train-count", "31",
                                   "--out", tmp_path / "m.json"], capsys)
        assert code == 2 and f"cannot parse {path}: " in err and message in err

    def test_matrix_of_strings_exits_2(self, tmp_path, capsys):
        code, err = _code_and_err(["generate", "--system", "linear", "--matrix",
                                   '[["1","0"],["0","1"]]', "--out", tmp_path / "l.csv"], capsys)
        assert code == 2 and "must be a number" in err

    @pytest.mark.parametrize("flags", [
        ["--system", "hamiltonian", "--dt", "nan"],
        ["--system", "hamiltonian", "--q0", "inf"],
        ["--system", "competition", "--growth", "nan"],
        ["--system", "competition", "--p0-vec", "[0.2, NaN, 0.5, 0.65, 0.8]"],
        ["--system", "linear", "--x0", "[1, NaN]"],
    ], ids=["dt", "q0", "growth", "p0-vec", "x0"])
    def test_non_finite_generate_option_exits_2(self, tmp_path, capsys, flags):
        out = tmp_path / "gen.csv"
        code, err = _code_and_err(["generate", *flags, "--out", out], capsys)
        assert code == 2 and "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("source", ["--seed-csv", "--data"])
    def test_non_finite_seed_window_exits_2(self, comp_csv, z5_model_path, tmp_path, capsys,
                                            value, source):
        series = read_series(comp_csv)[:31]
        series[30, 1] = value  # in the one-row window of the L=1 model
        path = tmp_path / "seed.csv"
        write_series(path, series)
        prefix = [] if source == "--seed-csv" else ["--train-count", "31"]
        out = tmp_path / "fc.csv"
        code, err = _code_and_err(["forecast", "--model", z5_model_path, source, path, *prefix,
                                   "--horizon", "5", "--out", out], capsys)
        assert code == 2 and "non-finite" in err
        assert not out.exists()

    def test_non_finite_reference_row_exits_2(self, comp_csv, z5_model_path, tmp_path, capsys):
        series = read_series(comp_csv)
        series[33, 0] = np.nan  # the third forecast step's reference
        reference = tmp_path / "ref.csv"
        write_series(reference, series)
        out = tmp_path / "fc.csv"
        code, err = _code_and_err(["forecast", "--model", z5_model_path, "--data", comp_csv,
                                   "--train-count", "31", "--horizon", "5", "--reference",
                                   reference, "--out", out], capsys)
        assert code == 2 and "non-finite" in err
        assert not out.exists()


def _oracle_csv(header, index, values):
    return header + "\n" + _oracle_rows(index, values)


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

    # Forked row slices: PARALLEL_ENTRIES = 1 gives min(cores, entries) processes

    @pytest.mark.parametrize("cores", [2, 3])
    def test_special_and_random_values_forked(self, cores, monkeypatch, forks):
        _fork_from(monkeypatch, cores, 1)
        self.test_special_and_random_values()
        assert len(forks) == cores - 1

    @pytest.mark.parametrize("cores", [2, 3])
    @pytest.mark.parametrize("rows,first", [(0, 0), (1, 0), (2, 0), (CSV_BLOCK_ROWS, 0),
                                            (2500, 0), (2501, 31)])
    def test_row_blocks_forked(self, rows, first, cores, monkeypatch, forks):
        """Row counts of 0, 1, fewer than the processes, one block and not
        divisible by 2 or 3, and an index that does not start at 0."""
        _fork_from(monkeypatch, cores, 1)
        values = np.random.default_rng(rows).standard_normal((rows, 3))
        index = np.arange(first, first + rows)
        assert _rows_text(index, values) == _oracle_rows(index, values)
        assert len(forks) == max(min(cores, 4 * rows), 1) - 1
        _assert_no_child()

    @pytest.mark.parametrize("rows,expected", [(PARALLEL_ENTRIES // 2 - 1, 0),
                                               (PARALLEL_ENTRIES // 2, 1)])
    def test_forks_from_twice_the_threshold(self, rows, expected, monkeypatch, forks):
        """With index and 3 columns, 2 * PARALLEL_ENTRIES entries are 2 processes."""
        _fork_from(monkeypatch, 3, PARALLEL_ENTRIES)
        values = np.random.default_rng(rows).standard_normal((rows, 3))
        index = np.arange(rows)
        assert _rows_text(index, values) == _oracle_rows(index, values)
        assert len(forks) == expected

    def test_no_fork_on_one_core(self, monkeypatch, forks):
        _fork_from(monkeypatch, 1, 1)
        self.test_special_and_random_values()
        assert forks == []

    def test_no_fork_without_os_fork(self, monkeypatch):
        _fork_from(monkeypatch, 2, 1)
        monkeypatch.delattr(os, "fork")  # a call would raise AttributeError
        self.test_special_and_random_values()

    def test_cores_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cli._usable_cores() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._usable_cores() == 1

    def test_failed_fork_formats_here(self, monkeypatch, forks):
        """A fork that raises leaves its slice and the next to this process."""
        _fork_from(monkeypatch, 3, 1)
        fork = os.fork

        def fork_once():
            if forks:
                raise BlockingIOError("fork: resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", fork_once)
        self.test_special_and_random_values()
        assert len(forks) == 1
        _assert_no_child()

    def test_commands_forked(self, special_csv, z5_model_path, tmp_path, monkeypatch, forks):
        """generate, forecast and acf write the bytes of the one-process writer,
        including the header buffered in the file before the workers start.
        The forecast forks twice: once to read its reference, once to write."""
        runs = [["generate", "--system", "competition", "--steps", "300"],
                ["forecast", "--model", z5_model_path, "--data", special_csv,
                 "--train-count", "31", "--horizon", "300", "--reference", special_csv],
                ["acf", "--data", special_csv, "--max-lag", "40"]]
        for forked in (False, True):
            if forked:
                _fork_from(monkeypatch, 2, 1)
            for i, argv in enumerate(runs):
                out = tmp_path / f"{i}-{forked}.csv"
                assert main([str(a) for a in argv] + ["--out", str(out)]) == 0
        for i in range(len(runs)):
            assert (tmp_path / f"{i}-True.csv").read_bytes() == \
                (tmp_path / f"{i}-False.csv").read_bytes()
        assert len(forks) == len(runs) + 1
        _assert_no_child()


def _fork_from(monkeypatch, cores, entries):
    """Let ``_write_rows`` see ``cores`` usable cores and fork from
    ``entries`` entries per process."""
    monkeypatch.setattr(cli, "PARALLEL_ENTRIES", entries)
    monkeypatch.setattr(cli, "_usable_cores", lambda: cores)


def _rows_text(index, values, fh=None):
    fh = io.StringIO() if fh is None else fh
    _write_rows(fh, index, values)
    return fh.getvalue()


def _oracle_rows(index, values):
    fh = io.StringIO()
    write_rows_by_value(fh, index, values)
    return fh.getvalue()


def _assert_no_child():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes ``os.fork`` starts during the test."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.fixture
def deadline():
    """Fail a test that runs for more than 60 s instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError("the CSV writer did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _in_workers(monkeypatch, action):
    """Make each CSV worker run ``action(write, table, row)`` in place of
    ``cli._format_rows``; this process formats as before."""
    parent, format_rows = os.getpid(), cli._format_rows

    def patched(write, table, row):
        if os.getpid() == parent:
            return format_rows(write, table, row)
        return action(write, table, row)

    monkeypatch.setattr(cli, "_format_rows", patched)


def _raise(write, table, row):
    raise RuntimeError("worker failure")


FORMAT_ROWS = cli._format_rows


class TestCsvWorkers:
    """The forked CSV writer reaps every worker, raises on a worker's failure
    and never reports a truncated table as written.  At most 3 processes."""

    VALUES = np.random.default_rng(5).standard_normal((6000, 3))
    """About 0.5 MB of text: each worker's slice is more than a pipe holds."""

    @pytest.mark.parametrize("cores", [2, 3])
    def test_success_reaps_every_worker(self, cores, monkeypatch, forks, deadline):
        _fork_from(monkeypatch, cores, 1000)
        index = np.arange(self.VALUES.shape[0])
        assert _rows_text(index, self.VALUES) == _oracle_rows(index, self.VALUES)
        entries = self.VALUES.shape[0] * 4
        assert len(forks) == min(cores, entries // cli.PARALLEL_ENTRIES) - 1
        _assert_no_child()

    @pytest.mark.parametrize("cores", [2, 3])
    @pytest.mark.parametrize("action,message", [
        (_raise, "sent 0 of"),
        # exits 0, but without the last row of its slice
        (lambda write, table, row: FORMAT_ROWS(write, table[:-1], row), r"sent \d+ of")])
    def test_worker_failure_raises(self, cores, action, message, monkeypatch, forks,
                                   deadline):
        _fork_from(monkeypatch, cores, 1000)
        _in_workers(monkeypatch, action)
        with pytest.raises(ChildProcessError, match=message):
            _rows_text(np.arange(self.VALUES.shape[0]), self.VALUES)
        assert len(forks) == cores - 1
        _assert_no_child()

    def test_worker_exit_code_checked(self, monkeypatch, forks, deadline):
        """A worker that sent every row but then failed still fails the write."""
        _fork_from(monkeypatch, 2, 1000)
        parent, write = os.getpid(), os.write

        def write_then_fail(fd, data):
            if os.getpid() == parent:
                return write(fd, data)
            write(fd, data)  # the whole slice: a blocking pipe write
            raise OSError("worker failure after its write")

        monkeypatch.setattr(os, "write", write_then_fail)
        with pytest.raises(ChildProcessError, match="exited with code 1"):
            _rows_text(np.arange(self.VALUES.shape[0]), self.VALUES)
        assert len(forks) == 1
        _assert_no_child()

    @pytest.mark.parametrize("cores", [2, 3])
    def test_write_error_reaps_every_worker(self, cores, monkeypatch, forks, deadline):
        """The file fails while the workers are blocked on full pipes: they
        get EPIPE when the read ends close, and exit."""
        _fork_from(monkeypatch, cores, 1000)

        class Full(io.StringIO):
            def write(self, text):
                if self.tell() > 100_000:
                    raise OSError(28, "No space left on device")
                return super().write(text)

        with pytest.raises(OSError, match="No space left"):
            _rows_text(np.arange(self.VALUES.shape[0]), self.VALUES, Full())
        assert len(forks) == cores - 1
        _assert_no_child()

    def test_failed_worker_fails_forecast(self, comp_csv, z5_model_path, tmp_path,
                                          monkeypatch, forks, deadline, capsys):
        _fork_from(monkeypatch, 2, 1)
        _in_workers(monkeypatch, _raise)
        out = tmp_path / "fc.csv"
        code, err = _code_and_err(["forecast", "--model", z5_model_path, "--data", comp_csv,
                                   "--train-count", 31, "--horizon", 100, "--out", out], capsys)
        assert code == 2
        assert re.fullmatch(r"error: CSV worker \d+ sent 0 of \d+ rows\n", err)
        assert len(forks) == 1
        _assert_no_child()


def _reference_worker_raises(path, max_rows, first_row):
    raise RuntimeError("worker failure")


def _reference_worker_exits_1(monkeypatch):
    """Make the reference worker exit 1 after it has sent every byte."""
    produce, leave, state = cli._series_bytes, os._exit, {}

    def marked(*args):
        state["reader"] = True  # set in the worker's memory only
        return produce(*args)

    monkeypatch.setattr(cli, "_series_bytes", marked)
    monkeypatch.setattr(os, "_exit", lambda code: leave(1 if state else code))


def _refuse_fork():
    raise BlockingIOError("fork: resource temporarily unavailable")


def _reference_case(name, comp_csv, z5_model_path, tmp_path):
    """The argv, without --out, of a forecast with a reference named by a key
    of ``TestReferenceWorker.CASES``: the reference cases of the classes above,
    and a forecast that diverges partway, whose reference turns malformed
    after its last step."""
    series = read_series(comp_csv)
    reference = tmp_path / "ref.csv"
    argv = ["forecast", "--model", z5_model_path, "--data", comp_csv, "--train-count", 31,
            "--horizon", 50, "--reference", reference]
    if name.startswith("channels-"):
        write_series(reference, series[:, :int(name[-1])])
    elif name.startswith("short-"):  # fewer than the 31 + 50 rows of the window
        write_series(reference, series[:int(name[-2:])])
    elif name == "non-finite":
        series[33, 0] = np.nan
        write_series(reference, series)
    elif name == "malformed":
        lines = comp_csv.read_text().splitlines(keepends=True)
        reference.write_text("".join(lines[:46] + ["x,y\n"] + lines[47:]))
    else:  # the exploding model from a seed file, compared from row 0
        model = TestForecast._exploding_model(tmp_path)
        start = np.full((1, 5), 0.9 * DIVERGENCE_CAP if name == "diverged-at-once" else 0.9)
        seed = tmp_path / "seed.csv"
        write_series(seed, start)
        steps = rollout(load(model), start[0], 50).steps
        assert (steps == 0) == (name == "diverged-at-once") and steps < 50
        reference = _series_copies(comp_csv, steps, tmp_path)[2] if steps else comp_csv
        argv = ["forecast", "--model", model, "--seed-csv", seed, "--horizon", 50,
                "--reference", reference]
    return argv, reference


class TestReferenceWorker:
    """A forecast whose table reaches twice ``PARALLEL_ENTRIES`` entries on
    more than one usable core parses its reference in a forked worker while
    the rollout runs.  Its exit code, output and messages are those of the
    read in this process, which is made instead whenever the worker fails."""

    CASES = {"channels-1": 2, "channels-2": 2, "short-60": 0, "short-40": 2, "non-finite": 2,
             "malformed": 2, "diverged-at-once": 4, "diverged-partway": 4}
    """Each case of ``_reference_case`` and its exit code."""

    FALLBACK = {"malformed", "diverged-at-once", "diverged-partway"}
    """The cases whose rows are read here: the worker of the first fails on a
    malformed row, and a forecast that diverges compares fewer rows than the
    worker parses (in the last, up to a malformed row past those compared)."""

    @staticmethod
    def _run(argv, out, capfd):
        """(exit code, stdout, stderr, output bytes or None) of one command;
        the streams are read at the descriptors, so a worker's output shows."""
        code = main([str(a) for a in argv] + ["--out", str(out)])
        captured = capfd.readouterr()
        written = out.read_bytes() if out.exists() else None
        if written is not None:
            out.unlink()
        return code, captured.out, captured.err, written

    @staticmethod
    def _reads_here(monkeypatch, path):
        """The (max_rows, first_row) of every ``read_series`` of ``path`` that
        this process makes; a worker's reads are not recorded."""
        reads, parent, read = [], os.getpid(), cli.read_series

        def recorded(source, max_rows=None, first_row=0):
            if os.getpid() == parent and os.fspath(source) == os.fspath(path):
                reads.append((max_rows, first_row))
            return read(source, max_rows, first_row)

        monkeypatch.setattr(cli, "read_series", recorded)
        return reads

    def _serial(self, argv, reference, out, monkeypatch, capfd):
        """The outcome and this process's reference reads on one usable core."""
        _fork_from(monkeypatch, 1, 1)
        reads = self._reads_here(monkeypatch, reference)
        return self._run(argv, out, capfd), list(reads)

    @pytest.mark.parametrize("case", CASES)
    def test_worker_gives_the_serial_outcome(self, case, comp_csv, z5_model_path, tmp_path,
                                             monkeypatch, forks, deadline, capfd):
        argv, reference = _reference_case(case, comp_csv, z5_model_path, tmp_path)
        out = tmp_path / "fc.csv"
        serial, serial_reads = self._serial(argv, reference, out, monkeypatch, capfd)
        assert serial[0] == self.CASES[case] and forks == []
        _fork_from(monkeypatch, 2, 1)
        reads = self._reads_here(monkeypatch, reference)
        assert self._run(argv, out, capfd) == serial
        # the worker's rows replace the first read here, unless the worker failed
        assert reads == (serial_reads if case in self.FALLBACK else serial_reads[1:])
        assert forks  # the reader, and the CSV worker of an output
        _assert_no_child()

    FAILURES = {
        "raises": lambda mp: mp.setattr(cli, "_series_bytes", _reference_worker_raises),
        "short-payload": lambda mp: mp.setattr(
            cli, "_series_bytes", lambda *args, produce=cli._series_bytes: produce(*args)[:-8]),
        "exits-1-after-sending": _reference_worker_exits_1,
        "no-fork": lambda mp: mp.setattr(os, "fork", _refuse_fork),
    }
    """Ways the reference worker fails, each set up by monkeypatching."""

    @pytest.mark.parametrize("failure", FAILURES)
    def test_failed_worker_reads_here(self, failure, comp_csv, z5_model_path, tmp_path,
                                      monkeypatch, forks, deadline, capfd):
        reference = tmp_path / "ref.csv"
        reference.write_bytes(comp_csv.read_bytes())
        argv = ["forecast", "--model", z5_model_path, "--data", comp_csv, "--train-count", 31,
                "--horizon", 300, "--reference", reference]
        out = tmp_path / "fc.csv"
        serial, serial_reads = self._serial(argv, reference, out, monkeypatch, capfd)
        assert serial[0] == 0 and len(serial_reads) == 1
        _fork_from(monkeypatch, 2, 1)
        self.FAILURES[failure](monkeypatch)
        reads = self._reads_here(monkeypatch, reference)
        assert self._run(argv, out, capfd) == serial
        assert reads == serial_reads
        assert len(forks) == (0 if failure == "no-fork" else 2)
        _assert_no_child()

    def test_failed_rollout_reaps_the_worker(self, comp_csv, z5_model_path, tmp_path,
                                             monkeypatch, forks, deadline, capsys):
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 16.0 GiB")

        _fork_from(monkeypatch, 2, 1)
        monkeypatch.setattr("earc.model.rollout", fail)
        out = tmp_path / "fc.csv"
        code, err = _code_and_err(["forecast", "--model", z5_model_path, "--data", comp_csv,
                                   "--train-count", 31, "--horizon", 300, "--reference",
                                   comp_csv, "--out", out], capsys)
        assert (code, err) == (2, "error: Unable to allocate 16.0 GiB\n")
        assert len(forks) == 1 and not out.exists()
        _assert_no_child()

    def test_a_warning_shows_once(self, comp_csv, z5_model_path, tmp_path):
        """A worker's read that warns is made again here, so that its warning
        shows once, as on one core.  Run in fresh processes, where warnings
        are printed rather than collected by the test runner."""
        reference = tmp_path / "header.csv"
        reference.write_text("t,ch1,ch2,ch3,ch4,ch5\n")
        script = ("import sys; from earc import cli; cli.PARALLEL_ENTRIES = 1; "
                  "cli._usable_cores = lambda: int(sys.argv[1]); sys.exit(cli.main(sys.argv[2:]))")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        runs = []
        for cores in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-c", script, cores, "forecast", "--model", str(z5_model_path),
                 "--data", str(comp_csv), "--train-count", "31", "--horizon", "50",
                 "--reference", str(reference), "--out", str(tmp_path / "fc.csv")],
                env=env, capture_output=True, text=True, timeout=60)
            runs.append((done.returncode, done.stdout, done.stderr))
        assert runs[0][0] == 2 and runs[0][2].count("input contained no data") == 1
        assert runs[1] == runs[0]

    def test_diverged_forecast_stops_the_worker(self, comp_csv, tmp_path, monkeypatch, forks,
                                                 deadline, capsys):
        """The rows of a forecast that diverges are read here at once: its
        worker is stopped, not waited for."""
        argv = _reference_case("diverged-partway", comp_csv, None, tmp_path)[0]
        _fork_from(monkeypatch, 2, 1)
        monkeypatch.setattr(cli, "_series_bytes", lambda *args: time.sleep(50))
        start = time.monotonic()
        code, err = _code_and_err(argv + ["--out", tmp_path / "fc.csv"], capsys)
        assert time.monotonic() - start < 25
        assert code == 4 and err.startswith("forecast diverged after")
        assert len(forks) == 2  # the reader and a CSV worker
        _assert_no_child()

    @pytest.mark.parametrize("horizon,expected", [(9, 1), (10, 2)])
    def test_forks_from_twice_the_threshold(self, horizon, expected, comp_csv, z5_model_path,
                                            tmp_path, monkeypatch, forks, deadline):
        """With the index and 5 channels, 10 steps are 2 * 30 entries; the
        forecast table, 11 columns wide, forks its CSV worker either way."""
        _fork_from(monkeypatch, 2, 30)
        out = tmp_path / "fc.csv"
        assert main(["forecast", "--model", str(z5_model_path), "--data", str(comp_csv),
                     "--train-count", "31", "--horizon", str(horizon), "--reference",
                     str(comp_csv), "--out", str(out)]) == 0
        assert len(forks) == expected
        _assert_no_child()

    @pytest.mark.parametrize("option,value,message", [
        ("--horizon", 10**13, "exceeding the cap"),
        ("--apply-group-element", 5, "error: group element index 5 outside 0..4\n"),
        ("--mode", "bad", "invalid choice: 'bad'")])
    def test_refused_forecast_starts_no_worker(self, option, value, message, comp_csv,
                                               z5_model_path, tmp_path, monkeypatch, forks,
                                               capsys):
        _fork_from(monkeypatch, 2, 1)
        out = tmp_path / "fc.csv"
        options = {"--horizon": 50, option: value}
        argv = ["forecast", "--model", z5_model_path, "--data", comp_csv, "--train-count", 31,
                "--reference", comp_csv, "--out", out]
        argv += [str(a) for item in options.items() for a in item]
        if option == "--mode":  # argparse refuses it
            with pytest.raises(SystemExit) as exc:
                main([str(a) for a in argv])
            code, err = exc.value.code, capsys.readouterr().err
        else:
            code, err = _code_and_err(argv, capsys)
        assert code == 2 and message in err
        assert forks == [] and not out.exists()
        _assert_no_child()


def _earc_error_classes(base=EarcError):
    """Every subclass of ``base``, recursively."""
    for cls in base.__subclasses__():
        yield cls
        yield from _earc_error_classes(cls)


DOCUMENTED_EXITS = {EarcError: (2, "error: "), NumericalError: (3, "numerical failure: "),
                    NonFiniteGroupError: (3, "numerical failure: "),
                    CorruptModelError: (3, "numerical failure: "),
                    DivergenceError: (4, "divergence: ")}
"""The exit code and message prefix of an earc error, by its nearest listed
class: 2 validation or input, 3 numerical failure or corrupt model, 4
divergence."""


def _documented_exit(cls):
    return next(DOCUMENTED_EXITS[c] for c in cls.__mro__ if c in DOCUMENTED_EXITS)


def _raising_command(monkeypatch, exc):
    """Make ``earc verify`` raise ``exc``."""
    def run(args):
        raise exc

    help_text, add_arguments, _ = cli.COMMANDS["verify"]
    monkeypatch.setitem(cli.COMMANDS, "verify", (help_text, add_arguments, run))


UNDER_FILE = {
    "generate --out": ["generate", "--system", "competition", "--steps", 40, "--out", "@"],
    "train --data": ["train", "--data", "@", "--group", "z5", "--L", 1, "--p", 2,
                     "--train-count", 31, "--out", "OUT"],
    "train --config": ["train", "--config", "@", "--data", "COMP", "--group", "z5", "--L", 1,
                       "--p", 2, "--train-count", 31, "--out", "OUT"],
    "train --group-file": ["train", "--data", "COMP", "--group-file", "@", "--L", 1, "--p", 2,
                           "--train-count", 31, "--out", "OUT"],
    "train --out": ["train", "--data", "COMP", "--group", "z5", "--L", 1, "--p", 2,
                    "--train-count", 31, "--out", "@"],
    "forecast --model": ["forecast", "--model", "@", "--data", "COMP", "--train-count", 31,
                         "--horizon", 10, "--out", "OUT"],
    "forecast --data": ["forecast", "--model", "Z5", "--data", "@", "--train-count", 31,
                        "--horizon", 10, "--out", "OUT"],
    "forecast --seed-csv": ["forecast", "--model", "Z5", "--seed-csv", "@", "--horizon", 10,
                            "--out", "OUT"],
    "forecast --reference": ["forecast", "--model", "Z5", "--data", "COMP", "--train-count", 31,
                             "--horizon", 10, "--reference", "@", "--out", "OUT"],
    "forecast --out": ["forecast", "--model", "Z5", "--data", "COMP", "--train-count", 31,
                       "--horizon", 10, "--out", "@"],
    "verify --model": ["verify", "--model", "@"],
    "acf --data": ["acf", "--data", "@", "--max-lag", 5, "--out", "OUT"],
    "acf --out": ["acf", "--data", "COMP", "--max-lag", 5, "--out", "@"],
}
"""An argv for every option of a command that opens a file, with that option
at "@", a path under a regular file; "COMP" and "Z5" are the competition
series and its z5 model, and "OUT" a path that must not be written."""


class TestFailureBoundary:
    """The exception class decides the exit code: every earc error and every
    OS error ends a command with its documented code and one stderr line, and
    any other exception is a program fault that keeps its traceback."""

    CLASSES = sorted(set(_earc_error_classes()), key=lambda cls: cls.__name__)

    def test_every_error_class_is_walked(self):
        assert {cls.__name__ for cls in self.CLASSES} >= {
            "ShapeError", "DimensionOverflowError", "NumericalError", "InsufficientDataError",
            "ValidationError", "NonFiniteGroupError", "DivergenceError", "ModelFormatError",
            "CorruptModelError", "UnknownNameError"}

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
    def test_earc_error_exits_with_its_documented_code(self, cls, monkeypatch, capsys):
        _raising_command(monkeypatch, cls("boundary"))
        code, prefix = _documented_exit(cls)
        assert _code_and_err(["verify", "--model", "m.json"], capsys) == (code,
                                                                          prefix + "boundary\n")

    def test_new_error_classes_exit_by_their_base(self, monkeypatch, capsys):
        class Unlisted(EarcError):
            pass

        class UnlistedNumerical(NumericalError):
            pass

        for cls, code in ((Unlisted, 2), (UnlistedNumerical, 3)):
            _raising_command(monkeypatch, cls("new"))
            assert _code_and_err(["verify", "--model", "m.json"], capsys)[0] == code

    @pytest.mark.parametrize("exc", [ChildProcessError("CSV worker 1 exited with code 1"),
                                     OSError(errno.ENOSPC, "No space left on device"),
                                     MemoryError("no room")], ids=lambda exc: type(exc).__name__)
    def test_os_and_memory_errors_exit_2(self, exc, monkeypatch, capsys):
        _raising_command(monkeypatch, exc)
        assert _code_and_err(["verify", "--model", "m.json"], capsys) == (2, f"error: {exc}\n")

    @pytest.mark.parametrize("cls", [ValueError, RuntimeError, KeyError, TypeError])
    def test_program_fault_propagates(self, cls, monkeypatch):
        _raising_command(monkeypatch, cls("fault"))
        with pytest.raises(cls, match="fault"):
            main(["verify", "--model", "m.json"])

    @pytest.mark.parametrize("case", UNDER_FILE)
    def test_path_under_a_regular_file_exits_2(self, case, comp_csv, z5_model_path, tmp_path,
                                               capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        paths = {"@": blocker / "x", "COMP": comp_csv, "Z5": z5_model_path,
                 "OUT": tmp_path / "out"}
        code, err = _code_and_err([paths.get(a, a) for a in UNDER_FILE[case]], capsys)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert [p.name for p in tmp_path.iterdir()] == ["file"]  # no output file

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("steps,workers", [(40, 0), (6000, 1)])
    def test_full_device_exits_2(self, steps, workers, monkeypatch, forks, deadline, capsys):
        """A write that fails with ENOSPC, from this process and, with a
        table past twice ``PARALLEL_ENTRIES`` on 2 cores, beside a worker."""
        monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
        code, err = _code_and_err(["generate", "--system", "competition", "--steps", steps,
                                   "--out", "/dev/full"], capsys)
        assert code == 2
        assert err == f"error: {OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))}\n"
        assert len(forks) == workers
        _assert_no_child()
        assert stat.S_ISCHR(os.stat("/dev/full").st_mode)


WRITERS = {
    "generate": ["generate", "--system", "competition", "--steps", 100],
    "forecast": ["forecast", "--model", "Z5", "--data", "COMP", "--train-count", 31,
                 "--horizon", 100, "--reference", "COMP"],
    "acf": ["acf", "--data", "COMP", "--max-lag", 20],
}
"""A command of each CSV writer, without its --out."""

WRITER_FORKS = {"generate": 1, "forecast": 2, "acf": 1}
"""Processes that each ``WRITERS`` command forks from one table entry per
process: one CSV worker, and for the forecast a reader of its reference."""


class TestWholeOutputFiles:
    """Every output file appears whole or not at all: a regular or missing
    target is written to a new file beside it and renamed once the last byte
    and every CSV worker are in, and anything else is written in place."""

    @staticmethod
    def _argv(command, comp_csv, z5_model_path, out):
        paths = {"COMP": comp_csv, "Z5": z5_model_path}
        return [paths.get(a, a) for a in WRITERS[command]] + ["--out", out]

    @pytest.mark.parametrize("command", WRITERS)
    def test_failed_worker_leaves_no_file_and_an_old_one_as_it_was(
            self, command, comp_csv, z5_model_path, tmp_path, monkeypatch, forks, deadline,
            capsys):
        _fork_from(monkeypatch, 2, 1)
        _in_workers(monkeypatch, _raise)
        out = tmp_path / "fc.csv"
        argv = self._argv(command, comp_csv, z5_model_path, out)
        code, err = _code_and_err(argv, capsys)
        assert code == 2 and re.fullmatch(r"error: CSV worker \d+ sent 0 of \d+ rows\n", err)
        assert list(tmp_path.iterdir()) == []
        out.write_bytes(b"t,ch1\n1,2\n")
        out.chmod(0o640)
        assert _code_and_err(argv, capsys)[0] == 2
        assert out.read_bytes() == b"t,ch1\n1,2\n"
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert list(tmp_path.iterdir()) == [out]
        assert len(forks) == 2 * WRITER_FORKS[command]
        _assert_no_child()

    @pytest.mark.parametrize("command", WRITERS)
    def test_success_leaves_only_the_file(self, command, comp_csv, z5_model_path, tmp_path,
                                          monkeypatch, forks, deadline):
        _fork_from(monkeypatch, 2, 1)
        out = tmp_path / "out.csv"
        for _ in range(2):  # a new file, then one that is replaced
            assert main([str(a) for a in self._argv(command, comp_csv, z5_model_path, out)]) == 0
            assert list(tmp_path.iterdir()) == [out]
        _fork_from(monkeypatch, 1, 1)
        plain = tmp_path / "plain.csv"
        assert main([str(a) for a in self._argv(command, comp_csv, z5_model_path, plain)]) == 0
        assert out.read_bytes() == plain.read_bytes()
        assert len(forks) == 2 * WRITER_FORKS[command]
        _assert_no_child()

    def test_modes_are_those_of_open(self, tmp_path):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_text("old")
        old.chmod(0o604)
        umask = os.umask(0o027)
        try:
            for out in (new, old):
                assert main(["generate", "--system", "hamiltonian", "--steps", "5",
                             "--out", str(out)]) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~0o027
        assert stat.S_IMODE(old.stat().st_mode) == 0o604
        assert new.read_bytes() == old.read_bytes()

    def test_fifo_is_written_in_place(self, tmp_path, deadline):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        argv = ["generate", "--system", "hamiltonian", "--steps", "40", "--out"]
        assert main(argv + [str(fifo)]) == 0
        reader.join(30)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert main(argv + [str(tmp_path / "ham.csv")]) == 0
        assert got == [(tmp_path / "ham.csv").read_bytes()]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ham.csv", "pipe"]

    def test_symbolic_link_is_followed(self, tmp_path):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_text("old")
        link.symlink_to(real)
        argv = ["generate", "--system", "hamiltonian", "--steps", "40", "--out"]
        assert main(argv + [str(link)]) == 0
        assert main(argv + [str(tmp_path / "ham.csv")]) == 0
        assert link.is_symlink() and real.read_bytes() == (tmp_path / "ham.csv").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ham.csv", "link.csv", "real.csv"]

    def test_error_names_the_target(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        code, err = _code_and_err(["generate", "--system", "hamiltonian", "--steps", "5",
                                   "--out", out], capsys)
        missing = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(out))
        assert (code, err) == (2, f"error: {missing}\n")
        assert list(tmp_path.iterdir()) == []


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
