"""Command-line front end: generate / train / forecast / verify / acf.

Exit codes: 0 success, 1 failed verification, 2 validation or input error,
3 numerical failure or corrupt model, 4 forecast divergence.  All commands are
deterministic; repeated runs on identical inputs produce byte-identical
outputs.
"""

import argparse
import json
import os
import sys
import warnings

import numpy as np

from . import model as model_mod
from . import solver, systems
from .errors import (CorruptModelError, DimensionOverflowError, DivergenceError,
                     InsufficientDataError, ModelFormatError, NonFiniteGroupError,
                     NumericalError, ShapeError, UnknownNameError, ValidationError)
from .groups import load_group, window_action

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_DIVERGED = 4

_VALIDATION_ERRORS = (ValidationError, ShapeError, InsufficientDataError,
                      UnknownNameError, ModelFormatError, DimensionOverflowError,
                      FileNotFoundError, IsADirectoryError, PermissionError)
_NUMERICAL_ERRORS = (NumericalError, NonFiniteGroupError, CorruptModelError)


def _fmt(v):
    return format(float(v), ".17g")


CSV_BLOCK_ROWS = 64
"""Rows formatted by one ``%`` operation.  Speed is flat from 32 to 1024 rows
per block, but the larger blocks' transient strings changed the heap layout
under later large allocations: with 256 or 1024 rows, about half of the k4-long
benchmark runs peaked 19 MB (15%) higher; with 64 rows none of 8 did, as with
``np.savetxt``."""


def _write_rows(fh, index, values):
    """One CSV row per index entry: the integer, then the values as in ``_fmt``.

    The bytes equal ``np.savetxt`` with formats %d and %.17g, which formats
    one row at a time.
    """
    table = np.column_stack([index, values])
    row = ",".join(["%d"] + ["%.17g"] * values.shape[1]) + "\n"
    for r in range(0, table.shape[0], CSV_BLOCK_ROWS):
        block = table[r:r + CSV_BLOCK_ROWS]
        fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))


def write_series(path, values):
    """CSV with header t,ch1..chn and 17-significant-digit floats."""
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t," + ",".join(f"ch{j + 1}" for j in range(n)) + "\n")
        _write_rows(fh, np.arange(values.shape[0]), values)


SCAN_BLOCK_CHARS = 1 << 16
"""Most characters read at a time while :func:`read_series` looks for its first
row.  The first block holds 1/16 of this, and each next one twice the last, so
that a row near the start of the file costs little."""


def _line_of_row(path, row):
    """Index of the raw line that holds data row ``row`` (row 0 follows the
    header) of the series CSV at ``path``, or None when the file ends first.

    Lines are counted as ``np.loadtxt`` counts ``skiprows``: the file is opened
    by numpy's own opener in text mode, so CRLF and a lone CR also end a line,
    and a line is a data row unless it is empty or starts with "#".  The file
    is read in blocks of growing size, and only up to the row.
    """
    with np.lib._datasource.open(os.fspath(path), "rt") as fh:
        fh.readline()  # the header
        # line: newlines before `last`, the character before the block
        line, last, size = 0, "\n", max(SCAN_BLOCK_CHARS // 16, 1)
        while block := fh.read(size):
            # "\n" and "#" are one byte in UTF-8 and never part of another character
            chunk = np.frombuffer((last + block).encode(), dtype=np.uint8)
            ends = np.flatnonzero(chunk[:-1] == ord("\n"))
            first = chunk[ends + 1]  # the first character of the line after each end
            data = np.flatnonzero((first != ord("\n")) & (first != ord("#")))
            if row < data.size:
                return line + int(data[row]) + 1
            row -= data.size
            line += ends.size
            last = block[-1]
            size = min(2 * size, SCAN_BLOCK_CHARS)
    return None


def _parse_series(path, skiprows, max_rows):
    try:
        with warnings.catch_warnings():
            # numpy warns when a comment or blank line is not counted in max_rows
            warnings.filterwarnings("ignore", r"Input line \d+ contained no data",
                                    UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2, comments="#",
                              max_rows=max_rows)
    except OSError:
        raise FileNotFoundError(f"cannot read series file {path}")
    except ValueError as exc:
        raise ValidationError(f"malformed series CSV {path}: {exc}") from exc
    if data.shape[1] < 2:
        raise ValidationError(f"series CSV {path} has no channel columns")
    return data[:, 1:]


def read_series(path, max_rows=None, first_row=0):
    """Read a series CSV written by :func:`write_series` (or any t,ch... file).

    Returns data rows ``first_row`` onward, at most ``max_rows`` of them;
    comment and blank lines are not rows.  Only those rows are parsed: the
    lines before them are found by a scan and skipped unparsed, and rows after
    them are not read, so neither is checked.  When the file has no row
    ``first_row``, or the rows read do not parse, the file is parsed from row 0
    instead, so the result or the error is that of a read from row 0.
    """
    if first_row > 0:
        try:
            line = _line_of_row(path, first_row)
            if line is not None:
                return _parse_series(path, line, max_rows)
        except (OSError, ValueError):
            pass  # the read from row 0 reports it
    stop = None if max_rows is None else first_row + max_rows
    return _parse_series(path, 1, stop)[first_row:]


def read_prefix(path, count=None, fraction=None):
    """The training prefix of the series at ``path`` and its sample count:
    ``count`` samples, or ``fraction`` of the series rounded, or all of it.

    Only the first ``count`` rows are parsed when the count is given and
    positive.  The options are checked after the read, so a file error is
    reported first; a count below 1 is returned for the caller to reject.
    """
    rows = count if fraction is None and count is not None and count >= 1 else None
    series = read_series(path, rows)
    total = series.shape[0]
    if count is not None and fraction is not None:
        raise ValidationError("--train-count and --train-fraction are mutually exclusive")
    if fraction is not None:
        if not 0.0 < fraction <= 1.0:
            raise ValidationError(f"train fraction must be in (0, 1], got {fraction}")
        count = int(round(fraction * total))
    elif count is None:
        count = total
    elif count > total:
        raise ValidationError(f"training prefix {count} exceeds series length {total}")
    return series[:max(count, 0)], count


def _load_config(path):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"cannot parse config {path}: {exc.msg} at line {exc.lineno}"
            ) from exc
        except UnicodeDecodeError as exc:
            raise ValidationError(
                f"cannot parse config {path}: not UTF-8 text ({exc.reason})"
            ) from exc
    if not isinstance(data, dict):
        raise ValidationError(f"config {path} must hold a JSON object")
    return data


def _parse_matrix(spec):
    if spec.startswith("I") and spec[1:].isdigit():
        return np.eye(int(spec[1:]))
    try:
        mat = np.asarray(json.loads(spec), dtype=np.float64)
    except (json.JSONDecodeError, ValueError) as exc:
        raise ValidationError(f"cannot parse matrix spec {spec!r}: {exc}") from exc
    if mat.ndim != 2:
        raise ValidationError(f"matrix spec {spec!r} is not 2-D")
    return mat


def _parse_vector(spec):
    try:
        vect = np.asarray(json.loads(spec), dtype=np.float64)
    except (json.JSONDecodeError, ValueError) as exc:
        raise ValidationError(f"cannot parse vector spec {spec!r}: {exc}") from exc
    if vect.ndim != 1:
        raise ValidationError(f"vector spec {spec!r} is not 1-D")
    return vect


def cmd_generate(args):
    if args.system == "hamiltonian":
        q0, p0 = (systems.PRINTED_HAMILTONIAN_START if args.printed_ic
                  else (args.q0, args.p0))
        cfg = systems.HamiltonianConfig(q0=q0, p0=p0, dt=args.dt,
                                        steps=args.steps if args.steps is not None else 600)
        values = systems.hamiltonian_generate(cfg)
    elif args.system == "competition":
        kwargs = {"steps": args.steps if args.steps is not None else 425}
        if args.p0_vec is not None:
            kwargs["p0"] = _parse_vector(args.p0_vec)
        if args.growth is not None:
            kwargs["r"] = np.full(5, args.growth)
        cfg = systems.CompetitionConfig(**kwargs)
        values = systems.competition_generate(cfg)
    elif args.system == "linear":
        a = _parse_matrix(args.matrix)
        x0 = _parse_vector(args.x0) if args.x0 is not None else np.ones(a.shape[0])
        values = systems.planted_linear(a, x0, args.steps if args.steps is not None else 100)
    else:
        raise UnknownNameError(f"unknown system {args.system!r}")
    out = args.out if args.out is not None else f"{args.system}.csv"
    write_series(out, values)
    print(f"wrote {values.shape[0]} samples x {values.shape[1]} channels to {out}")
    return EXIT_OK


_CONFIG_TYPES = {"data": str, "group": str, "group_file": str, "L": int, "p": int,
                 "train_count": int, "train_fraction": float, "sparsify": int,
                 "max_lag": int, "out": str}
"""Keys a ``train --config`` file may set and the type of each value (``L`` may
also be "auto", and null leaves a key unset); any other key or type is rejected.
Each key is the destination of the ``train`` flag of the same name."""

_TRAIN_DEFAULTS = {"L": "auto", "p": 2, "max_lag": 50, "out": "model.json"}
"""``train`` options that neither a flag nor the config file set; the others
stay None."""

_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number"}


def _config_value(key, value, path):
    """``value`` of config key ``key`` as its type in ``_CONFIG_TYPES``."""
    kind = _CONFIG_TYPES[key]
    if key == "L" and value == "auto":
        return value
    # bool is an int subclass, and JSON integers are valid numbers
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or isinstance(value, bool):
        expected = _TYPE_NAMES[kind] + (' or "auto"' if key == "L" else "")
        raise ValidationError(f"config key {key} in {path} must be {expected}, got {value!r}")
    return kind(value)


def _lag_arg(text):
    """``--L`` value: an integer or "auto"; argparse reports anything else."""
    if text == "auto":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f'expected an integer or "auto", got {text!r}') from None


def cmd_train(args):
    config = _load_config(args.config)
    unknown = sorted(set(config) - set(_CONFIG_TYPES))
    if unknown:
        raise ValidationError(
            f"unknown config keys {', '.join(unknown)} in {args.config}; "
            f"expected a subset of {', '.join(_CONFIG_TYPES)}"
        )
    # every value is checked, also one that a flag overrides
    config = {key: _config_value(key, value, args.config)
              for key, value in config.items() if value is not None}
    for key in _CONFIG_TYPES:  # explicit flag, then config file, then default
        if getattr(args, key) is None:
            setattr(args, key, config.get(key, _TRAIN_DEFAULTS.get(key)))
    if args.train_count is None and args.train_fraction is None:
        raise ValidationError("one of --train-count / --train-fraction is required")
    if args.group is None and args.group_file is None:
        raise ValidationError("one of --group / --group-file is required")
    if args.group is not None and args.group_file is not None:
        raise ValidationError("--group and --group-file are mutually exclusive")
    if args.data is None:
        raise ValidationError("--data is required")
    prefix, count = read_prefix(args.data, args.train_count, args.train_fraction)
    if count < 2:
        raise ValidationError(f"training prefix of {count} samples is too short")
    lag = args.L
    if lag == "auto":
        max_lag = max(1, min(args.max_lag, (count - 1) // 3))
        lag = model_mod.estimate_lag(prefix, max_lag)
        print(f"estimated lag L={lag} (max considered {max_lag})")
    rep = (load_group(args.group_file) if args.group_file is not None
           else systems.builtin_rep(args.group))
    trained = model_mod.train(prefix, rep, lag, args.p, sparsify=args.sparsify)
    model_mod.save(trained, args.out)
    print(f"trained on {count} samples (L={lag}, p={args.p}, group order "
          f"{rep.order})")
    print(f"basis size: {trained.fit.basis_dim}")
    print(f"train residual: {_fmt(trained.fit.train_residual)}")
    print(f"equivariance residual: {_fmt(trained.fit.equivariance_residual)}")
    print(f"model written to {args.out}")
    return EXIT_OK


def _seed_window(args, m):
    lag = m.lag
    if args.seed_csv is not None:
        for flag, value in (("--data", args.data), ("--train-count", args.train_count),
                            ("--train-fraction", args.train_fraction)):
            if value is not None:
                raise ValidationError(f"--seed-csv and {flag} are mutually exclusive")
        series = read_series(args.seed_csv)
        if series.shape[0] < lag:
            raise InsufficientDataError(
                f"seed series has {series.shape[0]} rows, need at least {lag}"
            )
        tail = series[-lag:]
        return tail.T.ravel(), None
    if args.data is None:
        raise ValidationError("either --seed-csv or --data is required")
    count = args.train_count
    if args.train_fraction is None and count is not None and count >= lag:
        window = read_series(args.data, lag, first_row=count - lag)
        if window.shape[0] == lag:
            return window.T.ravel(), count
    # every other case, and a series shorter than the count, reads the prefix
    prefix, count = read_prefix(args.data, args.train_count, args.train_fraction)
    if count < lag:
        raise ValidationError(f"training prefix {count} is shorter than lag {lag}")
    return prefix[-lag:].T.ravel(), count


def cmd_forecast(args):
    m = model_mod.load(args.model)
    seed, offset = _seed_window(args, m)
    if args.apply_group_element is not None:
        j = args.apply_group_element
        if not 0 <= j < m.group.order:
            raise ValidationError(
                f"group element index {j} outside 0..{m.group.order - 1}"
            )
        seed = window_action(m.group.elements[j], m.lag) @ seed
    fc = model_mod.rollout(m, seed, args.horizon, mode=args.mode)
    reference = None
    if args.reference is not None:
        start = offset if offset is not None else 0
        # at least one row, for the channel count of a forecast that diverged at once
        ref = read_series(args.reference, max(fc.steps, 1), first_row=start)
        if ref.shape[0] < fc.steps:
            # too short for rows start onward: compared from its first rows
            ref = read_series(args.reference, start + fc.steps)
        if ref.shape[1] != m.n:
            raise ShapeError(
                f"reference has {ref.shape[1]} channels, the model has {m.n}"
            )
        if ref.shape[0] < fc.steps:
            raise ValidationError(
                f"reference has {ref.shape[0]} rows, fewer than the {fc.steps} "
                "forecast steps"
            )
        reference = ref[:fc.steps]
    n = m.n
    header = ["t"] + [f"ch{j + 1}" for j in range(n)]
    columns = fc.values
    if reference is not None:
        header += [f"err{j + 1}" for j in range(n)]
        columns = np.hstack([fc.values, np.abs(fc.values - reference)])
    base = offset if offset is not None else 1
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        _write_rows(fh, base + np.arange(fc.steps), columns)
        if fc.diverged:
            fh.write(f"# diverged after {fc.steps} of {fc.horizon} steps\n")
    print(f"wrote {fc.steps} forecast rows to {args.out}")
    if reference is not None and fc.steps > 0:
        err = fc.values - reference
        rmse = np.sqrt(np.mean(err * err, axis=0))
        for j in range(n):
            print(f"rmse ch{j + 1}: {_fmt(rmse[j])}")
        print(f"rmse overall: {_fmt(np.sqrt(np.mean(err * err)))}")
    if fc.diverged:
        print(f"forecast diverged after {fc.steps} steps", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_verify(args):
    if not 0 <= args.threshold < np.inf:
        raise ValidationError(f"--threshold must be finite and >= 0, got {args.threshold}")
    m = model_mod.load(args.model, check_equivariance=False)
    norms = solver.equivariance_residuals(m.coupling, m.group, m.lag, m.plan)
    total = 0.0
    for r in norms:  # element order, as in solver.equivariance_residual
        total += r
    # each generator's norm is read at the element it equals bitwise; one
    # matched to an element only within the closure tolerance is not there
    per_gen = [next((r for e, r in zip(m.group.elements, norms) if np.array_equal(e, g)), None)
               for g in m.group.generators]
    if None in per_gen:
        per_gen = solver.generator_residuals(m.coupling, m.group, m.lag, m.plan)
    print(f"equivariance residual (all {m.group.order} elements): {_fmt(total)}")
    for i, r in enumerate(per_gen):
        print(f"generator {i}: commutator norm {_fmt(r)}")
    if total <= args.threshold:
        print(f"PASS (threshold {_fmt(args.threshold)})")
        return EXIT_OK
    print(f"FAIL (threshold {_fmt(args.threshold)})")
    return EXIT_CHECK_FAILED


def cmd_acf(args):
    series = read_series(args.data)
    lag = model_mod.estimate_lag(series, args.max_lag)
    table = model_mod.autocorrelation(series, args.max_lag)
    if args.out is not None:
        n = series.shape[1]
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("lag," + ",".join(f"ch{j + 1}" for j in range(n)) + "\n")
            _write_rows(fh, np.arange(1, args.max_lag + 1), table)
        print(f"wrote ACF table to {args.out}")
    print(f"recommended lag: {lag}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="earc",
        description="Equivariant autoregressive reservoir computers for "
                    "identifying symmetric dynamical systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic benchmark series")
    gen.add_argument("--system", required=True,
                     choices=["hamiltonian", "competition", "linear"])
    gen.add_argument("--steps", type=int)
    gen.add_argument("--dt", type=float, default=0.01)
    gen.add_argument("--q0", type=float, default=0.5)
    gen.add_argument("--p0", type=float, default=0.0)
    gen.add_argument("--printed-ic", action="store_true",
                     help="use the historic (1, 0) start, an equilibrium")
    gen.add_argument("--p0-vec", help="JSON start vector for the competition map")
    gen.add_argument("--growth", type=float, help="uniform competition growth rate")
    gen.add_argument("--matrix", default="I2",
                     help='linear-system matrix: "I<n>" or a JSON 2-D array')
    gen.add_argument("--x0", help="JSON start vector for the linear system")
    gen.add_argument("--out")
    gen.set_defaults(func=cmd_generate)

    tr = sub.add_parser("train", help="fit an equivariant model to a series CSV")
    tr.add_argument("--data")
    tr.add_argument("--group", choices=["k4", "z5"])
    tr.add_argument("--group-file", help="JSON file with {n, generators}")
    tr.add_argument("--L", type=_lag_arg, help='lag as an integer or "auto"')
    tr.add_argument("--p", type=int, help="embedding order")
    tr.add_argument("--train-count", type=int)
    tr.add_argument("--train-fraction", type=float)
    tr.add_argument("--sparsify", type=int)
    tr.add_argument("--max-lag", type=int)
    tr.add_argument("--out")
    tr.add_argument("--config", help="JSON config; explicit flags win")
    tr.set_defaults(func=cmd_train)

    fc = sub.add_parser("forecast", help="autoregressive rollout of a trained model")
    fc.add_argument("--model", required=True)
    fc.add_argument("--horizon", type=int, required=True)
    fc.add_argument("--data", help="series whose training prefix seeds the rollout")
    fc.add_argument("--train-count", type=int)
    fc.add_argument("--train-fraction", type=float)
    fc.add_argument("--seed-csv", help="explicit seed series (last L rows)")
    fc.add_argument("--reference", help="series to compare the forecast against")
    fc.add_argument("--mode", choices=["consistent", "free"], default="consistent")
    fc.add_argument("--apply-group-element", type=int,
                    help="apply group element j to the seed window")
    fc.add_argument("--out", default="forecast.csv")
    fc.set_defaults(func=cmd_forecast)

    ver = sub.add_parser("verify", help="check the equivariance of a saved model")
    ver.add_argument("--model", required=True)
    ver.add_argument("--threshold", type=float,
                     default=model_mod.PERSISTED_RESIDUAL_BOUND)
    ver.set_defaults(func=cmd_verify)

    acf = sub.add_parser("acf", help="autocorrelation table and lag recommendation")
    acf.add_argument("--data", required=True)
    acf.add_argument("--max-lag", type=int, default=50)
    acf.add_argument("--out")
    acf.set_defaults(func=cmd_acf)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
