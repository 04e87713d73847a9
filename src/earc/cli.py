"""Command-line front end: generate / train / forecast / verify / acf.

Exit codes: 0 success, 1 failed verification, 2 validation or input error,
3 numerical failure or corrupt model, 4 forecast divergence.  All commands are
deterministic; repeated runs on identical inputs produce byte-identical
outputs.
"""

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from . import solver, systems, tensorops
from .errors import (CorruptModelError, DimensionOverflowError, DivergenceError,
                     InsufficientDataError, ModelFormatError, NoFeasibleModelError,
                     NonFiniteGroupError, NumericalError, ShapeError,
                     UnknownNameError, ValidationError)
from .groups import load_group, window_action

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_DIVERGED = 4

_VALIDATION_ERRORS = (ValidationError, ShapeError, InsufficientDataError,
                      UnknownNameError, ModelFormatError, DimensionOverflowError,
                      FileNotFoundError, IsADirectoryError, PermissionError)
_NUMERICAL_ERRORS = (NumericalError, NoFeasibleModelError, NonFiniteGroupError,
                     CorruptModelError)


def _fmt(v):
    return format(float(v), ".17g")


def write_series(path, values):
    """CSV with header t,ch1..chn and 17-significant-digit floats."""
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t," + ",".join(f"ch{j + 1}" for j in range(n)) + "\n")
        for t, row in enumerate(values):
            fh.write(str(t) + "," + ",".join(_fmt(v) for v in row) + "\n")


def read_series(path):
    """Read a series CSV written by :func:`write_series` (or any t,ch... file)."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments="#")
    except OSError:
        raise FileNotFoundError(f"cannot read series file {path}")
    except ValueError as exc:
        raise ValidationError(f"malformed series CSV {path}: {exc}") from exc
    if data.shape[1] < 2:
        raise ValidationError(f"series CSV {path} has no channel columns")
    return data[:, 1:]


@dataclass(frozen=True)
class ExperimentConfig:
    """Merged, validated options of a training run."""

    data: str
    group: str | None
    group_file: str | None
    lag: object  # int or the string "auto"
    order: int
    train_count: int | None
    train_fraction: float | None
    nullspace_tol: float
    lstsq_tol: float
    sparsify: int | None
    max_lag: int
    out: str

    def __post_init__(self):
        if (self.train_count is None) == (self.train_fraction is None):
            raise ValidationError(
                "exactly one of --train-count / --train-fraction must be set"
            )
        if self.train_fraction is not None and not 0.0 < self.train_fraction <= 1.0:
            raise ValidationError(
                f"train fraction must be in (0, 1], got {self.train_fraction}"
            )
        if self.group is None and self.group_file is None:
            raise ValidationError("one of --group / --group-file is required")

    def training_prefix(self, total):
        if self.train_count is not None:
            count = self.train_count
        else:
            count = int(round(self.train_fraction * total))
        if count < 2:
            raise ValidationError(f"training prefix of {count} samples is too short")
        if count > total:
            raise ValidationError(
                f"training prefix {count} exceeds series length {total}"
            )
        return count

    def load_rep(self):
        if self.group_file is not None:
            return load_group(self.group_file)
        return systems.builtin_rep(self.group)


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


def _pick(flag_value, config, key, default):
    """Merge precedence: explicit flag, then config file, then default."""
    if flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    return default


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


_CONFIG_KEYS = ("data", "group", "group_file", "L", "p", "train_count",
                "train_fraction", "nullspace_tol", "lstsq_tol", "sparsify",
                "max_lag", "out")
"""Keys a ``train --config`` file may set; any other key is rejected."""


def cmd_train(args):
    config = _load_config(args.config)
    unknown = sorted(set(config) - set(_CONFIG_KEYS))
    if unknown:
        raise ValidationError(
            f"unknown config keys {', '.join(unknown)} in {args.config}; "
            f"expected a subset of {', '.join(_CONFIG_KEYS)}"
        )
    cfg = ExperimentConfig(
        data=_pick(args.data, config, "data", None),
        group=_pick(args.group, config, "group", None),
        group_file=_pick(args.group_file, config, "group_file", None),
        lag=_pick(args.L, config, "L", "auto"),
        order=int(_pick(args.p, config, "p", 2)),
        train_count=_pick(args.train_count, config, "train_count", None),
        train_fraction=_pick(args.train_fraction, config, "train_fraction", None),
        nullspace_tol=float(_pick(args.nullspace_tol, config, "nullspace_tol",
                                  tensorops.NULLSPACE_RTOL)),
        lstsq_tol=float(_pick(args.lstsq_tol, config, "lstsq_tol",
                              tensorops.LSTSQ_RTOL)),
        sparsify=_pick(args.sparsify, config, "sparsify", None),
        max_lag=int(_pick(args.max_lag, config, "max_lag", 50)),
        out=_pick(args.out, config, "out", "model.json"),
    )
    if cfg.data is None:
        raise ValidationError("--data is required")
    series = read_series(cfg.data)
    count = cfg.training_prefix(series.shape[0])
    prefix = series[:count]
    if cfg.lag == "auto":
        max_lag = max(1, min(cfg.max_lag, (count - 1) // 3))
        lag = model_mod.estimate_lag(prefix, max_lag)
        print(f"estimated lag L={lag} (max considered {max_lag})")
    else:
        lag = int(cfg.lag)
    rep = cfg.load_rep()
    trained = model_mod.train(
        prefix, rep, lag, cfg.order,
        nullspace_tol=cfg.nullspace_tol, lstsq_tol=cfg.lstsq_tol,
        sparsify=cfg.sparsify,
    )
    model_mod.save(trained, cfg.out)
    print(f"trained on {count} samples (L={lag}, p={cfg.order}, group order "
          f"{rep.order})")
    print(f"basis size: {trained.fit.basis_dim}")
    print(f"train residual: {_fmt(trained.fit.train_residual)}")
    print(f"equivariance residual: {_fmt(trained.fit.equivariance_residual)}")
    print(f"model written to {cfg.out}")
    return EXIT_OK


def _seed_window(args, m):
    lag = m.lag
    if args.seed_csv is not None:
        series = read_series(args.seed_csv)
        if series.shape[0] < lag:
            raise InsufficientDataError(
                f"seed series has {series.shape[0]} rows, need at least {lag}"
            )
        tail = series[-lag:]
        return tail.T.ravel(), None
    if args.data is None:
        raise ValidationError("either --seed-csv or --data is required")
    series = read_series(args.data)
    if args.train_count is not None:
        count = args.train_count
    elif args.train_fraction is not None:
        count = int(round(args.train_fraction * series.shape[0]))
    else:
        count = series.shape[0]
    if count < lag or count > series.shape[0]:
        raise ValidationError(
            f"training prefix {count} incompatible with series of "
            f"{series.shape[0]} rows and lag {lag}"
        )
    tail = series[count - lag:count]
    return tail.T.ravel(), count


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
        ref = read_series(args.reference)
        start = offset if offset is not None else 0
        if ref.shape[0] >= start + fc.steps:
            reference = ref[start:start + fc.steps]
        elif ref.shape[0] >= fc.steps:
            reference = ref[:fc.steps]
        else:
            raise ValidationError(
                f"reference has {ref.shape[0]} rows, fewer than the {fc.steps} "
                "forecast steps"
            )
    n = m.n
    header = ["t"] + [f"ch{j + 1}" for j in range(n)]
    if reference is not None:
        header += [f"err{j + 1}" for j in range(n)]
    base = offset if offset is not None else 1
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(fc.steps):
            row = [str(base + i)] + [_fmt(v) for v in fc.values[i]]
            if reference is not None:
                row += [_fmt(abs(fc.values[i, j] - reference[i, j])) for j in range(n)]
            fh.write(",".join(row) + "\n")
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
    m = model_mod.load(args.model, check_equivariance=False)
    total = solver.equivariance_residual(m.coupling, m.group, m.lag, m.plan)
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
            for ell in range(args.max_lag):
                fh.write(str(ell + 1) + "," +
                         ",".join(_fmt(v) for v in table[ell]) + "\n")
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
    tr.add_argument("--L", help='lag as an integer or "auto"')
    tr.add_argument("--p", type=int, help="embedding order")
    tr.add_argument("--train-count", type=int)
    tr.add_argument("--train-fraction", type=float)
    tr.add_argument("--nullspace-tol", type=float)
    tr.add_argument("--lstsq-tol", type=float)
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
    ver.add_argument("--threshold", type=float, default=1e-8)
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
