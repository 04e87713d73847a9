"""End-to-end training, prediction, autoregressive rollout, and persistence.

Training (given a series, a symmetry representation, a lag L and an embedding
order p) runs:

1. build the monomial compression plan for dimension n*L and order p,
2. assemble the feature/target data matrices from the delay windows,
3. compute the basis of group-commuting coupling matrices,
4. fit basis coefficients by truncated-SVD least squares,
5. assemble the coupling matrix and record its equivariance residual.

Everything is deterministic: identical inputs and options produce bitwise
identical models.
"""

import json
import math
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels, solver, tensorops
from .embedding import as_series, build_data_matrices, compression_plan
from .errors import (CorruptModelError, DimensionOverflowError, InsufficientDataError,
                     ModelFormatError, ShapeError, ValidationError)
from .groups import from_json_dict, json_integer, json_numbers, read_json
from .solver import FitReport

MODEL_FORMAT_VERSION = 2
"""Version that ``save`` writes; ``load`` also reads version 1, whose ``fit``
stores the basis coefficients in place of their count ``basis_dim``."""

DIVERGENCE_CAP = 1e12
"""Predicted dilated states with norm above this truncate the rollout."""

PERSISTED_RESIDUAL_BOUND = 1e-8
"""Maximum equivariance residual tolerated when persisting or loading a model."""

ACF_THRESHOLD = 1.0 / math.e
"""Decorrelation threshold used by the lag estimator."""


@dataclass(frozen=True, eq=False)
class EarcModel:
    """Trained equivariant autoregressive reservoir computer."""

    n: int
    lag: int
    order: int
    group: object
    plan: object
    coupling: np.ndarray  # (n*lag, reduced_dim)
    fit: FitReport
    metadata: dict


@dataclass(frozen=True, eq=False)
class Forecast:
    """Autoregressive rollout result; values has one predicted sample per row.

    When the rollout diverges, values holds only the finite prefix and
    ``diverged`` is set.
    """

    horizon: int
    values: np.ndarray
    diverged: bool

    @property
    def steps(self):
        return self.values.shape[0]


def train(values, group, lag, order, *, sparsify=None):
    """Fit an equivariant one-step predictor to a (T, n) series."""
    values = as_series(values)
    n = values.shape[1]
    if n != group.n:
        raise ShapeError(f"series has {n} channels but the group acts on {group.n}")
    if lag < 1 or order < 1:
        raise ShapeError(f"need lag >= 1 and order >= 1, got {lag}, {order}")
    if values.shape[0] < lag + 1:
        raise InsufficientDataError(
            f"need at least lag+1 = {lag + 1} samples, got {values.shape[0]}"
        )
    plan = compression_plan(n * lag, order)
    h0r, h1 = build_data_matrices(values, lag, order, plan)
    basis = solver.equivariant_basis(group, lag, plan)
    fit = solver.fit_coefficients(basis, h0r, h1, sparsify=sparsify)
    coupling = solver.assemble(basis, fit)
    coupling.setflags(write=False)
    fit = replace(fit, equivariance_residual=solver.equivariance_residual(
        coupling, group, lag, plan))
    return EarcModel(n=n, lag=lag, order=order, group=group, plan=plan, coupling=coupling,
                     fit=fit, metadata={"training_samples": int(values.shape[0])})


def rollout(model, seed, horizon, mode="consistent"):
    """Iterate the predictor ``horizon`` steps from a seed window.

    mode="consistent" (default) keeps only the newest predicted entry of each
    channel and shifts the window, so successive windows stay self-consistent.
    mode="free" feeds the whole predicted dilated state back, which is the
    literal iteration of the identified difference equation.
    """
    seed = check_rollout(model, seed, horizon, mode)
    values, diverged = _kernels.autoregress(
        model.coupling, model.plan, seed, horizon, model.lag,
        mode == "consistent", DIVERGENCE_CAP,
    )
    return Forecast(horizon=horizon, values=values, diverged=diverged)


def check_rollout(model, seed, horizon, mode):
    """The seed window as the vector that :func:`rollout` iterates, after every
    check it makes, so that a caller can refuse a rollout before other work."""
    seed = tensorops._as_vector(seed, "seed")
    if seed.shape[0] != model.n * model.lag:
        raise ShapeError(
            f"seed dim {seed.shape[0]} does not match n*lag={model.n * model.lag}"
        )
    if horizon < 1:
        raise ShapeError(f"horizon must be >= 1, got {horizon}")
    tensorops._check_entries(horizon * seed.shape[0])
    if mode not in ("consistent", "free"):
        raise ValidationError(f"unknown rollout mode {mode!r}")
    return seed


def estimate_lag(values, max_lag):
    """Smallest lag at which the mean absolute autocorrelation falls below 1/e.

    Constant channels contribute zero autocorrelation beyond lag 0, so a fully
    constant series yields lag 1.  Falls back to max_lag when the correlation
    never drops below the threshold.
    """
    values = as_series(values)
    if max_lag < 1:
        raise ShapeError(f"max_lag must be >= 1, got {max_lag}")
    if values.shape[0] <= 3 * max_lag:
        raise InsufficientDataError(
            f"need more than 3*max_lag = {3 * max_lag} samples, got {values.shape[0]}"
        )
    acf = autocorrelation(values, max_lag)
    score = np.mean(np.abs(acf), axis=1)
    below = np.nonzero(score < ACF_THRESHOLD)[0]
    return int(below[0]) + 1 if below.size else max_lag


def autocorrelation(values, max_lag):
    """Per-channel sample autocorrelation, shape (max_lag, n), lags 1..max_lag."""
    values = as_series(values)
    t = values.shape[0]
    centered = values - values.mean(axis=0)
    var = np.sum(centered * centered, axis=0)
    out = np.zeros((max_lag, values.shape[1]))
    live = var > 0
    for ell in range(1, max_lag + 1):
        if ell < t:
            cov = np.sum(centered[:-ell] * centered[ell:], axis=0)
            out[ell - 1, live] = cov[live] / var[live]
    return out


@contextmanager
def output_file(path):
    """A text stream for ``path``, written whole or not at all where it can be.

    A missing path or a regular file (through a symbolic link, as ``open``
    writes) gets a new file beside it, with the mode ``open`` would leave,
    that replaces it once the ``with`` body has finished; if anything raises
    first, the new file is removed and an old one is left as it was.  Anything
    else, such as a device or a FIFO, is written in place.  Errors name ``path``.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    except OSError:  # such as a path under a file, which open reports
        mode = 0
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    directory, name = os.path.split(os.path.realpath(path))
    temp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(temp, "x", encoding="utf-8")  # mode 0o666 less the umask
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            if mode is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(mode))
            yield fh
        os.replace(temp, os.path.join(directory, name))
    except BaseException:
        os.unlink(temp)
        raise


def save(model, path):
    """Persist a model to JSON; float entries survive the round trip bit-exactly.

    NaN and infinities are refused before the file is opened: JSON has no
    encoding for them and ``load`` would reject the file.
    """
    if not (model.fit.equivariance_residual <= PERSISTED_RESIDUAL_BOUND):
        raise ValidationError(
            f"refusing to persist a model with equivariance residual "
            f"{model.fit.equivariance_residual:.3e} > {PERSISTED_RESIDUAL_BOUND:.0e}"
        )
    payload = {
        "version": MODEL_FORMAT_VERSION,
        "n": model.n,
        "L": model.lag,
        "p": model.order,
        "generators": [[float(v) for v in g.ravel()] for g in model.group.generators],
        "rep_index": [int(i) for i in model.plan.rep_index],
        "W": [float(v) for v in model.coupling.ravel()],
        "fit": {
            "basis_dim": int(model.fit.basis_dim),
            "train_residual": float(model.fit.train_residual),
            "delta_em": float(model.fit.equivariance_residual),
        },
    }
    try:
        text = json.dumps(payload, allow_nan=False)
    except ValueError as exc:
        raise ValidationError(f"refusing to persist a model with non-finite values: {exc}") from exc
    with output_file(path) as fh:
        fh.write(text + "\n")


def load(path, check_equivariance=True):
    """Load a persisted model of either format version, revalidating every
    invariant.  The versions differ only in where the basis size comes from.

    ``check_equivariance=False`` skips the residual bound so that diagnostic
    tools can inspect (and report on) a tampered file.
    """
    payload = read_json(path, ModelFormatError)
    try:
        version, lag, order = (json_integer(payload[key], key) for key in ("version", "L", "p"))
        rep_index = json_numbers(payload["rep_index"], "rep_index", np.int64)
        flat_w = json_numbers(payload["W"], "W")
        fit_data = payload["fit"]
        basis_dim = (json_numbers(fit_data["coefficients"], "fit.coefficients").shape[0]
                     if version == 1 else json_integer(fit_data["basis_dim"], "fit.basis_dim"))
        train_residual, stored_residual = json_numbers(
            [fit_data["train_residual"], fit_data["delta_em"]], "fit residuals").tolist()
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptModelError(f"model file {path} is malformed: {exc}") from exc
    if version not in (1, MODEL_FORMAT_VERSION):
        raise CorruptModelError(f"unsupported model version {version}")
    try:
        group = from_json_dict(payload)
    except (ValidationError, ShapeError) as exc:  # ShapeError: n = 0 empties each generator
        raise CorruptModelError(f"model file {path} has invalid generators: {exc}") from exc
    if lag < 1 or order < 1:
        raise CorruptModelError(f"invalid dimensions L={lag}, p={order}")
    n = group.n
    # the plan has C(nL + p, p) >= 2^min(nL, p) features: check their count
    # before tabulating them, without forming a huge binomial
    if (min(n * lag, order) > rep_index.size.bit_length()
            or math.comb(n * lag + order, order) != rep_index.size):
        raise CorruptModelError(
            f"model file {path} has {rep_index.size} monomial representatives, not the "
            f"C(n*L + p, p) of n={n}, L={lag}, p={order}"
        )
    try:
        plan = compression_plan(n * lag, order)
    except DimensionOverflowError as exc:
        raise CorruptModelError(f"model file {path} has dimensions past the cap: {exc}") from exc
    if not np.array_equal(rep_index, plan.rep_index):
        raise CorruptModelError("stored monomial representatives do not match the plan")
    expected = n * lag * plan.reduced_dim
    if flat_w.shape[0] != expected:
        raise CorruptModelError(
            f"coupling has {flat_w.shape[0]} entries, expected {expected}"
        )
    size = lag * int(solver.degree_kernel_dims(group, lag, order).sum())
    if basis_dim != size:
        raise CorruptModelError(f"fit has ({basis_dim},) coefficients, expected ({size},)")
    coupling = flat_w.reshape(n * lag, plan.reduced_dim)
    coupling.setflags(write=False)
    if check_equivariance:
        residual = solver.equivariance_residual(coupling, group, lag, plan)
        if residual > PERSISTED_RESIDUAL_BOUND:
            raise CorruptModelError(
                f"loaded coupling violates equivariance: residual {residual:.3e}"
            )
    fit = FitReport(coefficients=None, train_residual=train_residual,
                    equivariance_residual=stored_residual, basis_dim=basis_dim, rank=None)
    return EarcModel(n=n, lag=lag, order=order, group=group, plan=plan,
                     coupling=coupling, fit=fit, metadata={"source": str(path)})
