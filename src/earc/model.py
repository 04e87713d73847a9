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
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels, solver, tensorops
from .embedding import (as_series, build_data_matrices, compressed_features,
                        compression_plan)
from .errors import (CorruptModelError, InsufficientDataError, ModelFormatError,
                     ShapeError, ValidationError)
from .groups import close_group
from .solver import FitReport

MODEL_FORMAT_VERSION = 1
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

    When the rollout diverges, values/windows hold only the finite prefix and
    ``diverged`` is set.
    """

    horizon: int
    values: np.ndarray
    windows: np.ndarray
    diverged: bool

    @property
    def steps(self):
        return self.values.shape[0]


def train(values, group, lag, order, *, nullspace_tol=tensorops.NULLSPACE_RTOL,
          lstsq_tol=tensorops.LSTSQ_RTOL, sparsify=None, metadata=None):
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
    basis = solver.equivariant_basis(group, lag, plan, rel_tol=nullspace_tol)
    fit = solver.fit_coefficients(basis, h0r, h1, rel_tol=lstsq_tol,
                                  sparsify=sparsify)
    coupling = solver.assemble(basis, fit)
    coupling.setflags(write=False)
    fit = replace(fit, equivariance_residual=solver.equivariance_residual(
        coupling, group, lag, plan))
    record = {
        "training_samples": int(values.shape[0]),
        "nullspace_tol": nullspace_tol,
        "lstsq_tol": lstsq_tol,
        "sparsify": sparsify,
    }
    if metadata:
        record.update(metadata)
    return EarcModel(n=n, lag=lag, order=order, group=group, plan=plan,
                     coupling=coupling, fit=fit, metadata=record)


def predict_step(model, window):
    """Predicted dilated state: coupling @ compressed embedding of the window."""
    window = tensorops._as_vector(window, "window")
    if window.shape[0] != model.n * model.lag:
        raise ShapeError(
            f"window dim {window.shape[0]} does not match n*lag={model.n * model.lag}"
        )
    phi = compressed_features(model.plan, window[None, :])[0]
    return model.coupling @ phi


def rollout(model, seed, horizon, mode="consistent"):
    """Iterate the predictor ``horizon`` steps from a seed window.

    mode="consistent" (default) keeps only the newest predicted entry of each
    channel and shifts the window, so successive windows stay self-consistent.
    mode="free" feeds the whole predicted dilated state back, which is the
    literal iteration of the identified difference equation.
    """
    seed = tensorops._as_vector(seed, "seed")
    if seed.shape[0] != model.n * model.lag:
        raise ShapeError(
            f"seed dim {seed.shape[0]} does not match n*lag={model.n * model.lag}"
        )
    if horizon < 1:
        raise ShapeError(f"horizon must be >= 1, got {horizon}")
    if mode not in ("consistent", "free"):
        raise ValidationError(f"unknown rollout mode {mode!r}")
    windows, diverged = _kernels.autoregress(
        model.coupling, model.plan, seed, horizon, model.lag,
        mode == "consistent", DIVERGENCE_CAP,
    )
    # the newest sample of each channel closes its block of the window
    values = windows[:, model.lag - 1::model.lag].copy()
    return Forecast(horizon=horizon, values=values, windows=windows, diverged=diverged)


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


def save(model, path):
    """Persist a model to JSON; float entries survive the round trip bit-exactly."""
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
            "coefficients": [float(c) for c in model.fit.coefficients],
            "train_residual": float(model.fit.train_residual),
            "delta_em": float(model.fit.equivariance_residual),
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load(path, check_equivariance=True):
    """Load a persisted model, revalidating every invariant.

    ``check_equivariance=False`` skips the residual bound so that diagnostic
    tools can inspect (and report on) a tampered file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(
                f"cannot parse {path}: {exc.msg} at line {exc.lineno} column {exc.colno}"
            ) from exc
        except UnicodeDecodeError as exc:
            raise ModelFormatError(
                f"cannot parse {path}: not UTF-8 text ({exc.reason})"
            ) from exc
    try:
        version = int(payload["version"])
        n = int(payload["n"])
        lag = int(payload["L"])
        order = int(payload["p"])
        generators = [np.asarray(g, dtype=np.float64).reshape(n, n)
                      for g in payload["generators"]]
        rep_index = [int(i) for i in payload["rep_index"]]
        flat_w = np.asarray(payload["W"], dtype=np.float64)
        fit_data = payload["fit"]
        coefficients = np.asarray(fit_data["coefficients"], dtype=np.float64)
        train_residual = float(fit_data["train_residual"])
        stored_residual = float(fit_data["delta_em"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptModelError(f"model file {path} is malformed: {exc}") from exc
    if version != MODEL_FORMAT_VERSION:
        raise CorruptModelError(f"unsupported model version {version}")
    if n < 1 or lag < 1 or order < 1:
        raise CorruptModelError(f"invalid dimensions n={n}, L={lag}, p={order}")
    group = close_group(generators)
    plan = compression_plan(n * lag, order)
    if rep_index != [int(i) for i in plan.rep_index]:
        raise CorruptModelError("stored monomial representatives do not match the plan")
    expected = n * lag * plan.reduced_dim
    if flat_w.shape[0] != expected:
        raise CorruptModelError(
            f"coupling has {flat_w.shape[0]} entries, expected {expected}"
        )
    if not np.all(np.isfinite(flat_w)) or not np.all(np.isfinite(coefficients)):
        raise CorruptModelError("model contains non-finite entries")
    coupling = flat_w.reshape(n * lag, plan.reduced_dim)
    coupling.setflags(write=False)
    if check_equivariance:
        residual = solver.equivariance_residual(coupling, group, lag, plan)
        if residual > PERSISTED_RESIDUAL_BOUND:
            raise CorruptModelError(
                f"loaded coupling violates equivariance: residual {residual:.3e}"
            )
    fit = FitReport(coefficients=coefficients, train_residual=train_residual,
                    equivariance_residual=stored_residual,
                    basis_dim=coefficients.shape[0], rank=None, rel_tol=None,
                    sparsify=None)
    return EarcModel(n=n, lag=lag, order=order, group=group, plan=plan,
                     coupling=coupling, fit=fit, metadata={"source": str(path)})
