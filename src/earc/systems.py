"""Synthetic benchmark systems and their built-in symmetry representations.

Two reference systems are provided: a planar Hamiltonian flow whose vector
field commutes with a four-element signed-swap group, and a five-species
discrete competition map (representation-ranking dynamics) that is
shift-equivariant when all growth rates coincide.  A planted linear map is
included as a test oracle.
"""

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, tensorops
from .errors import DivergenceError, ShapeError, UnknownNameError, ValidationError
from .groups import close_group

INTERACTION_MATRIX = np.array([
    [1.0, 1.1, 0.0, 0.0, 1.0],
    [1.0, 1.0, 1.1, 0.0, 0.0],
    [0.0, 1.0, 1.0, 1.1, 0.0],
    [0.0, 0.0, 1.0, 1.0, 1.1],
    [1.1, 0.0, 0.0, 1.0, 1.0],
])
"""Circulant five-bank interaction network; every row sums to 3.1."""

GROWTH_RATE = 0.376
"""Uniform growth rate under which the competition map is shift-equivariant."""

DEFAULT_COMPETITION_START = np.array([0.2, 0.35, 0.5, 0.65, 0.8])
"""Asymmetric interior start for competition runs (no start is canonical)."""

COMPETITION_RANGE = 10.0
"""Competition states leaving [-10, 10] are treated as divergent."""

PRINTED_HAMILTONIAN_START = (1.0, 0.0)
"""Historic initial condition; an equilibrium of the vector field, kept for fidelity."""


@dataclass(frozen=True)
class HamiltonianConfig:
    """Fixed-step integration request for the planar Hamiltonian system.

    The default start (0.5, 0) lies on a closed orbit around the centre
    (1, 0); the historic start (1, 0) is an equilibrium and produces a
    constant series.
    """

    q0: float = 0.5
    p0: float = 0.0
    dt: float = 0.01
    steps: int = 600

    def __post_init__(self):
        if not (0 < self.dt < math.inf and math.isfinite(self.q0) and math.isfinite(self.p0)):
            raise ValidationError(f"need a finite start and a finite dt > 0, got "
                                  f"({self.q0}, {self.p0}) and {self.dt}")
        if self.steps < 1:
            raise ValidationError(f"steps must be >= 1, got {self.steps}")


@dataclass(frozen=True)
class CompetitionConfig:
    """Iteration request for the competition map: a start ``p0`` in (0, 1)^n,
    n finite growth rates ``r`` and an n x n ``interactions`` matrix."""

    p0: np.ndarray = field(default_factory=lambda: DEFAULT_COMPETITION_START.copy())
    r: np.ndarray = field(default_factory=lambda: np.full(5, GROWTH_RATE))
    interactions: np.ndarray = field(default_factory=lambda: INTERACTION_MATRIX.copy())
    steps: int = 425

    def __post_init__(self):
        p0, r, n_matrix = (np.asarray(a, dtype=np.float64)
                           for a in (self.p0, self.r, self.interactions))
        if not np.all((p0 > 0.0) & (p0 < 1.0)):
            raise ValidationError("all start components must lie in (0, 1)")
        if not np.all(np.isfinite(r)):
            raise ValidationError("growth rates must be finite")
        if not np.all((n_matrix >= 0.0) & np.isfinite(n_matrix)):
            raise ValidationError("interaction entries must be nonnegative and finite")
        if self.steps < 0:
            raise ValidationError(f"steps must be >= 0, got {self.steps}")
        if p0.ndim != 1 or p0.size == 0 or r.shape != p0.shape or n_matrix.shape != p0.shape * 2:
            raise ShapeError(f"inconsistent dims: p {p0.shape}, r {r.shape}, N {n_matrix.shape}")


def hamiltonian_generate(cfg):
    """Classical fixed-step RK4 trajectory, returned as a (steps+1, 2) series.

    The state is stepped as two Python floats: the same operations in the same
    order as on a length-2 array, without numpy's per-call cost.  Each stage
    evaluates the field (dq/dt, dp/dt) = (p^3 - p, q^3 - q) inline, and the
    states are appended to one flat float64 ``array.array``, which the
    returned series views without a copy.
    """
    q, p = float(cfg.q0), float(cfg.p0)
    dt = float(cfg.dt)
    half = 0.5 * dt
    sixth = dt / 6.0
    tensorops._check_entries((cfg.steps + 1) * 2)
    series = array("d", (q, p))
    k = 0
    try:
        for k in range(1, cfg.steps + 1):
            a1, b1 = p ** 3 - p, q ** 3 - q
            q2, p2 = q + half * a1, p + half * b1
            a2, b2 = p2 ** 3 - p2, q2 ** 3 - q2
            q3, p3 = q + half * a2, p + half * b2
            a3, b3 = p3 ** 3 - p3, q3 ** 3 - q3
            q4, p4 = q + dt * a3, p + dt * b3
            a4, b4 = p4 ** 3 - p4, q4 ** 3 - q4
            q = q + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            p = p + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            if not (math.isfinite(q) and math.isfinite(p)):
                raise DivergenceError(f"integration diverged at step {k}")
            series.append(q)
            series.append(p)
    except OverflowError:
        # float ** 3 raises where numpy's power returned inf
        raise DivergenceError(f"integration diverged at step {k}") from None
    return np.frombuffer(series).reshape(-1, 2)


def competition_generate(cfg):
    """Iterated competition map p + r * p * (1 - N p) of a checked config, as
    a (steps+1, n) series.  Each step writes straight into its row; the range
    is tested once per ``_kernels.BLOCK_STEPS`` steps, and its first failing
    row (NaN fails too) is reported."""
    p, r, n_matrix = (np.asarray(a, dtype=np.float64) for a in (cfg.p0, cfg.r, cfg.interactions))
    tensorops._check_entries((cfg.steps + 1) * p.shape[0])
    rows = np.empty((cfg.steps + 1, p.shape[0]))
    rows[0] = p
    rp, t = np.empty_like(p), np.empty_like(p)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(1, cfg.steps + 1, _kernels.BLOCK_STEPS):
            block = rows[start:start + _kernels.BLOCK_STEPS]
            for prev, nxt in zip(rows[start - 1:], block):
                n_matrix.dot(prev, out=t)
                np.subtract(1.0, t, out=t)
                np.multiply(r, prev, out=rp)
                np.multiply(rp, t, out=t)
                np.add(prev, t, out=nxt)
            bad = np.flatnonzero(~(np.abs(block).max(axis=1) <= COMPETITION_RANGE))
            if bad.size:
                raise DivergenceError(
                    f"competition state left the admissible range at step {start + bad[0]}")
    return rows


def builtin_rep(name):
    """Built-in representations: "k4" (signed swap, order 4) or "z5" (cyclic shift, order 5)."""
    if name == "k4":
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        flip = -np.eye(2)
        return close_group([swap, flip])
    if name == "z5":
        shift = np.zeros((5, 5))
        for i in range(5):
            shift[i, (i + 1) % 5] = 1.0
        return close_group([shift])
    raise UnknownNameError(f"no built-in representation named {name!r}; choose k4 or z5")


def planted_linear(a, x0, steps):
    """Orbit of x(t+1) = A x(t), returned as a (steps+1, n) series."""
    a = tensorops._as_matrix(a, "a")
    x = tensorops._as_vector(x0, "x0")
    if a.shape[0] != a.shape[1] or a.shape[0] != x.shape[0]:
        raise ShapeError(f"matrix {a.shape} does not act on start of dim {x.shape[0]}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(x))):
        raise ValidationError("matrix and start must be finite")
    if steps < 0:
        raise ShapeError(f"steps must be >= 0, got {steps}")
    tensorops._check_entries((steps + 1) * x.shape[0])
    rows = np.empty((steps + 1, x.shape[0]))
    rows[0] = x
    for k in range(steps):
        x = a @ x
        if not np.all(np.isfinite(x)) or np.linalg.norm(x) > 1e12:
            raise DivergenceError(f"linear orbit overflowed at step {k + 1}")
        rows[k + 1] = x
    return rows
