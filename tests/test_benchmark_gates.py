"""The benchmark's forecast-RMSE gates on every data element of its three
workloads, at the benchmark's sizes, and the recovery of the exact map that
its z5 model class holds.

Several gates sit at the double-precision rounding floor, where a change of
the basis or the fit that only reorders roundings can cross them.  This test
runs the commands' library calls in-process (no CSV files, no traced run) and
hands each forecast RMSE to the benchmark's own gate, ``Runner.check_rmse``,
so such a change fails here before a benchmark run.  The recovery test
measures identification itself, which one rounding draw cannot move: the z5
coupling against the competition map's closed-form coefficients.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from earc import model, solver, systems, tensorops
from earc.embedding import build_data_matrices
from earc.groups import window_action

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
ELEMENTS = {"z5-rollout": 5, "k4-paper": 4, "k4-long": 4}


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
        mp.syspath_prepend(str(PERFBENCH))  # bench.py imports its tracer
        spec = importlib.util.spec_from_file_location("perfbench_bench", PERFBENCH / "bench.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def _series(w, g):
    """The series ``earc generate`` writes in ``Runner.setup``: started from
    the default start moved by ``g``."""
    if w.system == "hamiltonian":
        start = systems.HamiltonianConfig()
        q0, p0 = g @ np.array([start.q0, start.p0])
        return systems.hamiltonian_generate(
            systems.HamiltonianConfig(q0=float(q0), p0=float(p0), steps=w.steps))
    return systems.competition_generate(
        systems.CompetitionConfig(p0=g @ systems.DEFAULT_COMPETITION_START, steps=w.steps))


@pytest.mark.parametrize("name,element", [(name, e) for name, count in ELEMENTS.items()
                                          for e in range(count)])
def test_forecasts_pass_the_benchmark_rmse_gates(bench, name, element):
    """`earc train`, then `earc forecast --apply-group-element j --reference
    reference-j.csv` for every element j and mode, as one benchmark pass does."""
    w = bench.WORKLOADS[name]
    runner = bench.Runner(w, element, PERFBENCH)  # writes nothing: no command is run
    assert runner.element == element
    rep = runner.rep
    series = _series(w, rep.elements[element])
    count = w.train_count
    trained = model.train(series[:count], rep, w.lag, w.order)
    seed = series[count - w.lag:count].T.ravel()
    rmses = []
    for mode in w.modes:
        for g in rep.elements:
            fc = model.rollout(trained, window_action(g, w.lag) @ seed, w.horizon, mode)
            err = fc.values - (series @ g.T)[count:count + w.horizon]
            rmses.append(np.sqrt(np.mean(err * err)))
            runner.check_rmse(rmses[-1])
    assert len(rmses) == runner.forecasts_per_pass()
    assert runner.errors == []


def _exact_competition_coupling(plan):
    """The competition map p + r p (1 - N p) as a coupling on the features of
    ``plan`` (lag 1, order 2), from its closed form through the plan's
    monomial order: 1 + r_i on p_i and -r_i N_ij on p_i p_j in output i, and
    nothing on the constant."""
    cfg = systems.CompetitionConfig()
    m = plan.dim_in
    # rep_index: p_a is coordinate a of the full embedding, p_a p_b (a <= b) m + a m + b
    column = {int(c): f for f, c in enumerate(plan.rep_index)}
    w = np.zeros((m, plan.reduced_dim))
    for i in range(m):
        w[i, column[i]] = 1.0 + cfg.r[i]
        for j in range(m):
            a, b = sorted((i, j))
            w[i, column[m + a * m + b]] -= cfg.r[i] * cfg.interactions[i, j]
    return w


@pytest.mark.parametrize("element", range(ELEMENTS["z5-rollout"]))
def test_z5_fit_recovers_the_exact_map(bench, element):
    """`earc train` on the series moved by each element, as the benchmark
    trains, gives the competition map's coefficients.  The model class holds
    the map and the fit cuts no singular value, so the fit solves a consistent
    system: its relative error is bounded by cond(kept) * eps of the design,
    whatever rounding the fit draws."""
    w = bench.WORKLOADS["z5-rollout"]
    rep = systems.builtin_rep(w.group)
    series = _series(w, rep.elements[element])[:w.train_count]
    trained = model.train(series, rep, w.lag, w.order)
    exact = _exact_competition_coupling(trained.plan)
    assert np.count_nonzero(exact) == 20  # the 5 linear and 15 quadratic terms
    basis = solver.equivariant_basis(rep, w.lag, trained.plan)
    h0r, _ = build_data_matrices(series, w.lag, w.order, trained.plan)
    # the singular values of the design [vec(K_j h0r)], whatever its row order
    design = np.stack([(k @ h0r).ravel() for k in basis.slot_matrices], axis=1)
    s = np.linalg.svd(design, compute_uv=False)
    assert s[-1] > tensorops.LSTSQ_RTOL * s[0]  # every value is kept
    bound = s[0] / s[-1] * np.finfo(np.float64).eps
    assert np.max(np.abs(trained.coupling - exact)) <= bound * np.max(np.abs(exact))
