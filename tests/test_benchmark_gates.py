"""The benchmark's forecast-RMSE gates on every data element of its three
workloads, at the benchmark's sizes.

Several gates sit at the double-precision rounding floor, where a change of
the basis or the fit that only reorders roundings can cross them.  This test
runs the commands' library calls in-process (no CSV files, no traced run) and
hands each forecast RMSE to the benchmark's own gate, ``Runner.check_rmse``,
so such a change fails here before a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from earc import model, systems
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
