"""Workloads, correctness gates and metrics of the earc pipeline benchmark.

Every command runs in-process through ``earc.cli.main``, the entry point a
user of the repository runs.  The compression-plan cache is cleared before
each command so that every command pays what a fresh ``earc`` process pays.
Timings of interpreter-bound commands are scaled by a reference kernel run
beside them (``reference_kernel``), so that the host's slow phases do not show
as changes of the program.  See ``run.py`` for the command line and
``README.md`` for what each metric should move.
"""

import contextlib
import ctypes
import functools
import importlib.util
import io
import json
import math
import os
import platform
import resource
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from earc import _kernels, cli, embedding, model, solver, systems, tensorops
from tracer import LAYERS, Tracer, descendants, instrumented, self_times

RESIDUAL_GATE = 1e-10
"""Largest equivariance residual a trained or verified model may report."""

ROLLOUT_EQUIVARIANCE_GATE = 1e-9
"""Largest |rollout(g.seed) - g.rollout(seed)| over the horizon (1.1e-11 measured on z5)."""

RMSE_RESOLUTION = 1e-10
"""Forecast RMSEs below this sit at the double-precision rounding floor: they move
by up to 11x when the training data is replaced by a group-transformed copy, so
``forecast_rmse`` reports them as this value."""

RMSE_RTOL = 0.1
"""Relative tolerance, both ways, between a forecast RMSE and a reference above
RMSE_RESOLUTION."""

RMSE_FLOOR_FACTOR = 2.0
"""Where the reference is below RMSE_RESOLUTION, a forecast RMSE may be at most
this many times the reference of its data's group element: a 5x loss of
accuracy fails, a change of rounding order does not."""

SETUP_REPEAT = 5
"""Set-ups per run; ``setup_s`` is their median."""
REFERENCE_KERNEL_S = 3e-3
"""Nominal seconds of ``reference_kernel``: about its time on the 2-core Xeon
(Sapphire Rapids) KVM guest the benchmark was built on, in its fast phase.
Scaled timings read as seconds on a host where the kernel takes this long."""
CALIBRATE_EVERY = 0.25
"""Seconds between two runs of the reference kernel in the measured loop."""
CALIBRATION_WINDOW = 1.0
"""A sample is scaled by the median kernel time within this many seconds of it."""
VERIFY_REPEAT = 5
"""Verifies in each iteration of the traced run."""
MIN_TRAINS = 2
"""Trains per run at least, so that their model files can be compared."""

KINDS = ("train", "forecast", "verify")

COMMANDS = ("cli.train", "cli.forecast", "cli.verify")
SETUP_TRACE = -1

_compression_plan = embedding.compression_plan


def _clear_plan_cache():
    clear = getattr(_compression_plan, "cache_clear", None)
    if clear is not None:
        clear()


@dataclass(frozen=True)
class Workload:
    name: str
    system: str
    group: str
    lag: int
    order: int
    train_count: int
    steps: int
    horizon: int
    modes: tuple
    shares: tuple
    """Shares of the measured time given to train, forecast and verify."""
    interpreted: tuple
    """Timed kinds (set-up and commands) that are mostly interpreter work; their
    timings are scaled by the reference kernel, the others are reported raw."""
    ref_rmse: tuple
    """Largest forecast RMSE against the true series when the data is moved by
    group element e (entry e), recorded at the commit that added the benchmark."""
    stressed: tuple
    """(command span, span whose self time should dominate that command)."""
    sweep_lags: tuple = (2, 3, 4, 5)
    feature_rows: int = 20000


WORKLOADS = {w.name: w for w in (
    # The Hamiltonian/signed-swap paper run; the stacked-constraint SVD of the
    # equivariant basis is about 90% of `earc train`.
    Workload("k4-paper", "hamiltonian", "k4", 5, 3, 90, 600, 100,
             ("consistent",), (0.6, 0.2, 0.2), ("setup", "forecast", "verify"),
             (1.0489e-7, 1.0494e-7) * 2,
             ("cli.train", "solver.equivariant_basis")),
    # Same system and group with a small basis and 20,000 training samples:
    # the design-matrix fit dominates and the basis is cheap.
    Workload("k4-long", "hamiltonian", "k4", 3, 3, 20000, 21000, 1000,
             ("consistent",), (0.8, 0.12, 0.08), ("setup", "forecast", "verify"),
             (1.3003e-11, 1.4115e-11) * 2,
             ("cli.train", "solver.fit_coefficients")),
    # The competition/cyclic-shift paper model rolled out 10,000 steps from all
    # five transformed seeds: the per-step rollout kernel dominates.
    Workload("z5-rollout", "competition", "z5", 1, 2, 31, 10031, 10000,
             ("consistent", "free"), (0.15, 0.7, 0.15),
             ("setup", "train", "forecast", "verify"),
             (2.5699e-12, 2.7587e-11, 2.7926e-11, 2.4910e-11, 7.2181e-12),
             ("cli.forecast", "model.rollout")),
)}

SMOKE = {
    "k4-paper": replace(WORKLOADS["k4-paper"], lag=3, horizon=20,
                        ref_rmse=(5.5672e-12, 5.5748e-12) * 2,
                        sweep_lags=(2, 3), feature_rows=2000),
    "k4-long": replace(WORKLOADS["k4-long"], train_count=2000, steps=2100, horizon=100,
                       ref_rmse=(5.2736e-12, 5.3021e-12) * 2,
                       sweep_lags=(2, 3), feature_rows=2000),
    "z5-rollout": replace(WORKLOADS["z5-rollout"], steps=531, horizon=500,
                          ref_rmse=(1.0031e-13, 9.2967e-13, 9.5144e-13, 8.3195e-13, 2.4695e-13),
                          sweep_lags=(2, 3), feature_rows=2000),
}


def _field(text, prefix):
    """Float after the colon of the first stdout line that starts with ``prefix``."""
    for line in text.splitlines():
        if line.startswith(prefix):
            return float(line.rsplit(":", 1)[1].split()[0])
    raise ValueError(f"no line starting with {prefix!r} in command output")


def _read_values(path, n):
    """Value columns of a forecast CSV, read without the traced CLI reader."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments="#")[:, 1:n + 1]


def _median(values):
    return statistics.median(values) if values else float("nan")


_KERNEL_MATRIX = np.linspace(-1.0, 1.0, 105).reshape(5, 21)
_KERNEL_VECTOR = np.linspace(0.0, 1.0, 21)


def reference_kernel(rounds=1000):
    """Seconds of a fixed piece of work that is not earc's: a loop of small
    numpy expressions, like earc's per-step code.  On the shared host the
    benchmark was built on, such code runs up to 2x slower in phases lasting
    from seconds to minutes, and the kernel slows with it (BLAS-bound work, such
    as the k4 trains, slows far less and is not scaled)."""
    start = time.perf_counter()
    state = np.zeros(5)
    for _ in range(rounds):
        state = np.tanh(_KERNEL_MATRIX @ _KERNEL_VECTOR + 0.5 * state)
    return time.perf_counter() - start


class Runner:
    """One workload at one seed inside a scratch directory."""

    def __init__(self, workload, seed, workdir):
        self.w = workload
        self.rep = systems.builtin_rep(workload.group)
        self.seed = seed
        self.element = seed % self.rep.order
        self.dir = Path(workdir)
        self.data = self.dir / "data.csv"
        self.model = self.dir / "model.json"
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.samples = defaultdict(list)
        """Timing name -> (end time, seconds) of each successful untraced sample."""
        self.rmses = []
        self.calibrations = []
        """(time, seconds) of each reference-kernel run."""
        self.rollout_gaps = []
        self.model_bytes = None
        self.fit_info = None
        self.forecast_index = 0
        self.forecast_passes = 0
        self.outputs = {}
        self.tracer = Tracer()

    # -- gates ---------------------------------------------------------------

    def check(self, ok, message):
        if not ok:
            self.errors.append(message)

    def check_model_bytes(self):
        data = self.model.read_bytes()
        if self.model_bytes is None:
            self.model_bytes = data
        else:
            self.check(data == self.model_bytes,
                       "two trains in one run wrote different model files")

    def check_rmse(self, rmse):
        ref = self.w.ref_rmse[self.element]
        if ref >= RMSE_RESOLUTION:
            ok, tolerance = abs(rmse - ref) <= RMSE_RTOL * ref, f"rtol {RMSE_RTOL}"
        else:
            ok, tolerance = rmse <= RMSE_FLOOR_FACTOR * ref, f"at most {RMSE_FLOOR_FACTOR}x"
        self.check(ok, f"forecast rmse {rmse:.4e} does not match the reference "
                       f"{ref:.4e} of data element {self.element} ({tolerance})")

    def check_rollout_equivariance(self, mode, outputs):
        if len(outputs) != self.rep.order:
            return  # a forecast failed and was recorded already
        base = outputs[0]  # element 0 is the identity
        gap = max(float(np.max(np.abs(out - base @ g.T)))
                  for out, g in zip(outputs, self.rep.elements))
        self.rollout_gaps.append(gap)
        self.check(gap <= ROLLOUT_EQUIVARIANCE_GATE,
                   f"{mode} rollout is not equivariant: gap {gap:.3e} > "
                   f"{ROLLOUT_EQUIVARIANCE_GATE:.0e}")

    # -- commands ------------------------------------------------------------

    def cli(self, argv, traced=False):
        """Run one earc command; returns (exited 0, seconds, stdout)."""
        _clear_plan_cache()
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span("cli." + argv[0]) if traced else contextlib.nullcontext()
        self.attempted += 1
        start = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed op, reported with its traceback
            code = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        ok = code == 0
        if not ok:
            self.failed += 1
            self.errors.append(f"earc {argv[0]} exited {code}: {err.getvalue().strip()}")
        return ok, seconds, out.getvalue()

    def setup(self, traced=False):
        """Generate the seed's group-transformed series and its references."""
        w = self.w
        g = self.rep.elements[self.element]
        argv = ["generate", "--system", w.system, "--steps", w.steps, "--out", self.data]
        if w.system == "hamiltonian":
            cfg = systems.HamiltonianConfig()
            q0, p0 = g @ np.array([cfg.q0, cfg.p0])
            argv += ["--q0", repr(float(q0)), "--p0", repr(float(p0))]
        else:
            start_vec = g @ systems.DEFAULT_COMPETITION_START
            argv += ["--p0-vec", json.dumps(start_vec.tolist())]
        start = time.perf_counter()
        ok, _, _ = self.cli(argv, traced)
        if ok:
            series = np.loadtxt(self.data, delimiter=",", skiprows=1, ndmin=2)[:, 1:]
            for j, h in enumerate(self.rep.elements):
                cli.write_series(self.reference(j), series @ h.T)
        return time.perf_counter() - start

    def reference(self, j):
        """True series seen from group element j (signed permutations are exact)."""
        return self.dir / f"reference-{j}.csv"

    def train(self, traced):
        if traced:
            return self.train_decomposed()
        w = self.w
        ok, seconds, out = self.cli(
            ["train", "--data", self.data, "--group", w.group, "--L", w.lag,
             "--p", w.order, "--train-count", w.train_count, "--out", self.model])
        if ok:
            residual = _field(out, "equivariance residual:")
            self.check(residual <= RESIDUAL_GATE,
                       f"train equivariance residual {residual:.3e} > {RESIDUAL_GATE:.0e}")
            self.check_model_bytes()
            self.samples["train_s"].append((time.perf_counter(), seconds))
        return seconds

    def train_decomposed(self):
        """The library calls behind `earc train`; must write the CLI's model bytes."""
        w = self.w
        _clear_plan_cache()
        self.attempted += 1
        start = time.perf_counter()
        try:
            with self.tracer.span("cli.train"):
                prefix = cli.read_series(self.data)[:w.train_count]
                rep = systems.builtin_rep(w.group)
                plan = embedding.compression_plan(rep.n * w.lag, w.order)
                h0r, h1 = embedding.build_data_matrices(prefix, w.lag, w.order, plan)
                basis = solver.equivariant_basis(rep, w.lag, plan)
                fit = solver.fit_coefficients(basis, h0r, h1)
                coupling = solver.assemble(basis, fit)
                coupling.setflags(write=False)
                fit = replace(fit, equivariance_residual=solver.equivariance_residual(
                    coupling, rep, w.lag, plan))
                trained = model.EarcModel(n=rep.n, lag=w.lag, order=w.order, group=rep,
                                          plan=plan, coupling=coupling, fit=fit,
                                          metadata={})
                model.save(trained, self.model)
        except Exception:  # a crash is a failed op, reported with its traceback
            self.failed += 1
            self.errors.append("traced train failed:\n" + traceback.format_exc())
            return time.perf_counter() - start
        seconds = time.perf_counter() - start
        unknowns = plan.dim_in * plan.reduced_dim
        self.fit_info = {
            "solver.basis_size": (basis.size, "count"),
            "solver.constraint_bytes": (len(rep.generators) * unknowns * unknowns * 8, "bytes"),
            "solver.kernel_ratio": (basis.size / unknowns, "ratio"),
            "solver.design_bytes": (basis.state_dim * h0r.shape[1] * basis.size * 8, "bytes"),
            "solver.fit_rank_ratio": (fit.rank / basis.size, "ratio"),
            "model.file_bytes": (self.model.stat().st_size, "bytes"),
        }
        self.check(fit.equivariance_residual <= RESIDUAL_GATE,
                   f"traced train residual {fit.equivariance_residual:.3e} > {RESIDUAL_GATE:.0e}")
        self.check_model_bytes()
        return seconds

    def forecast(self, mode, j, traced, outputs):
        """Forecast from the seed window moved by group element j, against the
        truth; the forecast values are appended to ``outputs``."""
        w = self.w
        path = self.dir / f"forecast-{mode}-{j}.csv"
        ok, seconds, out = self.cli(
            ["forecast", "--model", self.model, "--data", self.data,
             "--train-count", w.train_count, "--horizon", w.horizon,
             "--reference", self.reference(j), "--apply-group-element", j,
             "--mode", mode, "--out", path], traced)
        if ok:
            rmse = _field(out, "rmse overall:")
            self.check_rmse(rmse)
            values = _read_values(path, self.rep.n)
            self.check(values.shape[0] == w.horizon,
                       f"forecast kept {values.shape[0]} of {w.horizon} steps")
            outputs.append(values)
            if not traced:
                self.samples["forecast_s"].append((time.perf_counter(), seconds))
                self.rmses.append(rmse)
        return seconds

    def verify(self, traced):
        ok, seconds, out = self.cli(["verify", "--model", self.model], traced)
        if ok:
            residual = _field(out, "equivariance residual (all")
            self.check(residual <= RESIDUAL_GATE,
                       f"verify residual {residual:.3e} > {RESIDUAL_GATE:.0e}")
            if not traced:
                self.samples["verify_s"].append((time.perf_counter(), seconds))
        return seconds

    def next_forecast(self, traced):
        """The next of the workload's forecasts: every mode, from the seed window
        moved by each group element in turn; a mode's rollouts are checked for
        equivariance once all |G| of them are in."""
        modes, order = self.w.modes, self.rep.order
        mode, j = modes[self.forecast_index // order], self.forecast_index % order
        self.forecast_index = (self.forecast_index + 1) % (order * len(modes))
        if j == 0:
            self.outputs[mode] = []
        seconds = self.forecast(mode, j, traced, self.outputs[mode])
        if j == order - 1:
            self.check_rollout_equivariance(mode, self.outputs[mode])
            self.forecast_passes += 1
        return seconds

    def iteration(self, traced):
        """A train, every forecast and VERIFY_REPEAT verifies: the fixed work
        compared between traced and untraced runs; returns command seconds."""
        seconds = self.train(traced)
        for _ in range(self.forecasts_per_pass()):
            seconds += self.next_forecast(traced)
        for _ in range(VERIFY_REPEAT):
            seconds += self.verify(traced)
        return seconds

    def calibrate(self):
        seconds = reference_kernel()
        self.calibrations.append((time.perf_counter() - seconds / 2, seconds))

    def host_slowdown(self, start, end):
        """Median reference-kernel time around [start, end] over its nominal time.
        ``measure`` runs the kernel at most CALIBRATE_EVERY before each command."""
        near = [k for t, k in self.calibrations
                if start - CALIBRATION_WINDOW <= t <= end + CALIBRATION_WINDOW]
        return statistics.median(near) / REFERENCE_KERNEL_S

    def timings(self, name):
        """Seconds of each sample of ``name``, scaled by the host's slowdown when
        its kind is in ``Workload.interpreted``."""
        if name.removesuffix("_s") not in self.w.interpreted:
            return [seconds for _, seconds in self.samples[name]]
        return [seconds / self.host_slowdown(end - seconds, end)
                for end, seconds in self.samples[name]]

    def measure(self, seconds):
        """Set up, train, forecast and verify for about ``seconds`` of commands.
        The next command is always of the kind furthest below its share of the
        time spent (``Workload.shares``), so each kind, however cheap, is
        sampled all through the run.  The SETUP_REPEAT set-ups are spread evenly
        over the run and not counted in ``seconds``.  The reference kernel runs
        every CALIBRATE_EVERY seconds, between commands.  At least MIN_TRAINS
        trains, one full forecast pass per mode and one verify run."""
        ops = {"train": functools.partial(self.train, False),
               "forecast": functools.partial(self.next_forecast, False),
               "verify": functools.partial(self.verify, False)}
        shares = dict(zip(KINDS, self.w.shares))
        spent = dict.fromkeys(KINDS, 0.0)
        durations = {kind: [] for kind in KINDS}
        setups = self.samples["setup_s"]
        calibrated = -math.inf
        while True:
            if time.perf_counter() - calibrated >= CALIBRATE_EVERY:
                self.calibrate()
                calibrated = time.perf_counter()
            measured = sum(spent.values())
            if len(setups) < SETUP_REPEAT and len(setups) * seconds / SETUP_REPEAT <= measured:
                took = self.setup()
                setups.append((time.perf_counter(), took))
                continue
            kind = min(KINDS, key=lambda k: spent[k] / shares[k])
            done = (len(setups) == SETUP_REPEAT
                    and len(durations["train"]) >= MIN_TRAINS
                    and self.forecast_passes >= len(self.w.modes)
                    and len(durations["verify"]) >= 1)
            expected = _median(durations[kind]) if durations[kind] else 0.0
            if done and measured + expected > seconds:
                self.calibrate()
                return
            duration = ops[kind]()
            spent[kind] += duration
            durations[kind].append(duration)

    def forecasts_per_pass(self):
        return self.rep.order * len(self.w.modes)


def _loop(seconds, body):
    """Repeat ``body`` for about ``seconds``, and at least once."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        body()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + _median(durations) > seconds:
            return


def end_to_end(runner, seconds):
    """Untraced run: the metrics a user of the CLI sees."""
    runner.measure(seconds)
    setup_s, train_s, forecast_s, verify_s = (
        _median(runner.timings(k)) for k in ("setup_s", "train_s", "forecast_s", "verify_s"))
    return {
        "setup_s": (setup_s, "s"),
        "train_s": (train_s, "s"),
        "forecast_s": (forecast_s, "s"),
        "verify_s": (verify_s, "s"),
        "pipeline_s": (train_s + runner.forecasts_per_pass() * forecast_s + verify_s, "s"),
        "rollout_steps_per_s": (runner.w.horizon / forecast_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "forecast_rmse": (max(max(runner.rmses, default=float("nan")), RMSE_RESOLUTION), "1"),
        "ops_ok_ratio": ((runner.attempted - runner.failed) / max(runner.attempted, 1),
                         "ratio"),
    }


def per_layer(runner, seconds):
    """Traced run: untraced and traced iterations in pairs, then the (L, p) sweep."""
    tracer = runner.tracer
    tracer.trace = SETUP_TRACE
    with instrumented(tracer):
        runner.setup(traced=True)
    untraced, traced = [], []

    def pair():
        untraced.append(runner.iteration(traced=False))
        tracer.trace = len(traced)
        with instrumented(tracer):
            traced.append(runner.iteration(traced=True))

    _loop(seconds, pair)
    rows = defaultdict(list)
    for trace in range(len(traced)):
        for name, value in _trace_metrics(runner, trace).items():
            rows[name].append(value)
    out = {name: (_median(values), LAYER_UNITS[name]) for name, values in rows.items()}
    setup_spans = tracer.of_trace(SETUP_TRACE)
    out["systems.generate_s"] = (sum(s.duration for s in setup_spans
                                     if s.name.startswith("systems.")), "s")
    out.update(runner.fit_info or {})
    out["trace.overhead_ratio"] = (_median(traced) / _median(untraced), "ratio")
    out["embedding.compressed_features_rows_per_s"] = (_feature_rows_per_s(runner), "1/s")
    out.update(_sweep(runner))
    return out


LAYER_UNITS = {
    "cli.read_series_s": "s",
    "embedding.compression_plan_s": "s",
    "embedding.build_data_matrices_s": "s",
    "groups.close_group_s": "s",
    "groups.reduced_action_s": "s",
    "solver.equivariant_basis_s": "s",
    "solver.fit_coefficients_s": "s",
    "solver.equivariance_residual_s": "s",
    "solver.generator_residuals_s": "s",
    "model.load_s": "s",
    "model.save_s": "s",
    "model.rollout_us_per_step": "us",
    "model.rollout_steps": "count",
    "model.rollout_kept_ratio": "ratio",
    "trace.stressed_share": "ratio",
    **{f"self.{layer}_s": "s" for layer in LAYERS if layer != "systems"},
}


def _self_by_name(spans):
    selfs = self_times(spans)
    out = defaultdict(float)
    for s in spans:
        out[s.name] += selfs[s.sid]
    return out


def _trace_metrics(runner, trace):
    """Per-iteration totals of one traced pipeline iteration."""
    spans = descendants(runner.tracer.of_trace(trace), COMMANDS)
    total = defaultdict(float)
    counts = defaultdict(int)
    for s in spans:
        total[s.name] += s.duration
        for key, value in s.counts.items():
            counts[f"{s.name}.{key}"] += value
    out = {name: total[name[:-2]] for name in LAYER_UNITS
           if name.endswith("_s") and not name.startswith("self.")}
    own = _self_by_name(spans)
    for layer in LAYERS:
        if layer != "systems":
            out[f"self.{layer}_s"] = sum(v for k, v in own.items() if k.split(".")[0] == layer)
    steps = counts["model.rollout.steps"]
    out["model.rollout_us_per_step"] = total["model.rollout"] / max(steps, 1) * 1e6
    out["model.rollout_steps"] = steps
    out["model.rollout_kept_ratio"] = steps / max(counts["model.rollout.horizon"], 1)
    command, stressed = runner.w.stressed
    under = descendants(spans, (command,))
    out["trace.stressed_share"] = _self_by_name(under)[stressed] / max(total[command], 1e-12)
    return out


def self_time_table(runner, commands=COMMANDS):
    """(name, self seconds, calls) under ``commands`` in all traced iterations,
    largest self time first."""
    spans = descendants([s for s in runner.tracer.spans if s.trace >= 0], commands)
    calls = defaultdict(int)
    for s in spans:
        calls[s.name] += 1
    own = _self_by_name(spans)
    return sorted(((name, own[name], calls[name]) for name in own), key=lambda r: -r[1])


def _feature_rows_per_s(runner, repeat=5):
    """Monomial features of a random (rows, 10) window batch at order 3 (286 features)."""
    rng = np.random.default_rng(runner.seed)
    windows = rng.standard_normal((runner.w.feature_rows, 10))
    plan = embedding.compression_plan(10, 3)
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        embedding.compressed_features(plan, windows)
        times.append(time.perf_counter() - start)
    return windows.shape[0] / _median(times)


def _sweep(runner):
    """k4 basis cost at p=3 over the workload's lags, and how near the fit comes
    to the normal-equations path for the longest k4 training series."""
    rep = systems.builtin_rep("k4")
    cols = WORKLOADS["k4-long"].train_count
    w = runner.w
    out = {}
    for lag in w.sweep_lags:
        plan = embedding.compression_plan(rep.n * lag, 3)
        if (w.group, w.lag, w.order) == ("k4", lag, 3) and runner.fit_info:
            # the traced trains computed this very basis; do not pay for it twice
            seconds = _median([s.duration for s in runner.tracer.spans
                               if s.name == "solver.equivariant_basis" and s.trace >= 0])
            size = runner.fit_info["solver.basis_size"][0]
        else:
            start = time.perf_counter()
            size = solver.equivariant_basis(rep, lag, plan).size
            seconds = time.perf_counter() - start
        unknowns = plan.dim_in * plan.reduced_dim
        design = plan.dim_in * (cols - lag) * size
        key = f"sweep.L{lag}.solver."
        out[key + "equivariant_basis_s"] = (seconds, "s")
        out[key + "basis_size"] = (size, "count")
        out[key + "constraint_bytes"] = (len(rep.generators) * unknowns * unknowns * 8, "bytes")
        out[key + "normal_eq_margin"] = (normal_eq_margin(size, design), "ratio")
    return out


def normal_eq_margin(basis_size, design_entries):
    """How near ``solver.fit_coefficients`` is to solving the normal equations:
    the larger of basis size over its threshold and design entries over the
    entry cap.  Above 1 the normal-equations path runs."""
    return max(basis_size / solver.NORMAL_EQ_THRESHOLD, design_entries / tensorops.ENTRY_CAP)


def environment():
    """What the timings depend on besides the code: cores, interpreter, BLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "numba_kernels": bool(_kernels.NUMBA_ENABLED),
    }


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def quantiles(values):
    """(fastest, median, p90) of timing samples, for the printed summary."""
    if len(values) < 2:
        return (values[0],) * 3 if values else (float("nan"),) * 3
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return min(values), statistics.median(values), deciles[-1]
