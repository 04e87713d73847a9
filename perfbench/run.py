"""earc pipeline benchmark: the paper's k4 and z5 runs end to end, timed per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload k4-paper --seed 1 --seconds 30 --trace 0

``--trace 0`` times ``earc train`` / ``forecast`` / ``verify`` (called
in-process through ``earc.cli.main``) and prints the end-to-end metrics.
``--trace 1`` alternates untraced and traced pipeline iterations and prints
per-layer metrics: spans around calls into each earc module, each layer's self
time, the tracing overhead and a k4 (L, p=3) basis sweep.  ``--smoke`` runs the
workload at a tiny size.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when every
correctness gate passed; the earc sources must be under ``src/`` beside this
directory.
"""

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("k4-paper", "k4-long", "z5-rollout")
BLAS_THREADS = {"z5-rollout": 1}
"""Workloads whose matrices are so small that a second BLAS thread adds only
waiting on the other core; the others use every usable core."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="selects the group element applied to the generated data")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    return parser.parse_args(argv)


def limit_blas_threads(cap=None):
    """Keep BLAS threads at or below the usable cores and ``cap``; must run
    before numpy loads."""
    limit = min(len(os.sched_getaffinity(0)), cap or math.inf)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= limit:
            os.environ[var] = str(limit)


def _number(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "earc" / "__init__.py").is_file():
        print(f"error: no earc sources under {src}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    limit_blas_threads(BLAS_THREADS.get(args.workload))
    sys.path.insert(0, str(src))
    import bench  # imports numpy and earc, after the thread limit is set
    import earc
    if Path(earc.__file__).resolve().parent != src / "earc":
        print(f"error: imported earc from {earc.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = (bench.SMOKE if args.smoke else bench.WORKLOADS)[args.workload]
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as workdir:
            runner = bench.Runner(workload, args.seed, workdir)
            measure = bench.per_layer if args.trace else bench.end_to_end
            metrics = measure(runner, args.seconds)
    finally:
        with contextlib.suppress(OSError):
            scratch.rmdir()  # left in place while another run still uses it

    env = bench.environment()
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        for name, seconds, calls in bench.self_time_table(runner):
            print(f"self {name:36s} {seconds:10.4f} s  {calls:6d} calls")
        command, stressed = workload.stressed
        largest = bench.self_time_table(runner, (command,))[0][0]
        print(f"largest self time under {command}: {largest} (this workload stresses {stressed})")
    if runner.rollout_gaps:
        print(f"rollout equivariance gap {max(runner.rollout_gaps):.3e} "
              f"(gate {bench.ROLLOUT_EQUIVARIANCE_GATE:.0e})")
    if runner.rmses:
        print(f"forecast rmse max {max(runner.rmses):.4e} (reference "
              f"{workload.ref_rmse[runner.element]:.4e} for data element {runner.element})")
    if not args.trace:
        kernel = [seconds for _, seconds in runner.calibrations]
        print(f"reference kernel n={len(kernel)} median={bench._median(kernel):.6g} s "
              f"(nominal {bench.REFERENCE_KERNEL_S:g} s)")
        for name in runner.samples:
            raw = bench.quantiles([seconds for _, seconds in runner.samples[name]])
            scaled = name.removesuffix("_s") in workload.interpreted
            print(f"samples {name:12s} n={len(runner.samples[name]):3d} raw min={raw[0]:.6g} "
                  f"median={raw[1]:.6g} p90={raw[2]:.6g} s; reported "
                  f"{'scaled' if scaled else 'raw'} median "
                  f"{bench._median(runner.timings(name)):.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:.6g} {unit}")
        if name.endswith(".normal_eq_margin"):
            print(f"{'':42s} normal-equations fit path: {'yes' if value > 1 else 'no'}")
    for error in runner.errors:
        print("GATE FAILED: " + error)
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": _number(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
