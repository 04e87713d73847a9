"""Command-line front end: generate / train / forecast / verify / acf.

Exit codes: 0 success, 1 failed verification, 2 validation, input or I/O error,
3 numerical failure or corrupt model, 4 forecast divergence.  All commands are
deterministic; repeated runs on identical inputs produce byte-identical
outputs, whatever the number of usable cores.  CSV text is made by numpy
operations on chunks of rows (:mod:`earc._csvtext`), byte for byte as
Python's ``%d`` for the index and ``%.17g`` for the values; a large table is
formatted in two row halves, the second by a forked process, into the same
bytes, and a forecast whose table is that large parses its reference in a
forked process while the rollout runs, into the same rows.
"""

import argparse
import os
import signal
import sys
import warnings
from functools import partial

import numpy as np

from . import model as model_mod
from . import _csvtext, solver, systems, tensorops
from .errors import (CorruptModelError, DivergenceError, EarcError, InsufficientDataError,
                     NonFiniteGroupError, NumericalError, ShapeError, ValidationError)
from .embedding import as_series, delay_windows
from .groups import json_numbers, load_group, parse_json, read_json, window_action

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_DIVERGED = 4

_NUMERICAL_ERRORS = (NumericalError, NonFiniteGroupError, CorruptModelError)


def _fmt(v):
    return format(float(v), ".17g")


CSV_CHUNK_ENTRIES = 1 << 12
"""Table entries formatted by one call of :func:`_csvtext.rows_text` (whole
rows, at least one).  On a 2-core host (medians of 9 calls in one process),
z5's 10,000x11 forecast table took 23.9, 17.6, 14.6, 14.4 and 13.6 ms in
chunks of 2^10 to 2^14 entries, against 58 ms for ``%`` in blocks of 64 rows.
A chunk's transients add to the peak of a process that writes a large
table: in perfbench, z5-rollout peaked 0.2 MB above the ``%`` writer with
2^12 entries and 1 MB above it with 2^13, and k4-long 0.1-0.3 MB above it
in 4 of 4 runs with either 2^11 or 2^12."""

PARALLEL_ENTRIES = 1 << 15
"""Table entries per process from which work is shared with a forked process
(:func:`_forks`): a table of at least twice this many entries is formatted by
two processes, a row half each, and a forecast whose table will hold that
many entries reads its reference in a second process.  On a 2-core host at
a process size of 90 MB (medians of 31 interleaved calls on random doubles
in rows of 11), two processes lost below about 65,000 entries (32,768: 5.5
vs 7.2 ms; 65,536: 10.4 vs 10.4 ms) and won from there on, by 8% at 98,304
entries and 13% at 131,072.  One fork, exit and wait took 2.3-3.4 ms at
30-180 MB, more in a larger process, as fork copies the page tables.  So the
smallest table that forks, 2^16 entries, is about that crossover: z5's
forecasts (110,000 entries) fork, its generated series (60,192) and the k4
forecasts (5,000 at most) do not.  A third process is never started: no
host that measured this crossover had more than two cores."""


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _forks(entries):
    """Whether a task of ``entries`` table entries is shared with a forked
    process: from twice ``PARALLEL_ENTRIES`` entries, on two or more usable
    cores, where ``os.fork`` exists."""
    return entries >= 2 * PARALLEL_ENTRIES and _usable_cores() >= 2 and hasattr(os, "fork")


def _text_chunks(table):
    """The CSV text of the rows of ``table``, ``CSV_CHUNK_ENTRIES`` entries at a time."""
    rows = max(1, CSV_CHUNK_ENTRIES // table.shape[1])
    for r in range(0, table.shape[0], rows):
        yield _csvtext.rows_text(table[r:r + rows])


def _rows_bytes(table):
    """The CSV text of the rows of ``table``, as ASCII bytes."""
    return b"".join(_text_chunks(table))


def _start_worker(produce):
    """Fork a process that writes the bytes ``produce()`` returns into a new
    pipe and exits, with code 1 when anything raises.  Returns the pipe's read
    end and the pid, or None when no process can be started."""
    rfd, wfd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on fork when other threads exist, which
            # OpenBLAS's pool is.  The child only produces, writes and leaves
            # through os._exit, and OpenBLAS stops its pool at fork.
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded, use of fork",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(rfd)  # so that the parent's close of it ends a blocked write
            # all bytes before the first write: a worker that wrote as it went
            # would block on the pipe until the parent reads it, and run serially
            data = memoryview(produce())
            while data:
                data = data[os.write(wfd, data):]
            code = 0
        finally:
            # no atexit handler, and no second flush of the buffers inherited,
            # such as the header waiting in the parent's file
            os._exit(code)
    os.close(wfd)
    return rfd, pid


def _reap(worker):
    """Close a worker's read end, so that a worker blocked on its pipe stops,
    wait for it and return its exit code."""
    fd, pid = worker
    os.close(fd)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _write_rows(fh, index, values):
    """One CSV row per index entry: the integer, then the values as in ``_fmt``.

    The bytes equal ``np.savetxt`` with formats %d and %.17g, which formats
    one row at a time; :mod:`earc._csvtext` makes them for a chunk of rows at
    a time.  A table that :func:`_forks` is cut into two row halves: this
    process writes the first, a forked worker formats the second, and its
    text is copied into ``fh`` after it.  A failed fork leaves both halves to
    this process.  A worker that fails or sends too few rows raises
    ``ChildProcessError``; the worker is waited for on every path.
    """
    table = np.column_stack([index, values])
    half = table.shape[0] // 2
    first, second = table[:half], table[half:]
    worker = _start_worker(partial(_rows_bytes, second)) if _forks(table.size) else None
    try:
        for text in _text_chunks(table if worker is None else first):
            fh.write(text.decode("ascii"))
        if worker is not None:
            lines = 0
            while chunk := os.read(worker[0], 1 << 16):  # one pipe's capacity at a time
                lines += chunk.count(b"\n")
                fh.write(chunk.decode("ascii"))
            if lines != second.shape[0]:
                raise ChildProcessError(f"CSV worker {worker[1]} sent {lines} of "
                                        f"{second.shape[0]} rows")
    finally:
        code = 0 if worker is None else _reap(worker)
    if code != 0:
        raise ChildProcessError(f"CSV worker {worker[1]} exited with code {code}")


def _write_table(path, header, index, values, trailer=""):
    """CSV file of the ``header`` line of column names, the ``_write_rows``
    rows of ``index`` and ``values``, then the ``trailer`` text."""
    with model_mod.output_file(path) as fh:
        fh.write(",".join(header) + "\n")
        _write_rows(fh, index, values)
        fh.write(trailer)


def write_series(path, values):
    """CSV with header t,ch1..chn and 17-significant-digit floats."""
    values = np.asarray(values, dtype=np.float64)
    header = ["t"] + [f"ch{j + 1}" for j in range(values.shape[1])]
    _write_table(path, header, np.arange(values.shape[0]), values)


SCAN_BLOCK_CHARS = 1 << 16
"""Most characters read at a time while :func:`read_series` looks for its first
row.  The first block holds 1/16 of this, and each next one twice the last, so
that a row near the start of the file costs little."""


def _line_of_row(fh, row):
    """Index of the raw line that holds data row ``row`` (row 0 follows the
    header) of the series CSV open at the start of text stream ``fh``, or None
    when the stream ends first.  The stream is left at the start of that line.

    Lines are counted as ``np.loadtxt`` counts them when ``fh`` comes from
    numpy's own opener in text mode: CRLF and a lone CR also end a line, and a
    line is a data row unless it is empty or starts with "#".  The stream is
    read in blocks of growing size, and only up to the block that holds the
    row, which is then read again up to the row's line.
    """
    fh.readline()  # the header
    # line: newlines before `last`, the character before the block
    line, last, size = 0, "\n", max(SCAN_BLOCK_CHARS // 16, 1)
    while True:
        start = fh.tell()
        if not (block := fh.read(size)):
            return None
        # "\n" and "#" are one byte in UTF-8 and never part of another character
        chunk = np.frombuffer((last + block).encode(), dtype=np.uint8)
        ends = np.flatnonzero(chunk[:-1] == ord("\n"))
        first = chunk[ends + 1]  # the first character of the line after each end
        data = np.flatnonzero((first != ord("\n")) & (first != ord("#")))
        if row < data.size:
            end = int(ends[data[row]])
            fh.seek(start)
            fh.read(len(chunk[:end + 1].tobytes().decode()) - 1)  # `last` is not in fh
            return line + int(data[row]) + 1
        row -= data.size
        line += ends.size
        last = block[-1]
        size = min(2 * size, SCAN_BLOCK_CHARS)


def _parse_series(source, path, skiprows, max_rows):
    """Parse the series CSV at ``path`` from ``source``: the path itself, or a
    text stream already at the first line to parse."""
    try:
        with warnings.catch_warnings():
            # numpy warns when a comment or blank line is not counted in max_rows,
            # and when no row is read, which the check below reports
            warnings.filterwarnings("ignore", r"(Input line \d+|loadtxt: input) contained no data",
                                    UserWarning)
            data = np.loadtxt(source, delimiter=",", skiprows=skiprows, ndmin=2,
                              comments="#", max_rows=max_rows)
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
    lines before them are found by a scan and skipped unparsed, the parser
    reads on from where the scan stopped, and rows after them are not read,
    so neither is checked.  When the file has no row ``first_row``, or the
    rows read do not parse, the file is parsed from row 0 instead, so the
    result or the error is that of a read from row 0.
    """
    if first_row > 0:
        try:
            with np.lib._datasource.open(os.fspath(path), "rt") as fh:
                if _line_of_row(fh, first_row) is not None:
                    return _parse_series(fh, path, 0, max_rows)
        except (OSError, ValueError):
            pass  # the read from row 0 reports it
    stop = None if max_rows is None else first_row + max_rows
    return _parse_series(path, path, 1, stop)[first_row:]


def _series_bytes(path, max_rows, first_row):
    """The :func:`read_series` rows as :func:`_receive_rows` reads them: their
    (rows, columns) shape as int64, then their float64 bytes.  A warning
    fails the read, so that a read that warns is made again, and warns, in
    the process that reads these bytes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = read_series(path, max_rows, first_row)
    return np.array(rows.shape, dtype=np.int64).tobytes() + rows.tobytes()


def _receive_rows(fd):
    """The rows that :func:`_series_bytes` made, read from ``fd`` straight
    into the result; None when the pipe ends early."""
    shape = np.empty(2, dtype=np.int64)
    if not _read_into(fd, shape):
        return None
    rows = np.empty(tuple(shape.tolist()))
    return rows if _read_into(fd, rows) else None


def _read_into(fd, array):
    """Fill ``array`` from ``fd``; False when the pipe ends first."""
    view = memoryview(array.reshape(-1).view(np.uint8))
    while view:
        if not (got := os.readv(fd, [view])):
            return False
        view = view[got:]
    return True


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


def _parse_array(spec, ndim):
    """The ``ndim``-D array of finite numbers in the JSON text ``spec`` of a
    command-line flag; "I<n>" is the n x n identity."""
    if ndim == 2 and spec.startswith("I") and spec[1:].isdigit():
        try:
            n = int(spec[1:])
        except ValueError:  # a digit that is not decimal, or past int's digit limit
            raise ValidationError(f"matrix spec {spec!r} is not a size") from None
        tensorops._check_entries(n * n)
        return np.eye(n)
    what = f"{('vector', 'matrix')[ndim - 1]} spec {spec!r}"
    # an object array keeps the entries as JSON decoded them, for json_numbers
    nested = np.array(parse_json(spec, what, ValidationError), dtype=object)
    if nested.ndim != ndim:
        raise ValidationError(f"{what} is not {ndim}-D")
    return json_numbers(nested.ravel().tolist(), what).reshape(nested.shape)


def cmd_generate(args):
    # the options that one system takes; any other system refuses them
    own = {"hamiltonian": {"q0", "p0", "dt", "printed_ic"}, "competition": {"p0_vec", "growth"},
           "linear": {"matrix", "x0"}}
    given = {key for keys in own.values() for key in keys if getattr(args, key) is not None}
    foreign = sorted(given - own[args.system])
    if foreign:
        raise ValidationError(f"--system {args.system} takes no "
                              + ", ".join("--" + key.replace("_", "-") for key in foreign))
    # only the options given: the config dataclasses hold the defaults
    kwargs = {} if args.steps is None else {"steps": args.steps}
    if args.system == "hamiltonian":
        clash = [f"--{key}" for key in ("q0", "p0") if getattr(args, key) is not None]
        if args.printed_ic and clash:
            raise ValidationError("--printed-ic takes no " + ", ".join(clash))
        start = systems.PRINTED_HAMILTONIAN_START if args.printed_ic else (args.q0, args.p0)
        for key, value in zip(("q0", "p0", "dt"), (*start, args.dt)):
            if value is not None:
                kwargs[key] = value
        values = systems.hamiltonian_generate(systems.HamiltonianConfig(**kwargs))
    elif args.system == "competition":
        if args.p0_vec is not None:
            kwargs["p0"] = _parse_array(args.p0_vec, 1)
        if args.growth is not None:
            kwargs["r"] = np.full(5, args.growth)
        values = systems.competition_generate(systems.CompetitionConfig(**kwargs))
    else:
        a = _parse_array(args.matrix if args.matrix is not None else "I2", 2)
        x0 = _parse_array(args.x0, 1) if args.x0 is not None else np.ones(a.shape[0])
        values = systems.planted_linear(a, x0, args.steps if args.steps is not None else 100)
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
    config = {} if args.config is None else read_json(args.config, ValidationError)
    if not isinstance(config, dict):
        raise ValidationError(f"config {args.config} must hold a JSON object")
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
    if args.max_lag < 1:  # whatever --L is, before the data is read
        raise ValidationError(f"max_lag must be >= 1, got {args.max_lag}")
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
    """The (L, n) seed rows, and the training sample count when they end a prefix."""
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
        return series[-lag:], None
    if args.data is None:
        raise ValidationError("either --seed-csv or --data is required")
    count = args.train_count
    if args.train_fraction is None and count is not None and count >= lag:
        window = read_series(args.data, lag, first_row=count - lag)
        if window.shape[0] == lag:
            return window, count
    # every other case, and a series shorter than the count, reads the prefix
    prefix, count = read_prefix(args.data, args.train_count, args.train_fraction)
    if count < lag:
        raise ValidationError(f"training prefix {count} is shorter than lag {lag}")
    return prefix[-lag:], count


def cmd_forecast(args):
    m = model_mod.load(args.model)
    rows, offset = _seed_window(args, m)
    seed = delay_windows(rows, m.lag)[-1]
    if args.apply_group_element is not None:
        j = args.apply_group_element
        if not 0 <= j < m.group.order:
            raise ValidationError(
                f"group element index {j} outside 0..{m.group.order - 1}"
            )
        seed = window_action(m.group.elements[j], m.lag) @ seed
    start = offset if offset is not None else 0
    reader = None
    if args.reference is not None and _forks(args.horizon * (2 * m.n + 1)):
        # The reference of a forecast whose table (the index, the values and
        # their errors) forks is parsed by a worker while the rollout runs,
        # once the rollout has passed its checks.  The worker parses the rows
        # of every step, so also rows past the last step of a forecast that
        # diverges, whose rows are then read here; they are read here as
        # before too when the worker fails in any way.
        model_mod.check_rollout(m, seed, args.horizon, args.mode)
        reader = _start_worker(partial(_series_bytes, args.reference, args.horizon, start))
    sent = None
    try:
        fc = model_mod.rollout(m, seed, args.horizon, mode=args.mode)
        if reader is not None and not fc.diverged:
            sent = _receive_rows(reader[0])
    finally:
        if reader is not None:
            if sent is None:  # no wait for a parse whose rows are not read
                os.kill(reader[1], signal.SIGKILL)
            if _reap(reader) != 0:
                sent = None
    err = None
    if args.reference is not None:
        # at least one row, for the channel count of a forecast that diverged at once
        ref = (sent if sent is not None
               else read_series(args.reference, max(fc.steps, 1), first_row=start))
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
        err = fc.values - (as_series(ref[:fc.steps]) if fc.steps > 0 else ref[:0])
    n = m.n
    header = ["t"] + [f"ch{j + 1}" for j in range(n)]
    columns = fc.values
    if err is not None:
        header += [f"err{j + 1}" for j in range(n)]
        columns = np.hstack([fc.values, np.abs(err)])
    base = offset if offset is not None else 1
    trailer = f"# diverged after {fc.steps} of {fc.horizon} steps\n" if fc.diverged else ""
    _write_table(args.out, header, base + np.arange(fc.steps), columns, trailer)
    print(f"wrote {fc.steps} forecast rows to {args.out}")
    if err is not None and fc.steps > 0:
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
        header = ["lag"] + [f"ch{j + 1}" for j in range(series.shape[1])]
        _write_table(args.out, header, np.arange(1, args.max_lag + 1), table)
        print(f"wrote ACF table to {args.out}")
    print(f"recommended lag: {lag}")
    return EXIT_OK


def _generate_arguments(gen):
    gen.add_argument("--system", required=True,
                     choices=["hamiltonian", "competition", "linear"])
    gen.add_argument("--steps", type=int)
    gen.add_argument("--dt", type=float)
    gen.add_argument("--q0", type=float)
    gen.add_argument("--p0", type=float)
    gen.add_argument("--printed-ic", action="store_true", default=None,
                     help="use the historic (1, 0) start, an equilibrium")
    gen.add_argument("--p0-vec", help="JSON start vector for the competition map")
    gen.add_argument("--growth", type=float, help="uniform competition growth rate")
    gen.add_argument("--matrix", help='linear-system matrix: "I<n>" or a JSON 2-D array')
    gen.add_argument("--x0", help="JSON start vector for the linear system")
    gen.add_argument("--out")


def _train_arguments(tr):
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


def _forecast_arguments(fc):
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


def _verify_arguments(ver):
    ver.add_argument("--model", required=True)
    ver.add_argument("--threshold", type=float,
                     default=model_mod.PERSISTED_RESIDUAL_BOUND)


def _acf_arguments(acf):
    acf.add_argument("--data", required=True)
    acf.add_argument("--max-lag", type=int, default=50)
    acf.add_argument("--out")


COMMANDS = {
    "generate": ("generate a synthetic benchmark series", _generate_arguments, cmd_generate),
    "train": ("fit an equivariant model to a series CSV", _train_arguments, cmd_train),
    "forecast": ("autoregressive rollout of a trained model", _forecast_arguments,
                 cmd_forecast),
    "verify": ("check the equivariance of a saved model", _verify_arguments, cmd_verify),
    "acf": ("autocorrelation table and lag recommendation", _acf_arguments, cmd_acf),
}
"""Each subcommand's help line, the function that adds its arguments, and the
function that runs it."""


def build_parser(command=None):
    """The earc argument parser.  Every subcommand is listed, for the top-level
    help and the choices, but given ``command`` only that one gets its
    arguments: each argument added builds a help formatter, and adding all of
    them took more than half of a z5 ``verify``."""
    parser = argparse.ArgumentParser(
        prog="earc",
        description="Equivariant autoregressive reservoir computers for "
                    "identifying symmetric dynamical systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, func) in COMMANDS.items():
        built = command in (None, name)
        # a subparser that parses nothing needs no -h either
        cmd = sub.add_parser(name, help=help_text, add_help=built)
        if built:
            add_arguments(cmd)
            cmd.set_defaults(func=func)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    # every other earc error, and a file, process or memory the system refused
    except (EarcError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
