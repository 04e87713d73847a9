"""Spans around calls into earc's public functions, recorded from outside the package.

While ``instrumented`` is active, every module-level binding of the functions
in ``TRACED`` (in any loaded ``earc`` module) is replaced by a wrapper that
records a span: name, start, end, the enclosing span and the trace (pipeline
iteration) it belongs to.  Patching every binding, not just the defining
module's, is what makes nested calls visible, for example ``model.load`` ->
``groups.close_group`` or ``solver.equivariance_residual`` ->
``groups.reduced_action``.  Nothing inside ``src/`` is changed.

``tensorops`` is reachable only through ``solver`` and ``_kernels`` only through
``embedding.compressed_features`` and ``model.rollout``, so those two layers are
measured at those entry points and not wrapped themselves.
"""

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("cli", "model", "embedding", "groups", "solver", "systems")

TRACED = (
    ("cli", "read_series"),
    ("systems", "hamiltonian_generate"),
    ("systems", "competition_generate"),
    ("embedding", "compression_plan"),
    ("embedding", "build_data_matrices"),
    ("embedding", "compressed_features"),
    ("groups", "close_group"),
    ("groups", "reduced_action"),
    ("solver", "equivariant_basis"),
    ("solver", "fit_coefficients"),
    ("solver", "assemble"),
    ("solver", "equivariance_residual"),
    ("solver", "generator_residuals"),
    ("model", "load"),
    ("model", "save"),
    ("model", "rollout"),
)


COUNTERS = {
    "model.rollout": lambda forecast: {"steps": forecast.steps, "horizon": forecast.horizon},
}
"""Counts taken from a call's result, recorded on its span."""


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    trace: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans of one pipeline iteration share ``trace``."""

    def __init__(self):
        self.spans = []
        self.trace = 0
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1].sid if self._stack else None
        s = Span(len(self.spans), name, parent, self.trace, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                s.counts.update(count(result))
            return result

        return traced

    def of_trace(self, trace):
        return [s for s in self.spans if s.trace == trace]


@contextmanager
def instrumented(tracer):
    """Route every call to a ``TRACED`` function through ``tracer`` until exit."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "earc" or name.startswith("earc.")]
    patched = []
    try:
        for mod_name, fn_name in TRACED:
            fn = getattr(sys.modules.get("earc." + mod_name), fn_name, None)
            if fn is None:
                continue
            wrapper = tracer.wrap(fn, f"{mod_name}.{fn_name}")
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, fn))
        yield tracer
    finally:
        for module, attr, fn in reversed(patched):
            setattr(module, attr, fn)


def self_times(spans):
    """Span id -> duration minus the time its direct children cover."""
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.sid: s.duration - covered[s.sid] for s in spans}


def descendants(spans, root_names):
    """Spans under (and including) any span whose name is in ``root_names``."""
    by_id = {s.sid: s for s in spans}
    out = []
    for s in spans:
        node = s
        while node is not None and node.name not in root_names:
            node = by_id.get(node.parent)
        if node is not None:
            out.append(s)
    return out
