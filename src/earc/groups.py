"""Finite orthogonal matrix groups and their actions on embedded coordinates,
and the one JSON decoder of group, model and config files and command-line
arrays."""

import json
from dataclasses import dataclass

import numpy as np

from . import tensorops
from .errors import NonFiniteGroupError, ShapeError, ValidationError

MATCH_TOL = 1e-9
"""Frobenius distance below which two closure elements are considered equal."""

MAX_ORDER = 1024
"""Closure abort threshold; larger generated sets are treated as non-finite."""


@dataclass(frozen=True, eq=False)
class GroupRep:
    """A finite set of orthogonal matrices closed under multiplication.

    ``elements`` starts with the identity and then follows breadth-first
    discovery order from the generators, which makes the layout deterministic.
    """

    n: int
    generators: tuple
    elements: tuple
    order: int


def close_group(generators):
    """Breadth-first closure of a generator set under matrix multiplication."""
    gens = [tensorops._as_matrix(g, f"generator {i}") for i, g in enumerate(generators)]
    if not gens:
        raise ValidationError("need at least one generator")
    n = gens[0].shape[0]
    for i, g in enumerate(gens):
        if g.shape != (n, n):
            raise ShapeError(f"generator {i} has shape {g.shape}, expected ({n}, {n})")
        if not np.all(np.isfinite(g)):
            raise ValidationError(f"generator {i} contains non-finite entries")
        if np.linalg.norm(g.T @ g - np.eye(n)) > MATCH_TOL:
            raise ValidationError(f"generator {i} is not orthogonal within {MATCH_TOL}")
    elements = [np.eye(n)]
    queue = [np.eye(n)]
    while queue:
        e = queue.pop(0)
        for g in gens:
            prod = e @ g
            if any(np.linalg.norm(prod - x) <= MATCH_TOL for x in elements):
                continue
            elements.append(prod)
            queue.append(prod)
            if len(elements) > MAX_ORDER:
                raise NonFiniteGroupError(
                    f"closure exceeded MAX_ORDER={MAX_ORDER}; group is not finite "
                    "or MATCH_TOL is too tight"
                )
    for e in elements:
        e.setflags(write=False)
    for g in gens:
        g.setflags(write=False)
    return GroupRep(n=n, generators=tuple(gens), elements=tuple(elements),
                    order=len(elements))


def window_action(g, lag):
    """Action of a channel-space element on delay windows: g (x) I_lag, as
    the broadcast products g[i, j] * I_lag[s, t] that ``np.kron`` forms, so
    a negative entry of g leaves -0.0 off the diagonal of its block."""
    g = tensorops._as_matrix(g, "g")
    if g.shape[0] != g.shape[1]:
        raise ShapeError(f"group element must be square, got {g.shape}")
    if lag == 1:
        return np.array(g)
    m = g.shape[0] * lag
    tensorops._check_entries(m * m, tensorops.ENTRY_CAP)
    return (g[:, None, :, None] * np.eye(lag)[:, None, :]).reshape(m, m)


ROW_BLOCK_TERMS = 1 << 16
"""Most terms plus sums of one ``np.bincount`` in ``reduced_action``; a degree
block with more is summed in blocks of rows, so that a dense group's term
arrays stay near the size of one dense block.  Of 2^12..2^18 it was fastest at
2^16 on k4 (L=5-7 at p=3, L=6 at p=4) and z5 (L=3, p=3) on a 2-core x86 host."""


def _sparse_columns(mat):
    """Column indices of the nonzeros of each row of ``mat``, ascending, padded
    to the longest row with the columns of zero entries; shape (rows, width)."""
    zero = mat == 0
    width = mat.shape[1] - int(np.add.reduce(zero, axis=1).min())
    return np.argsort(zero, axis=1, kind="stable")[:, :width]


def reduced_action(g, lag, plan):
    """Action on compressed features: the q x q matrix with
    phi((g (x) I_lag) x) = reduced_action(g, lag, plan) @ phi(x) for the
    compressed features phi of ``embedding.compressed_features``.

    Equal to R @ G @ E for the block-diagonal action G on the full embedding
    and the selection and expansion maps R and E (all three are test oracles),
    but computed degree by degree through the plan's monomials, without
    materialising the full-dimension matrix: the aggregated block A_k obeys
    A_k[a, c] = sum over distinct v in c of h[lead(a), v] * A_{k-1}[tail(a), c - v].
    Each block is a row-wise sparse product (Gustavson 1978): row a is row
    lead(a) of h times row tail(a) of A_{k-1}, each nonzero pair (v, r) adding
    its product at column c = insert[r, v] of the plan's ``action_tables``.
    One ``np.bincount`` per block of rows adds the terms in input order from
    +0.0, and for each (a, c) they arrive by ascending v, the order of a loop
    over the distinct variables of c.  A term left out has an exactly zero
    factor, so for finite g it would add +-0.0, which changes no sum that
    starts at +0.0: the result is bitwise that of the loop over every term.
    """
    h = window_action(g, lag)
    m = h.shape[0]
    if m != plan.dim_in:
        raise ShapeError(
            f"plan dim_in={plan.dim_in} does not match element dimension {m}"
        )
    q = plan.reduced_dim
    out = np.zeros((q, q))
    out[q - 1, q - 1] = 1.0
    lo, hi = plan.degree_class_range(1)
    out[lo:hi, lo:hi] = h
    h_cols = prev_cols = _sparse_columns(h)
    prev = h
    for lo, hi, lead_rows, tail_rows, insert in plan.action_tables:
        d = hi - lo
        step = max(1, ROW_BLOCK_TERMS // (h_cols.shape[1] * prev_cols.shape[1] + d))
        for s in range(0, d, step):
            lead, tail = lead_rows[s:s + step], tail_rows[s:s + step]
            rows = lead.shape[0]
            lc, tc = h_cols[lead][:, :, None], prev_cols[tail][:, None, :]
            cols = insert[tc, lc]  # (rows, h width, prev width)
            cols += np.arange(0, rows * d, d)[:, None, None]
            terms = h[lead[:, None, None], lc] * prev[tail[:, None, None], tc]
            out[lo + s:lo + s + rows, lo:hi] = np.bincount(
                cols.ravel(), terms.ravel(), minlength=rows * d).reshape(rows, d)
        prev = out[lo:hi, lo:hi]
        if hi < q - 1:  # another degree follows
            prev_cols = _sparse_columns(prev)
    return out


def parse_json(text, source, error):
    """The JSON document in ``text`` (bytes are decoded as UTF-8), read from
    ``source``.  Text that is not UTF-8 JSON raises ``error`` naming
    ``source`` and the line and column where it stops being so."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except json.JSONDecodeError as exc:
        reason = f"{exc.msg} at line {exc.lineno} column {exc.colno}"
    except UnicodeDecodeError as exc:
        lines = text[:exc.start].split(b"\n")
        reason = f"not UTF-8 text ({exc.reason}) at line {len(lines)} column {len(lines[-1]) + 1}"
    except (ValueError, RecursionError) as exc:  # an integer of over 4300 digits, deep nesting
        reason = str(exc)
    raise error(f"cannot parse {source}: {reason}")


def read_json(path, error):
    """The JSON document in the file at ``path``, as in :func:`parse_json`."""
    with open(path, "rb") as fh:
        return parse_json(fh.read(), path, error)


def json_integer(value, name):
    """A JSON integer; bool is an int subclass, and int() would truncate a float."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def json_numbers(values, name, dtype=np.float64):
    """A JSON list of finite numbers as a 1-D ``dtype`` array; an integer
    ``dtype`` takes JSON integers only.  The entry types are checked in one
    pass first: ``np.asarray`` would read the string "0.5" and true as
    numbers."""
    integer = np.issubdtype(dtype, np.integer)
    if not isinstance(values, list):
        raise ValidationError(f"{name} must be a JSON list, got {type(values).__name__}")
    if not set(map(type, values)) <= ({int} if integer else {int, float}):
        raise ValidationError(f"each entry of {name} must be "
                              f"{'an integer' if integer else 'a number'}")
    try:
        array = np.array(values, dtype=dtype)
        if np.isfinite(array).all():
            return array
    except OverflowError:  # an integer beyond the dtype's range
        pass
    raise ValidationError(f"each entry of {name} must be a finite {np.dtype(dtype).name}")


def from_json_dict(data):
    """Rebuild a group from its JSON encoding; the closure is recomputed."""
    try:
        n = json_integer(data["n"], "n")
        gens = [json_numbers(g, f"generator {i}").reshape(n, n)
                for i, g in enumerate(data["generators"])]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed group encoding: {exc}") from exc
    return close_group(gens)


def load_group(path):
    return from_json_dict(read_json(path, ValidationError))
