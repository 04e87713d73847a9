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
    the broadcast products g[i, j] * I_lag[s, t] of the Kronecker product, so
    a negative entry of g leaves -0.0 off the diagonal of its block; at lag 1
    the products g[i, j] * 1.0 are g bit for bit.  A stack (E, n, n) of
    elements gives the (E, n*lag, n*lag) stack of their actions."""
    g = np.asarray(g, dtype=np.float64)
    if g.ndim not in (2, 3) or g.size == 0 or g.shape[-1] != g.shape[-2]:
        raise ShapeError(f"group elements must be square and non-empty, got shape {g.shape}")
    m = g.shape[-1] * lag
    tensorops._check_entries(g.size * lag * lag)
    return (g[..., :, None, :, None] * np.eye(lag)[:, None, :]).reshape(*g.shape[:-2], m, m)


def _row_nonzeros(mat):
    """Columns and values of the nonzeros of each row of ``mat`` (E, rows,
    cols), ascending, padded to the longest row with +0.0 at the row's first
    nonzero column."""
    m = mat.shape[-1]
    nonzero = mat != 0
    width = int(np.add.reduce(nonzero, axis=-1).max())
    # the nonzero columns of each row ascending, then m for each zero
    cols = np.sort(np.where(nonzero, np.arange(m), m), axis=-1)[..., :width]
    pad = cols == m
    np.copyto(cols, cols[..., :1], where=pad)
    vals = np.take(mat, cols + np.arange(0, mat.size, m).reshape(*mat.shape[:-1], 1))
    vals[pad] = 0.0
    return cols, vals


def action_rows(elements, lag, plan):
    """h_g = g (x) I_lag and the rows of Ghat_g for a stack of E elements.

    Ghat_g is the action on compressed features: the q x q matrix with
    phi((g (x) I_lag) x) = Ghat_g @ phi(x) for the compressed features phi of
    ``embedding.compressed_features``, equal to R @ G @ E for the action G on
    the full embedding and the selection and expansion maps R and E (all
    three are test oracles).  Its degree-1 block is h.

    Returns (h, cols, vals): h is (E, m, m), and row r of Ghat_e has entries
    ``vals[e, r]`` at columns ``cols[e, r]``, both (E, q, width).  The rows of
    degree k keep their nonzeros, ascending, in block k; unused slots hold
    +0.0.  The width is 1 for a signed permutation and grows for a dense group.

    Degree k is a row-wise sparse product (Gustavson 1978) of h and degree
    k-1, for all E elements at once: A_k[a, c] sums h[lead(a), v] *
    A_{k-1}[tail(a), r] over the entries v of row lead(a) and r of row
    tail(a) with insert[r, v] = c, where tail(a) is the parent of a within
    degree k-1 (lead, parent and insert from the plan's ``blocks``).  The terms
    of a row are sorted stably by column, so each (a, c) gets them by
    ascending v, as a loop over the distinct variables of c would, and one
    ``np.bincount`` sums them from +0.0.  Rows are padded with +0.0 at their
    first column, so a padded term adds +-0.0 to a column that real terms
    reach: it changes no sum and adds no entry.  Every entry is bitwise that
    of the loop.
    """
    h = window_action(elements, lag)
    if h.ndim != 3 or h.shape[1] != plan.dim_in:
        raise ShapeError(
            f"plan dim_in={plan.dim_in} does not match element stack {h.shape}"
        )
    e = h.shape[0]
    h_cols, h_vals = _row_nonzeros(h)
    blocks = [(0, h_cols, h_vals)]
    for lo, hi, lead_rows, parent, insert in plan.blocks[1:]:
        prev_lo, prev_cols, prev_vals = blocks[-1]  # degree k-1
        tail_rows = parent - prev_lo
        rows, t = e * (hi - lo), h_cols.shape[2] * prev_cols.shape[2]
        tensorops._check_entries(rows * t)
        # the (h width, prev width) terms of each row, as rows of (rows, t) arrays
        cols = insert[prev_cols[:, tail_rows, None, :], h_cols[:, lead_rows, :, None]]
        terms = h_vals[:, lead_rows, :, None] * prev_vals[:, tail_rows, None, :]
        at = np.argsort(cols.reshape(rows, t), axis=1, kind="stable")
        at += np.arange(0, rows * t, t)[:, None]
        cols = np.take(cols, at)
        slot = np.zeros((rows, t), dtype=np.int64)  # index of each term's column in its row
        np.cumsum(cols[:, 1:] != cols[:, :-1], axis=1, out=slot[:, 1:])
        width = int(slot[:, -1].max()) + 1
        slot += np.arange(0, rows * width, width)[:, None]
        sums = np.bincount(slot.ravel(), np.take(terms, at).ravel(), minlength=rows * width)
        summed = np.repeat(cols[:, :1], width, axis=1)  # the column of each sum
        np.put(summed, slot, cols)
        blocks.append((lo, summed.reshape(e, hi - lo, width), sums.reshape(e, hi - lo, width)))
    q = plan.reduced_dim
    width = max(c.shape[2] for _, c, _ in blocks)
    cols = np.full((e, q, width), q - 1)
    vals = np.zeros((e, q, width))
    vals[:, q - 1, 0] = 1.0
    for lo, c, v in blocks:
        cols[:, lo:lo + c.shape[1], :c.shape[2]] = lo + c
        vals[:, lo:lo + c.shape[1], :c.shape[2]] = v
    return h, cols, vals


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
