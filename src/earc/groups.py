"""Finite orthogonal matrix groups and their actions on embedded coordinates."""

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


def close_group(generators, match_tol=MATCH_TOL, max_order=MAX_ORDER):
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
        if np.linalg.norm(g.T @ g - np.eye(n)) > match_tol:
            raise ValidationError(f"generator {i} is not orthogonal within {match_tol}")
    elements = [np.eye(n)]
    queue = [np.eye(n)]
    while queue:
        e = queue.pop(0)
        for g in gens:
            prod = e @ g
            if any(np.linalg.norm(prod - x) <= match_tol for x in elements):
                continue
            elements.append(prod)
            queue.append(prod)
            if len(elements) > max_order:
                raise NonFiniteGroupError(
                    f"closure exceeded max_order={max_order}; group is not finite "
                    "or match_tol is too tight"
                )
    for e in elements:
        e.setflags(write=False)
    for g in gens:
        g.setflags(write=False)
    return GroupRep(n=n, generators=tuple(gens), elements=tuple(elements),
                    order=len(elements))


def window_action(g, lag):
    """Action of a channel-space element on delay windows: g (x) I_lag."""
    g = tensorops._as_matrix(g, "g")
    if g.shape[0] != g.shape[1]:
        raise ShapeError(f"group element must be square, got {g.shape}")
    if lag == 1:
        return np.array(g)
    return tensorops.kron(g, np.eye(lag))


def reduced_action(g, lag, plan):
    """Action on compressed features: the q x q matrix with
    phi((g (x) I_lag) x) = reduced_action(g, lag, plan) @ phi(x) for the
    compressed features phi of ``embedding.compressed_features``.

    Equal to R @ G @ E for the block-diagonal action G on the full embedding
    and the selection and expansion maps R and E (all three are test oracles),
    but computed degree by degree through the plan's monomials, without
    materialising the full-dimension matrix: the aggregated block A_k obeys
    A_k[a, c] = sum over distinct v in c of h[lead(a), v] * A_{k-1}[tail(a), c - v].
    The terms are added by the position of v in c's sorted tuple, one
    vectorised pass per position over the plan's ``action_tables``; a column
    occurs at most once per pass, so every column sums the same products in
    the same order as a loop over classes.  The passes build each block's
    transpose, so that they gather and scatter whole contiguous rows.
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
    prev_t = h.T
    for lo, hi, lead_rows, tail_rows, passes in plan.action_tables:
        lead_t = np.take(h.T, lead_rows, axis=1)
        tail_t = np.take(prev_t, tail_rows, axis=1)
        block_t = np.zeros((hi - lo, hi - lo))
        for cols, variables, rests in passes:
            block_t[cols] += lead_t[variables] * tail_t[rests]
        out[lo:hi, lo:hi] = block_t.T
        prev_t = block_t
    return out


def from_json_dict(data):
    """Rebuild a group from its JSON encoding; the closure is recomputed."""
    try:
        n = data["n"]
        flat = data["generators"]
        # bool is an int subclass, and int() would truncate a float
        if not isinstance(n, int) or isinstance(n, bool):
            raise TypeError(f"n must be an integer, got {n!r}")
        gens = [np.asarray(g, dtype=np.float64).reshape(n, n) for g in flat]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed group encoding: {exc}") from exc
    return close_group(gens)


def load_group(path):
    with open(path, "r", encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))
