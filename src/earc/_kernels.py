"""Hot numeric kernels: monomial feature evaluation and autoregressive rollout.

Monomial features are evaluated through the (lead, parent) chains of a
compression plan: feature c equals window[lead[c]] times feature parent[c],
with the constant feature (last index) pinned to 1.  Every duplicate of a
monomial therefore shares one canonical product order, which is what makes
compression round trips bit-exact.

The parent of a degree-k monomial has degree k-1, so all features of one
degree are filled by a single vectorised product once the lower degrees are
known: p numpy calls per evaluation instead of one per feature.
"""

import math

import numpy as np

NUMBA_ENABLED = False  # read by perfbench's environment record; there is no numba path

CHUNK_ENTRIES = 1 << 15
"""Feature entries per block of rows in a batch, so that the gathered operands
of one block stay in cache.  Of 2^14..2^17 it was fastest on 20,000-row
batches at (m, p) = (6, 3) and (10, 3) on a 2-core x86 host; evaluating a whole
batch at once was 1.3-2.6x slower."""


def degree_blocks(plan):
    """Per degree 1..p: (lo, hi, lead[lo:hi], parent[lo:hi]) of its class range."""
    blocks = []
    for k in range(1, plan.order + 1):
        lo, hi = plan.degree_class_range(k)
        blocks.append((lo, hi, plan.lead[lo:hi], plan.parent[lo:hi]))
    return blocks


def fill_features(windows, blocks, out):
    """Fill ``out`` (..., q) with the compressed features of ``windows`` (..., m)."""
    out[..., -1] = 1.0
    for lo, hi, lead, parent in blocks:
        np.multiply(windows[..., lead], out[..., parent], out=out[..., lo:hi])
    return out


def monomial_features(windows, plan, out):
    """Fill ``out`` (rows, q) from ``windows`` (rows, m), one block of rows at a time."""
    blocks = degree_blocks(plan)
    step = max(1, CHUNK_ENTRIES // plan.reduced_dim)
    for r in range(0, windows.shape[0], step):
        fill_features(windows[r:r + step], blocks, out[r:r + step])
    return out


def autoregress(coupling, plan, seed, horizon, lag, consistent, norm_cap):
    """Iterate the one-step predictor up to ``horizon`` times from ``seed``.

    Returns (windows, diverged) with one window per completed step.  A step
    whose predicted dilated state is non-finite or has Euclidean norm above
    ``norm_cap`` is dropped, iteration stops and ``diverged`` is set.

    Each step computes what ``fill_features`` and ``coupling @ phi`` would, in
    buffers allocated once: the degree-1 features are the window coordinates
    in order (lead c, parent the constant), so the window is kept as
    ``phi[:m]`` and is itself the degree-1 block.
    """
    m = seed.shape[0]
    windows = np.empty((horizon, m))
    phi = np.empty(plan.reduced_dim)
    phi[-1] = 1.0
    w = phi[:m]
    w[:] = seed
    y = np.empty(m)
    blocks = [(lead, parent, phi[lo:hi]) for lo, hi, lead, parent in degree_blocks(plan)[1:]]
    if consistent and lag > 1:
        # per channel: drop the oldest sample, append the predicted newest
        moves = ((w[:-1], w[1:]), (w[lag - 1::lag], y[lag - 1::lag]))
    else:  # free, or lag 1, where the newest samples are the whole window
        moves = ((w, y),)
    for k in range(horizon):
        for lead, parent, out in blocks:
            np.multiply(w[lead], phi[parent], out=out)
        np.matmul(coupling, phi, out=y)
        if not math.sqrt(y.dot(y)) <= norm_cap:  # NaN and inf fail too
            return windows[:k].copy(), True
        for dst, src in moves:
            dst[...] = src
        windows[k] = w
    return windows, False
