"""Hot numeric kernels: monomial feature evaluation and autoregressive rollout.

Monomial features are evaluated one degree at a time from the plan's
``blocks``: in the block (lo, hi, lead, parent, _) of degree k, feature
lo + i is window[lead[i]] times feature parent[i], and the constant feature
(last index) is pinned to 1.  Every duplicate of a monomial therefore shares
one canonical product order, which is what makes compression round trips
bit-exact.

The parent of a degree-k monomial has degree k-1, so all features of one
degree are filled by a single vectorised product once the lower degrees are
known: p numpy calls per evaluation instead of one per feature.  The rollout
returns the newest predicted sample of each channel per step, not whole windows.
"""

import math

import numpy as np

NUMBA_ENABLED = False  # read by perfbench's environment record; there is no numba path

BLOCK_STEPS = 256
"""Rollout and competition-map steps between two divergence tests.  Of 16..512
it was fastest from 256 on, for 10,000 z5 steps (m, q) = (5, 21) and 1,000 k4
steps at L = 3, p = 3 on a 2-core x86 host; a test costs about 10 us."""


def fill_features(windows, blocks, out):
    """Fill ``out`` (..., q) with the compressed features of ``windows`` (..., m)."""
    out[..., -1] = 1.0
    for lo, hi, lead, parent, _ in blocks:
        np.multiply(windows[..., lead], out[..., parent], out=out[..., lo:hi])
    return out


def autoregress(coupling, plan, seed, horizon, lag, consistent, norm_cap):
    """Iterate the one-step predictor up to ``horizon`` times from ``seed``.

    Returns (values, diverged): per completed step, the newest predicted sample
    of each channel.  A step whose predicted dilated state is non-finite or has
    norm above ``norm_cap`` is dropped, iteration stops and ``diverged`` is set.

    Each step computes what ``fill_features`` and ``coupling @ phi`` would, in
    buffers allocated once: the degree-1 features are the window coordinates
    in order (lead c, parent the constant), so the window is kept as
    ``phi[:m]`` and is itself the degree-1 block.  ``coupling.dot`` is the
    dgemv of ``np.matmul`` without its ufunc dispatch.  Both modes predict into
    a block of scratch rows, whose newest columns are copied out per block.

    Divergence is tested once per ``BLOCK_STEPS`` steps: the rows whose
    batched norm is not safely under the cap are tested again in step order
    with the per-step test ``sqrt(y.dot(y)) <= norm_cap``, so the rollout stops
    at the same step.  At most one block is computed past it, without warnings.
    """
    m = seed.shape[0]
    values = np.empty((horizon, m // lag))
    block = np.empty((min(BLOCK_STEPS, horizon), m))
    phi = np.empty(plan.reduced_dim)
    phi[-1] = 1.0
    w = phi[:m]
    w[:] = seed
    blocks = [(lead, parent, phi[lo:hi]) for lo, hi, lead, parent, _ in plan.blocks[1:]]
    shift = consistent and lag > 1
    if shift:  # per channel: drop the oldest sample, append the predicted newest
        old, new, newest = w[:-1], w[1:], w[lag - 1::lag]
    predict = coupling.dot
    flag_cap = norm_cap * (1.0 - 1e-9)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, horizon, BLOCK_STEPS):
            ys = block[:horizon - start]  # the predictions
            if shift:
                for y in ys:
                    for lead, parent, out in blocks:
                        np.multiply(w[lead], phi[parent], out=out)
                    predict(phi, out=y)
                    old[...] = new
                    newest[...] = y[lag - 1::lag]
            else:
                for y in ys:
                    for lead, parent, out in blocks:
                        np.multiply(w[lead], phi[parent], out=out)
                    predict(phi, out=y)
                    w[...] = y
            values[start:start + len(ys)] = ys[:, lag - 1::lag]
            for i in np.flatnonzero(~(np.linalg.norm(ys, axis=1) <= flag_cap)):
                y = ys[i]
                if not math.sqrt(y.dot(y)) <= norm_cap:  # NaN and inf fail too
                    return values[:start + i].copy(), True
    return values, False
