"""Reference implementations that the library's optimised kernels replaced.

They are kept only as test oracles: the library must reproduce them bit for
bit.
"""

import numpy as np


def monomial_features_by_column(windows, lead, parent):
    """Compressed monomial features of each window row, one column at a time."""
    q = lead.shape[0]
    out = np.empty((windows.shape[0], q))
    out[:, q - 1] = 1.0
    for c in range(q - 1):
        np.multiply(windows[:, lead[c]], out[:, parent[c]], out=out[:, c])
    return out


def autoregress_by_step(coupling, lead, parent, seed, horizon, n_channels, lag,
                        consistent, norm_cap):
    """Column-by-column features and a per-channel window shift at every step.

    Returns (values, windows, steps, diverged) with all ``horizon`` rows
    allocated and the first ``steps`` valid.
    """
    m = seed.shape[0]
    values = np.zeros((horizon, n_channels))
    windows = np.zeros((horizon, m))
    w = seed.copy()
    for k in range(horizon):
        phi = monomial_features_by_column(w[None, :], lead, parent)
        y = coupling @ phi[0]
        if not np.all(np.isfinite(y)) or np.sqrt(np.sum(y * y)) > norm_cap:
            return values, windows, k, True
        if consistent:
            for j in range(n_channels):
                lo = j * lag
                w[lo:lo + lag - 1] = w[lo + 1:lo + lag]
                w[lo + lag - 1] = y[lo + lag - 1]
        else:
            w = y.copy()
        for j in range(n_channels):
            values[k, j] = y[j * lag + lag - 1]
        windows[k] = w
    return values, windows, horizon, False
