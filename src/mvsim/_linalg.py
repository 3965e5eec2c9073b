"""Small dense matrix helpers for dimensions 1 and 2 (with a LAPACK fallback).

The state dimensions in play are tiny, so closed forms beat general
eigensolvers both in speed and in cross-checkability.  Every helper takes a
stack ``(..., d, d)`` and returns one value per matrix; a single matrix gives
numpy scalars.
"""

from __future__ import annotations

import numpy as np


def sym_eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of symmetric matrices, ascending along the last axis.

    Closed form for d <= 2, ``numpy.linalg.eigvalsh`` beyond.
    """
    d = a.shape[-1]
    if d == 1:
        return a[..., 0, :].astype(float)
    if d == 2:
        half_tr = 0.5 * (a[..., 0, 0] + a[..., 1, 1])
        # discriminant of the characteristic polynomial, clipped at 0; the
        # square is libm's pow, as for a scalar ``** 2``
        disc = 0.25 * np.float_power(a[..., 0, 0] - a[..., 1, 1], 2) \
            + a[..., 0, 1] * a[..., 1, 0]
        root = np.sqrt(np.maximum(disc, 0.0))
        return np.stack([half_tr - root, half_tr + root], axis=-1)
    return np.linalg.eigvalsh(a)


def singular_extremes(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(smallest, largest) singular values of square matrices.

    The largest is the operator norm; 1/smallest is the operator norm of the
    inverse when it exists.
    """
    vals = np.sqrt(np.maximum(sym_eigvals(a.swapaxes(-1, -2) @ a), 0.0))
    return vals[..., 0], vals[..., -1]


def operator_norm(a: np.ndarray) -> np.ndarray:
    return singular_extremes(a)[1]
