"""Pure-numpy numeric primitives (no autodiff involved)."""

from __future__ import annotations

import numpy as np

from ..errors import NumericError


def positional_encoding_matrix(n_positions: int, dim: int) -> np.ndarray:
    """(n_positions, dim) fixed sinusoidal encodings.

    Row p's entry 2k is sin(p / 10000^(2k/dim)), entry 2k+1 the matching cos.
    Each entry is one elementwise sin or cos, so a row's bits do not depend on
    n_positions: a grown table keeps the rows it had.
    """
    if dim < 2 or dim % 2 != 0:
        raise NumericError(f"encoding dim must be even and >= 2, got {dim}")
    k = np.arange(dim // 2, dtype=np.float64)
    angle = np.arange(n_positions, dtype=np.float64)[:, None] / np.power(10000.0, 2.0 * k / dim)
    return np.stack((np.sin(angle), np.cos(angle)), axis=-1).reshape(n_positions, dim)
