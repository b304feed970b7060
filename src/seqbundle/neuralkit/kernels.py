"""Pure-numpy numeric primitives (no autodiff involved)."""

from __future__ import annotations

import numpy as np

from ..errors import NumericError


def positional_encoding(position: int, dim: int) -> np.ndarray:
    """Fixed sinusoidal encoding of one position.

    Entry 2k is sin(position / 10000^(2k/dim)), entry 2k+1 the matching cos.
    """
    if dim < 2 or dim % 2 != 0:
        raise NumericError(f"encoding dim must be even and >= 2, got {dim}")
    if position < 0:
        raise NumericError(f"position must be >= 0, got {position}")
    k = np.arange(dim // 2, dtype=np.float64)
    angle = position / np.power(10000.0, 2.0 * k / dim)
    out = np.empty(dim, dtype=np.float64)
    out[0::2] = np.sin(angle)
    out[1::2] = np.cos(angle)
    return out


def positional_encoding_matrix(n_positions: int, dim: int) -> np.ndarray:
    """(n_positions, dim) stack of fixed sinusoidal encodings."""
    return np.stack(
        [positional_encoding(p, dim) for p in range(n_positions)], axis=0
    )
