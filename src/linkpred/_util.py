"""Small shared numeric helpers."""

from __future__ import annotations

import numpy as np


def mirror_upper(matrix: np.ndarray) -> np.ndarray:
    """Copy the strict upper triangle onto the lower one, in place.

    Guarantees bitwise symmetry regardless of how the entries were produced.
    """
    lower = np.tril_indices(matrix.shape[0], -1)
    matrix[lower] = matrix.T[lower]
    return matrix

