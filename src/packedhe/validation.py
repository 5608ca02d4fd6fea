"""Input validation helpers shared by the estimator and the CLI."""

from __future__ import annotations

import numpy as np


def check_array(x, name: str = "X") -> np.ndarray:
    """Coerce to a finite 2-d float64 array."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.shape[0] == 0:
        raise ValueError(f"{name} has no rows")
    return check_finite(arr, name)


def check_finite(arr: np.ndarray, name: str = "X") -> np.ndarray:
    """``arr`` itself if every entry is finite, else ``ValueError``."""
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or infinite entries")
    return arr


def check_labels(y, name: str = "y") -> np.ndarray:
    arr = np.asarray(y)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got ndim={arr.ndim}")
    if not np.issubdtype(arr.dtype, np.integer):
        cast = arr.astype(np.int64)
        if not np.array_equal(cast, arr):
            raise ValueError(f"{name} must hold integer class labels")
        arr = cast
    if arr.size and arr.min() < 0:
        raise ValueError(f"{name} must hold non-negative class labels")
    return arr.astype(np.int64)


def check_x_y(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = check_array(x)
    y = check_labels(y)
    if len(x) != len(y):
        raise ValueError(f"X has {len(x)} rows but y has {len(y)} labels")
    return x, y
