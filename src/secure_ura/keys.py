"""Secret-key extraction from the private feedback observation.

Each user standardizes its feedback vector, projects it through the public
C1 matrix, and quantizes the real/imaginary features sign-wise into S key
bits.  The artificial noise that masks the key segment is derived from the
same private vector through C2.

The transmitter applies these rules to its users' feedback vectors and the
base station to its reciprocity estimates of them, each stacked as a
(k, L) block, so the standardization, projection and mask here are the
only definition of the key-derivation format.
"""

import numpy as np

VAR_FLOOR = 1e-30


class DegenerateFeedbackError(ValueError):
    """Feedback vector has (numerically) zero sample variance."""


def sample_variance(y: np.ndarray) -> np.ndarray:
    """Biased sample variance along the last axis: mean |y - mean(y)|^2."""
    y = np.asarray(y)
    mu = y.mean(axis=-1, keepdims=True)
    return np.mean(np.abs(y - mu) ** 2, axis=-1)


def standardize(y: np.ndarray):
    """Center y and scale it by its sample standard deviation.

    y is a block of feedback vectors (k, L), standardized row by row.
    Returns (y_bar, var, valid): the per-row variances, and valid[i] False
    where row i is below VAR_FLOOR, in which case that row is only centered.
    """
    y = np.asarray(y, dtype=np.complex128)
    var = sample_variance(y)
    valid = var >= VAR_FLOOR
    y_bar = (y - y.mean(axis=-1, keepdims=True)) / np.sqrt(np.where(valid, var, 1.0))[..., None]
    return y_bar, var, valid


def extract_key(y_bar: np.ndarray, C1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project the standardized feedback and quantize per sign.

    Returns (u, s) with u = [Re(y_bar C1), Im(y_bar C1)] and s the bits
    1{u >= 0}; an exactly-zero feature quantizes to 1.  A (k, L) block
    gives (k, S) features and bits.
    """
    z = y_bar @ C1
    u = np.concatenate([z.real, z.imag], axis=-1)
    s = (u >= 0).astype(np.uint8)
    return u, s


def artificial_noise(y_bar: np.ndarray, C2: np.ndarray, Pa: float) -> np.ndarray:
    """The mask sqrt(Pa) * (y_bar C2), one row per standardized vector."""
    return np.sqrt(Pa) * (y_bar @ C2)
