"""Secret-key extraction from the private feedback observation.

The user standardizes its feedback vector, projects it through the public
C1 matrix, and quantizes the real/imaginary features sign-wise into S key
bits.  The key segment carries only the LDPC parity of the key, BPSK-mapped
and masked with artificial noise derived from the same private vector.

The base station applies the same rules to its reciprocity estimates of
every decoded user's feedback vector, stacked as a (k, L) block, so the
standardization, projection and mask here are the only definition of the
key-derivation format.
"""

from dataclasses import dataclass

import numpy as np

from .ldpc import LdpcCode
from .modulation import bpsk_map

VAR_FLOOR = 1e-30


class DegenerateFeedbackError(ValueError):
    """Feedback vector has (numerically) zero sample variance."""


@dataclass(frozen=True)
class PrivateObservation:
    y_bar: np.ndarray  # standardized feedback, length L
    u: np.ndarray      # projected real features, length S
    s: np.ndarray      # secret key bits, length S


@dataclass(frozen=True)
class KeySegment:
    v: np.ndarray        # BPSK parity symbols, length ns - S
    v_prime: np.ndarray  # artificial noise, length ns - S
    x_k: np.ndarray      # transmitted key segment: v + v_prime


def sample_variance(y: np.ndarray) -> np.ndarray:
    """Biased sample variance along the last axis: mean |y - mean(y)|^2."""
    y = np.asarray(y)
    mu = y.mean(axis=-1, keepdims=True)
    return np.mean(np.abs(y - mu) ** 2, axis=-1)


def standardize(y: np.ndarray):
    """Center y and scale it by its sample standard deviation.

    y is one feedback vector (L,) or a block of them (k, L), standardized
    row by row.  A vector whose variance is below VAR_FLOOR raises
    DegenerateFeedbackError.  A block returns (y_bar, var, valid): the
    per-row variances, and valid[i] False where row i is below the floor,
    in which case that row is only centered.
    """
    y = np.asarray(y, dtype=np.complex128)
    var = sample_variance(y)
    valid = var >= VAR_FLOOR
    if y.ndim == 1 and not valid:
        raise DegenerateFeedbackError(f"sample variance {var:.3e} below {VAR_FLOOR:.0e}")
    y_bar = (y - y.mean(axis=-1, keepdims=True)) / np.sqrt(np.where(valid, var, 1.0))[..., None]
    return y_bar if y.ndim == 1 else (y_bar, var, valid)


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


def make_private_observation(y: np.ndarray, C1: np.ndarray) -> PrivateObservation:
    y_bar = standardize(y)
    u, s = extract_key(y_bar, C1)
    return PrivateObservation(y_bar=y_bar, u=u, s=s)


def build_key_segment(s: np.ndarray, y_bar: np.ndarray, C2: np.ndarray,
                      Pk: float, Pa: float, ldpc: LdpcCode) -> KeySegment:
    """Encode the key, keep only the parity, BPSK-map and mask it."""
    _, parity = ldpc.encode(s)
    v = bpsk_map(parity, Pk)
    v_prime = artificial_noise(y_bar, C2, Pa)
    return KeySegment(v=v, v_prime=v_prime, x_k=v + v_prime)


def artificial_noise(y_bar: np.ndarray, C2: np.ndarray, Pa: float) -> np.ndarray:
    """The mask sqrt(Pa) * (y_bar C2), one row per standardized vector."""
    return np.sqrt(Pa) * (y_bar @ C2)
