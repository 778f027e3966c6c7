"""Rayleigh block-fading channels and additive noise.

Channels stay constant over the whole frame and the preceding feedback
round.  All functions are pure in an explicit RNG stream.
"""

import numpy as np

from .rng import complex_normal


def feedback_observation(H: np.ndarray, V: np.ndarray, sigma_u2: float,
                         rng: np.random.Generator) -> np.ndarray:
    """Downlink observations h^T V plus receiver noise, one row per user.

    H holds one channel vector per row.  Each row is its own
    vector-matrix product (a (Ka, 1, M) stack), so a user's observation
    does not depend on how many users share the block.
    """
    if H.shape[1] != V.shape[0]:
        raise ValueError(f"channel length {H.shape[1]} != downlink rows {V.shape[0]}")
    return (H[:, None, :] @ V)[:, 0] + complex_normal(rng, (H.shape[0], V.shape[1]), sigma_u2)


def uplink(X: np.ndarray, H: np.ndarray, sigma2: float,
           rng: np.random.Generator) -> np.ndarray:
    """Superimpose user signals through channel columns and add noise.

    X holds one transmit signal per row, H one channel vector per column.
    """
    if H.shape[1] != X.shape[0]:
        raise ValueError(f"channel columns {H.shape[1]} != user rows {X.shape[0]}")
    return H @ X + complex_normal(rng, (H.shape[0], X.shape[1]), sigma2)
