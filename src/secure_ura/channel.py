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


def uplink(X: np.ndarray, X_k: list[np.ndarray], H: np.ndarray, sigma2: float,
           rng: np.random.Generator) -> tuple[np.ndarray, list[np.ndarray]]:
    """Superimpose user signals through channel columns and add noise.

    X holds one pilot+polar signal per row and each X_k[i] one key segment
    per row, the frame's key segment at one power split; H holds one
    channel vector per column.  One noise block is drawn for the frame
    [X | key segment], so every split's key segment sees the same noise.
    Returns (y, y_k), the received pilot+polar block and one received key
    segment per split.
    """
    if H.shape[1] != X.shape[0]:
        raise ValueError(f"channel columns {H.shape[1]} != user rows {X.shape[0]}")
    n = X.shape[1]
    noise = complex_normal(rng, (H.shape[0], n + X_k[0].shape[1]), sigma2)
    return H @ X + noise[:, :n], [H @ x + noise[:, n:] for x in X_k]
