"""Rayleigh block-fading channels and additive noise.

Channels stay constant over the whole frame and the preceding feedback
round.  All functions are pure in an explicit RNG stream.
"""

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .rng import complex_normal


@dataclass(frozen=True)
class ReceivedFrame:
    """The base station's frame, partitioned into the three uplink segments."""
    y_p: np.ndarray  # (M, np)
    y_d: np.ndarray  # (M, nc)
    y_k: np.ndarray  # (M, ns - S)

    @classmethod
    def from_uplink(cls, y_bs: np.ndarray, cfg: SystemConfig) -> "ReceivedFrame":
        if y_bs.shape[1] != cfg.frame_len:
            raise ValueError(f"frame has {y_bs.shape[1]} columns, expected {cfg.frame_len}")
        a, b = cfg.np, cfg.np + cfg.nc
        return cls(y_p=y_bs[:, :a], y_d=y_bs[:, a:b], y_k=y_bs[:, b:])


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
