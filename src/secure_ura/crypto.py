"""Keystream expansion and XOR encryption of user messages."""

import numpy as np


def expand_key(s: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Expand the secret key to a full-length keystream: k = s T mod 2."""
    s = np.asarray(s, dtype=np.uint8)
    if s.shape[-1] != T.shape[0]:
        raise ValueError(f"key length {s.shape[-1]} != keystream matrix rows {T.shape[0]}")
    return (s.astype(np.int64) @ T.astype(np.int64) % 2).astype(np.uint8)


def encrypt(w: np.ndarray, k: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=np.uint8)
    k = np.asarray(k, dtype=np.uint8)
    if w.shape != k.shape:
        raise ValueError(f"message shape {w.shape} != keystream shape {k.shape}")
    return w ^ k


# XOR is an involution, so decryption is the same map.
decrypt = encrypt
