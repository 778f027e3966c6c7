"""Batched uplink signal assembly.

Each user turns its feedback observation into a key and an artificial-noise
mask, encrypts its message with the expanded keystream, then maps the
ciphertext halves to a pilot codeword and a CRC-aided polar codeword.  The
key segment is the BPSK-mapped LDPC parity of the key plus the mask, and
the frame is the concatenation [pilot | polar | key].  A trial's users go
through every step as one block, one row per user.

A power split, a (Pa, Pk) pair, changes only the key segment, so a frame
sent at several splits builds its pilot+polar rows once and one key segment
per split.
"""

import numpy as np

from .config import SystemConfig
from .crypto import encrypt, expand_key
from .keys import (VAR_FLOOR, DegenerateFeedbackError, artificial_noise,
                   extract_key, standardize)
from .modulation import bpsk_map
from .params import PublicParams


def _msb_first(width: int) -> np.ndarray:
    return np.arange(width - 1, -1, -1)


def index_to_bits(index: int | np.ndarray, width: int) -> np.ndarray:
    """Big-endian width-bit rows of the indices (first bit most significant)."""
    return (np.asarray(index)[..., None] >> _msb_first(width) & 1).astype(np.uint8)


def pilot_polar_rows(C: np.ndarray, cfg: SystemConfig, params: PublicParams) -> np.ndarray:
    """(k, np + nc) pilot+polar signal rows of a (k, B) ciphertext block.

    The first Bp bits of a row, read big-endian, pick its pilot codebook
    row; the rest are BPSK-mapped through their polar codeword.
    """
    pilot = C[:, :cfg.Bp].astype(np.int64) @ (1 << _msb_first(cfg.Bp))
    return np.concatenate([params.P[pilot],
                           bpsk_map(params.polar.encode(C[:, cfg.Bp:]), cfg.Pc)], axis=1)


def transmit(W: np.ndarray, Y: np.ndarray, cfg: SystemConfig, splits, params: PublicParams
             ) -> tuple[np.ndarray, list[np.ndarray], np.ndarray, np.ndarray]:
    """Transmitter chain for a block of users: returns (X, X_k, C, S).

    W holds one B-bit message per row and Y the matching feedback
    observations, one L-vector per row.  X is the (Ka, np + nc) block of
    pilot+polar signals, the same at every split; X_k[i] is the (Ka, ns - S)
    key segment at the (Pa, Pk) pair splits[i]: the BPSK parity at Pk plus
    the mask at Pa.  C holds the (Ka, B) ciphertexts and S the (Ka, S) key
    bits.  A feedback row below the variance floor raises
    DegenerateFeedbackError naming the first such user.

    The projections of the standardized feedback go through a (Ka, 1, L)
    stack, so each row is its own vector-matrix product and a user's frame
    does not depend on how many users share the block; a plain block
    product rounds differently from row to row.
    """
    W = np.asarray(W, dtype=np.uint8)
    if W.shape != (len(Y), cfg.B):
        raise ValueError(f"message block shape {W.shape} != ({len(Y)}, {cfg.B})")

    Y_bar, var, valid = standardize(Y)
    if not valid.all():
        u = int(np.flatnonzero(~valid)[0])
        raise DegenerateFeedbackError(
            f"user {u}: sample variance {var[u]:.3e} below {VAR_FLOOR:.0e}")
    Y_bar = Y_bar[:, None, :]
    S = extract_key(Y_bar, params.C1)[1][:, 0]
    parity = params.ldpc.encode(S)
    X_k = [bpsk_map(parity, pk) + artificial_noise(Y_bar, params.C2, pa)[:, 0]
           for pa, pk in splits]

    C = encrypt(W, expand_key(S, params.T))
    return pilot_polar_rows(C, cfg, params), X_k, C, S
