"""Per-user uplink signal assembly.

A user turns its feedback observation into a key and key segment, encrypts
its message with the expanded keystream, then maps the ciphertext halves to
a pilot codeword and a CRC-aided polar codeword.  The frame is the
concatenation [pilot | polar | key].
"""

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .crypto import Ciphertext, encrypt, expand_key, split_ciphertext
from .keys import KeySegment, PrivateObservation, build_key_segment, make_private_observation
from .modulation import bpsk_map
from .params import PublicParams


@dataclass
class UserRealization:
    w: np.ndarray                  # message bits, length B
    y: np.ndarray                  # feedback observation, length L
    priv: PrivateObservation
    cipher: Ciphertext
    key_segment: KeySegment
    x: np.ndarray                  # transmit signal, length np + nc + (ns - S)


def bits_to_index(bits: np.ndarray) -> int:
    """Big-endian bit vector to integer (first bit most significant)."""
    out = 0
    for b in np.asarray(bits, dtype=np.uint8):
        out = (out << 1) | int(b)
    return out


def index_to_bits(index: int, width: int) -> np.ndarray:
    return np.array([(index >> (width - 1 - i)) & 1 for i in range(width)],
                    dtype=np.uint8)


def build_pilot_segment(c_p: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Row of the pilot codebook selected by the pilot sub-message."""
    idx = bits_to_index(c_p)
    if idx >= P.shape[0]:
        raise ValueError(f"pilot index {idx} outside codebook of {P.shape[0]} rows")
    return P[idx].copy()


def build_polar_segment(c_d: np.ndarray, params: PublicParams, Pc: float) -> np.ndarray:
    return bpsk_map(params.polar.encode(c_d), Pc)


def transmit(w: np.ndarray, y: np.ndarray, cfg: SystemConfig,
             params: PublicParams) -> UserRealization:
    """Full transmitter chain for one user."""
    w = np.asarray(w, dtype=np.uint8)
    if w.shape != (cfg.B,):
        raise ValueError(f"message shape {w.shape} != ({cfg.B},)")

    priv = make_private_observation(y, params.C1)
    key_segment = build_key_segment(priv.s, priv.y_bar, params.C2,
                                    cfg.Pk, cfg.Pa, params.ldpc)
    keystream = expand_key(priv.s, params.T)
    cipher = split_ciphertext(encrypt(w, keystream), cfg.Bp)

    x_p = build_pilot_segment(cipher.c_p, params.P)
    x_d = build_polar_segment(cipher.c_d, params, cfg.Pc)
    x = np.concatenate([x_p, x_d, key_segment.x_k])
    return UserRealization(w=w, y=y, priv=priv, cipher=cipher,
                           key_segment=key_segment, x=x)
