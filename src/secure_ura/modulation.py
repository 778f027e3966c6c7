"""BPSK mapping and log-likelihood-ratio conventions.

Project-wide LLR convention: positive favors bit 0 (the +sqrt(P) symbol).
LLRs are clamped to +/-LLR_CLAMP before they reach a decoder.
"""

import numpy as np

LLR_CLAMP = 40.0


def bpsk_map(bits: np.ndarray, power: float) -> np.ndarray:
    """Map bits to complex BPSK symbols: 0 -> +sqrt(power), 1 -> -sqrt(power)."""
    amp = np.sqrt(power)
    return ((1.0 - 2.0 * np.asarray(bits, dtype=np.float64)) * amp).astype(np.complex128)


def clamp_llr(llr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.clip(llr, -LLR_CLAMP, LLR_CLAMP, out=out)
