"""Deterministic counter-based random streams.

Every random draw in the simulator comes from a Philox generator keyed by
(master seed, stream label, optional trial index).  Streams are independent
of each other and of execution order, so trials can run in any order (or in
parallel) and still produce identical results.
"""

import hashlib
import math

import numpy as np

_MASK64 = (1 << 64) - 1


def stream(seed: int, label: str, trial: int | None = None) -> np.random.Generator:
    """Return the generator for a named stream of a given master seed."""
    tag = label if trial is None else f"{label}/{trial}"
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    sub = int.from_bytes(digest[:8], "little")
    return np.random.Generator(np.random.Philox(key=[seed & _MASK64, sub]))


def complex_normal(rng: np.random.Generator, shape, var: float = 1.0) -> np.ndarray:
    """I.i.d. circularly-symmetric complex Gaussian samples with variance `var`.

    Real and imaginary parts are drawn interleaved, so the first rows of a
    (K, ...) block are identical for any K; per-user draws therefore do not
    depend on how many users come after them.
    """
    z = rng.standard_normal(tuple(shape) + (2,))
    z *= math.sqrt(var / 2.0)
    return z.view(np.complex128)[..., 0]   # (re, im) pairs read in place


def random_bits(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.integers(0, 2, size=shape, dtype=np.uint8)
