"""Deterministic generation of all publicly shared artifacts.

Everything here is a pure function of the configuration: the downlink
signal, pilot codebook, both projection matrices, the keystream matrix and
both channel codes.  Regenerating with the same config yields bit-identical
arrays, which the digest() helper makes easy to assert.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, SystemConfig
from .ldpc import LdpcCode
from .pilots import PartialDft
from .polar import PolarCode
from .rng import complex_normal, random_bits, stream

PARAMS_STREAM = "public-params"


@dataclass(frozen=True)
class PublicParams:
    V: np.ndarray    # (M, L) downlink signal, ||V||_F^2 = Pf * M * L
    P: PartialDft    # (2^Bp, np) pilot codebook, row norms^2 = np * Pp
    C1: np.ndarray   # (L, S/2) orthonormal columns
    C2: np.ndarray   # (L, ns - S) unit-norm columns
    T: np.ndarray    # (S, B) keystream expansion matrix
    ldpc: LdpcCode
    polar: PolarCode

    def digest(self) -> str:
        """SHA-256 over every shared artifact, for determinism checks; the
        codebook is hashed as its frequencies and twiddle table."""
        h = hashlib.sha256()
        for arr in (self.V, self.P.freqs, self.P.twiddles, self.C1, self.C2, self.T,
                    self.ldpc.H, self.ldpc.parity_map, self.polar.info_pos):
            h.update(str(arr.shape).encode())
            h.update(np.ascontiguousarray(arr))
        h.update(self.polar.crc_poly.to_bytes(8, "little"))
        return h.hexdigest()


def _scale_to_energy(x: np.ndarray, energy: float) -> None:
    """Scale x in place so its squared norm is energy."""
    if energy == 0.0:
        x.fill(0.0)
    else:
        x *= np.sqrt(energy) / np.linalg.norm(x)


def generate_public_params(cfg: SystemConfig) -> PublicParams:
    """Generate all shared artifacts from cfg; pure function of cfg."""
    cfg.validate()
    # the LDPC construction draws no random numbers; it runs first so that
    # a key length it cannot serve fails before anything large is built
    try:
        ldpc = LdpcCode.build(cfg.ns, cfg.S)
    except ValueError as exc:
        raise ConfigError(f"ns: no ({cfg.ns}, {cfg.S}) LDPC code: {exc}") from exc
    rng = stream(cfg.seed, PARAMS_STREAM)

    V = complex_normal(rng, (cfg.M, cfg.L))
    _scale_to_energy(V, cfg.Pf * cfg.M * cfg.L)

    P = PartialDft.draw(rng, cfg.Bp, cfg.np, cfg.Pp)

    half = cfg.S // 2
    C1 = np.linalg.qr(complex_normal(rng, (cfg.L, half)))[0]

    C2 = complex_normal(rng, (cfg.L, cfg.key_parity_len))
    C2 /= np.linalg.norm(C2, axis=0, keepdims=True)

    T = random_bits(rng, (cfg.S, cfg.B))

    polar = PolarCode.design(cfg.nc, cfg.polar_info_bits, cfg.Br)
    return PublicParams(V=V, P=P, C1=C1, C2=C2, T=T, ldpc=ldpc, polar=polar)
