"""Deterministic generation of all publicly shared artifacts.

Everything here is a pure function of the configuration: the downlink
signal, pilot codebook, both projection matrices, the keystream matrix and
both channel codes.  Regenerating with the same config yields bit-identical
arrays, which the digest() helper makes easy to assert.

The pilot codebook is a complex128 array stored exactly in two parts (see
PilotCodebook): its rows are rebuilt bit for bit, while codebook-sized
products read only its complex64 part, half the bytes.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, SystemConfig
from .ldpc import LdpcCode
from .polar import PolarCode
from .rng import complex_normal, random_bits, stream

PARAMS_STREAM = "public-params"
#: rows per step of every loop over the pilot codebook or its correlation:
#: a step's temporaries are ROW_BLOCK rows, never codebook-sized
ROW_BLOCK = 256
# float64 mantissa bits that float32's lacks (52 - 23)
_LOW_BITS = 29
_LOW_MASK = np.uint64((1 << _LOW_BITS) - 1)
# float32's normal range: [2^-126, 2^128)
_SINGLE_TINY, _SINGLE_LIMIT = float(np.finfo(np.float32).tiny), 2.0 ** 128


@dataclass(frozen=True)
class PilotCodebook:
    """A complex128 codebook held exactly in 16 bytes per entry, split in two.

    Each float64 part x of an entry is stored as x with its low 29 mantissa
    bits cleared, converted to float32 (in `single`, complex64), and as those
    29 bits (in `low`, two uint32 per entry).  The conversion is exact for 0
    and for |x| in float32's normal range, and put() refuses anything else.
    Indexing rebuilds complex128 rows bit for bit, as
    (single as float64, viewed as uint64) | low; products with the whole
    codebook read `single` alone (see receiver.codebook_correlation).
    """
    single: np.ndarray   # (n, d) complex64 high parts
    low: np.ndarray      # (n, 2d) uint32 low mantissa bits

    @classmethod
    def allocate(cls, n: int, d: int) -> "PilotCodebook":
        """Room for n rows of d entries, to be filled by put()."""
        return cls(np.empty((n, d), np.complex64), np.empty((n, 2 * d), np.uint32))

    @property
    def shape(self) -> tuple[int, int]:
        return self.single.shape

    def __len__(self) -> int:
        return len(self.single)

    def __getitem__(self, idx) -> np.ndarray:
        """The complex128 rows at idx, rebuilt exactly."""
        bits = self.single[idx].view(np.float32).astype(np.float64).view(np.uint64)
        bits |= self.low[idx]
        return bits.view(np.complex128)

    def put(self, start: int, rows: np.ndarray) -> None:
        """Store the complex128 rows from row start on; ValueError if an entry
        is neither 0 nor in float32's normal range in magnitude."""
        if not _splits_exactly(rows):
            raise ValueError("an entry is outside float32's normal range, "
                             "so the codebook cannot be stored exactly")
        stop = start + len(rows)
        bits = rows.view(np.uint64)
        np.bitwise_and(bits, _LOW_MASK, out=self.low[start:stop], casting="unsafe")
        self.single[start:stop].view(np.float32)[...] = (bits & ~_LOW_MASK).view(np.float64)


def _splits_exactly(rows: np.ndarray) -> bool:
    """Whether every float64 part of rows is 0 or in float32's normal range."""
    x = np.abs(rows.view(np.float64))
    return bool(np.all((x == 0) | ((x >= _SINGLE_TINY) & (x < _SINGLE_LIMIT))))


@dataclass(frozen=True)
class PublicParams:
    V: np.ndarray    # (M, L) downlink signal, ||V||_F^2 = Pf * M * L
    P: PilotCodebook  # (2^Bp, np) pilot codebook, row norms^2 = np * Pp
    C1: np.ndarray   # (L, S/2) orthonormal columns
    C2: np.ndarray   # (L, ns - S) unit-norm columns
    T: np.ndarray    # (S, B) keystream expansion matrix
    ldpc: LdpcCode
    polar: PolarCode

    def digest(self) -> str:
        """SHA-256 over every shared artifact, for determinism checks.

        Each array is hashed ROW_BLOCK rows at a time, in place where it can
        be: the codebook's rows are rebuilt a block at a time, and the bytes
        hashed are those of the whole array.
        """
        h = hashlib.sha256()
        for arr in (self.V, self.P, self.C1, self.C2, self.T,
                    self.ldpc.H, self.ldpc.parity_map, self.polar.info_pos):
            h.update(str(arr.shape).encode())
            for i in range(0, len(arr), ROW_BLOCK):
                h.update(np.ascontiguousarray(arr[i:i + ROW_BLOCK]))
        h.update(self.polar.crc_poly.to_bytes(8, "little"))
        return h.hexdigest()


def row_norms(x: np.ndarray) -> np.ndarray:
    """(n,) Euclidean norms of the rows of an (n, d) array or PilotCodebook.

    np.linalg.norm(x, axis=1) forms x.conj() * x whole, a temporary as large
    as x; taking ROW_BLOCK rows at a time gives the same bytes, since each
    row is reduced alone either way.  (A 1-D norm per row would not: it
    takes numpy's dot path, which rounds differently.)
    """
    out = np.empty(len(x))
    for i in range(0, len(x), ROW_BLOCK):
        out[i:i + ROW_BLOCK] = np.linalg.norm(x[i:i + ROW_BLOCK], axis=1)
    return out


def _scale_to_energy(x: np.ndarray, energy: float, axis: int | None = None) -> None:
    """Scale x in place so its squared norm along axis (all of x if None,
    every row if 1) is energy."""
    if energy == 0.0:
        x.fill(0.0)
    elif axis is None:
        x *= np.sqrt(energy) / np.linalg.norm(x)
    else:
        x *= (np.sqrt(energy) / row_norms(x))[:, None]


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

    # drawn, scaled and stored ROW_BLOCK rows at a time, which draws the same
    # numbers as one (2^Bp, np) draw: the complex128 codebook is never whole
    P = PilotCodebook.allocate(cfg.pilot_count, cfg.np)
    for i in range(0, cfg.pilot_count, ROW_BLOCK):
        rows = complex_normal(rng, (min(ROW_BLOCK, cfg.pilot_count - i), cfg.np))
        _scale_to_energy(rows, cfg.np * cfg.Pp, axis=1)
        try:
            P.put(i, rows)
        except ValueError as exc:
            raise ConfigError(f"Pp: {cfg.Pp} puts a pilot codebook entry outside "
                              "float32's normal range, where it cannot be stored "
                              "exactly") from exc

    half = cfg.S // 2
    C1 = np.linalg.qr(complex_normal(rng, (cfg.L, half)))[0]

    C2 = complex_normal(rng, (cfg.L, cfg.key_parity_len))
    C2 /= np.linalg.norm(C2, axis=0, keepdims=True)

    T = random_bits(rng, (cfg.S, cfg.B))

    polar = PolarCode.design(cfg.nc, cfg.polar_info_bits, cfg.Br,
                             design_snr=cfg.Pc / cfg.sigma_c2)
    return PublicParams(V=V, P=P, C1=C1, C2=C2, T=T, ldpc=ldpc, polar=polar)
