"""Simulation configuration and the flat key=value config-file format.

An empty file (or no file) yields the default full-scale setup: 50 BS and
eavesdropper antennas, 20-use feedback, 40-bit keys reconciled through a
(60, 40) code, 100-bit messages split 12/88 between a 4096-entry pilot
codebook and a (512, 99) polar code, pilot and polar powers 0.3, key and
artificial-noise powers 0.15 each (a 0.3 key budget) and a 0.6 downlink.
"""

import math
import os
from dataclasses import dataclass, fields
from numbers import Real

from .ldpc import COL_WEIGHT
from .pilots import PILOT_POWER_RANGE, PILOT_WORK_CAP_BYTES, work_terms


class ConfigError(ValueError):
    """A configuration value violates its constraint."""


@dataclass(frozen=True)
class SystemConfig:
    # antennas / users
    M: int = 50            # BS receive antennas
    E: int = 50            # eavesdropper receive antennas
    Ka: int = 25           # active users per frame
    # segment lengths (channel uses)
    L: int = 20            # feedback (downlink) length
    np: int = 200          # pilot segment
    nc: int = 512          # polar segment
    ns: int = 60           # key codeword length; ns - S parity uses are sent
    # bit budgets
    B: int = 100           # message bits
    Bp: int = 12           # pilot sub-message bits
    Br: int = 11           # CRC bits
    S: int = 40            # secret-key bits
    # per-channel-use powers (linear)
    Pp: float = 0.3
    Pc: float = 0.3
    Pk: float = 0.15
    Pa: float = 0.15
    Pf: float = 0.6
    # noise variances
    sigma_c2: float = 1.0  # at the BS
    sigma_e2: float = 1.0  # at the eavesdropper
    sigma_u2: float = 1.0  # at the user (feedback reception)
    # receiver passes
    max_outer_iters: int = 8
    # Monte Carlo
    seed: int = 1
    trials: int = 50

    def __post_init__(self):
        self.validate()

    # ---- derived quantities -------------------------------------------

    @property
    def key_parity_len(self) -> int:
        return self.ns - self.S

    @property
    def polar_info_bits(self) -> int:
        return self.B - self.Bp + self.Br

    @property
    def key_budget(self) -> float:
        return self.Pk + self.Pa

    # ---- validation ----------------------------------------------------

    def validate(self):
        def fail(field, constraint):
            raise ConfigError(f"{field}: {constraint}")

        # every int field but the seed is a count; every float field is a
        # power (>= 0) or, named sigma_*, a noise variance (> 0); a bool is
        # neither, though Python counts it as an int
        kinds = fields(self)
        for f in kinds:
            v = getattr(self, f.name)
            if f.type is int and f.name != "seed" and (
                    isinstance(v, bool) or not isinstance(v, int) or v < 1):
                fail(f.name, f"must be a positive integer, got {v!r}")
        for f in kinds:
            v, noise = getattr(self, f.name), f.name.startswith("sigma")
            if f.type is float and (isinstance(v, bool) or not isinstance(v, Real)):
                fail(f.name, f"must be a real number, got {v!r}")
            if f.type is float and (not math.isfinite(v) or v < 0 or noise and v == 0):
                fail(f.name, f"must be finite and {'>' if noise else '>='} 0, got {v!r}")
        if self.Pp == 0 and self.Pc == 0:
            fail("Pc", "must be > 0 when Pp = 0: with neither pilot nor polar "
                 "power no user can be detected")
        if self.Pp and not PILOT_POWER_RANGE[0] <= self.Pp <= PILOT_POWER_RANGE[1]:
            fail("Pp", f"{self.Pp!r} puts a pilot codebook entry's magnitude, sqrt(Pp), "
                 "outside [2^-128, 2^128], where the receiver's atom energies can "
                 "leave float64's range")
        if self.S % 2 != 0:
            fail("S", f"must be even, got {self.S}")
        if self.L < self.S // 2:
            fail("L", f"must satisfy L >= S/2, got L={self.L}, S={self.S}")
        if self.S >= self.ns:
            fail("S", f"must satisfy S < ns, got S={self.S}, ns={self.ns}")
        if self.key_parity_len < COL_WEIGHT:
            fail("ns", f"must leave ns - S >= {COL_WEIGHT} parity checks (the LDPC "
                 f"column weight), got ns={self.ns}, S={self.S}")
        if self.Bp >= self.B:
            fail("Bp", f"must satisfy Bp < B, got Bp={self.Bp}, B={self.B}")
        # 2^Bp past the cap is over it, checked before N is formed; any other
        # overflow names the field of the largest term
        terms = {"Bp": math.inf}
        if self.Bp < PILOT_WORK_CAP_BYTES.bit_length():
            terms = work_terms(self.Bp, self.np, self.M)
        if sum(terms.values()) > PILOT_WORK_CAP_BYTES:
            fail(max(terms, key=terms.get), f"pilot detection over 2^Bp = 2^{self.Bp} "
                 f"atoms of np = {self.np} symbols at M = {self.M} antennas exceeds the "
                 f"{PILOT_WORK_CAP_BYTES}-byte working-set cap (16 bytes per entry, "
                 "see pilots.work_terms)")
        if self.Br > 30:
            fail("Br", f"must be <= 30, got {self.Br}")
        if self.nc & (self.nc - 1):
            fail("nc", f"must be a power of two, got {self.nc}")
        if self.polar_info_bits > self.nc:
            fail("nc", "must satisfy B - Bp + Br <= nc, got "
                 f"{self.polar_info_bits} > {self.nc}")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, int)
                or not 0 <= self.seed < (1 << 64)):
            fail("seed", f"must be an unsigned 64-bit integer, got {self.seed!r}")


def load_config(path: str | os.PathLike | None = None) -> SystemConfig:
    """Load a SystemConfig from a flat key=value file.

    Schema: UTF-8 text (a leading byte-order mark is ignored), one
    `key = value` pair per line, `#` starts a comment, blank lines are
    ignored.  Keys are the SystemConfig field names, each set at most once;
    unspecified keys keep their defaults.
    """
    kinds = {f.name: f.type for f in fields(SystemConfig)}
    overrides, first_line = {}, {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8-sig") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in kinds:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in first_line:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} "
                                  f"(first set on line {first_line[key]})")
            first_line[key] = lineno
            try:
                overrides[key] = kinds[key](value)
            except ValueError:
                expects = "an integer" if kinds[key] is int else "a number"
                raise ConfigError(f"{path}:{lineno}: {key} expects {expects}, got {value!r}") from None
    return SystemConfig(**overrides)
