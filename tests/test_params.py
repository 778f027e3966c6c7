import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from secure_ura import ConfigError, SystemConfig, generate_public_params
from secure_ura.harness import _check_params_invariants
from secure_ura.params import PARAMS_STREAM
from secure_ura.pilots import fft_len
from secure_ura.receiver import BP_ITERS
from secure_ura.rng import complex_normal, random_bits, stream

from helpers import frozen_mask, make_mini_cfg

# The norms of V, C1, C2 and the pilot rows are stated once, in the selftest
# suite; the tests below add the shapes.


def test_downlink_power_normalization(full_cfg, full_params):
    _check_params_invariants(full_cfg, full_params)


def test_zero_downlink_power():
    cfg = SystemConfig(Pf=0.0)
    assert not generate_public_params(cfg).V.any()


@pytest.mark.parametrize("field", ["Pf", "Pp"])
def test_invariants_hold_at_zero_power(field):
    # a zero target is met exactly: V or P is all zeros
    cfg = SystemConfig(M=8, E=8, **{field: 0.0})
    _check_params_invariants(cfg, generate_public_params(cfg))


def test_c1_orthonormal_columns(full_cfg, full_params):
    assert full_params.C1.shape == (full_cfg.L, full_cfg.S // 2)
    _check_params_invariants(full_cfg, full_params)


def test_c2_unit_norm_columns(full_cfg, full_params):
    assert full_params.C2.shape == (full_cfg.L, full_cfg.key_parity_len)
    _check_params_invariants(full_cfg, full_params)


def test_pilot_row_norms(full_cfg, full_params):
    assert (len(full_params.P), len(full_params.P.freqs)) == (4096, full_cfg.np)
    _check_params_invariants(full_cfg, full_params)


def test_digest_covers_every_field(full_params, mini_params):
    # every field of the artifact set is hashed: swapping any one of them for
    # another config's, or changing one entry of an array field, moves the digest
    base = full_params.digest()
    for f in dataclasses.fields(full_params):
        other = dataclasses.replace(full_params, **{f.name: getattr(mini_params, f.name)})
        assert other.digest() != base, f.name
        value = getattr(full_params, f.name)
        if isinstance(value, np.ndarray):
            changed = value.copy()
            changed.flat[-1] += 1
            other = dataclasses.replace(full_params, **{f.name: changed})
            assert other.digest() != base, f.name
    # the codebook is hashed as its frequencies and its twiddle table
    for part in ("freqs", "twiddles"):
        changed = getattr(full_params.P, part).copy()
        changed.flat[-1] += 1
        book = dataclasses.replace(full_params.P, **{part: changed})
        assert dataclasses.replace(full_params, P=book).digest() != base, part


def test_keystream_matrix_shape(full_cfg, full_params):
    T = full_params.T
    assert T.shape == (full_cfg.S, full_cfg.B)
    assert set(np.unique(T)) <= {0, 1}
    assert 0.35 < T.mean() < 0.65  # fair-coin entries


def test_regeneration_is_deterministic(full_cfg, full_params):
    again = generate_public_params(full_cfg)
    assert again.digest() == full_params.digest()
    assert np.array_equal(again.V, full_params.V)
    assert np.array_equal(again.T, full_params.T)


def test_different_seed_changes_digest(full_cfg, full_params):
    other = generate_public_params(dataclasses.replace(full_cfg, seed=999))
    assert other.digest() != full_params.digest()


def test_ldpc_is_systematic(full_cfg, full_params, rng):
    code = full_params.ldpc
    s = rng.integers(0, 2, (100, full_cfg.S), dtype=np.uint8)
    parity = code.encode(s)
    cw = np.concatenate([s, parity], axis=1)
    assert not code.syndrome(cw).any()


def test_ldpc_round_trip_1000_keys(full_cfg, full_params, rng):
    code = full_params.ldpc
    s = rng.integers(0, 2, (1000, full_cfg.S), dtype=np.uint8)
    parity = code.encode(s)
    llr = np.where(np.concatenate([s, parity], axis=1) == 0, 40.0, -40.0)
    s_hat, converged = code.decode(llr, BP_ITERS)
    assert converged.all()
    assert np.array_equal(s_hat, s)


def test_polar_frozen_set_shape(full_cfg, full_params):
    frozen = frozen_mask(full_params.polar)
    assert frozen.sum() == full_cfg.nc - full_cfg.polar_info_bits
    assert frozen[0] and not frozen[full_cfg.nc - 1]


def test_crc_polynomial_for_11_bits(full_params):
    assert full_params.polar.crc_poly == 0xB8B


def test_generate_rejects_bypassed_invariants(full_cfg):
    bad = dataclasses.replace(full_cfg)
    object.__setattr__(bad, "L", 5)  # violate L >= S/2 behind the validator
    with pytest.raises(ConfigError, match="L"):
        generate_public_params(bad)
    bad2 = dataclasses.replace(full_cfg)
    object.__setattr__(bad2, "S", 60)
    with pytest.raises(ConfigError, match="S"):
        generate_public_params(bad2)


# ---- the draw and scaling arithmetic the in-place versions replaced, verbatim --


def _complex_normal_reference(rng, shape, var=1.0):
    z = rng.standard_normal(tuple(shape) + (2,))
    scale = math.sqrt(var / 2.0)
    return (z[..., 0] + 1j * z[..., 1]) * scale


def _scale_to_total_reference(x, target):
    """Scale x so its squared Frobenius norm equals target exactly."""
    if target == 0.0:
        return np.zeros_like(x)
    nrm = np.linalg.norm(x)
    return x * (np.sqrt(target) / nrm)


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _dft_rows_reference(rng, cfg):
    """The pilot codebook formed whole: its frequencies drawn from rng, then
    every entry sqrt(Pp) exp(2 pi i ((j s_t) mod N) / N)."""
    n = fft_len(cfg.Bp, cfg.np)
    freqs = rng.choice(n, cfg.np, replace=False)
    k = np.multiply.outer(np.arange(1 << cfg.Bp), freqs) % n
    return np.sqrt(cfg.Pp) * np.exp(2j * np.pi / n * k)


@pytest.mark.parametrize("shape", [(7,), (50,), (4, 9), (25, 50), (3, 5, 8), (0, 4)])
@pytest.mark.parametrize("var", [1.0, 0.3, 1e-9, 17.5])
def test_complex_normal_matches_reference(shape, var):
    got = complex_normal(stream(11, "cn", len(shape)), shape, var)
    want = _complex_normal_reference(stream(11, "cn", len(shape)), shape, var)
    assert _same_bytes(got, want)


@pytest.mark.parametrize("overrides", [{}, dict(Pf=0.0), dict(Pp=0.0),
                                       dict(M=16, E=16, seed=3), "mini"])
def test_energy_scaling_matches_reference(overrides):
    cfg = make_mini_cfg() if overrides == "mini" else SystemConfig(**overrides)
    rng = stream(cfg.seed, PARAMS_STREAM)
    V = _scale_to_total_reference(_complex_normal_reference(rng, (cfg.M, cfg.L)),
                                  cfg.Pf * cfg.M * cfg.L)
    P = _dft_rows_reference(rng, cfg)
    params = generate_public_params(cfg)
    assert _same_bytes(params.V, V) and _same_bytes(params.P[:], P)


# ---- the pilot codebook, formed on read ----------------------------------------


def _one_piece_reference(cfg):
    """(P, C1, C2, T) as drawn with the codebook formed whole."""
    rng = stream(cfg.seed, PARAMS_STREAM)
    complex_normal(rng, (cfg.M, cfg.L))                      # V
    P = _dft_rows_reference(rng, cfg)
    C1 = np.linalg.qr(complex_normal(rng, (cfg.L, cfg.S // 2)))[0]
    C2 = complex_normal(rng, (cfg.L, cfg.key_parity_len))
    C2 /= np.linalg.norm(C2, axis=0, keepdims=True)
    return P, C1, C2, random_bits(rng, (cfg.S, cfg.B))


@pytest.mark.parametrize("cfg", [SystemConfig(), SystemConfig(M=16, E=16, seed=2024),
                                 make_mini_cfg()], ids=["default", "m16", "mini"])
def test_codebook_is_stored_exactly(cfg):
    # the rows formed on read, from the stored frequencies and twiddles, are
    # the whole codebook's bit for bit, however they are indexed, and the
    # frequencies take the codebook draw's place in the stream: C1, C2 and T
    # follow it
    params = generate_public_params(cfg)
    P, C1, C2, T = _one_piece_reference(cfg)
    assert (len(params.P), len(params.P.freqs)) == P.shape and len(params.P) == len(P)
    assert _same_bytes(params.P[:], P)
    for j in (0, len(P) // 2, len(P) - 1):
        assert _same_bytes(params.P[j], P[j])
    rows = [3, 1, len(P) - 1, 3]
    assert _same_bytes(params.P[rows], P[rows])
    assert _same_bytes(params.P[np.array(rows)], P[rows])
    with pytest.raises(IndexError):
        params.P[len(P)]
    for got, want in [(params.C1, C1), (params.C2, C2), (params.T, T)]:
        assert _same_bytes(got, want)


def test_generation_never_holds_the_codebook_twice(full_cfg):
    # no codebook is drawn or held: tracemalloc's peak over a full-scale
    # generation is 0.19 MB (the N = 4096 twiddles, the frequency draw's
    # permutation and the channel codes).  The 1 MB bound is below the
    # 13.1 MB the stored Gaussian codebook took alone
    tracemalloc.start()
    try:
        generate_public_params(full_cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000


@pytest.mark.parametrize("value", [5e-324, 1e300, np.inf, np.nan])
def test_codebook_refuses_what_it_cannot_store_exactly(value):
    # a pilot power whose codebook's atom energies, fourth powers of the
    # entries' magnitude sqrt(Pp), float64 cannot hold exactly (they
    # overflow, or fall among the subnormals), and non-finite powers
    with pytest.raises(ConfigError, match="^Pp: "):
        generate_public_params(SystemConfig(Pp=value))
