import dataclasses
import math

import numpy as np
import pytest

from secure_ura import ConfigError, SystemConfig, generate_public_params
from secure_ura.harness import _check_params_invariants
from secure_ura.params import PARAMS_STREAM, _scale_to_energy, row_norms
from secure_ura.rng import complex_normal, stream

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
    assert full_params.P.shape == (4096, full_cfg.np)
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
    s_hat, converged = code.decode(llr, full_cfg.bp_iters)
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
    P = _complex_normal_reference(rng, (cfg.pilot_count, cfg.np))
    if cfg.Pp == 0.0:
        P = np.zeros_like(P)
    else:
        P *= np.sqrt(cfg.np * cfg.Pp) / np.linalg.norm(P, axis=1, keepdims=True)
    params = generate_public_params(cfg)
    assert _same_bytes(params.V, V) and _same_bytes(params.P, P)


@pytest.mark.parametrize("shape", [(4096, 200), (1000, 37)])
def test_blockwise_row_norms_match_whole_array_formula(shape):
    # the codebook's row norms are taken 256 rows at a time to bound the
    # temporary; the bytes must be those of one norm over the whole array
    # (a 1-D norm per row rounds differently and would fail here)
    x = complex_normal(stream(5, "rows", shape[1]), shape)
    assert _same_bytes(row_norms(x), np.linalg.norm(x, axis=1))
    want = x * (np.sqrt(60.0) / np.linalg.norm(x, axis=1, keepdims=True))
    _scale_to_energy(x, 60.0, axis=1)
    assert _same_bytes(x, want)
