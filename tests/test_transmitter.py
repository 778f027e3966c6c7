import functools
from dataclasses import dataclass, replace

import numpy as np
import pytest

from secure_ura import (DegenerateFeedbackError, SystemConfig, expand_key,
                        encrypt, feedback_observation, generate_public_params,
                        index_to_bits, pilot_polar_rows, transmit)
from secure_ura.keys import VAR_FLOOR, sample_variance
from secure_ura.modulation import bpsk_map
from secure_ura.receiver import LIST_SIZE
from secure_ura.rng import complex_normal, random_bits, stream

from helpers import make_mini_cfg, own_split, random_users, transmit_frame


# ---- the per-user transmitter chain the batched transmit replaced, verbatim --


def _feedback_observation_reference(h, V, sigma_u2, rng):
    """Downlink observation h^T V plus receiver noise (one user)."""
    if h.shape[0] != V.shape[0]:
        raise ValueError(f"channel length {h.shape[0]} != downlink rows {V.shape[0]}")
    return h @ V + complex_normal(rng, (V.shape[1],), sigma_u2)


@dataclass(frozen=True)
class _PrivateObservation:
    y_bar: np.ndarray  # standardized feedback, length L
    u: np.ndarray      # projected real features, length S
    s: np.ndarray      # secret key bits, length S


@dataclass(frozen=True)
class _KeySegment:
    v: np.ndarray        # BPSK parity symbols, length ns - S
    v_prime: np.ndarray  # artificial noise, length ns - S
    x_k: np.ndarray      # transmitted key segment: v + v_prime


@dataclass(frozen=True)
class _Ciphertext:
    c: np.ndarray    # full ciphertext, length B
    c_p: np.ndarray  # pilot sub-message, length Bp
    c_d: np.ndarray  # polar sub-message, length B - Bp


@dataclass
class _UserRealization:
    w: np.ndarray                  # message bits, length B
    y: np.ndarray                  # feedback observation, length L
    priv: _PrivateObservation
    cipher: _Ciphertext
    key_segment: _KeySegment
    x: np.ndarray                  # transmit signal, length np + nc + (ns - S)


def _standardize_reference(y):
    y = np.asarray(y, dtype=np.complex128)
    var = sample_variance(y)
    valid = var >= VAR_FLOOR
    if y.ndim == 1 and not valid:
        raise DegenerateFeedbackError(f"sample variance {var:.3e} below {VAR_FLOOR:.0e}")
    y_bar = (y - y.mean(axis=-1, keepdims=True)) / np.sqrt(np.where(valid, var, 1.0))[..., None]
    return y_bar if y.ndim == 1 else (y_bar, var, valid)


def _extract_key_reference(y_bar, C1):
    z = y_bar @ C1
    u = np.concatenate([z.real, z.imag], axis=-1)
    s = (u >= 0).astype(np.uint8)
    return u, s


def _artificial_noise_reference(y_bar, C2, Pa):
    return np.sqrt(Pa) * (y_bar @ C2)


def _make_private_observation_reference(y, C1):
    y_bar = _standardize_reference(y)
    u, s = _extract_key_reference(y_bar, C1)
    return _PrivateObservation(y_bar=y_bar, u=u, s=s)


def _build_key_segment_reference(s, y_bar, C2, Pk, Pa, ldpc):
    parity = ldpc.encode(s)
    v = bpsk_map(parity, Pk)
    v_prime = _artificial_noise_reference(y_bar, C2, Pa)
    return _KeySegment(v=v, v_prime=v_prime, x_k=v + v_prime)


def _split_ciphertext_reference(c, pilot_bits):
    c = np.asarray(c, dtype=np.uint8)
    if not 0 < pilot_bits < c.size:
        raise ValueError(f"pilot split {pilot_bits} outside (0, {c.size})")
    return _Ciphertext(c=c, c_p=c[:pilot_bits].copy(), c_d=c[pilot_bits:].copy())


def _bits_to_index_reference(bits):
    out = 0
    for b in np.asarray(bits, dtype=np.uint8):
        out = (out << 1) | int(b)
    return out


def _build_pilot_segment_reference(c_p, P):
    idx = _bits_to_index_reference(c_p)
    if idx >= len(P):
        raise ValueError(f"pilot index {idx} outside codebook of {len(P)} rows")
    return P[idx].copy()


def _transmit_reference(w, y, cfg, params):
    w = np.asarray(w, dtype=np.uint8)
    if w.shape != (cfg.B,):
        raise ValueError(f"message shape {w.shape} != ({cfg.B},)")

    priv = _make_private_observation_reference(y, params.C1)
    key_segment = _build_key_segment_reference(priv.s, priv.y_bar, params.C2,
                                               cfg.Pk, cfg.Pa, params.ldpc)
    keystream = expand_key(priv.s, params.T)
    cipher = _split_ciphertext_reference(encrypt(w, keystream), cfg.Bp)

    x_p = _build_pilot_segment_reference(cipher.c_p, params.P)
    x_d = bpsk_map(params.polar.encode(cipher.c_d), cfg.Pc)
    x = np.concatenate([x_p, x_d, key_segment.x_k])
    return _UserRealization(w=w, y=y, priv=priv, cipher=cipher,
                            key_segment=key_segment, x=x)


# ---- batched transmit against the reference -----------------------------------


_REFERENCE_CONFIGS = {
    "full": SystemConfig,
    "m16": lambda: SystemConfig(M=16, E=16),
    "mini-pk0": lambda: make_mini_cfg(Pk=0.0),
    "mini-pa0": lambda: make_mini_cfg(Pa=0.0),
    "mini-both0": lambda: make_mini_cfg(Pk=0.0, Pa=0.0),
}


@functools.lru_cache(maxsize=None)
def _reference_setup(name):
    cfg = _REFERENCE_CONFIGS[name]()
    return cfg, generate_public_params(cfg)


@pytest.mark.parametrize("name,ka", [("full", 1), ("full", 25), ("full", 100),
                                     ("m16", 25), ("mini-pk0", 2),
                                     ("mini-pa0", 2), ("mini-both0", 2)])
def test_transmit_matches_per_user_reference(name, ka):
    # the trial's own draws, as run_trial makes them
    cfg, params = _reference_setup(name)
    for trial in range(3):
        h = complex_normal(stream(cfg.seed, "bs-channel", trial), (ka, cfg.M))
        W = random_bits(stream(cfg.seed, "messages", trial), (ka, cfg.B))
        Y = feedback_observation(h, params.V, cfg.sigma_u2,
                                 stream(cfg.seed, "feedback-noise", trial))
        fb_rng = stream(cfg.seed, "feedback-noise", trial)
        Y_ref = np.stack([_feedback_observation_reference(h[u], params.V, cfg.sigma_u2, fb_rng)
                          for u in range(ka)])
        assert np.array_equal(Y, Y_ref)

        X, C, S = transmit_frame(W, Y, cfg, params)
        ref = [_transmit_reference(W[u], Y_ref[u], cfg, params) for u in range(ka)]
        assert np.array_equal(X, np.stack([r.x for r in ref]))
        assert np.array_equal(C, np.stack([r.cipher.c for r in ref]))
        assert np.array_equal(S, np.stack([r.priv.s for r in ref]))


# ---- frame layout -------------------------------------------------------------


def test_bit_index_round_trip(mini_cfg, mini_params, rng):
    # transmit's bits-to-index step inverts the receiver's index_to_bits
    assert np.array_equal(index_to_bits(5, 3), [1, 0, 1])  # big-endian
    X, C, _ = transmit_frame(*random_users(mini_cfg, rng, 32), mini_cfg, mini_params)
    pilots = []
    for x in X:
        rows = np.flatnonzero((mini_params.P[:] == x[:mini_cfg.np]).all(axis=1))
        assert rows.size == 1
        pilots.append(rows[0])
    # one call turns a block of indices into one row of bits each
    assert np.array_equal(index_to_bits(np.array(pilots), mini_cfg.Bp), C[:, :mini_cfg.Bp])


def test_zero_bits_select_row_zero(mini_cfg, mini_params, rng):
    W, Y = random_users(mini_cfg, rng, 3)
    _, C, _ = transmit_frame(W, Y, mini_cfg, mini_params)
    # the keystream C ^ W as the message encrypts to all-zero bits
    X, C0, _ = transmit_frame(C ^ W, Y, mini_cfg, mini_params)
    assert not C0.any()
    assert (X[:, :mini_cfg.np] == mini_params.P[0]).all()


def test_pilot_collision_is_deterministic(mini_cfg, mini_params, rng):
    # two users with one feedback vector and one pilot sub-message collide
    W, Y = random_users(mini_cfg, rng, 2)
    Y[1] = Y[0]
    W[1, :mini_cfg.Bp] = W[0, :mini_cfg.Bp]
    X, C, _ = transmit_frame(W, Y, mini_cfg, mini_params)
    assert np.array_equal(C[0, :mini_cfg.Bp], C[1, :mini_cfg.Bp])
    assert np.array_equal(X[0, :mini_cfg.np], X[1, :mini_cfg.np])


def test_pilot_row_norm(mini_cfg, mini_params, rng):
    X, _, _ = transmit_frame(*random_users(mini_cfg, rng, 4), mini_cfg, mini_params)
    energy = np.linalg.norm(X[:, :mini_cfg.np], axis=1) ** 2
    assert energy == pytest.approx(np.full(4, mini_cfg.np * mini_cfg.Pp), rel=1e-10)


def test_polar_segment_alphabet_and_round_trip(mini_cfg, mini_params, rng):
    C = rng.integers(0, 2, (1, mini_cfg.B), dtype=np.uint8)
    c_d = C[:, mini_cfg.Bp:]
    seg = pilot_polar_rows(C, mini_cfg, mini_params)[:, mini_cfg.np:]
    assert np.allclose(np.abs(seg), np.sqrt(mini_cfg.Pc))
    assert not seg.imag.any()
    llr = np.where(seg.real > 0, 40.0, -40.0)
    dec, ok = mini_params.polar.decode(llr, LIST_SIZE)
    assert ok.all() and np.array_equal(dec, c_d)


@pytest.fixture(scope="module")
def fullsize_tx():
    # default segment lengths with small antenna counts for speed
    cfg = SystemConfig(M=8, E=8, Ka=1)
    return cfg, generate_public_params(cfg)


def test_transmit_frame_length(fullsize_tx, rng):
    cfg, params = fullsize_tx
    X, C, S = transmit_frame(*random_users(cfg, rng, 3), cfg, params)
    assert X.shape == (3, 732)  # 200 + 512 + 20
    assert C.shape == (3, cfg.B) and S.shape == (3, cfg.S)


def test_splits_share_the_pilot_polar_rows(fullsize_tx, rng):
    # one call at several Pa/Pk splits gives each split the frame a call at
    # that split alone gives: the same pilot+polar rows, its own key segment
    cfg, params = fullsize_tx
    W, Y = random_users(cfg, rng, 3)
    splits = [(pa, 0.3 - pa) for pa in (0.0, 0.15, 0.2625, 0.3)]
    X, X_k, C, S = transmit(W, Y, cfg, splits, params)
    assert X.shape == (3, cfg.np + cfg.nc) and len(X_k) == len(splits)
    for (pa, pk), x_k in zip(splits, X_k):
        X_one, C_one, S_one = transmit_frame(W, Y, replace(cfg, Pa=pa, Pk=pk), params)
        assert np.array_equal(X_one, np.concatenate([X, x_k], axis=1))
        assert np.array_equal(C_one, C) and np.array_equal(S_one, S)


def test_transmit_deterministic(fullsize_tx, rng):
    cfg, params = fullsize_tx
    W, Y = random_users(cfg, rng, 3)
    for a, b in zip(transmit_frame(W, Y, cfg, params), transmit_frame(W, Y, cfg, params)):
        assert np.array_equal(a, b)


def test_transmit_zero_key_powers(rng):
    cfg = make_mini_cfg(Pk=0.0, Pa=0.0)
    params = generate_public_params(cfg)
    X, _, _ = transmit_frame(*random_users(cfg, rng, 2), cfg, params)
    assert not X[:, cfg.np + cfg.nc:].any()


def test_segment_power_budget(fullsize_tx, rng):
    cfg, params = fullsize_tx
    X, _, _ = transmit_frame(*random_users(cfg, rng, 3), cfg, params)
    x_p, x_d = X[:, :cfg.np], X[:, cfg.np:cfg.np + cfg.nc]
    assert np.linalg.norm(x_p, axis=1) ** 2 == pytest.approx(np.full(3, cfg.np * cfg.Pp), rel=1e-10)
    assert np.linalg.norm(x_d, axis=1) ** 2 == pytest.approx(np.full(3, cfg.nc * cfg.Pc), rel=1e-10)


def test_key_segment_mean_power(fullsize_tx):
    # E||x_k||^2 -> (ns - S) (Pk + Pa) for the idealized CN(0, I) private
    # vector, 5% tolerance over 10^4 users
    cfg, params = fullsize_tx
    g = stream(2, "power-budget")
    n_users = 10_000
    Yb = complex_normal(g, (n_users, cfg.L))
    z = Yb @ params.C1
    keys = (np.concatenate([z.real, z.imag], axis=1) >= 0).astype(np.uint8)
    parity = params.ldpc.encode(keys)
    v = (1.0 - 2.0 * parity) * np.sqrt(cfg.Pk)
    x_k = v + np.sqrt(cfg.Pa) * (Yb @ params.C2)
    mean_energy = np.mean(np.sum(np.abs(x_k) ** 2, axis=1))
    expected = cfg.key_parity_len * (cfg.Pk + cfg.Pa)
    assert mean_energy == pytest.approx(expected, rel=0.05)


def test_ciphertext_split_order(fullsize_tx, rng):
    # the first Bp ciphertext bits pick the pilot row, the rest the polar word
    cfg, params = fullsize_tx
    X, C, _ = transmit_frame(*random_users(cfg, rng, 3), cfg, params)
    for x, c in zip(X, C):
        idx = int("".join(str(b) for b in c[:cfg.Bp]), 2)
        assert np.array_equal(x[:cfg.np], params.P[idx])
        assert np.array_equal(x[cfg.np:cfg.np + cfg.nc],
                              bpsk_map(params.polar.encode(c[cfg.Bp:]), cfg.Pc))


def test_transmit_rejects_bad_message(fullsize_tx):
    cfg, params = fullsize_tx
    with pytest.raises(ValueError):
        transmit(np.zeros((1, 3), dtype=np.uint8), np.ones((1, cfg.L), dtype=complex),
                 cfg, own_split(cfg), params)
