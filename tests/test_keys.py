import numpy as np
import pytest

from secure_ura import (DegenerateFeedbackError, artificial_noise,
                        extract_key, generate_public_params, standardize,
                        transmit)
from secure_ura.keys import sample_variance
from secure_ura.modulation import bpsk_map
from secure_ura.rng import complex_normal, stream

from helpers import make_mini_cfg, own_split, random_users


def test_standardize_constant_vector_is_degenerate(mini_cfg, mini_params, rng):
    W, Y = random_users(mini_cfg, rng, 3)
    Y[1] = 2.0 + 1.0j
    _, _, valid = standardize(Y)
    assert np.array_equal(valid, [True, False, True])
    # the transmitter refuses the block and names the first degenerate user
    with pytest.raises(DegenerateFeedbackError, match="^user 1: sample variance"):
        transmit(W, Y, mini_cfg, own_split(mini_cfg), mini_params)


def test_standardize_zero_mean_unit_variance(rng):
    y = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
    z, _, valid = standardize(y)
    assert valid.all()
    assert np.abs(z.mean(axis=1)).max() < 1e-10
    assert sample_variance(z) == pytest.approx(np.ones(3), abs=1e-12)


def test_extract_key_known_projection(mini_params):
    C1 = mini_params.C1
    half = C1.shape[1]
    # orthonormal columns make conj(C1[:,0]) project to the unit vector e_0
    y_bar = (1.0 + 1.0j) * C1[:, 0].conj()
    u, s = extract_key(y_bar, C1)
    assert u[0] == pytest.approx(1.0)
    assert u[half] == pytest.approx(1.0)
    assert s[0] == 1 and s[half] == 1


def test_extract_key_negation_complements(mini_params, rng):
    y_bar = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    u, s = extract_key(y_bar, mini_params.C1)
    u_neg, s_neg = extract_key(-y_bar, mini_params.C1)
    nonzero = u != 0
    assert np.array_equal(s_neg[nonzero], 1 - s[nonzero])


def test_zero_feature_quantizes_to_one(mini_params):
    u = np.zeros(8)
    s = (u >= 0).astype(np.uint8)
    _, s_lib = extract_key(np.zeros(8, dtype=complex), mini_params.C1)
    assert np.array_equal(s_lib, s) and s_lib.all()


def test_key_bits_unbiased_under_gaussian_model(full_params):
    # model assumption: standardized feedback ~ CN(0, I)
    n = 100_000
    g = stream(0, "bias-test")
    draws = complex_normal(g, (n, full_params.C1.shape[0]))
    z = draws @ full_params.C1
    bits = np.concatenate([z.real, z.imag], axis=1) >= 0
    bias = np.abs(bits.mean(axis=0) - 0.5)
    assert bias.max() < 0.01


def _key_segments(cfg, params, W, Y):
    """The key segments x_k of transmit's frames, with the users' keys."""
    _, (X_k,), _, S = transmit(W, Y, cfg, own_split(cfg), params)
    return X_k, S


def test_key_segment_without_masking(rng):
    cfg = make_mini_cfg(Pk=0.25, Pa=0.0)
    params = generate_public_params(cfg)
    x_k, S = _key_segments(cfg, params, *random_users(cfg, rng, 4))
    # unmasked, the segment is exactly the BPSK parity of the key
    assert np.array_equal(x_k, bpsk_map(params.ldpc.encode(S), cfg.Pk))
    assert np.allclose(np.abs(x_k), 0.5)  # +/- sqrt(0.25)


def test_key_segment_masking_power(mini_cfg, mini_params):
    # Pk = 0: the segment is pure artificial noise with per-use power ~ Pa
    g = stream(1, "mask-power")
    n = 20_000
    Pa = 0.15
    draws = complex_normal(g, (n, mini_cfg.L))
    vp = np.sqrt(Pa) * (draws @ mini_params.C2)
    mean_power = np.mean(np.abs(vp) ** 2)
    assert mean_power == pytest.approx(Pa, rel=0.05)


def test_key_segment_zero_key(rng):
    # 2048 users with 8-bit keys: some draw the all-zero key
    cfg = make_mini_cfg(Pk=0.09, Pa=0.0)
    params = generate_public_params(cfg)
    x_k, S = _key_segments(cfg, params, *random_users(cfg, rng, 2048))
    zero = ~S.any(axis=1)
    assert zero.any()
    assert np.allclose(x_k[zero], 0.3)  # zero codeword -> all +sqrt(Pk)


def test_length_bookkeeping(mini_cfg, mini_params, rng):
    W, Y = random_users(mini_cfg, rng, 3)
    x_k, S = _key_segments(mini_cfg, mini_params, W, Y)
    assert S.shape == (3, mini_cfg.S)
    assert x_k.shape == (3, mini_cfg.key_parity_len)
    # x_k = v + v': the BPSK parity plus the mask of each user's own vector
    v = bpsk_map(mini_params.ldpc.encode(S), mini_cfg.Pk)
    v_prime = artificial_noise(standardize(Y)[0][:, None, :], mini_params.C2,
                               mini_cfg.Pa)[:, 0]
    assert np.array_equal(x_k, v + v_prime)


def test_reciprocity_at_zero_noise(mini_cfg, mini_params, rng):
    # exact channel knowledge plus noiseless feedback reproduce every key;
    # the base station derives all users' keys from one (k, L) block
    H = rng.standard_normal((mini_cfg.M, 3)) + 1j * rng.standard_normal((mini_cfg.M, 3))
    Y_hat = H.T @ mini_params.V
    Y_bar_hat, _, valid = standardize(Y_hat)
    _, S_bs = extract_key(Y_bar_hat, mini_params.C1)
    assert valid.all()
    Y_users = np.stack([H[:, i] @ mini_params.V for i in range(3)])  # sigma_u2 = 0
    W = rng.integers(0, 2, (3, mini_cfg.B), dtype=np.uint8)
    _, _, _, S_users = transmit(W, Y_users, mini_cfg, own_split(mini_cfg), mini_params)
    for i in range(3):
        assert np.allclose(Y_hat[i], Y_users[i], atol=1e-14)
        assert np.array_equal(S_bs[i], S_users[i])


def test_batched_key_derivation_matches_per_row_calls(mini_params, rng):
    Y = rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))
    Y[2] = 0.0
    Y[4] = 2.0 + 1.0j
    Y_bar, var, valid = standardize(Y)
    U, S = extract_key(Y_bar, mini_params.C1)
    assert np.array_equal(valid, [True, True, False, True, False, True])
    for i in range(6):
        y_bar, var_i, valid_i = standardize(Y[i])
        assert valid_i == valid[i]
        if not valid[i]:
            continue
        u, s = extract_key(y_bar, mini_params.C1)
        assert np.array_equal(Y_bar[i], y_bar)
        assert np.array_equal(var[i], var_i)
        assert np.array_equal(S[i], s)
        # a matrix-vector product rounds differently from the block product,
        # so the features agree to rounding, not bit for bit
        assert np.allclose(U[i], u, rtol=0, atol=1e-12)


def test_artificial_noise_exact_cancellation(mini_cfg, mini_params, rng):
    # Pk = 0, no noise, perfect estimates: the key segment cancels entirely
    h = (rng.standard_normal((mini_cfg.M, 2))
         + 1j * rng.standard_normal((mini_cfg.M, 2))) / np.sqrt(2)
    masks = [artificial_noise(standardize(h[:, i] @ mini_params.V)[0],
                              mini_params.C2, mini_cfg.Pa) for i in range(2)]
    Y_k = h @ np.stack(masks)
    # the receiver's side: one block of estimates, masks of the valid rows
    Y_bar, _, valid = standardize(h.T @ mini_params.V)
    cleaned = Y_k - h[:, valid] @ artificial_noise(Y_bar[valid], mini_params.C2,
                                                   mini_cfg.Pa)
    assert np.max(np.abs(cleaned)) < 1e-8 * np.max(np.abs(Y_k))


def test_artificial_noise_empty_set(mini_cfg, mini_params, rng):
    Y_k = rng.standard_normal((mini_cfg.M, mini_cfg.key_parity_len)) + 0j
    mask = artificial_noise(np.zeros((0, mini_cfg.L), dtype=complex),
                            mini_params.C2, mini_cfg.Pa)
    assert mask.shape == (0, mini_cfg.key_parity_len)
    out = Y_k - np.zeros((mini_cfg.M, 0), dtype=complex) @ mask
    assert np.array_equal(out, Y_k)
