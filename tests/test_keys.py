import numpy as np
import pytest

from secure_ura import (DegenerateFeedbackError, artificial_noise,
                        build_key_segment, extract_key,
                        make_private_observation, standardize)
from secure_ura.keys import sample_variance
from secure_ura.rng import complex_normal, stream


def test_standardize_constant_vector_is_degenerate():
    with pytest.raises(DegenerateFeedbackError):
        standardize(np.full(16, 2.0 + 1.0j))


def test_standardize_zero_mean_unit_variance(rng):
    y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    z = standardize(y)
    assert abs(z.mean()) < 1e-10
    assert sample_variance(z) == pytest.approx(1.0, abs=1e-12)


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


def test_key_segment_without_masking(mini_cfg, mini_params, rng):
    s = rng.integers(0, 2, mini_cfg.S, dtype=np.uint8)
    y_bar = standardize(rng.standard_normal(8) + 1j * rng.standard_normal(8))
    seg = build_key_segment(s, y_bar, mini_params.C2, 0.25, 0.0, mini_params.ldpc)
    assert np.array_equal(seg.x_k, seg.v)
    assert np.allclose(np.abs(seg.v), 0.5)  # +/- sqrt(0.25)


def test_key_segment_masking_power(mini_cfg, mini_params):
    # Pk = 0: the segment is pure artificial noise with per-use power ~ Pa
    g = stream(1, "mask-power")
    n = 20_000
    Pa = 0.15
    draws = complex_normal(g, (n, mini_cfg.L))
    vp = np.sqrt(Pa) * (draws @ mini_params.C2)
    mean_power = np.mean(np.abs(vp) ** 2)
    assert mean_power == pytest.approx(Pa, rel=0.05)


def test_key_segment_zero_key(mini_cfg, mini_params):
    s = np.zeros(mini_cfg.S, dtype=np.uint8)
    y_bar = standardize(np.exp(1j * np.arange(mini_cfg.L)))
    seg = build_key_segment(s, y_bar, mini_params.C2, 0.09, 0.0, mini_params.ldpc)
    assert np.allclose(seg.v, 0.3)  # zero codeword -> all +sqrt(Pk)


def test_length_bookkeeping(mini_cfg, mini_params, rng):
    y = rng.standard_normal(mini_cfg.L) + 1j * rng.standard_normal(mini_cfg.L)
    priv = make_private_observation(y, mini_params.C1)
    seg = build_key_segment(priv.s, priv.y_bar, mini_params.C2,
                            mini_cfg.Pk, mini_cfg.Pa, mini_params.ldpc)
    assert priv.s.shape == (mini_cfg.S,)
    assert seg.v.shape == (mini_cfg.key_parity_len,)
    assert seg.x_k.shape == (mini_cfg.key_parity_len,)
    assert np.array_equal(seg.x_k, seg.v + seg.v_prime)


def test_reciprocity_at_zero_noise(mini_cfg, mini_params, rng):
    # exact channel knowledge plus noiseless feedback reproduce every key;
    # the base station derives all users' keys from one (k, L) block
    H = rng.standard_normal((mini_cfg.M, 3)) + 1j * rng.standard_normal((mini_cfg.M, 3))
    Y_hat = H.T @ mini_params.V
    Y_bar_hat, _, valid = standardize(Y_hat)
    _, S_bs = extract_key(Y_bar_hat, mini_params.C1)
    assert valid.all()
    for i in range(3):
        y_user = H[:, i] @ mini_params.V  # sigma_u2 = 0
        priv = make_private_observation(y_user, mini_params.C1)
        assert np.allclose(Y_hat[i], y_user, atol=1e-14)
        assert np.array_equal(S_bs[i], priv.s)


def test_batched_key_derivation_matches_per_row_calls(mini_params, rng):
    Y = rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))
    Y[2] = 0.0
    Y[4] = 2.0 + 1.0j
    Y_bar, var, valid = standardize(Y)
    U, S = extract_key(Y_bar, mini_params.C1)
    assert np.array_equal(valid, [True, True, False, True, False, True])
    for i in range(6):
        if not valid[i]:
            with pytest.raises(DegenerateFeedbackError):
                standardize(Y[i])
            continue
        y_bar = standardize(Y[i])
        u, s = extract_key(y_bar, mini_params.C1)
        assert np.array_equal(Y_bar[i], y_bar)
        assert np.array_equal(var[i], sample_variance(Y[i]))
        assert np.array_equal(S[i], s)
        # a matrix-vector product rounds differently from the block product,
        # so the features agree to rounding, not bit for bit
        assert np.allclose(U[i], u, rtol=0, atol=1e-12)


def test_artificial_noise_exact_cancellation(mini_cfg, mini_params, rng):
    # Pk = 0, no noise, perfect estimates: the key segment cancels entirely
    h = (rng.standard_normal((mini_cfg.M, 2))
         + 1j * rng.standard_normal((mini_cfg.M, 2))) / np.sqrt(2)
    masks = [artificial_noise(standardize(h[:, i] @ mini_params.V),
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
