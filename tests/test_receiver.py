import numpy as np
import pytest

from secure_ura import (DetectedUser, ReceivedFrame,
                        decode_frame, decode_keys_and_decrypt,
                        feature_noise_variances, iterative_decode, llr_parity,
                        llr_systematic, mmse_polar_llr, omp_detect, run_trial,
                        standardize, transmit, uplink)
from secure_ura.rng import stream

from helpers import make_mini_cfg


def _cn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


# ---- OMP -------------------------------------------------------------------


def test_omp_single_user_noiseless(mini_cfg, mini_params, rng):
    h = _cn(rng, mini_cfg.M)
    idx = 11
    Y = np.outer(h, mini_params.P[idx])
    det = omp_detect(Y, mini_params.P, max_atoms=4)
    assert det[0][0] == idx
    assert np.max(np.abs(det[0][1] - h)) < 1e-8


def test_omp_empty_frame(mini_params):
    Y = np.zeros((8, mini_params.P.shape[1]), dtype=complex)
    assert omp_detect(Y, mini_params.P, max_atoms=4) == []


def test_omp_two_users_high_snr(mini_cfg, mini_params, rng):
    h1, h2 = _cn(rng, mini_cfg.M), _cn(rng, mini_cfg.M)
    i1, i2 = 3, 29
    Y = np.outer(h1, mini_params.P[i1]) + np.outer(h2, mini_params.P[i2])
    Y += 1e-6 * _cn(rng, Y.shape)
    det = dict(omp_detect(Y, mini_params.P, max_atoms=4))
    assert {i1, i2} <= set(det)
    assert np.max(np.abs(det[i1] - h1)) < 1e-4
    assert np.max(np.abs(det[i2] - h2)) < 1e-4


def test_omp_five_users_noiseless(mini_cfg, mini_params, rng):
    # several sequential residual updates must stay consistent
    indices = [2, 7, 13, 21, 30]
    H = _cn(rng, (mini_cfg.M, 5))
    Y = H @ mini_params.P[indices]
    det = dict(omp_detect(Y, mini_params.P, max_atoms=10))
    assert set(det) == set(indices)
    for col, idx in enumerate(indices):
        assert np.max(np.abs(det[idx] - H[:, col])) < 1e-8


def test_omp_respects_atom_cap(mini_params, rng):
    Y = _cn(rng, (8, 32))
    det = omp_detect(Y, mini_params.P, max_atoms=3)
    assert len(det) <= 3


def test_omp_residual_threshold_stops_early(mini_cfg, mini_params, rng):
    h = _cn(rng, mini_cfg.M)
    Y = np.outer(h, mini_params.P[5])
    # the single atom explains everything; the loop must stop right after
    det = omp_detect(Y, mini_params.P, max_atoms=10, res_threshold=0.05)
    assert len(det) == 1


def _omp_reference(Y, P, max_atoms, res_threshold=0.05, atom_norms=None):
    """OMP that recomputes every atom's residual correlation at each step.

    This is the direct form of the algorithm that omp_detect implements with
    incrementally updated energies and deferred residual updates; both must
    pick the same atoms in the same order and return the same estimates.
    """
    energy0 = float(np.sum(np.abs(Y) ** 2))
    if energy0 == 0.0:
        return []
    if atom_norms is None:
        atom_norms = np.linalg.norm(P, axis=1)
    gamma = (P @ Y.conj().T).conj().T
    safe_norms = np.where(atom_norms > 0, atom_norms, 1.0)
    selected = []
    Q = np.zeros((0, P.shape[1]), dtype=np.complex128)
    res_energy = energy0
    for _ in range(max_atoms):
        if res_energy / energy0 < res_threshold:
            break
        metric = np.linalg.norm(gamma, axis=0)
        metric = np.where(atom_norms > 0, metric / safe_norms, 0.0)
        if selected:
            metric[selected] = -1.0
        j = int(np.argmax(metric))
        if metric[j] <= 0.0:
            break
        p = P[j]
        q = p - (Q.conj() @ p) @ Q
        q = q - (Q.conj() @ q) @ Q
        nq = np.linalg.norm(q)
        if nq <= 1e-12 * max(1.0, np.linalg.norm(p)):
            break
        q /= nq
        u = Y @ q.conj()
        r = (P @ q.conj()).conj()
        gamma -= np.outer(u, r)
        res_energy = max(res_energy - float(np.sum(np.abs(u) ** 2)), 0.0)
        Q = np.vstack([Q, q])
        selected.append(j)
    if not selected:
        return []
    A = P[selected]
    B = Y @ A.conj().T
    G = A @ A.conj().T
    try:
        H = np.linalg.solve(G.T, B.T).T
    except np.linalg.LinAlgError:
        H = B @ np.linalg.pinv(G)
    return [(idx, H[:, i].copy()) for i, idx in enumerate(selected)]


def _omp_codebook(rng, n_atoms, n_obs, zero_row):
    P = _cn(rng, (n_atoms, n_obs))
    P *= np.sqrt(n_obs * 0.3) / np.linalg.norm(P, axis=1, keepdims=True)
    P[zero_row] = 0.0
    return P


def _omp_frame(rng, P, M, ka, noise, zero_row):
    users = rng.choice(np.delete(np.arange(P.shape[0]), zero_row), ka, replace=False)
    Y = _cn(rng, (M, ka)) @ P[users] + noise * _cn(rng, (M, P.shape[1]))
    # the receiver passes a column slice of its residual, so do the same
    return np.concatenate([Y, _cn(rng, (M, 3))], axis=1)[:, :P.shape[1]]


def _assert_same_detections(got, want):
    assert [i for i, _ in got] == [i for i, _ in want]
    for (_, h_got), (_, h_want) in zip(got, want):
        assert np.array_equal(h_got, h_want)


def test_omp_matches_recomputing_reference_at_full_scale():
    # M=50, 4096 atoms, 200 pilot symbols: up to 200 steps, so the deferred
    # residual updates are flushed many times within one call
    rng = np.random.default_rng(20240)
    zero_row = 1234
    P = _omp_codebook(rng, 4096, 200, zero_row)
    norms = np.linalg.norm(P, axis=1)
    steps = 0
    # at noise 5 the residual threshold is reached late: Ka=100 takes ~170 steps
    for ka, noise in [(ka, noise) for ka in [1, 10, 25, 50, 100] * 2
                      for noise in (1.0, 5.0)]:
        Y = _omp_frame(rng, P, 50, ka, noise, zero_row)
        atoms = min(2 * ka, 200)
        want = _omp_reference(Y, P, atoms, 0.05, norms)
        got = omp_detect(Y, P, atoms, 0.05, norms)
        _assert_same_detections(got, want)
        assert zero_row not in [i for i, _ in got]
        steps += len(got)
    assert steps > 1000


def test_omp_matches_reference_with_early_stop_and_cap_above_np():
    rng = np.random.default_rng(20241)
    zero_row = 5
    P = _omp_codebook(rng, 4096, 200, zero_row)
    # noiseless users: the residual threshold ends the search long before
    # the atom cap
    Y = _omp_frame(rng, P, 50, 30, 0.0, zero_row)
    want = _omp_reference(Y, P, 200, 0.05)
    assert 0 < len(want) < 200
    _assert_same_detections(omp_detect(Y, P, 200, 0.05), want)
    # more atoms allowed than there are pilot symbols: at most np can be
    # picked, whatever the threshold
    P = _omp_codebook(rng, 64, 32, zero_row)
    for res_threshold in (0.0, 0.05, 0.5):
        Y = _omp_frame(rng, P, 8, 40, 0.1, zero_row)
        want = _omp_reference(Y, P, 40, res_threshold)
        assert len(want) <= 32
        _assert_same_detections(omp_detect(Y, P, 40, res_threshold), want)


# ---- MMSE LLRs ---------------------------------------------------------------


def test_mmse_single_user_high_snr_signs(mini_cfg, mini_params, rng):
    h = _cn(rng, mini_cfg.M)
    bits = rng.integers(0, 2, mini_cfg.nc)
    x = (1 - 2 * bits) * np.sqrt(mini_cfg.Pc)
    Y = np.outer(h, x)
    llr = mmse_polar_llr(Y, h[:, None], mini_cfg.Pc, 1e-9)
    assert np.array_equal(llr[0] < 0, bits.astype(bool))


def test_mmse_zero_channel_user_gets_zero_llr(mini_cfg, mini_params, rng):
    h1 = _cn(rng, mini_cfg.M)
    H = np.stack([h1, np.zeros(mini_cfg.M, dtype=complex)], axis=1)
    Y = np.outer(h1, (1 - 2 * rng.integers(0, 2, 16)) * np.sqrt(0.3))
    llr = mmse_polar_llr(Y, H, 0.3, 0.1)
    assert np.abs(llr[1]).max() == 0.0


def test_mmse_requires_users(mini_cfg):
    with pytest.raises(ValueError):
        mmse_polar_llr(np.zeros((4, 8), dtype=complex),
                       np.zeros((4, 0), dtype=complex), 0.3, 1.0)


def test_mmse_against_exhaustive_posterior(rng):
    # two-user instance checked against the brute-force symbol posterior
    M, nc, Pc, s2 = 2, 8, 0.3, 0.05
    gen = np.random.default_rng(42)
    mmse_vals, exact_vals = [], []
    for _ in range(60):
        H = _cn(gen, (M, 2))
        bits = gen.integers(0, 2, (2, nc))
        X = (1 - 2 * bits) * np.sqrt(Pc)
        Y = H @ X + _cn(gen, (M, nc)) * np.sqrt(s2)
        llr = mmse_polar_llr(Y, H, Pc, s2)
        hyp = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
        S_hyp = np.sqrt(Pc) * (H @ hyp.T)
        ll = -np.sum(np.abs(Y[:, None, :] - S_hyp[:, :, None]) ** 2, axis=0) / s2
        mx = ll.max(axis=0)
        lse = lambda rows: np.log(np.exp(ll[rows] - mx).sum(axis=0)) + mx
        exact = np.stack([lse([0, 1]) - lse([2, 3]), lse([0, 2]) - lse([1, 3])])
        mmse_vals.append(llr.ravel())
        exact_vals.append(exact.ravel())
    mm = np.concatenate(mmse_vals)
    ex = np.concatenate(exact_vals)
    confident = np.abs(ex) > 3.0
    assert np.mean(np.sign(mm[confident]) == np.sign(ex[confident])) > 0.95
    assert np.corrcoef(mm, ex)[0, 1] > 0.85


def test_parity_llr_mirrors_polar_llr(mini_cfg, mini_params, rng):
    h = _cn(rng, mini_cfg.M)
    bits = rng.integers(0, 2, mini_cfg.key_parity_len)
    Y = np.outer(h, (1 - 2 * bits) * np.sqrt(mini_cfg.Pk))
    llr = llr_parity(Y, h[:, None], mini_cfg.Pk, 1e-9)
    assert np.array_equal(llr[0] < 0, bits.astype(bool))


# ---- feedback estimation ------------------------------------------------------


def test_feedback_estimate_matches_noiseless_user(mini_cfg, mini_params, rng):
    # one row of the block H_hat^T V that decode_keys_and_decrypt standardizes
    H_hat = _cn(rng, (mini_cfg.M, 1))
    y_user = H_hat[:, 0] @ mini_params.V
    Y_hat = H_hat.T @ mini_params.V
    Y_bar_hat, _, valid = standardize(Y_hat)
    assert valid.all()
    assert np.allclose(Y_hat[0], y_user, atol=1e-14)
    assert np.allclose(Y_bar_hat[0], standardize(y_user)[0], atol=1e-12)


def test_feedback_estimate_zero_channel_is_degenerate(mini_cfg, mini_params):
    H_hat = np.zeros((mini_cfg.M, 1), dtype=complex)
    Y_hat = H_hat.T @ mini_params.V
    _, _, valid = standardize(Y_hat)
    assert not valid.any()
    assert not standardize(Y_hat[0])[2]


# ---- systematic LLR ----------------------------------------------------------


def test_llr_systematic_zero_feature(mini_cfg, mini_params):
    sigma_uj2 = feature_noise_variances(mini_cfg, mini_params)
    nu = llr_systematic(np.zeros(mini_cfg.S), np.array(2.0), sigma_uj2)
    assert np.array_equal(nu, np.zeros(mini_cfg.S))


def test_llr_systematic_limits_and_convention(mini_cfg, mini_params):
    sigma_uj2 = feature_noise_variances(mini_cfg, mini_params)
    u = np.zeros(mini_cfg.S)
    u[0] = 50.0    # strongly positive feature -> bit 1 -> very negative LLR
    u[1] = -50.0
    nu = llr_systematic(u, np.array(4.0), sigma_uj2)
    assert nu[0] == -40.0 and nu[1] == 40.0
    assert np.isfinite(nu).all()


def test_llr_aux_invariants(mini_cfg, mini_params):
    sigma_uj2 = feature_noise_variances(mini_cfg, mini_params)
    assert (sigma_uj2 > 0).all()
    assert sigma_uj2.shape == (mini_cfg.S // 2,)


def test_llr_systematic_paired_variances(mini_cfg, mini_params):
    # feature j and feature S/2 + j share a noise variance
    sigma_uj2 = feature_noise_variances(mini_cfg, mini_params)
    half = mini_cfg.S // 2
    u = np.ones(mini_cfg.S)
    nu = llr_systematic(u, np.array(1.0), sigma_uj2)
    assert np.allclose(nu[:half], nu[half:])


# ---- iterative decoding ------------------------------------------------------


def test_iterative_decode_single_user(mini_params, rng):
    cfg = make_mini_cfg(Ka=1)
    params = mini_params
    trial = run_trial(cfg, 0, params)
    assert trial.n_detected == 1 and trial.pupe == 0.0


def test_iterative_decode_recovers_ciphertexts(mini_cfg, mini_params, rng):
    h = _cn(rng, (mini_cfg.M, mini_cfg.Ka))
    W = rng.integers(0, 2, (mini_cfg.Ka, mini_cfg.B), dtype=np.uint8)
    X, C, _ = transmit(W, h.T @ mini_params.V, mini_cfg, mini_params)
    Y = uplink(X, h, 1e-12, stream(0, "t"))
    frame = ReceivedFrame.from_uplink(Y, mini_cfg)
    decoded, H_hat, residual = iterative_decode(frame, mini_cfg, mini_params)
    got = {u.c_hat.tobytes() for u in decoded}
    assert got == {c.tobytes() for c in C}
    assert H_hat.shape == (mini_cfg.M, len(decoded))
    # SIC removed the decoded signals: residual is at the noise floor
    original = np.concatenate([frame.y_p, frame.y_d], axis=1)
    reduction = np.sum(np.abs(residual) ** 2) / np.sum(np.abs(original) ** 2)
    assert reduction < 1e-2  # >= 20 dB


def test_iterative_decode_empty_frame(mini_cfg, mini_params):
    frame = ReceivedFrame.from_uplink(
        np.zeros((mini_cfg.M, mini_cfg.frame_len), dtype=complex), mini_cfg)
    decoded, H_hat, residual = iterative_decode(frame, mini_cfg, mini_params)
    assert decoded == []
    assert H_hat.shape == (mini_cfg.M, 0)


def test_decode_keys_noiseless_end_to_end(mini_cfg, mini_params, rng):
    h = _cn(rng, (mini_cfg.M, 1))
    w = rng.integers(0, 2, mini_cfg.B, dtype=np.uint8)
    X, _, S = transmit(w[None], h.T @ mini_params.V, mini_cfg, mini_params)
    Y = uplink(X, h, 1e-12, stream(1, "t"))
    frame = ReceivedFrame.from_uplink(Y, mini_cfg)
    decoded = decode_frame(frame, mini_cfg, mini_params)
    assert len(decoded) == 1
    assert decoded[0].key_converged
    assert np.array_equal(decoded[0].s_hat, S[0])
    assert np.array_equal(decoded[0].w_hat, w)


def test_decode_keys_nonconvergence_is_flagged(mini_cfg, mini_params):
    # confident parity observations of a non-codeword contradict the
    # systematic LLRs, so belief propagation cannot satisfy the checks
    gen = np.random.default_rng(0)
    h = _cn(gen, mini_cfg.M)
    user = DetectedUser(pilot_index=3,
                        c_hat=gen.integers(0, 2, mini_cfg.B, dtype=np.uint8))
    wrong = gen.integers(0, 2, mini_cfg.key_parity_len)
    Y = np.zeros((mini_cfg.M, mini_cfg.frame_len), dtype=complex)
    Y[:, mini_cfg.np + mini_cfg.nc:] = np.outer(h, (1 - 2 * wrong) * np.sqrt(mini_cfg.Pk))
    frame = ReceivedFrame.from_uplink(Y, mini_cfg)
    out = decode_keys_and_decrypt([user], h[:, None], frame,
                                  mini_cfg, mini_params)
    assert out[0].w_hat is not None          # best-effort decryption
    assert out[0].key_converged is False


def test_decode_keys_skips_degenerate_user(mini_cfg, mini_params, rng):
    # a zero channel estimate gives a constant feedback estimate: that user
    # gets no key, and the other user is still decrypted
    h = _cn(rng, (mini_cfg.M, 1))
    w = rng.integers(0, 2, mini_cfg.B, dtype=np.uint8)
    X, C, S = transmit(w[None], h.T @ mini_params.V, mini_cfg, mini_params)
    frame = ReceivedFrame.from_uplink(
        uplink(X, h, 1e-12, stream(2, "t")), mini_cfg)
    users = [DetectedUser(pilot_index=1, c_hat=C[0]),
             DetectedUser(pilot_index=2,
                          c_hat=rng.integers(0, 2, mini_cfg.B, dtype=np.uint8))]
    H_hat = np.concatenate([h, np.zeros((mini_cfg.M, 1), dtype=complex)], axis=1)
    out = decode_keys_and_decrypt(users, H_hat, frame, mini_cfg, mini_params)
    assert out[1].s_hat is None and out[1].w_hat is None
    assert out[1].key_converged is False
    assert out[0].key_converged
    assert np.array_equal(out[0].s_hat, S[0])
    assert np.array_equal(out[0].w_hat, w)


def test_wrong_key_bit_corrupts_matching_positions(mini_cfg, mini_params, rng):
    s = rng.integers(0, 2, mini_cfg.S, dtype=np.uint8)
    w = rng.integers(0, 2, mini_cfg.B, dtype=np.uint8)
    from secure_ura import decrypt, encrypt, expand_key
    c = encrypt(w, expand_key(s, mini_params.T))
    s_bad = s.copy()
    s_bad[2] ^= 1
    w_bad = decrypt(c, expand_key(s_bad, mini_params.T))
    assert np.array_equal(w_bad != w, mini_params.T[2].astype(bool))
