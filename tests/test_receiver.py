import functools
import sys
import tracemalloc
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy.special import log_ndtr
from scipy import stats

from secure_ura import (SystemConfig, codebook_correlation, decode_frame,
                        decode_keys_and_decrypt, expand_key, extract_key,
                        artificial_noise, feature_noise_variances,
                        feedback_observation, generate_public_params,
                        iterative_decode, llr_parity, llr_systematic,
                        mmse_polar_llr, omp_detect, omp_noise_floor, run_trial,
                        standardize, transmit, uplink)
from secure_ura import receiver
from secure_ura.modulation import bpsk_map, clamp_llr
from secure_ura.receiver import OMP_FALSE_ALARM, OMP_FLUSH_EVERY
from secure_ura.rng import complex_normal, random_bits, stream

from helpers import make_mini_cfg


def _cn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _floor(cfg):
    """The noise floor iterative_decode gives omp_detect for cfg."""
    return omp_noise_floor(cfg.M, cfg.pilot_count, cfg.sigma_c2, cfg.np * cfg.Pp)


# ---- OMP -------------------------------------------------------------------


def test_omp_single_user_noiseless(mini_cfg, mini_params, rng):
    h = _cn(rng, mini_cfg.M)
    idx = 11
    Y = np.outer(h, mini_params.P[idx])
    det = omp_detect(Y, mini_params.P, _floor(mini_cfg),
                     codebook_correlation(Y, mini_params.P))
    assert det[0][0] == idx
    assert np.max(np.abs(det[0][1] - h)) < 1e-8


def test_omp_empty_frame(mini_params):
    Y = np.zeros((8, mini_params.P.shape[1]), dtype=complex)
    assert omp_detect(Y, mini_params.P, 0.0, codebook_correlation(Y, mini_params.P)) == []


def test_omp_two_users_high_snr(mini_cfg, mini_params, rng):
    h1, h2 = _cn(rng, mini_cfg.M), _cn(rng, mini_cfg.M)
    i1, i2 = 3, 29
    Y = np.outer(h1, mini_params.P[i1]) + np.outer(h2, mini_params.P[i2])
    Y += 1e-6 * _cn(rng, Y.shape)
    det = dict(omp_detect(Y, mini_params.P, _floor(mini_cfg),
                          codebook_correlation(Y, mini_params.P)))
    assert {i1, i2} <= set(det)
    assert np.max(np.abs(det[i1] - h1)) < 1e-4
    assert np.max(np.abs(det[i2] - h2)) < 1e-4


def test_omp_five_users_noiseless(mini_cfg, mini_params, rng):
    # several sequential residual updates must stay consistent
    indices = [2, 7, 13, 21, 30]
    H = _cn(rng, (mini_cfg.M, 5))
    Y = H @ mini_params.P[indices]
    det = dict(omp_detect(Y, mini_params.P, _floor(mini_cfg),
                          codebook_correlation(Y, mini_params.P)))
    assert set(det) == set(indices)
    for col, idx in enumerate(indices):
        assert np.max(np.abs(det[idx] - H[:, col])) < 1e-8


def test_omp_noise_floor_stops_early(mini_cfg, mini_params, rng):
    h = _cn(rng, mini_cfg.M)
    Y = np.outer(h, mini_params.P[5])
    # the single atom explains everything; the loop must stop right after
    det = omp_detect(Y, mini_params.P, _floor(mini_cfg),
                     codebook_correlation(Y, mini_params.P))
    assert len(det) == 1


@pytest.mark.parametrize("Bp", [5, 12])
@pytest.mark.parametrize("M", [1, 8, 16, 50, 128])
def test_noise_floor_bounds_the_largest_noise_energy(M, Bp):
    # a noise atom's energy is sigma2 ||p||^2 Gamma(M, 1); the floor is at
    # least the Gamma quantile that the largest of 2^Bp of them exceeds with
    # probability OMP_FALSE_ALARM under the union bound
    c_M = omp_noise_floor(M, 2 ** Bp, 1.0, 1.0)
    assert c_M >= stats.gamma.isf(OMP_FALSE_ALARM / 2 ** Bp, M)
    assert omp_noise_floor(M, 2 ** Bp, 0.3, 7.0) == pytest.approx(2.1 * c_M)


def test_noise_floor_false_alarm_rate(mini_cfg, mini_params):
    # pure-noise frames: OMP may pick an atom in at most a fraction
    # OMP_FALSE_ALARM of them
    frames = 2000
    sigma2 = 0.7
    floor = omp_noise_floor(mini_cfg.M, mini_cfg.pilot_count, sigma2,
                            mini_cfg.np * mini_cfg.Pp)
    noise = complex_normal(stream(8, "omp-noise"), (frames, mini_cfg.M, mini_cfg.np),
                           sigma2)
    picked = sum(bool(omp_detect(Y, mini_params.P, floor,
                                 codebook_correlation(Y, mini_params.P)))
                 for Y in noise)
    assert picked <= OMP_FALSE_ALARM * frames


def _omp_reference(Y, P, noise_floor):
    """OMP that recomputes every atom's residual correlation at each step.

    This is the direct form of the algorithm that omp_detect implements with
    incrementally updated energies and deferred residual updates; both must
    pick the same atoms in the same order and return the same estimates.
    """
    gamma = (P @ Y.conj().T).conj().T
    selected = []
    Q = np.zeros((0, P.shape[1]), dtype=np.complex128)
    for _ in range(P.shape[1]):
        metric = np.linalg.norm(gamma, axis=0)
        if selected:
            metric[selected] = -1.0
        j = int(np.argmax(metric))
        if metric[j] ** 2 <= noise_floor:
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
    steps = 0
    # at the noise floor the search stops near ka steps; with no floor at
    # noise 5, it runs until its np = 200 picks
    for ka, noise in [(ka, noise) for ka in [1, 10, 25, 50, 100] * 2
                      for noise in (1.0, 5.0)]:
        Y = _omp_frame(rng, P, 50, ka, noise, zero_row)
        floors = [omp_noise_floor(50, 4096, noise ** 2, 200 * 0.3)]
        if noise == 5.0:
            floors.append(0.0)
        for floor in floors:
            want = _omp_reference(Y, P, floor)
            got = omp_detect(Y, P, floor, codebook_correlation(Y, P))
            _assert_same_detections(got, want)
            assert zero_row not in [i for i, _ in got]
            steps += len(got)
    assert steps > 1000


def test_omp_matches_reference_with_early_stop_and_at_most_np_picks():
    rng = np.random.default_rng(20241)
    zero_row = 5
    P = _omp_codebook(rng, 4096, 200, zero_row)
    # noiseless users: a floor far below them ends the search long before
    # np picks
    Y = _omp_frame(rng, P, 50, 30, 0.0, zero_row)
    floor = omp_noise_floor(50, 4096, 1e-9, 200 * 0.3)
    want = _omp_reference(Y, P, floor)
    assert 0 < len(want) < 200
    got = omp_detect(Y, P, floor, codebook_correlation(Y, P))
    _assert_same_detections(got, want)
    # more users than there are pilot symbols: at most np can be picked,
    # whatever the floor
    P = _omp_codebook(rng, 64, 32, zero_row)
    floor = omp_noise_floor(8, 64, 0.1 ** 2, 32 * 0.3)
    for noise_floor in (0.0, floor, 100.0 * floor):
        Y = _omp_frame(rng, P, 8, 40, 0.1, zero_row)
        want = _omp_reference(Y, P, noise_floor)
        got = omp_detect(Y, P, noise_floor, codebook_correlation(Y, P))
        assert len(want) <= P.shape[1] and len(got) <= P.shape[1]
        _assert_same_detections(got, want)


def test_omp_writes_into_gamma_only_when_it_flushes():
    # iterative_decode hands the frame's correlation itself to its first
    # OMP call and reuses it afterwards, so OMP must leave it bit-identical
    # unless it picks OMP_FLUSH_EVERY atoms or more
    rng = np.random.default_rng(20242)
    zero_row = 7
    P = _omp_codebook(rng, 512, 64, zero_row)
    floor = omp_noise_floor(8, 512, 1e-9, 64 * 0.3)
    for ka in (1, OMP_FLUSH_EVERY - 1, OMP_FLUSH_EVERY):
        Y = _omp_frame(rng, P, 8, ka, 0.0, zero_row)
        gamma = codebook_correlation(Y, P)
        before = gamma.copy()
        assert len(omp_detect(Y, P, floor, gamma)) == ka
        assert np.array_equal(gamma, before) == (ka < OMP_FLUSH_EVERY)


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


def test_llr_systematic_matches_log_ndtr_reference():
    # with unit variances the statistic is u itself; the reference is
    # scipy's log-domain normal CDF, the clamp as in the receiver
    mags = np.logspace(-3, 3, 25)
    a = np.concatenate([[0.0, np.inf, -np.inf, np.nan], mags, -mags])
    block = np.random.default_rng(3).standard_normal((120, 40)) * np.geomspace(0.5, 100, 40)
    for u, var in ((a, np.array(1.0)), (block, np.ones(120))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nu = llr_systematic(u, var, np.ones(u.shape[-1] // 2))
        ref = clamp_llr(log_ndtr(-u) - log_ndtr(u))
        assert np.array_equal(np.isnan(nu), np.isnan(u))
        np.testing.assert_allclose(nu, ref, rtol=0, atol=1e-13)


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
    C_hat, H_hat, residual = iterative_decode(Y, mini_cfg, mini_params)
    got = {c.tobytes() for c in C_hat}
    assert got == {c.tobytes() for c in C}
    assert H_hat.shape == (mini_cfg.M, len(C_hat))
    # SIC removed the decoded signals: residual is at the noise floor
    original = Y[:, :mini_cfg.np + mini_cfg.nc]
    reduction = np.sum(np.abs(residual) ** 2) / np.sum(np.abs(original) ** 2)
    assert reduction < 1e-2  # >= 20 dB


def test_iterative_decode_keeps_users_that_share_a_payload(mini_cfg, mini_params, rng):
    # a decoded user is told apart by its whole ciphertext: two users whose
    # polar payloads agree but whose pilots differ are both kept
    h = _cn(rng, (mini_cfg.M, 2))
    Y = h.T @ mini_params.V
    W = rng.integers(0, 2, (2, mini_cfg.B), dtype=np.uint8)
    _, C, _ = transmit(W, Y, mini_cfg, mini_params)
    target = C.copy()
    target[1, mini_cfg.Bp:] = C[0, mini_cfg.Bp:]
    target[1, 0] = 1 - target[0, 0]
    # the keystreams C ^ W depend on the feedback only
    X, C_shared, _ = transmit(target ^ C ^ W, Y, mini_cfg, mini_params)
    assert np.array_equal(C_shared, target)
    C_hat, _, _ = iterative_decode(uplink(X, h, 1e-12, stream(3, "t")),
                                   mini_cfg, mini_params)
    assert sorted(c.tobytes() for c in C_hat) == sorted(c.tobytes() for c in target)


def test_iterative_decode_empty_frame(mini_cfg, mini_params):
    y_bs = np.zeros((mini_cfg.M, mini_cfg.frame_len), dtype=complex)
    C_hat, H_hat, _ = iterative_decode(y_bs, mini_cfg, mini_params)
    assert C_hat.shape == (0, mini_cfg.B)
    assert H_hat.shape == (mini_cfg.M, 0)
    # the key stage runs on zero users and returns zero-row arrays
    C_hat, S_hat, W_hat, converged, valid = decode_frame(y_bs, mini_cfg, mini_params)
    assert C_hat.shape == (0, mini_cfg.B) and C_hat.dtype == np.uint8
    assert S_hat.shape == (0, mini_cfg.S) and S_hat.dtype == np.uint8
    assert W_hat.shape == (0, mini_cfg.B) and W_hat.dtype == np.uint8
    assert converged.shape == valid.shape == (0,)
    assert converged.dtype == valid.dtype == bool


def test_pure_noise_frame_picks_no_atom(full_cfg, full_params, monkeypatch):
    # with no user on the air, the first OMP call stops at the noise floor
    # before any pick, so the receiver polar-decodes nothing
    atoms = []                                   # atoms picked per OMP call
    detect = receiver.omp_detect

    def counting(*args):
        found = detect(*args)
        atoms.append(len(found))
        return found

    monkeypatch.setattr(receiver, "omp_detect", counting)
    y_bs = complex_normal(stream(full_cfg.seed, "noise-frame"),
                          (full_cfg.M, full_cfg.frame_len), full_cfg.sigma_c2)
    C_hat, H_hat, _ = iterative_decode(y_bs, full_cfg, full_params)
    assert atoms == [0]
    assert C_hat.shape == (0, full_cfg.B) and H_hat.shape == (full_cfg.M, 0)


def test_no_false_alarm_at_full_scale_ka100():
    # the crowded full-scale point over three passes: every decoded row is a
    # transmitted ciphertext.  Before the noise floor, when OMP stopped only
    # at an atom cap of twice the user count, these 5 trials CRC-passed 6
    # false alarms
    cfg = SystemConfig(Ka=100, max_outer_iters=3, seed=1501)
    params = generate_public_params(cfg)
    for trial in range(5):
        y_bs, C = _uplink_block(cfg, params, trial)
        C_hat, _, _ = iterative_decode(y_bs, cfg, params)
        sent = {c.tobytes() for c in C}
        assert [c.tobytes() in sent for c in C_hat] == [True] * len(C_hat)


def _count_products(monkeypatch):
    """Record, per iterative_decode pass, the row counts of the codebook
    products formed for it."""
    passes = []
    rows = []
    correlate, detect = receiver.codebook_correlation, receiver.omp_detect

    def counting_correlation(Y, P):
        rows.append(Y.shape[0])
        return correlate(Y, P)

    def counting_detect(*args):
        passes.append(rows[:])
        rows.clear()
        return detect(*args)

    monkeypatch.setattr(receiver, "codebook_correlation", counting_correlation)
    monkeypatch.setattr(receiver, "omp_detect", counting_detect)
    return passes


@pytest.mark.parametrize("name,ka,passes,trials,later_rows", [
    # one user: a later pass forms the user's 1-row product with the
    # codebook instead of the M-row product of its residual
    ("full", 1, 8, 4, 1),
    # ten users at M=8: the update would cost more than the direct product
    # (k (np + M) >= M np), so a later pass correlates its residual
    ("m8", 10, 8, 2, 8),
    # the first pass picks at least OMP_FLUSH_EVERY atoms, which spends the
    # first correlation: every pass correlates its residual
    ("full", 100, 3, 1, 50)])
def test_codebook_products_per_pass(name, ka, passes, trials, later_rows, monkeypatch):
    cfg, params = _reference_setup(name)
    cfg = replace(cfg, Ka=ka, max_outer_iters=passes)
    products = _count_products(monkeypatch)
    for trial in range(trials):
        y_bs, _ = _uplink_block(cfg, params, trial)
        products.clear()
        iterative_decode(y_bs, cfg, params)
        assert len(products) >= 2
        assert products == [[cfg.M]] + [[later_rows]] * (len(products) - 1)


def test_iterative_decode_holds_at_most_two_correlations():
    # the first correlation and one pass's own: tracemalloc's peak over a
    # call stays within 3 codebook-sized (M, 2^Bp) complex arrays
    cfg = SystemConfig(seed=1501)
    params = generate_public_params(cfg)
    unit = cfg.M * cfg.pilot_count * np.dtype(np.complex128).itemsize
    for ka, passes in [(1, cfg.max_outer_iters), (100, 3)]:
        c = replace(cfg, Ka=ka, max_outer_iters=passes)
        y_bs, _ = _uplink_block(c, params, 0)
        tracemalloc.start()
        try:
            iterative_decode(y_bs, c, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * unit


def test_decode_frame_does_not_read_the_user_count():
    # the base station does not know Ka: a receiver told Ka=1 decodes a
    # 25-user frame exactly as one told the truth
    cfg = SystemConfig(M=16, E=16, Ka=25, seed=5)
    params = generate_public_params(cfg)
    for trial in range(3):
        y_bs, _ = _uplink_block(cfg, params, trial)
        want = decode_frame(y_bs, cfg, params)
        got = decode_frame(y_bs, replace(cfg, Ka=1), params)
        assert len(want[0]) == cfg.Ka
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b)


def test_decode_frame_rejects_bad_width(mini_cfg, mini_params):
    with pytest.raises(ValueError, match="expected"):
        decode_frame(np.zeros((mini_cfg.M, 10), dtype=complex), mini_cfg, mini_params)


def test_decode_keys_noiseless_end_to_end(mini_cfg, mini_params, rng):
    h = _cn(rng, (mini_cfg.M, 1))
    w = rng.integers(0, 2, mini_cfg.B, dtype=np.uint8)
    X, _, S = transmit(w[None], h.T @ mini_params.V, mini_cfg, mini_params)
    Y = uplink(X, h, 1e-12, stream(1, "t"))
    C_hat, S_hat, W_hat, converged, valid = decode_frame(Y, mini_cfg, mini_params)
    assert len(C_hat) == 1
    assert valid[0] and converged[0]
    assert np.array_equal(S_hat[0], S[0])
    assert np.array_equal(W_hat[0], w)


def test_decode_keys_nonconvergence_is_flagged(mini_cfg, mini_params):
    # confident parity observations of a non-codeword contradict the
    # systematic LLRs, so belief propagation cannot satisfy the checks
    gen = np.random.default_rng(0)
    h = _cn(gen, mini_cfg.M)
    C_hat = gen.integers(0, 2, (1, mini_cfg.B), dtype=np.uint8)
    wrong = gen.integers(0, 2, mini_cfg.key_parity_len)
    y_k = np.outer(h, (1 - 2 * wrong) * np.sqrt(mini_cfg.Pk))
    S_hat, W_hat, converged, valid = decode_keys_and_decrypt(
        C_hat, h[:, None], y_k, mini_cfg, mini_params)
    assert valid[0]                          # best-effort decryption
    assert W_hat.shape == (1, mini_cfg.B)
    assert np.array_equal(W_hat[0], C_hat[0] ^ expand_key(S_hat[0], mini_params.T))
    assert not converged[0]


def _degenerate_pair(cfg, params, rng):
    """Two decoded rows: a real user, and a zero channel estimate.

    A zero estimate gives a constant feedback estimate, so the second row
    is degenerate.  Returns (C_hat, H_hat, y_k, w, S).
    """
    h = _cn(rng, (cfg.M, 1))
    w = rng.integers(0, 2, cfg.B, dtype=np.uint8)
    X, C, S = transmit(w[None], h.T @ params.V, cfg, params)
    y_bs = uplink(X, h, 1e-12, stream(2, "t"))
    C_hat = np.stack([C[0], rng.integers(0, 2, cfg.B, dtype=np.uint8)])
    H_hat = np.concatenate([h, np.zeros((cfg.M, 1), dtype=complex)], axis=1)
    return C_hat, H_hat, y_bs[:, cfg.np + cfg.nc:], w, S


def test_decode_keys_skips_degenerate_user(mini_cfg, mini_params, rng):
    # the degenerate user gets no key, and the other user is still decrypted
    C_hat, H_hat, y_k, w, S = _degenerate_pair(mini_cfg, mini_params, rng)
    S_hat, W_hat, converged, valid = decode_keys_and_decrypt(
        C_hat, H_hat, y_k, mini_cfg, mini_params)
    assert valid.tolist() == [True, False]
    assert converged.tolist() == [True, False]
    assert np.array_equal(S_hat[0], S[0])
    assert np.array_equal(W_hat[0], w)


# ---- the per-user receiver the array receiver replaced ---------------------------
# verbatim, except that "already decoded" is read off the users still held


@dataclass
class _DetectedUser:
    pilot_index: int
    c_hat: np.ndarray | None = None       # recovered ciphertext, length B
    s_hat: np.ndarray | None = None       # recovered key, length S
    w_hat: np.ndarray | None = None       # decrypted message, length B
    key_converged: bool = False


@dataclass(frozen=True)
class _ReceivedFrame:
    """The base station's frame, partitioned into the three uplink segments."""
    y_p: np.ndarray  # (M, np)
    y_d: np.ndarray  # (M, nc)
    y_k: np.ndarray  # (M, ns - S)

    @classmethod
    def from_uplink(cls, y_bs: np.ndarray, cfg: SystemConfig) -> "_ReceivedFrame":
        if y_bs.shape[1] != cfg.frame_len:
            raise ValueError(f"frame has {y_bs.shape[1]} columns, expected {cfg.frame_len}")
        a, b = cfg.np, cfg.np + cfg.nc
        return cls(y_p=y_bs[:, :a], y_d=y_bs[:, a:b], y_k=y_bs[:, b:])


def _index_to_bits_reference(index: int, width: int) -> np.ndarray:
    return np.array([(index >> (width - 1 - i)) & 1 for i in range(width)],
                    dtype=np.uint8)


def _iterative_decode_reference(frame, cfg, params):
    Y_pp = np.concatenate([frame.y_p, frame.y_d], axis=1)
    residual = Y_pp.copy()

    users: list[_DetectedUser] = []
    sig_rows: list[np.ndarray] = []
    H_hat = np.zeros((cfg.M, 0), dtype=np.complex128)

    for _ in range(cfg.max_outer_iters):
        Y_p = residual[:, :cfg.np]
        detections = omp_detect(Y_p, params.P, _floor(cfg),
                                codebook_correlation(Y_p, params.P))
        new_users = []
        new_rows = []                            # rows of payloads behind new_users
        # only the users still held count as decoded: one the LS fallback
        # dropped may come back in a later pass
        seen = {(u.pilot_index, u.c_hat[cfg.Bp:].tobytes()) for u in users}
        if detections:
            Hd = np.stack([h for _, h in detections], axis=1)
            llrs = mmse_polar_llr(residual[:, cfg.np:], Hd, cfg.Pc, cfg.sigma_c2)
            payloads, ok = params.polar.decode(llrs, cfg.list_size)
            for i, (pilot_idx, _) in enumerate(detections):
                if not ok[i]:
                    continue
                tag = (pilot_idx, payloads[i].tobytes())
                if tag in seen:
                    continue
                seen.add(tag)
                c_hat = np.concatenate([_index_to_bits_reference(pilot_idx, cfg.Bp),
                                        payloads[i]])
                new_users.append(_DetectedUser(pilot_index=pilot_idx, c_hat=c_hat))
                new_rows.append(i)
        if not new_users:
            break
        users.extend(new_users)
        sig_rows.extend(np.concatenate([
            params.P[[u.pilot_index for u in new_users]],
            bpsk_map(params.polar.encode(payloads[new_rows]), cfg.Pc)], axis=1))

        # least-squares re-estimation over the whole decoded set, then SIC
        while users:
            X = np.stack(sig_rows, axis=0)
            G = X @ X.conj().T
            try:
                H_hat = np.linalg.solve(G.T, (Y_pp @ X.conj().T).T).T
                break
            except np.linalg.LinAlgError:
                users.pop()
                sig_rows.pop()
        if not users:
            break
        X = np.stack(sig_rows, axis=0)
        residual = Y_pp - H_hat @ X

    if not users:
        H_hat = np.zeros((cfg.M, 0), dtype=np.complex128)
    return users, H_hat, residual


def _decode_keys_and_decrypt_reference(users, H_hat, frame, cfg, params):
    if not users:
        return users

    Y_bar, var, valid = standardize(H_hat.T @ params.V)
    U_hat, _ = extract_key(Y_bar, params.C1)
    Y_k_clean = frame.y_k - H_hat[:, valid] @ artificial_noise(Y_bar[valid], params.C2, cfg.Pa)
    f_parity = llr_parity(Y_k_clean, H_hat, cfg.Pk, cfg.sigma_c2)
    f_sys = llr_systematic(U_hat, var, feature_noise_variances(cfg, params))
    f_key = np.concatenate([f_sys, f_parity], axis=1)

    s_hats, converged = params.ldpc.decode(f_key, cfg.bp_iters)
    keystreams = expand_key(s_hats, params.T)
    for i, user in enumerate(users):
        if not valid[i]:
            continue
        user.s_hat = s_hats[i]
        user.key_converged = bool(converged[i])
        user.w_hat = user.c_hat ^ keystreams[i]
    return users


# ---- the array receiver against the reference -----------------------------------


_REFERENCE_CONFIGS = {
    "full": SystemConfig,
    "m16": lambda: SystemConfig(M=16, E=16),
    "m8": lambda: SystemConfig(M=8, E=8),
}


@functools.lru_cache(maxsize=None)
def _reference_setup(name):
    cfg = _REFERENCE_CONFIGS[name]()
    return cfg, generate_public_params(cfg)


def _uplink_block(cfg, params, trial):
    """(uplink block, true ciphertexts) of run_trial's trial, drawn from the
    same streams."""
    h = complex_normal(stream(cfg.seed, "bs-channel", trial), (cfg.Ka, cfg.M))
    W = random_bits(stream(cfg.seed, "messages", trial), (cfg.Ka, cfg.B))
    Y = feedback_observation(h, params.V, cfg.sigma_u2,
                             stream(cfg.seed, "feedback-noise", trial))
    X, C, _ = transmit(W, Y, cfg, params)
    return uplink(X, h.T, cfg.sigma_c2, stream(cfg.seed, "bs-noise", trial)), C


def _assert_rows_match_reference(rows, users):
    """decode_frame's aligned rows equal the reference users, in order."""
    C_hat, S_hat, W_hat, converged, valid = rows
    assert len(C_hat) == len(S_hat) == len(W_hat) == len(users)
    assert converged.shape == valid.shape == (len(users),)
    for i, u in enumerate(users):
        assert np.array_equal(C_hat[i], u.c_hat)
        assert valid[i] == (u.s_hat is not None)
        assert converged[i] == u.key_converged
        if valid[i]:
            assert np.array_equal(S_hat[i], u.s_hat)
            assert np.array_equal(W_hat[i], u.w_hat)
        else:
            assert u.w_hat is None


def _run_both(y_bs, cfg, params):
    """(decode_frame rows, iterative_decode output, reference users, reference
    iterative_decode output) on one uplink block."""
    new = iterative_decode(y_bs, cfg, params)
    frame = _ReceivedFrame.from_uplink(y_bs, cfg)
    ref = _iterative_decode_reference(frame, cfg, params)
    users = _decode_keys_and_decrypt_reference(list(ref[0]), ref[1], frame, cfg, params)
    return decode_frame(y_bs, cfg, params), new, users, ref


@pytest.mark.parametrize("name,ka,passes,trials", [
    ("full", 1, 8, 4), ("full", 10, 8, 3), ("full", 25, 8, 2), ("full", 100, 3, 1),
    ("m16", 1, 8, 6), ("m16", 10, 8, 4), ("m16", 25, 8, 3), ("m8", 3, 8, 5)])
def test_decode_frame_matches_per_user_reference(name, ka, passes, trials):
    base, params = _reference_setup(name)
    cfg = SystemConfig(**{**vars(base), "Ka": ka, "max_outer_iters": passes})
    decoded = 0
    for trial in range(trials):
        y_bs, _ = _uplink_block(cfg, params, trial)
        rows, (C_hat, H_hat, residual), users, (_, H_ref, res_ref) = \
            _run_both(y_bs, cfg, params)
        _assert_rows_match_reference(rows, users)
        assert np.array_equal(C_hat, rows[0])
        assert np.array_equal(H_hat, H_ref) and np.array_equal(residual, res_ref)
        decoded += len(users)
    assert decoded > 0


@pytest.mark.parametrize("refuse", ["odd-sizes", "after-first"])
def test_ls_fallback_matches_per_user_reference(refuse, monkeypatch):
    # the least-squares fallback (drop the newest user on a singular Gram
    # matrix) is forced by a solve that refuses some of the receivers' LS
    # systems: those of odd size, or every one after a receiver's first, which
    # empties a set that had an estimate.  OMP's and the MMSE stage's systems
    # are left alone
    cfg, params = _reference_setup("m16")
    cfg = SystemConfig(**{**vars(cfg), "Ka": 25})
    solve = np.linalg.solve
    solved_once = []                  # receiver calls whose first LS was solved
    refusals = []

    def refusing_solve(a, b):
        frame = sys._getframe(1)
        if frame.f_code.co_name in ("iterative_decode", "_iterative_decode_reference"):
            if refuse == "odd-sizes":
                bad = a.shape[0] % 2 == 1
            else:
                bad = any(f is frame for f in solved_once)
                solved_once.append(frame)
            if bad:
                refusals.append(a.shape[0])
                raise np.linalg.LinAlgError("refused")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", refusing_solve)
    # trial 7 decodes 24 users in its first pass and the 25th in its second
    y_bs, _ = _uplink_block(cfg, params, 7)
    rows, (C_hat, H_hat, residual), users, (_, H_ref, res_ref) = \
        _run_both(y_bs, cfg, params)
    assert refusals
    _assert_rows_match_reference(rows, users)
    assert np.array_equal(H_hat, H_ref) and np.array_equal(residual, res_ref)
    if refuse == "after-first":
        # every user is dropped: no rows, and no stale channel estimate
        assert len(C_hat) == 0 and H_hat.shape == (cfg.M, 0)
        assert rows[1].shape == (0, cfg.S)
    else:
        assert len(C_hat) > 0


def test_user_dropped_by_ls_fallback_is_decoded_again(monkeypatch):
    # one refused LS solve drops the newest of the 25 users decoded in the
    # first pass; OMP and the polar decoder find it again in a later pass,
    # and since only C_hat's rows count as decoded, it is added back
    cfg, params = _reference_setup("m16")
    cfg = SystemConfig(**{**vars(cfg), "Ka": 25})
    y_bs, C = _uplink_block(cfg, params, 0)
    solve = np.linalg.solve
    refusals = []

    def refuse_first_sic_solve(a, b):
        # OMP's final fit has the same argument shapes; only the caller
        # tells the SIC solve apart
        if sys._getframe(1).f_code.co_name == "iterative_decode" and not refusals:
            refusals.append(a.shape[0])
            raise np.linalg.LinAlgError("refused")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", refuse_first_sic_solve)
    C_hat, _, _ = iterative_decode(y_bs, cfg, params)
    assert refusals == [cfg.Ka]
    assert {c.tobytes() for c in C} <= {c.tobytes() for c in C_hat}


def test_degenerate_pair_matches_per_user_reference(mini_cfg, mini_params, rng):
    C_hat, H_hat, y_k, _, _ = _degenerate_pair(mini_cfg, mini_params, rng)
    got = decode_keys_and_decrypt(C_hat, H_hat, y_k, mini_cfg, mini_params)
    frame = _ReceivedFrame(y_p=None, y_d=None, y_k=y_k)
    users = [_DetectedUser(pilot_index=-1, c_hat=c) for c in C_hat]
    users = _decode_keys_and_decrypt_reference(users, H_hat, frame, mini_cfg, mini_params)
    assert users[1].s_hat is None
    _assert_rows_match_reference((C_hat, *got), users)


def test_wrong_key_bit_corrupts_matching_positions(mini_cfg, mini_params, rng):
    s = rng.integers(0, 2, mini_cfg.S, dtype=np.uint8)
    w = rng.integers(0, 2, mini_cfg.B, dtype=np.uint8)
    from secure_ura import decrypt, encrypt, expand_key
    c = encrypt(w, expand_key(s, mini_params.T))
    s_bad = s.copy()
    s_bad[2] ^= 1
    w_bad = decrypt(c, expand_key(s_bad, mini_params.T))
    assert np.array_equal(w_bad != w, mini_params.T[2].astype(bool))


def test_degenerate_row_is_never_converged(mini_cfg, mini_params, rng, monkeypatch):
    # a degenerate row's systematic LLRs are exact zeros, so BP does not
    # converge on it in practice; a decoder that reports every word
    # converged shows that the flag also follows valid, as the reference's did
    code = type(mini_params.ldpc)
    decode = code.decode
    monkeypatch.setattr(code, "decode", lambda self, llr, iters:
                        (decode(self, llr, iters)[0], np.ones(len(llr), dtype=bool)))
    C_hat, H_hat, y_k, _, _ = _degenerate_pair(mini_cfg, mini_params, rng)
    _, _, converged, valid = decode_keys_and_decrypt(C_hat, H_hat, y_k, mini_cfg, mini_params)
    assert valid.tolist() == [True, False]
    assert converged.tolist() == [True, False]
