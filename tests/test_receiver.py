import functools
import sys
import tracemalloc
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy.special import log_ndtr
from scipy import stats

from secure_ura import (SystemConfig, atom_energies, decode_frame,
                        decode_keys_and_decrypt, expand_key, extract_key,
                        artificial_noise, feature_noise_variances,
                        generate_public_params,
                        iterative_decode, llr_parity, llr_systematic,
                        mmse_polar_llr, omp_detect, omp_noise_floor,
                        pilot_polar_rows, polar_decode, run_trial,
                        split_power_budget, standardize, transmit, uplink)
from secure_ura import harness, pilots, receiver
from secure_ura.harness import frames_per_batch
from secure_ura.modulation import bpsk_map, clamp_llr
from secure_ura.pilots import (OMP_FALSE_ALARM, PILOT_GRAM_BLOCK, PartialDft,
                               codebook_products, fft_len, work_bytes)
from secure_ura.rng import complex_normal, stream

from helpers import (decode_keys_one, decode_one, frame_len, make_mini_cfg, own_split,
                     transmit_frame, uplink_frame)


def _cn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _floor(cfg):
    """The noise floor iterative_decode gives omp_detect for cfg; a frame
    raises it (pilots.omp_frame_floor) only at pilot powers far above these
    tests'."""
    return omp_noise_floor(cfg.M, 1 << cfg.Bp, cfg.sigma_c2, cfg.np * cfg.Pp)


# ---- OMP -------------------------------------------------------------------


def test_omp_single_user_noiseless(mini_cfg, mini_params, rng):
    h = _cn(rng, mini_cfg.M)
    idx = 11
    Y = np.outer(h, mini_params.P[idx])
    det = omp_detect(Y, mini_params.P, _floor(mini_cfg))
    assert det[0][0] == idx
    assert np.max(np.abs(det[0][1] - h)) < 1e-8


def test_omp_empty_frame(mini_params):
    Y = np.zeros((8, len(mini_params.P.freqs)), dtype=complex)
    assert omp_detect(Y, mini_params.P, 0.0) == []


def test_omp_two_users_high_snr(mini_cfg, mini_params, rng):
    h1, h2 = _cn(rng, mini_cfg.M), _cn(rng, mini_cfg.M)
    i1, i2 = 3, 29
    Y = np.outer(h1, mini_params.P[i1]) + np.outer(h2, mini_params.P[i2])
    Y += 1e-6 * _cn(rng, Y.shape)
    det = dict(omp_detect(Y, mini_params.P, _floor(mini_cfg)))
    assert {i1, i2} <= set(det)
    assert np.max(np.abs(det[i1] - h1)) < 1e-4
    assert np.max(np.abs(det[i2] - h2)) < 1e-4


def test_omp_five_users_noiseless(mini_cfg, mini_params, rng):
    # several sequential residual updates must stay consistent
    indices = [2, 7, 13, 21, 30]
    H = _cn(rng, (mini_cfg.M, 5))
    Y = H @ mini_params.P[indices]
    det = dict(omp_detect(Y, mini_params.P, _floor(mini_cfg)))
    assert set(det) == set(indices)
    for col, idx in enumerate(indices):
        assert np.max(np.abs(det[idx] - H[:, col])) < 1e-8


def test_omp_noise_floor_stops_early(mini_cfg, mini_params, rng):
    h = _cn(rng, mini_cfg.M)
    Y = np.outer(h, mini_params.P[5])
    # the single atom explains everything; the loop must stop right after
    det = omp_detect(Y, mini_params.P, _floor(mini_cfg))
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
    floor = omp_noise_floor(mini_cfg.M, len(mini_params.P), sigma2,
                            mini_cfg.np * mini_cfg.Pp)
    noise = complex_normal(stream(8, "omp-noise"), (frames, mini_cfg.M, mini_cfg.np),
                           sigma2)
    picked = sum(bool(omp_detect(Y, mini_params.P, floor))
                 for Y in noise)
    assert picked <= OMP_FALSE_ALARM * frames


def _omp_reference(Y, P, noise_floor):
    """OMP that recomputes every atom's residual correlation at each step.

    This is the direct form of the algorithm that omp_detect implements with
    incrementally updated energies and no correlation; both must pick the
    same atoms in the same order and return the same estimates.
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


def _omp_frame(rng, P, M, ka, noise):
    users = rng.choice(len(P), ka, replace=False)
    Y = _cn(rng, (M, ka)) @ P[users] + noise * _cn(rng, (M, len(P.freqs)))
    # the receiver passes a column slice of its residual, so do the same
    return np.concatenate([Y, _cn(rng, (M, 3))], axis=1)[:, :len(P.freqs)]


def _assert_same_detections(got, want):
    assert [i for i, _ in got] == [i for i, _ in want]
    for (_, h_got), (_, h_want) in zip(got, want):
        assert np.array_equal(h_got, h_want)


def test_omp_matches_recomputing_reference_at_full_scale():
    # M=50, 4096 atoms, 200 pilot symbols: up to 200 steps.  OMP runs on the
    # partial-DFT codebook, its products by FFT; the reference recomputes
    # every correlation from the codebook's rows formed whole, in complex128
    rng = np.random.default_rng(20240)
    P = PartialDft.draw(rng, 12, 200, 0.3)
    dense = P[:]
    steps = 0
    # at the noise floor the search stops near ka steps; with no floor at
    # noise 5, it runs until its np = 200 picks
    for ka, noise in [(ka, noise) for ka in [1, 10, 25, 50, 100] * 2
                      for noise in (1.0, 5.0)]:
        Y = _omp_frame(rng, P, 50, ka, noise)
        floors = [omp_noise_floor(50, 4096, noise ** 2, 200 * 0.3)]
        if noise == 5.0:
            floors.append(0.0)
        for floor in floors:
            want = _omp_reference(Y, dense, floor)
            got = omp_detect(Y, P, floor)
            _assert_same_detections(got, want)
            assert len({i for i, _ in got}) == len(got)    # no atom is picked twice
            steps += len(got)
    assert steps > 1000


def test_omp_matches_reference_with_early_stop_and_at_most_np_picks():
    rng = np.random.default_rng(20241)
    P = PartialDft.draw(rng, 12, 200, 0.3)
    # noiseless users: a floor far below them ends the search long before
    # np picks
    Y = _omp_frame(rng, P, 50, 30, 0.0)
    floor = omp_noise_floor(50, 4096, 1e-9, 200 * 0.3)
    want = _omp_reference(Y, P[:], floor)
    assert 0 < len(want) < 200
    got = omp_detect(Y, P, floor)
    _assert_same_detections(got, want)
    # more users than there are pilot symbols: at most np can be picked,
    # whatever the floor
    P = PartialDft.draw(rng, 6, 32, 0.3)
    floor = omp_noise_floor(8, 64, 0.1 ** 2, 32 * 0.3)
    for noise_floor in (0.0, floor, 100.0 * floor):
        Y = _omp_frame(rng, P, 8, 40, 0.1)
        want = _omp_reference(Y, P[:], noise_floor)
        got = omp_detect(Y, P, noise_floor)
        assert len(want) <= len(P.freqs) and len(got) <= len(P.freqs)
        _assert_same_detections(got, want)


# the oracle configurations: full scale (a partial DFT, np < 2^Bp = N), the
# mini config (np = 2^Bp = N = 32: the whole orthogonal DFT), criterion 6's
# shape (np = 64 > 2^Bp = 32, so N = 64 and only half the DFT's rows) and
# np = 36 > 2^Bp = 8 (N = 64)
_ORACLE_CONFIGS = {
    "full": SystemConfig,
    "mini": make_mini_cfg,
    "np64-bp5": lambda: make_mini_cfg(np=64),
    "np36-bp3": lambda: make_mini_cfg(np=36, Bp=3),
}


@functools.lru_cache(maxsize=None)
def _oracle_setup(name):
    cfg = _ORACLE_CONFIGS[name]()
    return cfg, generate_public_params(cfg)


def _assert_close_to_largest(got, want):
    """got equals want to 1e-10 of want's largest entry in magnitude."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("name", _ORACLE_CONFIGS)
def test_fft_products_equal_dense_products(name):
    # the atom energies (the Gram and one FFT) and codebook_products (one
    # FFT per row) against dense complex128 products with the rows formed
    # whole
    cfg, params = _oracle_setup(name)
    P, dense = params.P, params.P[:]
    assert (len(P), len(P.freqs)) == (1 << cfg.Bp, cfg.np)
    assert len(P.twiddles) == fft_len(cfg.Bp, cfg.np)
    rng = np.random.default_rng(20245)
    for ka in (1, 5):
        Y = _omp_frame(rng, P, cfg.M, ka, 0.5)
        corr = Y @ dense.conj().T
        _assert_close_to_largest(atom_energies(Y, P), np.sum(np.abs(corr) ** 2, axis=0))
        _assert_close_to_largest(codebook_products(Y, P), corr)
        v = _cn(rng, (2, cfg.np))
        _assert_close_to_largest(codebook_products(v, P), v @ dense.conj().T)


def _omp_step_energies(Y, P, floor, monkeypatch):
    """(detections, energies): omp_detect's picks and the atom energies it
    searches at each step, copied as np.argmax receives them."""
    seen = []
    argmax = np.argmax

    def recording(a, *args, **kwargs):
        if sys._getframe(1).f_code.co_name == "omp_detect":
            seen.append(a.copy())
        return argmax(a, *args, **kwargs)

    monkeypatch.setattr(np, "argmax", recording)
    try:
        return omp_detect(Y, P, floor), seen
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("name,ka", [("full", 25), ("mini", 6), ("np64-bp5", 6),
                                     ("np36-bp3", 4)])
def test_omp_energies_match_the_residual_after_every_step(name, ka, monkeypatch):
    # OMP holds no correlation: it updates the atom energies step by step.
    # After k picks they equal those of the residual Y - Y A^+ A, A the
    # picked rows, formed and correlated directly; the picked atoms are -inf
    cfg, params = _oracle_setup(name)
    P, dense = params.P, params.P[:]
    rng = np.random.default_rng(20246)
    Y = _omp_frame(rng, P, cfg.M, ka, 0.1)
    det, energies = _omp_step_energies(Y, P, omp_noise_floor(cfg.M, len(P), 0.01,
                                                             cfg.np * cfg.Pp), monkeypatch)
    picks = [i for i, _ in det]
    assert len(picks) >= ka and len(energies) == len(picks) + 1
    for k, e in enumerate(energies):
        A = dense[picks[:k]]
        R = Y - np.linalg.lstsq(A.T, Y.T, rcond=None)[0].T @ A if k else Y
        want = np.sum(np.abs(R @ dense.conj().T) ** 2, axis=0)
        assert np.all(e[picks[:k]] == -np.inf)
        left = np.setdiff1d(np.arange(len(P)), picks[:k])
        assert np.max(np.abs(e[left] - want[left])) <= 1e-10 * want.max()


def _omp_peak(Y, P, floor):
    """(picks, tracemalloc's peak in bytes) over one omp_detect call."""
    tracemalloc.start()
    try:
        picks = len(omp_detect(Y, P, floor))
        return picks, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("np_,Bp,ka", [(16, 16, 1), (16, 16, 8), (512, 12, 1), (512, 12, 8)])
def test_omp_holds_at_most_its_working_set(np_, Bp, ka):
    # an OMP call holds, for its atom energies, its pilot block's real and
    # imaginary parts and one block of the Gram with its indices (at most
    # PILOT_GRAM_BLOCK entries), then its FFT buffers, up to
    # PILOT_FFT_VECTORS = 8 complex N-vectors, and its picked rows and their
    # antenna vectors (Q and U, grown by doubling up to np rows): within
    # pilots.work_bytes, 16 bytes an entry.  At N = 2^16 and
    # np = 16 it peaks at 4.5 (one pick) and 6.5 (fourteen) N-vectors; at
    # N = 4096 and np = 512 at 20.0 (one or eight), the energies' Gram block
    # (the Gram takes four) with its indices
    cfg = make_mini_cfg(np=np_, Bp=Bp, B=40)
    params = generate_public_params(cfg)
    n = fft_len(cfg.Bp, cfg.np)
    rng = np.random.default_rng(20243)
    Y = _omp_frame(rng, params.P, cfg.M, ka, 0.1)
    picks, peak = _omp_peak(Y, params.P, omp_noise_floor(cfg.M, len(params.P), 0.01,
                                                         cfg.np * cfg.Pp))
    assert picks >= ka
    rows = min(2 * picks, cfg.np)                # Q and U's capacity
    gram = cfg.np * min(cfg.np, max(1, PILOT_GRAM_BLOCK // cfg.np))
    held = 8 * n + rows * (cfg.np + cfg.M) + cfg.M * cfg.np + gram
    assert peak <= 16 * held <= work_bytes(cfg.Bp, cfg.np, cfg.M)


def test_omp_one_pick_allocates_little(monkeypatch):
    # the picked rows' buffers Q and U grow with the picks.  Handed its atom
    # energies, a full-scale call that picks one atom peaks at 0.31 MB, a few
    # FFT N-vectors: within 491,520 bytes (0.49 MB).  The energies, measured
    # alone, peak at 0.90 MB: the pilot block's real and imaginary parts, the
    # Gram (one block at full scale) with its indices, and a few N-vectors,
    # within those arrays and four
    cfg, params = _reference_setup("full")
    cfg = replace(cfg, Ka=1)
    Y = _uplink_block(cfg, params, 0)[0][:, :cfg.np]
    tracemalloc.start()
    try:
        energy = atom_energies(Y, params.P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * (cfg.M * cfg.np + cfg.np ** 2 + 4 * fft_len(cfg.Bp, cfg.np))
    monkeypatch.setattr(pilots, "atom_energies", lambda Y, P: energy.copy())
    picks, peak = _omp_peak(Y, params.P, _floor(cfg))
    assert picks == 1
    assert peak <= 491_520


@pytest.mark.parametrize("ka", [1, 25, 100])
def test_omp_on_full_scale_frames_matches_the_dense_reference(ka):
    # full-scale frames: OMP on the partial-DFT codebook, its frequencies
    # and twiddles, with every product by FFT, picks the same atoms in the
    # same order as the recomputing reference on the complex128 rows formed
    # whole, and its estimates are the same bytes
    cfg, params = _reference_setup("full")
    cfg = replace(cfg, Ka=ka)
    dense = params.P[:]
    for trial in range(2):
        Y = _uplink_block(cfg, params, trial)[0][:, :cfg.np]
        want = _omp_reference(Y, dense, _floor(cfg))
        assert len(want) >= ka - 2
        _assert_same_detections(omp_detect(Y, params.P, _floor(cfg)), want)


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


# ---- two-stage polar decoding ------------------------------------------------


def test_polar_decode_false_pass_rate_on_noise(full_cfg, full_params):
    # a pure-noise word at criterion 5's LLR scale passes the CRC at list
    # size 1 or, failing that, at LIST_SIZE: by the union bound with
    # probability at most (1 + LIST_SIZE) 2^-Br, here with criterion 5's
    # factor of 2
    cfg = full_cfg
    rng = np.random.default_rng(36)
    llr_scale = 4.0 * np.sqrt(cfg.Pc) / cfg.sigma_c2 * np.sqrt(cfg.sigma_c2 / 2.0)
    n_words, batch = 5000, 1000
    passes = 0
    for _ in range(n_words // batch):
        noise_llr = llr_scale * rng.standard_normal((batch, cfg.nc))
        _, ok = polar_decode(noise_llr, full_params.polar)
        passes += int(ok.sum())
    assert passes / n_words <= 2.0 * (1 + receiver.LIST_SIZE) * 2.0 ** -cfg.Br


def test_polar_decode_row_for_row(full_params):
    # blocks of noisy words and of pure noise, stacked as the receiver
    # stacks its frames' LLR rows: a row that passes the CRC at list size 1
    # keeps that result, a row that fails it gets its own LIST_SIZE decode
    # alone, and each block's rows are those the block gives alone
    code = full_params.polar
    rng = np.random.default_rng(3636)
    blocks = []
    for size, snr in ((7, 0.2), (1, 0.2), (12, 0.25), (5, 0.15)):
        payloads = rng.integers(0, 2, (size, code.payload_bits), dtype=np.uint8)
        x = 1.0 - 2.0 * code.encode(payloads)
        blocks.append(4.0 * snr * x + rng.normal(0.0, np.sqrt(8.0 * snr), x.shape))
    blocks.append(rng.normal(0.0, 3.0, (3, code.N)))
    got = list(receiver._decode_blocks(polar_decode, blocks, code))
    payloads = np.concatenate([p for p, _ in got])
    ok = np.concatenate([f for _, f in got])

    llr = np.concatenate(blocks)
    first, first_ok = code.decode(llr, 1)
    assert ok[first_ok].all() and np.array_equal(payloads[first_ok], first[first_ok])
    alone = [code.decode(row, receiver.LIST_SIZE) for row in llr[~first_ok]]
    assert np.array_equal(payloads[~first_ok], np.concatenate([p for p, _ in alone]))
    assert np.array_equal(ok[~first_ok], np.concatenate([f for _, f in alone]))
    for block, (p, f) in zip(blocks, got, strict=True):
        p_alone, f_alone = polar_decode(block, code)
        assert np.array_equal(p, p_alone) and np.array_equal(f, f_alone)
    # words that pass at list size 1, words only LIST_SIZE recovers, and
    # words neither does
    assert first_ok.any() and (ok & ~first_ok).any() and (~ok).any()


# ---- iterative decoding ------------------------------------------------------


def test_iterative_decode_single_user(mini_params, rng):
    cfg = make_mini_cfg(Ka=1)
    params = mini_params
    [[trial]] = run_trial(cfg, own_split(cfg), [0], params)
    assert trial.n_detected == 1 and trial.pupe == 0.0


def test_iterative_decode_recovers_ciphertexts(mini_cfg, mini_params, rng):
    h = _cn(rng, (mini_cfg.M, mini_cfg.Ka))
    W = rng.integers(0, 2, (mini_cfg.Ka, mini_cfg.B), dtype=np.uint8)
    X, C, _ = transmit_frame(W, h.T @ mini_params.V, mini_cfg, mini_params)
    Y = uplink_frame(X, h, 1e-12, stream(0, "t"), mini_cfg.key_parity_len)
    [(C_hat, H_hat)] = iterative_decode([Y], mini_cfg, mini_params)
    got = {c.tobytes() for c in C_hat}
    assert got == {c.tobytes() for c in C}
    assert H_hat.shape == (mini_cfg.M, len(C_hat))
    # SIC removes the decoded signals: the residual is at the noise floor
    original = Y[:, :mini_cfg.np + mini_cfg.nc]
    residual = _residual(Y, C_hat, H_hat, mini_cfg, mini_params)
    reduction = np.sum(np.abs(residual) ** 2) / np.sum(np.abs(original) ** 2)
    assert reduction < 1e-2  # >= 20 dB


def test_iterative_decode_keeps_users_that_share_a_payload(mini_cfg, mini_params, rng):
    # a decoded user is told apart by its whole ciphertext: two users whose
    # polar payloads agree but whose pilots differ are both kept
    h = _cn(rng, (mini_cfg.M, 2))
    Y = h.T @ mini_params.V
    W = rng.integers(0, 2, (2, mini_cfg.B), dtype=np.uint8)
    _, C, _ = transmit_frame(W, Y, mini_cfg, mini_params)
    target = C.copy()
    target[1, mini_cfg.Bp:] = C[0, mini_cfg.Bp:]
    target[1, 0] = 1 - target[0, 0]
    # the keystreams C ^ W depend on the feedback only
    X, C_shared, _ = transmit_frame(target ^ C ^ W, Y, mini_cfg, mini_params)
    assert np.array_equal(C_shared, target)
    [(C_hat, _)] = iterative_decode(
        [uplink_frame(X, h, 1e-12, stream(3, "t"), mini_cfg.key_parity_len)],
        mini_cfg, mini_params)
    assert sorted(c.tobytes() for c in C_hat) == sorted(c.tobytes() for c in target)


@pytest.mark.parametrize("trial", range(3))
def test_users_sharing_a_pilot_are_both_decoded(trial):
    # two users whose ciphertexts agree in their first Bp bits send the same
    # pilot row, so OMP sees one atom with the sum of their channels.  The
    # polar segments tell them apart: the LS fit of the user decoded first
    # and SIC leave the other's atom in the residual, a later pass picks it
    # again, and both ciphertexts are decoded
    cfg, params = _reference_setup("m16")
    cfg = replace(cfg, Ka=2)
    rng = np.random.default_rng(trial)
    h = _cn(rng, (cfg.M, 2))
    Y = h.T @ params.V
    W = rng.integers(0, 2, (2, cfg.B), dtype=np.uint8)
    _, C, _ = transmit_frame(W, Y, cfg, params)
    target = C.copy()
    target[1, :cfg.Bp] = C[0, :cfg.Bp]
    # the keystreams C ^ W depend on the feedback only
    X, C_shared, _ = transmit_frame(target ^ C ^ W, Y, cfg, params)
    assert np.array_equal(C_shared, target)
    assert np.array_equal(X[0, :cfg.np], X[1, :cfg.np])
    y_bs = uplink_frame(X, h, cfg.sigma_c2, stream(trial, "t"), cfg.key_parity_len)
    [(C_hat, _)] = iterative_decode([y_bs], cfg, params)
    assert sorted(c.tobytes() for c in C_hat) == sorted(c.tobytes() for c in target)


def test_iterative_decode_empty_frame(mini_cfg, mini_params):
    y_bs = np.zeros((mini_cfg.M, frame_len(mini_cfg)), dtype=complex)
    [(C_hat, H_hat)] = iterative_decode([y_bs], mini_cfg, mini_params)
    assert C_hat.shape == (0, mini_cfg.B)
    assert H_hat.shape == (mini_cfg.M, 0)
    # the key stage runs on zero users and returns zero-row arrays
    C_hat, S_hat, W_hat, converged, valid = decode_one(y_bs, mini_cfg, mini_params)
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
                          (full_cfg.M, frame_len(full_cfg)), full_cfg.sigma_c2)
    [(C_hat, H_hat)] = iterative_decode([y_bs], full_cfg, full_params)
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
        [(C_hat, _)] = iterative_decode([y_bs], cfg, params)
        sent = {c.tobytes() for c in C}
        assert [c.tobytes() in sent for c in C_hat] == [True] * len(C_hat)


@pytest.mark.parametrize("Pp", [1e15, 2.0 ** 256])
def test_no_false_alarm_at_high_pilot_snr(Pp):
    # at high pilot SNR a later pass's residual is the rounding residue of
    # the received signal, far above the noise floor.  With that floor
    # alone OMP went on picking atoms there, and their polar decodes passed
    # the CRC: this frame (M = 50, Ka = 10) decoded 40 never-sent
    # ciphertexts at Pp = 1e15 and 97 at 2^256.  Every decoded row is a
    # sent ciphertext, and none is lost
    cfg = SystemConfig(Ka=10, seed=1, Pp=Pp)
    params = generate_public_params(cfg)
    y_bs, C = _uplink_block(cfg, params, 0)
    [(C_hat, _)] = iterative_decode([y_bs], cfg, params)
    sent, decoded = {c.tobytes() for c in C}, {c.tobytes() for c in C_hat}
    assert decoded <= sent
    assert sent <= decoded


def _omp_calls(monkeypatch):
    """Record (pilot block, atoms picked) of every omp_detect call
    iterative_decode makes, in order."""
    calls = []
    detect = receiver.omp_detect

    def recording(Y, P, floor):
        found = detect(Y, P, floor)
        calls.append((Y.copy(), len(found)))
        return found

    monkeypatch.setattr(receiver, "omp_detect", recording)
    return calls


def _count_products(monkeypatch):
    """Record the row counts of the blocks whose atom energies
    iterative_decode forms, in order."""
    rows = []
    energies = pilots.atom_energies

    def counting_energies(Y, P):
        rows.append(Y.shape[0])
        return energies(Y, P)

    monkeypatch.setattr(pilots, "atom_energies", counting_energies)
    return rows


@pytest.mark.parametrize("name,ka,passes,trials,later_rows", [
    # one user at M=50: a later pass takes the energies of its whole 50-row
    # residual
    ("full", 1, 8, 4, 50),
    # ten users at M=8, and ~100 at M=50: a later pass takes the energies of
    # its whole M-row residual too
    ("m8", 10, 8, 2, 8),
    ("full", 100, 3, 1, 50)])
def test_codebook_products_per_pass(name, ka, passes, trials, later_rows, monkeypatch):
    # each pass hands OMP the pilot part of its frame's residual, Y less the
    # signals of the users decoded so far, and OMP takes its energies from
    # all of its rows: the first pass the received block, the last the final
    # residual
    cfg, params = _reference_setup(name)
    cfg = replace(cfg, Ka=ka, max_outer_iters=passes)
    calls = _omp_calls(monkeypatch)
    products = _count_products(monkeypatch)
    for trial in range(trials):
        y_bs, _ = _uplink_block(cfg, params, trial)
        calls.clear()
        products.clear()
        [(C_hat, H_hat)] = iterative_decode([y_bs], cfg, params)
        assert len(calls) >= 2 and calls[0][1] > 0
        assert products == [cfg.M] + [later_rows] * (len(calls) - 1)
        assert np.array_equal(calls[0][0], y_bs[:, :cfg.np])
        if len(calls) < passes:                  # ended on a pass with nothing new
            residual = _residual(y_bs, C_hat, H_hat, cfg, params)[:, :cfg.np]
            assert np.array_equal(calls[-1][0], residual)


def test_iterative_decode_peaks_within_one_and_a_half_pilot_working_sets():
    # tracemalloc's peak over a call is counted in pilot working sets,
    # pilots.work_bytes (3.17 MB at full scale: 8 FFT N-vectors, OMP's picked
    # rows and the fit's, the pilot block's real and imaginary parts and a
    # Gram block).  At Ka = 1 it
    # reads 0.47 (the residual, the Gram with its indices and the FFT
    # buffers); at Ka = 100 the ~100 decoded users' signal rows, the residual
    # and the polar decoder's lists add to it: 1.40.  The bounds, 0.55 and
    # 1.5 working sets (1.75 and 4.76 MB), are below the 1.77 and 4.91 MB
    # this receiver was first held to
    cfg = SystemConfig(seed=1501)
    params = generate_public_params(cfg)
    unit = work_bytes(cfg.Bp, cfg.np, cfg.M)
    for ka, passes, bound in [(1, cfg.max_outer_iters, 0.55), (100, 3, 1.5)]:
        c = replace(cfg, Ka=ka, max_outer_iters=passes)
        y_bs, _ = _uplink_block(c, params, 0)
        tracemalloc.start()
        try:
            iterative_decode([y_bs], c, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * unit


def test_full_scale_batch_holds_its_blocks_and_under_one_pilot_working_set():
    # a full-scale Ka = 1 batch of 16 frames, sent and decoded at two
    # splits: tracemalloc's peak is the received pilot+polar blocks the batch
    # holds plus at most 0.9 pilot working sets (pilots.work_bytes,
    # 3.17 MB), read 0.88: one frame's residual, Gram block with its indices
    # and FFT buffers, with the key segments, sent frames and LLRs of the
    # others.  The bound, 2.86 MB over the blocks, is below the 2.95 MB this
    # receiver was first held to
    cfg = SystemConfig(Ka=1, seed=1501)
    params = generate_public_params(cfg)
    splits = [split_power_budget(cfg.key_budget, r) for r in (1.0, 7.0)]
    n = frames_per_batch(cfg)
    assert n == 16
    unit = work_bytes(cfg.Bp, cfg.np, cfg.M)
    blocks = n * cfg.M * (cfg.np + cfg.nc) * np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        run_trial(cfg, splits, list(range(n)), params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= blocks + 0.9 * unit


@pytest.mark.parametrize("name,ka,trials", [
    ("full", 1, 3), ("m16", 1, 3), ("m16", 2, 3), ("m16", 3, 3)])
def test_residual_energies_equal_the_residual_correlation(name, ka, trials):
    # a later pass's atom energies, taken from its residual by the Gram and
    # one FFT, equal those of the residual's dense correlation with the rows
    # formed whole, to 1e-10 of the largest, with the same stop decision.
    # Leaving out the newest user keeps its atom above the noise floor,
    # where a pass must still pick
    cfg, params = _reference_setup(name)
    cfg = replace(cfg, Ka=ka, max_outer_iters=1)
    floor, dense = _floor(cfg), params.P[:]
    for trial in range(trials):
        y_bs, _ = _uplink_block(cfg, params, trial)
        [(C_hat, H_hat)] = iterative_decode([y_bs], cfg, params)
        assert len(C_hat) == ka
        Y_p = y_bs[:, :cfg.np]
        X_p = pilot_polar_rows(C_hat, cfg, params)[:, :cfg.np]
        # (residual pilot part, whether an atom is left above the floor)
        cases = [(_residual(y_bs, C_hat, H_hat, cfg, params)[:, :cfg.np], False)]
        if ka > 1:
            cases.append((Y_p - H_hat[:, :-1] @ X_p[:-1], True))
        for R, left in cases:
            got = atom_energies(R, params.P)
            want = np.sum(np.abs(R @ dense.conj().T) ** 2, axis=0)
            _assert_close_to_largest(got, want)
            assert (got.max() > floor) == (want.max() > floor) == left


def test_later_pass_picks_again_an_atom_left_in_its_residual(monkeypatch):
    # the polar decode of the first pass loses the last of two users, so
    # the second pass finds that user's atom above the floor in its
    # residual, and OMP picks it again.  The third pass picks nothing and
    # ends the frame.  The result is the reference receiver's, under the
    # same fault.  The fault is put on one pass's decode: the receiver's
    # two-stage polar_decode, and the reference's list decode
    cfg, params = _reference_setup("m16")
    cfg = replace(cfg, Ka=2)
    y_bs, C = _uplink_block(cfg, params, 0)
    code = type(params.polar)

    def losing_the_first_last_user(decode):
        calls = []

        def lossy(*args):
            payload, ok = decode(*args)
            calls.append(len(ok))
            if len(calls) == 1:
                assert len(ok) == 2
                ok = ok.copy()
                ok[-1] = False
            return payload, ok
        return lossy

    monkeypatch.setattr(receiver, "polar_decode",
                        losing_the_first_last_user(receiver.polar_decode))
    calls = _omp_calls(monkeypatch)
    [(C_hat, H_hat)] = iterative_decode([y_bs], cfg, params)
    assert [picks for _, picks in calls] == [2, 1, 0]
    assert sorted(c.tobytes() for c in C_hat) == sorted(c.tobytes() for c in C)

    monkeypatch.setattr(code, "decode", losing_the_first_last_user(code.decode))
    users, H_ref, res_ref = _iterative_decode_reference(
        _ReceivedFrame.from_uplink(y_bs, cfg), cfg, params)
    assert [u.c_hat.tobytes() for u in users] == [c.tobytes() for c in C_hat]
    assert np.array_equal(H_hat, H_ref)
    assert np.array_equal(_residual(y_bs, C_hat, H_hat, cfg, params), res_ref)


def test_decode_frame_does_not_read_the_user_count():
    # the base station does not know Ka: a receiver told Ka=1 decodes a
    # 25-user frame exactly as one told the truth
    cfg = SystemConfig(M=16, E=16, Ka=25, seed=5)
    params = generate_public_params(cfg)
    for trial in range(3):
        y_bs, _ = _uplink_block(cfg, params, trial)
        want = decode_one(y_bs, cfg, params)
        got = decode_one(y_bs, replace(cfg, Ka=1), params)
        assert len(want.C_hat) == cfg.Ka
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("name,ka", [("full", 1), ("m16", 1), ("m16", 2), ("m16", 3),
                                     ("m16", 10), ("m16", 25)])
def test_frames_decoded_in_a_batch_equal_frames_decoded_alone(name, ka):
    # a sweep's batch of frames (at least four; at Ka = 1, 16 at full scale
    # and 51, the largest, at M = 16) and a pure-noise frame, at ratios 1, 7
    # and inf: each frame's every output array is the one it gives when
    # decoded alone
    base, params = _reference_setup(name)
    cfg = replace(base, Ka=ka, seed=5)
    splits = [split_power_budget(base.key_budget, r) for r in (1.0, 7.0, float("inf"))]
    n_frames = max(4, frames_per_batch(cfg))
    sent = [harness._send_frame(cfg, splits, t, params) for t in range(n_frames)]
    frames = [(s.y, s.y_k) for s in sent]
    noise = complex_normal(stream(5, "noise-frame"), (base.M, frame_len(base)), base.sigma_c2)
    n = base.np + base.nc
    frames.append((noise[:, :n], [noise[:, n:]] * len(splits)))
    batch = decode_frame([y for y, _ in frames], [y_k for _, y_k in frames], cfg, splits,
                         params)
    assert len(batch) == len(frames)
    assert len(batch[-1][0].C_hat) == 0 and sum(len(f[0].C_hat) for f in batch) > 0
    for (y, y_k), got in zip(frames, batch):
        [want] = decode_frame([y], [y_k], cfg, splits, params)
        assert len(got) == len(want) == len(splits)
        for g_split, w_split in zip(got, want):
            for g, w in zip(g_split, w_split, strict=True):
                assert g.dtype == w.dtype and np.array_equal(g, w)


def test_decode_frame_rejects_bad_width(mini_cfg, mini_params):
    M, n, n_key = mini_cfg.M, mini_cfg.np + mini_cfg.nc, mini_cfg.key_parity_len
    y, y_k = np.zeros((M, n), dtype=complex), np.zeros((M, n_key), dtype=complex)
    split = own_split(mini_cfg)
    with pytest.raises(ValueError, match="expected"):
        decode_frame([np.zeros((M, 10), dtype=complex)], [[y_k]], mini_cfg, split, mini_params)
    # a key segment of the wrong width, or one too few for the splits
    with pytest.raises(ValueError, match="expected"):
        decode_frame([y], [[y_k[:, 1:]]], mini_cfg, split, mini_params)
    with pytest.raises(ValueError, match="expected"):
        decode_frame([y], [[y_k]], mini_cfg, split * 2, mini_params)
    # in any frame of a batch
    with pytest.raises(ValueError, match="expected"):
        decode_frame([y, y], [[y_k], [y_k[:, 1:]]], mini_cfg, split, mini_params)
    # a block or key segment with one antenna row too few or too many
    for rows in (M - 1, M + 1):
        with pytest.raises(ValueError, match="expected"):
            decode_frame([np.zeros((rows, n), dtype=complex)], [[y_k]], mini_cfg, split,
                         mini_params)
        with pytest.raises(ValueError, match="expected"):
            decode_frame([y], [[np.zeros((rows, n_key), dtype=complex)]], mini_cfg, split,
                         mini_params)


def test_decode_keys_noiseless_end_to_end(mini_cfg, mini_params, rng):
    h = _cn(rng, (mini_cfg.M, 1))
    w = rng.integers(0, 2, mini_cfg.B, dtype=np.uint8)
    X, _, S = transmit_frame(w[None], h.T @ mini_params.V, mini_cfg, mini_params)
    Y = uplink_frame(X, h, 1e-12, stream(1, "t"), mini_cfg.key_parity_len)
    C_hat, S_hat, W_hat, converged, valid = decode_one(Y, mini_cfg, mini_params)
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
    got = decode_keys_one(C_hat, h[:, None], y_k, mini_cfg, mini_params)
    assert got.valid[0]                      # best-effort decryption
    assert got.W_hat.shape == (1, mini_cfg.B)
    assert np.array_equal(got.W_hat[0], C_hat[0] ^ expand_key(got.S_hat[0], mini_params.T))
    assert not got.converged[0]


def _degenerate_pair(cfg, splits, params, rng):
    """Two decoded rows: a real user, and a zero channel estimate.

    A zero estimate gives a constant feedback estimate, so the second row
    is degenerate.  Returns (C_hat, H_hat, y_k, w, S), with y_k the list of
    the key segments received at the (Pa, Pk) splits.
    """
    h = _cn(rng, (cfg.M, 1))
    w = rng.integers(0, 2, cfg.B, dtype=np.uint8)
    X, X_k, C, S = transmit(w[None], h.T @ params.V, cfg, splits, params)
    _, y_k = uplink(X, X_k, h, 1e-12, stream(2, "t"))
    C_hat = np.stack([C[0], rng.integers(0, 2, cfg.B, dtype=np.uint8)])
    H_hat = np.concatenate([h, np.zeros((cfg.M, 1), dtype=complex)], axis=1)
    return C_hat, H_hat, y_k, w, S


def test_decode_keys_skips_degenerate_user(mini_cfg, mini_params, rng):
    # the degenerate user gets no key, and the other user is still decrypted
    C_hat, H_hat, (y_k,), w, S = _degenerate_pair(mini_cfg, own_split(mini_cfg),
                                                  mini_params, rng)
    got = decode_keys_one(C_hat, H_hat, y_k, mini_cfg, mini_params)
    assert got.valid.tolist() == [True, False]
    assert got.converged.tolist() == [True, False]
    assert np.array_equal(got.S_hat[0], S[0])
    assert np.array_equal(got.W_hat[0], w)


def test_key_stage_at_several_splits_equals_one_split_each(mini_cfg, mini_params, rng):
    # the key stage stacks every split's words into one LDPC decode; each
    # split still gets what a call at that split alone gives.  Ratio 0 sends
    # no mask, ratio inf no parity power (all-zero parity LLRs), and the
    # degenerate row has exact-zero systematic LLRs
    splits = [split_power_budget(mini_cfg.key_budget, r)
              for r in (0.0, 1.0, 7.0, float("inf"))]
    C_hat, H_hat, y_k, _, _ = _degenerate_pair(mini_cfg, splits, mini_params, rng)
    for C, H in ((C_hat, H_hat), (C_hat[:0], H_hat[:, :0])):
        [got] = decode_keys_and_decrypt([C], [H], [y_k], mini_cfg, splits, mini_params)
        assert len(got) == len(splits)
        for rows, b, split in zip(got, y_k, splits):
            [[want]] = decode_keys_and_decrypt([C], [H], [[b]], mini_cfg, [split], mini_params)
            assert rows.valid.tolist() == [True, False][:len(C)]
            for g, w in zip(rows, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)


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
        if y_bs.shape[1] != frame_len(cfg):
            raise ValueError(f"frame has {y_bs.shape[1]} columns, expected {frame_len(cfg)}")
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
        detections = omp_detect(Y_p, params.P, _floor(cfg))
        new_users = []
        new_rows = []                            # rows of payloads behind new_users
        # only the users still held count as decoded: one the LS fallback
        # dropped may come back in a later pass
        seen = {(u.pilot_index, u.c_hat[cfg.Bp:].tobytes()) for u in users}
        if detections:
            Hd = np.stack([h for _, h in detections], axis=1)
            llrs = mmse_polar_llr(residual[:, cfg.np:], Hd, cfg.Pc, cfg.sigma_c2)
            payloads, ok = params.polar.decode(llrs, receiver.LIST_SIZE)
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

    s_hats, converged = params.ldpc.decode(f_key, receiver.BP_ITERS)
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
    """(uplink block, true ciphertexts) of run_trial's trial at cfg's own
    split, the block [pilot | polar | key] as one array."""
    sent = harness._send_frame(cfg, own_split(cfg), trial, params)
    return np.concatenate([sent.y, *sent.y_k], axis=1), sent.C


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


def _residual(y_bs, C_hat, H_hat, cfg, params):
    """The pilot+polar residual Y_pp - H_hat X of a decoded set, X the rows of
    its signals."""
    return y_bs[:, :cfg.np + cfg.nc] - H_hat @ pilot_polar_rows(C_hat, cfg, params)


def _run_both(y_bs, cfg, params):
    """(decode_frame rows, iterative_decode output, reference users, reference
    iterative_decode output) on one uplink block."""
    [new] = iterative_decode([y_bs], cfg, params)
    frame = _ReceivedFrame.from_uplink(y_bs, cfg)
    ref = _iterative_decode_reference(frame, cfg, params)
    users = _decode_keys_and_decrypt_reference(list(ref[0]), ref[1], frame, cfg, params)
    return decode_one(y_bs, cfg, params), new, users, ref


@pytest.mark.parametrize("name,ka,passes,trials", [
    ("full", 1, 8, 4), ("full", 10, 8, 3), ("full", 25, 8, 2), ("full", 100, 3, 1),
    ("m16", 1, 8, 6), ("m16", 10, 8, 4), ("m16", 25, 8, 3), ("m8", 3, 8, 5)])
def test_decode_frame_matches_per_user_reference(name, ka, passes, trials):
    base, params = _reference_setup(name)
    cfg = SystemConfig(**{**vars(base), "Ka": ka, "max_outer_iters": passes})
    decoded = 0
    for trial in range(trials):
        y_bs, _ = _uplink_block(cfg, params, trial)
        rows, (C_hat, H_hat), users, (_, H_ref, res_ref) = _run_both(y_bs, cfg, params)
        _assert_rows_match_reference(rows, users)
        assert np.array_equal(C_hat, rows.C_hat)
        assert np.array_equal(H_hat, H_ref)
        if len(C_hat):
            assert np.array_equal(_residual(y_bs, C_hat, H_hat, cfg, params), res_ref)
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
    # the first trial with a refused system; after-first needs one whose
    # decode takes a second pass
    for trial in range(10):
        solved_once.clear()
        y_bs, _ = _uplink_block(cfg, params, trial)
        rows, (C_hat, H_hat), users, (_, H_ref, res_ref) = _run_both(y_bs, cfg, params)
        if refusals:
            break
    assert refusals
    _assert_rows_match_reference(rows, users)
    assert np.array_equal(H_hat, H_ref)
    if refuse == "after-first":
        # every user is dropped: no rows, and no stale channel estimate
        assert len(C_hat) == 0 and H_hat.shape == (cfg.M, 0)
        assert rows.S_hat.shape == (0, cfg.S)
    else:
        assert len(C_hat) > 0
        assert np.array_equal(_residual(y_bs, C_hat, H_hat, cfg, params), res_ref)


def test_frame_stops_when_its_decoded_set_does_not_grow(monkeypatch):
    # with odd-size LS systems refused, the first pass keeps 24 of 25 users
    # and the second re-decodes the dropped one only to drop it again: the
    # set is unchanged, so a third pass would repeat the second.  The frame
    # stops there with the reference's outputs, which run every pass
    cfg, params = _reference_setup("m16")
    cfg = SystemConfig(**{**vars(cfg), "Ka": 25})
    solve, detect = np.linalg.solve, receiver.omp_detect
    passes = []

    def refuse_odd_sizes(a, b):
        caller = sys._getframe(1).f_code.co_name
        if caller in ("iterative_decode", "_iterative_decode_reference") and a.shape[0] % 2:
            raise np.linalg.LinAlgError("refused")
        return solve(a, b)

    def counted_detect(*args):
        passes.append(None)
        return detect(*args)

    monkeypatch.setattr(np.linalg, "solve", refuse_odd_sizes)
    monkeypatch.setattr(receiver, "omp_detect", counted_detect)
    y_bs, _ = _uplink_block(cfg, params, 0)
    [(C_hat, H_hat)] = iterative_decode([y_bs], cfg, params)
    assert len(passes) <= 3 < cfg.max_outer_iters
    users, H_ref, _ = _iterative_decode_reference(_ReceivedFrame.from_uplink(y_bs, cfg),
                                                  cfg, params)
    assert len(C_hat) == len(users) == cfg.Ka - 1
    assert np.array_equal(C_hat, [u.c_hat for u in users])
    assert np.array_equal(H_hat, H_ref)


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
    [(C_hat, _)] = iterative_decode([y_bs], cfg, params)
    assert refusals == [cfg.Ka]
    assert {c.tobytes() for c in C} <= {c.tobytes() for c in C_hat}


def test_degenerate_pair_matches_per_user_reference(mini_cfg, mini_params, rng):
    C_hat, H_hat, (y_k,), _, _ = _degenerate_pair(mini_cfg, own_split(mini_cfg),
                                                  mini_params, rng)
    got = decode_keys_one(C_hat, H_hat, y_k, mini_cfg, mini_params)
    frame = _ReceivedFrame(y_p=None, y_d=None, y_k=y_k)
    users = [_DetectedUser(pilot_index=-1, c_hat=c) for c in C_hat]
    users = _decode_keys_and_decrypt_reference(users, H_hat, frame, mini_cfg, mini_params)
    assert users[1].s_hat is None
    _assert_rows_match_reference(got, users)


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
    C_hat, H_hat, (y_k,), _, _ = _degenerate_pair(mini_cfg, own_split(mini_cfg),
                                                  mini_params, rng)
    got = decode_keys_one(C_hat, H_hat, y_k, mini_cfg, mini_params)
    assert got.valid.tolist() == [True, False]
    assert got.converged.tolist() == [True, False]
