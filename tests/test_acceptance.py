"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS lines
inline).  The codec suites (5) and the grid criterion (4) dominate the
runtime: 30-35 s and about 9 s with one BLAS thread on a 2-core x86_64 host.
"""

import time

import numpy as np
import pytest
from scipy.special import log_ndtr

from secure_ura import (SystemConfig, decode_frame, feature_noise_variances,
                        generate_public_params, leakage_eigen, leakage_logdet,
                        run_sweep, transmit)
from secure_ura.harness import (_check_crypto, _check_params_invariants,
                                _check_standardize, _send_frame, emit_csv)
from secure_ura.receiver import BP_ITERS, LIST_SIZE

from helpers import make_mini_cfg, own_split


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS — {text}")


def test_criterion_1_leakage_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    count = 0
    for E in (1, 2, 4):
        for d in (1, 4, 16):
            for _ in range(12):
                if count >= 100:
                    break
                L = d + int(rng.integers(0, 6))
                g = rng.standard_normal(E) + 1j * rng.standard_normal(E)
                C2 = rng.standard_normal((L, d)) + 1j * rng.standard_normal((L, d))
                C2 /= np.linalg.norm(C2, axis=0, keepdims=True)
                Pk, Pa, s2 = rng.uniform(0.02, 0.5, 3)
                a = leakage_eigen(g, C2, Pk, Pa, s2)
                b = leakage_logdet(g, C2, Pk, Pa, s2)
                assert abs(a - b) < 1e-9 * (1.0 + abs(b))
                count += 1
    elapsed = time.perf_counter() - t0
    assert count == 100
    assert elapsed < 10.0
    _report(1, f"eigen and log-det leakage agree on 100 instances ({elapsed:.2f}s)")


def test_criterion_2_analytic_point_check():
    g = np.array([1.0 + 0.0j])
    C2 = np.array([[1.0 + 0.0j]])
    for fn in (leakage_eigen, leakage_logdet):
        value = fn(g, C2, 0.15, 0.15, 1.0)
        assert value == pytest.approx(0.17690, abs=1e-4)
    _report(2, "scalar instance evaluates to 0.17690 bits within 1e-4")


def test_criterion_3_noiseless_end_to_end_identity():
    t0 = time.perf_counter()
    cfg = SystemConfig(Ka=1, sigma_c2=1e-12, sigma_u2=1e-12, seed=33)
    params = generate_public_params(cfg)
    for trial in range(100):
        sent = _send_frame(cfg, own_split(cfg), trial, params)
        [[d]] = decode_frame([sent.y], [sent.y_k], cfg, own_split(cfg), params)
        # PUPE = 0: the user's exact message is recovered (occasional CRC
        # false alarms add spurious entries but cost no message errors)
        hits = d.valid & (d.W_hat == sent.messages[0]).all(axis=1)
        assert hits.any()
        assert (d.S_hat[hits] == sent.S[0]).all(axis=1).any()
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(3, f"100 near-noiseless trials: PUPE 0 and exact keys ({elapsed:.1f}s)")


def test_criterion_4_desk_scale_grid_properties():
    t0 = time.perf_counter()
    base = SystemConfig(M=16, E=16, seed=2024)
    ka_list, ratios, trials = [1, 10, 25], [1.0, 3.0, 7.0], 200
    results = run_sweep(base, ka_list, ratios, trials)
    table = {(r.ka, r.ratio): r for r in results}

    # (a) PUPE non-decreasing in Ka at fixed ratio, within 2 standard errors
    for ratio in ratios:
        for ka_small, ka_big in zip(ka_list, ka_list[1:]):
            lo, hi = table[(ka_small, ratio)], table[(ka_big, ratio)]
            slack = 2.0 * np.hypot(lo.pupe_stderr, hi.pupe_stderr)
            assert hi.pupe_mean >= lo.pupe_mean - slack
    # (b) PUPE non-decreasing in the masking share at fixed Ka
    for ka in ka_list:
        for r_small, r_big in zip(ratios, ratios[1:]):
            lo, hi = table[(ka, r_small)], table[(ka, r_big)]
            slack = 2.0 * np.hypot(lo.pupe_stderr, hi.pupe_stderr)
            assert hi.pupe_mean >= lo.pupe_mean - slack
    # (c) equivocation bound strictly increasing in the masking share
    for ka in ka_list:
        zetas = [table[(ka, r)].zeta_lower_mean for r in ratios]
        assert all(b > a for a, b in zip(zetas, zetas[1:]))
    # (d) equivocation bound invariant in Ka
    for ratio in ratios:
        zetas = [table[(ka, ratio)].zeta_lower_mean for ka in ka_list]
        assert max(zetas) - min(zetas) <= 1e-12

    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0
    _report(4, f"grid of {len(results)} points x {trials} trials: PUPE monotone, "
               f"zeta monotone and Ka-invariant ({elapsed / 60:.1f} min)")


def test_criterion_5_codec_suites():
    cfg = SystemConfig()
    params = generate_public_params(cfg)
    rng = np.random.default_rng(55)

    keys = rng.integers(0, 2, (1000, cfg.S), dtype=np.uint8)
    parity = params.ldpc.encode(keys)
    llr = np.where(np.concatenate([keys, parity], axis=1) == 0, 40.0, -40.0)
    s_hat, converged = params.ldpc.decode(llr, BP_ITERS)
    assert converged.all() and np.array_equal(s_hat, keys)

    payloads = rng.integers(0, 2, (1000, params.polar.payload_bits), dtype=np.uint8)
    cw = params.polar.encode(payloads)
    dec, ok = params.polar.decode(np.where(cw == 0, 40.0, -40.0), LIST_SIZE)
    assert ok.all() and np.array_equal(dec, payloads)

    # false CRC passes on pure noise, 1e5 decodes
    n_trials, batch = 100_000, 2000
    llr_scale = 4.0 * np.sqrt(cfg.Pc) / cfg.sigma_c2 * np.sqrt(cfg.sigma_c2 / 2.0)
    passes = 0
    for _ in range(n_trials // batch):
        noise_llr = llr_scale * rng.standard_normal((batch, cfg.nc))
        _, ok = params.polar.decode(noise_llr, LIST_SIZE)
        passes += int(ok.sum())
    rate = passes / n_trials
    bound = LIST_SIZE * 2.0 ** -cfg.Br
    assert rate <= 2.0 * bound
    _report(5, f"codec round trips clean; false-pass rate {rate:.2e} "
               f"<= 2 x {bound:.2e}")


def test_criterion_6_structural_invariants():
    cfg = SystemConfig()
    params = generate_public_params(cfg)
    # norms, standardize and the XOR involution: the selftest suites
    for check in (_check_params_invariants, _check_standardize, _check_crypto):
        check(cfg, params)

    _sic_exact_cancellation(cfg, params, np.random.default_rng(66))
    _systematic_llr_matches_posterior_oracle()
    _report(6, "norms, standardize, involution, SIC cancellation and "
               "LLR oracle all within tolerance")


def _sic_exact_cancellation(cfg, params, rng):
    # perfect CSI: LS over the true signals reproduces H, residual vanishes
    mini = make_mini_cfg()
    mini_params = generate_public_params(mini)
    H = (rng.standard_normal((mini.M, mini.Ka))
         + 1j * rng.standard_normal((mini.M, mini.Ka))) / np.sqrt(2)
    W = rng.integers(0, 2, (mini.Ka, mini.B), dtype=np.uint8)
    X = transmit(W, H.T @ mini_params.V, mini, own_split(mini), mini_params)[0]
    Y = H @ X
    H_ls = np.linalg.solve((X @ X.conj().T).T, (Y @ X.conj().T).T).T
    residual = Y - H_ls @ X
    ratio = np.sum(np.abs(residual) ** 2) / np.sum(np.abs(Y) ** 2)
    assert ratio < 1e-8


def _systematic_llr_matches_posterior_oracle():
    # histogram (feature estimate, key bit) pairs from the forward model and
    # compare the empirical log-odds with the analytic LLR
    cfg = SystemConfig(M=8, E=4, Ka=1, L=8, np=64, nc=64, ns=16, B=30, Bp=5,
                       Br=11, S=8, Pp=0.3, Pc=0.3, sigma_c2=0.05,
                       sigma_u2=1e-3, seed=5)
    params = generate_public_params(cfg)
    sigma_uj2 = feature_noise_variances(cfg, params)
    sig2 = np.concatenate([sigma_uj2, sigma_uj2])
    est_var = cfg.sigma_c2 / (cfg.np * cfg.Pp + cfg.nc * cfg.Pc)

    n_bins, lim = 24, 2.12
    edges = np.linspace(-lim, lim, n_bins + 1)
    cnt0 = np.zeros(n_bins)
    cnt1 = np.zeros(n_bins)
    asum = np.zeros(n_bins)
    rng = np.random.default_rng(90210)
    chunk, n_chunks = 250_000, 12
    for _ in range(n_chunks):
        h = (rng.standard_normal((chunk, cfg.M))
             + 1j * rng.standard_normal((chunk, cfg.M))) / np.sqrt(2)
        o = (rng.standard_normal((chunk, cfg.L))
             + 1j * rng.standard_normal((chunk, cfg.L))) * np.sqrt(cfg.sigma_u2 / 2)
        Y = h @ params.V + o
        mu = Y.mean(axis=1, keepdims=True)
        Yb = (Y - mu) / np.sqrt(np.mean(np.abs(Y - mu) ** 2, axis=1))[:, None]
        z = Yb @ params.C1
        s = (np.concatenate([z.real, z.imag], axis=1) >= 0).ravel()

        nh = (rng.standard_normal((chunk, cfg.M))
              + 1j * rng.standard_normal((chunk, cfg.M))) * np.sqrt(est_var / 2)
        Yh = (h + nh) @ params.V
        muh = Yh.mean(axis=1, keepdims=True)
        varh = np.mean(np.abs(Yh - muh) ** 2, axis=1)
        Ybh = (Yh - muh) / np.sqrt(varh)[:, None]
        zh = Ybh @ params.C1
        a = (np.concatenate([zh.real, zh.imag], axis=1)
             * np.sqrt(varh[:, None] / sig2)).ravel()

        idx = np.digitize(a, edges) - 1
        ok = (idx >= 0) & (idx < n_bins)
        np.add.at(cnt1, idx[ok], s[ok])
        np.add.at(cnt0, idx[ok], ~s[ok])
        np.add.at(asum, idx[ok], a[ok])

    total = cnt0 + cnt1
    assert total.min() > 1000
    a_mean = asum / total
    predicted = log_ndtr(-a_mean) - log_ndtr(a_mean)
    empirical = np.log(cnt0 / cnt1)
    in_range = np.abs(predicted) < 4.0
    assert np.max(np.abs(empirical[in_range] - predicted[in_range])) < 0.1


def test_criterion_7_sweep_determinism(tmp_path):
    cfg = make_mini_cfg(sigma_c2=0.05, sigma_u2=0.05, seed=99)
    paths = []
    for name in ("first.csv", "second.csv"):
        results = run_sweep(cfg, [1, 2], [1.0, 3.0], trials=3)
        path = tmp_path / name
        emit_csv(results, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    _report(7, "repeated sweep produced byte-identical CSV")
