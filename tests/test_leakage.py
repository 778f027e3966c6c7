import numpy as np
import pytest

from secure_ura import (LeakageSizeError, equivocation_lower, leakage_eigen,
                        leakage_logdet, leakage_report)


def _unit_cols(rng, L, d):
    C = rng.standard_normal((L, d)) + 1j * rng.standard_normal((L, d))
    return C / np.linalg.norm(C, axis=0, keepdims=True)


def test_scalar_point_value():
    # E = 1, one parity use, unit eigenvalue, Pk = Pa = 0.15, sigma_e2 = 1
    g = np.array([1.0 + 0.0j])
    C2 = np.array([[1.0 + 0.0j]])
    expected = np.log2(1.0 + 0.15 / 1.15)
    assert leakage_eigen(g, C2, 0.15, 0.15, 1.0) == pytest.approx(expected, abs=1e-12)
    assert abs(leakage_eigen(g, C2, 0.15, 0.15, 1.0) - 0.17690) < 1e-4


def test_zero_parity_power_leaks_nothing(rng):
    g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    C2 = _unit_cols(rng, 6, 3)
    assert leakage_eigen(g, C2, 0.0, 0.2, 1.0) == 0.0
    assert leakage_logdet(g, C2, 0.0, 0.2, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_zero_channel_leaks_nothing(rng):
    C2 = _unit_cols(rng, 6, 3)
    assert leakage_eigen(np.zeros(4, dtype=complex), C2, 0.2, 0.1, 1.0) == 0.0


def test_full_masking_limit(rng):
    g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    C2 = _unit_cols(rng, 8, 4)  # tall: all eigenvalues positive
    assert leakage_eigen(g, C2, 0.15, 1e9, 1.0) < 1e-6


def test_oracle_equivalence_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(100):
        E = int(rng.integers(1, 5))
        d = int(rng.integers(1, 17))
        L = int(rng.integers(d, d + 8))
        g = rng.standard_normal(E) + 1j * rng.standard_normal(E)
        C2 = _unit_cols(rng, L, d)
        Pk, Pa, s2 = rng.uniform(0.01, 0.5, 3)
        a = leakage_eigen(g, C2, Pk, Pa, s2)
        b = leakage_logdet(g, C2, Pk, Pa, s2)
        assert abs(a - b) < 1e-9 * (1.0 + abs(b))


def test_monotonicities(rng):
    g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    C2 = _unit_cols(rng, 8, 5)
    base = leakage_eigen(g, C2, 0.15, 0.15, 1.0)
    assert leakage_eigen(g, C2, 0.20, 0.15, 1.0) > base     # more parity power
    assert leakage_eigen(g, C2, 0.15, 0.30, 1.0) < base     # more masking
    assert leakage_eigen(g, C2, 0.15, 0.15, 2.0) < base     # noisier Eve


def test_depends_on_channel_only_through_norm(rng):
    g = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    C2 = _unit_cols(rng, 7, 4)
    U = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
    a = leakage_eigen(g, C2, 0.2, 0.1, 0.8)
    b = leakage_eigen(U @ g, C2, 0.2, 0.1, 0.8)
    assert abs(a - b) < 1e-12 * (1.0 + abs(a))


def test_logdet_size_cap():
    g = np.zeros(64, dtype=complex)
    C2 = np.zeros((80, 80), dtype=complex)
    with pytest.raises(LeakageSizeError, match="leakage_eigen"):
        leakage_logdet(g, C2, 0.1, 0.1, 1.0)


def test_equivocation_bounds():
    assert equivocation_lower(0.0, 40) == 1.0
    assert equivocation_lower(40.0, 40) == 0.0
    assert equivocation_lower(80.0, 40) == -1.0


def test_leakage_report(rng):
    # one user's equivocation bound, bit for bit the eigenvalue form's
    C2 = _unit_cols(rng, 6, 4)
    for _ in range(5):
        g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        leak = leakage_eigen(g, C2, 0.15, 0.15, 1.0)
        assert 0.0 < leak < 8
        assert leakage_report(g, C2, 0.15, 0.15, 1.0, key_bits=8) == 1.0 - leak / 8
