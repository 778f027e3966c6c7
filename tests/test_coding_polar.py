import numpy as np
import pytest

from secure_ura import Crc, PolarCode, bpsk_map, bpsk_power_check, default_crc_poly, polar_transform
from secure_ura.polar import _crc_matrix

from helpers import sc_decode_reference


@pytest.fixture(scope="module")
def small_code():
    return PolarCode.design(64, 24, Crc(default_crc_poly(11), 11), design_snr=0.3)


@pytest.fixture(scope="module")
def big_code():
    return PolarCode.design(512, 99, Crc(default_crc_poly(11), 11), design_snr=0.3)


def test_transform_is_involution(rng):
    u = rng.integers(0, 2, (10, 128), dtype=np.uint8)
    assert np.array_equal(polar_transform(polar_transform(u)), u)


def test_design_sanity(big_code):
    assert big_code.frozen_mask[0]          # worst synthetic channel
    assert not big_code.frozen_mask[511]    # best synthetic channel
    assert big_code.info_pos.shape == (99,)
    assert big_code.payload_bits == 88


def test_zero_noise_round_trip_1000(big_code, rng):
    payload = rng.integers(0, 2, (1000, 88), dtype=np.uint8)
    cw = big_code.encode(payload)
    dec, ok = big_code.decode(np.where(cw == 0, 40.0, -40.0), 8)
    assert ok.all()
    assert np.array_equal(dec, payload)


def test_small_code_noisy_round_trip(small_code, rng):
    payload = rng.integers(0, 2, (300, 13), dtype=np.uint8)
    x = bpsk_map(small_code.encode(payload), 0.3).real
    y = x + rng.normal(0.0, np.sqrt(0.25 / 2), x.shape)
    llr = 4.0 * np.sqrt(0.3) * y / 0.25
    dec, ok = small_code.decode(llr, 8)
    assert ok.mean() > 0.95
    assert np.array_equal(dec[ok], payload[ok])


def test_list_one_matches_plain_sc(small_code, rng):
    for _ in range(100):
        llr = np.clip(rng.normal(0.0, 3.0, 64), -40, 40)
        u_ref, _ = sc_decode_reference(llr.astype(np.float64), small_code.frozen_mask)
        ref_payload = u_ref[small_code.info_pos][:small_code.payload_bits]
        dec, _ = small_code.decode(llr, 1)
        assert np.array_equal(dec, ref_payload)


def test_list_one_matches_plain_sc_long(big_code, rng):
    for _ in range(10):
        llr = np.clip(rng.normal(0.0, 3.0, 512), -40, 40)
        u_ref, _ = sc_decode_reference(llr.astype(np.float64), big_code.frozen_mask)
        dec, _ = big_code.decode(llr, 1)
        assert np.array_equal(dec, u_ref[big_code.info_pos][:88])


def test_corrupted_crc_bits_fail_check(big_code, rng):
    # frozen bits stay correct; the CRC field contradicts the payload
    for seed in range(5):
        r = np.random.default_rng(seed)
        payload = r.integers(0, 2, 88, dtype=np.uint8)
        word = np.concatenate([payload, big_code.crc.parity(payload) ^ 1])
        u = np.zeros(512, dtype=np.uint8)
        u[big_code.info_pos] = word
        cw = polar_transform(u)
        _, ok = big_code.decode(np.where(cw == 0, 40.0, -40.0), 8)
        assert not ok


def test_false_pass_rate_on_noise_smoke(big_code, rng):
    noise = rng.normal(0.0, 2.0, (4000, 512))
    _, ok = big_code.decode(noise, 8)
    bound = 8 * 2.0 ** -11
    assert ok.mean() <= 4 * bound  # loose smoke bound; acceptance runs 1e5


def test_crc_detects_single_and_double_errors(big_code, rng):
    crc = big_code.crc
    payload = rng.integers(0, 2, 88, dtype=np.uint8)
    word = np.concatenate([payload, crc.parity(payload)])
    assert crc.check(word)
    n = word.size
    singles = np.tile(word, (n, 1))
    singles[np.arange(n), np.arange(n)] ^= 1
    assert not crc.check(singles).any()
    # all double flips, via syndrome-column distinctness
    M = _crc_matrix(crc.poly, crc.width, n)
    cols = {tuple(row) for row in M.tolist()}
    assert len(cols) == n  # pairwise distinct -> every double error detected
    assert all(any(row) for row in M.tolist())


def test_crc_rejects_wrong_degree():
    with pytest.raises(ValueError):
        Crc(0xB8B, 12)


def test_encoder_validates_payload_length(small_code):
    with pytest.raises(ValueError):
        small_code.encode(np.zeros(40, dtype=np.uint8))


def test_bpsk_mapping_and_power():
    bits = np.array([0, 1, 1, 0], dtype=np.uint8)
    x = bpsk_map(bits, 0.25)
    assert np.allclose(x, [0.5, -0.5, -0.5, 0.5])
    assert not x.imag.any()
    assert bpsk_power_check(x, 0.25)
    assert not bpsk_power_check(x * 1.001, 0.25)
