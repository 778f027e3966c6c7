from dataclasses import replace

import numpy as np
import pytest

from secure_ura import decrypt, encrypt, expand_key, harness
from secure_ura.ldpc import _gf2_rref


def test_zero_key_expands_to_zero(rng):
    T = rng.integers(0, 2, (8, 20), dtype=np.uint8)
    assert not expand_key(np.zeros(8, dtype=np.uint8), T).any()


def test_identity_block_copies_key(rng):
    S, B = 8, 20
    T = np.concatenate([np.eye(S, dtype=np.uint8),
                        np.zeros((S, B - S), dtype=np.uint8)], axis=1)
    s = rng.integers(0, 2, S, dtype=np.uint8)
    k = expand_key(s, T)
    assert np.array_equal(k[:S], s)
    assert not k[S:].any()


def test_expansion_is_linear(rng):
    T = rng.integers(0, 2, (10, 30), dtype=np.uint8)
    s1 = rng.integers(0, 2, 10, dtype=np.uint8)
    s2 = rng.integers(0, 2, 10, dtype=np.uint8)
    assert np.array_equal(expand_key(s1 ^ s2, T),
                          expand_key(s1, T) ^ expand_key(s2, T))


def test_expand_key_dimension_check(rng):
    with pytest.raises(ValueError):
        expand_key(np.zeros(4, dtype=np.uint8),
                   rng.integers(0, 2, (5, 9), dtype=np.uint8))


def test_encrypt_with_zero_key_is_identity(rng):
    w = rng.integers(0, 2, 50, dtype=np.uint8)
    assert np.array_equal(encrypt(w, np.zeros(50, dtype=np.uint8)), w)


def test_encrypt_message_as_key_gives_zero(rng):
    w = rng.integers(0, 2, 50, dtype=np.uint8)
    assert not encrypt(w, w).any()


def test_encrypt_length_mismatch():
    with pytest.raises(ValueError):
        encrypt(np.zeros(5, dtype=np.uint8), np.zeros(6, dtype=np.uint8))


def test_round_trip_1000(rng):
    w = rng.integers(0, 2, (1000, 40), dtype=np.uint8)
    k = rng.integers(0, 2, (1000, 40), dtype=np.uint8)
    assert np.array_equal(decrypt(encrypt(w, k), k), w)


def test_wrong_key_bit_flips_matching_keystream_positions(rng):
    # one wrong key bit corrupts exactly the columns where its T row is 1
    T = rng.integers(0, 2, (8, 20), dtype=np.uint8)
    s = rng.integers(0, 2, 8, dtype=np.uint8)
    w = rng.integers(0, 2, 20, dtype=np.uint8)
    c = encrypt(w, expand_key(s, T))
    s_bad = s.copy()
    s_bad[3] ^= 1
    w_bad = decrypt(c, expand_key(s_bad, T))
    assert np.array_equal(w_bad != w, T[3].astype(bool))


def test_ciphertext_reveals_the_keystream_null_space(full_cfg, full_params,
                                                     mini_cfg, mini_params):
    # the key expands through the (S, B) matrix T, so for any n with T n = 0
    # (mod 2) the ciphertext gives c.n = w.n whatever the key: only S of a
    # message's B bits can be hidden.  N spans the B - S dimensional null space
    for cfg, params in [(replace(full_cfg, Ka=25), full_params), (mini_cfg, mini_params)]:
        R, pivots = _gf2_rref(params.T)
        free = [j for j in range(cfg.B) if j not in pivots]
        N = np.zeros((cfg.B, len(free)), dtype=np.int64)
        N[free, range(len(free))] = 1
        N[pivots] = R[:len(pivots), free]
        assert not (params.T.astype(np.int64) @ N % 2).any()
        assert len(pivots) == cfg.S and N.shape[1] == cfg.B - cfg.S > 0
        for trial in range(3):
            sent = harness._send_frame(cfg, [(cfg.Pa, cfg.Pk)], trial, params)
            assert np.array_equal(sent.C @ N % 2, sent.messages @ N % 2)
