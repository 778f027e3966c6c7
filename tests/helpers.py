"""Shared test utilities."""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

from secure_ura import decode_frame, decode_keys_and_decrypt, transmit, uplink


def load_tool(name):
    """The module of the script tools/<name>.py."""
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_MINI_CFG = load_tool("fingerprint").MINI_CFG


def make_mini_cfg(**overrides):
    """The fingerprint's MINI_CFG, small dimensions that keep end-to-end runs
    in the millisecond range, with overrides."""
    return dataclasses.replace(_MINI_CFG, **overrides)


def own_split(cfg):
    """The splits argument of a frame sent at cfg's own Pa and Pk."""
    return [(cfg.Pa, cfg.Pk)]


def fail_bound_at(monkeypatch, cfg, trial):
    """Make harness.leakage_report raise ValueError("injected fault") for the
    eavesdropper channel of cfg's trial."""
    from secure_ura import harness
    from secure_ura.rng import complex_normal, stream
    g_bad = complex_normal(stream(cfg.seed, "eve-channel", trial), (cfg.E,))
    leakage_report = harness.leakage_report

    def failing(g, *args):
        if np.array_equal(g, g_bad):
            raise ValueError("injected fault")
        return leakage_report(g, *args)

    monkeypatch.setattr(harness, "leakage_report", failing)


def fail_receiver_at(monkeypatch, cfg, trial):
    """Make receiver.mmse_polar_llr raise FloatingPointError("non-positive
    MMSE error term") on the received block of cfg's trial, marked as
    harness.uplink returns it.  Returns (bad, seen): every block of the
    trial, and the block of each polar-segment MMSE call."""
    from secure_ura import harness, receiver
    from secure_ura.rng import complex_normal, stream
    h_bad = complex_normal(stream(cfg.seed, "bs-channel", trial), (cfg.Ka, cfg.M)).T
    bad, seen = [], []
    uplink, mmse = harness.uplink, receiver.mmse_polar_llr

    def marking(X, X_k, H, sigma2, rng):
        y, y_k = uplink(X, X_k, H, sigma2, rng)
        if np.array_equal(H, h_bad):
            bad.append(y)
        return y, y_k

    def failing(Y_d, *args):
        seen.append(Y_d)
        if any(np.shares_memory(Y_d, y) for y in bad):
            raise FloatingPointError("non-positive MMSE error term")
        return mmse(Y_d, *args)

    monkeypatch.setattr(harness, "uplink", marking)
    monkeypatch.setattr(receiver, "mmse_polar_llr", failing)
    return bad, seen


def frame_len(cfg):
    """Channel uses of a frame at one split: pilot, polar and key segments."""
    return cfg.np + cfg.nc + cfg.key_parity_len


def random_users(cfg, rng, n):
    """n random messages (n, B) and generic feedback vectors (n, L)."""
    W = rng.integers(0, 2, (n, cfg.B), dtype=np.uint8)
    Y = rng.standard_normal((n, cfg.L)) + 1j * rng.standard_normal((n, cfg.L))
    return W, Y


def transmit_frame(W, Y, cfg, params):
    """transmit at cfg's own split, its frame joined into one (Ka, frame_len)
    block [pilot | polar | key]: returns (X, C, S)."""
    X, (X_k,), C, S = transmit(W, Y, cfg, own_split(cfg), params)
    return np.concatenate([X, X_k], axis=1), C, S


def uplink_frame(X, H, sigma2, rng, n_key):
    """uplink of a one-split block whose last n_key columns are the key
    segment, as one received block of the same width."""
    y, (y_k,) = uplink(X[:, :-n_key], [X[:, -n_key:]], H, sigma2, rng)
    return np.concatenate([y, y_k], axis=1)


def decode_one(y_bs, cfg, params):
    """decode_frame on one (M, frame_len) block received at cfg's own split:
    returns its DecodedSplit."""
    n = cfg.np + cfg.nc
    return decode_frame([y_bs[:, :n]], [[y_bs[:, n:]]], cfg, own_split(cfg), params)[0][0]


def decode_keys_one(C_hat, H_hat, y_k, cfg, params):
    """decode_keys_and_decrypt on one frame's key segment received at cfg's
    own split: returns its DecodedSplit."""
    return decode_keys_and_decrypt([C_hat], [H_hat], [[y_k]], cfg, own_split(cfg),
                                   params)[0][0]


def frozen_mask(code):
    """(N,) bool, True at the frozen positions of a PolarCode."""
    mask = np.ones(code.N, dtype=bool)
    mask[code.info_pos] = False
    return mask


def sc_decode_reference(llr, frozen):
    """Plain successive cancellation, recursive reference in the dtype of
    llr: float64, or float32 for the decoder's own arithmetic."""
    N = len(llr)
    if N == 1:
        if frozen[0]:
            return np.array([0], dtype=np.uint8), np.array([0], dtype=np.uint8)
        bit = np.uint8(llr[0] < 0)
        return np.array([bit]), np.array([bit])
    half = N // 2
    t = np.tanh(0.5 * llr[:half]) * np.tanh(0.5 * llr[half:])
    f = 2.0 * np.arctanh(np.clip(t, -0.999999, 0.999999))
    u_left, c_left = sc_decode_reference(f, frozen[:half])
    g = llr[half:] + (1.0 - 2.0 * c_left.astype(llr.dtype)) * llr[:half]
    u_right, c_right = sc_decode_reference(g, frozen[half:])
    return (np.concatenate([u_left, u_right]),
            np.concatenate([c_left ^ c_right, c_right]))
