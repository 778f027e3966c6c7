"""Base-station receiver: iterative pilot/polar decoding, then key recovery.

decode_frame runs two stages over a batch of frames.  The iterative stage
(iterative_decode) alternates OMP pilot detection (pilots.omp_detect), MMSE
soft demodulation with CRC-aided polar decoding (polar_decode) and
least-squares channel re-estimation with successive interference
cancellation.  The key stage (decode_keys_and_decrypt) reconciles each
decoded user's key from its key segment through the LDPC code and decrypts
its ciphertext.  Neither reads the active-user count cfg.Ka.  Each stage
hands its decoder the words of every frame at once and splits the result
back per frame in one place, _decode_blocks.
"""

import math
from typing import NamedTuple

import numpy as np

from .config import SystemConfig
from .crypto import decrypt, expand_key
from .keys import artificial_noise, extract_key, standardize
from .modulation import clamp_llr
from .params import PublicParams
from .pilots import omp_detect, omp_frame_floor, omp_noise_floor
from .polar import PolarCode
from .transmitter import index_to_bits, pilot_polar_rows

#: the polar list size and the LDPC decoder's belief-propagation iterations
LIST_SIZE = 8
BP_ITERS = 50

# numpy has no erfc ufunc; the standard library's keeps the package numpy-only
_erfc = np.vectorize(math.erfc, otypes=[np.float64])


class DecodedSplit(NamedTuple):
    """One frame's decoded users at one power split, one row per CRC-passing
    user in decoding order.

    C_hat (k, B) ciphertexts and valid (k,) are the same arrays at every
    split of a frame.  valid[i] is False where user i's feedback estimate is
    degenerate: its mask is not cancelled, its S_hat (k, S) and W_hat (k, B)
    rows mean nothing, and converged[i] (k,), the LDPC flag, is False.
    """
    C_hat: np.ndarray
    S_hat: np.ndarray
    W_hat: np.ndarray
    converged: np.ndarray
    valid: np.ndarray


def feature_noise_variances(cfg: SystemConfig, params: PublicParams) -> np.ndarray:
    """(S/2,) noise variances of the systematic features u_j and u_{S/2+j}.

    The feedback estimate carries the channel-estimate noise through V plus
    the user's own feedback noise; its covariance, centered and projected
    on each C1 column, gives twice the per-feature variance.
    """
    denom = cfg.np * cfg.Pp + cfg.nc * cfg.Pc   # > 0: validate() rejects Pp = Pc = 0
    L = cfg.L
    V = params.V
    sigma_y = V.conj().T @ V * (cfg.sigma_c2 / denom) + cfg.sigma_u2 * np.eye(L)
    O = np.eye(L) - np.full((L, L), 1.0 / L)
    mid = O @ sigma_y @ O
    quad = np.einsum("ji,jk,ki->i", params.C1.conj(), mid, params.C1)
    sigma_uj2 = 0.5 * quad.real
    if not np.all(sigma_uj2 > 0):
        raise ValueError("non-positive feature noise variance")
    return sigma_uj2


# ---------------------------------------------------------------------------
# MMSE soft estimates and LLRs
# ---------------------------------------------------------------------------


def _mmse_bpsk_llr(Y: np.ndarray, H: np.ndarray, power: float,
                   sigma2: float) -> np.ndarray:
    """Per-user LLRs of BPSK symbols observed through a user superposition.

    Soft symbols are sqrt(power) h^H R^{-1} Y with R the signal-plus-noise
    covariance; the LLR scales the soft symbol by the user's diagonal MMSE
    error term delta.
    """
    M = Y.shape[0]
    R = power * (H @ H.conj().T) + sigma2 * np.eye(M)
    RinvH = np.linalg.solve(R, H)                 # (M, k)
    x_soft = np.sqrt(power) * RinvH.conj().T @ Y  # (k, n)
    delta = 1.0 - power * np.einsum("ij,ij->j", H.conj(), RinvH).real
    if not np.all(delta > 0):
        raise FloatingPointError("non-positive MMSE error term")
    llr = 2.0 * np.sqrt(power) * x_soft.real / delta[:, None]
    return clamp_llr(llr)


def mmse_polar_llr(Y_d: np.ndarray, H_hat: np.ndarray, Pc: float,
                   sigma_c2: float) -> np.ndarray:
    """LLRs of the polar-segment symbols for every detected user."""
    if H_hat.shape[1] == 0:
        raise ValueError("no detected users")
    return _mmse_bpsk_llr(Y_d, H_hat, Pc, sigma_c2)


def llr_parity(Y_k_clean: np.ndarray, H_hat: np.ndarray, Pk: float,
               sigma_c2: float) -> np.ndarray:
    """LLRs of the key-segment parity symbols after noise cancellation."""
    return _mmse_bpsk_llr(Y_k_clean, H_hat, Pk, sigma_c2)


def llr_systematic(u_hat: np.ndarray, var_y_hat, sigma_uj2: np.ndarray) -> np.ndarray:
    """LLRs of the systematic key bits from the projected feedback estimate.

    The statistic a = sqrt(var/sigma_uj^2) * u_hat is a Gaussian-noise view
    of the user's original feature; the bit LLR is log Q(a) - log(1 - Q(a))
    = log erfc(a/sqrt 2) - log erfc(-a/sqrt 2).  Both tails are taken from
    erfc, since 1 - Q(a) formed by subtraction loses the small one; erfc
    underflows to 0 beyond |a| ~ 37.6, where the log's -inf clamps to the
    same +-LLR_CLAMP as the exact value.  NaN propagates.  The j-th and
    (S/2+j)-th features share one noise variance sigma_uj2[j] (see
    feature_noise_variances).
    """
    u_hat = np.asarray(u_hat, dtype=np.float64)
    sig2 = np.concatenate([sigma_uj2, sigma_uj2])
    a = u_hat * np.sqrt(np.asarray(var_y_hat)[..., None] / sig2)
    t = a / math.sqrt(2.0)
    with np.errstate(divide="ignore"):
        return clamp_llr(np.log(_erfc(t)) - np.log(_erfc(-t)))


# ---------------------------------------------------------------------------
# Algorithm stages
# ---------------------------------------------------------------------------


def polar_decode(llr: np.ndarray, code: PolarCode) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive CRC-aided decode of a (batch, N) block of polar LLRs (Li,
    Zhang and Xu, IEEE Commun. Lett. 2012): every word at list size 1, then
    the words that fail the CRC again at LIST_SIZE, their rows overwritten.

    Returns code.decode's (payload, crc_ok).  A word that passes at list
    size 1 keeps that payload, where the list decoder might have preferred
    another passing path.  Both stages decode each row as it decodes alone,
    so a row's result does not depend on the others.  By the union bound
    over the paths that reach the CRC, a pure-noise word passes with
    probability at most (1 + LIST_SIZE) 2^-crc_width.
    """
    payloads, ok = code.decode(llr, 1)
    retry = np.flatnonzero(~ok)
    if len(retry):
        payloads[retry], ok[retry] = code.decode(llr[retry], LIST_SIZE)
    return payloads, ok


def _decode_blocks(decode, blocks: list[np.ndarray], *args):
    """Run decode once over the rows of every block, stacked in order, and
    split its (words, flags) result back: an iterator of one pair per block.

    The polar and LDPC decoders treat their rows independently, so each
    block's pair is the one it gets alone.
    """
    words, flags = decode(np.concatenate(blocks), *args)
    cuts = np.cumsum([len(b) for b in blocks])[:-1]
    return zip(np.split(words, cuts), np.split(flags, cuts))


class _FrameState:
    """One frame's progress through iterative_decode."""

    def __init__(self, y_bs: np.ndarray, cfg: SystemConfig, floor: float):
        self.Y_pp = y_bs[:, :cfg.np + cfg.nc]
        self.floor = omp_frame_floor(y_bs[:, :cfg.np], floor, cfg.np * cfg.Pp)
        self.C_hat = np.zeros((0, cfg.B), dtype=np.uint8)
        # rows of C_hat's signals, and the LS fit to them
        self.X = np.zeros((0, cfg.np + cfg.nc), dtype=np.complex128)
        self.H_hat = np.zeros((cfg.M, 0), dtype=np.complex128)

    def detect(self, cfg: SystemConfig, params: PublicParams
               ) -> tuple[list[tuple[int, np.ndarray]], np.ndarray]:
        """This pass's OMP detections and the residual they are picked from:
        Y_pp less the signals of the last SIC, formed here so that a batch's
        frames do not hold theirs between passes."""
        residual = self.Y_pp - self.H_hat @ self.X if len(self.C_hat) else self.Y_pp
        return omp_detect(residual[:, :cfg.np], params.P, self.floor), residual


def iterative_decode(ys: list[np.ndarray], cfg: SystemConfig, params: PublicParams
                     ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Iterate pilot detection, polar decoding and SIC until nothing new decodes.

    ys holds a batch of uplink blocks, one per frame; only the first
    np + nc columns of each, the pilot and polar segments, are read, and
    the user count is never read.  Returns per frame (C_hat, H_hat): the
    (k, B) ciphertexts of the CRC-passing users in decoding order and their
    final least-squares channel estimates (M, k).

    The frames run in lockstep: in each pass, OMP and MMSE run per frame,
    one polar_decode covers every frame's LLR rows, so its two decoder
    calls each take the rows of every frame at once, and LS/SIC runs per
    frame; a frame leaves when its decoded set stops growing, and every
    frame after cfg.max_outer_iters passes.  Each frame's outputs are those
    it gives alone.  Every pass runs OMP on its frame's residual, which it
    forms from the last SIC's fit and which does not outlive the pass, at
    one floor per frame, set from its received pilot block
    (pilots.omp_frame_floor).
    """
    floor = omp_noise_floor(cfg.M, len(params.P), cfg.sigma_c2, cfg.np * cfg.Pp)
    frames = [_FrameState(y_bs, cfg, floor) for y_bs in ys]
    live = frames
    for _ in range(cfg.max_outer_iters):
        # (frame, pilots, LLRs) of the frames with picks
        found = []
        for f in live:
            detections, residual = f.detect(cfg, params)
            if detections:
                Hd = np.stack([h for _, h in detections], axis=1)
                llrs = mmse_polar_llr(residual[:, cfg.np:], Hd, cfg.Pc, cfg.sigma_c2)
                found.append((f, np.array([j for j, _ in detections]), llrs))
        if not found:
            break
        decoded = _decode_blocks(polar_decode, [llrs for *_, llrs in found], params.polar)
        live = []
        for (f, pilots, _), (payloads, ok) in zip(found, decoded):
            C_pass = np.concatenate([index_to_bits(pilots, cfg.Bp), payloads], axis=1)
            # words already decoded are skipped (one the LS fallback dropped
            # may return); a pass picks distinct atoms, so its own words
            # differ in their first Bp bits
            known = {c.tobytes() for c in f.C_hat}
            new = [i for i in np.flatnonzero(ok) if C_pass[i].tobytes() not in known]
            if not new:
                continue
            C_hat = np.concatenate([f.C_hat, C_pass[new]])
            X = np.concatenate([f.X, pilot_polar_rows(C_pass[new], cfg, params)])

            # least-squares re-estimation over the whole decoded set, then
            # SIC; a singular Gram matrix drops the newest user.  A frame
            # stays live only while its set grows: an unchanged set would
            # repeat this pass
            while len(C_hat):
                G = X @ X.conj().T
                try:
                    f.H_hat = np.linalg.solve(G.T, (f.Y_pp @ X.conj().T).T).T
                    break
                except np.linalg.LinAlgError:
                    C_hat, X = C_hat[:-1], X[:-1]
            if len(C_hat) > len(f.C_hat):
                live.append(f)
            f.C_hat, f.X = C_hat, X

    # an emptied set keeps no stale estimate
    return [(f.C_hat, f.H_hat[:, :len(f.C_hat)]) for f in frames]


def decode_keys_and_decrypt(C_hats: list[np.ndarray], H_hats: list[np.ndarray],
                            y_ks: list[list[np.ndarray]], cfg: SystemConfig, splits,
                            params: PublicParams) -> list[list[DecodedSplit]]:
    """Recover every decoded user's key and decrypt its ciphertext, per frame
    of a batch and per split.

    C_hats[f] and H_hats[f] are frame f's decoded ciphertexts and channel
    estimates, and y_ks[f][i] its key segment received at the (Pa, Pk)
    pair splits[i].  By reciprocity, row i of H_hat^T V estimates user i's
    feedback vector; the key code of `keys` turns the (k, L) block into
    features and masks.  It is called on each frame's whole block, since
    row-by-row products round differently.  A frame's feedback estimate and
    systematic LLRs are formed once; each split cancels its own mask,
    keys.artificial_noise at its Pa, and forms its parity LLRs at its Pk.
    One LDPC decode covers every frame's and every split's words, which
    decode independently of each other.

    Returns per frame one DecodedSplit per split, whose C_hat is C_hats[f].
    """
    sigma_uj2 = feature_noise_variances(cfg, params)
    blocks, valids = [], []
    for H_hat, y_k in zip(H_hats, y_ks, strict=True):
        Y_bar, var, valid = standardize(H_hat.T @ params.V)
        U_hat, _ = extract_key(Y_bar, params.C1)
        f_sys = llr_systematic(U_hat, var, sigma_uj2)
        for b, (pa, pk) in zip(y_k, splits, strict=True):
            mask = artificial_noise(Y_bar[valid], params.C2, pa)
            f_parity = llr_parity(b - H_hat[:, valid] @ mask, H_hat, pk, cfg.sigma_c2)
            blocks.append(np.concatenate([f_sys, f_parity], axis=1))
        valids.append(valid)

    decoded = _decode_blocks(params.ldpc.decode, blocks, BP_ITERS)
    return [[DecodedSplit(C_hat, S_hat, decrypt(C_hat, expand_key(S_hat, params.T)),
                          converged & valid, valid)
             for S_hat, converged in [next(decoded) for _ in splits]]
            for C_hat, valid in zip(C_hats, valids, strict=True)]


def decode_frame(ys: list[np.ndarray], y_ks: list[list[np.ndarray]],
                 cfg: SystemConfig, splits, params: PublicParams
                 ) -> list[list[DecodedSplit]]:
    """Run the complete receiver on a batch of frames, each sent at one or
    more power splits.

    ys[f] is frame f's (M, np + nc) pilot+polar block, the same at every
    split, and y_ks[f][i] its (M, ns - S) key segment at the (Pa, Pk) pair
    splits[i]; a segment of another shape is a ValueError.  The iterative
    stage and the key stage each run once for the batch, the key stage over
    every split's key segment; it reads only the decoded ciphertexts and
    channel estimates the iterative stage returns.  Returns per frame the
    key stage's DecodedSplit per split.  Each frame's outputs are those it
    gives when decoded alone.
    """
    expected = [(cfg.M, cfg.np + cfg.nc)] + [(cfg.M, cfg.key_parity_len)] * len(splits)
    for y, y_k in zip(ys, y_ks, strict=True):
        shapes = [y.shape] + [b.shape for b in y_k]
        if shapes != expected:
            raise ValueError(f"frame segments have shapes {shapes}, expected {expected}")
    C_hats, H_hats = zip(*iterative_decode(ys, cfg, params))
    return decode_keys_and_decrypt(C_hats, H_hats, y_ks, cfg, splits, params)
