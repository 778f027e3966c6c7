"""Base-station receiver: iterative pilot/polar decoding, then key recovery.

The iterative stage alternates greedy pilot detection (multiple-measurement
OMP over the codebook), MMSE soft demodulation plus CRC-aided polar list
decoding, and least-squares channel re-estimation with successive
interference cancellation over the pilot+polar segments.  The frame's
correlation with the pilot codebook is formed once; a later pass updates it
by the decoded users' pilot rows instead of correlating its residual anew
(see iterative_decode).  The key stage
forms every decoded user's feedback estimate from its channel estimate,
derives the features and artificial noise from it with the user's own key
code (`keys`), cancels the noise from the key segment, assembles systematic
and parity LLRs, and reconciles the key through the LDPC decoder.

The receiver reads the uplink block as it arrives and returns its decoded
users as aligned arrays, one row per CRC-passing user in decoding order:
ciphertexts, keys, decrypted messages and per-user flags.  It never reads
the active-user count cfg.Ka (see omp_detect).  A frame sent at several
Pa/Pk splits differs only in its key segment, so decode_frame runs the
iterative stage once and the key stage once: only the mask cancellation
and the parity LLRs are formed per split, and one LDPC decode reconciles
every split's keys.
"""

import math

import numpy as np

from .config import SystemConfig
from .crypto import decrypt, expand_key
from .keys import extract_key, standardize
from .modulation import clamp_llr
from .params import PublicParams
from .transmitter import index_to_bits, pilot_polar_rows

#: probability that OMP picks any atom in a call whose residual is pure noise
OMP_FALSE_ALARM = 1e-2
#: deferred rank-1 updates of the OMP correlation matrix applied per flush
OMP_FLUSH_EVERY = 16
# numpy has no erfc ufunc; the standard library's keeps the package numpy-only
_erfc = np.vectorize(math.erfc, otypes=[np.float64])


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
# Step 1: pilot detection and channel estimation
# ---------------------------------------------------------------------------


def omp_noise_floor(M: int, n_atoms: int, sigma2: float, atom_energy: float) -> float:
    """Residual correlation energy below which OMP takes an atom for noise.

    For an atom p on a pure-noise residual (M antennas, noise variance
    sigma2), ||gamma_j||^2 is sigma2 ||p||^2 Gamma(M, 1).  The Laurent-Massart
    chi-square tail gives P(Gamma(M, 1) >= c M) <= exp(-x) for
    c = 1 + sqrt(2x/M) + x/M, so with x = ln(n_atoms / OMP_FALSE_ALARM) the
    largest of n_atoms noise energies exceeds c sigma2 M ||p||^2 with
    probability at most OMP_FALSE_ALARM (union bound).
    """
    x = math.log(n_atoms / OMP_FALSE_ALARM)
    c = 1.0 + math.sqrt(2.0 * x / M) + x / M
    return c * sigma2 * M * atom_energy


def codebook_correlation(Y: np.ndarray, P: np.ndarray) -> np.ndarray:
    """(n, 2^Bp) correlation Y P^H of n observation rows with every atom.

    It is formed as (P @ Y^H)^H, conjugated in place: no second
    codebook-sized array, and no P^H.  The result is the transpose of a
    C-ordered (2^Bp, n) array, so each atom's n values are contiguous.
    """
    gamma = P @ Y.conj().T                       # (2^Bp, n)
    np.conjugate(gamma, out=gamma)
    return gamma.T


def omp_detect(Y: np.ndarray, P: np.ndarray, noise_floor: float,
               gamma: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Greedy multiple-measurement OMP over the pilot codebook rows.

    gamma is the (M, 2^Bp) correlation of Y with every atom, as
    codebook_correlation(Y, P) forms it; the caller may have it already.
    Selects the atom with the largest residual correlation energy across
    antennas (all codebook rows have energy np * Pp) and keeps the residual
    orthogonal to the span of the selected atoms (equivalent to a
    least-squares re-fit per step).  It stops when the best atom's energy is
    at most noise_floor (see omp_noise_floor), needing no sparsity level,
    after n_obs picks, or on an atom in the span of those picked.  Returns
    each pick's (pilot_index, channel_estimate) from a final LS fit.

    The per-atom residual energies e_j = ||gamma_j||^2 are updated in place
    of being recomputed: a step subtracts u r from gamma, so
    e_j <- e_j - 2 Re(conj(r_j) u^H gamma_j) + |r_j|^2 ||u||^2
    (the Gram-column idea of Batch-OMP, applied to the energies only).
    The rank-1 updates of gamma itself are deferred and applied
    OMP_FLUSH_EVERY at a time, in place and 256 atoms at a time: gamma is
    left as it was handed over unless at least OMP_FLUSH_EVERY atoms are
    picked.
    """
    M, n_obs = Y.shape
    # 256 atoms at a time, as params.row_norms: each atom is reduced alone
    # either way, and no codebook-sized temporary is formed
    energy = np.empty(P.shape[0])
    for i in range(0, len(energy), 256):
        g = gamma[:, i:i + 256]
        energy[i:i + 256] = np.sum(g.real ** 2 + g.imag ** 2, axis=0)

    # a q orthogonal to n_obs orthonormal rows of C^n_obs cannot exist
    selected = np.empty(n_obs, dtype=np.intp)
    Q = np.empty((n_obs, n_obs), dtype=np.complex128)
    Qc = np.empty_like(Q)                        # Q.conj(), kept row by row
    U = np.empty((OMP_FLUSH_EVERY, M), dtype=np.complex128)
    R = np.empty((OMP_FLUSH_EVERY, P.shape[0]), dtype=np.complex128)
    pending = 0                                  # rows of U, R not yet in gamma
    k = 0
    while k < n_obs:
        j = int(np.argmax(energy))
        if energy[j] <= noise_floor:
            break
        p = P[j]
        q = p - (Qc[:k] @ p) @ Q[:k]
        q = q - (Qc[:k] @ q) @ Q[:k]             # re-orthogonalize
        nq = np.linalg.norm(q)
        if nq <= 1e-12 * max(1.0, np.linalg.norm(p)):
            break
        q /= nq
        u = Y @ q.conj()                         # (M,)
        r = (P @ q.conj()).conj()                # q @ P^H, (2^Bp,)
        u_energy = float(np.sum(np.abs(u) ** 2))
        Q[k], Qc[k] = q, q.conj()
        selected[k] = j
        energy[j] = -np.inf                      # a picked atom is never picked again
        k += 1

        uh = u.conj()
        ug = uh @ gamma                          # u^H gamma, before this step
        if pending:
            ug -= (U[:pending] @ uh) @ R[:pending]
        ug *= r.conj()
        energy -= 2.0 * ug.real
        energy += u_energy * (r.real ** 2 + r.imag ** 2)
        U[pending], R[pending] = u, r
        pending += 1
        if pending == OMP_FLUSH_EVERY:
            # 256 atoms at a time: no codebook-sized temporary
            for i in range(0, R.shape[1], 256):
                gamma[:, i:i + 256] -= U.T @ R[:, i:i + 256]
            pending = 0

    if not k:
        return []
    selected = selected[:k].tolist()
    A = P[selected]
    B = Y @ A.conj().T                           # (M, k)
    G = A @ A.conj().T                           # (k, k)
    try:
        H = np.linalg.solve(G.T, B.T).T
    except np.linalg.LinAlgError:
        H = B @ np.linalg.pinv(G)
    return [(idx, H[:, i].copy()) for i, idx in enumerate(selected)]


# ---------------------------------------------------------------------------
# Step 2: MMSE soft estimates and LLRs
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


def iterative_decode(y_bs: np.ndarray, cfg: SystemConfig,
                     params: PublicParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Iterate pilot detection, polar decoding and SIC until nothing new decodes.

    Only the first np + nc columns of y_bs, the pilot and polar segments,
    are read; the user count is never read.  Returns (C_hat, H_hat,
    residual): the (k, B) ciphertexts of the CRC-passing users in decoding
    order, their final least-squares channel estimates (M, k), and the
    residual pilot+polar observation.

    The pilot segment Y_p is correlated with the codebook once, as gamma0.
    After a pass the residual's pilot part is Y_p - H_hat X_p, with X_p the
    decoded users' pilot rows, so a later pass starts OMP from
    gamma0 - H_hat (X_p P^H): k codebook rows instead of M.  It correlates
    its residual directly instead when that costs less, k (np + M) >= M np,
    or when the first OMP call picked OMP_FLUSH_EVERY atoms or more and so
    wrote into gamma0.
    """
    Y_pp = y_bs[:, :cfg.np + cfg.nc]
    residual = Y_pp.copy()

    C_hat = np.zeros((0, cfg.B), dtype=np.uint8)
    X = np.zeros((0, cfg.np + cfg.nc), dtype=np.complex128)  # rows of C_hat's signals
    H_hat = np.zeros((cfg.M, 0), dtype=np.complex128)
    floor = omp_noise_floor(cfg.M, cfg.pilot_count, cfg.sigma_c2, cfg.np * cfg.Pp)
    gamma0 = None                                # the frame's codebook correlation

    for _ in range(cfg.max_outer_iters):
        k = len(C_hat)
        if not k:                                # first pass: OMP is handed gamma0
            gamma = gamma0 = codebook_correlation(residual[:, :cfg.np], params.P)
        elif gamma0 is not None and k * (cfg.np + cfg.M) < cfg.M * cfg.np:
            # gamma0 - H_hat (X_p P^H), in one fresh buffer laid out as gamma0
            gamma = codebook_correlation(X[:, :cfg.np], params.P).T @ H_hat.T
            np.subtract(gamma0.T, gamma, out=gamma)
            gamma = gamma.T
        else:
            gamma = codebook_correlation(residual[:, :cfg.np], params.P)
        detections = omp_detect(residual[:, :cfg.np], params.P, floor, gamma)
        if gamma is gamma0 and len(detections) >= OMP_FLUSH_EVERY:
            gamma0 = None                        # OMP has flushed updates into it
        del gamma                                # no other correlation outlives OMP
        if not detections:
            break
        pilots = np.array([j for j, _ in detections])
        Hd = np.stack([h for _, h in detections], axis=1)
        llrs = mmse_polar_llr(residual[:, cfg.np:], Hd, cfg.Pc, cfg.sigma_c2)
        payloads, ok = params.polar.decode(llrs, cfg.list_size)
        C_pass = np.concatenate([index_to_bits(pilots, cfg.Bp), payloads], axis=1)
        known = {c.tobytes() for c in C_hat}    # a user the LS fallback dropped may return
        new = []
        for i in np.flatnonzero(ok):
            tag = C_pass[i].tobytes()
            if tag not in known:
                known.add(tag)
                new.append(i)
        if not new:
            break
        C_hat = np.concatenate([C_hat, C_pass[new]])
        X = np.concatenate([X, pilot_polar_rows(C_pass[new], cfg, params)])

        # least-squares re-estimation over the whole decoded set, then SIC;
        # a singular Gram matrix drops the newest user
        while len(C_hat):
            G = X @ X.conj().T
            try:
                H_hat = np.linalg.solve(G.T, (Y_pp @ X.conj().T).T).T
                break
            except np.linalg.LinAlgError:
                C_hat, X = C_hat[:-1], X[:-1]
        if not len(C_hat):
            break
        residual = Y_pp - H_hat @ X

    # an emptied set keeps no stale estimate
    return C_hat, H_hat[:, :len(C_hat)], residual


def decode_keys_and_decrypt(C_hat: np.ndarray, H_hat: np.ndarray, y_k: list[np.ndarray],
                            cfgs: list[SystemConfig], params: PublicParams
                            ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Recover every decoded user's key and decrypt its ciphertext, at each split.

    By reciprocity, row i of H_hat^T V estimates user i's feedback vector;
    the key code of `keys` turns the (k, L) block into features and masks.
    It is called on the whole block, since row-by-row products round
    differently.  y_k[i] is the key segment received at cfgs[i]'s split;
    the configs are equal but for Pa and Pk.  The feedback estimate, the
    systematic LLRs and the mask projection Y_bar C2 are formed once; each
    split scales the projection by its own sqrt(Pa) to cancel its mask and
    forms its parity LLRs.  One LDPC decode covers every split's words,
    which decode independently of each other.

    Returns one (S_hat, W_hat, converged, valid) tuple per split, one row
    per row of C_hat.  valid[i] is False where user i's estimate is
    degenerate: its mask is not cancelled, its S_hat and W_hat rows mean
    nothing, and converged[i] is False.  valid is the same array in each.
    """
    cfg = cfgs[0]
    Y_bar, var, valid = standardize(H_hat.T @ params.V)
    U_hat, _ = extract_key(Y_bar, params.C1)
    f_sys = llr_systematic(U_hat, var, feature_noise_variances(cfg, params))
    # the mask is artificial_noise, sqrt(Pa) times this projection
    projection = Y_bar[valid] @ params.C2
    f_parity = [llr_parity(b - H_hat[:, valid] @ (np.sqrt(c.Pa) * projection),
                           H_hat, c.Pk, c.sigma_c2) for b, c in zip(y_k, cfgs)]
    f_key = np.concatenate([np.concatenate([f_sys, f], axis=1) for f in f_parity])

    S_hat, converged = params.ldpc.decode(f_key, cfg.bp_iters)
    return [(S, decrypt(C_hat, expand_key(S, params.T)), conv & valid, valid)
            for S, conv in zip(np.split(S_hat, len(cfgs)), np.split(converged, len(cfgs)))]


def decode_frame(y: np.ndarray, y_k: list[np.ndarray], cfgs: list[SystemConfig],
                 params: PublicParams) -> list[tuple[np.ndarray, ...]]:
    """Run the complete receiver on one frame sent at one or more power splits.

    y is the (M, np + nc) pilot+polar block, the same at every split, and
    y_k[i] the (M, ns - S) key segment at cfgs[i]'s split; the configs are
    equal but for Pa and Pk.  The iterative stage and the key stage each run
    once, the key stage over every split's key segment.  Returns one
    (C_hat, S_hat, W_hat, converged, valid) tuple per split, aligned row by
    row; C_hat and valid are the same arrays in each.
    """
    cfg = cfgs[0]
    widths = [y.shape[1]] + [b.shape[1] for b in y_k]
    expected = [cfg.np + cfg.nc] + [cfg.key_parity_len] * len(cfgs)
    if widths != expected:
        raise ValueError(f"frame segments have {widths} columns, expected {expected}")
    C_hat, H_hat, _ = iterative_decode(y, cfg, params)
    return [(C_hat, *keys) for keys in decode_keys_and_decrypt(C_hat, H_hat, y_k, cfgs, params)]
