"""Base-station receiver: iterative pilot/polar decoding, then key recovery.

The iterative stage alternates greedy pilot detection (multiple-measurement
OMP over the codebook), MMSE soft demodulation plus CRC-aided polar list
decoding, and least-squares channel re-estimation with successive
interference cancellation over the pilot+polar segments.  A frame keeps
only the atom energies of its first correlation with the pilot codebook,
from which a later pass may skip its residual's correlation (atoms_left).
The key stage forms every decoded user's feedback estimate from its
channel estimate, derives the features and artificial noise from it with
the user's own key code (`keys`), cancels the noise from the key segment,
assembles systematic and parity LLRs, and reconciles the key through the
LDPC decoder.

Products with the whole pilot codebook (the correlations and OMP's per-step
product) read its complex64 part and are upcast to complex128 before use;
everything else, the atom energies, OMP's updates, the fits and SIC, runs in
double precision on exactly rebuilt rows (see params.PilotCodebook).

The receiver reads the uplink blocks as they arrive and returns each
frame's decoded users as aligned arrays, one row per CRC-passing user in
decoding order: ciphertexts, keys, decrypted messages and per-user flags.
It never reads the active-user count cfg.Ka (see omp_detect).  It decodes
a batch of independent frames in lockstep: pilot detection, MMSE and SIC
run per frame, but one polar decode per pass and one LDPC decode cover
every frame's words, which the decoders treat independently; each such
decode is split back per block in one place, _decode_blocks.  A frame sent
at several power splits, (Pa, Pk) pairs, differs only in its key segment,
so only the mask cancellation and the parity LLRs are per split.
"""

import math

import numpy as np

from .config import SystemConfig
from .crypto import decrypt, expand_key
from .keys import artificial_noise, extract_key, standardize
from .modulation import clamp_llr
from .params import ROW_BLOCK, PilotCodebook, PublicParams
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


def _product_array(P) -> np.ndarray:
    """The array that products with the whole codebook P read: a
    PilotCodebook's complex64 part, or an exact complex128 P itself."""
    return P.single if isinstance(P, PilotCodebook) else P


def codebook_correlation(Y: np.ndarray, P) -> tuple[np.ndarray, np.ndarray]:
    """(n, 2^Bp) correlation gamma = Y P^H of n observation rows with every
    atom, and the (2^Bp,) energies ||gamma_j||^2 of its atoms.

    P is a PilotCodebook or a complex128 array, and the product is formed in
    its product array's precision (complex64 for a PilotCodebook) ROW_BLOCK
    atoms at a time, each block upcast into the complex128 result.  It is
    formed as (P @ Y^H)^H, conjugated in place block by block, so the result
    is the transpose of a C-ordered (2^Bp, n) array and each atom's n values
    are contiguous.  Each block's energies are taken from its (n, ROW_BLOCK)
    view of the result, as params.row_norms reduces rows: each atom is
    reduced alone either way.
    """
    P_prod = _product_array(P)
    Yh = Y.conj().T.astype(P_prod.dtype)         # (np, n)
    gamma = np.empty((len(P_prod), Yh.shape[1]), dtype=np.complex128)
    energy = np.empty(len(P_prod))
    for i in range(0, len(P_prod), ROW_BLOCK):
        block = gamma[i:i + ROW_BLOCK]
        block[...] = P_prod[i:i + ROW_BLOCK] @ Yh
        np.conjugate(block, out=block)
        g = block.T
        energy[i:i + ROW_BLOCK] = np.sum(g.real ** 2 + g.imag ** 2, axis=0)
    return gamma.T, energy


def _confirm_rows(Y: np.ndarray, X: np.ndarray, H: np.ndarray) -> np.ndarray:
    """The 2k rows [H^H Y ; X] whose codebook product _energies_from reads."""
    return np.concatenate([H.conj().T @ Y, X])


def _energies_from(energy0: np.ndarray, corr: np.ndarray, H: np.ndarray) -> np.ndarray:
    """(2^Bp,) atom energies of the residual Y - H X, from those of Y.

    energy0 holds the atom energies of Y's correlation gamma0 (as
    codebook_correlation returns them), and corr is the codebook product of
    _confirm_rows(Y, X, H).  The residual's correlation with atom p_j is
    gamma0_j - H x_j, where x_j = X p_j^H, so its energy is
        ||gamma0_j||^2 - 2 Re <H^H gamma0_j, x_j> + x_j^H (H^H H) x_j,
    and H^H gamma0_j = (H^H Y) p_j^H: both k-vectors come from one
    codebook product of 2k rows, which costs less than the M-row product of
    the residual when 2k < M.  The energies are formed from it in complex128.
    """
    k = H.shape[1]
    hg, x = corr[:k], corr[k:]
    cross = np.einsum("ij,ij->j", hg.conj(), x).real
    quad = np.einsum("ij,ij->j", x.conj(), (H.conj().T @ H) @ x).real
    return energy0 - 2.0 * cross + quad


def _rounding_margin(Y: np.ndarray, H: np.ndarray, rows: np.ndarray,
                     atom_energy: float, u: float) -> float:
    """A bound, at every atom, on |e - e_direct|: e is _energies_from on the
    slice of a codebook product that holds rows = _confirm_rows(Y, X, H),
    with energy0 from codebook_correlation(Y, P), and e_direct the energies
    codebook_correlation(Y - H X, P) gives.

    Each side is bounded against the exact energies of the residual.  Every
    product casts its rows and the codebook to the product dtype, of unit
    roundoff u.  An entry is a complex dot product of length n = np, two
    real sums of 2n products, so it lies within c |a| |b| of the exact one,
    c = sqrt(2) gamma_2n with gamma_m = m u / (1 - m u) (Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, sec. 3.1); gamma_{2n+2} is
    used, covering the casts and the atoms' float64 energy error
    (|a|^2 = atom_energy).  So energy0, a sum of squares of such entries,
    is within c (2 + c) |a|^2 ||Y||_F^2 of the exact energies of Y, and
    e_direct within c (2 + c) |a|^2 ||Y - H X||_F^2 of the residual's.
    With A_i = |a| ||(H^H Y)_i|| and B_i = |a| ||X_i|| bounding user i's
    exact entries, e's cross term 2 Re <hg, x> is within
    2 c (2 + c) sum A_i B_i, and its quad term, as ||H^H H||_2 <= ||H||_F^2,
    within c (2 + c) ||H||_F^2 sum B_i^2.  The float64 roundings, of H^H Y,
    Y - H X and its norm, the energies and the formula, lie within about
    3 M 2^-53 of the same magnitudes (their sums run over at most M antennas
    or users), so 2^-40 of them covers them for M up to 2^11.
    """
    k = H.shape[1]
    m = 2 * (rows.shape[1] + 1)
    c = math.sqrt(2.0) * m * u / (1.0 - m * u)
    bounds = math.sqrt(atom_energy) * np.linalg.norm(rows, axis=1)   # A, then B
    K = H.conj().T @ H
    cross = float(bounds[:k] @ bounds[k:])
    quad = float(K.trace().real) * float(bounds[k:] @ bounds[k:])
    # ||Y - H X||_F^2 = ||Y||_F^2 - 2 Re <H^H Y, X> + <H^H H, X X^H>: the
    # rows give it without forming the residual
    hy, x = rows[:k], rows[k:]
    y2 = np.linalg.norm(Y) ** 2
    r2 = y2 - 2.0 * np.vdot(x, hy).real + np.vdot(K, x @ x.conj().T).real
    direct = atom_energy * (y2 + max(r2, 0.0))
    return (c * (2.0 + c) + 2.0 ** -40) * (2.0 * cross + quad + direct)


def atoms_left(cases, cfg: SystemConfig, P, floor: float) -> list[bool]:
    """Whether each (energy0, Y, X, H) case may have an atom above floor in
    its residual Y - H X: False only where the residual's own correlation,
    codebook_correlation(Y - H X, P), has none, so OMP would pick nothing.

    A case is a frame's first-pass atom energies energy0 of its pilot part
    Y, and the decoded users' pilot rows X and channel estimates H.  The
    cases' rows (_confirm_rows) are stacked, in order, into codebook
    products of at most cfg.M rows each, no more than one first
    correlation's.  A case's energies e are _energies_from its slice, and
    its margin m bounds their distance from the residual's own
    (_rounding_margin), so the residual has no atom above the floor where
    max(e) + m <= floor.
    """
    u = float(np.finfo(_product_array(P).dtype).eps) / 2.0
    groups = []
    for case in cases:
        n = 2 * case[3].shape[1]
        if groups and size + n <= cfg.M:
            groups[-1].append(case)
            size += n
        else:
            groups.append([case])
            size = n

    left = []
    for group in groups:
        rows = [_confirm_rows(Y, X, H) for _, Y, X, H in group]
        corr, _ = codebook_correlation(np.concatenate(rows), P)
        start = 0
        for (energy0, Y, _, H), r in zip(group, rows):
            e = _energies_from(energy0, corr[start:start + len(r)], H)
            start += len(r)
            m = _rounding_margin(Y, H, r, cfg.np * cfg.Pp, u)
            left.append(bool(e.max() + m > floor))
        del corr                         # no two products are held at once
    return left


def _grown(a: np.ndarray, cap: int) -> np.ndarray:
    """a with twice its rows (one if it has none, at most cap), the first
    len(a) copied."""
    out = np.empty((min(max(2 * len(a), 1), cap),) + a.shape[1:], dtype=a.dtype)
    out[:len(a)] = a
    return out


def omp_detect(Y: np.ndarray, P, noise_floor: float,
               gamma: np.ndarray, energy: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Greedy multiple-measurement OMP over the pilot codebook rows.

    P is a PilotCodebook or a complex128 array.  gamma is the (M, 2^Bp)
    correlation of Y with every atom and energy its atom energies, as
    codebook_correlation(Y, P) returns them; the caller has both already,
    and energy is left as it was handed over.
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
    OMP_FLUSH_EVERY at a time, in place and ROW_BLOCK atoms at a time: gamma
    is left as it was handed over unless at least OMP_FLUSH_EVERY atoms are
    picked.  The picked rows' buffers grow by doubling, so a call that
    picks few atoms allocates little.

    Precision: the per-step codebook product r = q P^H is formed in P's
    product precision (complex64 for a PilotCodebook) and upcast; every
    other quantity, the picked rows, q, u, the energies and their updates,
    gamma's updates and the final fit, is complex128 or float64.  The energy
    update cancels to ~1e-7 of the signal energy in single precision, far
    above a low noise floor, so it must not run there.
    """
    M, n_obs = Y.shape
    P_prod = _product_array(P)
    energy = energy.copy()

    # a q orthogonal to n_obs orthonormal rows of C^n_obs cannot exist
    selected = np.empty(n_obs, dtype=np.intp)
    Q = Qc = np.empty((0, n_obs), dtype=np.complex128)   # Qc = Q.conj(), row by row
    U = np.empty((OMP_FLUSH_EVERY, M), dtype=np.complex128)
    R = np.empty((0, len(P_prod)), dtype=np.complex128)
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
        r = P_prod @ q.conj().astype(P_prod.dtype)   # (q P^H)^*, upcast below
        r = r.conj().astype(np.complex128, copy=False)
        u_energy = float(np.sum(np.abs(u) ** 2))
        if k == len(Q):
            Q, Qc = _grown(Q, n_obs), _grown(Qc, n_obs)
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
        if pending == len(R):
            R = _grown(R, OMP_FLUSH_EVERY)
        U[pending], R[pending] = u, r
        pending += 1
        if pending == OMP_FLUSH_EVERY:
            for i in range(0, R.shape[1], ROW_BLOCK):
                gamma[:, i:i + ROW_BLOCK] -= U.T @ R[:, i:i + ROW_BLOCK]
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

    def __init__(self, y_bs: np.ndarray, cfg: SystemConfig):
        self.Y_pp = y_bs[:, :cfg.np + cfg.nc]
        self.C_hat = np.zeros((0, cfg.B), dtype=np.uint8)
        # rows of C_hat's signals, and the LS fit to them
        self.X = np.zeros((0, cfg.np + cfg.nc), dtype=np.complex128)
        self.H_hat = np.zeros((cfg.M, 0), dtype=np.complex128)
        self.energy0 = None              # atom energies of the first correlation

    def pilot_fit(self, cfg: SystemConfig) -> tuple:
        """This frame's (energy0, Y, X, H) case of atoms_left, after the
        last SIC."""
        return self.energy0, self.Y_pp[:, :cfg.np], self.X[:, :cfg.np], self.H_hat

    def detect(self, cfg: SystemConfig, params: PublicParams, floor: float
               ) -> tuple[list[tuple[int, np.ndarray]], np.ndarray]:
        """This pass's OMP detections and the residual they are picked from:
        Y_pp less the signals of the last SIC, formed here so that a batch's
        frames do not hold theirs between passes.  The correlation it forms
        dies here."""
        k = len(self.C_hat)
        residual = self.Y_pp - self.H_hat @ self.X if k else self.Y_pp
        Y_p = residual[:, :cfg.np]
        gamma, energy = codebook_correlation(Y_p, params.P)
        if not k:                            # the first pass: its energies are kept
            self.energy0 = energy
        return omp_detect(Y_p, params.P, floor, gamma, energy), residual


def iterative_decode(ys: list[np.ndarray], cfg: SystemConfig, params: PublicParams
                     ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Iterate pilot detection, polar decoding and SIC until nothing new decodes.

    ys holds a batch of uplink blocks, one per frame; only the first
    np + nc columns of each, the pilot and polar segments, are read, and
    the user count is never read.  Returns per frame (C_hat, H_hat): the
    (k, B) ciphertexts of the CRC-passing users in decoding order and their
    final least-squares channel estimates (M, k).

    The frames run in lockstep: in each pass, OMP and MMSE run per frame,
    one polar decode covers every frame's LLR rows, and LS/SIC runs per
    frame; a frame leaves when it has nothing new.  Each frame's outputs
    are those it gives alone.

    A frame's pilot segment Y_p is correlated with the codebook once, in
    its first pass, and only the atom energies of that correlation are
    kept.  While 2k < M, a later pass skips the frames whose residual
    atoms_left proves has no atom above the noise floor, on which OMP would
    pick nothing; every other frame correlates its residual, and its OMP
    decides.  No correlation outlives its OMP call, and no residual its
    pass: each pass forms it from the last SIC's fit.
    """
    floor = omp_noise_floor(cfg.M, cfg.pilot_count, cfg.sigma_c2, cfg.np * cfg.Pp)
    frames = [_FrameState(y_bs, cfg) for y_bs in ys]
    live = frames
    for _ in range(cfg.max_outer_iters):
        confirming = [f for f in live if 0 < 2 * len(f.C_hat) < cfg.M]
        left = atoms_left([f.pilot_fit(cfg) for f in confirming], cfg, params.P, floor)
        # OMP would stop before its first pick on a confirmed frame
        done = [f for f, has_atom in zip(confirming, left) if not has_atom]
        # (frame, pilots, LLRs) of the frames with picks; the LLRs are held
        # in the polar decoder's float32, which decodes them the same
        found = []
        for f in live:
            if f in done:
                continue
            detections, residual = f.detect(cfg, params, floor)
            if detections:
                Hd = np.stack([h for _, h in detections], axis=1)
                llrs = mmse_polar_llr(residual[:, cfg.np:], Hd, cfg.Pc, cfg.sigma_c2)
                found.append((f, np.array([j for j, _ in detections]), llrs.astype(np.float32)))
        if not found:
            break
        decoded = _decode_blocks(params.polar.decode, [llrs for *_, llrs in found],
                                 cfg.list_size)
        live = []
        for (f, pilots, _), (payloads, ok) in zip(found, decoded):
            C_pass = np.concatenate([index_to_bits(pilots, cfg.Bp), payloads], axis=1)
            known = {c.tobytes() for c in f.C_hat}   # a user the LS fallback dropped may return
            new = []
            for i in np.flatnonzero(ok):
                tag = C_pass[i].tobytes()
                if tag not in known:
                    known.add(tag)
                    new.append(i)
            if not new:
                continue
            C_hat = np.concatenate([f.C_hat, C_pass[new]])
            X = np.concatenate([f.X, pilot_polar_rows(C_pass[new], cfg, params)])

            # least-squares re-estimation over the whole decoded set, then
            # SIC; a singular Gram matrix drops the newest user
            while len(C_hat):
                G = X @ X.conj().T
                try:
                    f.H_hat = np.linalg.solve(G.T, (f.Y_pp @ X.conj().T).T).T
                    break
                except np.linalg.LinAlgError:
                    C_hat, X = C_hat[:-1], X[:-1]
            f.C_hat = C_hat
            if len(C_hat):
                f.X = X
                live.append(f)

    # an emptied set keeps no stale estimate
    return [(f.C_hat, f.H_hat[:, :len(f.C_hat)]) for f in frames]


def decode_keys_and_decrypt(C_hats: list[np.ndarray], H_hats: list[np.ndarray],
                            y_ks: list[list[np.ndarray]], cfg: SystemConfig, splits,
                            params: PublicParams) -> list[list[tuple[np.ndarray, ...]]]:
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

    Returns per frame one (S_hat, W_hat, converged, valid) tuple per split,
    one row per row of C_hats[f].  valid[i] is False where user i's
    estimate is degenerate: its mask is not cancelled, its S_hat and W_hat
    rows mean nothing, and converged[i] is False.  valid is the same array
    at each split.
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

    decoded = _decode_blocks(params.ldpc.decode, blocks, cfg.bp_iters)
    return [[(S_hat, decrypt(C_hat, expand_key(S_hat, params.T)), converged & valid, valid)
             for S_hat, converged in [next(decoded) for _ in splits]]
            for C_hat, valid in zip(C_hats, valids, strict=True)]


def decode_frame(ys: list[np.ndarray], y_ks: list[list[np.ndarray]],
                 cfg: SystemConfig, splits, params: PublicParams
                 ) -> list[list[tuple[np.ndarray, ...]]]:
    """Run the complete receiver on a batch of frames, each sent at one or
    more power splits.

    ys[f] is frame f's (M, np + nc) pilot+polar block, the same at every
    split, and y_ks[f][i] its (M, ns - S) key segment at the (Pa, Pk) pair
    splits[i].  The iterative stage and the key stage each run once for the
    batch, the key stage over every split's key segment; it reads only the
    decoded ciphertexts and channel estimates the iterative stage returns.
    Returns per frame one (C_hat, S_hat, W_hat, converged, valid) tuple per
    split, aligned row by row; C_hat and valid are the same arrays at each
    split.  Each frame's outputs are those it gives when decoded alone.
    """
    expected = [cfg.np + cfg.nc] + [cfg.key_parity_len] * len(splits)
    for y, y_k in zip(ys, y_ks, strict=True):
        widths = [y.shape[1]] + [b.shape[1] for b in y_k]
        if widths != expected:
            raise ValueError(f"frame segments have {widths} columns, expected {expected}")
    decoded = iterative_decode(ys, cfg, params)
    C_hats = [C_hat for C_hat, _ in decoded]
    H_hats = [H_hat for _, H_hat in decoded]
    keys = decode_keys_and_decrypt(C_hats, H_hats, y_ks, cfg, splits, params)
    return [[(C_hat, *split) for split in splits] for C_hat, splits in zip(C_hats, keys)]
