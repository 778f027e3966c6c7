"""The pilot code: the partial-DFT codebook and greedy detection over it.

The pilot segment carries the first Bp bits of a ciphertext as one of 2^Bp
codebook rows.  The codebook is a partial DFT (PartialDft), so every
product with the whole codebook is an N-point FFT (atom_energies,
codebook_products), in double precision.  omp_detect picks the transmitted
rows from a received pilot block with multiple-measurement OMP.

Per frame, pilot detection holds at most PILOT_FFT_VECTORS complex
N-vectors, the (M, np) pilot block in real and imaginary parts and a Gram
block of at most PILOT_GRAM_BLOCK entries or one row, with its frequency
differences (atom_energies); then OMP's picked rows, at most (np, np), their
antenna vectors, (np, M), and the rows of its final fit with their
conjugates (omp_detect).  work_bytes counts them; configurations over
PILOT_WORK_CAP_BYTES are rejected up front, naming the field of the largest
term (work_terms).
"""

import math
from dataclasses import dataclass

import numpy as np

PILOT_WORK_CAP_BYTES = 1 << 30
PILOT_GRAM_BLOCK = 1 << 16
PILOT_FFT_VECTORS = 8

# The atom energies are fourth powers of a codebook entry's magnitude
# sqrt(Pp), summed over symbols, antennas and users.  Magnitudes in
# [2^-128, 2^128], Pp in PILOT_POWER_RANGE, keep those powers within
# 2^+-512, far inside float64's range; past it OMP's energy updates can
# overflow (Pp = 1e150 did at M = 50, np = 200).
PILOT_POWER_RANGE = (2.0 ** -256, 2.0 ** 256)

#: probability that OMP picks any atom in a call whose residual is pure noise
OMP_FALSE_ALARM = 1e-2


def fft_len(Bp: int, n_obs: int) -> int:
    """N, the smallest power of two >= 2^Bp and >= n_obs = np."""
    return 1 << max(Bp, (n_obs - 1).bit_length())


def work_terms(Bp: int, n_obs: int, M: int) -> dict[str, int]:
    """work_bytes's terms, 16 bytes an entry, by the field that sizes them:
    Bp the PILOT_FFT_VECTORS N-vectors, np two (np, np) arrays and a Gram
    block with its indices (8 + 8 bytes an entry), M two (np, M) arrays."""
    return {"Bp": 16 * PILOT_FFT_VECTORS * fft_len(Bp, n_obs),
            "np": 16 * (2 * n_obs * n_obs + max(n_obs, PILOT_GRAM_BLOCK)),
            "M": 16 * 2 * n_obs * M}


def work_bytes(Bp: int, n_obs: int, M: int) -> int:
    """Bytes pilot detection holds per frame at most (work_terms)."""
    return sum(work_terms(Bp, n_obs, M).values())


@dataclass(frozen=True)
class PartialDft:
    """The pilot codebook: 2^Bp rows of the N-point DFT, restricted to np
    distinct frequencies s_t and scaled to energy np * Pp.

    Row j holds sqrt(Pp) exp(2 pi i j s_t / N) at symbol t.  No row is
    stored: indexing forms rows from the table of N twiddles
    sqrt(Pp) exp(2 pi i k / N), entry (j s_t) mod N, so a row is the same
    bytes whenever and however it is read.  Since the source paper does not
    fix the codebook, this is a design choice: the subsampled-DFT design
    matrix of Fengler, Jung and Caire, "SPARCs for unsourced random access",
    IEEE TIT 2021.
    """
    freqs: np.ndarray      # (np,) distinct integers in [0, N)
    twiddles: np.ndarray   # (N,) sqrt(Pp) exp(2 pi i k / N); twiddles[0] = sqrt(Pp)
    count: int             # 2^Bp rows

    @classmethod
    def draw(cls, rng: np.random.Generator, Bp: int, n_obs: int, Pp: float) -> "PartialDft":
        """The codebook of 2^Bp rows on n_obs frequencies, drawn from rng
        by one choice of n_obs of the N."""
        n = fft_len(Bp, n_obs)
        return cls(rng.choice(n, n_obs, replace=False),
                   np.sqrt(Pp) * np.exp(2j * np.pi / n * np.arange(n)), 1 << Bp)

    @property
    def amplitude(self) -> float:
        """sqrt(Pp), the magnitude of every entry."""
        return float(self.twiddles[0].real)

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, idx) -> np.ndarray:
        """The complex128 rows at idx: an index, a sequence of them or a slice."""
        j = np.asarray(range(self.count)[idx] if isinstance(idx, slice) else idx)
        if np.any((j < 0) | (j >= self.count)):
            raise IndexError(f"pilot index outside the {self.count}-row codebook")
        return self._rows(j)

    def _rows(self, j):
        """The rows at valid indices j, an int or an array of them."""
        return self.twiddles[np.multiply.outer(j, self.freqs) & (len(self.twiddles) - 1)]


def omp_noise_floor(M: int, n_atoms: int, sigma2: float, atom_energy: float) -> float:
    """Residual correlation energy below which OMP takes an atom for noise.

    For an atom p on a pure-noise residual (M antennas, noise variance
    sigma2), ||gamma_j||^2 is sigma2 ||p||^2 Gamma(M, 1).  The Laurent-Massart
    chi-square tail (Ann. Statist. 2000) gives P(Gamma(M, 1) >= c M) <=
    exp(-x) for c = 1 + sqrt(2x/M) + x/M, so with x = ln(n_atoms /
    OMP_FALSE_ALARM) the largest of n_atoms noise energies exceeds
    c sigma2 M ||p||^2 with probability at most OMP_FALSE_ALARM (union bound;
    the stopping rule of Cai and Wang, "Orthogonal matching pursuit for
    sparse signal recovery with noise", IEEE Trans. IT 2011).  So a pass
    after every user is decoded picks nothing, rather than noise atoms for
    the polar decoder to reject.
    """
    x = math.log(n_atoms / OMP_FALSE_ALARM)
    c = 1.0 + math.sqrt(2.0 * x / M) + x / M
    return c * sigma2 * M * atom_energy


def omp_frame_floor(Y_p: np.ndarray, noise_floor: float, atom_energy: float) -> float:
    """The floor for every OMP call on a frame whose received pilot block is
    Y_p: noise_floor, raised to 1e-12 of ||Y_p||_F^2 atom_energy.

    By Cauchy-Schwarz no atom energy of Y_p exceeds ||Y_p||_F^2 ||p||^2.
    omp_detect's energy updates round at about 1e-16 of the energies they
    start from, and a later pass's residual is, at high SNR, the rounding
    residue of that signal; below this floor a pick would be rounding, not a
    user: with the noise floor alone, one M = 50, Ka = 10 frame decoded 40
    never-sent ciphertexts at Pp = 1e15.  At ordinary SNR the noise floor is
    the larger.  A floor relative to one call's own energies would not do,
    since it scales with that residue.
    """
    return max(noise_floor, 1e-12 * float(np.vdot(Y_p, Y_p).real) * atom_energy)


def atom_energies(Y: np.ndarray, P: PartialDft) -> np.ndarray:
    """(2^Bp,) energies ||Y p_j^H||^2 of every atom's correlation with the
    rows of Y, with no (n, 2^Bp) correlation formed.

    With p_j[t] = a exp(2 pi i j s_t / N), a = sqrt(Pp), the energy is
        a^2 sum_{t, t'} G[t, t'] exp(-2 pi i j (s_t - s_t') / N),
    G = Y^T conj(Y), the (np, np) Gram: G summed onto the frequency
    differences s_t - s_t' mod N by bincount is a Hermitian N-vector D, and
    one real-output FFT of it gives every atom's energy.  G is formed in
    blocks of rows of at most PILOT_GRAM_BLOCK entries (one block at full
    scale), in real arithmetic: with X = [Re Y; Im Y], Re G = X^T X, and
    Im G = A - A^T for A = (Im Y)^T Re Y, so Im D[k] = b[k] - b[-k], b the
    sum of A onto the differences.
    """
    n, m, M = len(P.twiddles), len(P.freqs), len(Y)
    X = np.concatenate([Y.real, Y.imag])
    re, b = np.zeros(n), np.zeros(n)
    step = max(1, PILOT_GRAM_BLOCK // m)
    for i in range(0, m, step):
        d = (P.freqs[i:i + step, None] - P.freqs).ravel()
        d &= n - 1
        re += np.bincount(d, (X[:, i:i + step].T @ X).ravel(), n)
        b += np.bincount(d, (X[M:, i:i + step].T @ X[:M]).ravel(), n)
    k = np.arange(n // 2 + 1)
    D = re[k] + 1j * (b[k] - b[-k])
    return P.amplitude ** 2 * np.fft.hfft(D, n)[:P.count]


def codebook_products(V: np.ndarray, P: PartialDft) -> np.ndarray:
    """(k, 2^Bp) products V P^H of k rows with every atom, with no row of P
    formed: (V P^H)[i, j] = sqrt(Pp) sum_t V[i, t] exp(-2 pi i j s_t / N)
    is output j of the N-point FFT of sqrt(Pp) V[i] scattered onto the
    frequencies s_t."""
    Z = np.zeros((len(V), len(P.twiddles)), dtype=np.complex128)
    Z[:, P.freqs] = P.amplitude * V
    return np.fft.fft(Z)[:, :P.count]


def _grown(a: np.ndarray, cap: int) -> np.ndarray:
    """a with twice its rows (one if it has none, at most cap), the first
    len(a) copied."""
    out = np.empty((min(max(2 * len(a), 1), cap),) + a.shape[1:], dtype=a.dtype)
    out[:len(a)] = a
    return out


def omp_detect(Y: np.ndarray, P: PartialDft, noise_floor: float) -> list[tuple[int, np.ndarray]]:
    """Greedy multiple-measurement OMP over the pilot codebook rows.

    Selects the atom with the largest residual correlation energy across
    antennas (all codebook rows have energy np * Pp) and keeps the residual
    orthogonal to the span of the selected atoms (equivalent to a
    least-squares re-fit per step).  It stops when the best atom's energy is
    at most noise_floor (see omp_noise_floor), needing no sparsity level,
    after n_obs picks, or on an atom in the span of those picked.  Returns
    each pick's (pilot_index, channel_estimate) from a final LS fit.

    The energies start as atom_energies(Y, P) and are updated in place of
    being recomputed, with no correlation held.  After k picks the residual
    is R = Y - U^T Q, Q the (k, n_obs) orthonormalized picked rows and
    U^T = Y Q^H.  A step with the next row q and u = Y q^H takes u r from
    the residual's correlation R P^H, r = q P^H, so
        e_j <- e_j - 2 Re(conj(r_j) (w P^H)_j) + |r_j|^2 ||u||^2,
    where w = u^H R = u^H Y - (U u^*) Q.  Both products with the codebook,
    of q and of w, come from one codebook_products call, and the update is
    formed in two preallocated buffers.  The picked rows' buffers grow by
    doubling, so a call that picks few atoms allocates little.
    """
    M, n_obs = Y.shape
    energy = atom_energies(Y, P)
    t1, t2 = np.empty_like(energy), np.empty_like(energy)

    selected = []
    Q = np.empty((0, n_obs), dtype=np.complex128)
    U = np.empty((0, M), dtype=np.complex128)           # U[i] = Y q_i^H
    for k in range(n_obs):   # no q is orthogonal to n_obs orthonormal rows of C^n_obs
        j = int(np.argmax(energy))
        if energy[j] <= noise_floor:
            break
        p = P._rows(j)
        q = p - (Q[:k] @ p.conj()).conj() @ Q[:k]
        q = q - (Q[:k] @ q.conj()).conj() @ Q[:k]   # re-orthogonalize
        nq = np.linalg.norm(q)
        if nq <= 1e-12 * max(1.0, np.linalg.norm(p)):
            break
        q /= nq
        u = Y @ q.conj()                         # (M,)
        uh = u.conj()
        r, wp = codebook_products(np.stack([q, uh @ Y - (U[:k] @ uh) @ Q[:k]]), P)
        # energy -= 2 (Re r Re wp + Im r Im wp); energy += ||u||^2 |r|^2
        np.add(np.multiply(r.real, wp.real, out=t1), np.multiply(r.imag, wp.imag, out=t2), out=t1)
        t1 *= 2.0
        energy -= t1
        np.add(np.square(r.real, out=t1), np.square(r.imag, out=t2), out=t1)
        t1 *= float(np.vdot(u, u).real)
        energy += t1
        energy[j] = -np.inf                      # a picked atom is never picked again
        if k == len(Q):
            Q, U = _grown(Q, n_obs), _grown(U, n_obs)
        Q[k], U[k] = q, u
        selected.append(j)

    if not selected:
        return []
    del Q, U                                     # the fit forms the picked rows whole
    A = P[selected]
    B = Y @ A.conj().T                           # (M, k)
    G = A @ A.conj().T                           # (k, k)
    try:
        H = np.linalg.solve(G.T, B.T).T
    except np.linalg.LinAlgError:
        H = B @ np.linalg.pinv(G)
    return [(idx, H[:, i].copy()) for i, idx in enumerate(selected)]
