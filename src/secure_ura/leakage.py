"""Analytic eavesdropper leakage bound and equivocation.

Two equivalent evaluations of the same log-det bound: a cheap eigenvalue
form used everywhere, and an explicit Kronecker-structured covariance form
kept as a cross-checking oracle for small problem sizes.  Both are in bits
(base-2 logs), so the equivocation normalizes cleanly by the S-bit key
entropy.  No eavesdropper decoder is simulated; the bound already assumes
interference-free, perfect-CSI reception.
"""

import numpy as np

LOGDET_SIZE_CAP = 4096


class LeakageSizeError(ValueError):
    """Explicit-covariance oracle asked for an infeasibly large matrix."""


def leakage_eigen(g: np.ndarray, C2: np.ndarray, Pk: float, Pa: float,
                  sigma_e2: float) -> float:
    """Upper bound (bits) on key leakage via the eigenvalues of C2^H C2."""
    g_norm2 = float(np.sum(np.abs(g) ** 2))
    lam = np.clip(np.linalg.eigvalsh(C2.conj().T @ C2), 0.0, None)
    terms = np.log1p(Pk * g_norm2 / (sigma_e2 + Pa * lam * g_norm2))
    return float(terms.sum() / np.log(2.0))


def leakage_logdet(g: np.ndarray, C2: np.ndarray, Pk: float, Pa: float,
                   sigma_e2: float) -> float:
    """Same bound from the explicit E(ns-S)-dimensional covariances."""
    E = g.shape[0]
    d = C2.shape[1]
    if E * d > LOGDET_SIZE_CAP:
        raise LeakageSizeError(
            f"covariance dimension {E * d} exceeds {LOGDET_SIZE_CAP}; "
            "use leakage_eigen instead")
    gg = np.outer(g, g.conj())
    cov_signal = Pk * np.kron(np.eye(d), gg)
    cov_mask = Pa * np.kron(C2.conj().T @ C2, gg) + sigma_e2 * np.eye(E * d)
    A = np.eye(E * d) + np.linalg.solve(cov_mask, cov_signal)
    _, logdet = np.linalg.slogdet(A)
    return float(max(logdet, 0.0) / np.log(2.0))


def equivocation_lower(leak_bits: float, key_bits: int) -> float:
    """Lower bound on the eavesdropper's normalized key equivocation."""
    return 1.0 - leak_bits / key_bits


def leakage_report(g: np.ndarray, C2: np.ndarray, Pk: float, Pa: float,
                   sigma_e2: float, key_bits: int) -> float:
    """Equivocation lower bound of one user whose eavesdropper channel is g."""
    return equivocation_lower(leakage_eigen(g, C2, Pk, Pa, sigma_e2), key_bits)
