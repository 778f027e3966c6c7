"""Systematic binary LDPC code for key reconciliation.

Construction: column-weight-3 progressive edge growth (Hu, Eleftheriou and
Arnold, IEEE Trans. IT 2005) on the parity-check matrix being filled: each
new edge goes to a check at maximal graph distance from the variable (an
unreached one first), ties broken toward the lowest-degree then
lowest-index check.  A GF(2) column permutation then makes the last
(n - k) columns invertible.
Codewords are [systematic | parity]; only the parity part is transmitted.

Decoding: standard sum-product belief propagation, batched over words, on
an edge list.  Each check's edges are held in ascending variable order and
padded to the largest check degree with slots whose tanh is an exact 1.0;
each variable sums its incoming messages in ascending check order.  These
are the products and sums a dense (checks x variables) layout forms, with
the factors 1.0 and the terms 0.0 of absent edges left out, so the messages
are bit-identical to the dense computation.  The message arrays hold the
words on their last axis, so each slot's messages are contiguous.  A
check's leave-one-out product is its product divided by the slot's tanh,
unless a tanh of the words being decoded is exactly 0 (an erasure), where
an exact formula is used instead.  The convergence check after each
iteration reads the check parities off the same edge lists, and a word
that passes it leaves the batch: words are decoded independently, so a
batch gives each word what it gives alone.
"""

from dataclasses import dataclass, field

import numpy as np

from .modulation import clamp_llr

_TANH_LIMIT = 1.0 - 1e-15
#: edges per variable node; a code needs at least this many parity checks
COL_WEIGHT = 3


def _peg_parity_check(n_checks: int, n_vars: int) -> np.ndarray:
    """Greedy girth-maximizing bipartite graph, deterministic tie-breaking.
    The graph is the boolean H being filled: as boolean products, `c @ H`
    marks the variables on the checks marked in c and `H @ v` the checks on
    the variables marked in v."""
    if COL_WEIGHT > n_checks:
        raise ValueError(f"column weight {COL_WEIGHT} exceeds {n_checks} checks")
    H = np.zeros((n_checks, n_vars), dtype=bool)
    for v in range(n_vars):
        for _ in range(COL_WEIGHT):
            # BFS from v; `level` ends as the checks first reached at the
            # greatest depth
            reached = H[:, v].copy()
            level = reached
            while (new := H @ (level @ H) & ~reached).any():
                reached |= new
                level = new
            candidates = np.flatnonzero(level if reached.all() else ~reached)
            # argmin takes the first of the lowest degrees: the lowest index
            H[candidates[np.argmin(H[candidates].sum(1))], v] = True
    return H.view(np.uint8)


def _gf2_rref(H: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """GF(2) row-reduced echelon form of H and its pivot columns."""
    R = H.copy()
    m, n = R.shape
    pivots = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        sub = np.flatnonzero(R[row:, col])
        if sub.size == 0:
            continue
        p = row + sub[0]
        if p != row:
            R[[row, p]] = R[[p, row]]
        others = np.flatnonzero(R[:, col])
        others = others[others != row]
        R[others] ^= R[row]
        pivots.append(col)
        row += 1
    return R, pivots


@dataclass(frozen=True)
class LdpcCode:
    H: np.ndarray            # (n - k, n) parity-check matrix, systematic layout
    parity_map: np.ndarray   # (n - k, k): parity = parity_map @ s mod 2
    n: int
    k: int
    # derived from H once per code (edge lists: see the module docstring)
    _edge_var: np.ndarray = field(init=False, repr=False)   # (dc, n - k) variable per slot
    _edge_pad: np.ndarray = field(init=False, repr=False)   # (dc, n - k) True on padding
    _var_edges: np.ndarray = field(init=False, repr=False)  # (dv, n) message row per edge

    def __post_init__(self):
        m = self.H.shape[0]
        chk, var = np.nonzero(self.H)
        pos = np.cumsum(self.H, axis=1)[chk, var] - 1     # edge's slot in its check
        rank = np.cumsum(self.H, axis=0)[chk, var] - 1    # its place among its variable's checks
        edge_pad = np.ones((pos.max() + 1, m), dtype=bool)
        edge_pad[pos, chk] = False
        edge_var = np.zeros(edge_pad.shape, dtype=np.int64)
        edge_var[pos, chk] = var
        # each edge's row pos * m + chk in the flat message array, in
        # ascending check order per variable; row edge_pad.size holds a zero
        # message and pads variables of lower degree
        var_edges = np.full((rank.max() + 1, self.n), edge_pad.size)
        var_edges[rank, var] = pos * m + chk
        object.__setattr__(self, "_edge_var", edge_var)
        object.__setattr__(self, "_edge_pad", edge_pad)
        object.__setattr__(self, "_var_edges", var_edges)

    @classmethod
    def build(cls, n: int, k: int) -> "LdpcCode":
        m = n - k
        if m < 1:
            raise ValueError(f"need n > k, got n={n}, k={k}")
        H_raw = _peg_parity_check(m, n)
        R, pivots = _gf2_rref(H_raw)
        if len(pivots) < m:
            raise ValueError(f"construction produced a rank-{len(pivots)} "
                             f"parity-check matrix, need rank {m}")
        non_pivots = [c for c in range(n) if c not in set(pivots)]
        # the parity columns B are H_raw's pivot columns, so R = B^-1 H_raw
        # and its remaining columns hold parity_map = B^-1 A
        H = np.ascontiguousarray(H_raw[:, non_pivots + pivots])
        return cls(H=H, parity_map=R[:, non_pivots], n=n, k=k)

    # ---- encoding -------------------------------------------------------

    def encode(self, s: np.ndarray) -> np.ndarray:
        """Parity bits of the systematic codeword [s, parity]. Batched over leading axes."""
        s = np.asarray(s, dtype=np.uint8)
        if s.shape[-1] != self.k:
            raise ValueError(f"key length {s.shape[-1]} != {self.k}")
        return (s.astype(np.int64) @ self.parity_map.T.astype(np.int64) % 2).astype(np.uint8)

    def syndrome(self, codeword: np.ndarray) -> np.ndarray:
        c = np.asarray(codeword, dtype=np.int64)
        return (c @ self.H.T.astype(np.int64) % 2).astype(np.uint8)

    def _fails_a_check(self, bits: np.ndarray) -> np.ndarray:
        """(batch,) True where a word, a column of (n, batch) bits, has a
        nonzero syndrome.

        Each check's parity is read off its edge list, since the integer
        product in syndrome runs without BLAS.
        """
        ones = bits[self._edge_var]
        ones[self._edge_pad] = 0
        return np.bitwise_xor.reduce(ones, axis=0).any(axis=0)

    # ---- decoding -------------------------------------------------------

    def decode(self, llr: np.ndarray, iters: int) -> tuple[np.ndarray, np.ndarray]:
        """Sum-product decode of a (batch, n) block of LLR vectors.

        A 1-D vector is a batch of one.  Returns (s_hat, converged), one row
        and one flag per word: the first k hard decisions of the best
        codeword estimate and a flag telling whether all parity checks were
        satisfied within `iters` iterations.  Non-convergence still yields
        the current hard decisions.

        Words are decoded independently: each row of the result is the one
        its word gives alone.  A word leaves the working set once it
        converges, since its output is final from then on.
        """
        llr = np.asarray(llr, dtype=np.float64)
        L = clamp_llr(np.atleast_2d(llr))
        if L.shape[1] != self.n:
            raise ValueError(f"LLR length {L.shape[1]} != {self.n}")

        pad = self._edge_pad
        best = (L < 0).astype(np.uint8)
        # a zero LLR is an erasure: its hard decision is arbitrary, so it
        # cannot count toward convergence
        converged = np.all(L != 0.0, axis=-1) & ~self._fails_a_check(best.T)

        # the working set: the words not yet converged, one per column, and
        # their hard decisions
        active = np.flatnonzero(~converged)
        L = np.ascontiguousarray(L[active].T)
        bits = best[active].T
        # check -> var messages, a row per slot (pos * m + check) and a
        # trailing zero row
        E_flat = np.zeros((pad.size + 1, len(active)))
        V = L[self._edge_var]                           # var -> check messages

        for _ in range(iters):
            if not len(active):
                break
            E = E_flat[:-1].reshape(V.shape)            # a view
            # tanh of the halved messages, in V's place; padding slots are 1.0
            t = np.multiply(V, 0.5, out=V)
            np.tanh(t, out=t)
            t[pad] = 1.0
            prod = np.prod(t, axis=0)                   # slot by slot, in order
            # a product that is neither 0 nor NaN has no factor 0 (0 * NaN is NaN)
            if np.all(np.abs(prod) > 0.0):
                loo = np.divide(prod, t, out=t)
            else:
                loo = _leave_one_out_with_zeros(t)
            np.clip(loo, -_TANH_LIMIT, _TANH_LIMIT, out=loo)
            np.arctanh(loo, out=E)
            E *= 2.0

            # sequential adds in ascending check order, as the dense sum
            total = E_flat[self._var_edges[0]]
            for rows in self._var_edges[1:]:
                total += E_flat[rows]
            total += L
            np.take(total, self._edge_var, axis=0, out=V)
            V -= E

            bits = (total < 0).astype(np.uint8)
            ok = np.all(total != 0.0, axis=0) & ~self._fails_a_check(bits)
            if ok.any():
                best[active[ok]] = bits[:, ok].T
                converged[active[ok]] = True
                keep = ~ok                              # compress keeps the arrays C-ordered
                active, bits = active[keep], bits[:, keep]
                L, V = L.compress(keep, axis=1), V.compress(keep, axis=2)
                E_flat = np.zeros((pad.size + 1, len(active)))

        best[active] = bits.T
        return best[:, :self.k], converged


def _leave_one_out_with_zeros(t: np.ndarray) -> np.ndarray:
    """Each slot's product of the other tanh values of its check, exact
    when some are 0: a check with one zero passes its product to that slot
    alone, and one with two or more passes 0 everywhere."""
    zero = t == 0.0
    nzero = zero.sum(axis=0)
    t_safe = np.where(zero, 1.0, t)
    prod = np.prod(t_safe, axis=0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(nzero == 0, prod / t_safe,
                        np.where((nzero == 1) & zero, prod, 0.0))
