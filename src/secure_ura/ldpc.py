"""Systematic binary LDPC code for key reconciliation.

Construction: column-weight-3 progressive edge growth (each new edge is
attached to a check node at maximal graph distance from the variable, ties
broken toward the lowest-degree then lowest-index check), followed by a
GF(2) column permutation that makes the last (n - k) columns invertible.
Codewords are [systematic | parity]; only the parity part is transmitted.

Decoding: standard sum-product belief propagation, batched over users, on
an edge list.  Each check's edges are held in ascending variable order and
padded to the largest check degree with slots whose tanh is an exact 1.0;
each variable sums its incoming messages in ascending check order.  These
are the products and sums a dense (checks x variables) layout forms, with
the factors 1.0 and the terms 0.0 of absent edges left out, so the messages
are bit-identical to the dense computation.  The convergence check after
each iteration reads the check parities off the same edge lists.
"""

from dataclasses import dataclass, field

import numpy as np

from .modulation import clamp_llr

_TANH_LIMIT = 1.0 - 1e-15
#: edges per variable node; a code needs at least this many parity checks
COL_WEIGHT = 3


def _peg_parity_check(n_checks: int, n_vars: int) -> np.ndarray:
    """Greedy girth-maximizing bipartite graph, deterministic tie-breaking."""
    if COL_WEIGHT > n_checks:
        raise ValueError(f"column weight {COL_WEIGHT} exceeds {n_checks} checks")
    var_adj = [[] for _ in range(n_vars)]
    chk_adj = [[] for _ in range(n_checks)]
    chk_deg = np.zeros(n_checks, dtype=np.int64)

    for v in range(n_vars):
        for _ in range(COL_WEIGHT):
            # BFS from v over the current graph; depth of first visit per check.
            depth = np.full(n_checks, -1, dtype=np.int64)
            frontier_vars = [v]
            seen_vars = {v}
            level = 0
            while frontier_vars:
                next_checks = []
                for fv in frontier_vars:
                    for c in var_adj[fv]:
                        if depth[c] < 0:
                            depth[c] = level
                            next_checks.append(c)
                next_vars = []
                for c in next_checks:
                    for nv in chk_adj[c]:
                        if nv not in seen_vars:
                            seen_vars.add(nv)
                            next_vars.append(nv)
                frontier_vars = next_vars
                level += 1
            unreached = depth < 0
            if unreached.any():
                candidates = np.flatnonzero(unreached)
            else:
                dmax = depth.max()
                candidates = np.flatnonzero(depth == dmax)
            degs = chk_deg[candidates]
            best = candidates[degs == degs.min()][0]
            var_adj[v].append(int(best))
            chk_adj[best].append(v)
            chk_deg[best] += 1

    H = np.zeros((n_checks, n_vars), dtype=np.uint8)
    for v, checks in enumerate(var_adj):
        H[checks, v] = 1
    return H


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
    _Ht: np.ndarray = field(init=False, repr=False)         # (n, n - k) int64
    _edge_var: np.ndarray = field(init=False, repr=False)   # (n - k, dc) variable per slot
    _edge_pad: np.ndarray = field(init=False, repr=False)   # (n - k, dc) True on padding
    _var_edges: np.ndarray = field(init=False, repr=False)  # (dv, n) flat slot per edge

    def __post_init__(self):
        object.__setattr__(self, "_Ht", np.ascontiguousarray(self.H.T, dtype=np.int64))
        m = self.H.shape[0]
        chk, var = np.nonzero(self.H)                   # check-major, vars ascending
        chk_deg = np.bincount(chk, minlength=m)
        edge_pad = np.arange(chk_deg.max()) >= chk_deg[:, None]
        edge_var = np.zeros(edge_pad.shape, dtype=np.int64)
        edge_var[~edge_pad] = var
        # each edge's slot in the flat message array; slot edge_pad.size holds
        # a zero message and pads variables of lower degree, sorting last
        slot = np.full(self.H.shape, edge_pad.size)
        slot[chk, var] = np.flatnonzero(~edge_pad)
        var_edges = np.sort(slot, axis=0)[:self.H.sum(axis=0).max()]
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
        return (c @ self._Ht % 2).astype(np.uint8)

    def _fails_a_check(self, bits: np.ndarray) -> np.ndarray:
        """(batch,) True where a (batch, n) word has a nonzero syndrome.

        Each check's parity is read off its edge list, since the integer
        product in syndrome runs without BLAS.
        """
        ones = bits[:, self._edge_var]
        ones[:, self._edge_pad] = 0
        return np.bitwise_xor.reduce(ones, axis=2).any(axis=1)

    # ---- decoding -------------------------------------------------------

    def decode(self, llr: np.ndarray, iters: int) -> tuple[np.ndarray, np.ndarray]:
        """Sum-product decode of a (batch, n) block of LLR vectors.

        A 1-D vector is a batch of one.  Returns (s_hat, converged), one row
        and one flag per word: the first k hard decisions of the best
        codeword estimate and a flag telling whether all parity checks were
        satisfied within `iters` iterations.  Non-convergence still yields
        the current hard decisions.
        """
        llr = np.asarray(llr, dtype=np.float64)
        L = clamp_llr(np.atleast_2d(llr))
        batch = L.shape[0]
        if L.shape[1] != self.n:
            raise ValueError(f"LLR length {L.shape[1]} != {self.n}")

        pad = self._edge_pad
        bits = (L < 0).astype(np.uint8)
        best = bits.copy()
        # a zero LLR is an erasure: its hard decision is arbitrary, so it
        # cannot count toward convergence
        determinate = np.all(L != 0.0, axis=-1)
        converged = determinate & ~self._fails_a_check(bits)

        # check -> var messages, flat per word with a trailing zero slot
        E_flat = np.zeros((batch, pad.size + 1))
        E = E_flat[:, :-1].reshape((batch,) + pad.shape)  # a view
        V = L[:, self._edge_var]                        # var -> check messages

        for _ in range(iters):
            if converged.all():
                break
            t = np.where(pad, 1.0, np.tanh(0.5 * V))
            zero = t == 0.0
            nzero = zero.sum(axis=2, keepdims=True)
            t_safe = np.where(zero, 1.0, t)
            prod = np.prod(t_safe, axis=2, keepdims=True)
            # leave-one-out product, exact even when some tanh terms are 0
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                loo = np.where(
                    nzero == 0, prod / t_safe,
                    np.where((nzero == 1) & zero, prod, 0.0))
            loo = np.clip(loo, -_TANH_LIMIT, _TANH_LIMIT)
            np.multiply(2.0, np.arctanh(loo), out=E)

            # sequential adds in ascending check order, as the dense sum
            incoming = E_flat[:, self._var_edges[0]]
            for slots in self._var_edges[1:]:
                incoming = incoming + E_flat[:, slots]
            total = L + incoming
            V = total[:, self._edge_var] - E

            bits = (total < 0).astype(np.uint8)
            ok = np.all(total != 0.0, axis=-1) & ~self._fails_a_check(bits)
            newly = ok & ~converged
            if newly.any():
                best[newly] = bits[newly]
                converged |= newly

        best[~converged] = bits[~converged]
        s_hat = best[:, :self.k]
        return s_hat, converged
