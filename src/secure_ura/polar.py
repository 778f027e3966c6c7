"""CRC-aided polar code with successive cancellation list decoding.

The frozen set is fixed by the block length and the information length
alone: the information positions are the synthetic channels of largest
polarization weight (He et al., "beta-expansion: a theoretical framework for
fast and recursive construction of polar codes", GLOBECOM 2017), an order
that depends on no channel parameter, so one code serves every SNR.

A code builds one decoding schedule (_schedule; Alamdar-Yazdi and
Kschischang, IEEE Commun. Lett. 2011; Sarkis et al., IEEE JSAC 2014), and
both decoders walk it.  A node is one op where its frozen pattern fixes its
codeword by a single rule: rate 0, rate 1, or repetition (only its last bit
is information); any other node, single-parity-check ones included, splits
into f, its two children, g and c.  One rule (_split) splits a rate-1 or
repetition node the same way, for the decoder that cannot take it whole.

List size 1 is plain successive cancellation (_sc_decode): a rate-0 node
writes zeros, a repetition node folds its LLRs pairwise with the additions
of its g steps and repeats the sign bit of the sum, and a rate-1 node takes
the hard decision of its LLRs.  The rate-1 shortcut is exact only where no
f value inside the node is 0, so a guard (_hard_decision_is_sc) splits the
node for the batch where an exact zero or a float32 f chain that underflows
could make one.  A leaf decides l < 0.  List sizes >= 2 split every rate-1
and repetition node down to its information leaves, where the list decoder
instead compares path metrics, pm + penalty; so at list size 1 the two
differ only where a nonzero leaf LLR is lost in the rounding of the path
metric.

The list decoder works on per-depth buffers (O(N) memory per path) and is
vectorized over both the list dimension and a batch of independent decodes.
Check-side LLR combining uses the exact tanh rule and path metrics are the
exact log-domain penalties.

Path bookkeeping follows the lazy copying of Tal and Vardy ("List decoding
of polar codes", IEEE Trans. IT 2015): a leaf that reorders the list does
not move any state.  It composes one path-index map per depth, and the
state is gathered through that map once, where it is next read (the g step
for LLRs, the combine step for stashed left-child bits); a depth's map
returns to the identity when that depth is rewritten.  The list axis holds
only live paths, 1, 2, 4, ... up to the list size, so the frozen prefix of
the code is decoded once rather than on copies of a single path; the maps
start with every path reading slot 0.

A depth's LLRs die where they are last read: g at depth d drops llrs[d],
and the stale llrs[d + 1] of the left subtree before it writes the right
one's; nothing reads llrs[d] again until f or g at depth d - 1 rewrites it.
The channel row llrs[0] is one slot, which g at depth 0 broadcasts to every
path rather than gathering it.  So the LLRs held at any time are those of
the current node and of its ancestors whose right child is still to come.

A code derives its CRC matrix and decoding schedule once, when built.  A
path passes the CRC when its CRC field c equals the CRC of its payload m:
with g(0) = 1, true of every default_crc_poly g, that is the zero-syndrome
test on the whole word, x^w (m x^w + c) = 0 mod g, as x^w is invertible.
"""

from dataclasses import dataclass, field

import numpy as np

from .modulation import clamp_llr

# ---------------------------------------------------------------------------
# CRC
# ---------------------------------------------------------------------------

#: full generator polynomials (leading coefficient included), keyed by width
_CRC_POLYS = {
    8: 0x1D5,
    11: 0xB8B,
    12: 0x180F,
    16: 0x11021,
    24: 0x1864CFB,
}


def default_crc_poly(width: int) -> int:
    """Generator of degree width with g(0) = 1 (x^w + x + 1 fallback)."""
    return _CRC_POLYS.get(width, (1 << width) | 0b11)


def _crc_matrix(poly: int, width: int, length: int) -> np.ndarray:
    """(length, width) GF(2) matrix whose row i is the CRC of unit payload e_i.

    The CRC of a length-bit payload m is m(x) * x^width mod g, its bits
    the shift-register remainder, so the CRC of m is m @ matrix mod 2.
    Row i is the register after clocking in a 1 and then length-1-i zeros.
    """
    taps = np.array([(poly >> (width - 1 - i)) & 1 for i in range(width)],
                    dtype=np.int64)
    rows = np.empty((length, width), dtype=np.int64)
    reg = taps.copy()
    for i in range(length - 1, -1, -1):
        rows[i] = reg
        fb = reg[0]
        reg[:-1] = reg[1:]
        reg[-1] = 0
        if fb:
            reg ^= taps
    return rows


# ---------------------------------------------------------------------------
# Frozen-set design
# ---------------------------------------------------------------------------


def polarization_weights(block_len: int) -> np.ndarray:
    """Polarization weight of every synthetic channel, natural index order:
    the sum of 2^(j/4) over the set bits j of its index, a reliability
    order that holds the universal partial order of synthetic channels and
    reads no channel parameter."""
    if block_len < 1 or block_len & (block_len - 1):
        raise ValueError(f"block length {block_len} is not a power of two")
    idx = np.arange(block_len)
    return sum((((idx >> j) & 1) * 2 ** (j / 4) for j in range(block_len.bit_length() - 1)),
               np.zeros(block_len))


# ---------------------------------------------------------------------------
# Polar transform and list decoder
# ---------------------------------------------------------------------------


def _xor_stages(x: np.ndarray) -> np.ndarray:
    """The butterfly stages x[j] ^= x[j + w], w = 1, 2, 4, ..., of the polar
    transform over the last axis of x, in place."""
    N = x.shape[-1]
    w = 1
    while w < N:
        v = x.reshape(x.shape[:-1] + (N // (2 * w), 2, w))
        v[..., 0, :] ^= v[..., 1, :]
        w *= 2
    return x


#: the transform of every 8-bit block, packed as np.packbits packs it
_BYTE_TRANSFORM = np.packbits(
    _xor_stages(np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)), axis=1)[:, 0]


def polar_transform(u: np.ndarray) -> np.ndarray:
    """Self-inverse GF(2) polar transform of 0/1 bits over the last axis
    (batched).  The bits are packed 8 to a byte, a row shorter than 8 padded
    with zeros that the stages within it never read: one table lookup makes
    the three stages within a byte, and the others xor whole bytes."""
    x = np.asarray(u, dtype=np.uint8)
    N = x.shape[-1]
    if N & (N - 1):
        raise ValueError(f"transform length {N} is not a power of two")
    return np.unpackbits(_xor_stages(_BYTE_TRANSFORM[np.packbits(x, axis=-1)]), axis=-1, count=N)


def _schedule(frozen: np.ndarray) -> tuple:
    """Decoding schedule over a frozen mask: (op, depth, first bit) ops.

    A node is one op when its frozen pattern fixes its codeword by a single
    rule: 'zero' (every bit frozen), 'one' (rate 1: no bit frozen, a lone
    information leaf included) or 'rep' (repetition: only its last bit is
    information).  Any other node splits into f, its left child, g, its
    right child and c.
    """
    n = len(frozen).bit_length() - 1
    ops = []

    def visit(depth, base):
        span = frozen[base:base + (1 << (n - depth))]
        if span.all():
            ops.append(("zero", depth, base))
        elif not span.any():
            ops.append(("one", depth, base))
        elif span[:-1].all():
            ops.append(("rep", depth, base))
        else:
            ops.append(("f", depth, base))
            visit(depth + 1, base)
            ops.append(("g", depth, base))
            visit(depth + 1, base + len(span) // 2)
            ops.append(("c", depth, base))

    visit(0, 0)
    return tuple(ops)


def _split(op: str, d: int, i: int, w: int) -> tuple:
    """A rate-1 ('one') or repetition ('rep') node at depth d, first bit i
    and width 2w, split into f, its left child, g, its right child and c.
    A rate-1 node's children are rate 1; a repetition node's left child is
    rate 0 and its right child a repetition node."""
    left, right = ("one", "one") if op == "one" else ("zero", "rep")
    return (("f", d, i), (left, d + 1, i), ("g", d, i), (right, d + 1, i + w), ("c", d, i))


def _f_llr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    t = np.tanh(0.5 * a)
    t *= np.tanh(0.5 * b)
    np.maximum(t, -0.999999, out=t)
    np.minimum(t, 0.999999, out=t)
    np.arctanh(t, out=t)
    t *= 2.0
    return t


def _hard_decision_is_sc(x: np.ndarray) -> bool:
    """Whether successive cancellation of a rate-1 node with (batch, width)
    LLRs x decides their hard decision on every row.

    It does when no f value inside the node is 0.  Each is, in the tanh
    domain, at least the product of tanh(|x|/2) over the node, so a product
    above 1e-30 rules out both an exact-zero LLR and a float32 f chain that
    underflows.  An exact zero would break it: SC decides (0, -1) as (1, 1),
    the hard decision is (0, 1).
    """
    return np.all(np.prod(np.tanh(0.5 * np.abs(x, dtype=np.float64)), axis=1) > 1e-30)


@dataclass(frozen=True)
class PolarCode:
    N: int
    K: int                 # payload + CRC bits carried by the polar code
    crc_poly: int          # CRC generator polynomial, leading coefficient included
    info_pos: np.ndarray   # sorted indices of information positions
    # derived from the design once per code
    _crc_gen: np.ndarray = field(init=False, repr=False)  # (payload_bits, width) float32
    _ops: tuple = field(init=False, repr=False)           # (op, depth, first bit), see _schedule

    def __post_init__(self):
        gen = _crc_matrix(self.crc_poly, self.crc_width, self.payload_bits)
        object.__setattr__(self, "_crc_gen", gen.astype(np.float32))
        frozen = ~np.isin(np.arange(self.N), self.info_pos)
        object.__setattr__(self, "_ops", _schedule(frozen))

    @classmethod
    def design(cls, block_len: int, n_info: int, crc_width: int) -> "PolarCode":
        """The code whose information positions are the n_info channels of
        largest polarization weight."""
        if n_info > block_len:
            raise ValueError(f"cannot place {n_info} information bits in {block_len}")
        if n_info <= crc_width:
            raise ValueError(f"payload must exceed the {crc_width}-bit CRC")
        info = np.sort(np.argsort(polarization_weights(block_len), kind="stable")[-n_info:])
        return cls(N=block_len, K=n_info, crc_poly=default_crc_poly(crc_width), info_pos=info)

    @property
    def crc_width(self) -> int:
        return self.crc_poly.bit_length() - 1

    @property
    def payload_bits(self) -> int:
        return self.K - self.crc_width

    def _crc(self, payload: np.ndarray) -> np.ndarray:
        """CRC bits of (batched) payloads.  The product is taken in float32,
        exactly: each sum counts at most payload_bits ones."""
        return (payload @ self._crc_gen % 2).astype(np.uint8)

    # ---- encoding -------------------------------------------------------

    def encode(self, payload: np.ndarray) -> np.ndarray:
        payload = np.asarray(payload, dtype=np.uint8)
        if payload.shape[-1] != self.payload_bits:
            raise ValueError(f"payload length {payload.shape[-1]} != {self.payload_bits}")
        word = np.concatenate([payload, self._crc(payload)], axis=-1)
        u = np.zeros(payload.shape[:-1] + (self.N,), dtype=np.uint8)
        u[..., self.info_pos] = word
        return polar_transform(u)

    # ---- decoding -------------------------------------------------------

    def decode(self, llr: np.ndarray, list_size: int) -> tuple[np.ndarray, np.ndarray]:
        """CRC-aided list decode of a (batch, N) block of channel LLRs.

        A 1-D vector is a batch of one.  Returns (payload, crc_ok), one row
        and one flag per word.  crc_ok is True where some list path
        passed the CRC; the payload is then the most likely passing path,
        otherwise the most likely path overall.  List size 1 is plain
        successive cancellation, decoded by _sc_decode; larger lists walk
        the same schedule, _ops, splitting each rate-1 and repetition node
        by _split down to its information leaves.
        """
        # decoded in float32; clamping after the cast gives the values of
        # clamping before it, as rounding is monotone and +-LLR_CLAMP is
        # exact in float32, so a block the caller casts decodes the same
        chan = np.array(np.atleast_2d(llr), dtype=np.float32)
        clamp_llr(chan, out=chan)
        batch = chan.shape[0]
        if chan.shape[1] != self.N:
            raise ValueError(f"LLR length {chan.shape[1]} != {self.N}")
        n = self.N.bit_length() - 1
        Lsz = int(list_size)
        if Lsz < 1:
            raise ValueError("list size must be >= 1")
        if Lsz == 1:
            return self._best_path(self._sc_decode(chan)[:, None], np.zeros((batch, 1)))

        # Per-depth state: llrs[d], the codewords ucap[d] and the stashed
        # left-child outputs uleft[d], each (batch, live paths, 2^(n-d)).
        # Only live paths are held: the list grows 1, 2, 4, ... up to Lsz.
        llrs = [None] * (n + 1)
        ucap = [None] * (n + 1)
        uleft = [None] * n
        llrs[0] = chan[:, None, :]
        del chan                                  # freed with llrs[0] at g(0)
        # perm[d, b, p] is the slot that holds path p's llrs[d] (while in a
        # left subtree at depth d) or uleft[d] (right subtree); a leaf
        # composes the maps and the state is gathered once, where it is
        # read.  Every path starts on slot 0
        ident = np.arange(Lsz)
        perm = np.zeros((n + 1, batch, Lsz), dtype=ident.dtype)
        width = 1
        pm = np.zeros((batch, 1))
        rows = np.arange(batch)[:, None]

        todo = list(reversed(self._ops))
        while todo:
            op, d, i = todo.pop()
            w = (1 << (n - d)) >> 1
            if op == "f":
                llrs[d + 1] = _f_llr(llrs[d][:, :, :w], llrs[d][:, :, w:])
                perm[d + 1] = ident
            elif op == "g":
                # llrs[0], the channel row, is one slot every path reads
                if d:
                    llrs[d] = llrs[d][rows, perm[d, :, :width]]
                uleft[d], llrs[d + 1] = ucap[d + 1], None
                llrs[d + 1] = llrs[d][:, :, w:] + (
                    1.0 - 2.0 * uleft[d].astype(np.float32)) * llrs[d][:, :, :w]
                llrs[d] = None                    # not read again before rewritten
                perm[d] = perm[d + 1] = ident
            elif op == "c":
                left = uleft[d][rows, perm[d, :, :width]]
                ucap[d] = np.concatenate([left ^ ucap[d + 1], ucap[d + 1]], axis=2)
            elif op == "zero":
                pm = pm + np.logaddexp(0.0, -llrs[d].astype(np.float64)).sum(axis=2)
                ucap[d] = np.zeros((batch, width, 1 << (n - d)), dtype=np.uint8)
            elif w:                               # rate 1 or repetition, op by op
                todo += reversed(_split(op, d, i, w))
            else:                                 # an information leaf
                leaf_llr = llrs[n][:, :, 0].astype(np.float64)
                pen0 = np.logaddexp(0.0, -leaf_llr)
                pen1 = np.logaddexp(0.0, leaf_llr)
                pm2 = np.concatenate([pm + pen0, pm + pen1], axis=1)
                grown = min(2 * width, Lsz)
                order = np.argsort(pm2, axis=1, kind="stable")[:, :grown]
                pm = pm2[rows, order]
                perm[:, :, :grown] = perm[:, rows, order % width]
                ucap[n] = (order // width).astype(np.uint8)[:, :, None]
                width = grown
        return self._best_path(ucap[0], pm)

    def _sc_decode(self, chan: np.ndarray) -> np.ndarray:
        """Plain successive cancellation of (batch, N) float32 channel LLRs
        on the schedule _ops; returns the (batch, N) codewords.

        A leaf decides l < 0.  A zero node writes zeros, a repetition node
        folds its LLRs pairwise (the g steps over its frozen left children)
        and repeats the sign bit of the sum, and a rate-1 node takes the
        hard decision of its LLRs where _hard_decision_is_sc allows it for
        the whole batch, and otherwise splits by _split.  Each node's
        codeword bits are written into one buffer, in place: c at a node
        xors its right half into its left.
        """
        n = self.N.bit_length() - 1
        llrs = [chan] + [None] * n
        beta = np.empty(chan.shape, dtype=np.uint8)
        todo = list(reversed(self._ops))
        while todo:
            op, d, i = todo.pop()
            x = llrs[d]
            w = x.shape[1] // 2
            if op == "f":
                llrs[d + 1] = _f_llr(x[:, :w], x[:, w:])
            elif op == "g":
                llrs[d + 1] = x[:, w:] + (1.0 - 2.0 * beta[:, i:i + w].astype(np.float32)) * x[:, :w]
            elif op == "c":
                beta[:, i:i + w] ^= beta[:, i + w:i + 2 * w]
            elif op == "zero":
                beta[:, i:i + x.shape[1]] = 0
            elif op == "rep":
                while x.shape[1] > 1:
                    x = x[:, x.shape[1] // 2:] + x[:, :x.shape[1] // 2]
                beta[:, i:i + 2 * w] = x < 0
            elif w and not _hard_decision_is_sc(x):     # rate 1, op by op
                todo += reversed(_split(op, d, i, w))
            else:                                       # rate 1, or a leaf
                beta[:, i:i + x.shape[1]] = x < 0
        return beta

    def _best_path(self, paths: np.ndarray, pm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """decode's (payload, crc_ok) from the (batch, width, N) codewords
        of the list paths and their (batch, width) path metrics."""
        batch = len(paths)
        # recover message bits per path (the transform is self-inverse)
        u_all = polar_transform(paths)
        words = u_all[:, :, self.info_pos]                # (batch, width, K)
        P = self.payload_bits
        ok = np.all(self._crc(words[..., :P]) == words[..., P:], axis=-1)  # (batch, width)
        pm_pass = np.where(ok, pm, np.inf)
        any_ok = ok.any(axis=1)
        best = np.where(any_ok, np.argmin(pm_pass, axis=1), np.argmin(pm, axis=1))
        chosen = words[np.arange(batch), best, :P]
        return chosen, any_ok
