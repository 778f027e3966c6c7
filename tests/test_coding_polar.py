import hashlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from secure_ura import (PolarCode, SystemConfig, bpsk_map, default_crc_poly,
                        generate_public_params, polar_transform)
from secure_ura.modulation import clamp_llr
from secure_ura.polar import (_CRC_POLYS, _crc_matrix, _f_llr, _hard_decision_is_sc, _schedule,
                              _split, polarization_weights)

from helpers import frozen_mask, make_mini_cfg, sc_decode_reference


@pytest.fixture(scope="module")
def small_code():
    return PolarCode.design(64, 24, 11)


@pytest.fixture(scope="module")
def big_code():
    return PolarCode.design(512, 99, 11)


# The codeword-length syndrome check that decode's CRC flag replaced, kept
# verbatim (less its cache) as the reference for that flag.

def _crc_matrix_reference(poly: int, width: int, length: int) -> np.ndarray:
    """(length, width) GF(2) matrix whose row i is the CRC of unit word e_i.

    The CRC is the shift-register remainder, which carries an implicit
    x^width factor, i.e. poly(bits) * x^width mod g.  The factor is
    invertible mod g, so a zero syndrome still means a valid codeword.
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
    rows.flags.writeable = False
    return rows


def _crc_parity_reference(code, payload):
    """CRC bits of (batched) payloads."""
    payload = np.asarray(payload, dtype=np.uint8)
    G = _crc_matrix_reference(code.crc_poly, code.crc_width, payload.shape[-1])
    return (payload @ G % 2).astype(np.uint8)


def _crc_check_reference(code, word):
    """True where a (batched) payload+CRC word has zero syndrome."""
    word = np.asarray(word, dtype=np.uint8)
    syn = word @ _crc_matrix_reference(code.crc_poly, code.crc_width, word.shape[-1]) % 2
    return ~np.any(syn, axis=-1)


def _crc_flag(code, words):
    """decode's CRC flag on (batch, K) information words sent noiselessly.

    With +/-40 channel LLRs a list of one decodes every word as itself, so
    the flag is the CRC verdict on exactly that word.
    """
    u = np.zeros((len(words), code.N), dtype=np.uint8)
    u[:, code.info_pos] = words
    payload, ok = code.decode(np.where(polar_transform(u) == 0, 40.0, -40.0), 1)
    assert np.array_equal(payload, words[:, :code.payload_bits])
    return ok


def test_transform_is_involution(rng):
    u = rng.integers(0, 2, (10, 128), dtype=np.uint8)
    assert np.array_equal(polar_transform(polar_transform(u)), u)


@pytest.mark.parametrize("N", [1, 2, 4, 8, 16, 64, 512])
def test_transform_is_the_kronecker_power(N, rng):
    # x = u F^(kron n) mod 2, F = [[1, 0], [1, 1]], on batched bits, whether
    # or not the length reaches the packed form's 8
    G = np.ones((1, 1), dtype=np.int64)
    while len(G) < N:
        G = np.kron(G, np.array([[1, 0], [1, 1]]))
    u = rng.integers(0, 2, (3, 2, N), dtype=np.uint8)
    x = polar_transform(u)
    assert x.dtype == np.uint8 and x.shape == u.shape
    assert np.array_equal(x, u @ G % 2)


# SHA-256 of the int64 bytes of info_pos of the codes the repository ships:
# the defaults' (512, 99), CI's Br = 6 config's (512, 94) and the mini
# config's (64, 36)
SHIPPED_INFO_POS = {
    "default": "a9dde2986d0ef25df1ee65d897620b413aa499ad36a4e3facca1f0c11bfe750f",
    "br6": "6b984c828110623b4475a63a8a3204fbb21d9aed31fc9f154d03d6ad9cf8f800",
    "mini": "24112f96523cb12cc418b5684a99c88efa1c1b61c085d740d690e287ead4bcbc",
}


@pytest.mark.parametrize("name,cfg", [("default", SystemConfig()),
                                      ("br6", SystemConfig(Br=6)),
                                      ("mini", make_mini_cfg())])
def test_shipped_frozen_sets_are_pinned(name, cfg):
    info_pos = generate_public_params(cfg).polar.info_pos.astype(np.int64)
    assert hashlib.sha256(info_pos.tobytes()).hexdigest() == SHIPPED_INFO_POS[name]


@pytest.mark.parametrize("N", [1, 2, 64, 512, 1024])
def test_polarization_weights_are_a_reliability_order(N):
    w = polarization_weights(N)
    assert isinstance(w, np.ndarray) and w.shape == (N,)
    idx = np.arange(N)
    n = N.bit_length() - 1
    for j in range(n):
        clear = idx[(idx >> j) & 1 == 0]
        assert np.all(w[clear | 1 << j] > w[clear])          # setting a bit
        for k in range(j + 1, n):
            up = idx[((idx >> j) & 1 == 1) & ((idx >> k) & 1 == 0)]
            assert np.all(w[up ^ (1 << j) ^ (1 << k)] > w[up])    # moving a bit up
    assert np.argmax(w) == N - 1 and np.argmin(w) == 0


@pytest.mark.parametrize("N", [0, 3, 6, 100, 513])
def test_polarization_weights_reject_other_lengths(N):
    with pytest.raises(ValueError, match="not a power of two"):
        polarization_weights(N)


def test_design_sanity(big_code):
    assert frozen_mask(big_code)[0]          # worst synthetic channel
    assert not frozen_mask(big_code)[511]    # best synthetic channel
    assert big_code.info_pos.shape == (99,)
    assert big_code.payload_bits == 88


def test_zero_noise_round_trip_1000(big_code, rng):
    payload = rng.integers(0, 2, (1000, 88), dtype=np.uint8)
    cw = big_code.encode(payload)
    dec, ok = big_code.decode(np.where(cw == 0, 40.0, -40.0), 8)
    assert ok.all()
    assert np.array_equal(dec, payload)


def test_small_code_noisy_round_trip(small_code, rng):
    payload = rng.integers(0, 2, (300, 13), dtype=np.uint8)
    x = bpsk_map(small_code.encode(payload), 0.3).real
    y = x + rng.normal(0.0, np.sqrt(0.25 / 2), x.shape)
    llr = 4.0 * np.sqrt(0.3) * y / 0.25
    dec, ok = small_code.decode(llr, 8)
    assert ok.mean() > 0.95
    assert np.array_equal(dec[ok], payload[ok])


def test_list_one_matches_plain_sc(small_code, rng):
    for _ in range(100):
        llr = np.clip(rng.normal(0.0, 3.0, 64), -40, 40)
        u_ref, _ = sc_decode_reference(llr.astype(np.float64), frozen_mask(small_code))
        ref_payload = u_ref[small_code.info_pos][:small_code.payload_bits]
        dec, _ = small_code.decode(llr[None], 1)
        assert np.array_equal(dec[0], ref_payload)


def test_list_one_matches_plain_sc_long(big_code, rng):
    for _ in range(10):
        llr = np.clip(rng.normal(0.0, 3.0, 512), -40, 40)
        u_ref, _ = sc_decode_reference(llr.astype(np.float64), frozen_mask(big_code))
        dec, _ = big_code.decode(llr[None], 1)
        assert np.array_equal(dec[0], u_ref[big_code.info_pos][:88])


def test_corrupted_crc_bits_fail_check(big_code, rng):
    # frozen bits stay correct; the CRC field contradicts the payload
    for seed in range(5):
        r = np.random.default_rng(seed)
        payload = r.integers(0, 2, 88, dtype=np.uint8)
        word = np.concatenate([payload, _crc_parity_reference(big_code, payload) ^ 1])
        u = np.zeros(512, dtype=np.uint8)
        u[big_code.info_pos] = word
        cw = polar_transform(u)
        _, ok = big_code.decode(np.where(cw == 0, 40.0, -40.0)[None], 8)
        assert ok.tolist() == [False]


def test_false_pass_rate_on_noise_smoke(big_code, rng):
    noise = rng.normal(0.0, 2.0, (4000, 512))
    _, ok = big_code.decode(noise, 8)
    bound = 8 * 2.0 ** -11
    assert ok.mean() <= 4 * bound  # loose smoke bound; acceptance runs 1e5


def test_crc_detects_single_and_double_errors(big_code, rng):
    payload = rng.integers(0, 2, 88, dtype=np.uint8)
    word = np.concatenate([payload, big_code._crc(payload)])
    assert _crc_flag(big_code, word[None]).all()
    n = word.size
    singles = np.tile(word, (n, 1))
    singles[np.arange(n), np.arange(n)] ^= 1
    assert not _crc_flag(big_code, singles).any()
    # all double flips, via syndrome-column distinctness: a word [m, c]
    # passes when [m, c] @ [CRC matrix; I] = CRC(m) + c is zero
    M = np.vstack([big_code._crc_gen, np.eye(big_code.crc_width, dtype=np.int64)])
    cols = {tuple(row) for row in M.tolist()}
    assert len(cols) == n  # pairwise distinct -> every double error detected
    assert all(any(row) for row in M.tolist())


@pytest.mark.parametrize("width", sorted(_CRC_POLYS) + [1, 2, 6, 30])
def test_crc_flag_matches_codeword_syndrome(width):
    code = PolarCode.design(64, width + 20, width)
    rng = np.random.default_rng(width)
    K = len(code.info_pos)
    payload = rng.integers(0, 2, code.payload_bits, dtype=np.uint8)
    valid = np.concatenate([payload, _crc_parity_reference(code, payload)])
    singles = np.tile(valid, (K, 1))
    singles[np.arange(K), np.arange(K)] ^= 1
    i, j = np.triu_indices(K, 1)
    doubles = np.tile(valid, (i.size, 1))
    doubles[np.arange(i.size), i] ^= 1
    doubles[np.arange(i.size), j] ^= 1
    random = rng.integers(0, 2, (1000, K), dtype=np.uint8)
    words = np.concatenate([valid[None], singles, doubles, random])
    want = _crc_check_reference(code, words)
    assert want[0] and not want[1:K + 1].any()
    assert np.array_equal(_crc_flag(code, words), want)


def test_crc_matrix_is_the_register_remainder():
    # every width SystemConfig accepts, at lengths shorter and longer than it
    for width in range(1, 31):
        poly = default_crc_poly(width)
        for length in (1, 2, 7, 88, 200):
            assert np.array_equal(_crc_matrix(poly, width, length),
                                  _crc_matrix_reference(poly, width, length)), (width, length)


def test_default_crc_poly_has_degree_width_and_constant_term_one():
    # decode's CRC flag equals the zero-syndrome test only when g(0) = 1
    for width in range(1, 31):       # the Br range SystemConfig accepts
        g = default_crc_poly(width)
        assert g >> width == 1 and g & 1


def test_encoder_validates_payload_length(small_code):
    with pytest.raises(ValueError):
        small_code.encode(np.zeros(40, dtype=np.uint8))


def test_bpsk_mapping_and_power():
    bits = np.array([0, 1, 1, 0], dtype=np.uint8)
    x = bpsk_map(bits, 0.25)
    assert np.allclose(x, [0.5, -0.5, -0.5, 0.5])
    assert not x.imag.any()
    assert np.all(np.abs(x) == np.sqrt(0.25))


# The list decoder's own walk of the decoding tree, before it split the
# pruned schedule, kept verbatim as the schedule of the eager reference.

def _schedule_reference(frozen: np.ndarray) -> tuple:
    """Flat traversal schedule of the decoding tree over a frozen mask.

    Fully frozen subtrees collapse into one 'zero' op: their codeword is the
    all-zero vector and the exact path-metric penalty over the subtree equals
    the sum of per-symbol softplus terms of the subtree input LLRs.
    """
    n = len(frozen).bit_length() - 1
    ops = []

    def visit(depth, leaf_base):
        width = 1 << (n - depth)
        if frozen[leaf_base:leaf_base + width].all():
            ops.append(("zero", depth))
            return
        if depth == n:
            ops.append(("leaf", leaf_base))
            return
        ops.append(("f", depth))
        visit(depth + 1, leaf_base)
        ops.append(("g", depth))
        visit(depth + 1, leaf_base + (width >> 1))
        ops.append(("c", depth))

    visit(0, 0)
    return tuple(ops)


def _split_to_leaves(ops, n):
    """ops with every rate-1 and repetition node above depth n split by
    _split, as the list decoder walks them, in _schedule_reference's
    (op, depth) and ('leaf', first bit) form."""
    out = []
    todo = list(reversed(ops))
    while todo:
        op, d, i = todo.pop()
        if op in ("one", "rep") and d < n:
            todo += reversed(_split(op, d, i, 1 << (n - d - 1)))
        else:
            out.append(("leaf", i) if op in ("one", "rep") else (op, d))
    return tuple(out)


def test_split_schedule_is_the_list_decoders_walk(small_code, big_code):
    # the shipped (512, 99) and a (64, 24) code, then random masks with
    # N = 1...512, all-frozen and all-information ones included
    for code, length in ((big_code, 609), (small_code, 149)):
        walk = _split_to_leaves(code._ops, code.N.bit_length() - 1)
        assert walk == _schedule_reference(frozen_mask(code)) and len(walk) == length
    counts = Counter(op for op, _ in _split_to_leaves(big_code._ops, 9))
    assert counts == {"f": 152, "g": 152, "c": 152, "leaf": 99, "zero": 54}
    rng = np.random.default_rng(43)
    for trial in range(300):
        n = trial % 10
        frozen = rng.random(1 << n) < rng.uniform(0.0, 1.0)
        for mask in ((frozen, np.ones(1 << n, bool), np.zeros(1 << n, bool))
                     if trial < 10 else (frozen,)):
            assert _split_to_leaves(_schedule(mask), n) == _schedule_reference(mask)


def _decode_reference(code, llr, list_size=8):
    """The eager list decoder the path-index maps replaced, kept verbatim.

    Every leaf permutes the per-depth state arrays of all Lsz list slots;
    slots not yet filled are placeholders with path metric +inf.
    """
    self = code
    llr = np.asarray(llr, dtype=np.float64)
    single = llr.ndim == 1
    chan = clamp_llr(np.atleast_2d(llr)).astype(np.float32)
    batch = chan.shape[0]
    if chan.shape[1] != self.N:
        raise ValueError(f"LLR length {chan.shape[1]} != {self.N}")
    n = self.N.bit_length() - 1
    Lsz = int(list_size)
    if Lsz < 1:
        raise ValueError("list size must be >= 1")

    frozen = frozen_mask(code)
    # per-depth state: llrs[d] and the stashed left-child outputs uleft[d]
    llrs = [np.zeros((batch, Lsz, 1 << (n - d)), dtype=np.float32) for d in range(n + 1)]
    ucap = [np.zeros((batch, Lsz, 1 << (n - d)), dtype=np.uint8) for d in range(n + 1)]
    uleft = [np.zeros((batch, Lsz, 1 << (n - d - 1)), dtype=np.uint8) for d in range(n)]
    llrs[0][:] = chan[:, None, :]

    pm = np.full((batch, Lsz), np.inf)
    pm[:, 0] = 0.0
    rows = np.arange(batch)[:, None]

    for op, arg in _schedule_reference(frozen):
        if op == "f":
            d = arg
            w = 1 << (n - d - 1)
            llrs[d + 1] = _f_llr(llrs[d][:, :, :w], llrs[d][:, :, w:])
        elif op == "g":
            d = arg
            w = 1 << (n - d - 1)
            uleft[d] = ucap[d + 1].copy()
            sign = 1.0 - 2.0 * uleft[d].astype(np.float32)
            llrs[d + 1] = llrs[d][:, :, w:] + sign * llrs[d][:, :, :w]
        elif op == "c":
            d = arg
            ucap[d] = np.concatenate([uleft[d] ^ ucap[d + 1], ucap[d + 1]], axis=2)
        elif op == "zero":
            d = arg
            pm = pm + np.logaddexp(0.0, -llrs[d].astype(np.float64)).sum(axis=2)
            ucap[d] = np.zeros_like(ucap[d])
        else:  # leaf; the schedule only emits leaves for information bits
            i = arg
            leaf_llr = llrs[n][:, :, 0].astype(np.float64)
            pen0 = np.logaddexp(0.0, -leaf_llr)
            pen1 = np.logaddexp(0.0, leaf_llr)
            pm2 = np.concatenate([pm + pen0, pm + pen1], axis=1)
            order = np.argsort(pm2, axis=1, kind="stable")[:, :Lsz]
            src = order % Lsz
            dec = (order // Lsz).astype(np.uint8)
            pm = pm2[rows, order]
            # permute only the state a future step still reads
            for d in range(n):
                if (i >> (n - d - 1)) & 1:
                    uleft[d] = uleft[d][rows, src]
                elif d >= 1:
                    llrs[d] = llrs[d][rows, src]
            ucap[n][:, :, 0] = dec

    # recover message bits per path (the transform is self-inverse)
    u_all = polar_transform(ucap[0])
    words = u_all[:, :, self.info_pos]                # (batch, Lsz, K)
    ok = _crc_check_reference(code, words)            # (batch, Lsz)
    pm_pass = np.where(ok, pm, np.inf)
    any_ok = ok.any(axis=1)
    best = np.where(any_ok, np.argmin(pm_pass, axis=1), np.argmin(pm, axis=1))
    chosen = words[np.arange(batch), best, :self.payload_bits]
    if single:
        return chosen[0], bool(any_ok[0])
    return chosen, any_ok


def _reference_llrs(code, rng, batch, snr):
    """Noisy codeword LLRs with exact zeros, +/-40-clamped entries and both signs."""
    payload = rng.integers(0, 2, (batch, code.payload_bits), dtype=np.uint8)
    x = 1.0 - 2.0 * code.encode(payload)
    llr = 4.0 * snr * x + rng.normal(0.0, np.sqrt(8.0 * snr), x.shape)
    llr[rng.random(llr.shape) < 0.03] = 0.0
    big = rng.random(llr.shape) < 0.03
    llr[big] = 60.0 * x[big] * np.where(rng.random(big.sum()) < 0.1, -1.0, 1.0)
    return llr


@pytest.mark.parametrize("list_size", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("which", ["small", "big"])
def test_decode_matches_eager_reference(which, list_size, small_code, big_code):
    code = small_code if which == "small" else big_code
    rng = np.random.default_rng(5000 + list_size)
    for batch, snr in ((1, 0.3), (1, 1.0), (120, 0.3), (120, 0.6)):
        llr = _reference_llrs(code, rng, batch, snr)
        got, got_ok = code.decode(llr, list_size)
        want, want_ok = _decode_reference(code, llr, list_size)
        assert np.array_equal(got, want) and np.array_equal(got_ok, want_ok)
    # a 1-D vector decodes as a batch of one, the reference as one word;
    # then an all-zero (fully erased) batch
    llr = _reference_llrs(code, rng, 1, 0.5)[0]
    got, got_ok = code.decode(llr, list_size)
    want, want_ok = _decode_reference(code, llr, list_size)
    assert got.shape == (1, code.payload_bits) and got_ok.shape == (1,)
    assert np.array_equal(got[0], want) and got_ok[0] == want_ok
    got, got_ok = code.decode(np.zeros((3, code.N)), list_size)
    want, want_ok = _decode_reference(code, np.zeros((3, code.N)), list_size)
    assert np.array_equal(got, want) and np.array_equal(got_ok, want_ok)


def test_decode_matches_eager_reference_when_list_exceeds_words():
    # K = 3 information bits: 2^K = 8 words, so a list of 16 keeps
    # placeholder paths to the end of the eager decoder
    code = PolarCode.design(16, 3, 2)
    rng = np.random.default_rng(77)
    llr = np.clip(rng.normal(0.0, 3.0, (200, 16)), -40, 40)
    llr[:20] = 0.0
    for list_size in (4, 8, 16):
        got, got_ok = code.decode(llr, list_size)
        want, want_ok = _decode_reference(code, llr, list_size)
        assert np.array_equal(got, want) and np.array_equal(got_ok, want_ok)


@pytest.mark.parametrize("list_size", [1, 3, 8])
def test_batch_decodes_as_each_word_alone(list_size, small_code, big_code):
    # the receiver decodes the words of several frames in one call, so each
    # row of a batch must be decoded exactly as that word alone: noisy
    # words, an all-zero (fully erased) word, and noiseless words whose
    # +-60 LLRs are clamped to +-40
    rng = np.random.default_rng(6000 + list_size)
    for code in (small_code, big_code):
        noisy = [_reference_llrs(code, rng, 12, snr) for snr in (0.3, 0.6, 1.0)]
        pay = rng.integers(0, 2, (3, code.payload_bits), dtype=np.uint8)
        clean = np.where(code.encode(pay) == 0, 60.0, -60.0)
        llr = np.concatenate(noisy + [np.zeros((1, code.N)), clean])
        llr = llr[rng.permutation(len(llr))]
        got, got_ok = code.decode(llr, list_size)
        alone = [code.decode(row, list_size) for row in llr]
        assert np.array_equal(got, np.concatenate([p for p, _ in alone]))
        assert np.array_equal(got_ok, np.concatenate([ok for _, ok in alone]))
        # a block of no words decodes to no rows
        got0, got0_ok = code.decode(np.zeros((0, code.N)), list_size)
        assert got0.shape == (0, code.payload_bits) and got0_ok.shape == (0,)
        # the noiseless words decode to their payloads, and the batch mixes
        # passing and failing words
        for p in pay:
            assert any(np.array_equal(p, g) for g in got[got_ok])
        assert 0 < got_ok.sum() < len(llr)


def test_list_one_schedule_decides_each_information_bit_once(small_code, big_code):
    # every node of the list-1 schedule that decides bits is a rate-1 node
    # (all its bits) or a repetition node (its last bit); zero nodes decide
    # none, and the three kinds tile the block
    for code in (small_code, big_code):
        frozen = frozen_mask(code)
        decided, tiles = [], []
        for op, d, i in code._ops:
            span = frozen[i:i + (code.N >> d)]
            if op in ("zero", "one", "rep"):
                tiles.append((i, len(span)))
            if op == "zero":
                assert span.all()
            elif op == "one":
                assert not span.any()
                decided += range(i, i + len(span))
            elif op == "rep":
                assert span[:-1].all() and not span[-1]
                decided.append(i + len(span) - 1)
        assert decided == code.info_pos.tolist()
        assert [i for i, _ in tiles] == np.cumsum([0] + [w for _, w in tiles])[:-1].tolist()
        assert sum(w for _, w in tiles) == code.N
    counts = Counter(op for op, *_ in big_code._ops)
    assert counts == {"f": 44, "g": 44, "c": 44, "rep": 21, "one": 18, "zero": 6}


def _last_node_width(code):
    """Width of the last node of code's list-1 schedule, a rate-1 node."""
    op, d, _ = [o for o in code._ops if o[0] != "c"][-1]
    assert op == "one"
    return code.N >> d


def _last_node_llrs(code, tail):
    """(batch, N) LLRs, zero but for tail on the last node of code's list-1
    schedule: the g steps on its path add exact zeros to them, so the node
    decodes tail itself."""
    assert tail.shape[1] == _last_node_width(code)
    return np.concatenate([np.zeros((len(tail), code.N - tail.shape[1])), tail], axis=1)


def _float32_sc(code, llr):
    """Plain SC, leaves deciding l < 0, in the decoder's float32, op by op."""
    chan = clamp_llr(np.atleast_2d(llr).astype(np.float32))
    u = np.array([sc_decode_reference(row, frozen_mask(code))[0] for row in chan])
    words = u[:, code.info_pos]
    return words[:, :code.payload_bits], _crc_check_reference(code, words)


@pytest.mark.parametrize("kind", ["exact-zero", "underflow"])
@pytest.mark.parametrize("which", ["small", "big"])
def test_list_one_matches_eager_reference_where_hard_decision_is_not_sc(
        which, kind, small_code, big_code):
    # a rate-1 node whose span holds an exact zero, or two LLRs +-1e-23
    # whose f underflows in float32, is not decided by its hard decision:
    # the node runs op by op.  In the underflow words the other LLRs come in
    # equal pairs, so that every leaf below the node reads an exact zero or
    # an LLR far from it, where the eager decoder's path-metric leaf decides
    # as l < 0 does
    code = small_code if which == "small" else big_code
    rng = np.random.default_rng(7000 + code.N)
    W = _last_node_width(code)
    if kind == "exact-zero":
        tail = rng.normal(0.0, 3.0, (200, W))
        tail[np.arange(200), rng.integers(0, W, 200)] = 0.0
    else:
        tail = np.repeat(rng.uniform(2.0, 6.0, (200, W // 2))
                         * rng.choice([-1.0, 1.0], (200, W // 2)), 2, axis=1)
        tail[:, 0] = 1e-23 * rng.choice([-1.0, 1.0], 200)
        tail[:, 1] = -tail[:, 0]
    llr = _last_node_llrs(code, tail)
    assert not any(_hard_decision_is_sc(row[None].astype(np.float32)) for row in tail)
    got, got_ok = code.decode(llr, 1)
    want, want_ok = _decode_reference(code, llr, 1)
    assert np.array_equal(got, want) and np.array_equal(got_ok, want_ok)


@pytest.mark.parametrize("which", ["small", "big"])
def test_list_one_is_float32_plain_sc(which, small_code, big_code):
    # noisy words, and words whose last rate-1 node holds LLRs +-a with
    # tanh(a/2)^width about 1e-50, so that its float32 f chain underflows
    # to zero at the first leaf; each decoded whole and word by word.  The
    # eager decoder is no oracle for the latter: leaves below the node read
    # LLRs so small that its path metric rounds them away and decides 0
    code = small_code if which == "small" else big_code
    rng = np.random.default_rng(7100 + code.N)
    W = _last_node_width(code)
    tiny = 2.0 * 1e-50 ** (1.0 / W) * rng.choice([-1.0, 1.0], (40, W))
    llr = np.concatenate([_last_node_llrs(code, tiny),
                          _reference_llrs(code, rng, 20, 0.3),
                          _reference_llrs(code, rng, 20, 1.0)])
    want = _float32_sc(code, llr)
    for got in (code.decode(llr, 1), code.decode(llr[:40], 1)):
        assert all(np.array_equal(g, w[:len(g)]) for g, w in zip(got, want))
    alone = [code.decode(row, 1) for row in llr[::3]]
    assert np.array_equal(np.concatenate([p for p, _ in alone]), want[0][::3])
    assert np.array_equal(np.concatenate([ok for _, ok in alone]), want[1][::3])


def test_decode_memory_per_word(big_code):
    # the receiver hands the decoder ~100 words per call (harness.BATCH_WORDS),
    # so its live state per word bounds a batch's memory: tracemalloc's peak
    # over one (512, 99) L = 8 decode of 100 noisy words was 27.3 KB per word
    # when the depth state was made to die where it is last read (55.6 before)
    llr = _reference_llrs(big_code, np.random.default_rng(8), 100, 0.3)
    tracemalloc.start()
    try:
        _, ok = big_code.decode(llr, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < ok.sum() < len(llr)
    assert peak <= 30_000 * len(llr)
