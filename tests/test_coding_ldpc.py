import hashlib

import numpy as np
import pytest

from secure_ura import LdpcCode, ldpc
from secure_ura.ldpc import _TANH_LIMIT
from secure_ura.modulation import clamp_llr


@pytest.fixture(scope="module")
def code():
    return LdpcCode.build(60, 40)


def test_zero_key_zero_parity(code):
    parity = code.encode(np.zeros(40, dtype=np.uint8))
    assert not parity.any()


def test_random_codewords_satisfy_checks(code, rng):
    s = rng.integers(0, 2, (200, 40), dtype=np.uint8)
    parity = code.encode(s)
    assert not code.syndrome(np.concatenate([s, parity], axis=1)).any()


def test_parity_map_is_linear(code, rng):
    a = rng.integers(0, 2, 40, dtype=np.uint8)
    b = rng.integers(0, 2, 40, dtype=np.uint8)
    pa = code.encode(a)
    pb = code.encode(b)
    pab = code.encode(a ^ b)
    assert np.array_equal(pab, pa ^ pb)


def test_noiseless_decode_converges_without_iterations(code, rng):
    s = rng.integers(0, 2, (20, 40), dtype=np.uint8)
    parity = code.encode(s)
    llr = np.where(np.concatenate([s, parity], axis=1) == 0, 40.0, -40.0)
    s_hat, converged = code.decode(llr, iters=0)
    assert converged.all()
    assert np.array_equal(s_hat, s)


def test_single_flipped_bit_corrected(code, rng):
    s = rng.integers(0, 2, 40, dtype=np.uint8)
    parity = code.encode(s)
    clean = np.where(np.concatenate([s, parity]) == 0, 40.0, -40.0)
    llrs = np.tile(clean, (60, 1))
    llrs[np.arange(60), np.arange(60)] *= -1.0  # one confident wrong bit each
    s_hat, converged = code.decode(llrs, 50)
    assert converged.all()
    assert np.array_equal(s_hat, np.tile(s, (60, 1)))


def test_all_zero_llr_reports_nonconvergence(code):
    s_hat, converged = code.decode(np.zeros((1, 60)), 50)
    assert converged.tolist() == [False]
    assert s_hat.shape == (1, 40)
    # a 1-D vector is a batch of one: the results keep the batch axis
    s_hat, converged = code.decode(np.zeros(60), 50)
    assert converged.tolist() == [False]
    assert s_hat.shape == (1, 40)


def test_column_weights_are_three(code):
    assert (code.H.sum(axis=0) == 3).all()


@pytest.mark.parametrize("n, k, sha256", [
    (60, 40, "151f45a129f9a88e1889bb04ac13bd5002840504d9a3c5d8c4ae0ca8d95066eb"),
    (16, 8, "bac211443f8936be93ddba9e39c13531d7ee14dca1c8cc010bcd29079044697e"),
    (128, 64, "b246908596098ecffda7dd5ef59fc28817b745b7a4c11baef11c951cfe436fbe")])
def test_construction_is_pinned(n, k, sha256):
    # PEG and the column permutation use integer and boolean operations
    # only, so H's bytes do not depend on the BLAS build
    H = LdpcCode.build(n, k).H
    assert H.dtype == np.uint8 and H.shape == (n - k, n)
    assert hashlib.sha256(H.tobytes()).hexdigest() == sha256


def test_construction_requires_valid_rate():
    with pytest.raises(ValueError):
        LdpcCode.build(40, 40)


def test_decode_rejects_wrong_length(code):
    with pytest.raises(ValueError):
        code.decode(np.zeros((1, 59)), 10)


def test_small_code_round_trip(rng):
    code = LdpcCode.build(16, 8)
    s = rng.integers(0, 2, (300, 8), dtype=np.uint8)
    parity = code.encode(s)
    llr = np.where(np.concatenate([s, parity], axis=1) == 0, 40.0, -40.0)
    s_hat, converged = code.decode(llr, 30)
    assert converged.all() and np.array_equal(s_hat, s)


def _decode_reference(code, llr, iters=50):
    """The dense (batch, checks, variables) BP the edge list replaced, verbatim."""
    self = code
    llr = np.asarray(llr, dtype=np.float64)
    single = llr.ndim == 1
    L = clamp_llr(np.atleast_2d(llr))
    batch = L.shape[0]
    if L.shape[1] != self.n:
        raise ValueError(f"LLR length {L.shape[1]} != {self.n}")

    mask = self.H.astype(bool)[None, :, :]          # (1, m, n)
    bits = (L < 0).astype(np.uint8)
    best = bits.copy()
    # a zero LLR is an erasure: its hard decision is arbitrary, so it
    # cannot count toward convergence
    determinate = np.all(L != 0.0, axis=-1)
    converged = determinate & ~np.any(self.syndrome(bits), axis=-1)

    E = np.zeros((batch,) + self.H.shape)           # check -> var messages
    V = np.where(mask, L[:, None, :], 0.0)          # var -> check messages

    for _ in range(iters):
        if converged.all():
            break
        t = np.where(mask, np.tanh(0.5 * V), 1.0)
        zero = mask & (t == 0.0)
        nzero = zero.sum(axis=2, keepdims=True)
        t_safe = np.where(zero, 1.0, t)
        prod = np.prod(t_safe, axis=2, keepdims=True)
        # leave-one-out product, exact even when some tanh terms are 0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            loo = np.where(
                nzero == 0, prod / t_safe,
                np.where((nzero == 1) & zero, prod, 0.0))
        loo = np.clip(loo, -_TANH_LIMIT, _TANH_LIMIT)
        E = np.where(mask, 2.0 * np.arctanh(loo), 0.0)

        total = L + E.sum(axis=1)
        V = np.where(mask, total[:, None, :] - E, 0.0)

        bits = (total < 0).astype(np.uint8)
        ok = np.all(total != 0.0, axis=-1) & ~np.any(self.syndrome(bits), axis=-1)
        newly = ok & ~converged
        if newly.any():
            best[newly] = bits[newly]
            converged |= newly

    best[~converged] = bits[~converged]
    s_hat = best[:, :self.k]
    if single:
        return s_hat[0], bool(converged[0])
    return s_hat, converged


def _noisy_llrs(code, rng, batch, sigma):
    """Codeword LLRs with noise, ~x50-saturated entries and check erasures.

    Word b erases the variables of (b % 3) edges of one check, so batches
    hold words with none, one and two zero-tanh edges in a check.
    """
    s = rng.integers(0, 2, (batch, code.k), dtype=np.uint8)
    parity = code.encode(s)
    x = 1.0 - 2.0 * np.concatenate([s, parity], axis=1)
    llr = 2.0 * x / sigma ** 2 + rng.normal(0.0, 2.0 / sigma, x.shape)
    sat = rng.random(llr.shape) < 0.05
    llr[sat] *= 50.0
    for b in range(batch):
        row = np.flatnonzero(code.H[rng.integers(code.H.shape[0])])
        llr[b, rng.permutation(row)[:b % 3]] = 0.0
    return llr


@pytest.mark.parametrize("n,k", [(60, 40), (16, 8)])
@pytest.mark.parametrize("iters", [0, 1, 50])
def test_decode_matches_dense_reference(n, k, iters):
    code = LdpcCode.build(n, k)
    rng = np.random.default_rng(n + iters)
    for batch, sigma in ((1, 0.5), (1, 1.0), (100, 0.6), (100, 0.8)):
        llr = _noisy_llrs(code, rng, batch, sigma)
        got, got_conv = code.decode(llr, iters)
        want, want_conv = _decode_reference(code, llr, iters)
        assert np.array_equal(got, want) and np.array_equal(got_conv, want_conv)
    # a 1-D vector decodes as a batch of one, the reference as one word
    llr = _noisy_llrs(code, rng, 1, 1.0)[0]
    got, got_conv = code.decode(llr, iters)
    want, want_conv = _decode_reference(code, llr, iters)
    assert got.shape == (1, k) and got_conv.shape == (1,)
    assert np.array_equal(got[0], want) and got_conv[0] == want_conv


@pytest.mark.parametrize("n,k", [(60, 40), (16, 8)])
def test_edge_list_check_matches_syndrome(n, k):
    # the decoder's convergence check reads each check's parity off the edge
    # lists (padded slots included at (16, 8)); syndrome stays the reference
    code = LdpcCode.build(n, k)
    rng = np.random.default_rng(n)
    words = rng.integers(0, 2, (500, n), dtype=np.uint8)
    s = rng.integers(0, 2, (50, k), dtype=np.uint8)
    codewords = np.concatenate([s, code.encode(s)], axis=1)
    flips = np.tile(codewords, (n, 1))
    flips[np.arange(len(flips)), np.repeat(np.arange(n), 50)] ^= 1
    for bits in (words, codewords, flips, words[:0]):
        want = np.any(code.syndrome(bits), axis=-1)
        assert np.array_equal(code._fails_a_check(bits.T), want)
    assert not code._fails_a_check(codewords.T).any() and code._fails_a_check(flips.T).all()


@pytest.mark.parametrize("n,k", [(60, 40), (16, 8)])
def test_decode_matches_dense_reference_on_hard_and_erased_llrs(n, k, monkeypatch):
    # words of +-40 (the clamp), zero-LLR erasures and soft values mixed:
    # some converge before the first iteration, some only later, some never.
    # Only words 60-179 hold erasures, so words 180-299 decoded alone see no
    # zero tanh, and the batch, which holds the all-zero words 50-59, does
    code = LdpcCode.build(n, k)
    rng = np.random.default_rng(7 * n)
    s = rng.integers(0, 2, (300, k), dtype=np.uint8)
    x = 1.0 - 2.0 * np.concatenate([s, code.encode(s)], axis=1)
    llr = np.where(rng.random(x.shape) < 0.5, 40.0 * x, x * rng.normal(2.0, 2.0, x.shape))
    llr[60:180][rng.random((120, n)) < 0.05] = 0.0
    llr[rng.random(x.shape) < 0.03] *= -1.0
    llr[:50] = 40.0 * x[:50]
    llr[50:60] = 0.0

    # which words, decoded alone, take the exact-zero leave-one-out formula
    leave_one_out, zero_branch = ldpc._leave_one_out_with_zeros, []

    def spy(t):
        zero_branch.append(t.shape)
        return leave_one_out(t)
    monkeypatch.setattr(ldpc, "_leave_one_out_with_zeros", spy)

    iterated = ~code.decode(llr, 0)[1]           # words that enter the BP loop
    for iters in (0, 1, 50):
        got, got_conv = code.decode(llr, iters)
        want, want_conv = _decode_reference(code, llr, iters)
        assert np.array_equal(got, want) and np.array_equal(got_conv, want_conv)
        # words decode independently: each alone gives its row of the batch
        reached = []
        for b in range(len(llr)):
            zero_branch.clear()
            alone, alone_conv = code.decode(llr[b], iters)
            assert np.array_equal(alone[0], got[b]) and alone_conv[0] == got_conv[b]
            reached.append(bool(zero_branch))
        if iters:
            assert all(reached[50:60])
            assert any(iterated[b] and not reached[b] for b in range(180, 300))
    assert got_conv[:50].all() and not got_conv[50:60].any()
    assert 0 < got_conv[60:].sum() < 240


def test_small_code_has_irregular_checks():
    # the (16, 8) case above covers padded check rows
    H = LdpcCode.build(16, 8).H
    assert len(set(H.sum(axis=1).tolist())) > 1


def _gf2_inv_reference(B):
    """The Gauss-Jordan GF(2) inverse the parity map was built with, verbatim."""
    m = B.shape[0]
    A = np.concatenate([B.copy(), np.eye(m, dtype=np.uint8)], axis=1)
    for col in range(m):
        sub = np.flatnonzero(A[col:, col])
        if sub.size == 0:
            raise np.linalg.LinAlgError("singular GF(2) matrix")
        p = col + sub[0]
        if p != col:
            A[[col, p]] = A[[p, col]]
        others = np.flatnonzero(A[:, col])
        others = others[others != col]
        A[others] ^= A[col]
    return A[:, m:]


@pytest.mark.parametrize("n,k", [(60, 40), (16, 8), (20, 10), (30, 20), (48, 40),
                                 (100, 40), (64, 32), (45, 40), (50, 40)])
def test_parity_map_matches_inverse_reference(n, k):
    code = LdpcCode.build(n, k)
    B, A = code.H[:, k:], code.H[:, :k]
    want = (_gf2_inv_reference(B).astype(np.int64) @ A.astype(np.int64) % 2).astype(np.uint8)
    assert code.parity_map.dtype == np.uint8
    assert np.array_equal(code.parity_map, want)


@pytest.mark.parametrize("n,rank", [(43, 1), (46, 5)])
def test_rank_deficient_construction_is_rejected(n, rank):
    with pytest.raises(ValueError, match=rf"^construction produced a rank-{rank} "
                       rf"parity-check matrix, need rank {n - 40}$"):
        LdpcCode.build(n, 40)
