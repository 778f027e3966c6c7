import numpy as np
import pytest

from secure_ura import feedback_observation, uplink
from secure_ura.rng import complex_normal, stream

from helpers import uplink_frame


def test_noiseless_unit_channel_reads_downlink_row(full_params):
    M = full_params.V.shape[0]
    H = np.zeros((2, M), dtype=complex)
    H[0, 0] = H[1, 1] = 1.0
    Y = feedback_observation(H, full_params.V, 0.0, stream(0, "fb"))
    assert np.allclose(Y, full_params.V[:2], atol=1e-14)


def test_zero_channel_gives_pure_noise():
    V = np.zeros((4, 20000), dtype=complex)
    y = feedback_observation(np.zeros((1, 4), dtype=complex), V, 1.0, stream(1, "fb"))
    assert abs(np.mean(np.abs(y) ** 2) - 1.0) < 3.0 / np.sqrt(len(y))


def test_feedback_reproducible():
    V = (np.arange(12).reshape(3, 4) + 1j).astype(complex)
    h = np.array([[1.0, 2.0, 3.0]], dtype=complex)
    y1 = feedback_observation(h, V, 0.5, stream(3, "fb", 0))
    y2 = feedback_observation(h, V, 0.5, stream(3, "fb", 0))
    assert np.array_equal(y1, y2)


def test_feedback_dimension_mismatch():
    with pytest.raises(ValueError):
        feedback_observation(np.zeros((1, 3), dtype=complex),
                             np.zeros((4, 5), dtype=complex), 0.0, stream(0, "fb"))


def test_uplink_single_user_noiseless(rng):
    h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    x = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    y = uplink_frame(x[None, :], h[:, None], 0.0, stream(0, "up"), 3)
    assert np.allclose(y, np.outer(h, x), atol=1e-14)


def test_uplink_noise_only_variance():
    X = np.zeros((1, 2000), dtype=complex)
    H = np.zeros((8, 1), dtype=complex)
    sigma2 = 0.7
    y = uplink_frame(X, H, sigma2, stream(5, "up"), 20)
    est = np.mean(np.abs(y) ** 2)
    assert abs(est - sigma2) < 3.0 * sigma2 / np.sqrt(y.size)


def test_uplink_superposition_linearity(rng):
    H = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    X = rng.standard_normal((2, 7)) + 1j * rng.standard_normal((2, 7))
    both = uplink_frame(X, H, 0.4, stream(9, "up", 1), 2)
    one = uplink_frame(X[:1], H[:, :1], 0.4, stream(9, "up", 1), 2)  # same noise draw
    two = uplink_frame(X[1:], H[:, 1:], 0.0, stream(9, "up", 2), 2)
    assert np.allclose(both, one + two, atol=1e-12)


def test_uplink_dimension_mismatch(rng):
    with pytest.raises(ValueError):
        uplink(np.zeros((2, 4), dtype=complex), [np.zeros((2, 2), dtype=complex)],
               np.zeros((3, 1), dtype=complex), 0.0, stream(0, "up"))


@pytest.mark.parametrize("M,ka,n,n_key", [(8, 1, 96, 8), (16, 10, 712, 20),
                                          (16, 25, 712, 20), (50, 1, 712, 20),
                                          (50, 100, 712, 20)])
def test_uplink_splits_see_one_frame(M, ka, n, n_key):
    # each split's received block [y | y_k] is, bit for bit, the whole-frame
    # product H [X | x_k] plus one noise draw for the frame: the pilot+polar
    # columns and the noise are the same at every split
    gen = np.random.default_rng(M * ka)
    H = complex_normal(gen, (M, ka))
    X = complex_normal(gen, (ka, n))
    X_k = [complex_normal(gen, (ka, n_key)) for _ in range(3)]
    y, y_k = uplink(X, X_k, H, 0.7, stream(4, "up", ka))
    noise = complex_normal(stream(4, "up", ka), (M, n + n_key), 0.7)
    for x_k, got in zip(X_k, y_k, strict=True):
        whole = H @ np.concatenate([X, x_k], axis=1) + noise
        assert np.array_equal(np.concatenate([y, got], axis=1), whole)
