import numpy as np

from charm.features import feature_header, handcrafted_features
from charm.neurocore import make_rng


def test_dimension_is_5q():
    out = handcrafted_features(np.zeros((100, 18)))
    assert out.shape == (90,)


def test_hand_computed_channel():
    out = handcrafted_features(np.array([[1.0], [2.0], [3.0], [2.0]]))
    np.testing.assert_allclose(out, [2.0, 0.5, 2.0, 1.0, 3.0])


def test_constant_channel():
    out = handcrafted_features(np.array([[5.0], [5.0], [5.0]]))
    np.testing.assert_allclose(out, [5.0, 0.0, 0.0, 5.0, 5.0])


def test_channel_major_ordering():
    w = np.array([[1.0, 10.0], [3.0, 10.0]])
    out = handcrafted_features(w)
    np.testing.assert_allclose(out[:5], [2.0, 1.0, 2.0, 1.0, 3.0])
    np.testing.assert_allclose(out[5:], [10.0, 0.0, 0.0, 10.0, 10.0])


def test_shift_moves_location_features_only():
    rng = make_rng(0)
    w = rng.normal(size=(40, 3))
    base = handcrafted_features(w).reshape(3, 5)
    shifted = handcrafted_features(w + 2.5).reshape(3, 5)
    np.testing.assert_allclose(shifted[:, 0], base[:, 0] + 2.5)  # mean
    np.testing.assert_allclose(shifted[:, 3], base[:, 3] + 2.5)  # min
    np.testing.assert_allclose(shifted[:, 4], base[:, 4] + 2.5)  # max
    np.testing.assert_allclose(shifted[:, 1], base[:, 1], atol=1e-12)  # variance
    np.testing.assert_allclose(shifted[:, 2], base[:, 2], atol=1e-12)  # ptp


def test_scaling_laws():
    rng = make_rng(1)
    w = rng.normal(size=(30, 2))
    k = -3.0
    base = handcrafted_features(w).reshape(2, 5)
    scaled = handcrafted_features(k * w).reshape(2, 5)
    np.testing.assert_allclose(scaled[:, 1], k ** 2 * base[:, 1])
    np.testing.assert_allclose(scaled[:, 2], abs(k) * base[:, 2])


def test_permutation_invariance():
    rng = make_rng(2)
    w = rng.normal(size=(25, 4))
    perm = w[rng.permutation(25)]
    np.testing.assert_allclose(handcrafted_features(perm), handcrafted_features(w))


def test_header_matches_order():
    header = feature_header(["a", "b"])
    assert header == ["a_mean", "a_variance", "a_ptp", "a_min", "a_max",
                      "b_mean", "b_variance", "b_ptp", "b_min", "b_max"]
