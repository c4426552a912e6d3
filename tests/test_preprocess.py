import tracemalloc

import numpy as np
import pytest

from charm.neurocore import EPS_STD, make_rng
from charm.preprocess import (FIT_BLOCK, ChannelStats, fit_and_normalize, fit_normalizer,
                              normalize, window)


class TestFitNormalizer:
    def test_population_std(self):
        stats = fit_normalizer([np.array([[0.0], [2.0]])])
        assert stats.means[0] == 1.0
        assert stats.stds[0] == 1.0

    def test_constant_channel_clamped(self):
        stats = fit_normalizer([np.array([[5.0], [5.0], [5.0]])])
        assert stats.means[0] == 5.0
        assert stats.stds[0] == EPS_STD

    def test_channels_independent(self):
        stats = fit_normalizer([np.array([[0.0, 10.0], [2.0, 10.0]])])
        np.testing.assert_allclose(stats.means, [1.0, 10.0])

    def test_pools_across_segments(self):
        stats = fit_normalizer([np.array([[0.0]]), np.array([[2.0]])])
        assert stats.means[0] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_normalizer([])


class TestChannelStats:
    @pytest.mark.parametrize("means, stds", [([np.nan], [1.0]), ([-np.inf], [1.0]),
                                             ([0.0], [np.nan]), ([0.0], [np.inf])])
    def test_non_finite_rejected(self, means, stds):
        with pytest.raises(ValueError, match="finite"):
            ChannelStats(np.array(means), np.array(stds))


class TestNormalize:
    def test_arithmetic(self):
        stats = ChannelStats(np.array([1.0]), np.array([1.0]))
        np.testing.assert_allclose(
            normalize(np.array([[0.0], [2.0]]), stats), [[-1.0], [1.0]])

    def test_fixed_point(self):
        rng = make_rng(0)
        x = rng.normal(size=(500, 3))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        stats = fit_normalizer([x])
        np.testing.assert_allclose(normalize(x, stats), x, atol=1e-12)

    def test_constant_channel_maps_to_zero(self):
        x = np.full((4, 1), 7.0)
        out = normalize(x, fit_normalizer([x]))
        np.testing.assert_array_equal(out, 0.0)

    def test_dimension_mismatch(self):
        stats = ChannelStats(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            normalize(np.zeros((3, 4)), stats)

    def test_fit_then_normalize_standardizes(self):
        rng = make_rng(1)
        x = rng.normal(loc=3.0, scale=2.5, size=(400, 5))
        out = normalize(x, fit_normalizer([x]))
        assert np.abs(out.mean(axis=0)).max() < 1e-9
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-6)


class TestFitAndNormalize:
    """train stacks its crops, fits on the stack and normalizes it in place:
    the bytes of numpy's mean and std of the pooled crops and a normalized
    copy, q = 1 (where numpy sums the one-column pool pairwise) included."""

    @pytest.mark.parametrize("q", [1, 6])
    def test_same_bytes_as_list_of_crops(self, q):
        rng = make_rng(q)
        segments = [rng.normal(loc=rng.normal(), scale=rng.uniform(0.5, 3.0), size=(n, q))
                    for n in rng.integers(64, 300, size=12)]
        # overlapping crops of 64 rows at stride 32, as fixed_length_dataset makes them
        crops = [seg[o:o + 64] for seg in segments for o in range(0, len(seg) - 63, 32)]
        pooled = np.concatenate(crops)
        means = pooled.mean(axis=0)
        stds = np.maximum(pooled.std(axis=0), EPS_STD)
        expected = (np.stack(crops) - means) / stds

        stack = np.stack(crops)
        fitted = fit_and_normalize(stack)
        assert fitted.means.tobytes() == means.tobytes()
        assert fitted.stds.tobytes() == stds.tobytes()
        assert stack.tobytes() == expected.tobytes()
        stats = fit_normalizer(crops)
        assert stats.means.tobytes() == means.tobytes()
        assert stats.stds.tobytes() == stds.tobytes()

    @pytest.mark.parametrize("q", [1, 2, 6])
    @pytest.mark.parametrize("rows", [1, FIT_BLOCK - 1, FIT_BLOCK, FIT_BLOCK + 1,
                                      3 * FIT_BLOCK + 5])
    def test_blocks_same_bytes_as_one_shot(self, q, rows):
        # the squared deviations are summed FIT_BLOCK rows at a time; several
        # draws, since a sum in another order often still rounds the same
        rng = make_rng(rows * 7 + q)
        for _ in range(8):
            x = rng.normal(loc=rng.normal(size=q), scale=rng.uniform(0.1, 1e3, size=q),
                           size=(rows, q))
            means = x.mean(axis=0)
            stds = np.maximum(x.std(axis=0), EPS_STD)
            expected = (x - means) / stds

            fitted = fit_and_normalize(x)
            assert fitted.means.tobytes() == means.tobytes()
            assert fitted.stds.tobytes() == stds.tobytes()
            assert x.tobytes() == expected.tobytes()

    def test_holds_a_block_not_a_copy(self):
        x = make_rng(3).normal(size=(8 * FIT_BLOCK, 6))
        tracemalloc.start()
        try:
            fit_and_normalize(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 4

    def test_constant_channel_clamped(self):
        x = np.full((2, 3, 1), 4.0)
        assert fit_and_normalize(x).stds[0] == EPS_STD
        np.testing.assert_array_equal(x, 0.0)


class TestWindow:
    def test_full_scale_count(self):
        assert window(np.zeros((2560, 18)), 16).shape == (160, 16, 18)

    def test_single_window(self):
        x = make_rng(2).normal(size=(16, 3))
        w = window(x, 16)
        assert w.shape == (1, 16, 3)
        np.testing.assert_array_equal(w[0], x)

    def test_trailing_samples_dropped(self):
        w = window(np.arange(66).reshape(33, 2), 16)
        assert w.shape == (2, 16, 2)

    def test_window_then_flatten_reproduces_prefix(self):
        x = make_rng(3).normal(size=(50, 4))
        w = window(x, 8)
        np.testing.assert_array_equal(w.reshape(-1, 4), x[:48])

    def test_too_short_gives_no_windows(self):
        assert window(np.zeros((5, 2)), 16).shape == (0, 16, 2)
