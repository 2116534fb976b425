"""Auditory-band pooling: filterbank design contract and pooling algebra."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lstsc.erb import _erb_rate, design_filterbank, pool_feature


def _dense_reference_weights(num_bands: int, fft_size: int, sample_rate: float) -> np.ndarray:
    """Brute-force triangular weights on the auditory rate scale."""
    num_bins = fft_size // 2 + 1
    freqs = np.arange(num_bins) * (sample_rate / fft_size)
    rate = 21.4 * np.log10(1.0 + 0.00437 * freqs)
    centers = np.linspace(rate[0], rate[-1], num_bands)
    weights = np.zeros((num_bands, num_bins))
    for b in range(num_bands):
        lo = centers[b - 1] if b > 0 else None
        hi = centers[b + 1] if b + 1 < num_bands else None
        for f in range(num_bins):
            x = rate[f]
            rising = 1.0 if lo is None else (x - lo) / (centers[b] - lo)
            falling = 1.0 if hi is None else (hi - x) / (hi - centers[b])
            weights[b, f] = min(max(min(rising, falling), 0.0), 1.0)
    for b in range(num_bands):
        if weights[b].sum() == 0.0:
            nearest = int(np.argmin(np.abs(rate - centers[b])))
            weights[b, nearest] = 1.0
    return weights


class TestRateScale:
    def test_zero_frequency(self):
        assert _erb_rate(0.0) == 0.0

    def test_monotone(self):
        f = np.linspace(0.0, 8000.0, 500)
        assert np.all(np.diff(_erb_rate(f)) > 0)

    def test_known_value(self):
        # 1 kHz sits near 15.6 on this scale
        assert _erb_rate(1000.0) == pytest.approx(21.4 * np.log10(5.37), abs=1e-9)


class TestDesign:
    def test_standard_bank_contract(self):
        fb = design_filterbank(16000, 512, 48)
        assert fb.weights.shape == (48, 257)
        assert np.all(fb.pi > 0.0)
        assert np.all(np.diff(fb.centers_hz) > 0)
        covered = fb.weights.sum(axis=0)
        assert np.all(covered > 0.0)
        assert fb.weights.min() >= 0.0 and fb.weights.max() <= 1.0

    def test_band_edges_span_spectrum(self):
        fb = design_filterbank(16000, 512, 48)
        assert fb.centers_hz[0] == pytest.approx(0.0, abs=1e-9)
        assert fb.centers_hz[-1] == pytest.approx(8000.0, abs=1e-6)

    def test_two_band_bank(self):
        fb = design_filterbank(16000, 512, 2)
        assert fb.weights.shape == (2, 257)
        assert np.all(fb.weights.sum(axis=0) > 0.0)

    def test_too_many_bands_rejected(self):
        with pytest.raises(ValueError, match="bands"):
            design_filterbank(16000, 512, 300)

    def test_too_few_bands_rejected(self):
        with pytest.raises(ValueError, match="bands"):
            design_filterbank(16000, 512, 1)

    def test_odd_fft_rejected(self):
        with pytest.raises(ValueError, match="even"):
            design_filterbank(16000, 511, 8)

    def test_matches_dense_reference(self):
        for num_bands in (2, 8, 48):
            fb = design_filterbank(16000, 512, num_bands)
            want = _dense_reference_weights(num_bands, 512, 16000.0)
            assert np.allclose(fb.weights, want, atol=1e-9)

    def test_support_indices(self):
        # each band's positive weights cover one contiguous run of bins
        for fft_size, bands in ((128, 8), (512, 48)):
            fb = design_filterbank(16000, fft_size, bands)
            for row in fb.weights:
                nz = np.nonzero(row)[0]
                assert np.array_equal(nz, np.arange(nz[0], nz[-1] + 1))


class TestPoolFeature:
    @pytest.fixture()
    def bank(self):
        return design_filterbank(16000, 128, 8)

    def test_constant_feature_preserved(self, bank):
        for c in (-1.0, -0.25, 0.0, 0.5, 1.0):
            pooled = pool_feature(np.full(65, c), bank)
            assert np.allclose(pooled, c, atol=1e-12)

    def test_dense_oracle(self, bank, rng):
        values = rng.uniform(-1.0, 1.0, 65)
        pooled = pool_feature(values, bank)
        want = np.array([
            float(np.dot(bank.weights[b], values) / bank.pi[b]) for b in range(8)
        ])
        assert np.allclose(pooled, want, atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_convexity(self, seed):
        bank = design_filterbank(16000, 64, 6)
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1.0, 1.0, 33)
        pooled = pool_feature(values, bank)
        assert np.all(pooled >= values.min() - 1e-12)
        assert np.all(pooled <= values.max() + 1e-12)

    def test_linearity(self, bank, rng):
        a = rng.uniform(-1.0, 1.0, 65)
        b = rng.uniform(-1.0, 1.0, 65)
        lhs = pool_feature(0.3 * a + 0.7 * b, bank)
        rhs = 0.3 * pool_feature(a, bank) + 0.7 * pool_feature(b, bank)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_length_mismatch_rejected(self, bank):
        with pytest.raises(ValueError, match="does not match"):
            pool_feature(np.zeros(64), bank)

