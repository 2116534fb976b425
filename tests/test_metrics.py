"""Scale-invariant SDR: exact identities, invariances, and the projection."""
from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lstsc.metrics import si_sdr


class TestExactCases:
    def test_perfect_estimate_caps_at_plus_100(self, rng):
        ref = rng.standard_normal(4000)
        report = si_sdr(ref, ref)
        assert report.value_db == 100.0
        assert report.projection_gain == pytest.approx(1.0)

    def test_scaled_estimate_also_caps(self, rng):
        ref = rng.standard_normal(4000)
        assert si_sdr(ref, 3.7 * ref).value_db == 100.0

    def test_orthogonal_estimate_floors_at_minus_100(self):
        ref = np.array([1.0, 0.0, -1.0, 0.0] * 100)
        est = np.array([0.0, 1.0, 0.0, -1.0] * 100)
        assert si_sdr(ref, est).value_db == -100.0

    def test_half_aligned_case(self):
        # e = [1, 1] against r = [1, 0]: projection [1, 0], residual [0, 1] -> 0 dB
        ref = np.array([1.0, 0.0])
        est = np.array([1.0, 1.0])
        report = si_sdr(ref, est)
        assert report.value_db == pytest.approx(0.0, abs=1e-12)
        assert report.projection_gain == pytest.approx(1.0)


class TestProjection:
    def test_matches_least_squares(self, rng):
        ref = rng.standard_normal(2048)
        est = 0.8 * ref + 0.3 * rng.standard_normal(2048)
        report = si_sdr(ref, est)
        alpha = np.linalg.lstsq(ref[:, None], est, rcond=None)[0][0]
        target = alpha * ref
        residual = est - target
        want = 10.0 * np.log10(np.sum(target**2) / np.sum(residual**2))
        assert report.value_db == pytest.approx(want, abs=1e-9)
        assert report.projection_gain == pytest.approx(alpha, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.01, 100.0))
    def test_scale_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        ref = rng.standard_normal(512)
        est = ref + 0.2 * rng.standard_normal(512)
        base = si_sdr(ref, est).value_db
        scaled = si_sdr(ref, scale * est).value_db
        assert scaled == pytest.approx(base, abs=1e-9)

    def test_noise_level_ordering(self, rng):
        ref = rng.standard_normal(4000)
        noisy_a = ref + 0.1 * rng.standard_normal(4000)
        noisy_b = ref + 0.5 * rng.standard_normal(4000)
        assert si_sdr(ref, noisy_a).value_db > si_sdr(ref, noisy_b).value_db


class TestValidation:
    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="reference"):
            si_sdr(np.zeros(100), np.ones(100))

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="length"):
            si_sdr(rng.standard_normal(100), rng.standard_normal(101))

    def test_non_mono_rejected(self, rng):
        with pytest.raises(ValueError):
            si_sdr(rng.standard_normal((2, 100)), rng.standard_normal((2, 100)))

    def test_zero_estimate_floors(self, rng):
        ref = rng.standard_normal(100)
        assert si_sdr(ref, np.zeros(100)).value_db == -100.0

    @settings(max_examples=50, deadline=None)
    @given(
        st.sampled_from(["reference", "estimate"]), st.integers(0, 99),
        st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(0, 2**32 - 1),
    )
    def test_non_finite_sample_named(self, name, index, value, seed):
        rng = np.random.default_rng(seed)
        inputs = {"reference": rng.standard_normal(100), "estimate": rng.standard_normal(100)}
        bad = inputs[name]
        bad[index] = value
        # more bad samples after the first
        later = bad[index + 1 :]
        bad[index + 1 :] = np.where(rng.random(later.size) < 0.3, np.nan, later)
        message = re.escape(f"non-finite {name} sample at index {index}: {value}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            si_sdr(inputs["reference"], inputs["estimate"])
