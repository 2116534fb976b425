"""Masking front end: heuristic mask algebra and the streaming enhancer."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import delayed_array_audio

from lstsc.coherence import VARIANT_SETTINGS, CoherenceConfig, compute_lstsc
from lstsc.enhance import HeuristicMaskEstimator, enhance_stream, heuristic_mask
from lstsc.signal_core import MultichannelAudio, StftConfig, istft, stft_multichannel


# doubles where a clamp into [0, 1] can go wrong: both zeros and their
# neighbours, the upper bound and its neighbours, the infinities and NaNs
# of both signs
_EDGE_DOUBLES = [
    0.0, -0.0, 5e-324, -5e-324, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
    -1.0, np.inf, -np.inf, np.nan, -np.nan,
]
_DOUBLES = st.one_of(
    st.sampled_from(_EDGE_DOUBLES),
    st.floats(),
    # any bit pattern: NaNs of either sign and any payload, subnormals
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
)


class TestHeuristicMask:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40).flatmap(
        lambda n: st.tuples(*[st.lists(_DOUBLES, min_size=n, max_size=n)] * 2)
    ))
    def test_equals_the_np_clip_formula_byte_for_byte(self, rows):
        local, glob = (np.array(row, dtype=np.float64) for row in rows)
        want = np.clip(local, 0.0, 1.0) * (1.0 - np.clip(glob, 0.0, 1.0))
        assert heuristic_mask(local, glob).tobytes() == want.tobytes()

    def test_strong_local_quiet_global(self):
        row = heuristic_mask(np.array([1.0, 0.5]), np.array([0.0, 0.0]))
        assert row == pytest.approx([1.0, 0.5])

    def test_global_lock_suppresses(self):
        row = heuristic_mask(np.array([1.0, 1.0]), np.array([1.0, 0.5]))
        assert row == pytest.approx([0.0, 0.5])

    def test_negative_coherences_clamp_to_zero(self):
        row = heuristic_mask(np.array([-0.5, -1.0]), np.array([-0.2, 0.0]))
        assert row == pytest.approx([0.0, 0.0])

    def test_bounded(self, rng):
        local = rng.uniform(-1.0, 1.0, 257)
        glob = rng.uniform(-1.0, 1.0, 257)
        row = heuristic_mask(local, glob)
        assert row.min() >= 0.0 and row.max() <= 1.0

    def test_estimator_wrapper(self, rng):
        est = HeuristicMaskEstimator()
        local = rng.uniform(0.0, 1.0, 64)
        glob = rng.uniform(0.0, 1.0, 64)
        row = est(np.ones(64), local, glob)
        assert np.allclose(row, heuristic_mask(local, glob))


class _ConstantEstimator:
    def __init__(self, value: float):
        self.value = value

    def __call__(self, magnitude, gamma_local, gamma_global, banded=None):
        return np.full_like(gamma_local, self.value)


class TestEnhanceStream:
    @pytest.fixture()
    def audio(self, rng):
        return delayed_array_audio(rng, 4, 24000, noise_rms=0.01)

    def test_constant_mask_scales_reference(self, audio):
        # a unit mask rebuilds the reference channel; a power-of-two gain
        # scales every step exactly, so half keeps the phase bit for bit
        cfg = CoherenceConfig.for_variant("lstsc-2")
        passthrough = istft(stft_multichannel(audio)[0], StftConfig(), length=audio.num_samples)
        for gain in (1.0, 0.5):
            result = enhance_stream(audio, cfg, estimator=_ConstantEstimator(gain))
            assert np.array_equal(result.enhanced.samples[0], gain * passthrough), gain

    def test_zero_mask_silences_and_never_halts(self, audio):
        cfg = CoherenceConfig.for_variant("lstsc-2")
        result = enhance_stream(audio, cfg, estimator=_ConstantEstimator(0.0))
        assert not result.enhanced.samples.any()
        assert not result.features.mask_halted.any()

    def test_out_of_range_estimator_rejected(self, audio):
        cfg = CoherenceConfig.for_variant("lstsc-2")
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            enhance_stream(audio, cfg, estimator=_ConstantEstimator(1.5))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.1])
    def test_non_finite_or_negative_estimator_rejected(self, audio, value):
        cfg = CoherenceConfig.for_variant("lstsc-3")
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            enhance_stream(audio, cfg, estimator=_ConstantEstimator(value))

    def test_one_nan_entry_rejected(self, audio):
        class OneNan:
            def __call__(self, magnitude, gamma_local, gamma_global, banded=None):
                row = np.full_like(gamma_local, 0.5)
                row[7] = np.nan
                return row

        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            enhance_stream(audio, CoherenceConfig.for_variant("lstsc-2"), estimator=OneNan())

    def test_default_estimator_is_heuristic(self, audio):
        cfg = CoherenceConfig.for_variant("lstsc-3")
        result = enhance_stream(audio, cfg)
        want = np.clip(result.features.gamma_local_warped, 0.0, 1.0) * (
            1.0 - np.clip(result.features.gamma_global_warped, 0.0, 1.0)
        )
        assert np.allclose(result.features.mask, want, atol=1e-12)

    def test_unwarped_variant_feeds_raw_features(self, audio):
        cfg = CoherenceConfig.for_variant("lstsc-2")
        result = enhance_stream(audio, cfg)
        want = np.clip(result.features.gamma_local, 0.0, 1.0) * (
            1.0 - np.clip(result.features.gamma_global, 0.0, 1.0)
        )
        assert np.allclose(result.features.mask, want, atol=1e-12)

    def test_energy_nonexpansive(self, audio):
        cfg = CoherenceConfig.for_variant("lstsc-3")
        result = enhance_stream(audio, cfg)
        passthrough = istft(stft_multichannel(audio)[0], StftConfig(), length=audio.num_samples)
        assert np.sum(result.enhanced.samples[0] ** 2) <= np.sum(passthrough**2) + 1e-12

    def test_deterministic(self, audio):
        cfg = CoherenceConfig.for_variant("lstsc-3")
        a = enhance_stream(audio, cfg)
        b = enhance_stream(audio, cfg)
        assert np.array_equal(a.enhanced.samples, b.enhanced.samples)
        assert np.array_equal(a.features.mask, b.features.mask)

    def test_mono_input_rejected(self, rng):
        mono = MultichannelAudio(rng.standard_normal((1, 8000)), 16000)
        with pytest.raises(ValueError, match="at least 2 microphones"):
            enhance_stream(mono, CoherenceConfig())

    def test_wrong_rate_rejected(self, rng):
        audio = MultichannelAudio(rng.standard_normal((4, 8000)), 44100)
        with pytest.raises(ValueError, match="16 kHz"):
            enhance_stream(audio, CoherenceConfig())

    @pytest.mark.parametrize("num_mics", [1, 4])
    def test_rate_is_named_and_checked_before_the_channels(self, rng, num_mics):
        audio = MultichannelAudio(rng.standard_normal((num_mics, 8000)), 8000)
        with pytest.raises(ValueError, match="^pipeline entry expects 16 kHz audio, got 8000 Hz$"):
            enhance_stream(audio, CoherenceConfig())

    def test_output_shape(self, audio):
        result = enhance_stream(audio, CoherenceConfig.for_variant("lstsc-4"))
        assert result.enhanced.samples.shape == (1, audio.num_samples)
        assert result.mask.data.shape[1] == 257


@settings(max_examples=20, deadline=None)
@given(
    variant=st.sampled_from(sorted(VARIANT_SETTINGS)),
    R=st.sampled_from([0, 1, 3]),
    cut=st.integers(0, 23999),
    seed=st.integers(0, 2**32 - 1),
)
@example(variant="lstsc-3", R=1, cut=20000, seed=0)
def test_input_from_sample_c_on_changes_nothing_before_the_lookahead(variant, R, cut, seed):
    # neither the rows of a frame whose RTF window ends before c nor the
    # enhanced samples before c - (R * hop + frame_len)
    rng = np.random.default_rng(seed)
    # 148 frames: three engine blocks
    audio = delayed_array_audio(rng, 3, 24000, delays=(0, 3, 7), noise_rms=0.05)
    changed = audio.samples.copy()
    changed[:, cut:] = rng.standard_normal((3, audio.num_samples - cut))
    cfg = CoherenceConfig.for_variant(variant, R=R)
    hop, frame_len = StftConfig().hop, StftConfig().frame_len
    # frame t's RTF window ends at sample (t + R) * hop + frame_len - 1
    kept = max(0, (cut - frame_len) // hop + 1 - R)
    start = max(0, cut - (R * hop + frame_len))
    outputs = []
    for samples in (audio.samples, changed):
        clip = MultichannelAudio(samples, audio.sample_rate)
        result = enhance_stream(clip, cfg)
        planes = [*vars(compute_lstsc(stft_multichannel(clip), cfg)).values(),
                  *vars(result.features).values()]
        outputs.append([None if plane is None else plane[:kept].tobytes() for plane in planes])
        outputs[-1].append(result.enhanced.samples[:, :start].tobytes())
    assert outputs[0] == outputs[1]
