"""Synthetic scenario builders used by the behavioral validations."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from lstsc import scenarios
from lstsc.coherence import CoherenceConfig, arcsine_warp, compute_lstsc
from lstsc.roomsim import ROLE_ORDER, MixSpec
from lstsc.scenarios import (
    STEM_KINDS,
    build_misconvergence_scenario,
    build_sifting_scenario,
    frame_coverage,
    intermittent_speech,
    mean_global_warped,
    render_scene,
    speech_like,
    stationary_noise,
)
from lstsc.signal_core import StftConfig, stft_multichannel


class TestStems:
    def test_speech_like_rms(self, rng):
        x = speech_like(rng, 16000, rms=0.05)
        assert np.sqrt(np.mean(x**2)) == pytest.approx(0.05, rel=1e-9)

    def test_speech_like_floor_keeps_activity(self, rng):
        x = speech_like(rng, 16000, envelope_floor=0.35)
        # every 100 ms window carries energy when the envelope never closes
        windows = x[: 16000 // 1600 * 1600].reshape(-1, 1600)
        assert np.all(np.sqrt(np.mean(windows**2, axis=1)) > 1e-4)

    def test_stationary_noise_rms(self, rng):
        x = stationary_noise(rng, 16000, rms=0.03)
        assert np.sqrt(np.mean(x**2)) == pytest.approx(0.03, rel=1e-9)

    def test_intermittent_speech_structure(self, rng):
        x, active = intermittent_speech(rng, 8 * 16000)
        assert x.shape == active.shape == (8 * 16000,)
        assert not active[: int(1.5 * 16000)].any()  # lead-in silence
        assert active.any() and not active.all()
        assert np.abs(x[~active]).max() == 0.0

    def test_intermittent_determinism(self):
        a = intermittent_speech(np.random.default_rng(3), 32000)
        b = intermittent_speech(np.random.default_rng(3), 32000)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def _lfilter_bytes(x: np.ndarray, k: float) -> bytes:
    out = lfilter([1.0], [1.0, -k], x)
    assert out.dtype == np.float64
    return out.tobytes()


class TestFirstOrderIir:
    """The stems' recursion ``y[n] = x[n] + k y[n-1]``, pinned to scipy's
    ``lfilter`` byte for byte."""

    BLOCK = scenarios._IIR_BLOCK
    LONGEST = scenarios._IIR_BLOCK * scenarios._IIR_MAX_LANES
    SHORTEST_BLOCKED = scenarios._IIR_MIN_SAMPLES

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.one_of(
            # empty, one sample, below one block, exact multiples of the
            # block (on both sides of the blocked path's bounds), and odd
            st.sampled_from([
                0, 1, 2, 255, BLOCK, SHORTEST_BLOCKED - 1, SHORTEST_BLOCKED,
                SHORTEST_BLOCKED + 1, 3 * BLOCK * 129, LONGEST, LONGEST + 1,
                2 * LONGEST + BLOCK,
            ]),
            st.integers(0, 2 * LONGEST).map(lambda n: n | 1),
        ),
        st.sampled_from([0.9, 0.5]),
        st.sampled_from([1e-300, 1e-3, 1.0, 1e200]),
    )
    def test_bytes_equal_lfilter(self, seed, length, k, scale):
        x = np.random.default_rng(seed).standard_normal(length) * scale
        got = scenarios._first_order_iir(x, k)
        assert got.dtype == np.float64 and got.shape == (length,)
        assert got.tobytes() == _lfilter_bytes(x, k)

    @pytest.mark.parametrize("k, falls_back", [(0.9, False), (0.5, False), (0.99999, True)])
    def test_sequential_loop_only_where_blocks_do_not_merge(self, monkeypatch, k, falls_back):
        # 0.99999 forgets too slowly for the blocks to merge over their
        # warm-up, so the whole input takes the sequential loop, still exact
        calls = []
        sequential = scenarios._iir_sequential

        def spy(x, k):
            calls.append(x.shape[0])
            return sequential(x, k)

        monkeypatch.setattr(scenarios, "_iir_sequential", spy)
        x = np.random.default_rng(4).standard_normal(3 * self.SHORTEST_BLOCKED + 17)
        assert scenarios._first_order_iir(x, k).tobytes() == _lfilter_bytes(x, k)
        assert calls == ([x.shape[0]] if falls_back else [])


class TestFrameCoverage:
    def test_full_and_empty(self):
        cfg = StftConfig()
        active = np.zeros(16000, dtype=bool)
        active[:8000] = True
        cover = frame_coverage(active, cfg, cfg.num_frames(16000))
        assert cover[0] == 1.0
        assert cover[-1] == 0.0
        assert np.all((cover >= 0.0) & (cover <= 1.0))

    def test_partial_frame(self):
        cfg = StftConfig()
        active = np.zeros(16000, dtype=bool)
        active[:200] = True  # half of the first 400-sample frame
        cover = frame_coverage(active, cfg, 3)
        assert cover[0] == pytest.approx(0.5)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 500), st.integers(1, 500))
    def test_equals_per_frame_mean(self, seed, frame_len, hop):
        # the per-frame loop is the reference; both divide a count by the
        # frame length, so the bytes agree
        cfg = StftConfig(frame_len=frame_len, hop=min(hop, frame_len), fft_size=512)
        rng = np.random.default_rng(seed)
        num_samples = int(rng.integers(frame_len, 6000))
        runs = rng.random(num_samples // 37 + 1) < rng.random()
        active = np.repeat(runs, 37)[:num_samples] ^ (rng.random(num_samples) < 0.05)
        num_frames = cfg.num_frames(num_samples)
        want = np.array([
            np.mean(active[l * cfg.hop : l * cfg.hop + cfg.frame_len])
            for l in range(num_frames)
        ])
        assert frame_coverage(active, cfg, num_frames).tobytes() == want.tobytes()


class TestSiftingScenario:
    def test_builder_invariants(self):
        scn = build_sifting_scenario(0, clip_seconds=4.0)
        num_frames = StftConfig().num_frames(scn.mixture.num_samples)
        assert scn.target_active.shape == (num_frames,)
        assert scn.interferer_only.shape == (num_frames,)
        # labels are disjoint and both present
        assert not np.any(scn.target_active & scn.interferer_only)
        assert scn.target_active.any() and scn.interferer_only.any()
        warmup = CoherenceConfig().warmup_frames
        assert not scn.target_active[:warmup].any()
        assert not scn.interferer_only[:warmup].any()
        assert scn.mixture.num_channels == 4

    def test_determinism(self):
        a = build_sifting_scenario(7, clip_seconds=2.0)
        b = build_sifting_scenario(7, clip_seconds=2.0)
        assert np.array_equal(a.mixture.samples, b.mixture.samples)
        assert np.array_equal(a.target_active, b.target_active)

    def test_distinct_seeds_differ(self):
        a = build_sifting_scenario(1, clip_seconds=2.0)
        b = build_sifting_scenario(2, clip_seconds=2.0)
        assert not np.array_equal(a.mixture.samples, b.mixture.samples)


class TestMisconvergenceScenario:
    def test_builder_invariants(self):
        scn = build_misconvergence_scenario(0, clip_seconds=4.0, utterance=(1.0, 3.5))
        assert scn.target_active.any()
        onset_frame = int(1.0 * 16000 / StftConfig().hop)
        assert not scn.target_active[: onset_frame - 1].any()
        assert np.abs(scn.stems["target"][: int(0.99 * 16000)]).max() == 0.0


class TestStemKinds:
    def test_makers_call_the_generators(self):
        n = 4000
        calls = {
            "intermittent": lambda rng: intermittent_speech(rng, n, rms=0.07),
            "speech_like": lambda rng: speech_like(rng, n, envelope_floor=0.35, rms=0.07),
            "stationary_noise": lambda rng: stationary_noise(rng, n, rms=0.07),
        }
        for kind, call in calls.items():
            samples, active = STEM_KINDS[kind](np.random.default_rng(9), n, rms=0.07)
            want = call(np.random.default_rng(9))
            want_samples, want_active = want if kind == "intermittent" else (want, np.ones(n, bool))
            assert np.array_equal(samples, want_samples)
            assert np.array_equal(active, want_active)

    def test_silence_draws_nothing(self):
        rng = np.random.default_rng(9)
        samples, active = STEM_KINDS["silence"](rng, 100, rms=0.07)
        assert not samples.any() and not active.any() and samples.shape == (100,)
        assert rng.random() == np.random.default_rng(9).random()


class TestRenderScene:
    def test_silent_roles_draw_nothing(self):
        # a silent role, named or left out, leaves the stem stream alone,
        # so the interferer is the same draw either way
        spec = MixSpec(clip_seconds=0.5)
        target = STEM_KINDS["stationary_noise"]
        a = render_scene(4, {"target": target}, spec=spec)
        b = render_scene(
            4, {"target": target, "non_target": STEM_KINDS["silence"]}, spec=spec
        )
        assert np.array_equal(a.mixture.samples, b.mixture.samples)
        assert not a.stems["non_target"].any() and not a.active["non_target"].any()
        assert not a.stems["interferer"].any()
        c = render_scene(
            4, {"non_target": STEM_KINDS["silence"], "interferer": target}, spec=spec
        )
        assert np.array_equal(c.stems["interferer"], a.stems["target"])

    def test_stems_and_activity_cover_the_clip(self):
        spec = MixSpec(clip_seconds=0.5)
        makers = {role: STEM_KINDS["speech_like"] for role in ROLE_ORDER}
        out = render_scene(1, makers, spec=spec)
        assert list(out.stems) == list(ROLE_ORDER)
        for role in ROLE_ORDER:
            assert out.stems[role].shape == out.active[role].shape == (8000,)
            assert out.active[role].all()
        assert out.mixture is out.mix.mixture

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError, match="stem roles"):
            render_scene(0, {"talker": STEM_KINDS["speech_like"]})


class TestClipLength:
    """Stems follow the mixer's clip-length rule, ``round(clip_seconds * fs)``;
    2.01 s is one of the lengths where truncation is one sample short."""

    def test_sifting_at_2_01_s(self):
        scn = build_sifting_scenario(0, clip_seconds=2.01)
        assert scn.mixture.num_samples == 32160
        assert scn.stems["target"].shape == (32160,)
        assert scn.target_active.shape == scn.interferer_only.shape

    def test_misconvergence_at_2_01_s(self):
        scn = build_misconvergence_scenario(0, clip_seconds=2.01, utterance=(0.5, 1.8))
        assert scn.mixture.num_samples == 32160
        assert scn.target_active.shape == (StftConfig().num_frames(32160),)
        assert scn.target_active.any()


class TestMeanGlobalWarped:
    def test_post_hoc_warp_matches_builtin(self, rng):
        from conftest import delayed_array_audio

        audio = delayed_array_audio(rng, 4, 16000, noise_rms=0.05)
        specs = stft_multichannel(audio)
        warped = compute_lstsc(specs, CoherenceConfig.for_variant("lstsc-3"))
        plain = compute_lstsc(specs, CoherenceConfig.for_variant("lstsc-2"))
        mask = np.zeros(warped.num_frames, dtype=bool)
        mask[10:50] = True
        a = mean_global_warped(warped, mask)
        b = mean_global_warped(plain, mask)
        want = float(arcsine_warp(plain.gamma_global[mask]).mean())
        assert b == pytest.approx(want, abs=1e-12)
        assert a == pytest.approx(b, abs=1e-9)

    def test_empty_selection_rejected(self, rng):
        from conftest import delayed_array_audio

        audio = delayed_array_audio(rng, 3, 8000)
        feats = compute_lstsc(stft_multichannel(audio), CoherenceConfig())
        with pytest.raises(ValueError, match="no frames selected"):
            mean_global_warped(feats, np.zeros(feats.num_frames, dtype=bool))
