"""Feature-engine contracts: RTF estimation, trackers, schedules, warp,
oracle equivalence, and the binary/CSV export formats."""
from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import delayed_array_audio, random_small_specs
import oracle_frame_engine
from oracle_lstsc import oracle_lstsc, oracle_short_term_rtf

from lstsc.coherence import (
    _BLOCK_FRAMES,
    VARIANT_SETTINGS,
    CoherenceConfig,
    FrameBlock,
    _blend,
    arcsine_warp,
    coherence,
    compute_lstsc,
    export_features_csv,
    lambda_schedule,
    read_features,
    short_term_whitened_rtf,
    stream_frames,
    whiten,
    write_features,
)
from lstsc.enhance import HeuristicMaskEstimator
from lstsc.signal_core import StftConfig, stft_multichannel


class TestConfig:
    def test_variant_table(self):
        c1 = CoherenceConfig.for_variant("lstsc-1")
        assert (c1.lambda_local, c1.lambda_global) == (0.01, 0.99)
        assert not c1.time_varying and not c1.apply_arcsine and c1.erb_bands is None
        c2 = CoherenceConfig.for_variant("lstsc-2")
        assert c2.time_varying and not c2.apply_arcsine
        c3 = CoherenceConfig.for_variant("lstsc-3")
        assert c3.time_varying and c3.apply_arcsine and c3.erb_bands is None
        c4 = CoherenceConfig.for_variant("LSTSC-4")
        assert c4.time_varying and c4.apply_arcsine and c4.erb_bands == 48

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            CoherenceConfig.for_variant("lstsc-9")

    def test_inconsistent_variant_settings(self):
        # a variant's own settings cannot be overridden, only the others
        for key, value in (("time_varying", True), ("apply_arcsine", True), ("erb_bands", 24)):
            with pytest.raises(TypeError, match=key):
                CoherenceConfig.for_variant("lstsc-1", **{key: value})
        assert CoherenceConfig.for_variant("lstsc-1", R=2).R == 2

    def test_range_validation(self):
        with pytest.raises(ValueError):
            CoherenceConfig(lambda_local=1.5)
        with pytest.raises(ValueError):
            CoherenceConfig(lambda_global=-0.1)
        with pytest.raises(ValueError):
            CoherenceConfig(R=-1)
        with pytest.raises(ValueError):
            CoherenceConfig(beta=0.0)
        for bad in (1.5, 1.0, "x", True):
            with pytest.raises(ValueError, match="R must be an integer"):
                CoherenceConfig(R=bad)
        for bad in (48.0, "48", False):
            with pytest.raises(ValueError, match="erb_bands must be an integer"):
                CoherenceConfig(erb_bands=bad)
        assert CoherenceConfig(R=np.int64(2), erb_bands=np.int32(48)).warmup_frames == 5

    def test_warmup(self):
        assert CoherenceConfig(R=1).warmup_frames == 3
        assert CoherenceConfig(R=3).warmup_frames == 7


class TestShortTermRtf:
    def test_identical_channels_give_unity(self, rng):
        spec = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
        specs = np.stack([spec, spec])
        entries, low = short_term_whitened_rtf(specs, 2)
        assert not low.any()
        assert np.allclose(entries, 1.0 + 0.0j, atol=1e-12)

    def test_pure_delay_phase(self):
        # circularly periodic multisine so an integer-sample delay is exact
        fft = 512
        bins = (60, 140, 220)
        delay = 4
        n = np.arange(16 * fft)
        x = sum(np.cos(2 * np.pi * k * n / fft + 0.3 * k) for k in bins)
        audio_ch = [x, np.roll(x, delay)]
        specs = np.stack([np.fft.rfft(
            np.lib.stride_tricks.sliding_window_view(c, 400)[::160][:40]
            * StftConfig().analysis_window(), n=fft, axis=1)
            for c in audio_ch])
        cfg = CoherenceConfig()
        entries, low = short_term_whitened_rtf(specs, 20, cfg)
        for k in bins:
            assert not low[k]
            expected = -2.0 * np.pi * k * delay / fft
            err = np.angle(entries[k, 0] * np.exp(-1j * expected))
            assert abs(err) <= 1e-3

    def test_all_zero_window_flagged(self):
        specs = np.zeros((3, 6, 4), dtype=complex)
        entries, low = short_term_whitened_rtf(specs, 3)
        assert low.all()
        assert np.array_equal(entries, np.ones((4, 2), dtype=complex))

    def test_requires_two_channels(self, rng):
        specs = rng.standard_normal((1, 5, 4)) + 0j
        with pytest.raises(ValueError, match="at least 2 microphones"):
            short_term_whitened_rtf(specs, 0)

    def test_unit_modulus(self, rng):
        specs = random_small_specs(rng, 4, 9, 8)
        for l in range(9):
            entries, low = short_term_whitened_rtf(specs, l)
            assert np.allclose(np.abs(entries), 1.0, atol=1e-9)

    def test_matches_oracle(self, rng):
        cfg = CoherenceConfig(R=2)
        specs = random_small_specs(rng, 3, 7, 5)
        specs[:, 4, :] = 0.0  # force a silent frame into some windows
        for l in range(7):
            got, low = short_term_whitened_rtf(specs, l, cfg)
            want, low_want = oracle_short_term_rtf(specs, l, cfg.R, cfg.epsilon)
            assert np.allclose(got, want, atol=1e-12)
            assert np.array_equal(low, low_want)


class TestWhiten:
    def test_unit_output(self, rng):
        vec = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        out, flagged = whiten(vec)
        assert np.allclose(np.abs(out), 1.0, atol=1e-12)
        assert not np.asarray(flagged).any()

    def test_zero_entry_placeholder(self):
        vec = np.array([[0.0 + 0.0j, 3.0 + 4.0j]])
        out, flagged = whiten(vec)
        assert out[0, 0] == 1.0 + 0.0j
        assert np.isclose(out[0, 1], 0.6 + 0.8j)
        assert np.asarray(flagged).all()


class TestRecursiveUpdate:
    """The tracker update ``_blend``, which both trackers use."""

    def test_lambda_one_keeps_state_exactly(self, rng):
        rbar = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        r = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        out = _blend(rbar.copy(), r, np.ones(5))
        assert np.array_equal(out, rbar)

    def test_lambda_zero_replaces_state_exactly(self, rng):
        rbar = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        r = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        out = _blend(rbar, r, np.zeros(5))
        assert np.array_equal(out, r)

    def test_geometric_recursion(self):
        c = np.full((2, 2), 0.3 - 0.4j)
        initial = np.full((2, 2), 1.0 + 1.0j)
        rbar = initial.copy()
        for _ in range(20):
            rbar = _blend(rbar, c, 0.99)
        expected = c + 0.99**20 * (initial - c)
        assert np.allclose(rbar, expected, atol=1e-12)

    def test_out_of_range_lambda_rejected(self, rng):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            _blend(np.ones((2, 2), dtype=complex), np.ones((2, 2), dtype=complex), 1.2)


class TestCoherenceOp:
    def test_equal_vectors(self):
        r = np.array([np.exp(1j * 0.3), np.exp(-1j * 1.2)])
        assert coherence(r, r) == pytest.approx(1.0, abs=1e-12)

    def test_opposite_vectors(self):
        r = np.array([np.exp(1j * 0.3), np.exp(-1j * 1.2)])
        assert coherence(r, -r) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_three_mic_case(self):
        r = np.array([1.0 + 0.0j, 1.0 + 0.0j])
        rbar = np.array([1j, -1j])
        assert coherence(r, rbar) == pytest.approx(0.0, abs=1e-12)

    def test_zero_norm_convention(self):
        assert coherence(np.zeros(3, dtype=complex), np.ones(3, dtype=complex)) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_two_forms_agree_when_whitened(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 6))
        r = np.exp(1j * rng.uniform(-np.pi, np.pi, m - 1))
        rbar = np.exp(1j * rng.uniform(-np.pi, np.pi, m - 1))
        full = coherence(r, rbar)
        short = np.real(np.sum(np.conj(r) * rbar)) / (m - 1)
        assert abs(full - short) <= 1e-9
        # the tracker state is whitened first, so its scale does not matter
        assert abs(coherence(r, 0.3 * rbar) - full) <= 1e-12

    def test_whitens_state_as_whiten_does(self, rng):
        # (F, M-1) rows with degenerate state entries: coherence skips
        # whiten's row flags but must use the very same whitened entries
        r = np.exp(1j * rng.uniform(-np.pi, np.pi, (257, 3)))
        rbar = rng.standard_normal((257, 3)) + 1j * rng.standard_normal((257, 3))
        rbar[5, 1] = 0.0
        rbar[9] = 1e-13
        white, _ = whiten(rbar)
        num = (r.real * white.real + r.imag * white.imag).sum(axis=-1)
        assert np.array_equal(coherence(r, rbar), np.clip(num / 3, -1.0, 1.0))


class TestLambdaSchedule:
    def test_energetic_mask_halts(self):
        mask_row = np.full(257, np.sqrt(0.02))  # mean square 0.02 > 0.01
        lam = lambda_schedule(mask_row, np.zeros(257))
        assert np.array_equal(lam, np.ones(257))

    def test_quiet_mask_uses_local_coherence(self):
        lam = lambda_schedule(np.zeros(4), np.array([1.0, -1.0, 0.5, 0.0]))
        assert lam == pytest.approx([0.95, 1.0, 0.975, 1.0])

    def test_first_frame_no_mask(self):
        lam = lambda_schedule(None, np.ones(4))
        assert lam == pytest.approx([0.95] * 4)

    def test_clamp_bounds(self):
        lam = lambda_schedule(np.zeros(3), np.array([-1.0, -0.5, 1.0]))
        assert lam.max() <= 1.0 and lam.min() >= 0.95


class TestArcsineWarp:
    def test_fixed_points(self):
        assert arcsine_warp(0.0) == 0.0
        assert arcsine_warp(1.0) == 1.0
        assert arcsine_warp(-1.0) == -1.0

    def test_sqrt_half(self):
        assert arcsine_warp(np.sqrt(2.0) / 2.0) == pytest.approx(0.5, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-1.0, 1.0))
    def test_odd_and_bounded(self, g):
        w = arcsine_warp(g)
        assert -1.0 <= w <= 1.0
        assert arcsine_warp(-g) == pytest.approx(-w, abs=1e-12)

    def test_monotone_on_grid(self):
        grid = np.linspace(-1.0, 1.0, 2001)
        warped = arcsine_warp(grid)
        assert np.all(np.diff(warped) > 0)

    def test_clamps_float_dust(self):
        assert arcsine_warp(1.0 + 1e-12) == 1.0
        assert arcsine_warp(-1.0 - 1e-12) == -1.0


class TestComputeLstsc:
    @pytest.mark.parametrize(
        "variant, estimator",
        [("lstsc-1", None), ("lstsc-3", None),
         ("lstsc-3", HeuristicMaskEstimator), ("lstsc-2", HeuristicMaskEstimator)],
        ids=["lstsc-1", "lstsc-3", "lstsc-3-steered", "lstsc-2-steered"],
    )
    def test_peak_memory_holds_one_block(self, rng, variant, estimator):
        # the planes plus one block's working set (its RTFs, one tracker's
        # state stack and the coherence temporaries: about 4.2 RTF blocks);
        # a previous block kept alive adds at least one more
        num_mics, num_bins = 8, 257
        specs = random_small_specs(rng, num_mics, 4 * _BLOCK_FRAMES, num_bins)
        feedback = estimator() if estimator is not None else None
        tracemalloc.start()
        try:
            feats = compute_lstsc(specs, CoherenceConfig.for_variant(variant), feedback)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        planes = sum(plane.nbytes for plane in vars(feats).values() if plane is not None)
        rtf_block = _BLOCK_FRAMES * num_bins * (num_mics - 1) * specs.itemsize
        assert peak - planes < 4.7 * rtf_block

    def test_shapes_independent_of_channel_count(self, rng):
        cfg = CoherenceConfig.for_variant("lstsc-1")
        for m in (2, 6):
            audio = delayed_array_audio(rng, m, 8000, delays=tuple(range(m)))
            specs = stft_multichannel(audio)
            feats = compute_lstsc(specs, cfg)
            assert feats.gamma_local.shape == feats.gamma_global.shape
            assert feats.gamma_local.shape[1] == 257

    def test_anechoic_convergence(self, rng):
        audio = delayed_array_audio(rng, 4, 32000)
        feats = compute_lstsc(stft_multichannel(audio), CoherenceConfig.for_variant("lstsc-1"))
        final_second = feats.gamma_global[-100:]
        assert final_second.mean() >= 0.9

    def test_variant_plane_presence(self, rng):
        audio = delayed_array_audio(rng, 3, 8000, noise_rms=0.1)
        specs = stft_multichannel(audio)
        f1 = compute_lstsc(specs, CoherenceConfig.for_variant("lstsc-1"))
        assert f1.gamma_global_warped is None and f1.banded_gamma_local is None
        f3 = compute_lstsc(specs, CoherenceConfig.for_variant("lstsc-3"))
        assert f3.gamma_global_warped is not None
        f4 = compute_lstsc(specs, CoherenceConfig.for_variant("lstsc-4"))
        assert f4.banded_gamma_global_warped.shape == (f4.num_frames, 48)

        # every plane is the stacked engine blocks, byte for byte and dtype
        # for dtype; an optional plane exists exactly when its setting is on
        names = [f.name for f in dataclasses.fields(FrameBlock)
                 if f.name not in ("start", "rtf", "global_rbar")]
        for variant in sorted(VARIANT_SETTINGS):
            cfg = CoherenceConfig.for_variant(variant)
            for feedback in (None, HeuristicMaskEstimator()):
                feats = compute_lstsc(specs, cfg, feedback)
                blocks = list(stream_frames(specs, cfg, feedback))
                warped, banded = cfg.apply_arcsine, cfg.erb_bands is not None
                present = {
                    "gamma_local_warped": warped,
                    "gamma_global_warped": warped,
                    "mask": feedback is not None,
                    "banded_gamma_local": banded,
                    "banded_gamma_global": banded,
                    "banded_gamma_global_warped": banded and warped,
                    "banded_lambda_trace": banded,
                }
                for name, on in present.items():
                    assert (getattr(feats, name) is not None) == on, (variant, name)
                for name in names:
                    if not present.get(name, True):
                        continue
                    want = np.concatenate([getattr(block, name) for block in blocks])
                    got = getattr(feats, name)
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (variant, name)

    def test_permutation_invariance(self, rng):
        audio = delayed_array_audio(rng, 4, 8000, noise_rms=0.1)
        specs = stft_multichannel(audio)
        cfg = CoherenceConfig.for_variant("lstsc-3")
        feats = compute_lstsc(specs, cfg)
        permuted = compute_lstsc(specs[[0, 3, 1, 2]], cfg)
        assert np.allclose(feats.gamma_local, permuted.gamma_local, atol=1e-9)
        assert np.allclose(feats.gamma_global, permuted.gamma_global, atol=1e-9)

    def test_constant_gain_invariance(self, rng):
        audio = delayed_array_audio(rng, 4, 8000, noise_rms=0.1)
        specs = stft_multichannel(audio)
        gains = np.array([0.7 * np.exp(1j * 0.9), 1.8 * np.exp(-1j * 0.4),
                          0.5 * np.exp(1j * 2.0), 1.1 * np.exp(-1j * 1.3)])
        scaled = specs * gains[:, None, None]
        cfg = CoherenceConfig.for_variant("lstsc-1")
        feats = compute_lstsc(specs, cfg)
        feats_scaled = compute_lstsc(scaled, cfg)
        assert np.allclose(feats.gamma_local, feats_scaled.gamma_local, atol=1e-6)
        assert np.allclose(feats.gamma_global, feats_scaled.gamma_global, atol=1e-6)

    def test_first_frame_opens_at_one(self, rng):
        audio = delayed_array_audio(rng, 3, 8000)
        feats = compute_lstsc(stft_multichannel(audio), CoherenceConfig())
        assert np.allclose(feats.gamma_local[0], 1.0, atol=1e-9)
        assert np.allclose(feats.gamma_global[0], 1.0, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_bounds_on_random_input(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 5))
        specs = random_small_specs(rng, m, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        if rng.random() < 0.3:
            specs[:, 1, :] = 0.0
        feats = compute_lstsc(specs, CoherenceConfig.for_variant("lstsc-3"))
        for plane in (feats.gamma_local, feats.gamma_global,
                      feats.gamma_local_warped, feats.gamma_global_warped):
            assert np.all(plane >= -1.0) and np.all(plane <= 1.0)
        assert np.all(feats.lambda_trace >= 0.95) and np.all(feats.lambda_trace <= 1.0)


class TestNonFiniteSpectra:
    @settings(max_examples=25, deadline=None)
    @given(st.data(), st.sampled_from([np.nan, np.inf, -np.inf]), st.booleans())
    def test_one_entry_raises_naming_its_position(self, data, value, imaginary):
        cfg = CoherenceConfig.for_variant(data.draw(st.sampled_from(sorted(VARIANT_SETTINGS))))
        # lstsc-4's 48 bands need at least 48 bins
        bins = st.integers(48, 57) if cfg.erb_bands else st.integers(2, 9)
        shape = (data.draw(st.integers(2, 5)), data.draw(st.integers(1, 9)), data.draw(bins))
        specs = random_small_specs(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), *shape)
        channel, frame, bin_ = (data.draw(st.integers(0, n - 1)) for n in shape)
        specs[channel, frame, bin_] = complex(0.0, value) if imaginary else complex(value, 0.0)
        calls = (
            lambda: compute_lstsc(specs, cfg),
            lambda: compute_lstsc(specs, cfg, HeuristicMaskEstimator()),
            lambda: next(stream_frames(specs, cfg)),
            lambda: short_term_whitened_rtf(specs, data.draw(st.integers(0, shape[1] - 1)), cfg),
        )
        message = f"non-finite spectrum entry at channel {channel}, frame {frame}, bin {bin_}"
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()


class _PrerecordedEstimator:
    """Plays back fixed mask rows (for oracle comparisons and halting
    tests) and keeps a copy of each magnitude row it is given."""

    def __init__(self, rows):
        self.rows = rows
        self.magnitudes = []

    def __call__(self, magnitude, gamma_local, gamma_global, banded=None):
        self.magnitudes.append(magnitude.copy())
        return self.rows[len(self.magnitudes) - 1]


class TestOracleAgreement:
    def _compare(self, specs, cfg, mask_rows=None):
        estimator = _PrerecordedEstimator(mask_rows) if mask_rows is not None else None
        feats = compute_lstsc(specs, cfg, mask_feedback=estimator)
        want = oracle_lstsc(
            specs,
            R=cfg.R,
            lambda_local=cfg.lambda_local,
            lambda_global=cfg.lambda_global,
            time_varying=cfg.time_varying,
            beta=cfg.beta,
            epsilon=cfg.epsilon,
            apply_arcsine=cfg.apply_arcsine,
            mask_rows=mask_rows,
        )
        assert np.allclose(feats.gamma_local, want["gamma_local"], atol=1e-9)
        assert np.allclose(feats.gamma_global, want["gamma_global"], atol=1e-9)
        assert np.allclose(feats.lambda_trace, want["lambda_trace"], atol=1e-9)
        if cfg.apply_arcsine:
            assert np.allclose(
                feats.gamma_global_warped, want["gamma_global_warped"], atol=1e-9
            )

    def test_fixed_lambda_matches_oracle(self, rng):
        specs = random_small_specs(rng, 4, 10, 8)
        self._compare(specs, CoherenceConfig.for_variant("lstsc-1"))

    def test_time_varying_with_feedback_matches_oracle(self, rng):
        specs = random_small_specs(rng, 3, 9, 6)
        mask_rows = rng.uniform(0.0, 0.4, (9, 6))
        self._compare(specs, CoherenceConfig.for_variant("lstsc-3"), mask_rows)

    def test_degenerate_frames_match_oracle(self, rng):
        specs = random_small_specs(rng, 3, 8, 5)
        specs[:, 2:4, :] = 0.0
        self._compare(specs, CoherenceConfig.for_variant("lstsc-2"),
                      rng.uniform(0.0, 0.3, (8, 5)))


class TestHalting:
    def test_energetic_mask_freezes_global_tracker(self, rng):
        specs = random_small_specs(rng, 3, 12, 6)
        # strong mask rows guarantee halts from frame 1 on even rows
        rows = np.zeros((12, 6))
        rows[::2] = 0.9
        estimator = _PrerecordedEstimator(rows)
        cfg = CoherenceConfig.for_variant("lstsc-2")
        previous = None
        for block in stream_frames(specs, cfg, mask_feedback=estimator):
            for halted, rbar, lam in zip(block.mask_halted, block.global_rbar, block.lambda_trace):
                if halted:
                    assert previous is not None
                    assert rbar.tobytes() == previous
                    assert np.all(lam == 1.0)
                previous = rbar.tobytes()

    def test_halting_matches_mask_energy(self, rng):
        specs = random_small_specs(rng, 3, 10, 8)
        rows = rng.uniform(0.0, 0.2, (10, 8))
        estimator = _PrerecordedEstimator(rows)
        cfg = CoherenceConfig.for_variant("lstsc-2")
        blocks = stream_frames(specs, cfg, mask_feedback=estimator)
        halted = np.concatenate([block.mask_halted for block in blocks]).tolist()
        expected = [False] + [
            float(np.mean(rows[l - 1] ** 2)) > cfg.beta for l in range(1, 10)
        ]
        assert halted == expected


@st.composite
def _engine_inputs(draw):
    """Spectra with the edge cases of real STFTs: DC and Nyquist carry an
    exactly zero imaginary part of either sign, and silent frames, silent
    channels or silent reference bins make the low-energy flags fire."""
    R = draw(st.integers(0, 3))
    num_frames = draw(st.one_of(
        st.sampled_from([1, 2, 2 * R + 1, 63, 64, 65, 128, 129]), st.integers(1, 200)
    ))
    num_mics = draw(st.integers(2, 5))
    num_bins = draw(st.sampled_from([48, 57]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    specs = random_small_specs(rng, num_mics, num_frames, num_bins)
    for edge in (0, -1):
        specs[:, :, edge] = specs[:, :, edge].real + 1j * np.copysign(
            0.0, rng.standard_normal((num_mics, num_frames))
        )
    if draw(st.booleans()):
        lo = draw(st.integers(0, num_frames - 1))
        specs[:, lo : lo + draw(st.integers(1, 8)), :] = 0.0
    if draw(st.booleans()):
        specs[draw(st.integers(1, num_mics - 1))] = 0.0
    if draw(st.booleans()):
        specs[0, :, draw(st.integers(0, num_bins - 1))] = 0.0
    return R, specs


@st.composite
def _mask_runs(draw, num_frames: int, num_bins: int) -> np.ndarray:
    """Mask rows in runs of energetic rows (mean square above the default
    beta, 0.01) and quiet ones (mean square at most 0.01), so the global
    tracker halts, releases and halts again.  No run starts at a block
    edge: the runs through frames 63 and 64 cross it."""
    starts = draw(st.sets(st.integers(1, max(1, num_frames - 1)), max_size=8))
    energetic = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.empty((num_frames, num_bins))
    for frame in range(num_frames):
        if frame in starts and frame % _BLOCK_FRAMES:
            energetic = not energetic
        rows[frame] = rng.uniform(0.2, 1.0, num_bins) if energetic else rng.uniform(0.0, 0.1, num_bins)
    return rows


def _same_bytes(got, want) -> bool:
    if got is None or want is None:
        return got is want
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


# FrameBlock fields that the per-frame reference names differently
_ORACLE_NAMES = {"lambda_trace": "lam", "mask": "mask_row"}


class TestBlockEngine:
    """The block engine against the per-frame reference loop."""

    @settings(max_examples=25, deadline=None)
    @given(_engine_inputs(), st.data())
    def test_matches_per_frame_engine(self, inputs, data):
        R, specs = inputs
        rows = data.draw(_mask_runs(*specs.shape[1:]))
        estimators = (lambda: None, HeuristicMaskEstimator, lambda: _PrerecordedEstimator(rows))
        cfg = CoherenceConfig(R=R)
        for frame in range(specs.shape[1]):
            got = short_term_whitened_rtf(specs, frame, cfg)
            want = oracle_frame_engine.short_term_whitened_rtf(specs, frame, cfg)
            assert all(map(_same_bytes, got, want)), frame
        fields = [f.name for f in dataclasses.fields(FrameBlock) if f.name != "start"]
        num_frames = specs.shape[1]
        for variant in sorted(VARIANT_SETTINGS):
            cfg = CoherenceConfig.for_variant(variant, R=R)
            for make in estimators:
                estimator, reference = make(), make()
                want = oracle_frame_engine.stream_frames(specs, cfg, reference)
                frame = 0
                for block in stream_frames(specs, cfg, estimator):
                    assert block.start == frame
                    n = min(_BLOCK_FRAMES, num_frames - frame)
                    for name in fields:
                        field = getattr(block, name)
                        assert field is None or len(field) == n, (variant, name)
                    for i, ref in zip(range(n), want):
                        assert ref.frame == frame
                        for name in fields:
                            field = getattr(block, name)
                            got = None if field is None else field[i]
                            ref_value = getattr(ref, _ORACLE_NAMES.get(name, name))
                            assert _same_bytes(got, ref_value), (variant, estimator, frame, name)
                        frame += 1
                assert frame == num_frames and next(want, None) is None
                if isinstance(estimator, _PrerecordedEstimator):
                    got_mags, want_mags = (np.stack(e.magnitudes) for e in (estimator, reference))
                    assert _same_bytes(got_mags, want_mags)


class TestExport:
    def test_binary_round_trip_unwarped(self, tmp_path, rng):
        specs = random_small_specs(rng, 3, 6, 5)
        feats = compute_lstsc(specs, CoherenceConfig.for_variant("lstsc-1"))
        path = tmp_path / "f.lsts"
        write_features(path, feats)
        back = read_features(path)
        assert (back["num_frames"], back["width"], back["num_planes"]) == (6, 5, 3)
        assert np.allclose(back["planes"][0], feats.gamma_local, atol=1e-6)
        assert np.allclose(back["planes"][2], feats.lambda_trace, atol=1e-6)

    def test_binary_planes_warped(self, tmp_path, rng):
        specs = random_small_specs(rng, 3, 6, 5)
        feats = compute_lstsc(specs, CoherenceConfig.for_variant("lstsc-3"))
        path = tmp_path / "f.lsts"
        write_features(path, feats)
        back = read_features(path)
        assert back["num_planes"] == 4
        assert np.allclose(back["planes"][2], feats.gamma_global_warped, atol=1e-6)

    def test_binary_banded_width(self, tmp_path, rng):
        audio = delayed_array_audio(rng, 3, 8000)
        feats = compute_lstsc(stft_multichannel(audio), CoherenceConfig.for_variant("lstsc-4"))
        path = tmp_path / "f.lsts"
        write_features(path, feats)
        back = read_features(path)
        assert back["width"] == 48
        assert back["num_planes"] == 4

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.lsts"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="bad magic"):
            read_features(path)
        path.write_bytes(b"LSTS" + b"\x01\x00\x00\x00")  # shorter than the header
        with pytest.raises(ValueError, match="truncated"):
            read_features(path)

    def test_csv_export(self, tmp_path, rng):
        specs = random_small_specs(rng, 3, 6, 5)
        feats = compute_lstsc(specs, CoherenceConfig.for_variant("lstsc-3"))
        written = export_features_csv(tmp_path / "f.lsts", feats)
        assert len(written) == 4
        for path in written:
            assert path.exists()
            data = np.loadtxt(path, delimiter=",")
            assert data.shape == (6, 5)
