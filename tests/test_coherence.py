"""Feature-engine contracts: RTF estimation, trackers, schedules, warp,
oracle equivalence, and the binary/CSV export formats."""
from __future__ import annotations

import dataclasses
import math
import re
import struct
import sys
import tempfile
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from conftest import (
    delayed_array_audio, random_small_specs, same_bytes, savetxt_bytes, write_pcm24,
    write_whole_plane_csvs,
)
import oracle_frame_engine
from oracle_lstsc import _coherence_whitened_form, oracle_lstsc, oracle_short_term_rtf

from lstsc.coherence import (
    _BLOCK_FRAMES,
    VARIANT_SETTINGS,
    CoherenceConfig,
    FrameBlock,
    LstscFeatures,
    _Blend,
    _WorkingSet,
    _clamp_unit,
    _export_planes,
    _modulus,
    arcsine_warp,
    coherence,
    compute_lstsc,
    lambda_schedule,
    read_features,
    short_term_whitened_rtf,
    stream_frames,
    stream_wav,
    whiten,
    write_feature_blocks,
    write_features,
    write_plane_csv,
)
from lstsc.enhance import HeuristicMaskEstimator
from lstsc.erb import design_filterbank, pool_feature
from lstsc.signal_core import (
    StftConfig, WavReader, _first_non_finite, load_wav, stft_multichannel
)


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

    @pytest.mark.parametrize("field", ["beta", "epsilon"])
    def test_nan_threshold_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            CoherenceConfig(**{field: float("nan")})

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

    def test_huge_half_window_is_the_whole_clip(self, rng):
        # only the offsets that reach a frame are visited, so R = 10**9
        # costs what R = L - 1 does and gives its bytes
        specs = random_small_specs(rng, 3, 10, 257)
        for variant in ("lstsc-1", "lstsc-4"):
            t0 = time.perf_counter()
            huge = compute_lstsc(specs, CoherenceConfig.for_variant(variant, R=10**9))
            elapsed = time.perf_counter() - t0
            whole = compute_lstsc(specs, CoherenceConfig.for_variant(variant, R=9))
            assert elapsed < 0.5, elapsed
            for name, plane in vars(whole).items():
                got = getattr(huge, name)
                assert (plane is None and got is None) or plane.tobytes() == got.tobytes(), name

    def test_matches_oracle(self, rng):
        cfg = CoherenceConfig(R=2)
        specs = random_small_specs(rng, 3, 7, 5)
        specs[:, 4, :] = 0.0  # force a silent frame into some windows
        for l in range(7):
            got, low = short_term_whitened_rtf(specs, l, cfg)
            want, low_want = oracle_short_term_rtf(specs, l, cfg.R, cfg.epsilon)
            assert np.allclose(got, want, atol=1e-12)
            assert np.array_equal(low, low_want)


def _whiten_masked(vectors, epsilon):
    """Whitening in its first form: divisions masked to the live entries
    of a ``ones_like`` output."""
    vectors = np.asarray(vectors, dtype=np.complex128)
    modulus = np.sqrt(vectors.real * vectors.real + vectors.imag * vectors.imag)
    degenerate = modulus <= epsilon
    live = ~degenerate
    whitened = np.ones_like(vectors)
    np.divide(vectors.real, modulus, out=whitened.real, where=live)
    np.divide(vectors.imag, modulus, out=whitened.imag, where=live)
    return whitened, degenerate.any(axis=-1)


# real or imaginary parts: exact and signed zeros, values at and around
# the default epsilon, and ordinary magnitudes
_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-12, -1e-12, 1e-12 * (1 + 2**-52), 1e-12 * (1 - 2**-53), 7e-13]),
    st.floats(-1e-11, 1e-11),
    st.floats(-1e3, 1e3),
)


def _signed(magnitudes):
    return st.builds(lambda m, negative: -m if negative else m, magnitudes, st.booleans())


# parts over the double range: +-1e-320 to +-1e300 (subnormals included,
# so sums of squares both underflow and overflow) and signed zeros
_WIDE_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    _signed(st.floats(1e-320, 1e300)),
    _signed(st.builds(
        lambda m, k: min(m * 10.0**k, 1e300), st.floats(1.0, 10.0), st.integers(-320, 299)
    )),
)

# parts whose squares, and their sums, are normal doubles
_NORMAL_PARTS = st.one_of(st.sampled_from([0.0, -0.0]), _signed(st.floats(1e-150, 1e150)))


def _from_parts(parts, shape):
    """A complex array of ``shape`` from interleaved (re, im) parts, set
    part by part: complex arithmetic would lose signed zeros."""
    vectors = np.empty(shape, dtype=np.complex128)
    vectors.real.flat = parts[0::2]
    vectors.imag.flat = parts[1::2]
    return vectors


class TestWhiten:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 9), st.data())
    def test_matches_masked_form(self, rows, width, data):
        parts = data.draw(st.lists(_PARTS, min_size=2 * rows * width, max_size=2 * rows * width))
        vectors = _from_parts(parts, (rows, width))
        got, flagged = whiten(vectors)
        want, want_flagged = _whiten_masked(vectors, 1e-12)
        assert got.tobytes() == want.tobytes()
        assert flagged.tobytes() == want_flagged.tobytes()

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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_WIDE_PARTS, _WIDE_PARTS), min_size=1, max_size=16))
    @example([(1e200, 1e200)])
    @example([(5e-324, 3e-323), (1e300, -1e-320)])
    def test_modulus_over_the_double_range(self, entries):
        # sums of squares that underflow or overflow are recomputed on
        # rescaled parts: each modulus stays within an ulp of hypot and
        # each entry that is not zero whitens to unit modulus, silently
        vectors = _from_parts([part for entry in entries for part in entry], (len(entries),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            modulus = _modulus(vectors)[0]
            white, _ = whiten(vectors, 0.0)
        for value, got, entry in zip(vectors.tolist(), modulus.tolist(), white.tolist()):
            want = math.hypot(value.real, value.imag)
            assert abs(got - want) <= math.ulp(want), (value, got, want)
            if want > 0.0:
                assert abs(math.hypot(entry.real, entry.imag) - 1.0) <= 1e-15, (value, entry)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_NORMAL_PARTS, _NORMAL_PARTS), min_size=1, max_size=16))
    def test_modulus_is_the_ieee_formula(self, entries):
        # the definition, bit for bit, wherever no square leaves the
        # normal range: multiply, add and sqrt, each correctly rounded
        vectors = _from_parts([part for entry in entries for part in entry], (len(entries),))
        re_, im = vectors.real, vectors.imag
        assert _modulus(vectors)[0].tobytes() == np.sqrt(re_ * re_ + im * im).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 12000), st.data())
    def test_any_split_gives_the_same_bytes(self, seed, half, data):
        # the engine whitens in tiles and in blocks of frames, so an
        # entry's bytes must not depend on where it sits or what shares
        # the call; lengths cross the sum of squares' chunks
        length = 2 * half + 1
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        wide = rng.random(length) < 0.05
        vectors.real[wide] *= 10.0 ** rng.uniform(-320.0, 300.0, wide.sum())
        vectors.imag[wide] *= 10.0 ** rng.uniform(-320.0, 300.0, wide.sum())
        vectors[rng.random(length) < 0.01] = 0.0
        cuts = sorted(data.draw(st.lists(st.integers(0, length), max_size=4)))
        for epsilon in (0.0, 1e-12):
            whole, _ = whiten(vectors, epsilon)
            pieces = [whiten(vectors[a:b], epsilon)[0] for a, b in zip([0, *cuts], [*cuts, length])]
            assert np.concatenate(pieces).tobytes() == whole.tobytes()


class TestNonFiniteVectors:
    """``whiten`` and ``coherence`` reject NaN and +-inf entries, naming
    the first; the engine, whose spectra are already scanned, pays for no
    scan of its own."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: whiten([np.nan + 0j, 1 + 0j]), "vectors at index (0,): (nan+0j)"),
            (lambda: whiten([complex(np.inf, 1.0), 1 + 1j]), "vectors at index (0,): (inf+1j)"),
            (lambda: coherence([1 + 0j, 1 + 0j], [np.nan + 0j, 1 + 0j]), "rbar at index (0,)"),
            (lambda: coherence([1 + 0j, complex(0.0, -np.inf)], [1 + 0j, 1 + 0j]), "r at index (1,)"),
        ],
        ids=["whiten-nan", "whiten-inf", "coherence-rbar-nan", "coherence-r-inf"],
    )
    def test_rejected(self, call, message):
        with pytest.raises(ValueError, match=re.escape(f"non-finite entry of {message}")):
            call()

    @settings(max_examples=50, deadline=None)
    @given(st.data(), st.sampled_from([np.nan, np.inf, -np.inf]), st.booleans(),
           st.sampled_from(["vectors", "r", "rbar"]))
    def test_first_bad_entry_named(self, data, value, imaginary, name):
        shape = (data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        arrays = {
            key: rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for key in ("r", "rbar")
        }
        bad = arrays["rbar" if name == "vectors" else name]
        flat = data.draw(st.integers(0, bad.size - 1))
        index = np.unravel_index(flat, shape)
        part = bad.imag if imaginary else bad.real
        part[index] = value
        # more bad entries after the first
        later = part.flat[flat + 1 :]
        part.flat[flat + 1 :] = np.where(rng.random(later.size) < 0.3, np.nan, later)
        message = re.escape(f"non-finite entry of {name} at index {tuple(int(i) for i in index)}:")
        with pytest.raises(ValueError, match=message):
            if name == "vectors":
                whiten(arrays["rbar"])
            else:
                coherence(arrays["r"], arrays["rbar"])

    def test_engine_scans_only_the_spectra(self, rng, monkeypatch):
        import lstsc.coherence as module

        scanned = []

        def scan(array):
            scanned.append(array.shape)
            return _first_non_finite(array)

        monkeypatch.setattr(module, "_first_non_finite", scan)
        specs = random_small_specs(rng, 3, 2 * _BLOCK_FRAMES + 5, 9)
        for variant, estimator in (("lstsc-1", None), ("lstsc-3", HeuristicMaskEstimator())):
            scanned.clear()
            compute_lstsc(specs, CoherenceConfig.for_variant(variant), estimator)
            assert scanned == [specs.shape], variant


def _blend(rbar, r, lam):
    """One tracker update, as a one-frame block of ``_Blend``: the
    pair-major (M - 1, F) ``rbar`` and ``r`` with a scalar or a row of F
    factors ``lam``."""
    lam = np.asarray(lam, dtype=np.float64)
    blend = _Blend(r[np.newaxis], rbar, lam[np.newaxis] if lam.ndim else lam)
    blend.step(0)
    return blend.states[1]


class TestRecursiveUpdate:
    """The tracker update ``_Blend``, which both trackers use, on
    pair-major stacks: (M - 1, F) states, one lambda per bin."""

    def test_lambda_one_keeps_state_exactly(self, rng):
        rbar = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        r = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        out = _blend(rbar.copy(), r, np.ones(5))
        assert np.array_equal(out, rbar)

    def test_lambda_zero_replaces_state_exactly(self, rng):
        rbar = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        r = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        out = _blend(rbar, r, np.zeros(5))
        assert np.array_equal(out, r)

    def test_row_endpoints_exact_in_a_mixed_row(self, rng):
        lam = np.array([1.0, 0.0, 0.5, 1.0, 0.0])
        rbar = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        r = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        # the blend's arithmetic would turn these signed zeros into +0.0
        rbar[0, 0] = r[0, 1] = complex(-0.0, -0.0)
        r[0, 0] = rbar[0, 1] = 1.0 + 1.0j
        out = _blend(rbar, r, lam)
        want = np.stack(
            [rbar[:, 0], r[:, 1], 0.5 * rbar[:, 2] + 0.5 * r[:, 2], rbar[:, 3], r[:, 4]], axis=1
        )
        assert out.tobytes() == want.tobytes()

    def test_geometric_recursion(self):
        c = np.full((2, 2), 0.3 - 0.4j)
        initial = np.full((2, 2), 1.0 + 1.0j)
        # one 20-frame block
        blend = _Blend(np.broadcast_to(c, (20, 2, 2)), initial, 0.99)
        for i in range(20):
            blend.step(i)
        expected = c + 0.99**20 * (initial - c)
        assert np.allclose(blend.states[-1], expected, atol=1e-12)

    def test_hold_keeps_state_whatever_lambda(self, rng):
        rbar = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        rbar[0, 0] = complex(-0.0, 0.0)
        rtfs = rng.standard_normal((2, 2, 4)) + 1j * rng.standard_normal((2, 2, 4))
        blend = _Blend(rtfs, rbar, np.full((2, 4), 0.5))
        blend.step(0, hold=True)
        blend.step(1)
        states = blend.states
        assert states[1].tobytes() == rbar.tobytes()
        assert states[2].tobytes() == (0.5 * states[1] + 0.5 * rtfs[1]).tobytes()


class TestPackage:
    def test_submodule_not_shadowed(self):
        import lstsc
        import lstsc.coherence as module

        assert module is sys.modules["lstsc.coherence"]
        assert lstsc.coherence.read_features is read_features


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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_matches_scalar_definition(self, width, seed):
        # index-order sums over M - 1, the oracle's loop, for any M
        rng = np.random.default_rng(seed)
        rows = 17
        r = np.exp(1j * rng.uniform(-np.pi, np.pi, (rows, width)))
        rbar = rng.standard_normal((rows, width)) + 1j * rng.standard_normal((rows, width))
        rbar[rng.random((rows, width)) < 0.1] = 0.0
        rbar[3] = r[3]  # exact self-comparisons land on the clip at 1
        got = coherence(r, rbar).tolist()
        want = [_coherence_whitened_form(r[f], rbar[f], 1e-12) for f in range(rows)]
        assert got == want  # float ==, so bit for bit but for the sign of zero

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


_EDGE_DOUBLES = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0] + [
    np.nextafter(edge, toward) for edge in (1.0, -1.0) for toward in (-np.inf, np.inf)
]


class TestClampUnit:
    """The ±1 clamp of ``_similarity`` and ``arcsine_warp`` is
    ``np.clip(x, -1.0, 1.0)``, byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.sampled_from(_EDGE_DOUBLES),
        st.floats(),
        # any bit pattern: NaNs of either sign and any payload, subnormals
        st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
    ), min_size=1, max_size=40))
    def test_equals_np_clip(self, values):
        x = np.array(values, dtype=np.float64)
        want = np.clip(x, -1.0, 1.0)
        assert _clamp_unit(x).tobytes() == want.tobytes()
        out = x.copy()
        assert _clamp_unit(out, out=out) is out and out.tobytes() == want.tobytes()
        for value in x:
            assert _clamp_unit(value).tobytes() == np.clip(value, -1.0, 1.0).tobytes()


class TestComputeLstsc:
    @pytest.mark.parametrize(
        "variant, estimator",
        [("lstsc-1", None), ("lstsc-3", None),
         ("lstsc-3", HeuristicMaskEstimator), ("lstsc-2", HeuristicMaskEstimator)],
        ids=["lstsc-1", "lstsc-3", "lstsc-3-steered", "lstsc-2-steered"],
    )
    def test_peak_memory_holds_one_block(self, rng, variant, estimator):
        # the planes plus the stream's working set: its RTFs (1), the
        # trackers' state stack (1.02) and rows, and one scratch arena
        # (0.43), 2.76-3.07 RTF blocks in all; the bound leaves 3% above
        # the 3.19-3.49 read with an arena per thread.  Temporaries
        # allocated afresh in 16-frame slices
        # read 2.97-3.28, unsliced 3.9-4.3, and a previous block kept
        # alive adds one more
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
        assert peak - planes < 3.6 * rtf_block, (peak - planes) / rtf_block

    @pytest.mark.parametrize("variant", ["lstsc-1", "lstsc-3"])
    def test_rtf_ratios_near_the_top_of_the_double_range(self, rng, variant):
        # a reference channel 1e-154 times the others makes RTF ratios
        # near 1e154, whose sums of squares overflow unless rescaled; min
        # and max propagate NaN, which fails both comparisons
        specs = 1e5 * random_small_specs(rng, 3, 20, 9)
        specs[0] *= 1e-154
        feats = compute_lstsc(specs, CoherenceConfig.for_variant(variant, epsilon=1e-300))
        for name, plane in vars(feats).items():
            if plane is not None and plane.dtype == np.float64:
                assert np.minimum.reduce(plane, axis=None) >= -1.0, name
                assert np.maximum.reduce(plane, axis=None) <= 1.0, name

    @pytest.mark.parametrize("variant", sorted(VARIANT_SETTINGS))
    def test_empty_spectra_rejected(self, variant):
        cfg = CoherenceConfig.for_variant(variant)
        for shape in ((3, 0, 257), (3, 10, 0), (2, 0, 0)):
            specs = np.zeros(shape, dtype=complex)
            message = re.escape(f"spectra need frames and bins, got shape (M, L, F) = {shape}")
            with pytest.raises(ValueError, match=message):
                compute_lstsc(specs, cfg)
            with pytest.raises(ValueError, match=message):
                next(stream_frames(specs, cfg))

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

    @staticmethod
    def _invariance_case(data):
        """A drawn variant, a seeded generator, the spectra of a source
        delayed across 2-5 mics in noise, and either no estimator's rows or
        rows to play back whose mean square is 0 or at least 0.04, far from
        ``beta`` = 0.01: no halt can depend on the coherence."""
        cfg = CoherenceConfig.for_variant(data.draw(st.sampled_from(sorted(VARIANT_SETTINGS))))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        num_mics = data.draw(st.integers(2, 5))
        delays = tuple(int(d) for d in rng.integers(0, 8, num_mics))
        specs = stft_multichannel(delayed_array_audio(rng, num_mics, 8000, delays, noise_rms=0.1))
        rows = None
        if data.draw(st.booleans()):
            on = rng.random(specs.shape[1]) < 0.5
            rows = np.where(on[:, None], rng.uniform(0.2, 1.0, specs.shape[1:]), 0.0)
        return cfg, rng, specs, rows

    @staticmethod
    def _features(specs, cfg, rows):
        return compute_lstsc(specs, cfg, None if rows is None else _PrerecordedEstimator(rows))

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_unwarped_coherence_ignores_mic_gains_and_order(self, data):
        # a static per-mic, per-bin complex gain (a microphone mismatch)
        # or a permutation of the non-reference mics moved γ_L and γ_G by
        # at most 1.4e-14 on a sifting scene
        cfg, rng, specs, rows = self._invariance_case(data)
        num_mics, _, num_bins = specs.shape
        if data.draw(st.booleans()):
            gains = rng.uniform(0.5, 2.0, (num_mics, num_bins)) * np.exp(
                1j * rng.uniform(-np.pi, np.pi, (num_mics, num_bins))
            )
            changed = specs * gains[:, None, :]
        else:
            changed = specs[[0, *data.draw(st.permutations(range(1, num_mics)))]]
        feats, moved = (self._features(x, cfg, rows) for x in (specs, changed))
        for name in ("gamma_local", "gamma_global"):
            assert np.max(np.abs(getattr(moved, name) - getattr(feats, name))) <= 1e-12, name
        assert np.array_equal(moved.low_energy, feats.low_energy)
        assert np.array_equal(moved.mask_halted, feats.mask_halted)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_power_of_two_gain_keeps_every_byte(self, data):
        # every product and ratio scales exactly; the bins' energies stay
        # far above epsilon, so no bin turns low-energy
        cfg, _, specs, rows = self._invariance_case(data)
        gain = 2.0 ** data.draw(st.integers(-8, 8))
        feats, scaled = (self._features(x, cfg, rows) for x in (specs, specs * gain))
        for field in dataclasses.fields(LstscFeatures):
            assert same_bytes(getattr(scaled, field.name), getattr(feats, field.name)), field.name

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
            # a frame whose window reads the bad entry
            lambda: short_term_whitened_rtf(specs, data.draw(
                st.integers(max(0, frame - cfg.R), min(shape[1] - 1, frame + cfg.R))
            ), cfg),
        )
        message = f"non-finite spectrum entry at channel {channel}, frame {frame}, bin {bin_}"
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()

    @settings(max_examples=50, deadline=None)
    @given(st.data(), st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_one_frame_rtf_scans_only_the_frames_it_averages(self, data, value):
        # a bad entry outside frames [frame - R, frame + R] leaves the
        # clean tensor's result; one inside raises naming it
        cfg = CoherenceConfig(R=data.draw(st.integers(0, 3)))
        shape = (data.draw(st.integers(2, 4)), data.draw(st.integers(1, 12)), data.draw(st.integers(1, 6)))
        specs = random_small_specs(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), *shape)
        frame = data.draw(st.integers(0, shape[1] - 1))
        want = short_term_whitened_rtf(specs, frame, cfg)
        channel, bad, bin_ = (data.draw(st.integers(0, n - 1)) for n in shape)
        specs[channel, bad, bin_] = value
        if abs(bad - frame) <= cfg.R:
            message = f"non-finite spectrum entry at channel {channel}, frame {bad}, bin {bin_}$"
            with pytest.raises(ValueError, match=message):
                short_term_whitened_rtf(specs, frame, cfg)
        else:
            got = short_term_whitened_rtf(specs, frame, cfg)
            assert same_bytes(got[0], want[0]) and same_bytes(got[1], want[1])


class _PrerecordedEstimator:
    """Plays back fixed mask rows (for oracle comparisons and halting
    tests) and keeps a copy of each magnitude row and each (local,
    global) coherence row pair it is given."""

    def __init__(self, rows):
        self.rows = rows
        self.magnitudes = []
        self.features = []

    def __call__(self, magnitude, gamma_local, gamma_global, banded=None):
        self.magnitudes.append(magnitude.copy())
        self.features.append((gamma_local.copy(), gamma_global.copy()))
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
def _engine_inputs(draw, min_frames: int = 1):
    """Spectra with the edge cases of real STFTs: DC and Nyquist carry an
    exactly zero imaginary part of either sign, and silent frames, silent
    channels or silent reference bins make the low-energy flags fire."""
    R = draw(st.integers(0, 3))
    num_frames = draw(st.one_of(
        st.sampled_from([1, 2, 2 * R + 1, 63, 64, 65, 128, 129]), st.integers(1, 200)
    ).filter(lambda n: n >= min_frames))
    num_mics = draw(st.integers(2, 10))
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


# Halted runs that end at, or one frame past, the end of a batch of the
# steered loop, whose batches of 1, 1, 2, 4, ... rows end 1, 2, 4, 8, 16,
# 32 and 64 rows after a release.
_BATCH_EDGE_RUNS = (1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63)


@st.composite
def _halt_patterns(draw, num_frames: int, num_bins: int) -> np.ndarray:
    """Mask rows whose halts (frame l halts when row l - 1 is energetic)
    strictly alternate, come in runs of 1-3 frames, or come in runs of
    ``_BATCH_EDGE_RUNS`` frames parted by 1-3 released ones; optionally
    a halted run is still open at the first block's last frame."""
    kind = draw(st.sampled_from(["alternate", "short", "edges"]))
    energetic = np.zeros(num_frames, dtype=bool)
    if kind == "alternate":
        energetic[draw(st.integers(0, 1)) :: 2] = True
    else:
        frame, on = 0, draw(st.booleans())
        while frame < num_frames:
            edges = on and kind == "edges"
            length = draw(st.sampled_from(_BATCH_EDGE_RUNS) if edges else st.integers(1, 3))
            energetic[frame : frame + length] = on
            frame, on = frame + length, not on
    if num_frames > _BLOCK_FRAMES and draw(st.booleans()):
        # rows up to the block's second-last one halt frames up to its last
        energetic[draw(st.integers(0, _BLOCK_FRAMES - 2)) : _BLOCK_FRAMES - 1] = True
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.where(
        energetic[:, np.newaxis],
        rng.uniform(0.2, 1.0, (num_frames, num_bins)),
        rng.uniform(0.0, 0.1, (num_frames, num_bins)),
    )


# FrameBlock fields that the per-frame reference names differently
_ORACLE_NAMES = {"lambda_trace": "lam", "mask": "mask_row"}

_BANDED = ("gamma_local", "gamma_global", "gamma_global_warped", "lambda_trace")


class TestBlockEngine:
    """The block engine against the per-frame reference loop."""

    @settings(max_examples=25, deadline=None)
    @given(_engine_inputs(), st.data())
    def test_matches_per_frame_engine(self, inputs, data):
        R, specs = inputs
        rows = data.draw(_mask_runs(*specs.shape[1:]))
        cfg = CoherenceConfig(R=R)
        for frame in range(specs.shape[1]):
            got = short_term_whitened_rtf(specs, frame, cfg)
            want = oracle_frame_engine.short_term_whitened_rtf(specs, frame, cfg)
            assert all(map(same_bytes, got, want)), frame
        # the trackers score tiles of 1-9 frames' states, and the RTFs go
        # in tiles of fewer frames or, where that is less than R, in whole
        # blocks, so that tile edges fall inside each block
        num_mics, _, num_bins = specs.shape
        tile_bytes = data.draw(st.integers(1, 9)) * num_bins * (num_mics - 1) * 16
        with mock.patch("lstsc.signal_core._TILE_BYTES", tile_bytes):
            for variant in sorted(VARIANT_SETTINGS):
                cfg = CoherenceConfig.for_variant(variant, R=R)
                for make in (
                    lambda: None, HeuristicMaskEstimator, lambda: _PrerecordedEstimator(rows)
                ):
                    self._assert_matches_reference(specs, cfg, make)

    @settings(max_examples=15, deadline=None)
    @given(_engine_inputs(min_frames=_BLOCK_FRAMES + 1), st.data())
    def test_halt_patterns_match_per_frame_engine(self, inputs, data):
        # the steered loop scores halted runs in batches; these patterns
        # release the tracker inside, at and just past a batch's end
        R, specs = inputs
        rows = data.draw(_halt_patterns(*specs.shape[1:]))
        for variant in sorted(VARIANT_SETTINGS):
            cfg = CoherenceConfig.for_variant(variant, R=R)
            self._assert_matches_reference(specs, cfg, lambda: _PrerecordedEstimator(rows))

    @settings(max_examples=15, deadline=None)
    @given(_engine_inputs(min_frames=_BLOCK_FRAMES + 1), st.data())
    def test_estimator_sees_the_final_rows(self, inputs, data):
        # once per frame, in clip order, and never a row scored ahead of a
        # release and then discarded
        R, specs = inputs
        rows = data.draw(_halt_patterns(*specs.shape[1:]))
        for variant in sorted(VARIANT_SETTINGS):
            cfg = CoherenceConfig.for_variant(variant, R=R)
            estimator = _PrerecordedEstimator(rows)
            blocks = list(stream_frames(specs, cfg, estimator))
            warped = "_warped" if cfg.apply_arcsine else ""
            for scope, got in zip(("local", "global"), zip(*estimator.features)):
                want = np.concatenate([getattr(b, f"gamma_{scope}{warped}") for b in blocks])
                assert same_bytes(np.stack(got), want), (variant, scope)

    @staticmethod
    def _assert_matches_reference(specs, cfg, make) -> None:
        """Every ``FrameBlock`` row of ``stream_frames`` equals the
        per-frame reference's, with a fresh estimator from ``make`` on
        each side."""
        # the per-frame reference has no block pooling: the banded fields
        # are checked as the pooled rows of the reference's block
        fields = [
            f.name for f in dataclasses.fields(FrameBlock)
            if f.name != "start" and not f.name.startswith("banded_")
        ]
        num_frames, num_bins = specs.shape[1:]
        filterbank = design_filterbank(16000, 2 * (num_bins - 1), 48)
        estimator, reference = make(), make()
        want = oracle_frame_engine.stream_frames(specs, cfg, reference)
        frame = 0
        for block in stream_frames(specs, cfg, estimator):
            assert block.start == frame
            n = min(_BLOCK_FRAMES, num_frames - frame)
            for name in fields:
                field = getattr(block, name)
                assert field is None or len(field) == n, (cfg, name)
            refs = [ref for _, ref in zip(range(n), want)]
            for i, ref in enumerate(refs):
                assert ref.frame == frame
                for name in fields:
                    field = getattr(block, name)
                    got = None if field is None else field[i]
                    ref_value = getattr(ref, _ORACLE_NAMES.get(name, name))
                    assert same_bytes(got, ref_value), (cfg, estimator, frame, name)
                frame += 1
            for name in _BANDED:
                planes = [getattr(ref, _ORACLE_NAMES.get(name, name)) for ref in refs]
                pooled = None
                if cfg.erb_bands is not None and planes[0] is not None:
                    pooled = pool_feature(np.stack(planes), filterbank)
                assert same_bytes(getattr(block, "banded_" + name), pooled), (
                    cfg, estimator, block.start, name
                )
        assert frame == num_frames and next(want, None) is None
        if isinstance(estimator, _PrerecordedEstimator):
            got_mags, want_mags = (np.stack(e.magnitudes) for e in (estimator, reference))
            assert same_bytes(got_mags, want_mags)


STFT = StftConfig()


def _write_wav(path, samples: np.ndarray, encoding: str) -> None:
    """(M, n) ``samples`` in [-1, 1) as a WAV file of ``encoding``: a
    numpy float dtype's name, "pcm16" or "pcm24"."""
    frames = np.ascontiguousarray(samples.T)
    if encoding == "pcm24":
        write_pcm24(path, np.round(frames * 2**23).clip(-(2**23), 2**23 - 1).astype(np.int64) << 8)
    elif encoding == "pcm16":
        wavfile.write(path, 16000, np.round(frames * 2**15).clip(-(2**15), 2**15 - 1).astype(np.int16))
    else:
        wavfile.write(path, 16000, frames.astype(encoding))


class TestStreamWav:
    """The streaming extractor, ``stream_wav``: the blocks of a WAV file
    read a block's frames at a time are those of the whole clip."""

    @settings(max_examples=40, deadline=None)
    @given(
        variant=st.sampled_from(sorted(VARIANT_SETTINGS)),
        num_mics=st.integers(2, 4),
        R=st.sampled_from([0, 1, 2, 3, 70]),
        num_frames=st.one_of(
            st.sampled_from([1, 63, 64, 65, 66, 128, 129, 153, 154]), st.integers(1, 200)
        ),
        extra=st.integers(0, STFT.hop - 1),
        encoding=st.sampled_from(["float32", "pcm16", "pcm24"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(variant="lstsc-4", num_mics=3, R=1, num_frames=66, extra=0, encoding="float32",
             seed=0)
    @example(variant="lstsc-2", num_mics=2, R=70, num_frames=154, extra=159, encoding="pcm24",
             seed=1)
    def test_blocks_match_the_whole_clip(
        self, variant, num_mics, R, num_frames, extra, encoding, seed
    ):
        rng = np.random.default_rng(seed)
        num_samples = STFT.frame_len + STFT.hop * (num_frames - 1) + extra
        samples = 0.1 * rng.standard_normal((num_mics, num_samples))
        if rng.random() < 0.5:
            # silence makes the low-energy flags fire
            lo = int(rng.integers(0, num_samples))
            samples[:, lo : lo + int(rng.integers(1, 4000))] = 0.0
        cfg = CoherenceConfig.for_variant(variant, R=R)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.wav"
            _write_wav(path, samples, encoding)
            want = list(stream_frames(stft_multichannel(load_wav(path)), cfg))
            got = list(stream_wav(WavReader(path), cfg))

        assert len(got) == len(want)
        for block, ref in zip(got, want):
            for field in dataclasses.fields(FrameBlock):
                assert same_bytes(getattr(block, field.name), getattr(ref, field.name)), (
                    block.start, field.name
                )

    @pytest.mark.parametrize("R", [1, 3, 64])
    def test_peak_memory_follows_a_block_and_its_windows(self, tmp_path, R):
        # O(64 + 2R) frames of spectra: the peak holds the stream's working
        # set, the spectra of a block and its 2R window frames, the RTFs
        # with the block's span of samples laid over them, and the rows,
        # which weigh most against 2 mics, plus one scratch arena that
        # grows with the windows at R = 64: 3.6-3.77 frames' worth per span
        # frame at R = 1 and 3, 2.63 at R = 64; the bound leaves 10% above
        # the 3.8-4.05 read at R = 1 and 3 with an arena per thread.  The
        # clip is 16 spans long at R = 64, so a buffer that
        # grows with it breaks the bound
        num_mics = 2
        span = _BLOCK_FRAMES + 2 * R
        frame_bytes = num_mics * STFT.num_bins * np.dtype(np.complex128).itemsize
        num_samples = STFT.frame_len + STFT.hop * (16 * (_BLOCK_FRAMES + 2 * 64) - 1)
        samples = 0.1 * np.random.default_rng(R).standard_normal((num_samples, num_mics))
        path = tmp_path / "x.wav"
        wavfile.write(path, 16000, samples.astype(np.float32))
        reader = WavReader(path)
        cfg = CoherenceConfig.for_variant("lstsc-4", R=R)
        tracemalloc.start()
        try:
            for block in stream_wav(reader, cfg):
                del block
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.4 * span * frame_bytes, peak / (span * frame_bytes)

    @pytest.mark.parametrize("variant", ["lstsc-1", "lstsc-4"])
    def test_held_blocks_keep_their_rows(self, tmp_path, variant):
        # a stream reuses its working set only once no view of the
        # previous block is alive: blocks kept in a list, and a sub-view
        # of one block kept across the next, keep the rows they were
        # given, which are compute_lstsc's bit for bit
        rng = np.random.default_rng(7)
        num_samples = STFT.frame_len + STFT.hop * (3 * _BLOCK_FRAMES + 20 - 1)
        path = tmp_path / "x.wav"
        _write_wav(path, 0.1 * rng.standard_normal((4, num_samples)), "float32")
        cfg = CoherenceConfig.for_variant(variant, R=2)
        specs = stft_multichannel(load_wav(path))
        want = compute_lstsc(specs, cfg)
        for blocks in (list(stream_frames(specs, cfg)), list(stream_wav(WavReader(path), cfg))):
            assert len(blocks) == 4
            for block in blocks:
                for field in dataclasses.fields(LstscFeatures):
                    rows = getattr(want, field.name)
                    got = getattr(block, field.name)
                    assert same_bytes(got, None if rows is None else rows[block.frames]), (
                        block.start, field.name
                    )
        for stream in (stream_frames(specs, cfg), stream_wav(WavReader(path), cfg)):
            held = None
            for block in stream:
                if held is None:
                    held = block.gamma_global[3:9, 10:20]
                del block
            assert same_bytes(held, want.gamma_global[3:9, 10:20])

    @pytest.mark.parametrize("variant", ["lstsc-1", "lstsc-4"])
    def test_consumers_that_drop_their_blocks_build_one_working_set(self, tmp_path, variant):
        # a reference to a block's arrays left anywhere in a consumer
        # makes the next block build a working set of its own, and with
        # it fresh pages; a list of blocks keeps every one of them
        built = []

        class Counted(_WorkingSet):
            def __init__(self, *args, **kwargs):
                built.append(type(self))
                super().__init__(*args, **kwargs)

        rng = np.random.default_rng(11)
        num_samples = STFT.frame_len + STFT.hop * (3 * _BLOCK_FRAMES + 20 - 1)
        path = tmp_path / "x.wav"
        _write_wav(path, 0.1 * rng.standard_normal((4, num_samples)), "float32")
        specs = stft_multichannel(load_wav(path))
        cfg = CoherenceConfig.for_variant(variant, R=2)
        with mock.patch("lstsc.coherence._WorkingSet", Counted):
            for feedback in (None, HeuristicMaskEstimator()):
                built.clear()
                compute_lstsc(specs, cfg, feedback)
                assert len(built) == 1, feedback
            built.clear()
            write_feature_blocks(tmp_path / "f.lsts", specs.shape[1], stream_wav(WavReader(path), cfg))
            assert len(built) == 1
            built.clear()
            assert len(list(stream_frames(specs, cfg))) == len(built) == 4

    def test_rejections(self, tmp_path):
        cfg = CoherenceConfig()
        mono = tmp_path / "mono.wav"
        wavfile.write(mono, 16000, np.zeros(1000, np.float32))
        with pytest.raises(ValueError, match="at least 2 microphones"):
            stream_wav(WavReader(mono), cfg)
        short = tmp_path / "short.wav"
        wavfile.write(short, 16000, np.zeros((399, 2), np.float32))
        with pytest.raises(ValueError, match=r"shorter than one frame \(399 < 400\)"):
            stream_wav(WavReader(short), cfg)
        # finite samples whose spectrum overflows from frame 148 on (its
        # last 80 samples), in the third block
        samples = np.zeros((STFT.frame_len + STFT.hop * 199, 3))
        samples[24000:, 1] = 1e308
        huge = tmp_path / "huge.wav"
        wavfile.write(huge, 16000, samples)
        blocks = stream_wav(WavReader(huge), cfg)
        assert [next(blocks).frames for _ in range(2)] == [slice(0, 64), slice(64, 128)]
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="non-finite spectrum entry at channel 1, frame 148, bin 0$"
        ):
            next(blocks)

    def test_rate_rejected_before_any_block(self, tmp_path):
        # an 8 kHz file would get a filterbank designed for 8 kHz
        wav = tmp_path / "8k.wav"
        wavfile.write(wav, 8000, np.zeros((8000, 2), np.float32))
        with pytest.raises(ValueError, match="^pipeline entry expects 16 kHz audio, got 8000 Hz$"):
            stream_wav(WavReader(wav), CoherenceConfig.for_variant("lstsc-4"))


class TestFeatureWriter:
    """Blocks written as they come give the whole-clip files.

    ``write_feature_blocks`` replaced a ``FeatureWriter`` class; the test
    class keeps that name so the ids of its cases stay the same.
    """

    @pytest.mark.parametrize("variant", sorted(VARIANT_SETTINGS))
    @pytest.mark.parametrize("num_frames", [1, 25, 26, 64, 65, 89, 90, 129, 153, 154, 192])
    def test_bytes_equal_whole_clip_writers(self, tmp_path, variant, num_frames):
        rng = np.random.default_rng(num_frames)
        specs = random_small_specs(rng, 3, num_frames, STFT.num_bins)
        cfg = CoherenceConfig.for_variant(variant)
        features = compute_lstsc(specs, cfg)
        write_features(tmp_path / "whole.lsts", features)
        write_whole_plane_csvs(tmp_path / "whole.lsts", features)
        _, paths = write_feature_blocks(
            tmp_path / "blocks.lsts", num_frames, stream_frames(specs, cfg), csv=True
        )
        wholes = sorted(tmp_path.glob("whole*"))
        assert sorted(path.name for path in paths) == [
            path.name.replace("whole", "blocks") for path in wholes
        ]
        for path in wholes:
            twin = tmp_path / path.name.replace("whole", "blocks")
            assert twin.read_bytes() == path.read_bytes(), path.name

    @staticmethod
    def _check_band_pooling(num_frames, seed):
        # each block's bands are its own rows pooled in one product, and
        # within rounding those of pooling the whole plane at once
        rng = np.random.default_rng(seed)
        specs = random_small_specs(rng, 2, num_frames, STFT.num_bins)
        cfg = CoherenceConfig.for_variant("lstsc-4")
        features = compute_lstsc(specs, cfg)
        filterbank = design_filterbank(16000, STFT.fft_size, 48)
        for block in stream_frames(specs, cfg):
            for name in _BANDED:
                pooled = pool_feature(getattr(block, name), filterbank)
                assert getattr(block, "banded_" + name).tobytes() == pooled.tobytes(), name
        for name in _BANDED:
            whole = pool_feature(getattr(features, name), filterbank)
            np.testing.assert_allclose(
                getattr(features, "banded_" + name), whole, rtol=0, atol=1e-12, err_msg=name
            )

    @pytest.mark.parametrize("num_frames", [1, 25, 26, 64, 89, 90, 769, 2998])
    def test_band_pooling_equals_whole_plane_pooling(self, num_frames):
        # last blocks of 1, 25, 26 and 64 frames, single- and multi-block,
        # up to the 30 s clip; 89 and 769 end in a block of 25 and 1 rows,
        # whose products round apart from the whole plane's by ulps
        self._check_band_pooling(num_frames, num_frames)

    @settings(max_examples=15, deadline=None)
    @given(num_frames=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_band_pooling_is_per_block(self, num_frames, seed):
        self._check_band_pooling(num_frames, seed)

    def test_failure_removes_the_files(self, tmp_path, rng):
        specs = random_small_specs(rng, 2, 130, STFT.num_bins)
        cfg = CoherenceConfig.for_variant("lstsc-3")

        def failing():
            blocks = stream_frames(specs, cfg)
            yield next(blocks)
            # asked for the next block: the first one's rows are written
            assert len(list(tmp_path.iterdir())) == 5
            raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="stop"):
            write_feature_blocks(tmp_path / "f.lsts", 130, failing(), csv=True)
        assert list(tmp_path.iterdir()) == []
        # a missing block is a failure too
        with pytest.raises(ValueError, match="holds 130 frames, 128 were written"):
            write_feature_blocks(tmp_path / "f.lsts", 130, list(stream_frames(specs, cfg))[:2])
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ValueError, match="expected the block at frame 0 of 130, got frames 64 to 128"):
            write_feature_blocks(tmp_path / "f.lsts", 130, list(stream_frames(specs, cfg))[1:])
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ValueError, match="expected the block at frame 128 of 129, got frames 128 to 130"):
            write_feature_blocks(tmp_path / "f.lsts", 129, stream_frames(specs, cfg))
        assert list(tmp_path.iterdir()) == []

    def test_unopenable_target_removes_the_files(self, tmp_path, rng):
        # the binary file and two CSV files are open when the third fails
        specs = random_small_specs(rng, 2, 130, STFT.num_bins)
        blocker = tmp_path / "f.gamma_global_warped.csv"
        blocker.mkdir()
        with pytest.raises(IsADirectoryError):
            write_feature_blocks(
                tmp_path / "f.lsts", 130,
                stream_frames(specs, CoherenceConfig.for_variant("lstsc-3")), csv=True,
            )
        assert list(tmp_path.iterdir()) == [blocker]

    @pytest.mark.parametrize("variant", ["lstsc-1", "lstsc-4"])
    def test_no_block_outlives_its_rows_written(self, tmp_path, rng, variant):
        # the engine computes each block while the writer waits for it, so
        # a reference the writer kept to the last block's rows would hold
        # two blocks at once: a difference too small for the peak bounds
        specs = random_small_specs(rng, 3, 200, STFT.num_bins)
        live = []

        def guarded(blocks):
            for block in blocks:
                refs = [weakref.ref(rows) for _, rows in _export_planes(block)]
                yield block
                del block
                live.append(sum(ref() is not None for ref in refs))

        write_feature_blocks(
            tmp_path / "f.lsts", 200,
            guarded(stream_frames(specs, CoherenceConfig.for_variant(variant))), csv=True,
        )
        assert live == [0, 0, 0, 0]

    def test_planes_that_disagree_on_shape_rejected(self, tmp_path, rng):
        specs = random_small_specs(rng, 2, 130, 9)
        cfg = CoherenceConfig.for_variant("lstsc-3")
        features = compute_lstsc(specs, cfg)
        short = dataclasses.replace(features, lambda_trace=features.lambda_trace[:-1])
        with pytest.raises(ValueError, match="^feature planes disagree on shape$"):
            write_features(tmp_path / "whole.lsts", short)
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ValueError, match="^feature planes disagree on shape$"):
            write_feature_blocks(tmp_path / "f.lsts", 130, [short], csv=True)
        assert list(tmp_path.iterdir()) == []
        # a later block narrower than the first, whose rows would land at
        # the wrong offsets; the first block's files are removed
        blocks = list(stream_frames(specs, cfg))
        blocks[1].lambda_trace = blocks[1].lambda_trace[:, :-1]

        def checked():
            yield blocks[0]
            assert len(list(tmp_path.iterdir())) == 5
            yield blocks[1]

        with pytest.raises(ValueError, match="^feature planes disagree on shape$"):
            write_feature_blocks(tmp_path / "f.lsts", 130, checked(), csv=True)
        assert list(tmp_path.iterdir()) == []


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

    def test_header_claiming_more_than_the_file_holds(self, tmp_path, rng):
        # the header is checked against the file's length before any plane
        # is read, so a short file costs no plane's worth of memory
        specs = random_small_specs(rng, 2, 2000, 257)
        path = tmp_path / "f.lsts"
        write_features(path, compute_lstsc(specs, CoherenceConfig.for_variant("lstsc-1")))
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated or oversized"):
                read_features(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * len(raw)
        # a header whose sizes are past what any file holds
        path.write_bytes(raw[:8] + struct.pack("<III", 2**32 - 1, 2**32 - 1, 2**32 - 1) + raw[20:])
        with pytest.raises(ValueError, match="truncated or oversized"):
            read_features(path)
        path.write_bytes(raw)
        back = read_features(path)
        assert back["planes"][1].tobytes() == np.frombuffer(
            raw, "<f4", 2000 * 257, 20 + 4 * 2000 * 257
        ).astype(np.float64).tobytes()

    def test_csv_export(self, tmp_path, rng):
        specs = random_small_specs(rng, 3, 6, 5)
        feats = compute_lstsc(specs, CoherenceConfig.for_variant("lstsc-3"))
        width, paths = write_feature_blocks(tmp_path / "f.lsts", 6, [feats], csv=True)
        assert width == 5
        binary, *written = paths
        assert binary == tmp_path / "f.lsts"
        assert [path.name for path in written] == [
            "f.gamma_local.csv", "f.gamma_global.csv", "f.gamma_global_warped.csv", "f.lambda.csv"
        ]
        for path in written:
            assert path.exists()
            data = np.loadtxt(path, delimiter=",")
            assert data.shape == (6, 5)


_POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-300, 301)])


def _dyadic_ties(rng: np.random.Generator, size: int) -> np.ndarray:
    """Values ``m / 2**j`` whose exact decimal has 11 significant digits
    ending in 5: exact half-way cases for ten significant digits."""
    out = []
    for j in rng.integers(1, 16, size):
        lo, hi = -(-10**10 // 5**j), (10**11 - 1) // 5**j
        m = 2 * int(rng.integers(lo // 2, hi // 2)) + 1  # odd, in [lo, hi]
        out.append(m / 2**j)
    return np.array(out)


def _csv_plane(rows: int, cols: int, seed: int, extras: list[float]) -> np.ndarray:
    """A plane whose rows each draw from one family of values, or from all.

    Families: mask-like values in [0, 1), signed values in [-1, 1],
    magnitudes 1e-99...1e99 and 1e-330...1e300 (subnormals included),
    one ulp either side of and at 10**k, dyadic ties, and the specials
    +-0.0, NaN, +-inf, the smallest subnormal and the largest float.
    Hypothesis's own floats land at random positions.
    """
    rng = np.random.default_rng(seed)
    size = max(cols, 64)
    near = rng.choice(_POWERS_OF_TEN, size)
    families = [
        rng.random(size),
        rng.uniform(-1.0, 1.0, size),
        10.0 ** rng.uniform(-99.0, 99.0, size),
        10.0 ** rng.uniform(-330.0, 300.0, size),
        np.concatenate([np.nextafter(near, 0.0), near, np.nextafter(near, np.inf)]),
        _dyadic_ties(rng, size),
        np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
                  np.finfo(np.float64).max]),
    ]
    everything = np.concatenate(families)
    plane = np.empty((rows, cols))
    for row, family in enumerate(rng.integers(0, len(families) + 1, rows)):
        source = everything if family == len(families) else families[family]
        plane[row] = rng.choice(source, cols) * rng.choice([-1.0, 1.0], cols)
    for value in extras if rows else ():
        plane[rng.integers(rows), rng.integers(cols)] = value
    return plane


class TestPlaneCsv:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 300),
        st.integers(1, 300),
        st.integers(0, 2**32 - 1),
        st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=8),
    )
    def test_bytes_equal_numpy_text_writer(self, tmp_path_factory, rows, cols, seed, extras):
        plane = _csv_plane(rows, cols, seed, extras)
        path = tmp_path_factory.mktemp("csv") / "plane.csv"
        write_plane_csv(path, plane)
        assert path.read_bytes() == savetxt_bytes(plane)

    @pytest.mark.parametrize("shape", [(4,), (2, 0), (2, 2, 2)])
    def test_rejects_planes_that_are_not_2d(self, tmp_path, shape):
        with pytest.raises(ValueError, match="2-D"):
            write_plane_csv(tmp_path / "p.csv", np.zeros(shape))
