"""Acceptance suite: one test per release criterion, each printing an
unambiguous pass/fail line (visible even under pytest's capture).

Criteria C4 and C5 are behavioral (directional reproductions); their
pass proportions were calibrated once against this pipeline and frozen:
the sifting sweep scored 50/50 (worst margin +0.078) and the A/B sweep
20/20 (worst delta +0.060), so the 45/50 and 18/20 thresholds hold with
wide headroom.
"""
from __future__ import annotations

import itertools
import sys
import time

import numpy as np
import pytest

from conftest import delayed_array_audio, random_small_specs
from oracle_lstsc import oracle_lstsc
from test_erb import _dense_reference_weights

from lstsc.coherence import CoherenceConfig, compute_lstsc, stream_frames
from lstsc.enhance import HeuristicMaskEstimator, enhance_stream
from lstsc.erb import design_filterbank, pool_feature
from lstsc.metrics import si_sdr
from lstsc.roomsim import (
    SPEED_OF_SOUND,
    ArrayGeometry,
    MixSpec,
    mix_scene,
    measure_t60,
    sample_scene,
    simulate_rir,
)
from lstsc.scenarios import (
    build_misconvergence_scenario,
    build_sifting_scenario,
    mean_global_warped,
    speech_like,
    stationary_noise,
)
from lstsc.signal_core import StftConfig, stft_multichannel

ROOM = (6.0, 5.0, 3.0)

_capture_manager = None


@pytest.fixture(autouse=True, scope="session")
def _grab_capture_manager(request):
    # pytest captures at the fd level by default, so even sys.__stdout__
    # is swallowed; the capture manager can suspend that around a print
    global _capture_manager
    _capture_manager = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _report(name: str, passed: bool, detail: str = "") -> None:
    line = f"[{'PASS' if passed else 'FAIL'}] {name}"
    if detail:
        line += f" — {detail}"
    if _capture_manager is not None:
        with _capture_manager.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert passed, line


@pytest.fixture(scope="module")
def sifting_scenes():
    """The 50 default sifting scenes (T60 0.3) that C2 and C4 both use, as
    (mixture, target_active, interferer_only); built once, freed after this
    module."""
    scenes = []
    for seed in range(50):
        scn = build_sifting_scenario(seed)
        scenes.append((scn.mixture, scn.target_active, scn.interferer_only))
    return scenes


class _PlaybackEstimator:
    def __init__(self, rows):
        self.rows = rows
        self.calls = 0

    def __call__(self, magnitude, gamma_local, gamma_global, banded=None):
        row = self.rows[self.calls]
        self.calls += 1
        return row


def test_c01_equation_oracle_equivalence():
    rng = np.random.default_rng(20240501)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 5))
        num_frames = int(rng.integers(2, 11))
        num_bins = int(rng.integers(2, 9))
        specs = random_small_specs(rng, m, num_frames, num_bins)
        if rng.random() < 0.25:
            specs[:, int(rng.integers(num_frames)), :] = 0.0
        time_varying = bool(rng.random() < 0.5)
        apply_arcsine = bool(rng.random() < 0.5)
        mask_rows = None
        estimator = None
        if time_varying and rng.random() < 0.6:
            mask_rows = rng.uniform(0.0, 0.5, (num_frames, num_bins))
            estimator = _PlaybackEstimator(mask_rows)
        cfg = CoherenceConfig(
            R=int(rng.integers(1, 3)),
            time_varying=time_varying,
            apply_arcsine=apply_arcsine,
        )
        feats = compute_lstsc(specs, cfg, mask_feedback=estimator)
        want = oracle_lstsc(
            specs,
            R=cfg.R,
            lambda_local=cfg.lambda_local,
            lambda_global=cfg.lambda_global,
            time_varying=time_varying,
            beta=cfg.beta,
            epsilon=cfg.epsilon,
            apply_arcsine=apply_arcsine,
            mask_rows=mask_rows,
        )
        pairs = [
            (feats.gamma_local, want["gamma_local"]),
            (feats.gamma_global, want["gamma_global"]),
            (feats.lambda_trace, want["lambda_trace"]),
        ]
        if apply_arcsine:
            pairs.append((feats.gamma_local_warped, want["gamma_local_warped"]))
            pairs.append((feats.gamma_global_warped, want["gamma_global_warped"]))
        for got, ref in pairs:
            worst = max(worst, float(np.max(np.abs(got - ref))))
    elapsed = time.perf_counter() - start
    _report(
        "C1 equation-oracle equivalence",
        worst <= 1e-9 and elapsed < 60.0,
        f"100 instances, max |Δ| = {worst:.2e}, {elapsed:.1f}s",
    )


def test_c02_bounds_and_whitening(sifting_scenes):
    cfg = CoherenceConfig.for_variant("lstsc-3")
    worst_modulus = 0.0
    lo, hi = np.inf, -np.inf
    for mixture, _, _ in sifting_scenes:
        specs = stft_multichannel(mixture)
        for block in stream_frames(specs, cfg):
            live = ~block.low_energy
            if live.any():
                moduli = np.abs(block.rtf[live])
                worst_modulus = max(worst_modulus, float(np.max(np.abs(moduli - 1.0))))
            for rows in (block.gamma_local, block.gamma_global,
                         block.gamma_local_warped, block.gamma_global_warped):
                lo = min(lo, float(rows.min()))
                hi = max(hi, float(rows.max()))
    passed = worst_modulus <= 1e-9 and lo >= -1.0 and hi <= 1.0
    _report(
        "C2 bounds and whitening (50 scenes)",
        passed,
        f"max |modulus-1| = {worst_modulus:.2e}, feature range [{lo:.3f}, {hi:.3f}]",
    )


def test_c03_array_agnosticism():
    arrays = [ArrayGeometry.ula(m) for m in (2, 3, 4, 5, 6)]
    arrays.append(ArrayGeometry.circular(7, 0.08))
    stem_rng = np.random.default_rng(99)
    num_samples = 2 * 16000
    stems = {
        "target": speech_like(stem_rng, num_samples, envelope_floor=0.35),
        "non_target": np.zeros(num_samples),
        "interferer": stationary_noise(stem_rng, num_samples),
    }
    spec = MixSpec(sir_db=0.0, snr_db=30.0, clip_seconds=2.0)
    shapes, banded_shapes, source_positions = [], [], []
    for array in arrays:
        scene = sample_scene(7, array=array, t60=0.3)
        source_positions.append(
            np.stack([src.position for src in scene.sources])
        )
        mix = mix_scene(scene, stems, spec, noise_seed=5)
        specs = stft_multichannel(mix.mixture)
        feats = compute_lstsc(specs, CoherenceConfig.for_variant("lstsc-3"))
        banded = compute_lstsc(specs, CoherenceConfig.for_variant("lstsc-4"))
        result = enhance_stream(mix.mixture, CoherenceConfig.for_variant("lstsc-3"))
        assert np.isfinite(result.enhanced.samples).all()
        shapes.append(feats.gamma_global.shape)
        banded_shapes.append(banded.banded_gamma_global_warped.shape)
    same_scene = all(
        np.array_equal(source_positions[0], pos) for pos in source_positions[1:]
    )
    passed = (
        len(set(shapes)) == 1
        and len(set(banded_shapes)) == 1
        and shapes[0][1] == 257
        and banded_shapes[0][1] == 48
        and same_scene
    )
    _report(
        "C3 array-agnosticism (ULA M=2..6 + circular 7)",
        passed,
        f"feature shape {shapes[0]}, banded {banded_shapes[0]}, one pipeline",
    )


def test_c04_interferer_sifting(sifting_scenes):
    cfg = CoherenceConfig.for_variant("lstsc-3")
    wins = 0
    margins = []
    for mixture, target_active, interferer_only in sifting_scenes:
        feats = compute_lstsc(stft_multichannel(mixture), cfg)
        hi = mean_global_warped(feats, interferer_only)
        lo = mean_global_warped(feats, target_active)
        margins.append(hi - lo)
        wins += hi > lo
    _report(
        "C4 interferer sifting",
        wins >= 45,
        f"{wins}/50 scenes, median margin {np.median(margins):+.3f}",
    )


def test_c05_misconvergence_ab():
    wins = 0
    deltas = []
    for seed in range(20):
        scn = build_misconvergence_scenario(seed, t60=0.3)
        fixed = compute_lstsc(
            stft_multichannel(scn.mixture), CoherenceConfig.for_variant("lstsc-1")
        )
        adaptive = enhance_stream(
            scn.mixture, CoherenceConfig.for_variant("lstsc-2")
        ).features
        m_fixed = mean_global_warped(fixed, scn.target_active)
        m_adaptive = mean_global_warped(adaptive, scn.target_active)
        deltas.append(m_fixed - m_adaptive)
        wins += m_adaptive < m_fixed
    _report(
        "C5 mis-convergence A/B (fixed vs adaptive forgetting)",
        wins >= 18,
        f"{wins}/20 scenes, median delta {np.median(deltas):+.3f}",
    )


def test_c06_halting_exactness():
    scn = build_misconvergence_scenario(0, t60=0.3)
    specs = stft_multichannel(scn.mixture)
    cfg = CoherenceConfig.for_variant("lstsc-2")
    estimator = HeuristicMaskEstimator()
    halted_frames = 0
    mismatches = 0
    previous_bytes = None
    previous_mask = None
    for block in stream_frames(specs, cfg, mask_feedback=estimator):
        rows = zip(block.mask_halted, block.global_rbar, block.lambda_trace, block.mask)
        for halted, rbar, lam, mask_row in rows:
            should_halt = (
                previous_mask is not None
                and float(np.mean(previous_mask**2)) > cfg.beta
            )
            if halted != should_halt:
                mismatches += 1
            if halted:
                halted_frames += 1
                if rbar.tobytes() != previous_bytes or not np.all(lam == 1.0):
                    mismatches += 1
            previous_bytes = rbar.tobytes()
            previous_mask = mask_row
    passed = mismatches == 0 and halted_frames > 0
    _report(
        "C6 halting exactness (bit-identical frozen tracker)",
        passed,
        f"{halted_frames} halted frames, {mismatches} mismatches",
    )


def test_c07_rir_fidelity():
    rng = np.random.default_rng(4242)
    worst_offset = 0
    checked = 0
    while checked < 1000:
        src = rng.uniform([0.2, 0.2, 0.2], [5.8, 4.8, 2.8])
        mic = rng.uniform([0.2, 0.2, 0.2], [5.8, 4.8, 2.8])
        dist = float(np.linalg.norm(src - mic))
        if dist < 0.25:
            continue
        rir = simulate_rir(ROOM, None, src, mic, absorption=1.0)
        onset = int(np.flatnonzero(np.abs(rir.taps) > 1e-12)[0])
        expected = round(dist / SPEED_OF_SOUND * 16000)
        worst_offset = max(worst_offset, abs(onset - expected))
        checked += 1
    src = np.array([2.1, 3.1, 1.7])
    mic = np.array([3.7, 1.9, 1.1])
    t60_errors = {}
    for t60 in (0.16, 0.36, 0.61):
        measured = measure_t60(simulate_rir(ROOM, t60, src, mic))
        t60_errors[t60] = (measured - t60) / t60
    passed = worst_offset <= 1 and all(abs(e) <= 0.25 for e in t60_errors.values())
    details = ", ".join(f"T60 {t}s: {e:+.1%}" for t, e in t60_errors.items())
    _report(
        "C7 RIR fidelity",
        passed,
        f"1000 delay pairs within ±{worst_offset} sample; {details}",
    )


def test_c08_mixer_calibration():
    scene = sample_scene(3)
    rng = np.random.default_rng(11)
    num_samples = 16000
    stems = {
        "target": speech_like(rng, num_samples, envelope_floor=0.3),
        "non_target": speech_like(rng, num_samples, envelope_floor=0.3),
        "interferer": stationary_noise(rng, num_samples),
    }
    worst_sir = worst_snr = 0.0
    additive = True
    for sir, snr in itertools.product((0.0, 5.0, 10.0, 15.0), (20.0, 25.0, 30.0)):
        spec = MixSpec(sir_db=sir, snr_db=snr, clip_seconds=1.0)
        result = mix_scene(scene, stems, spec, noise_seed=17)
        worst_sir = max(worst_sir, abs(result.realized_sir_db - sir))
        worst_snr = max(worst_snr, abs(result.realized_snr_db - snr))
        resum = (
            (result.images["target"].samples + result.images["non_target"].samples)
            + result.images["interferer"].samples
        ) + result.noise.samples
        additive &= np.array_equal(resum, result.mixture.samples)
    passed = worst_sir <= 0.01 and worst_snr <= 0.01 and additive
    _report(
        "C8 mixer calibration (4 SIR x 3 SNR)",
        passed,
        f"max |SIR err| {worst_sir:.1e} dB, max |SNR err| {worst_snr:.1e} dB, "
        f"bit-exact sum: {additive}",
    )


def test_c09_si_sdr_suite():
    rng = np.random.default_rng(8)
    ref = rng.standard_normal(8000)
    exact_perfect = si_sdr(ref, ref).value_db == 100.0
    exact_scaled = si_sdr(ref, 2.0 * ref).value_db == 100.0
    lattice_ref = np.array([1.0, 0.0, -1.0, 0.0] * 500)
    lattice_orth = np.array([0.0, 1.0, 0.0, -1.0] * 500)
    exact_orth = si_sdr(lattice_ref, lattice_ref + lattice_orth).value_db == 0.0
    worst = 0.0
    for _ in range(200):
        reference = rng.standard_normal(1024)
        estimate = rng.standard_normal(1024)
        got = si_sdr(reference, estimate).value_db
        alpha = np.linalg.lstsq(reference[:, None], estimate, rcond=None)[0][0]
        projected = alpha * reference
        want = 10.0 * np.log10(
            np.sum(projected**2) / np.sum((estimate - projected) ** 2)
        )
        worst = max(worst, abs(got - float(np.clip(want, -100.0, 100.0))))
    passed = exact_perfect and exact_scaled and exact_orth and worst <= 1e-9
    _report(
        "C9 SI-SDR unit suite",
        passed,
        f"3 exact identities, projection oracle max |Δ| = {worst:.1e} dB",
    )


def test_c10_erb_contract():
    fb = design_filterbank(16000, 512, 48)
    length_ok = fb.weights.shape == (48, 257)
    constant = pool_feature(np.full(257, 0.375), fb)
    identity_ok = np.allclose(constant, 0.375, atol=1e-12)
    dense = _dense_reference_weights(48, 512, 16000.0)
    weights_err = float(np.max(np.abs(fb.weights - dense)))
    rng = np.random.default_rng(21)
    values = rng.uniform(-1.0, 1.0, 257)
    pooled = pool_feature(values, fb)
    dense_pooled = np.array([
        float(np.dot(dense[b], values) / np.sum(dense[b])) for b in range(48)
    ])
    pool_err = float(np.max(np.abs(pooled - dense_pooled)))
    passed = length_ok and identity_ok and weights_err <= 1e-9 and pool_err <= 1e-9
    _report(
        "C10 ERB contract (B=48)",
        passed,
        f"constant identity, dense-oracle max |Δ| = {max(weights_err, pool_err):.1e}",
    )


def test_c11_performance():
    audio = delayed_array_audio(np.random.default_rng(0), 4, 8 * 16000,
                                noise_rms=0.05)
    start = time.perf_counter()
    specs = stft_multichannel(audio)
    compute_lstsc(specs, CoherenceConfig.for_variant("lstsc-4"))
    enhance_stream(audio, CoherenceConfig.for_variant("lstsc-3"))
    elapsed = time.perf_counter() - start
    _report(
        "C11 performance (8-s 4-ch clip, single-threaded)",
        elapsed < 8.0,
        f"extract + enhance in {elapsed:.2f}s (budget 8s)",
    )
