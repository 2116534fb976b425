"""Reusable synthetic test scenarios: stem generators, frame labeling,
and the two behavioral setups used by the validation suite and the
experiment scripts (interferer sifting, tracker mis-convergence A/B).

Stems are deliberately simple: amplitude-modulated filtered noise stands
in for speech (directional and non-stationary), and fixed-filter noise
stands in for a point interferer (directional and stationary).  What the
coherence features measure is spatial structure, not phonetic content.
"""
from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np
from scipy.signal import lfilter

from .coherence import CoherenceConfig, LstscFeatures, arcsine_warp
from .roomsim import MixResult, MixSpec, RoomScene, mix_scene, sample_scene
from .signal_core import MultichannelAudio, StftConfig

__all__ = [
    "speech_like",
    "stationary_noise",
    "intermittent_speech",
    "frame_coverage",
    "SiftingScenario",
    "MisconvergenceScenario",
    "build_sifting_scenario",
    "build_misconvergence_scenario",
    "mean_global_warped",
]


def _syllabic_envelope(
    rng: np.random.Generator, num_samples: int, fs: int, floor: float
) -> np.ndarray:
    """Piecewise-smooth random envelope with ~8 Hz structure."""
    knot_step = int(0.12 * fs)
    num_knots = max(2, num_samples // knot_step + 2)
    knots = np.arange(num_knots) * knot_step
    values = rng.uniform(0.0, 1.0, num_knots) ** 2
    envelope = np.interp(np.arange(num_samples), knots, values)
    return floor + (1.0 - floor) * envelope


def speech_like(
    rng: np.random.Generator,
    num_samples: int,
    fs: int = 16000,
    *,
    envelope_floor: float = 0.0,
    rms: float = 0.05,
) -> np.ndarray:
    """Speech-shaped stand-in: tilted noise under a syllabic envelope.

    ``envelope_floor > 0`` keeps the source continuously active (no full
    silences), which models a single uninterrupted utterance.
    """
    carrier = lfilter([1.0], [1.0, -0.9], rng.standard_normal(num_samples))
    envelope = _syllabic_envelope(rng, num_samples, fs, envelope_floor)
    x = carrier * envelope
    scale = np.sqrt(np.mean(x**2))
    return x * (rms / scale) if scale > 0 else x


def stationary_noise(
    rng: np.random.Generator, num_samples: int, *, rms: float = 0.05
) -> np.ndarray:
    """Spatially fixed, temporally stationary broadband source."""
    x = lfilter([1.0], [1.0, -0.5], rng.standard_normal(num_samples))
    return x * (rms / np.sqrt(np.mean(x**2)))


def intermittent_speech(
    rng: np.random.Generator,
    num_samples: int,
    fs: int = 16000,
    *,
    lead_in: float = 1.5,
    burst_seconds: tuple[float, float] = (0.4, 0.9),
    gap_seconds: tuple[float, float] = (0.5, 1.2),
    rms: float = 0.05,
) -> tuple[np.ndarray, np.ndarray]:
    """Bursty source: speech-like segments separated by silences.

    Returns ``(samples, active)`` where ``active`` marks the burst
    supports (including the 10 ms fade edges).
    """
    x = np.zeros(num_samples)
    active = np.zeros(num_samples, dtype=bool)
    ramp = int(0.01 * fs)
    cursor = int(lead_in * fs)
    while cursor < num_samples:
        burst_len = int(rng.uniform(*burst_seconds) * fs)
        stop = min(cursor + burst_len, num_samples)
        segment = speech_like(rng, stop - cursor, fs, envelope_floor=0.3, rms=rms)
        fade = np.ones(stop - cursor)
        edge = min(ramp, len(fade) // 2)
        if edge > 0:
            shape = 0.5 - 0.5 * np.cos(np.linspace(0, np.pi, edge))
            fade[:edge] = shape
            fade[-edge:] = shape[::-1]
        x[cursor:stop] = segment * fade
        active[cursor:stop] = True
        cursor = stop + int(rng.uniform(*gap_seconds) * fs)
    return x, active


def frame_coverage(active: np.ndarray, cfg: StftConfig, num_frames: int) -> np.ndarray:
    """Fraction of each analysis frame covered by ``active`` samples."""
    coverage = np.empty(num_frames)
    for l in range(num_frames):
        start = l * cfg.hop
        coverage[l] = float(np.mean(active[start : start + cfg.frame_len]))
    return coverage


def _dilate_right(active: np.ndarray, num_samples_right: int) -> np.ndarray:
    """Extend every active run to the right (reverberant hangover)."""
    if num_samples_right <= 0:
        return active
    cumulative = np.cumsum(active.astype(np.int64))
    padded = np.concatenate([np.zeros(num_samples_right, dtype=np.int64), cumulative])
    recent = cumulative - padded[: active.shape[0]]
    return recent > 0


def _seeded_mix(
    seed: int,
    make_target: Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]],
    t60: float,
    spec: MixSpec,
    fs: int,
) -> tuple[RoomScene, dict[str, np.ndarray], MixResult, np.ndarray]:
    """Scene, stems and mix shared by both setups.

    The seed spawns three streams: scene geometry, stems and sensor noise.
    ``make_target(stem_rng, num_samples)`` returns ``(target, active)`` and
    draws from the stem stream before the stationary interferer does.
    Returns ``(scene, stems, mix, active)``.
    """
    geo_seed, stem_seed, noise_seed = np.random.SeedSequence(seed).spawn(3)
    scene = sample_scene(np.random.default_rng(geo_seed), t60=t60)
    num_samples = int(spec.clip_seconds * fs)
    stem_rng = np.random.default_rng(stem_seed)
    target, active = make_target(stem_rng, num_samples)
    stems = {
        "target": target,
        "non_target": np.zeros(num_samples),
        "interferer": stationary_noise(stem_rng, num_samples),
    }
    mix = mix_scene(
        scene, stems, spec, noise_seed=int(noise_seed.generate_state(1)[0]), fs=fs
    )
    return scene, stems, mix, active


@dataclasses.dataclass
class SiftingScenario:
    """Stationary interferer plus intermittent target.

    ``target_active`` marks frames mostly covered by target bursts;
    ``interferer_only`` marks frames with no target energy, direct or
    reverberant (burst supports are dilated by one reverberation time
    before labeling).  Warm-up frames are excluded from both."""

    mixture: MultichannelAudio
    scene: RoomScene
    mix: MixResult
    target_active: np.ndarray
    interferer_only: np.ndarray
    stems: dict[str, np.ndarray]


def build_sifting_scenario(
    seed: int,
    *,
    t60: float = 0.3,
    sir_db: float = 0.0,
    snr_db: float = 30.0,
    clip_seconds: float = 8.0,
    stft_cfg: StftConfig = StftConfig(),
    coherence_cfg: CoherenceConfig | None = None,
    fs: int = 16000,
) -> SiftingScenario:
    """Seeded scene for the interferer-sifting check."""
    scene, stems, mix, active = _seeded_mix(
        seed,
        lambda rng, num_samples: intermittent_speech(rng, num_samples, fs),
        t60,
        MixSpec(sir_db=sir_db, snr_db=snr_db, clip_seconds=clip_seconds),
        fs,
    )
    num_frames = stft_cfg.num_frames(active.shape[0])
    cover = frame_coverage(active, stft_cfg, num_frames)
    smeared = _dilate_right(active, int(t60 * fs))
    smeared_cover = frame_coverage(smeared, stft_cfg, num_frames)
    target_active = cover > 0.5
    interferer_only = smeared_cover == 0.0

    warmup = (coherence_cfg or CoherenceConfig()).warmup_frames
    target_active[:warmup] = False
    interferer_only[:warmup] = False
    return SiftingScenario(
        mixture=mix.mixture,
        scene=scene,
        mix=mix,
        target_active=target_active,
        interferer_only=interferer_only,
        stems=stems,
    )


@dataclasses.dataclass
class MisconvergenceScenario:
    """Stationary interferer plus one long continuous target utterance."""

    mixture: MultichannelAudio
    scene: RoomScene
    mix: MixResult
    target_active: np.ndarray
    stems: dict[str, np.ndarray]


def build_misconvergence_scenario(
    seed: int,
    *,
    t60: float = 0.3,
    sir_db: float = 0.0,
    snr_db: float = 30.0,
    clip_seconds: float = 8.0,
    utterance: tuple[float, float] = (2.0, 7.0),
    stft_cfg: StftConfig = StftConfig(),
    coherence_cfg: CoherenceConfig | None = None,
    fs: int = 16000,
) -> MisconvergenceScenario:
    """Seeded scene for the fixed-vs-adaptive forgetting-factor A/B."""

    def utterance_target(rng, num_samples):
        start = int(utterance[0] * fs)
        stop = min(int(utterance[1] * fs), num_samples)
        target = np.zeros(num_samples)
        target[start:stop] = speech_like(rng, stop - start, fs, envelope_floor=0.35)
        active = np.zeros(num_samples, dtype=bool)
        active[start:stop] = True
        return target, active

    scene, stems, mix, active = _seeded_mix(
        seed,
        utterance_target,
        t60,
        MixSpec(sir_db=sir_db, snr_db=snr_db, clip_seconds=clip_seconds),
        fs,
    )
    num_frames = stft_cfg.num_frames(active.shape[0])
    cover = frame_coverage(active, stft_cfg, num_frames)
    target_active = cover > 0.9
    warmup = (coherence_cfg or CoherenceConfig()).warmup_frames
    target_active[:warmup] = False
    return MisconvergenceScenario(
        mixture=mix.mixture,
        scene=scene,
        mix=mix,
        target_active=target_active,
        stems=stems,
    )


def mean_global_warped(features: LstscFeatures, frame_mask: np.ndarray) -> float:
    """Mean warped global coherence over the selected frames (all bins).

    Variants without built-in warping are warped here post hoc so that
    readings are comparable across variants.
    """
    if features.gamma_global_warped is not None:
        plane = features.gamma_global_warped
    else:
        plane = arcsine_warp(features.gamma_global)
    if not np.any(frame_mask):
        raise ValueError("no frames selected")
    return float(plane[frame_mask].mean())
