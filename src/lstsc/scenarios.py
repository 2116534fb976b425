"""Reusable synthetic test scenarios: stem generators and their named
kinds, the one seeded scene renderer behind ``lstsc simulate``, frame
labeling, and the two behavioral setups used by the validation suite and
the experiment scripts (interferer sifting, tracker mis-convergence A/B).

Stems are deliberately simple: amplitude-modulated filtered noise stands
in for speech (directional and non-stationary), and fixed-filter noise
stands in for a point interferer (directional and stationary).  What the
coherence features measure is spatial structure, not phonetic content.
"""
from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from .coherence import CoherenceConfig, LstscFeatures, arcsine_warp
from .roomsim import (
    ROLE_ORDER,
    ArrayGeometry,
    MixResult,
    MixSpec,
    RoomScene,
    SceneConstraints,
    mix_scene,
    sample_scene,
)
from .signal_core import SAMPLE_RATE, MultichannelAudio, StftConfig

__all__ = [
    "speech_like",
    "stationary_noise",
    "intermittent_speech",
    "frame_coverage",
    "STEM_KINDS",
    "DEFAULT_STEM_KINDS",
    "Scenario",
    "render_scene",
    "build_sifting_scenario",
    "build_misconvergence_scenario",
    "mean_global_warped",
]


# The blocked first-order recursion runs blocks of at least _IIR_BLOCK
# samples side by side, at most _IIR_MAX_LANES of them (the block doubles
# until they fit, which keeps the work array in cache), each from zero
# _IIR_WARM samples early.  Below _IIR_MIN_SAMPLES the sequential loop is
# faster: they cross near 2**15 samples (about 4 ms each, on 2 vCPUs).
_IIR_BLOCK = 256
_IIR_MAX_LANES = 512
_IIR_WARM = 1024
_IIR_MIN_SAMPLES = 1 << 15


def _iir_sequential(x: np.ndarray, k: float) -> np.ndarray:
    """``y[n] = x[n] + k * y[n - 1]`` from ``y[-1] = 0``, one sample at a time."""
    out = []
    y = 0.0
    for value in x.tolist():
        y = value + k * y
        out.append(y)
    return np.array(out, dtype=np.float64)


def _first_order_iir(x: np.ndarray, k: float) -> np.ndarray:
    """``y[n] = x[n] + k * y[n - 1]`` from ``y[-1] = 0``, with the bytes of
    scipy's ``lfilter([1.0], [1.0, -k], x)``: each step rounds ``k * y``
    and then the sum.

    The blocks run side by side as the columns of one array, each started
    from zero ``_IIR_WARM`` samples early (the first on zeros before the
    input, so it is sequential from the start).  Where a block's value at
    the sample before its start equals, bit for bit, its predecessor's
    value there, the two chains have merged and every value of the block
    is the sequential one.  If any block has not merged (``k`` near 1
    forgets too slowly), the sequential loop computes the whole input.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n < _IIR_MIN_SAMPLES:
        return _iir_sequential(x, k)
    block = _IIR_BLOCK
    while block * _IIR_MAX_LANES < n:
        block *= 2
    lanes = -(-n // block)
    padded = np.zeros(_IIR_WARM + lanes * block)
    padded[_IIR_WARM : _IIR_WARM + n] = x
    windows = np.lib.stride_tricks.sliding_window_view(padded, _IIR_WARM + block)
    # (warm + block, lanes): row t holds every lane's sample t
    y = np.ascontiguousarray(windows[::block].T)
    step = np.empty(lanes)
    for t in range(1, y.shape[0]):
        np.multiply(y[t - 1], k, out=step)
        y[t] += step
    bits = y.view(np.int64)
    if not np.array_equal(bits[_IIR_WARM - 1, 1:], bits[-1, :-1]):
        return _iir_sequential(x, k)
    return y[_IIR_WARM:].T.reshape(-1)[:n]


def _syllabic_envelope(rng: np.random.Generator, num_samples: int, floor: float) -> np.ndarray:
    """Piecewise-smooth random envelope with ~8 Hz structure."""
    knot_step = int(0.12 * SAMPLE_RATE)
    num_knots = max(2, num_samples // knot_step + 2)
    knots = np.arange(num_knots) * knot_step
    values = rng.uniform(0.0, 1.0, num_knots) ** 2
    envelope = np.interp(np.arange(num_samples), knots, values)
    return floor + (1.0 - floor) * envelope


def speech_like(
    rng: np.random.Generator,
    num_samples: int,
    *,
    envelope_floor: float = 0.0,
    rms: float = 0.05,
) -> np.ndarray:
    """Speech-shaped stand-in: tilted noise under a syllabic envelope.

    ``envelope_floor > 0`` keeps the source continuously active (no full
    silences), which models a single uninterrupted utterance.
    """
    carrier = _first_order_iir(rng.standard_normal(num_samples), 0.9)
    envelope = _syllabic_envelope(rng, num_samples, envelope_floor)
    x = carrier * envelope
    scale = np.sqrt(np.mean(x**2))
    return x * (rms / scale) if scale > 0 else x


def stationary_noise(
    rng: np.random.Generator, num_samples: int, *, rms: float = 0.05
) -> np.ndarray:
    """Spatially fixed, temporally stationary broadband source."""
    x = _first_order_iir(rng.standard_normal(num_samples), 0.5)
    return x * (rms / np.sqrt(np.mean(x**2)))


def intermittent_speech(
    rng: np.random.Generator, num_samples: int, *, rms: float = 0.05
) -> tuple[np.ndarray, np.ndarray]:
    """Bursty source: after a 1.5 s silent lead-in, speech-like bursts of
    0.4-0.9 s separated by silences of 0.5-1.2 s (drawn uniformly).

    Returns ``(samples, active)`` where ``active`` marks the burst
    supports (including the 10 ms fade edges).
    """
    x = np.zeros(num_samples)
    active = np.zeros(num_samples, dtype=bool)
    ramp = int(0.01 * SAMPLE_RATE)
    cursor = int(1.5 * SAMPLE_RATE)
    while cursor < num_samples:
        burst_len = int(rng.uniform(0.4, 0.9) * SAMPLE_RATE)
        stop = min(cursor + burst_len, num_samples)
        segment = speech_like(rng, stop - cursor, envelope_floor=0.3, rms=rms)
        fade = np.ones(stop - cursor)
        edge = min(ramp, len(fade) // 2)
        if edge > 0:
            shape = 0.5 - 0.5 * np.cos(np.linspace(0, np.pi, edge))
            fade[:edge] = shape
            fade[-edge:] = shape[::-1]
        x[cursor:stop] = segment * fade
        active[cursor:stop] = True
        cursor = stop + int(rng.uniform(0.5, 1.2) * SAMPLE_RATE)
    return x, active


def frame_coverage(active: np.ndarray, cfg: StftConfig, num_frames: int) -> np.ndarray:
    """Fraction of each analysis frame covered by ``active`` samples."""
    counts = np.concatenate(([0], np.cumsum(active, dtype=np.int64)))
    start = np.minimum(np.arange(num_frames) * cfg.hop, active.shape[0])
    stop = np.minimum(start + cfg.frame_len, active.shape[0])
    return (counts[stop] - counts[start]) / (stop - start)


def _dilate_right(active: np.ndarray, num_samples_right: int) -> np.ndarray:
    """Extend every active run to the right (reverberant hangover)."""
    if num_samples_right <= 0:
        return active
    cumulative = np.cumsum(active.astype(np.int64))
    padded = np.concatenate([np.zeros(num_samples_right, dtype=np.int64), cumulative])
    recent = cumulative - padded[: active.shape[0]]
    return recent > 0


def _silence(rng, num_samples, rms=0.0):
    """The silent stem; it draws nothing from ``rng``."""
    return np.zeros(num_samples), np.zeros(num_samples, dtype=bool)


# The named stem kinds of ``lstsc simulate`` configs, as stem makers (see
# ``render_scene``) whose level ``rms`` defaults to the generator's.  They
# call the generators by module name, so a rebound generator (a tracer's
# timing wrapper) is the one that runs.
STEM_KINDS: dict[str, Callable[..., tuple[np.ndarray, np.ndarray]]] = {
    "intermittent": lambda rng, n, **level: intermittent_speech(rng, n, **level),
    "speech_like": lambda rng, n, **level: (
        speech_like(rng, n, envelope_floor=0.35, **level), np.ones(n, dtype=bool)
    ),
    "stationary_noise": lambda rng, n, **level: (
        stationary_noise(rng, n, **level), np.ones(n, dtype=bool)
    ),
    "silence": _silence,
}

# Each role's stem kind in the sifting scene, the scene of a ``lstsc
# simulate`` config that names no kind.
DEFAULT_STEM_KINDS = {
    "target": "intermittent", "non_target": "silence", "interferer": "stationary_noise"
}


@dataclasses.dataclass
class Scenario:
    """A rendered scene: geometry, dry stems, the mix and each stem's
    sample activity, plus the builders' frame labels (warm-up frames
    excluded): ``target_active`` marks frames mostly covered by target
    activity, ``interferer_only`` (sifting only) frames with no target
    energy, direct or within one reverberation time after."""

    scene: RoomScene
    stems: dict[str, np.ndarray]
    mix: MixResult
    active: dict[str, np.ndarray]
    target_active: np.ndarray | None = None
    interferer_only: np.ndarray | None = None

    @property
    def mixture(self) -> MultichannelAudio:
        return self.mix.mixture


def render_scene(
    seed: int,
    makers: dict[str, Callable[..., tuple[np.ndarray, np.ndarray]]],
    *,
    t60: float = 0.3,
    spec: MixSpec = MixSpec(),
    array: ArrayGeometry | None = None,
    constraints: SceneConstraints = SceneConstraints(),
) -> Scenario:
    """The one seeded scene recipe, shared by ``lstsc simulate`` and the
    scenario builders.

    The seed spawns three streams: scene geometry, stems and sensor noise.
    Stems are drawn from the stem stream in ``ROLE_ORDER``, each
    ``spec.num_samples`` long at ``SAMPLE_RATE``, by stem makers
    ``(rng, num_samples, **level)`` called as ``makers[role](rng,
    num_samples)`` (bind a level such as ``rms`` beforehand).  A maker
    returns ``(samples, active)`` with ``active`` marking where the source
    sounds; a role without a maker is silent and draws nothing.
    ``array`` defaults to the 4-mic ULA.
    """
    if not set(makers) <= set(ROLE_ORDER):
        raise ValueError(f"stem roles {sorted(makers)} are not all in {ROLE_ORDER}")
    geo_seed, stem_seed, noise_seed = np.random.SeedSequence(seed).spawn(3)
    scene = sample_scene(
        np.random.default_rng(geo_seed), array=array, t60=t60, constraints=constraints
    )
    num_samples = spec.num_samples
    stem_rng = np.random.default_rng(stem_seed)
    stems, active = {}, {}
    for role in ROLE_ORDER:
        stems[role], active[role] = makers.get(role, _silence)(stem_rng, num_samples)
    mix = mix_scene(scene, stems, spec, noise_seed=int(noise_seed.generate_state(1)[0]))
    return Scenario(scene=scene, stems=stems, mix=mix, active=active)


def build_sifting_scenario(
    seed: int,
    *,
    t60: float = 0.3,
    sir_db: float = 0.0,
    snr_db: float = 30.0,
    clip_seconds: float = 8.0,
) -> Scenario:
    """Stationary interferer plus intermittent target: the default
    ``lstsc simulate`` scene, labeled for the interferer-sifting check on
    the default ``StftConfig`` frames past ``CoherenceConfig()``'s warm-up."""
    out = render_scene(
        seed,
        {role: STEM_KINDS[kind] for role, kind in DEFAULT_STEM_KINDS.items()},
        t60=t60,
        spec=MixSpec(sir_db=sir_db, snr_db=snr_db, clip_seconds=clip_seconds),
    )
    active = out.active["target"]
    smeared = _dilate_right(active, int(t60 * out.mixture.sample_rate))
    stft_cfg = StftConfig()
    num_frames = stft_cfg.num_frames(active.shape[0])
    out.target_active = frame_coverage(active, stft_cfg, num_frames) > 0.5
    out.interferer_only = frame_coverage(smeared, stft_cfg, num_frames) == 0.0
    warmup = CoherenceConfig().warmup_frames
    out.target_active[:warmup] = out.interferer_only[:warmup] = False
    return out


def build_misconvergence_scenario(
    seed: int,
    *,
    t60: float = 0.3,
    sir_db: float = 0.0,
    snr_db: float = 30.0,
    clip_seconds: float = 8.0,
    utterance: tuple[float, float] = (2.0, 7.0),
) -> Scenario:
    """Stationary interferer plus one long continuous target utterance,
    labeled for the fixed-vs-adaptive forgetting-factor A/B."""

    def utterance_target(rng, num_samples):
        active = np.zeros(num_samples, dtype=bool)
        active[int(utterance[0] * SAMPLE_RATE) : int(utterance[1] * SAMPLE_RATE)] = True
        target = np.zeros(num_samples)
        target[active] = speech_like(rng, np.count_nonzero(active), envelope_floor=0.35)
        return target, active

    out = render_scene(
        seed,
        {"target": utterance_target, "interferer": STEM_KINDS["stationary_noise"]},
        t60=t60,
        spec=MixSpec(sir_db=sir_db, snr_db=snr_db, clip_seconds=clip_seconds),
    )
    active = out.active["target"]
    stft_cfg = StftConfig()
    num_frames = stft_cfg.num_frames(active.shape[0])
    out.target_active = frame_coverage(active, stft_cfg, num_frames) > 0.9
    out.target_active[: CoherenceConfig().warmup_frames] = False
    return out


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
