"""Synthetic acoustic scenes: shoebox image-source RIRs, protocol-driven
scene sampling, and calibrated mixing at requested SIR/SNR.

The image-source simulator mirrors the source across all six walls of a
rectangular room; an image indexed by integer triple ``n`` and parity
triple ``p`` sits at ``(1 - 2p) * src + 2 n * dims`` and has reflected
``|n - p| + |n|`` times per axis.  Uniform wall absorption is derived
from the requested reverberation time by closed-form inversion followed
by a short fixed-point calibration against the Schroeder measurement of
a probe response — the energy decay of a shoebox image model is slower
than the diffuse-field closed forms predict, by a room-shape-dependent
factor, so the closed forms alone miss the request by far more than the
simulator's own measurement noise.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import math

import numpy as np
from scipy.signal import fftconvolve

from .signal_core import MultichannelAudio

__all__ = [
    "SPEED_OF_SOUND",
    "ArrayGeometry",
    "Source",
    "RoomScene",
    "Rir",
    "MixSpec",
    "MixResult",
    "SceneConstraints",
    "simulate_rir",
    "simulate_rirs",
    "measure_t60",
    "sample_scene",
    "mix_scene",
]

SPEED_OF_SOUND = 343.0  # m/s

ROLE_ORDER = ("target", "non_target", "interferer")


@dataclasses.dataclass(frozen=True)
class ArrayGeometry:
    """Microphone positions relative to the array center (meters)."""

    positions: np.ndarray

    def __post_init__(self) -> None:
        pos = np.atleast_2d(np.asarray(self.positions, dtype=np.float64))
        object.__setattr__(self, "positions", pos)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must be (M, 3)")
        if pos.shape[0] < 1:
            raise ValueError("array needs at least one microphone")
        diffs = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
        if np.any(diffs[np.triu_indices(pos.shape[0], k=1)] < 1e-9):
            raise ValueError("microphone positions must be distinct")

    @property
    def num_mics(self) -> int:
        return self.positions.shape[0]

    def placed(self, center) -> np.ndarray:
        """Absolute mic positions for an array centered at ``center``."""
        return self.positions + np.asarray(center, dtype=np.float64)

    @classmethod
    def ula(cls, num_mics: int = 4, spacing: float = 0.08) -> "ArrayGeometry":
        """Uniform linear array along the x axis, centered at the origin."""
        offsets = (np.arange(num_mics) - (num_mics - 1) / 2.0) * spacing
        positions = np.zeros((num_mics, 3))
        positions[:, 0] = offsets
        return cls(positions)

    @classmethod
    def circular(cls, num_mics: int = 7, diameter: float = 0.08) -> "ArrayGeometry":
        """Uniform circular array in the horizontal plane."""
        angles = 2.0 * np.pi * np.arange(num_mics) / num_mics
        positions = np.zeros((num_mics, 3))
        positions[:, 0] = 0.5 * diameter * np.cos(angles)
        positions[:, 1] = 0.5 * diameter * np.sin(angles)
        return cls(positions)


@dataclasses.dataclass(frozen=True)
class Source:
    position: np.ndarray
    role: str

    def __post_init__(self) -> None:
        pos = np.asarray(self.position, dtype=np.float64)
        object.__setattr__(self, "position", pos)
        if pos.shape != (3,):
            raise ValueError("source position must be a 3-vector")
        if self.role not in ROLE_ORDER:
            raise ValueError(f"unknown source role {self.role!r}")


def _inside(point: np.ndarray, dims: np.ndarray, margin: float = 0.0) -> bool:
    return bool(np.all(point > margin) and np.all(point < dims - margin))


@dataclasses.dataclass
class RoomScene:
    """A sampled acoustic scene: box room, reverberation, mics, sources.

    Geometric protocol invariants are validated at construction: sources
    sit in the ring ``range_bounds`` around the array center, pairwise at
    least ``min_angle_deg`` apart as seen from the center, with the
    target no farther than any other source.
    """

    room_dims: np.ndarray
    t60: float
    mic_positions: np.ndarray
    sources: list[Source]
    range_bounds: tuple[float, float] = (0.7, 2.0)
    min_angle_deg: float = 15.0

    def __post_init__(self) -> None:
        self.room_dims = np.asarray(self.room_dims, dtype=np.float64)
        self.mic_positions = np.atleast_2d(
            np.asarray(self.mic_positions, dtype=np.float64)
        )
        if self.room_dims.shape != (3,) or np.any(self.room_dims <= 0):
            raise ValueError("room_dims must be three positive lengths")
        if self.t60 <= 0:
            raise ValueError("t60 must be positive")
        if self.mic_positions.shape[1] != 3:
            raise ValueError("mic_positions must be (M, 3)")
        for mic in self.mic_positions:
            if not _inside(mic, self.room_dims):
                raise ValueError(f"microphone {mic} outside room {self.room_dims}")
        if not self.sources:
            raise ValueError("scene needs at least one source")

        center = self.array_center
        ranges = {}
        directions = []
        for src in self.sources:
            if not _inside(src.position, self.room_dims):
                raise ValueError(f"source {src.position} outside room")
            offset = src.position - center
            rng = float(np.linalg.norm(offset))
            lo, hi = self.range_bounds
            if not (lo <= rng <= hi):
                raise ValueError(
                    f"source range {rng:.3f} m outside [{lo}, {hi}] m"
                )
            ranges.setdefault(src.role, []).append(rng)
            directions.append(offset / rng)

        min_angle = math.radians(self.min_angle_deg)
        for i in range(len(directions)):
            for j in range(i + 1, len(directions)):
                cosine = float(np.clip(np.dot(directions[i], directions[j]), -1, 1))
                if math.acos(cosine) < min_angle - 1e-9:
                    raise ValueError(
                        "sources closer than the minimum angular separation"
                    )

        if "target" in ranges:
            target_range = min(ranges["target"])
            others = [
                r for role, rs in ranges.items() if role != "target" for r in rs
            ]
            if others and target_range > min(others) + 1e-9:
                raise ValueError("target must be at least as close as other sources")

    @property
    def array_center(self) -> np.ndarray:
        return self.mic_positions.mean(axis=0)

    @property
    def num_mics(self) -> int:
        return self.mic_positions.shape[0]


@dataclasses.dataclass(frozen=True)
class Rir:
    """A sampled room impulse response plus its source-mic distance."""

    sample_rate: int
    taps: np.ndarray
    source_distance: float


@dataclasses.dataclass(frozen=True)
class MixSpec:
    """Mixing levels; values must come from the declared grids unless
    ``allow_off_grid`` is set."""

    sir_db: float = 0.0
    snr_db: float = 30.0
    clip_seconds: float = 8.0
    allow_off_grid: bool = False

    SIR_GRID = (0.0, 5.0, 10.0, 15.0)
    SNR_GRID = (20.0, 25.0, 30.0)

    def __post_init__(self) -> None:
        if self.clip_seconds <= 0:
            raise ValueError("clip_seconds must be positive")
        if not self.allow_off_grid:
            if not any(math.isclose(self.sir_db, v) for v in self.SIR_GRID):
                raise ValueError(
                    f"sir_db {self.sir_db} not in grid {self.SIR_GRID}; "
                    "set allow_off_grid to override"
                )
            if not any(math.isclose(self.snr_db, v) for v in self.SNR_GRID):
                raise ValueError(
                    f"snr_db {self.snr_db} not in grid {self.SNR_GRID}; "
                    "set allow_off_grid to override"
                )

    def num_samples(self, fs: int) -> int:
        """Clip length in samples: the length of every image and of the
        mixture, and the least length of a stem."""
        return int(round(self.clip_seconds * fs))


def _eyring_absorption(room_dims: np.ndarray, t60: float) -> float:
    volume = float(np.prod(room_dims))
    w, d, h = room_dims
    surface = 2.0 * (w * d + w * h + d * h)
    return 1.0 - math.exp(-0.161 * volume / (surface * t60))


def _image_source_taps(
    room_dims: np.ndarray,
    src: np.ndarray,
    mics: np.ndarray,
    fs: int,
    beta: float,
    durations: list[float],
) -> list[np.ndarray]:
    """Tap vectors of one source at each microphone, one duration per mic.

    The enumeration is separable: along each axis an image of order ``n``
    and parity ``p`` has coordinate ``(1 - 2p) * s + 2 n L`` and
    ``|n - p| + |n|`` reflections, so coordinates, reflection counts and
    ``beta**k`` are built once per source on the grid the longest
    duration needs.  Each microphone broadcasts its squared per-axis
    offsets over the sub-grid of its own duration, which visits the same
    images in the same order as a per-pair enumeration, so the taps are
    bit-identical to it.
    """
    num_taps = [int(round(duration * fs)) for duration in durations]
    counts = [
        np.ceil(duration * SPEED_OF_SOUND / (2.0 * room_dims)).astype(int)
        for duration in durations
    ]
    top = np.max(counts, axis=0)
    orders = [np.arange(-c, c + 1) for c in top]
    # an axis of order range [-c, c] contributes at most 2c + 1 reflections
    gains = beta ** np.arange(2 * int(top.sum()) + 4)

    taps = [np.zeros(n) for n in num_taps]
    for parity in itertools.product((0, 1), repeat=3):
        coords = [
            (1 - 2 * p) * s + 2.0 * n * length
            for p, s, n, length in zip(parity, src, orders, room_dims)
        ]
        rx, ry, rz = (np.abs(n - p) + np.abs(n) for p, n in zip(parity, orders))
        weights = gains[(rx[:, None, None] + ry[None, :, None]) + rz]
        for mic, count, size, out in zip(mics, counts, num_taps, taps):
            window = tuple(slice(t - c, t + c + 1) for t, c in zip(top, count))
            dx, dy, dz = (
                (coord[w] - m) ** 2 for coord, w, m in zip(coords, window, mic)
            )
            dist = np.sqrt((dx[:, None, None] + dy[None, :, None]) + dz)
            delay = np.round(dist / SPEED_OF_SOUND * fs)
            keep = delay < size
            dist = dist[keep]
            amplitude = weights[window][keep] / (
                4.0 * np.pi * np.maximum(dist, 1e-9)
            )
            out += np.bincount(
                delay[keep].astype(int), weights=amplitude, minlength=size
            )
    return taps


def _calibration_probe(room_dims: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    src = room_dims * np.array([0.35, 0.30, 0.45])
    mic = room_dims * np.array([0.55, 0.65, 0.40])
    return src, mic


def _calibrated_beta(room_dims: np.ndarray, t60: float, fs: int) -> float:
    """Reflection coefficient whose simulated decay measures ``t60``.

    Calibrates on (room, t60) rounded to 1e-9, so nearby requests share
    one cached result whichever of them came first."""
    return _calibrate(tuple(np.round(room_dims, 9)), round(float(t60), 9), int(fs))


@functools.lru_cache(maxsize=32)
def _calibrate(dims: tuple, t60: float, fs: int) -> float:
    """Seed ``beta`` with the Eyring inversion, then iterate the effective
    target: each round simulates a probe response, measures its Schroeder
    decay time, and rescales the target until the measurement lands
    within a few percent."""
    room_dims = np.array(dims)
    src, mic = _calibration_probe(room_dims)
    dist = float(np.linalg.norm(src - mic))
    t_eff = t60
    beta = math.sqrt(1.0 - min(_eyring_absorption(room_dims, t_eff), 0.9999))
    for _ in range(6):
        absorption = min(_eyring_absorption(room_dims, t_eff), 0.9999)
        beta = math.sqrt(1.0 - absorption)
        duration = dist / SPEED_OF_SOUND + 2.2 * max(t60, t_eff) + 0.05
        (probe,) = _image_source_taps(room_dims, src, mic[None], fs, beta, [duration])
        measured = measure_t60(Rir(fs, probe, dist))
        error = abs(measured - t60) / t60
        if error < 0.04:
            break
        # measured decay is monotone in the effective target; rescale
        t_eff *= float(np.clip(t60 / measured, 0.4, 2.5))
    return beta


def simulate_rirs(
    room_dims,
    t60: float | None,
    src,
    mics,
    fs: int = 16000,
    *,
    absorption: float | None = None,
    duration: float | None = None,
) -> list[Rir]:
    """Image-source RIRs from one source to each of the (M, 3) ``mics``.

    By default the uniform wall absorption is calibrated so the Schroeder
    measurement of the output matches ``t60``; pass ``absorption``
    explicitly to bypass calibration (1.0 gives the anechoic direct path
    only).  The direct tap lands at ``round(dist / c * fs)`` samples with
    ``1 / (4 pi dist)`` amplitude; the default duration, set per
    microphone, keeps every image whose decay is within roughly 72 dB of
    the direct path, so the truncated tail sits far below the -60 dB
    point.  Each response equals ``simulate_rir`` for its pair bit for
    bit; the images are enumerated once for all microphones.
    """
    room_dims = np.asarray(room_dims, dtype=np.float64)
    src = np.asarray(src, dtype=np.float64)
    mics = np.asarray(mics, dtype=np.float64)
    if room_dims.shape != (3,) or np.any(room_dims <= 0):
        raise ValueError("room_dims must be three positive lengths")
    if not _inside(src, room_dims):
        raise ValueError(f"source {src} outside room {room_dims}")
    if mics.ndim != 2 or mics.shape[0] < 1 or mics.shape[1] != 3:
        raise ValueError("microphone positions must be a non-empty (M, 3) array")
    dists = []
    for mic in mics:
        if not _inside(mic, room_dims):
            raise ValueError(f"microphone {mic} outside room {room_dims}")
        dist = float(np.linalg.norm(src - mic))
        if dist < 1e-6:
            raise ValueError("source and microphone are coincident")
        dists.append(dist)
    if fs <= 0:
        raise ValueError("sample rate must be positive")

    if absorption is not None:
        if not (0.0 < absorption <= 1.0):
            raise ValueError("absorption must lie in (0, 1]")
        beta = math.sqrt(1.0 - absorption)
    else:
        if t60 is None or t60 <= 0:
            raise ValueError("t60 must be positive (or pass absorption explicitly)")
        beta = _calibrated_beta(room_dims, t60, fs)

    if duration is None:
        tail = 1.2 * t60 if t60 else 0.05
        durations = [dist / SPEED_OF_SOUND + tail + 0.01 for dist in dists]
    else:
        durations = [duration] * len(dists)
    taps = _image_source_taps(room_dims, src, mics, fs, beta, durations)
    return [
        Rir(sample_rate=int(fs), taps=t, source_distance=dist)
        for t, dist in zip(taps, dists)
    ]


def simulate_rir(
    room_dims,
    t60: float | None,
    src,
    mic,
    fs: int = 16000,
    *,
    absorption: float | None = None,
    duration: float | None = None,
) -> Rir:
    """Image-source RIR for one source/microphone pair: the
    one-microphone case of ``simulate_rirs``."""
    (rir,) = simulate_rirs(
        room_dims, t60, src, [mic], fs, absorption=absorption, duration=duration
    )
    return rir


def measure_t60(rir: Rir) -> float:
    """Reverberation time via Schroeder backward integration.

    Fits a line to the -5 .. -35 dB stretch of the energy-decay curve and
    extrapolates the slope to 60 dB.  Raises when the response never
    decays through -35 dB ("decay range not reached").
    """
    taps = np.asarray(rir.taps, dtype=np.float64)
    if taps.size == 0:
        raise ValueError("empty impulse response")
    energy = taps**2
    total = energy.sum()
    if total <= 0.0:
        raise ValueError("decay range not reached (silent impulse response)")
    edc = np.cumsum(energy[::-1])[::-1]
    with np.errstate(divide="ignore"):
        edc_db = 10.0 * np.log10(edc / edc[0])
    below5 = np.nonzero(edc_db <= -5.0)[0]
    below35 = np.nonzero(edc_db <= -35.0)[0]
    if below5.size == 0 or below35.size == 0:
        raise ValueError("decay range not reached")
    start, stop = below5[0], below35[0]
    if stop - start < 2:
        raise ValueError("decay range not reached")
    t = np.arange(start, stop + 1) / rir.sample_rate
    y = edc_db[start : stop + 1]
    design = np.vstack([t, np.ones_like(t)]).T
    slope, _ = np.linalg.lstsq(design, y, rcond=None)[0]
    if slope >= 0.0:
        raise ValueError("decay range not reached (non-decaying response)")
    return -60.0 / slope


@dataclasses.dataclass(frozen=True)
class SceneConstraints:
    """Protocol defaults for scene sampling.

    Sources are drawn in the frontal half-plane ring sector around the
    array center at array height; azimuth is measured in the horizontal
    plane with the array facing +y.
    """

    room_dims: tuple[float, float, float] = (6.0, 5.0, 3.0)
    array_center: tuple[float, float, float] = (3.0, 1.5, 1.2)
    range_bounds: tuple[float, float] = (0.7, 2.0)
    min_angle_deg: float = 15.0
    azimuth_deg: tuple[float, float] = (0.0, 180.0)
    wall_margin: float = 0.05
    max_attempts: int = 1000


def sample_scene(
    seed,
    array: ArrayGeometry | None = None,
    t60: float = 0.3,
    constraints: SceneConstraints = SceneConstraints(),
) -> RoomScene:
    """Rejection-sample a scene satisfying every protocol invariant.

    Deterministic for a fixed seed.  One source per role is placed; the
    closest draw becomes the target, the remaining roles are shuffled.
    Raises after ``constraints.max_attempts`` rejections.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if array is None:
        array = ArrayGeometry.ula()
    dims = np.asarray(constraints.room_dims, dtype=np.float64)
    center = np.asarray(constraints.array_center, dtype=np.float64)
    mics = array.placed(center)
    for mic in mics:
        if not _inside(mic, dims, constraints.wall_margin):
            raise ValueError("array does not fit inside the room")

    num_sources = len(ROLE_ORDER)
    lo, hi = constraints.range_bounds
    az_lo, az_hi = np.radians(constraints.azimuth_deg)
    min_angle = np.radians(constraints.min_angle_deg)

    for _ in range(constraints.max_attempts):
        radii = rng.uniform(lo, hi, num_sources)
        azimuths = rng.uniform(az_lo, az_hi, num_sources)
        offsets = np.stack(
            [radii * np.cos(azimuths), radii * np.sin(azimuths), np.zeros(num_sources)],
            axis=1,
        )
        positions = center + offsets
        if not all(_inside(p, dims, constraints.wall_margin) for p in positions):
            continue
        directions = offsets / radii[:, None]
        cosines = directions @ directions.T
        angles = np.arccos(np.clip(cosines, -1.0, 1.0))
        pair = angles[np.triu_indices(num_sources, k=1)]
        if pair.size and pair.min() < min_angle:
            continue
        order = [int(np.argmin(radii))]
        rest = [i for i in range(num_sources) if i != order[0]]
        order += list(rng.permutation(rest))
        sources = [
            Source(position=positions[idx], role=role)
            for role, idx in zip(ROLE_ORDER, order)
        ]
        return RoomScene(
            room_dims=dims,
            t60=t60,
            mic_positions=mics,
            sources=sources,
            range_bounds=constraints.range_bounds,
            min_angle_deg=constraints.min_angle_deg,
        )
    raise RuntimeError(
        "rejection-sampling budget exhausted; constraints appear unsatisfiable"
    )


@dataclasses.dataclass
class MixResult:
    """Mixer output: the mixture, per-source images, and the noise term.

    The mixture equals the images summed in ``images`` iteration order
    plus ``noise``, computed in exactly that order, so re-summing the
    returned parts reproduces the mixture bit-for-bit.  ``rirs`` maps each
    role to its per-microphone responses; it is empty for a silent stem
    whose responses would have been simulated.
    """

    mixture: MultichannelAudio
    images: dict[str, MultichannelAudio]
    noise: MultichannelAudio
    gains: dict[str, float]
    realized_sir_db: float | None
    realized_snr_db: float
    rirs: dict[str, list[Rir]]
    noise_seed: int


def _image(stem: np.ndarray, rirs: list[Rir], length: int) -> np.ndarray:
    rows = [fftconvolve(stem, rir.taps)[:length] for rir in rirs]
    return np.stack(rows)


def mix_scene(
    scene: RoomScene,
    stems: dict[str, np.ndarray],
    spec: MixSpec = MixSpec(),
    external_rirs: dict[str, list[Rir]] | None = None,
    noise_seed: int = 0,
    fs: int = 16000,
) -> MixResult:
    """Render stems through the room and mix at the requested levels.

    Every source is convolved with its per-microphone RIR (simulated, or
    taken verbatim from ``external_rirs``).  An all-zero stem is neither
    simulated nor convolved: its image is zeros and, unless external RIRs
    were given, its ``rirs`` entry is empty.  The interferer image is
    scaled so the target-to-interferer power ratio at the reference
    microphone equals ``sir_db`` exactly as measured on the returned
    images; the non-target is scaled to equal power with the target; white
    sensor noise is normalized per channel so the reference-channel SNR
    against the summed directional signal is exact.  Silent stems (or a
    silent target) skip the affected gain calibrations with unit gain.
    """
    length = spec.num_samples(fs)
    roles = [src.role for src in scene.sources]
    for role in roles:
        if role not in stems:
            raise ValueError(f"missing stem for role {role!r}")

    trimmed: dict[str, np.ndarray] = {}
    for role in roles:
        stem = np.asarray(stems[role], dtype=np.float64)
        if stem.ndim != 1:
            raise ValueError(f"stem {role!r} must be mono")
        if stem.shape[0] < length:
            raise ValueError(
                f"stem {role!r} shorter than clip length "
                f"({stem.shape[0]} < {length})"
            )
        trimmed[role] = stem[:length]

    silent = {role: not trimmed[role].any() for role in roles}
    rirs: dict[str, list[Rir]] = {}
    for src in scene.sources:
        if external_rirs is not None:
            if src.role not in external_rirs:
                raise ValueError(f"missing external RIRs for role {src.role!r}")
            role_rirs = external_rirs[src.role]
            if len(role_rirs) != scene.num_mics:
                raise ValueError(
                    f"external RIR set for {src.role!r} has {len(role_rirs)} "
                    f"responses for {scene.num_mics} microphones"
                )
        elif silent[src.role]:
            role_rirs = []
        else:
            role_rirs = simulate_rirs(
                scene.room_dims, scene.t60, src.position, scene.mic_positions, fs
            )
        rirs[src.role] = role_rirs

    images = {
        role: np.zeros((scene.num_mics, length))
        if silent[role]
        else _image(trimmed[role], rirs[role], length)
        for role in roles
    }

    def ref_power(x: np.ndarray) -> float:
        return float(np.mean(x[0] ** 2))

    gains = {role: 1.0 for role in roles}
    target_power = ref_power(images["target"]) if "target" in images else 0.0
    if target_power > 0.0:
        # target-to-role power ratio: equal power, and the SIR
        ratios = {"non_target": 1.0, "interferer": 10.0 ** (spec.sir_db / 10.0)}
        for role, ratio in ratios.items():
            power = ref_power(images[role]) if role in images else 0.0
            if power > 0.0:
                gains[role] = math.sqrt(target_power / (power * ratio))

    for role in roles:
        if gains[role] != 1.0:
            images[role] = images[role] * gains[role]

    ordered = sorted(roles, key=ROLE_ORDER.index)
    directional = images[ordered[0]]
    for role in ordered[1:]:
        directional = directional + images[role]

    directional_power = ref_power(directional)
    rng = np.random.default_rng(noise_seed)
    noise = rng.standard_normal((scene.num_mics, length))
    if directional_power > 0.0:
        noise_power = directional_power / 10.0 ** (spec.snr_db / 10.0)
        for m in range(scene.num_mics):
            row_power = float(np.mean(noise[m] ** 2))
            noise[m] *= math.sqrt(noise_power / row_power)
    else:
        noise *= 0.0

    mixture = directional + noise

    interferer_power = (
        ref_power(images["interferer"]) if "interferer" in images else 0.0
    )
    realized_sir = None
    if target_power > 0.0 and interferer_power > 0.0:
        realized_sir = 10.0 * math.log10(target_power / interferer_power)
    noise_ref_power = float(np.mean(noise[0] ** 2))
    realized_snr = (
        10.0 * math.log10(directional_power / noise_ref_power)
        if noise_ref_power > 0.0
        else math.inf
    )

    return MixResult(
        mixture=MultichannelAudio(mixture, fs),
        images={role: MultichannelAudio(images[role], fs) for role in ordered},
        noise=MultichannelAudio(noise, fs),
        gains=gains,
        realized_sir_db=realized_sir,
        realized_snr_db=realized_snr,
        rirs=rirs,
        noise_seed=noise_seed,
    )
