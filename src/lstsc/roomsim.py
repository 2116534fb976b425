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
import struct

import numpy as np

from .signal_core import SAMPLE_RATE, MultichannelAudio, _in_halves

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

# the largest magnitude of a float32 WAV sample
_WAV_SAMPLE_MAX = float(np.finfo(np.float32).max)

# lattice points per block of the image enumeration (or one (x, y) row,
# if longer): its float64 temporaries of 128 kB stay in cache, whatever
# the duration (2**14 ran faster than 2**12, 2**13, 2**15 and 2**16 on a
# 2-vCPU Xeon VM)
_BLOCK_POINTS = 1 << 14


@dataclasses.dataclass(frozen=True)
class ArrayGeometry:
    """Microphone positions relative to the array's origin (meters).  The
    origin need not be the mic centroid, from which the scene protocol
    measures (``RoomScene.array_center``)."""

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
        """Absolute mic positions for the array's origin at ``center``."""
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


@dataclasses.dataclass(frozen=True)
class SceneConstraints:
    """Protocol defaults for scene sampling.

    Sources are drawn in the frontal half-plane ring sector around
    ``array_center``, where the array's origin is placed, at its height;
    azimuth is measured in the horizontal plane with the array facing +y.
    """

    room_dims: tuple[float, float, float] = (6.0, 5.0, 3.0)
    array_center: tuple[float, float, float] = (3.0, 1.5, 1.2)
    range_bounds: tuple[float, float] = (0.7, 2.0)
    min_angle_deg: float = 15.0
    azimuth_deg: tuple[float, float] = (0.0, 180.0)
    wall_margin: float = 0.05
    max_attempts: int = 1000

    def __post_init__(self) -> None:
        for name, size in (
            ("room_dims", 3), ("array_center", 3), ("range_bounds", 2), ("azimuth_deg", 2)
        ):
            value = getattr(self, name)
            try:
                vector = np.asarray(value, dtype=np.float64)
            except (TypeError, ValueError):
                vector = None
            if vector is None or vector.shape != (size,) or not np.isfinite(vector).all():
                raise ValueError(f"{name} must hold {size} finite numbers, got {value!r}")
        if min(self.room_dims) <= 0:
            raise ValueError(f"room_dims must be positive, got {self.room_dims!r}")
        for name in ("range_bounds", "azimuth_deg"):
            bounds = getattr(self, name)
            if bounds[0] > bounds[1]:
                raise ValueError(f"{name} must be (lo, hi) with lo <= hi, got {bounds!r}")
        _check_range_bounds(self.range_bounds)
        for name in ("min_angle_deg", "wall_margin"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


def _check_range_bounds(range_bounds) -> None:
    # the protocol divides each source offset by its range, so a range of
    # 0 (a source on the mic centroid) must lie outside the ring
    if not range_bounds[0] > 0:
        raise ValueError(f"range_bounds must have a positive low end, got {range_bounds!r}")


def _power_ratio(level_db: float) -> float:
    """``10 ** (level_db / 10)``, the power ratio of a level in dB;
    ``inf`` where it overflows."""
    try:
        return 10.0 ** (level_db / 10.0)
    except OverflowError:
        return math.inf


def _inside(point: np.ndarray, dims: np.ndarray, margin: float = 0.0) -> bool:
    return bool(np.all(point > margin) and np.all(point < dims - margin))


def _protocol_problem(
    positions, center, dims, margin: float, range_bounds, min_angle_deg: float
) -> str | None:
    """The first protocol rule that the sources at ``positions`` (one row
    per role, in ``ROLE_ORDER``) break around ``center``, or None."""
    outside = ~np.all((positions > margin) & (positions < dims - margin), axis=1)
    if outside.any():
        return f"source {positions[outside.argmax()]} outside room {dims}"
    offsets = positions - center
    ranges = np.linalg.norm(offsets, axis=1)
    lo, hi = range_bounds
    for distance in ranges:
        if not lo <= distance <= hi:
            return f"source range {distance:.3f} m outside [{lo}, {hi}] m"
    directions = offsets / ranges[:, None]
    cosines = np.clip(directions @ directions.T, -1.0, 1.0)
    angles = np.arccos(cosines[np.triu_indices(len(positions), k=1)])
    if np.any(angles < math.radians(min_angle_deg) - 1e-9):
        return "sources closer than the minimum angular separation"
    if ranges[0] > ranges[1:].min() + 1e-9:
        return "target must be at least as close as other sources"
    return None


@dataclasses.dataclass
class RoomScene:
    """A sampled acoustic scene: box room, reverberation, mics, sources.

    The protocol is validated at construction: ``sources`` holds one
    source per role in ``ROLE_ORDER``, inside the room, in the ring
    ``range_bounds`` around ``array_center`` (the mic centroid), pairwise
    at least ``min_angle_deg`` apart as seen from it, with the target no
    farther than any other source.  ``sample_scene`` keeps only draws
    that pass this same rule.
    """

    room_dims: np.ndarray
    t60: float
    mic_positions: np.ndarray
    sources: list[Source]
    range_bounds: tuple[float, float] = SceneConstraints.range_bounds
    min_angle_deg: float = SceneConstraints.min_angle_deg

    def __post_init__(self) -> None:
        self.room_dims = np.asarray(self.room_dims, dtype=np.float64)
        self.mic_positions = np.atleast_2d(
            np.asarray(self.mic_positions, dtype=np.float64)
        )
        if self.room_dims.shape != (3,) or np.any(self.room_dims <= 0):
            raise ValueError("room_dims must be three positive lengths")
        if not (math.isfinite(self.t60) and self.t60 > 0):
            raise ValueError(f"t60 must be positive and finite, got {self.t60}")
        if self.mic_positions.shape[1] != 3:
            raise ValueError("mic_positions must be (M, 3)")
        for mic in self.mic_positions:
            if not _inside(mic, self.room_dims):
                raise ValueError(f"microphone {mic} outside room {self.room_dims}")
        roles = tuple(src.role for src in self.sources)
        if roles != ROLE_ORDER:
            raise ValueError(f"sources must be one per role in {ROLE_ORDER}, got {roles}")
        _check_range_bounds(self.range_bounds)
        problem = _protocol_problem(
            np.stack([src.position for src in self.sources]), self.array_center,
            self.room_dims, 0.0, self.range_bounds, self.min_angle_deg,
        )
        if problem:
            raise ValueError(problem)

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
    """Mixing levels, stored as finite floats; values must come from the
    declared grids unless ``allow_off_grid`` is set."""

    sir_db: float = 0.0
    snr_db: float = 30.0
    clip_seconds: float = 8.0
    allow_off_grid: bool = False

    SIR_GRID = (0.0, 5.0, 10.0, 15.0)
    SNR_GRID = (20.0, 25.0, 30.0)

    def __post_init__(self) -> None:
        for name in ("sir_db", "snr_db", "clip_seconds"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        for name in ("sir_db", "snr_db"):
            level = getattr(self, name)
            if not 0.0 < _power_ratio(level) < math.inf:
                raise ValueError(
                    f"{name} {level} dB gives a power ratio that is not a positive finite float"
                )
        if self.num_samples < 1:
            raise ValueError(f"clip_seconds must span at least one sample, got {self.clip_seconds}")
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

    @property
    def num_samples(self) -> int:
        """Clip length in samples at ``SAMPLE_RATE``: the length of every
        image and of the mixture, and the least length of a stem."""
        return int(round(self.clip_seconds * SAMPLE_RATE))


def _eyring_absorption(room_dims: np.ndarray, t60: float) -> float:
    volume = float(np.prod(room_dims))
    w, d, h = room_dims
    surface = 2.0 * (w * d + w * h + d * h)
    return 1.0 - math.exp(-0.161 * volume / (surface * t60))


def _reach(size: int, fs: int) -> float:
    """The largest double ``d2`` whose delay ``round(sqrt(d2) / c * fs)``
    is below ``size`` (``size >= 1``).

    The delay is monotone in ``d2`` (``sqrt``, the division by ``c``, the
    product with ``fs`` and round-half-even each are), so ``d2 <= reach``
    keeps exactly the squared distances that ``delay < size`` keeps.
    Found by bisecting the bit patterns of the finite non-negative
    doubles, which order as the doubles do; Python's float operations
    and ``round`` are the IEEE double ones numpy applies per image."""

    def as_double(bits: int) -> float:
        return struct.unpack("<d", struct.pack("<Q", bits))[0]

    lo, hi = 0, 0x7FF0000000000000  # 0.0 lands; hi is the bits of +inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if round(math.sqrt(as_double(mid)) / SPEED_OF_SOUND * fs) < size:
            lo = mid
        else:
            hi = mid
    return as_double(lo)


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
    duration needs.  Each microphone adds its squared per-axis offsets
    ``(dx + dy) + dz`` over the sub-grid of its own duration, but only
    inside its delay ball: rows ``(x, y)`` with ``dx + dy`` beyond
    ``_reach`` are skipped (adding ``dz >= 0`` cannot bring them back),
    and the rest are taken ``_BLOCK_POINTS`` points at a time, with the
    square root, delay and amplitude computed on the kept points only.
    The kept images are accumulated in the per-pair enumeration's order
    into a zeroed array per parity and microphone (``np.add.at`` adds in
    input order, as ``bincount`` does), so the taps are bit-identical to
    it.
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
    reaches = [_reach(size, fs) for size in num_taps]

    taps = [np.zeros(n) for n in num_taps]
    for parity in itertools.product((0, 1), repeat=3):
        coords = [
            (1 - 2 * p) * s + 2.0 * n * length
            for p, s, n, length in zip(parity, src, orders, room_dims)
        ]
        reflections = [np.abs(n - p) + np.abs(n) for p, n in zip(parity, orders)]
        for mic, count, size, reach, out in zip(mics, counts, num_taps, reaches, taps):
            window = tuple(slice(t - c, t + c + 1) for t, c in zip(top, count))
            dx, dy, dz = (
                (coord[w] - m) ** 2 for coord, w, m in zip(coords, window, mic)
            )
            rx, ry, rz = (r[w] for r, w in zip(reflections, window))
            dxy = dx[:, None] + dy
            rows = np.flatnonzero(dxy <= reach)
            dxy = dxy.ravel()[rows]
            rxy = (rx[:, None] + ry).ravel()[rows]
            # row j: the gains of a row with j reflections, along z
            row_gains = gains[np.arange(rxy.max(initial=0) + 1)[:, None] + rz]
            step = max(1, _BLOCK_POINTS // dz.size)
            summed = np.zeros(size)
            for start in range(0, rows.size, step):
                block = slice(start, start + step)
                d2 = dxy[block, None] + dz
                keep = d2 <= reach
                dist = np.sqrt(d2[keep])
                delay = np.round(dist / SPEED_OF_SOUND * fs).astype(int)
                amplitude = row_gains[rxy[block]][keep] / (
                    4.0 * np.pi * np.maximum(dist, 1e-9)
                )
                np.add.at(summed, delay, amplitude)
            out += summed
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
    fs: int = SAMPLE_RATE,
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
    point; an explicit ``duration`` (seconds, for every microphone) must
    span at least one sample.  Each response equals ``simulate_rir`` for
    its pair bit for bit; the images are enumerated once for all
    microphones.
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
    if duration is not None and not (math.isfinite(duration) and duration * fs >= 1):
        raise ValueError(f"duration must span at least one sample, got {duration}")

    if t60 is not None and not math.isfinite(t60):
        raise ValueError(f"t60 must be finite, got {t60}")
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
    fs: int = SAMPLE_RATE,
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


def sample_scene(
    seed,
    array: ArrayGeometry | None = None,
    t60: float = 0.3,
    constraints: SceneConstraints = SceneConstraints(),
) -> RoomScene:
    """Rejection-sample a scene that passes ``RoomScene``'s protocol, with
    sources ``wall_margin`` inside the walls.

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
    centroid = mics.mean(axis=0)

    num_sources = len(ROLE_ORDER)
    lo, hi = constraints.range_bounds
    az_lo, az_hi = np.radians(constraints.azimuth_deg)

    for _ in range(constraints.max_attempts):
        radii = rng.uniform(lo, hi, num_sources)
        azimuths = rng.uniform(az_lo, az_hi, num_sources)
        offsets = np.stack(
            [radii * np.cos(azimuths), radii * np.sin(azimuths), np.zeros(num_sources)],
            axis=1,
        )
        positions = center + offsets
        closest = int(np.argmin(radii))
        order = [closest] + [i for i in range(num_sources) if i != closest]
        if _protocol_problem(
            positions[order], centroid, dims, constraints.wall_margin,
            constraints.range_bounds, constraints.min_angle_deg,
        ):
            continue
        # the shuffle leaves the target in place, so the checked draw stands
        order[1:] = rng.permutation(order[1:])
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
    role to its per-microphone responses; it is empty for a silent stem.
    """

    mixture: MultichannelAudio
    images: dict[str, MultichannelAudio]
    noise: MultichannelAudio
    gains: dict[str, float]
    realized_sir_db: float | None
    realized_snr_db: float | None
    rirs: dict[str, list[Rir]]
    noise_seed: int


def _fast_len(n: int) -> int:
    """The least 5-smooth integer >= ``n`` (``n >= 1``), the FFT length
    scipy's ``next_fast_len(n, real=True)`` picks."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power-of-two multiple of p35 that is >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _image(stem: np.ndarray, rirs: list[Rir], length: int) -> np.ndarray:
    """The stem through each RIR, cut to ``length`` samples: one row per
    RIR, with the bytes of scipy's ``fftconvolve(stem, taps)[:length]``
    (the same transform lengths, operands and product order), but the
    stem transformed once per transform length, not once per RIR.  The
    rows are computed in two halves (``_in_halves``)."""
    out = np.empty((len(rirs), length))
    # per RIR, its transform length, or None where scipy multiplies by a
    # one-sample operand, without transforms
    nffts = [
        None
        if stem.shape[0] == 1 or rir.taps.shape[0] == 1
        else _fast_len(stem.shape[0] + rir.taps.shape[0] - 1)
        for rir in rirs
    ]
    spectra = {nfft: np.fft.rfft(stem, nfft) for nfft in set(nffts) - {None}}

    def rows(lo: int, hi: int) -> None:
        for row, rir, nfft in zip(out[lo:hi], rirs[lo:hi], nffts[lo:hi]):
            if nfft is None:
                row[:] = (stem * rir.taps)[:length]
                continue
            # bound to a name, so that numpy cannot reuse this temporary
            # for the product and swap the operands, which rounds differently
            response = np.fft.rfft(rir.taps, nfft)
            row[:] = np.fft.irfft(spectra[nfft] * response, nfft)[:length]

    _in_halves(rows, len(rirs), 2)
    return out


def mix_scene(
    scene: RoomScene,
    stems: dict[str, np.ndarray],
    spec: MixSpec = MixSpec(),
    noise_seed: int = 0,
) -> MixResult:
    """Render stems through the room at ``SAMPLE_RATE`` and mix at the
    requested levels.

    Every source is convolved with its simulated per-microphone RIRs.  An
    all-zero stem is neither simulated nor convolved: its image is zeros
    and its ``rirs`` entry is empty.  The interferer image is
    scaled so the target-to-interferer power ratio at the reference
    microphone equals ``sir_db`` exactly as measured on the returned
    images; the non-target is scaled to equal power with the target; white
    sensor noise is normalized per channel so the reference-channel SNR
    against the summed directional signal is exact.  Silent stems (or a
    silent target) skip the affected gain calibrations with unit gain;
    the realized SIR is None unless the target and the interferer both
    sound, and the realized SNR is None when no stem does.  Levels so far
    apart that a rendered signal overflows a float32 WAV sample raise
    ``ValueError``.
    """
    length = spec.num_samples
    images: dict[str, np.ndarray] = {}
    rirs: dict[str, list[Rir]] = {}
    for src in scene.sources:
        role = src.role
        if role not in stems:
            raise ValueError(f"missing stem for role {role!r}")
        stem = np.asarray(stems[role], dtype=np.float64)
        if stem.ndim != 1:
            raise ValueError(f"stem {role!r} must be mono")
        if stem.shape[0] < length:
            raise ValueError(
                f"stem {role!r} shorter than clip length "
                f"({stem.shape[0]} < {length})"
            )
        stem = stem[:length]
        if stem.any():
            rirs[role] = simulate_rirs(
                scene.room_dims, scene.t60, src.position, scene.mic_positions
            )
            images[role] = _image(stem, rirs[role], length)
        else:
            rirs[role] = []
            images[role] = np.zeros((scene.num_mics, length))

    def ref_power(x: np.ndarray) -> float:
        return float(np.mean(x[0] ** 2))

    gains = dict.fromkeys(ROLE_ORDER, 1.0)
    target_power = ref_power(images["target"])
    if target_power > 0.0:
        # target-to-role power ratio: equal power, and the SIR
        ratios = {"non_target": 1.0, "interferer": _power_ratio(spec.sir_db)}
        for role, ratio in ratios.items():
            power = ref_power(images[role])
            if power > 0.0:
                gains[role] = math.sqrt(target_power / (power * ratio))
                images[role] = images[role] * gains[role]

    directional = (images["target"] + images["non_target"]) + images["interferer"]
    directional_power = ref_power(directional)
    rng = np.random.default_rng(noise_seed)
    noise = rng.standard_normal((scene.num_mics, length))
    if directional_power > 0.0:
        noise_power = directional_power / _power_ratio(spec.snr_db)
        for m in range(scene.num_mics):
            row_power = float(np.mean(noise[m] ** 2))
            noise[m] *= math.sqrt(noise_power / row_power)
    else:
        noise *= 0.0

    mixture = directional + noise
    for name, signal in (("mixture", mixture), *images.items(), ("noise", noise)):
        # NaN fails the comparison too
        peak = max(signal.max(), -signal.min())
        if not peak <= _WAV_SAMPLE_MAX:
            raise ValueError(
                f"the mix overflows float32 WAV samples: the {name} peaks at {peak:.3g} "
                f"(sir_db {spec.sir_db}, snr_db {spec.snr_db})"
            )

    interferer_power = ref_power(images["interferer"])
    realized_sir = None
    if target_power > 0.0 and interferer_power > 0.0:
        realized_sir = 10.0 * math.log10(target_power / interferer_power)
    noise_ref_power = float(np.mean(noise[0] ** 2))
    realized_snr = None
    if noise_ref_power > 0.0:
        realized_snr = 10.0 * math.log10(directional_power / noise_ref_power)

    return MixResult(
        mixture=MultichannelAudio(mixture, SAMPLE_RATE),
        images={role: MultichannelAudio(image, SAMPLE_RATE) for role, image in images.items()},
        noise=MultichannelAudio(noise, SAMPLE_RATE),
        gains=gains,
        realized_sir_db=realized_sir,
        realized_snr_db=realized_snr,
        rirs=rirs,
        noise_seed=noise_seed,
    )
