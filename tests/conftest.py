"""Shared fixtures and helpers for the test suite."""
from __future__ import annotations

import io
import os
import struct
import sys
from pathlib import Path

# pin BLAS/OpenMP pools to one thread (before numpy import) so the
# performance criterion measures single-threaded wall time
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from lstsc.coherence import write_plane_csv
from lstsc.signal_core import MultichannelAudio, StftConfig


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def stft_cfg():
    return StftConfig()


def delayed_array_audio(
    rng: np.random.Generator,
    num_channels: int = 4,
    num_samples: int = 32000,
    delays=(0, 2, 4, 6),
    noise_rms: float = 0.0,
) -> MultichannelAudio:
    """Anechoic stand-in: one broadband source observed with pure
    integer-sample inter-channel delays (circular, so spectra relate by
    exact phase ramps when num_samples is a multiple of the FFT size)."""
    base = rng.standard_normal(num_samples)
    channels = [np.roll(base, d) for d in delays[:num_channels]]
    samples = np.stack(channels)
    if noise_rms > 0.0:
        samples = samples + noise_rms * rng.standard_normal(samples.shape)
    return MultichannelAudio(samples, 16000)


def random_small_specs(
    rng: np.random.Generator, num_channels: int, num_frames: int, num_bins: int
) -> np.ndarray:
    """Random complex spectrogram stack for oracle comparisons."""
    shape = (num_channels, num_frames, num_bins)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def same_bytes(got, want) -> bool:
    """Both None, or arrays of one dtype and shape with the same bytes."""
    if got is None or want is None:
        return got is want
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def savetxt_bytes(plane: np.ndarray) -> bytes:
    """The bytes ``np.savetxt`` writes for ``plane`` as a ``%.9e`` CSV."""
    buffer = io.BytesIO()
    np.savetxt(buffer, plane, delimiter=",", fmt="%.9e")
    return buffer.getvalue()


# A feature file's planes in README's documented order: (name in the
# file name, attribute of LstscFeatures).
FEATURE_PLANES = (
    ("gamma_local", "gamma_local"),
    ("gamma_global", "gamma_global"),
    ("gamma_global_warped", "gamma_global_warped"),
    ("lambda", "lambda_trace"),
)


def write_whole_plane_csvs(path, features) -> list[Path]:
    """``<stem>.<plane>.csv`` next to ``path`` for each plane of a whole
    clip's ``features`` in ``FEATURE_PLANES`` order, the ``banded_`` ones
    when bands are on and the warped one only when warping is, each
    written whole by ``write_plane_csv``: the CSV set that ``extract
    --csv`` writes a block at a time.  Returns the files written."""
    path = Path(path)
    prefix = "banded_" if features.banded_gamma_local is not None else ""
    written = []
    for name, attr in FEATURE_PLANES:
        plane = getattr(features, prefix + attr)
        if plane is not None:
            written.append(path.with_name(f"{path.stem}.{name}.csv"))
            write_plane_csv(written[-1], plane)
    return written


# The GUID tail of a WAVE_FORMAT_EXTENSIBLE subformat (RFC 2361).
EXTENSIBLE_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def wav_bytes(
    data: bytes, channels: int, width: int, bits: int, tag: int = 1, rate: int = 16000,
    extensible: bool = False, guid_tail: bytes = EXTENSIBLE_GUID_TAIL,
    before: bytes = b"", after: bytes = b"", container: bytes = b"RIFF",
) -> bytes:
    """A WAVE file of the raw samples ``data``, ``width`` bytes a sample of
    which ``bits`` are used, with format ``tag`` (1 PCM, 3 IEEE float).
    ``extensible`` writes a WAVE_FORMAT_EXTENSIBLE fmt chunk whose
    subformat GUID is ``tag`` followed by ``guid_tail``.  ``before`` and
    ``after`` are raw chunks written around the data chunk, which is padded
    to an even length.  The ``container`` is b"RIFF", b"RF64" (sizes in a
    ds64 chunk) or b"RIFX" (big-endian header fields)."""
    order = ">" if container == b"RIFX" else "<"
    block = width * channels
    fmt = struct.pack(
        order + "HHIIHH", 0xFFFE if extensible else tag, channels, rate, rate * block, block, bits
    )
    if extensible:
        fmt += struct.pack(order + "HHII", 22, bits, 0, tag) + guid_tail
    size = 0xFFFFFFFF if container == b"RF64" else len(data)
    body = b"fmt " + struct.pack(order + "I", len(fmt)) + fmt + before + b"data"
    body += struct.pack(order + "I", size) + data + b"\0" * (len(data) % 2) + after
    if container == b"RF64":
        ds64 = struct.pack("<QQQI", 4 + 8 + 28 + len(body), len(data), len(data) // block, 0)
        body = b"ds64" + struct.pack("<I", len(ds64)) + ds64 + body
        return b"RF64" + struct.pack("<I", 0xFFFFFFFF) + b"WAVE" + body
    return container + struct.pack(order + "I", 4 + len(body)) + b"WAVE" + body


def write_pcm24(
    path, samples: np.ndarray, rate: int = 16000, extensible: bool = False,
    before: bytes = b"", after: bytes = b"",
) -> None:
    """A 24-bit PCM WAV of (n, channels) samples given as int32 values
    whose low byte is dropped: 24-bit samples shifted left by 8, the values
    scipy reads back.  ``extensible`` writes a WAVE_FORMAT_EXTENSIBLE
    header with the PCM subformat; ``before`` and ``after`` are raw chunks
    written around the data."""
    frames, channels = samples.shape
    data = samples.astype("<i4").view(np.uint8).reshape(frames, channels, 4)[..., 1:].tobytes()
    path.write_bytes(
        wav_bytes(data, channels, 3, 24, rate=rate, extensible=extensible, before=before, after=after)
    )


# WAV files the reader rejects, by name: the problem each message names.
UNREADABLE_WAVS = {
    "truncated": "data chunk runs 800 bytes past the file's end",
    "rifx": "big-endian (RIFX) files are not supported",
    "format tag": "format tag 0x0006, neither PCM nor IEEE float",
    "foreign guid": "extensible subformat GUID 01000000" + "00" * 12,
}


def write_unreadable_wav(path, case: str) -> None:
    """The WAV file of ``UNREADABLE_WAVS[case]`` at ``path``: 1000 frames of
    2 channels, the last 100 of them cut off when ``case`` is
    "truncated", 16-bit big-endian for "rifx", 8-bit A-law (tag 6) for
    "format tag", and 16-bit PCM under a GUID that is not the standard
    one for "foreign guid"."""
    width, bits, tag, options = {
        "truncated": (4, 32, 3, {}),
        "rifx": (2, 16, 1, {"container": b"RIFX"}),
        "format tag": (1, 8, 6, {}),
        "foreign guid": (2, 16, 1, {"extensible": True, "guid_tail": bytes(12)}),
    }[case]
    rng = np.random.default_rng(0)
    if case == "truncated":  # finite samples, so that only the cut is at fault
        data = rng.standard_normal(2000).astype("<f4").tobytes()
    else:
        data = rng.integers(0, 256, 2000 * width, dtype=np.uint8).tobytes()
    wav = wav_bytes(data, 2, width, bits, tag, **options)
    path.write_bytes(wav[:-800] if case == "truncated" else wav)
