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


def savetxt_bytes(plane: np.ndarray) -> bytes:
    """The bytes ``np.savetxt`` writes for ``plane`` as a ``%.9e`` CSV."""
    buffer = io.BytesIO()
    np.savetxt(buffer, plane, delimiter=",", fmt="%.9e")
    return buffer.getvalue()


def write_pcm24(path, samples: np.ndarray, rate: int = 16000) -> None:
    """A 24-bit PCM WAV of (n, channels) samples given as int32 values
    whose low byte is dropped: 24-bit samples shifted left by 8, the values
    scipy reads back.  scipy cannot memory-map such a file."""
    frames, channels = samples.shape
    data = samples.astype("<i4").view(np.uint8).reshape(frames, channels, 4)[..., 1:].tobytes()
    fmt = struct.pack("<HHIIHH", 1, channels, rate, 3 * rate * channels, 3 * channels, 24)
    body = b"WAVEfmt " + struct.pack("<I", 16) + fmt + b"data" + struct.pack("<I", len(data)) + data
    body += b"\0" * (len(data) % 2)
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
