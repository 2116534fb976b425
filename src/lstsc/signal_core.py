"""Time-frequency substrate: WAV I/O, framing, STFT/iSTFT, spectral masking.

Audio travels through the pipeline as an ``M x T`` float64 sample matrix
tagged with a sample rate.  Spectrograms are plain ``(L, F)`` complex128
arrays, one per channel, with ``F = fft_size // 2 + 1`` one-sided bins.
Frame ``l`` covers samples ``[l * hop, l * hop + frame_len)`` with no
pre-padding, so time-frequency indices are reproducible across modules.
"""
from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

__all__ = [
    "SAMPLE_RATE",
    "MultichannelAudio",
    "StftConfig",
    "Mask",
    "load_wav",
    "WavReader",
    "save_wav",
    "stft",
    "stft_multichannel",
    "istft",
    "apply_mask",
]

# The one sample rate of the pipeline (Hz): scenes render at it, and
# ``extract`` and ``enhance`` accept only it.
SAMPLE_RATE = 16000

# Accumulated squared-window values below this are treated as uncovered
# (first/last hop of the signal, where the tapered window never opens).
_WOLA_FLOOR = 1e-10

# Samples per chunk of WavReader's non-finite scan.
_SCAN_SAMPLES = 1 << 16


def first_non_finite(array: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first NaN or ±inf entry of ``array`` (row-major), or
    ``None``.  Only a non-finite sum pays for the allocating scan; the sum
    warns neither when it overflows nor when it meets +inf and -inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = array.sum()
    if np.isfinite(total):
        return None
    bad = np.argwhere(~np.isfinite(array))
    return tuple(int(i) for i in bad[0]) if bad.size else None


@dataclasses.dataclass
class MultichannelAudio:
    """M-channel audio: ``samples`` is an (M, T) float matrix, values
    nominally in [-1, 1].  Non-finite samples are rejected, naming the
    first offending (channel, sample)."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        if self.samples.ndim != 2:
            raise ValueError("samples must be a 2-D (channels, time) matrix")
        if self.samples.shape[0] < 1:
            raise ValueError("audio needs at least one channel")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        bad = first_non_finite(self.samples)
        if bad is not None:
            channel, sample = bad
            raise ValueError(f"non-finite audio sample at channel {channel}, sample {sample}")

    @property
    def num_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def num_samples(self) -> int:
        return self.samples.shape[1]

    def channel(self, index: int) -> np.ndarray:
        return self.samples[index]


@dataclasses.dataclass(frozen=True)
class StftConfig:
    """Analysis/synthesis framing.

    Defaults: 25 ms frames, 10 ms hop, 512-point FFT at 16 kHz.  The
    square-root Hann pair is used for weighted overlap-add; because
    400/160 is not an integer, reconstruction divides by the accumulated
    squared analysis window, which makes the interior identity exact.
    """

    frame_len: int = 400
    hop: int = 160
    fft_size: int = 512

    def __post_init__(self) -> None:
        if not (0 < self.hop <= self.frame_len <= self.fft_size):
            raise ValueError("require 0 < hop <= frame_len <= fft_size")

    @property
    def num_bins(self) -> int:
        return self.fft_size // 2 + 1

    def analysis_window(self) -> np.ndarray:
        # periodic Hann, square-rooted
        n = np.arange(self.frame_len)
        hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / self.frame_len)
        return np.sqrt(hann)

    def num_frames(self, num_samples: int) -> int:
        if num_samples < self.frame_len:
            raise ValueError(
                f"signal shorter than one frame ({num_samples} < {self.frame_len})"
            )
        return 1 + (num_samples - self.frame_len) // self.hop


@dataclasses.dataclass(frozen=True)
class Mask:
    """Per-bin real gain in [0, 1]; entries outside are rejected."""

    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float64)
        object.__setattr__(self, "data", data)
        if data.ndim != 2:
            raise ValueError("mask must be a 2-D (frames, bins) matrix")
        if not np.all(np.isfinite(data)):
            raise ValueError("mask entries must be finite")
        if data.size and (data.min() < 0.0 or data.max() > 1.0):
            raise ValueError("mask entries must lie in [0, 1]")

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape


def _read_wav(path: Path, mmap: bool = False) -> tuple[int, np.ndarray]:
    """scipy's ``wavfile.read``, with a missing file raised as such and
    any other failure as ``ValueError`` naming the file."""
    from scipy.io import wavfile  # on first use: it takes ~0.3 s to import

    if not path.exists():
        raise FileNotFoundError(f"file not found: {path}")
    try:
        rate, data = wavfile.read(path, mmap=mmap)
    except FileNotFoundError:
        raise
    except Exception as exc:  # scipy raises bare ValueError on bad RIFF
        raise ValueError(f"unsupported or corrupt WAV file {path}: {exc}") from exc
    return int(rate), data


def _decode(data: np.ndarray) -> np.ndarray:
    """WAV data, (frames,) or (frames, channels), as (M, n) float64 in
    [-1, 1]."""
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    elif data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise ValueError(f"unsupported WAV sample encoding: {data.dtype}")
    if samples.ndim == 1:
        return samples[np.newaxis, :]
    return samples.T  # wavfile uses (frames, channels)


def load_wav(path: str | Path) -> MultichannelAudio:
    """Read a PCM or float WAV into channel-major float64 in [-1, 1]."""
    rate, data = _read_wav(Path(path))
    return MultichannelAudio(samples=_decode(data), sample_rate=rate)


class WavReader:
    """A WAV file read a chunk of samples at a time.

    The file is memory-mapped where scipy can map its encoding; 24-bit
    PCM, which it cannot, is read whole, as ``load_wav`` reads it.  The
    checks ``load_wav`` makes are made when the file is opened, with the
    same messages: the encoding, a positive rate and, for float data, the
    first non-finite sample (in channel, then sample order).  ``chunks``
    converts with ``load_wav``'s own code, so the samples are the same.
    """

    def __init__(self, path: str | Path) -> None:
        path = Path(path)
        try:
            self.sample_rate, data = _read_wav(path, mmap=True)
        except ValueError:
            # not mappable (24-bit PCM), or not readable at all, which the
            # plain read reports as load_wav does
            self.sample_rate, data = _read_wav(path)
        self._data = data if data.ndim == 2 else data[:, np.newaxis]
        _decode(self._data[:0])  # an unsupported encoding fails here
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self._data.dtype.kind == "f":
            # scan the raw chunks: the float64 conversion keeps finiteness
            bad = None
            for start in range(0, self.num_samples, _SCAN_SAMPLES):
                found = first_non_finite(self._data[start : start + _SCAN_SAMPLES].T)
                if found is not None:
                    channel, sample = found
                    found = (channel, start + sample)
                    bad = found if bad is None else min(bad, found)
            if bad is not None:
                channel, sample = bad
                raise ValueError(f"non-finite audio sample at channel {channel}, sample {sample}")

    @property
    def num_channels(self) -> int:
        return self._data.shape[1]

    @property
    def num_samples(self) -> int:
        return self._data.shape[0]

    def chunks(self, size: int):
        """The samples as consecutive (M, n) float64 chunks of ``size``
        samples (the last one shorter)."""
        for start in range(0, self.num_samples, size):
            yield _decode(self._data[start : start + size])


def save_wav(path: str | Path, audio: MultichannelAudio) -> None:
    """Write 32-bit float WAV, preserving channel count and rate."""
    data = audio.samples.T.astype(np.float32)
    if data.shape[1] == 1:
        data = data[:, 0]
    from scipy.io import wavfile  # on first use, as in _read_wav

    wavfile.write(Path(path), audio.sample_rate, data)


def stft(x: np.ndarray, cfg: StftConfig = StftConfig()) -> np.ndarray:
    """One-sided STFT of a single channel.

    Frames are windowed, zero-padded to ``fft_size`` and transformed;
    ``L = 1 + floor((T - frame_len) / hop)``, no pre-padding.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("stft expects a 1-D sample vector")
    num_frames = cfg.num_frames(x.shape[0])
    window = cfg.analysis_window()
    frames = np.lib.stride_tricks.sliding_window_view(x, cfg.frame_len)
    frames = frames[:: cfg.hop][:num_frames]
    return np.fft.rfft(frames * window, n=cfg.fft_size, axis=1)


def stft_multichannel(
    audio: MultichannelAudio, cfg: StftConfig = StftConfig()
) -> np.ndarray:
    """Per-channel STFTs as one (M, L, F) tensor.

    The tensor is allocated once and each channel's STFT is written into
    its slice, so the peak is the tensor plus one channel's temporaries
    rather than two tensors.
    """
    num_frames = cfg.num_frames(audio.num_samples)
    out = np.empty((audio.num_channels, num_frames, cfg.num_bins), dtype=np.complex128)
    for m in range(audio.num_channels):
        out[m] = stft(audio.channel(m), cfg)
    return out


def istft(
    spec: np.ndarray, cfg: StftConfig = StftConfig(), length: int | None = None
) -> np.ndarray:
    """Weighted overlap-add synthesis.

    The synthesis window equals the analysis window and the overlap-added
    signal is divided by the accumulated squared window, so
    ``istft(stft(x))`` reproduces ``x`` exactly (up to rounding) wherever
    the window sum is nonzero — in particular on the fully overlapped
    interior.  The first/last partially covered samples are tapered.
    """
    spec = np.asarray(spec)
    if spec.ndim != 2 or spec.shape[1] != cfg.num_bins:
        raise ValueError(
            f"spectrogram shape {spec.shape} does not match fft_size {cfg.fft_size}"
        )
    num_frames = spec.shape[0]
    hop = cfg.hop
    window = cfg.analysis_window()
    frames = np.fft.irfft(spec, n=cfg.fft_size, axis=1)[:, : cfg.frame_len]
    frames = frames * window
    wsq = window * window
    total = cfg.frame_len + (num_frames - 1) * hop
    # Overlap-add in hop-sized pieces: piece j of frame l lands on row
    # l + j of a (rows, hop) view.  Adding the pieces from the last to the
    # first gives every sample its frames in increasing order, starting
    # from zero, as a loop over frames does, so the sums agree bit for bit.
    pieces = -(-cfg.frame_len // hop)
    rows = num_frames + pieces - 1
    out = np.zeros((rows, hop))
    wsum = np.zeros((rows, hop))
    for j in reversed(range(pieces)):
        width = min(hop, cfg.frame_len - j * hop)
        out[j : j + num_frames, :width] += frames[:, j * hop : j * hop + width]
        wsum[j : j + num_frames, :width] += wsq[j * hop : j * hop + width]
    out = out.reshape(-1)[:total]
    wsum = wsum.reshape(-1)[:total]
    covered = wsum > _WOLA_FLOOR
    out[covered] /= wsum[covered]
    out[~covered] = 0.0
    if length is not None:
        if length <= total:
            out = out[:length]
        else:
            out = np.concatenate([out, np.zeros(length - total)])
    return out


def apply_mask(spec: np.ndarray, mask: Mask) -> np.ndarray:
    """Per-bin gain: ``out = mask * spec``; phase is untouched."""
    spec = np.asarray(spec)
    if spec.shape != mask.data.shape:
        raise ValueError(
            f"mask shape {mask.data.shape} does not match spectrogram {spec.shape}"
        )
    return spec * mask.data
