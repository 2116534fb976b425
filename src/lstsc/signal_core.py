"""Time-frequency substrate: WAV I/O, framing, STFT/iSTFT, spectral masking.

Audio travels through the pipeline as an ``M x T`` float64 sample matrix
tagged with a sample rate.  Spectrograms are plain ``(L, F)`` complex128
arrays, one per channel, with ``F = fft_size // 2 + 1`` one-sided bins.
Frame ``l`` covers samples ``[l * hop, l * hop + frame_len)`` with no
pre-padding, so time-frequency indices are reproducible across modules.
"""
from __future__ import annotations

import contextvars
import dataclasses
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
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

# CPUs this process may run on; with fewer than 2, _in_halves runs inline.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# _in_halves' worker thread, started on first use, and the flag it sets
# on itself so that a task it runs never waits on the worker.
_worker: ThreadPoolExecutor | None = None
_worker_lock = threading.Lock()
_on_worker = threading.local()


def _mark_worker() -> None:
    _on_worker.active = True


def _forget_worker() -> None:
    """In a forked child: the parent's worker thread does not exist there,
    so the child starts its own on first use."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _in_halves(task, count: int, least: int) -> None:
    """Run ``task(lo, hi)`` over the rows ``[0, count)`` on two cores.

    The caller runs the lower half and the worker thread the upper one,
    in the caller's context (numpy's ``errstate`` is a context variable).
    The task must write each row's result into arrays the caller owns
    and compute a row the same way whichever rows it is given, so the
    bytes are those of ``task(0, count)``, which is what runs instead when
    ``count < least``, when fewer than 2 CPUs are available or when the
    caller is the worker itself (a nested task would wait on itself).
    If the worker has not started the upper half by the time the lower
    one is done, the caller runs it too.  An error raised by the lower
    half wins over one from the upper half, and both halves have ended
    when this returns or raises.
    """
    global _worker
    if count < least or _CPUS < 2 or getattr(_on_worker, "active", False):
        task(0, count)
        return
    with _worker_lock:
        if _worker is None:
            _worker = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="lstsc-halves", initializer=_mark_worker
            )
        worker = _worker
    half = (count + 1) // 2
    upper = worker.submit(contextvars.copy_context().run, task, half, count)
    try:
        task(0, half)
    except BaseException:
        if not upper.cancel():
            upper.exception()  # wait for it; the lower half's error wins
        raise
    if upper.cancel():
        task(half, count)
    else:
        upper.result()


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


# The GUID tail of a WAVE_FORMAT_EXTENSIBLE subformat (RFC 2361); the
# subformat's tag is the GUID's first four bytes.
_EXTENSIBLE_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _pcm24_layout(path: Path) -> tuple[int, int, int, int] | None:
    """``(rate, channels, data offset, frames)`` of a little-endian RIFF
    file of 24-bit PCM samples, found by walking its chunks as scipy's
    ``wavfile.read`` walks them; None for any other file, and for any
    header or chunk list that scipy would reject, warn about or read
    otherwise than as whole frames."""
    with path.open("rb") as file:
        head = file.read(12)
        if len(head) < 12 or head[:4] != b"RIFF" or head[8:] != b"WAVE":
            return None
        end = struct.unpack("<I", head[4:8])[0] + 8
        fmt = data = None
        while file.tell() < end:
            chunk = file.read(8)
            if len(chunk) < 8:
                return None
            name, size = chunk[:4], struct.unpack("<I", chunk[4:])[0]
            if name == b"fmt " and fmt is None and size >= 16:
                body = file.read(size)
                if len(body) < size:
                    return None
                fmt = struct.unpack("<HHIIHH", body[:16])
                if fmt[0] == 0xFFFE:  # extensible: the subformat decides
                    if size < 40 or struct.unpack("<H", body[16:18])[0] < 22:
                        return None
                    guid = body[24:40]
                    tag = struct.unpack("<I", guid[:4])[0] if guid[4:] == _EXTENSIBLE_GUID_TAIL else 0
                    fmt = (tag,) + fmt[1:]
            elif name == b"data" and fmt is not None and data is None:
                data = (file.tell(), size)
                file.seek(size, os.SEEK_CUR)
            elif name in (b"fact", b"LIST", b"JUNK", b"Fake"):
                file.seek(size, os.SEEK_CUR)
            else:
                return None
            file.seek(size % 2, os.SEEK_CUR)
        file_bytes = os.fstat(file.fileno()).st_size
    if data is None:
        return None
    tag, channels, rate, byte_rate, block_align, bits = fmt
    offset, size = data
    if not (
        tag == 1 and not 1 <= bits <= 8 and channels >= 1 and block_align == 3 * channels
        and byte_rate == rate * block_align and size % block_align == 0
        and offset + size <= file_bytes
    ):
        return None
    return rate, channels, offset, size // block_align


class WavReader:
    """A WAV file read a chunk of samples at a time.

    The chunks are read in turn from the file, from the offset where its
    samples start, so resident memory does not grow with the file.  Where
    scipy can memory-map the encoding, the file is mapped once to learn
    that offset, then unmapped (a mapping would keep the pages it read);
    for 24-bit PCM, which scipy cannot map, a walk of the RIFF chunks
    (``_pcm24_layout``) finds it, and each chunk's 3-byte samples become
    the int32 values scipy makes of them (the sample in the top three
    bytes).  Any other file is read whole, as ``load_wav`` reads it.  The
    checks ``load_wav`` makes are made when the file is opened, with the
    same messages: the encoding, a positive rate and, for float data, the
    first non-finite sample (in channel, then sample order).  ``chunks``
    converts with ``load_wav``'s own code, so the samples are the same.
    """

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        self._packed = False  # 3 bytes a sample in the file, 4 in memory
        self._whole = None  # the samples of a file read whole
        try:
            self.sample_rate, data = _read_wav(self._path, mmap=True)
        except ValueError:
            layout = _pcm24_layout(self._path)
            if layout is None:
                # not 24-bit PCM, or not readable at all, which the plain
                # read reports as load_wav does
                self.sample_rate, data = _read_wav(self._path)
            else:
                data = None
                self.sample_rate, self.num_channels, self._offset, self.num_samples = layout
                self._dtype, self._packed = np.dtype("<i4"), True
        if data is not None:
            data = data if data.ndim == 2 else data[:, np.newaxis]
            if not isinstance(data, np.memmap):
                self._whole = data
            self._offset = data.offset if self._whole is None else 0
            self._dtype = data.dtype
            self.num_samples, self.num_channels = data.shape
            del data  # unmaps the file
        _decode(np.empty((0, 1), self._dtype))  # an unsupported encoding fails here
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self._dtype.kind == "f":
            # scan the raw chunks: the float64 conversion keeps finiteness
            bad = None
            starts = range(0, self.num_samples, _SCAN_SAMPLES)
            for start, frames in zip(starts, self._frames(_SCAN_SAMPLES)):
                found = first_non_finite(frames.T)
                if found is not None:
                    channel, sample = found
                    found = (channel, start + sample)
                    bad = found if bad is None else min(bad, found)
            if bad is not None:
                channel, sample = bad
                raise ValueError(f"non-finite audio sample at channel {channel}, sample {sample}")

    def _frames(self, size: int):
        """The raw samples as consecutive (n, M) chunks of ``size``
        samples; a file not read whole has them read in turn from its
        samples' offset.  No chunk is referenced here once the next is
        asked for."""
        if self._whole is not None:
            for start in range(0, self.num_samples, size):
                yield self._whole[start : start + size]
            return
        with self._path.open("rb", buffering=0) as file:
            file.seek(self._offset)
            for start in range(0, self.num_samples, size):
                yield self._read(file, min(size, self.num_samples - start))

    def _read(self, file, count: int) -> np.ndarray:
        values = count * self.num_channels
        if self._packed:
            raw = np.fromfile(file, np.uint8, 3 * values)
            # scipy's int32: the sample's three bytes above a zero byte
            frames = np.zeros((raw.size // 3, 4), dtype=np.uint8)
            frames[:, 1:] = raw[: 3 * len(frames)].reshape(-1, 3)
            frames = frames.view(self._dtype).ravel()
        else:
            frames = np.fromfile(file, self._dtype, values)
        if frames.size != values:
            raise ValueError(f"WAV file {self._path} changed while it was read")
        return frames.reshape(count, self.num_channels)

    def chunks(self, size: int):
        """The samples as consecutive (M, n) float64 chunks of ``size``
        samples (the last one shorter)."""
        # map drops each raw chunk once it is converted
        yield from map(_decode, self._frames(size))


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
    return _stft(x, cfg)


def _stft(x, cfg: StftConfig, out: np.ndarray | None = None) -> np.ndarray:
    """``stft``, with the transform written into ``out`` when given."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("stft expects a 1-D sample vector")
    num_frames = cfg.num_frames(x.shape[0])
    window = cfg.analysis_window()
    frames = np.lib.stride_tricks.sliding_window_view(x, cfg.frame_len)
    frames = frames[:: cfg.hop][:num_frames]
    return np.fft.rfft(frames * window, n=cfg.fft_size, axis=1, out=out)


def _stft_channels(samples: np.ndarray, cfg: StftConfig, out: np.ndarray) -> None:
    """The STFT of each row of ``samples`` written into the same channel
    of the (M, L, F) ``out``, the channels in two halves (``_in_halves``)."""

    def channels(lo: int, hi: int) -> None:
        for m in range(lo, hi):
            _stft(samples[m], cfg, out[m])

    _in_halves(channels, out.shape[0], 2)


def stft_multichannel(
    audio: MultichannelAudio, cfg: StftConfig = StftConfig()
) -> np.ndarray:
    """Per-channel STFTs as one (M, L, F) tensor.

    The tensor is allocated once and each channel's transform is written
    straight into its slice, so the peak is the tensor plus the windowed
    frames of the (at most two) channels in progress, not two tensors.
    """
    num_frames = cfg.num_frames(audio.num_samples)
    out = np.empty((audio.num_channels, num_frames, cfg.num_bins), dtype=np.complex128)
    _stft_channels(audio.samples, cfg, out)
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
