"""Time-frequency substrate: WAV I/O, framing, STFT/iSTFT.

Audio travels through the pipeline as an ``M x T`` float64 sample matrix
tagged with a sample rate.  Spectrograms are ``(M, L, F)`` complex128
tensors, an ``(L, F)`` plane per channel, with ``F = fft_size // 2 + 1``
one-sided bins.  Frame ``l`` covers samples ``[l * hop, l * hop +
frame_len)`` with no pre-padding, so time-frequency indices are
reproducible across modules.
"""
from __future__ import annotations

import contextvars
import dataclasses
import functools
import math
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
    "stft_multichannel",
    "istft",
]

# The one sample rate of the pipeline (Hz): scenes render at it, and
# ``extract`` and ``enhance`` accept only it.
SAMPLE_RATE = 16000

# Accumulated squared-window values below this are treated as uncovered
# (first/last hop of the signal, where the tapered window never opens).
_WOLA_FLOOR = 1e-10

# Samples per span of WavReader's non-finite scan.
_SCAN_SAMPLES = 1 << 16

# Most bytes of a WAV file that ``WavReader.read`` into a caller's array
# holds at once.
_READ_BYTES = 1 << 17

# Most scratch bytes of a kernel tile: the STFT and the engine's kernels
# walk a block in tiles whose scratch fits an arena of at most this many
# bytes (``_Arena.budget``), so that each ``_in_halves`` half holds one
# such arena, whatever the block's size; only the RTFs of windows wider
# than a tile outgrow it (``coherence._block_whitened_rtf``).  An engine's
# arenas hold less where a half's whole scoring scratch is less
# (``coherence._tile_budget``).  At 0.75 MiB an 8-mic block's RTFs take
# two tiles per half and its scoring one; 1 MiB and 2 MiB ran no faster
# (30 s 8-mic CLI extracts and 8 s 4-mic API runs, best of 18 each on a
# 2-vCPU VM) and hold more.
_TILE_BYTES = 3 << 18

# CPUs this process may run on; with fewer than 2, _alongside and
# _in_halves run inline.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# The one worker thread of _alongside and _in_halves, started on first
# use, and the flag it sets on itself so that a task it runs never waits
# on the worker.
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


def _two_threads() -> bool:
    """Whether a handoff to the worker can run beside the caller: at least
    2 CPUs are available and the caller is not the worker itself (a
    nested task would wait on itself)."""
    return _CPUS >= 2 and not getattr(_on_worker, "active", False)


def _call_popped(box: list):
    """Calls the one callable in ``box``, taken out of it first."""
    return box.pop()()


def _alongside(background, foreground):
    """``(background(), foreground())``, the two run at once.

    The worker thread runs ``background()`` in the caller's context
    (numpy's ``errstate`` is a context variable) while the caller runs
    ``foreground()``.  The two must not depend on each other's effects,
    so the results are those of the calls made one after the other, which
    is how they run when ``_two_threads()`` is false: ``foreground()``,
    then ``background()``.  If the worker has not started ``background``
    by the time ``foreground`` is done, the caller runs it too.  An error
    raised by ``foreground`` wins over one from ``background``, and both
    have ended when this returns or raises.
    """
    global _worker
    if not _two_threads():
        fore = foreground()
        return background(), fore
    with _worker_lock:
        if _worker is None:
            _worker = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="lstsc-halves", initializer=_mark_worker
            )
        worker = _worker
    # The worker takes the task out of a list, and the caller does when it
    # cancels the work item, so that neither an item it has run nor a
    # cancelled one left in its queue keeps the task's arrays alive.
    box = [background]
    pending = worker.submit(contextvars.copy_context().run, _call_popped, box)
    try:
        fore = foreground()
    except BaseException:
        if pending.cancel():
            box.clear()
        else:
            pending.exception()  # wait for it; the foreground's error wins
        raise
    if pending.cancel():
        return _call_popped(box), fore
    return pending.result(), fore


def _in_halves(task, count: int, least: int) -> None:
    """Run ``task(lo, hi)`` over the rows ``[0, count)`` on two cores.

    The caller runs the lower half and the worker the upper one
    (``_alongside``).  The task must write each row's result into arrays
    the caller owns and compute a row the same way whichever rows it is
    given, so the bytes are those of ``task(0, count)``, which is what
    runs instead when ``count < least`` or ``_two_threads()`` is false.
    An error raised by the lower half wins over one from the upper half,
    and both halves have ended when this returns or raises.
    """
    if count < least or not _two_threads():
        task(0, count)
        return
    half = (count + 1) // 2
    _alongside(functools.partial(task, half, count), functools.partial(task, 0, half))


class _Arena:
    """Scratch memory of one ``_in_halves`` half, reused by every tile of
    every kernel that half runs: ``take`` carves views out of one flat
    buffer.  Kernels size their tiles so that a tile's scratch fits
    ``budget`` bytes, but for the RTFs of wide windows; the buffer grows
    to the largest request it has seen, so once a stream's first block
    has run every phase, it is the largest phase's need and no later
    tile allocates."""

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self._buffer = np.empty(0, dtype=np.uint8)

    def take(self, *shapes, dtype=np.float64) -> list[np.ndarray]:
        """One C-contiguous ``dtype`` array per shape, laid out one after
        the other in the buffer; they are valid until the next ``take``."""
        itemsize = np.dtype(dtype).itemsize
        # 64-byte steps keep every view on its own cache lines
        sizes = [-(-math.prod(shape) * itemsize // 64) * 64 for shape in shapes]
        if sum(sizes) > self._buffer.size:
            self._buffer = None  # freed before its successor is allocated
            self._buffer = np.empty(sum(sizes), dtype=np.uint8)
        views, offset = [], 0
        for shape, size in zip(shapes, sizes):
            nbytes = math.prod(shape) * itemsize
            views.append(self._buffer[offset : offset + nbytes].view(dtype).reshape(shape))
            offset += size
        return views


def _tiles(lo: int, hi: int, most: int):
    """``[lo, hi)`` as consecutive ``(a, b)`` tiles of at most ``most``
    rows, as even as the count allows."""
    count = -(-(hi - lo) // max(1, most))
    bounds = [lo + (hi - lo) * k // count for k in range(count + 1)]
    return zip(bounds, bounds[1:])


def _arenas(budget: int | None = None) -> tuple[_Arena, _Arena]:
    """The two halves' arenas, of ``budget`` bytes (``_TILE_BYTES`` when
    None): the lower half (the one that starts at row 0) takes the
    first."""
    budget = _TILE_BYTES if budget is None else budget
    return _Arena(budget), _Arena(budget)


def _check_pipeline_rate(sample_rate: int) -> None:
    """Reject audio that is not at ``SAMPLE_RATE``, naming its rate."""
    if sample_rate != SAMPLE_RATE:
        raise ValueError(f"pipeline entry expects 16 kHz audio, got {sample_rate} Hz")


def _first_non_finite(array: np.ndarray) -> tuple[int, ...] | None:
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
        bad = _first_non_finite(self.samples)
        if bad is not None:
            channel, sample = bad
            raise ValueError(f"non-finite audio sample at channel {channel}, sample {sample}")

    @classmethod
    def _of_finite(cls, samples: np.ndarray, sample_rate: int) -> "MultichannelAudio":
        """An (M, T) float64 matrix with M >= 1, every sample already
        known to be finite, wrapped without ``__post_init__``'s checks and
        its scan of every sample."""
        audio = cls.__new__(cls)
        audio.samples, audio.sample_rate = samples, sample_rate
        return audio

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
        # periodic Hann, square-rooted; built once, shared read-only
        n = np.arange(self.frame_len)
        window = np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * n / self.frame_len))
        window.flags.writeable = False
        object.__setattr__(self, "_window", window)

    @property
    def num_bins(self) -> int:
        return self.fft_size // 2 + 1

    def analysis_window(self) -> np.ndarray:
        """The square-root periodic Hann window, a read-only array."""
        return self._window

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


def _decode(data: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(frames, channels) samples of a dtype of ``_ENCODINGS`` as (M, n)
    float64 in [-1, 1], written into ``out`` when given: PCM divided by
    2 ** (bits - 1) of its dtype, unsigned 8-bit PCM centred on 128
    first."""
    if out is None:
        samples = data.astype(np.float64).T
    else:
        samples = out
        np.copyto(samples, data.T)
    if data.dtype.kind == "u":
        samples -= 128.0
    if data.dtype.kind != "f":
        samples /= 2.0 ** (8 * data.dtype.itemsize - 1)
    return samples


# The sample encodings read, named by kind and bits per sample in the
# file, with their in-memory dtype: PCM of at most 8 bits is unsigned,
# wider PCM signed, and 24-bit PCM is held as int32 with the sample in the
# top three bytes, as scipy's ``wavfile.read`` returns it.
_ENCODINGS = {"uint8": "u1", "int16": "<i2", "int24": "<i4", "int32": "<i4",
              "float32": "<f4", "float64": "<f8"}

# The GUID tail of a WAVE_FORMAT_EXTENSIBLE subformat (RFC 2361); the
# subformat's tag is the GUID's first four bytes.
_EXTENSIBLE_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"

_PCM, _IEEE_FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE


def _wav_layout(path: Path) -> tuple[int, int, np.dtype, int, int, int]:
    """``(rate, channels, dtype, width, data offset, frames)`` of a WAV
    file whose samples take ``width`` bytes in the file and are held as
    ``dtype`` in memory.

    The chunks of a RIFF or RF64 file are walked to the first data chunk,
    and the last fmt chunk before it is read as scipy's ``wavfile.read``
    reads it: plain or ``WAVE_FORMAT_EXTENSIBLE`` with a standard
    subformat, PCM or IEEE float, a sample's width being the block align
    over the channel count.  Other chunks are skipped, odd-sized ones with
    their pad byte.  A missing file raises FileNotFoundError, any other
    file not read so ValueError naming the file and the problem.
    """

    def corrupt(problem: str) -> ValueError:
        return ValueError(f"unsupported or corrupt WAV file {path}: {problem}")

    try:
        file = path.open("rb")
    except FileNotFoundError:
        raise FileNotFoundError(f"file not found: {path}") from None
    except OSError as exc:
        raise corrupt(str(exc)) from exc
    with file:
        head = file.read(12)
        if head[:4] == b"RIFX":
            raise corrupt("big-endian (RIFX) files are not supported")
        if head[:4] not in (b"RIFF", b"RF64") or head[8:] != b"WAVE":
            raise corrupt("not a RIFF WAVE file")
        fmt = rf64_size = None
        while True:
            chunk = file.read(8)
            if len(chunk) < 8:
                raise corrupt("no data chunk")
            name, size = chunk[:4], struct.unpack("<I", chunk[4:])[0]
            if name == b"data":
                break
            body = file.read(min(size, 40)) if name in (b"fmt ", b"ds64") else b""
            if name == b"fmt ":
                fmt = body
            elif name == b"ds64" and len(body) >= 16:
                rf64_size = struct.unpack("<Q", body[8:16])[0]
            file.seek(size + size % 2 - len(body), os.SEEK_CUR)
        offset = file.tell()
        file_bytes = os.fstat(file.fileno()).st_size
    if head[:4] == b"RF64":
        if rf64_size is None:
            raise corrupt("RF64 file without a ds64 chunk")
        size = rf64_size
    if fmt is None or len(fmt) < 16:
        raise corrupt("no whole fmt chunk before the data chunk")
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack("<HHIIHH", fmt[:16])
    if tag == _EXTENSIBLE:
        if len(fmt) < 40 or struct.unpack("<H", fmt[16:18])[0] < 22:
            raise corrupt(f"extensible fmt chunk of {len(fmt)} bytes")
        if fmt[28:40] != _EXTENSIBLE_GUID_TAIL:
            raise corrupt(f"extensible subformat GUID {fmt[24:40].hex()}")
        tag = struct.unpack("<I", fmt[24:28])[0]
    if tag not in (_PCM, _IEEE_FLOAT):
        raise corrupt(f"format tag {tag:#06x}, neither PCM nor IEEE float")
    if channels < 1 or rate < 1:
        raise corrupt(f"{channels} channels at {rate} Hz")
    if tag == _PCM and byte_rate != rate * block_align:
        raise corrupt(f"byte rate {byte_rate} is not {rate} Hz times block align {block_align}")
    width = block_align // channels
    kind = "float" if tag == _IEEE_FLOAT else "uint" if 1 <= bits <= 8 else "int"
    encoding = f"{kind}{8 * width}"
    if kind == "float" and bits not in (32, 64):
        encoding = f"{bits}-bit float"
    if encoding not in _ENCODINGS:
        raise ValueError(f"unsupported WAV sample encoding: {encoding} in {path}")
    if offset + size > file_bytes:
        raise corrupt(f"data chunk runs {offset + size - file_bytes} bytes past the file's end")
    values = size // width
    if values % channels:
        raise corrupt(f"data chunk of {values} samples is not whole frames of {channels}")
    return rate, channels, np.dtype(_ENCODINGS[encoding]), width, offset, values // channels


def _read_span(path: Path, layout: tuple, start: int, stop: int) -> np.ndarray:
    """The raw samples ``[start, stop)``, cut at the last one, of the WAV
    file at ``path`` whose ``_wav_layout`` is ``layout``: an (n, M) array
    of its in-memory dtype, read from the file at the span's offset."""
    if start < 0:
        raise ValueError(f"a span of samples starts at 0 or later, got {start}")
    _, channels, dtype, width, offset, frames = layout
    count = max(0, min(stop, frames) - start)
    values = count * channels
    with path.open("rb", buffering=0) as file:
        file.seek(offset + start * channels * width)
        if width == 3:
            raw = np.fromfile(file, np.uint8, 3 * values)
            # scipy's int32: the sample's three bytes above a zero byte
            span = np.zeros((raw.size // 3, 4), dtype=np.uint8)
            span[:, 1:] = raw[: 3 * len(span)].reshape(-1, 3)
            span = span.view(dtype).ravel()
        else:
            span = np.fromfile(file, dtype, values)
    if span.size != values:
        raise ValueError(f"WAV file {path} changed while it was read")
    return span.reshape(count, channels)


class WavReader:
    """A WAV file whose samples are read a span at a time.

    A walk of the file's chunks (``_wav_layout``) finds the encoding and
    the offset where the samples start, and each span is read from there,
    into an array of its own or a caller's, so resident memory follows
    the span, not the file.  The file is checked when it is opened: its
    layout and encoding, and for float data the first non-finite sample
    (in channel, then sample order), which a scan of the raw samples in
    spans finds.  ``load_wav`` reads the same samples in one span.
    """

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        self._layout = _wav_layout(self._path)
        self.sample_rate, self.num_channels, dtype, _, _, self.num_samples = self._layout
        if dtype.kind == "f":
            # scan the raw spans: the float64 conversion keeps finiteness
            found = []
            for start in range(0, self.num_samples, _SCAN_SAMPLES):
                bad = _first_non_finite(
                    _read_span(self._path, self._layout, start, start + _SCAN_SAMPLES).T
                )
                if bad is not None:
                    found.append((bad[0], start + bad[1]))
            if found:
                channel, sample = min(found)
                raise ValueError(f"non-finite audio sample at channel {channel}, sample {sample}")

    def read(self, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        """Samples ``[start, stop)`` as (M, n) float64, cut at the file's
        last sample, as ``load_wav(path).samples[:, start:stop]``; a start
        below 0 raises ValueError.  With ``out``, an (M, n) or wider
        float64 array, they are decoded into its first n columns, at most
        ``_READ_BYTES`` of the file's bytes at a time, and that view of
        it is returned."""
        if out is None:
            return _decode(_read_span(self._path, self._layout, start, stop))
        _, channels, _, width, _, frames = self._layout
        step = max(1, _READ_BYTES // (channels * width))
        count = max(0, min(stop, frames) - start)
        # one span at least, so that a start below 0 raises
        for a in range(0, max(count, 1), step):
            span = _read_span(self._path, self._layout, start + a, start + min(count, a + step))
            _decode(span, out=out[:, a : a + len(span)])
        return out[:, :count]


def load_wav(path: str | Path) -> MultichannelAudio:
    """Read a PCM or float WAV into channel-major float64 in [-1, 1]: all
    of its samples in one read, scanned for non-finite values once
    decoded."""
    path = Path(path)
    layout = _wav_layout(path)
    rate, *_, frames = layout
    return MultichannelAudio(_decode(_read_span(path, layout, 0, frames)), rate)


def save_wav(path: str | Path, audio: MultichannelAudio) -> None:
    """Write 32-bit float WAV, preserving channel count and rate.

    The file holds a RIFF header, an IEEE-float fmt chunk with a zero
    ``cbSize``, a fact chunk with the frame count and the data chunk: the
    bytes scipy's ``wavfile.write`` writes for float32 data.  Samples of
    more than 4 GiB, which a RIFF file cannot hold, raise ValueError
    before they are cast or the file is opened.
    """
    channels, frames = audio.samples.shape
    rate, nbytes = audio.sample_rate, 4 * channels * frames
    riff_size = 50 + nbytes  # the bytes after the RIFF size field
    if riff_size > 0xFFFFFFFF:
        raise ValueError(
            f"cannot write {path}: {nbytes} bytes of samples do not fit a RIFF WAV file"
        )
    # cast in C order, the order of the file's bytes
    data = audio.samples.T.astype("<f4", order="C")
    header = b"".join([
        b"RIFF", struct.pack("<I", riff_size), b"WAVE",
        b"fmt ", struct.pack("<IHHIIHHH", 18, _IEEE_FLOAT, channels, rate, 4 * channels * rate,
                             4 * channels, 32, 0),
        b"fact", struct.pack("<II", 4, frames),
        b"data", struct.pack("<I", nbytes),
    ])
    with open(path, "wb") as file:
        file.write(header)
        file.write(data.data)


def _stft_channels(
    samples: np.ndarray, cfg: StftConfig, out: np.ndarray, arenas: tuple[_Arena, _Arena]
) -> None:
    """Writes the STFT of each row of ``samples`` into the same channel of
    the (M, L, F) ``out``: the row's first L frames, windowed, zero-padded
    to ``fft_size`` and transformed.

    The frames go in two halves (``_in_halves``), each in tiles that fit
    its arena of ``arenas``; a tile windows its frames straight into a
    zero-padded (tile, ``fft_size``) block of the arena, so ``rfft``
    neither pads nor allocates.  A frame's spectrum is the same bytes
    whichever frames share its tile.
    """
    window = cfg.analysis_window()
    frame_len = cfg.frame_len

    def frames(lo: int, hi: int) -> None:
        arena = arenas[lo > 0]
        tile = max(1, min(hi - lo, arena.budget // (8 * cfg.fft_size)))
        (padded,) = arena.take((tile, cfg.fft_size))
        padded[:, frame_len:] = 0.0
        for row, spectra in zip(samples, out):
            windows = np.lib.stride_tricks.sliding_window_view(row, frame_len)[:: cfg.hop]
            for a, b in _tiles(lo, hi, tile):
                np.multiply(windows[a:b], window, out=padded[: b - a, :frame_len])
                np.fft.rfft(padded[: b - a], axis=1, out=spectra[a:b])

    _in_halves(frames, out.shape[1], 2)


def stft_multichannel(
    audio: MultichannelAudio, cfg: StftConfig = StftConfig()
) -> np.ndarray:
    """Per-channel one-sided STFTs as one (M, L, F) tensor.

    Frames are windowed, zero-padded to ``fft_size`` and transformed;
    ``L = 1 + floor((T - frame_len) / hop)``, no pre-padding, and a clip
    shorter than one frame raises ValueError.  The tensor is allocated
    once and each channel's transform is written straight into its slice,
    a tile of frames at a time, so the peak is the tensor plus two
    halves' tiles of padded frames, not two tensors.
    """
    num_frames = cfg.num_frames(audio.num_samples)
    out = np.empty((audio.num_channels, num_frames, cfg.num_bins), dtype=np.complex128)
    # 192-frame tiles, faster than whole channels (8 mics, 8 s: 14.5-15.0
    # against 16.6 ms on one thread), and the tensor stays the peak
    _stft_channels(audio.samples, cfg, out, _arenas())
    return out


def istft(
    spec: np.ndarray, cfg: StftConfig = StftConfig(), length: int | None = None
) -> np.ndarray:
    """Weighted overlap-add synthesis.

    The synthesis window equals the analysis window and the overlap-added
    signal is divided by the accumulated squared window, so ``istft`` of
    a channel's ``stft_multichannel`` reproduces that channel exactly (up
    to rounding) wherever the window sum is nonzero — in particular on the
    fully overlapped interior.  The first/last partially covered samples
    are tapered.
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
