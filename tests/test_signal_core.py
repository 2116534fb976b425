"""Framing, transforms, WAV I/O, and the mask's range check."""
from __future__ import annotations

import io
import re
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from conftest import (
    UNREADABLE_WAVS, same_bytes, wav_bytes, write_pcm24, write_unreadable_wav
)

from lstsc import signal_core
from lstsc.signal_core import (
    Mask,
    MultichannelAudio,
    StftConfig,
    WavReader,
    istft,
    load_wav,
    save_wav,
    stft_multichannel,
)

CFG = StftConfig()


def stft(x: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """The (L, F) spectrogram of the sample vector ``x``, transformed as
    the one channel of a clip."""
    return stft_multichannel(MultichannelAudio(x[np.newaxis, :], 16000), cfg)[0]


NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


class TestNonFiniteAudio:
    @settings(max_examples=50, deadline=None)
    @given(NON_FINITE, st.integers(0, 2), st.integers(0, 999))
    def test_rejected_naming_position(self, value, channel, sample):
        samples = np.full((3, 1000), 0.25)
        samples[channel, sample] = value
        with pytest.raises(ValueError, match=rf"channel {channel}, sample {sample}$"):
            MultichannelAudio(samples, 16000)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 999)), min_size=2, max_size=2,
                    unique=True))
    def test_both_infinities_rejected_naming_first(self, positions):
        # their sum is NaN, which must not surface as a RuntimeWarning
        samples = np.full((3, 1000), 0.25)
        samples[positions[0]] = np.inf
        samples[positions[1]] = -np.inf
        channel, sample = min(positions)
        with pytest.raises(ValueError, match=rf"channel {channel}, sample {sample}$"):
            MultichannelAudio(samples, 16000)

    def test_first_bad_sample_named(self):
        samples = np.zeros((3, 100))
        samples[2, 5] = np.nan
        samples[1, 70] = -np.inf
        samples[1, 90] = np.inf
        with pytest.raises(ValueError, match="channel 1, sample 70$"):
            MultichannelAudio(samples, 16000)

    def test_overflowing_sum_of_finite_samples_accepted(self):
        audio = MultichannelAudio(np.full((2, 10), 1e308), 16000)
        assert np.isfinite(audio.samples).all()


class TestWavIo:
    def test_header_readback(self, tmp_path, rng):
        audio = MultichannelAudio(0.1 * rng.standard_normal((4, 16000)), 16000)
        path = tmp_path / "four.wav"
        save_wav(path, audio)
        loaded = load_wav(path)
        assert loaded.num_channels == 4
        assert loaded.sample_rate == 16000
        assert loaded.num_samples == 16000

    def test_float_round_trip_bit_identical(self, tmp_path, rng):
        # data already representable in float32 -> lossless round trip
        samples = rng.standard_normal((2, 5000)).astype(np.float32).astype(np.float64)
        path = tmp_path / "rt.wav"
        save_wav(path, MultichannelAudio(samples, 16000))
        loaded = load_wav(path)
        assert loaded.samples.dtype == np.float64
        assert np.array_equal(loaded.samples, samples)

    def test_mono_file_frame_count(self, tmp_path):
        path = tmp_path / "mono.wav"
        save_wav(path, MultichannelAudio(np.zeros((1, 16000)), 16000))
        assert load_wav(path).num_samples == 16000

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="file not found"):
            load_wav(tmp_path / "nope.wav")

    def test_corrupt_file(self, tmp_path):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"RIFFgarbage")
        with pytest.raises(ValueError):
            load_wav(bad)

    def test_int16_scaling(self, tmp_path):
        from scipy.io import wavfile

        path = tmp_path / "pcm.wav"
        wavfile.write(path, 16000, np.array([0, 16384, -32768], dtype=np.int16))
        loaded = load_wav(path)
        assert np.allclose(loaded.samples[0], [0.0, 0.5, -1.0])

    def test_unwritable_destination(self, tmp_path, rng):
        audio = MultichannelAudio(np.zeros((1, 100)), 16000)
        with pytest.raises(OSError):
            save_wav(tmp_path / "no" / "such" / "dir" / "x.wav", audio)


class TestWavReader:
    @pytest.mark.parametrize("encoding", ["int16", "uint8", "float32", "float64", "int24", "mono"])
    @pytest.mark.parametrize("size", [1, 160, 997, 100000])
    def test_chunks_are_load_wav_samples(self, tmp_path, rng, encoding, size):
        x = 0.3 * rng.standard_normal((5000, 3))
        path = tmp_path / "x.wav"
        if encoding == "int24":
            # scaled into the top 24 bits, as scipy returns them
            write_pcm24(path, np.round(x * 2**23).clip(-(2**23), 2**23 - 1).astype(np.int64) << 8)
        elif encoding == "mono":
            wavfile.write(path, 16000, x[:, 0].astype(np.float32))
        else:
            scale = {"int16": 32767, "uint8": 127, "float32": 1, "float64": 1}[encoding]
            offset = 128 if encoding == "uint8" else 0
            wavfile.write(path, 16000, (x * scale + offset).astype(encoding))
        reader = WavReader(path)
        whole = load_wav(path)
        assert (reader.sample_rate, reader.num_channels, reader.num_samples) == (
            16000, whole.num_channels, whole.num_samples
        )
        chunks = [reader.read(lo, lo + size) for lo in range(0, reader.num_samples, size)]
        assert all(chunk.shape[1] == size for chunk in chunks[:-1])
        assert np.concatenate(chunks, axis=1).tobytes() == whole.samples.tobytes()
        for out in (None, np.empty((reader.num_channels, size + 1))):
            with pytest.raises(ValueError, match="starts at 0 or later, got -1"):
                reader.read(-1, size, out)

    @pytest.mark.parametrize("encoding", ["float32", "int24"])
    @pytest.mark.parametrize("first", [1, 2639, 5000, 100000])
    def test_the_first_chunk_may_be_longer(self, tmp_path, rng, encoding, first):
        # spans need not be of one length, and a span past the file's end
        # is cut at it
        x = 0.3 * rng.standard_normal((5000, 3))
        path = tmp_path / "x.wav"
        if encoding == "int24":
            write_pcm24(path, np.round(x * 2**23).clip(-(2**23), 2**23 - 1).astype(np.int64) << 8)
        else:
            wavfile.write(path, 16000, x.astype(np.float32))
        reader = WavReader(path)
        chunks = [reader.read(0, first)]
        chunks += [reader.read(lo, lo + 997) for lo in range(first, 5000, 997)]
        assert [chunk.shape[1] for chunk in chunks[:2]] == [min(first, 5000), 997][: len(chunks)]
        assert all(chunk.shape[1] == 997 for chunk in chunks[1:-1])
        assert np.concatenate(chunks, axis=1).tobytes() == load_wav(path).samples.tobytes()

    @pytest.mark.parametrize(
        "header, scipy_quiet",
        [
            ({}, True),
            ({"extensible": True}, True),
            # an odd-sized chunk is padded to an even length
            ({"before": b"LIST" + struct.pack("<I", 3) + b"abc\0"}, True),
            ({"after": b"JUNK" + struct.pack("<I", 4) + b"\0" * 4}, True),
            # scipy warns about an unknown chunk, which is skipped all the same
            ({"before": b"abcd" + struct.pack("<I", 2) + b"xy"}, False),
        ],
    )
    def test_pcm24_chunks_are_read_from_the_data_offset(self, tmp_path, rng, header, scipy_quiet):
        # 7 frames of 3 channels: 63 bytes, an odd-sized data chunk
        pcm = rng.integers(-(2**23), 2**23, (7, 3)) << 8
        path = tmp_path / "pcm24.wav"
        write_pcm24(path, pcm, **header)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert np.array_equal(wavfile.read(path)[1], pcm)
        assert (not caught) == scipy_quiet
        reader = WavReader(path)
        chunks = np.concatenate([reader.read(lo, lo + 2) for lo in range(0, 7, 2)], axis=1)
        assert chunks.tobytes() == load_wav(path).samples.tobytes()
        assert np.array_equal(chunks, pcm.T / 2.0**31)

    def test_pcm24_samples(self, tmp_path):
        path = tmp_path / "pcm24.wav"
        write_pcm24(path, np.array([[0, -(2**23) << 8], [(2**22) << 8, 1 << 8]]))
        chunk = WavReader(path).read(0, 10)
        assert np.array_equal(chunk, [[0.0, 0.5], [-1.0, 2.0**-23]])

    @pytest.mark.parametrize("encoding", ["float32", "int24"])
    def test_load_wav_reads_the_samples_once(self, tmp_path, monkeypatch, encoding):
        # load_wav scans the decoded samples for non-finite values; it read
        # float data from the file twice, once for a reader's scan
        x = 0.3 * np.random.default_rng(5).standard_normal((70000, 3))
        path = tmp_path / "x.wav"
        if encoding == "int24":
            write_pcm24(path, np.round(x * 2**23).clip(-(2**23), 2**23 - 1).astype(np.int64) << 8)
        else:
            wavfile.write(path, 16000, x.astype(np.float32))
        read = []
        fromfile = np.fromfile

        def counted(*args, **kwargs):
            array = fromfile(*args, **kwargs)
            read.append(array.nbytes)
            return array

        monkeypatch.setattr(np, "fromfile", counted)
        assert load_wav(path).num_samples == 70000
        assert sum(read) == x.size * {"int24": 3, "float32": 4}[encoding]

    @pytest.mark.parametrize("sample", [3, 65535, 65536, 150000])
    def test_first_non_finite_sample_named(self, tmp_path, sample):
        # the scan runs in spans, yet names the first bad entry in
        # channel-then-sample order, as MultichannelAudio does
        x = np.zeros((160000, 3), dtype=np.float32)
        x[sample, 1] = np.nan
        x[159999, 1] = np.inf
        x[0, 2] = -np.inf
        path = tmp_path / "bad.wav"
        wavfile.write(path, 16000, x)
        with pytest.raises(ValueError, match=rf"channel 1, sample {sample}$"):
            WavReader(path)
        with pytest.raises(ValueError, match=rf"channel 1, sample {sample}$"):
            load_wav(path)

    def test_missing_and_corrupt_files(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="file not found"):
            WavReader(tmp_path / "nope.wav")
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"RIFFgarbage")
        with pytest.raises(ValueError, match="unsupported or corrupt WAV file"):
            WavReader(bad)

    def test_a_file_cut_short_while_read_is_rejected(self, tmp_path):
        # the spans are read from the file, not from a mapping, which
        # would fault on the lost pages
        path = tmp_path / "x.wav"
        wavfile.write(path, 16000, np.ones((1000, 2), dtype=np.float32))
        reader = WavReader(path)
        assert reader.read(0, 400).shape == (2, 400)
        with path.open("r+b") as file:
            file.truncate(path.stat().st_size - 4000)
        assert reader.read(0, 400).shape == (2, 400)
        with pytest.raises(ValueError, match="changed while it was read"):
            reader.read(400, 800)

    def test_unsupported_encoding(self, tmp_path):
        path = tmp_path / "int64.wav"
        wavfile.write(path, 16000, np.ones((10, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="unsupported WAV sample encoding: int64"):
            WavReader(path)

    @pytest.mark.parametrize("case", sorted(UNREADABLE_WAVS))
    def test_unreadable_files_are_rejected_naming_the_problem(self, tmp_path, case):
        # a truncated data chunk was read short, and 16-bit RIFX was
        # rejected as the encoding ">i2"
        path = tmp_path / "x.wav"
        write_unreadable_wav(path, case)
        for read in (WavReader, load_wav):
            with pytest.raises(ValueError, match=re.escape(UNREADABLE_WAVS[case])) as caught:
                read(path)
            assert str(path) in str(caught.value)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_reads_and_writes_as_scipy(self, data):
        """Every encoding, channel count, fmt chunk, container and chunk
        list drawn reads as scipy reads it, through ``_parent_decode``, by
        ``load_wav`` and by ``WavReader.read`` of any span (empty, past the
        end, straddling the spans of the reader's non-finite scan), into a
        new array or a wider one of the caller's, decoded in pieces of any
        size, and ``save_wav`` writes scipy's bytes."""
        tag, width, bits = data.draw(st.sampled_from(
            [(1, 1, 8), (1, 1, 4), (1, 2, 16), (1, 2, 12), (1, 3, 24), (1, 3, 20),
             (1, 4, 32), (1, 4, 28), (3, 4, 32), (3, 8, 64)]
        ))
        channels, frames = data.draw(st.integers(1, 9)), data.draw(st.integers(0, 2000))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if tag == 3:  # finite floats
            samples = rng.standard_normal(channels * frames).astype(f"<f{width}").tobytes()
        else:
            samples = rng.integers(0, 256, channels * frames * width, dtype=np.uint8).tobytes()
        chunk = st.builds(
            lambda name, body: name + struct.pack("<I", len(body)) + body + b"\0" * (len(body) % 2),
            st.sampled_from([b"LIST", b"JUNK", b"fact", b"abcd"]), st.binary(max_size=9),
        )
        wav = wav_bytes(
            samples, channels, width, bits, tag,
            rate=data.draw(st.sampled_from([8000, 16000, 44100])),
            extensible=data.draw(st.booleans()),
            before=b"".join(data.draw(st.lists(chunk, max_size=3))),
            after=b"".join(data.draw(st.lists(chunk, max_size=3))),
            container=data.draw(st.sampled_from([b"RIFF", b"RF64"])),
        )
        size = data.draw(st.integers(1, 2500))
        spans = data.draw(st.lists(
            st.tuples(st.integers(0, frames + 9), st.integers(0, frames + 2500)), max_size=6
        ))
        scan = data.draw(st.integers(1, 700))
        piece = data.draw(st.integers(1, 700))
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            signal_core, "_SCAN_SAMPLES", scan
        ), mock.patch.object(signal_core, "_READ_BYTES", piece):
            path = Path(tmp) / "x.wav"
            path.write_bytes(wav)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", wavfile.WavFileWarning)  # unknown chunks
                rate, raw = wavfile.read(path)
            want = _parent_decode(raw)
            loaded = load_wav(path)
            assert loaded.sample_rate == rate and same_bytes(loaded.samples, want)
            reader = WavReader(path)
            chunks = [reader.read(lo, lo + size) for lo in range(0, max(frames, 1), size)]
            assert same_bytes(np.concatenate(chunks, axis=1), want)
            for lo, hi in spans:
                assert same_bytes(reader.read(lo, hi), want[:, lo:hi]), (lo, hi)
                out = np.full((channels, max(0, hi - lo) + 3), np.nan)
                got = reader.read(lo, hi, out)
                assert np.shares_memory(got, out) or got.size == 0
                assert same_bytes(got, want[:, lo:hi]), (lo, hi)

            save_wav(path, loaded)
            cast = want.T.astype(np.float32)
            buffer = io.BytesIO()
            wavfile.write(buffer, rate, cast[:, 0] if channels == 1 else cast)
            assert path.read_bytes() == buffer.getvalue()

    def test_a_write_of_over_4_gib_is_rejected(self, tmp_path):
        # a RIFF file's sizes are 32-bit; the check comes before the cast,
        # so a broadcast view of 2**30 samples (4 GiB as float32) costs no
        # memory
        audio = MultichannelAudio._of_finite(np.broadcast_to(0.0, (1, 2**30)), 16000)
        with pytest.raises(ValueError, match="do not fit a RIFF WAV file"):
            save_wav(tmp_path / "big.wav", audio)
        assert not (tmp_path / "big.wav").exists()


def _parent_decode(data: np.ndarray) -> np.ndarray:
    """scipy's ``wavfile.read`` samples, (frames,) or (frames, channels),
    as (M, n) float64 in [-1, 1]: the conversion ``load_wav`` made of them
    when it read WAV files through scipy."""
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
    return samples.T


class TestStft:
    def test_framing_arithmetic(self):
        x = np.zeros(128000)
        spec = stft(x, CFG)
        assert spec.shape == (798, 257)

    def test_all_zero_input(self):
        spec = stft(np.zeros(4000), CFG)
        assert np.all(spec == 0)

    def test_too_short(self):
        with pytest.raises(ValueError, match="shorter than one frame"):
            stft(np.zeros(399), CFG)

    def test_sinusoid_matches_direct_dft(self):
        # one frame of a bin-centered sinusoid against a hand-rolled DFT
        k = 32
        n = np.arange(CFG.frame_len)
        x = np.cos(2 * np.pi * k * n / CFG.fft_size)
        spec = stft(x, CFG)
        windowed = x * CFG.analysis_window()
        padded = np.concatenate([windowed, np.zeros(CFG.fft_size - CFG.frame_len)])
        t = np.arange(CFG.fft_size)
        direct = np.array(
            [np.sum(padded * np.exp(-2j * np.pi * f * t / CFG.fft_size)) for f in range(257)]
        )
        assert np.allclose(spec[0], direct, atol=1e-9)
        # energy concentrates at bin k; outside the mainlobe nothing may
        # exceed the Hann first sidelobe (-31.5 dB ~ 2.7% of the peak)
        magnitude = np.abs(spec[0])
        assert magnitude.argmax() == k
        far = np.delete(magnitude, range(k - 3, k + 4))
        assert far.max() < 0.03 * magnitude[k]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(2000)
        y = rng.standard_normal(2000)
        a, b = rng.standard_normal(2)
        lhs = stft(a * x + b * y, CFG)
        rhs = a * stft(x, CFG) + b * stft(y, CFG)
        assert np.allclose(lhs, rhs, atol=1e-9 * max(1.0, np.abs(rhs).max()))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_parseval_per_frame(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(1200)
        spec = stft(x, CFG)
        l = int(rng.integers(spec.shape[0]))
        frame = x[l * CFG.hop : l * CFG.hop + CFG.frame_len] * CFG.analysis_window()
        time_energy = np.sum(frame**2)
        row = spec[l]
        spectral = (np.abs(row[0]) ** 2 + 2 * np.sum(np.abs(row[1:-1]) ** 2) + np.abs(row[-1]) ** 2) / CFG.fft_size
        assert abs(time_energy - spectral) <= 1e-9 * max(time_energy, 1e-30)

    def test_multichannel_stacks_channels(self, rng):
        audio = MultichannelAudio(rng.standard_normal((3, 2000)), 16000)
        specs = stft_multichannel(audio, CFG)
        assert specs.shape == (3, 11, 257) and specs.dtype == np.complex128
        for m in range(3):
            assert specs[m].tobytes() == stft(audio.channel(m), CFG).tobytes()

    def test_multichannel_peak_memory(self, rng):
        # the tensor plus one channel's temporaries, not a second tensor
        audio = MultichannelAudio(rng.standard_normal((8, 16000)), 16000)
        tracemalloc.start()
        try:
            specs = stft_multichannel(audio, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * specs.nbytes


def _istft_per_frame(spec, cfg, length=None):
    """Weighted overlap-add one frame at a time: the reference that
    ``istft``'s piecewise adds must reproduce bit for bit."""
    window = cfg.analysis_window()
    frames = np.fft.irfft(spec, n=cfg.fft_size, axis=1)[:, : cfg.frame_len] * window
    total = cfg.frame_len + (spec.shape[0] - 1) * cfg.hop
    out = np.zeros(total)
    wsum = np.zeros(total)
    wsq = window * window
    for l in range(spec.shape[0]):
        start = l * cfg.hop
        out[start : start + cfg.frame_len] += frames[l]
        wsum[start : start + cfg.frame_len] += wsq
    covered = wsum > 1e-10
    out[covered] /= wsum[covered]
    out[~covered] = 0.0
    if length is not None:
        out = out[:length] if length <= total else np.concatenate([out, np.zeros(length - total)])
    return out


@st.composite
def _stft_configs(draw):
    hop = draw(st.integers(1, 40))
    frame_len = draw(st.integers(hop, 80))
    return StftConfig(frame_len, hop, draw(st.integers(frame_len, 96)))


class TestAnalysisWindow:
    @settings(max_examples=30, deadline=None)
    @given(_stft_configs())
    @example(StftConfig())
    def test_built_once_read_only_square_root_hann(self, cfg):
        window = cfg.analysis_window()
        n = np.arange(cfg.frame_len)
        want = np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * n / cfg.frame_len))
        assert (window.dtype, window.tobytes()) == (want.dtype, want.tobytes())
        assert not window.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            window[0] = 0.0
        assert cfg.analysis_window() is window


class TestIstft:
    @settings(max_examples=100, deadline=None)
    @given(_stft_configs(), st.integers(1, 40), st.integers(0, 2**32 - 1), st.data())
    def test_matches_per_frame_overlap_add(self, cfg, num_frames, seed, data):
        rng = np.random.default_rng(seed)
        shape = (num_frames, cfg.num_bins)
        spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        spec[rng.random(shape) < 0.2] = 0.0
        total = cfg.frame_len + (num_frames - 1) * cfg.hop
        length = data.draw(st.none() | st.integers(1, total + cfg.hop))
        got = istft(spec, cfg, length=length)
        assert got.tobytes() == _istft_per_frame(spec, cfg, length).tobytes()

    def test_matches_per_frame_on_default_frames(self, rng):
        for num_frames in (1, 2, 3, 798):
            spec = stft(rng.standard_normal(CFG.frame_len + (num_frames - 1) * CFG.hop), CFG)
            assert istft(spec, CFG).tobytes() == _istft_per_frame(spec, CFG).tobytes()

    def test_interior_round_trip(self, rng):
        x = rng.standard_normal(128000)
        y = istft(stft(x, CFG), CFG, length=len(x))
        interior = slice(CFG.frame_len, len(x) - CFG.frame_len)
        err = np.linalg.norm(y[interior] - x[interior]) / np.linalg.norm(x[interior])
        assert err <= 1e-6

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_interior_round_trip_randomized(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(CFG.frame_len + 4 * CFG.hop, 8000))
        x = rng.standard_normal(n)
        y = istft(stft(x, CFG), CFG, length=n)
        frames = CFG.num_frames(n)
        covered = CFG.frame_len + (frames - 1) * CFG.hop
        interior = slice(CFG.frame_len, covered - CFG.frame_len)
        err = np.linalg.norm(y[interior] - x[interior]) / np.linalg.norm(x[interior])
        assert err <= 1e-6

    def test_zero_spectrogram(self):
        assert np.all(istft(np.zeros((10, 257), dtype=complex), CFG) == 0)

    def test_exact_linearity_doubling(self, rng):
        spec = stft(rng.standard_normal(4000), CFG)
        assert np.array_equal(istft(2 * spec, CFG), 2 * istft(spec, CFG))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            istft(np.zeros((5, 100), dtype=complex), CFG)


class TestMask:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Mask(np.full((2, 3), 1.5))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Mask(np.full((2, 3), -0.1))
        with pytest.raises(ValueError):
            Mask(np.full((2, 3), np.nan))
