"""Command-line surface: exit codes, file contracts, and determinism.

Commands are exercised through ``main(argv)`` so failures surface as
return codes rather than process exits.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from conftest import (
    UNREADABLE_WAVS, delayed_array_audio, savetxt_bytes, write_pcm24, write_unreadable_wav
)

from lstsc import cli
from lstsc.cli import EXIT_CONFIG, EXIT_CONSTRAINT, EXIT_MISSING, EXIT_OK, main
from lstsc.coherence import (
    CoherenceConfig, compute_lstsc, export_features_csv, read_features, write_features
)
from lstsc.enhance import HeuristicMaskEstimator, enhance_stream
from lstsc.roomsim import ROLE_ORDER
from lstsc.scenarios import STEM_KINDS, build_sifting_scenario
from lstsc.signal_core import MultichannelAudio, StftConfig, load_wav, save_wav, stft_multichannel


def _write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def mixture_wav(tmp_path, rng):
    audio = delayed_array_audio(rng, 4, 16000, noise_rms=0.02)
    path = tmp_path / "mix.wav"
    save_wav(path, audio)
    return str(path)


class TestSimulate:
    def test_writes_scene_bundle(self, tmp_path):
        out = tmp_path / "scene"
        config = _write_config(
            tmp_path / "cfg.json",
            {"t60": 0.3, "mix": {"sir_db": 5.0, "snr_db": 30.0, "clip_seconds": 1.0}},
        )
        assert main(["simulate", "--seed", "11", "--config", config,
                     "--out", str(out)]) == EXIT_OK
        for name in ("mixture.wav", "target.wav", "non_target.wav",
                     "interferer.wav", "noise.wav", "scene.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "scene.json").read_text())
        assert manifest["seed"] == 11
        assert manifest["mix"]["sir_db"] == 5.0
        assert len(manifest["sources"]) == 3
        assert len(manifest["mic_positions"]) == 4
        mixture = load_wav(out / "mixture.wav")
        assert mixture.samples.shape == (4, 16000)

    def test_deterministic_bytes(self, tmp_path):
        config = _write_config(
            tmp_path / "cfg.json", {"mix": {"clip_seconds": 1.0}}
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--seed", "3", "--config", config,
                     "--out", str(out_a)]) == EXIT_OK
        assert main(["simulate", "--seed", "3", "--config", config,
                     "--out", str(out_b)]) == EXIT_OK
        assert (out_a / "mixture.wav").read_bytes() == (out_b / "mixture.wav").read_bytes()

    def test_unknown_config_key(self, tmp_path):
        config = _write_config(tmp_path / "cfg.json", {"t6O": 0.3})
        assert main(["simulate", "--seed", "1", "--config", config,
                     "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--seed", "1", "--config", str(bad),
                     "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--seed", "1", "--config",
                     str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "x")]) == EXIT_MISSING

    def test_impossible_constraints(self, tmp_path):
        config = _write_config(
            tmp_path / "cfg.json",
            {"scene": {"range_bounds": [1.9, 2.0], "min_angle_deg": 175.0,
                       "max_attempts": 20}},
        )
        assert main(["simulate", "--seed", "1", "--config", config,
                     "--out", str(tmp_path / "x")]) == EXIT_CONSTRAINT

    @pytest.mark.parametrize(
        "array,key",
        [
            ({"diameter": 0.5}, "diameter"),
            ({"kind": "ula", "diameter": 0.5}, "diameter"),
            ({"kind": "ula", "positions": [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]}, "positions"),
            ({"kind": "circular", "spacing": 0.1}, "spacing"),
            ({"kind": "positions", "positions": [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]],
              "num_mics": 2}, "num_mics"),
        ],
    )
    def test_key_of_another_array_kind_exits_2_naming_it(self, tmp_path, capsys, array, key):
        config = _write_config(tmp_path / "cfg.json", {"array": array})
        out = tmp_path / "x"
        assert main(["simulate", "--seed", "1", "--config", config,
                     "--out", str(out)]) == EXIT_CONFIG
        assert f"unknown config key 'array.{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "scene,key",
        [({"room_dims": [6.0, 5.0]}, "room_dims"), ({"range_bounds": [1.0]}, "range_bounds")],
    )
    def test_scene_vector_of_wrong_length_exits_4_naming_it(self, tmp_path, capsys, scene, key):
        config = _write_config(tmp_path / "cfg.json", {"scene": scene})
        out = tmp_path / "x"
        assert main(["simulate", "--seed", "1", "--config", config,
                     "--out", str(out)]) == EXIT_CONSTRAINT
        assert f"{key} must hold" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["sir_db", "snr_db"])
    @pytest.mark.parametrize("level", [4000, -4000])
    def test_level_whose_power_ratio_overflows_exits_4_naming_it(self, tmp_path, capsys, field, level):
        config = _write_config(
            tmp_path / "cfg.json",
            {"mix": {"clip_seconds": 3.0, field: level, "allow_off_grid": True}},
        )
        out = tmp_path / "x"
        assert main(["simulate", "--seed", "0", "--config", config,
                     "--out", str(out)]) == EXIT_CONSTRAINT
        assert f"{field} {float(level)} dB gives a power ratio" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mix",
        [{"clip_seconds": 1, "snr_db": -3000}, {"clip_seconds": 1, "snr_db": -3200},
         {"clip_seconds": 3, "sir_db": -3000}],
        ids=["snr-3000", "snr-3200", "sir-3000"],
    )
    def test_mix_that_overflows_float32_exits_4_naming_it(self, tmp_path, capsys, mix):
        # MixSpec accepts these levels (their power ratios are positive
        # floats), but the gains they ask for push samples past float32
        config = _write_config(tmp_path / "cfg.json", {"mix": {**mix, "allow_off_grid": True}})
        out = tmp_path / "x"
        assert main(["simulate", "--seed", "0", "--config", config,
                     "--out", str(out)]) == EXIT_CONSTRAINT
        assert "the mix overflows float32 WAV samples" in capsys.readouterr().err
        assert not out.exists()

    def test_non_positive_range_low_end_exits_4_naming_it(self, tmp_path, capsys):
        config = _write_config(tmp_path / "cfg.json", {"scene": {"range_bounds": [0.0, 2.0]}})
        out = tmp_path / "x"
        assert main(["simulate", "--seed", "1", "--config", config,
                     "--out", str(out)]) == EXIT_CONSTRAINT
        assert "range_bounds must have a positive low end" in capsys.readouterr().err
        assert not out.exists()

    def test_clip_shorter_than_one_sample_exits_4_naming_it(self, tmp_path, capsys):
        config = _write_config(tmp_path / "cfg.json", {"mix": {"clip_seconds": 1e-6}})
        out = tmp_path / "x"
        assert main(["simulate", "--seed", "1", "--config", config,
                     "--out", str(out)]) == EXIT_CONSTRAINT
        assert "clip_seconds must span at least one sample" in capsys.readouterr().err
        assert not out.exists()

    def test_all_silent_scene_writes_strict_json(self, tmp_path, capsys):
        silence = {"kind": "silence"}
        config = _write_config(
            tmp_path / "cfg.json",
            {"mix": {"clip_seconds": 1.0}, "stems": dict.fromkeys(ROLE_ORDER, silence)},
        )
        out = tmp_path / "scene"
        assert main(["simulate", "--seed", "1", "--config", config,
                     "--out", str(out)]) == EXIT_OK
        assert "(SIR n/a dB, SNR n/a dB)" in capsys.readouterr().out

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        manifest = json.loads((out / "scene.json").read_text(), parse_constant=reject)
        assert manifest["realized_sir_db"] is None and manifest["realized_snr_db"] is None

    def test_off_centroid_positions_array(self, tmp_path):
        # the ring is checked around the mic centroid, 0.43 m from the
        # array's origin here; the sampler keeps only draws that pass it
        positions = [[0.3, 0.3, 0.0], [0.34, 0.3, 0.0], [0.3, 0.34, 0.0]]
        config = _write_config(
            tmp_path / "cfg.json",
            {"array": {"kind": "positions", "positions": positions}, "mix": {"clip_seconds": 1.0}},
        )
        out = tmp_path / "scene"
        assert main(["simulate", "--seed", "1", "--config", config,
                     "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "scene.json").read_text())
        centroid = np.mean(manifest["mic_positions"], axis=0)
        ranges = [np.linalg.norm(np.subtract(src["position"], centroid))
                  for src in manifest["sources"]]
        assert all(0.7 <= r <= 2.0 for r in ranges)
        assert ranges[0] <= min(ranges) + 1e-9

    @pytest.mark.parametrize("path", [("mix", "sir_db"), ("t60",)])
    def test_integer_too_large_for_a_float_exits_2(self, tmp_path, capsys, path):
        text = "9" * 400
        for key in reversed(path):
            text = f'{{"{key}": {text}}}'
        config = tmp_path / "cfg.json"
        config.write_text(text)
        out = tmp_path / "x"
        assert main(["simulate", "--seed", "1", "--config", str(config),
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(config) in err and "400-digit integer, too large" in err
        assert not out.exists()

    def test_integer_spellings_keep_the_bytes(self, tmp_path):
        # the settings objects receive the config's numbers as written
        def spelled(number):
            return {
                "array": {"kind": "circular", "num_mics": 3, "diameter": number(1)},
                "scene": {"min_angle_deg": number(20)},
                "mix": {"sir_db": number(5), "snr_db": number(25), "clip_seconds": number(2)},
                "stems": {"target": {"rms": number(1)}},
            }

        bundles = {}
        for number in (int, float):
            out = tmp_path / number.__name__
            config = _write_config(tmp_path / f"{number.__name__}.json", spelled(number))
            assert main(["simulate", "--seed", "2", "--config", config,
                         "--out", str(out)]) == EXIT_OK
            manifest = json.loads((out / "scene.json").read_text())
            assert manifest.pop("config_echo") == spelled(number)
            wavs = {path.name: path.read_bytes() for path in sorted(out.glob("*.wav"))}
            bundles[number] = manifest, wavs
        assert len(bundles[int][1]) == 5
        assert bundles[int] == bundles[float]
        assert json.dumps(bundles[int][0]) == json.dumps(bundles[float][0])


class TestSceneRecipe:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_default_scene_is_the_sifting_scenario(self, tmp_path, seed):
        # `simulate` without a config and the sifting builder render
        # through the same seeded recipe
        assert main(["simulate", "--seed", str(seed), "--out", str(tmp_path)]) == EXIT_OK
        _, written = wavfile.read(tmp_path / "mixture.wav")
        expected = build_sifting_scenario(seed).mixture.samples.astype(np.float32)
        assert np.array_equal(written.T, expected)

    @staticmethod
    def _render(tmp_path, name, stems):
        config = _write_config(
            tmp_path / f"{name}.json", {"mix": {"clip_seconds": 2.0}, "stems": stems}
        )
        out = tmp_path / name
        assert main(["simulate", "--seed", "5", "--config", config,
                     "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "scene.json").read_text())
        images = {role: load_wav(out / f"{role}.wav").samples for role in ROLE_ORDER}
        return manifest, images

    @pytest.mark.parametrize("role", ROLE_ORDER)
    @pytest.mark.parametrize("kind", sorted(STEM_KINDS))
    def test_stem_kind_and_rms_in_each_role(self, tmp_path, kind, role):
        low, low_images = self._render(tmp_path, "low", {role: {"kind": kind, "rms": 0.02}})
        high, high_images = self._render(tmp_path, "high", {role: {"kind": kind, "rms": 0.04}})
        assert low["stem_kinds"][role] == kind
        if kind == "silence":
            assert not low_images[role].any() and not high_images[role].any()
            return
        assert low_images[role].any()
        if role == "target":
            # the target keeps unit gain, so its image follows the level
            assert low["gains"]["target"] == 1.0
            np.testing.assert_allclose(high_images[role], 2.0 * low_images[role], rtol=1e-6)
        else:
            # other roles are levelled against the target: the gain undoes rms
            assert high["gains"][role] == pytest.approx(low["gains"][role] / 2.0, rel=1e-9)
            np.testing.assert_allclose(high_images[role], low_images[role], rtol=1e-5, atol=1e-9)

    def test_unknown_stem_kind_exits_2_naming_it(self, tmp_path, capsys):
        config = _write_config(
            tmp_path / "cfg.json", {"stems": {"interferer": {"kind": "babble"}}}
        )
        assert main(["simulate", "--seed", "1", "--config", config,
                     "--out", str(tmp_path / "x")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'babble'" in err and "stems.interferer.kind" in err
        assert not (tmp_path / "x").exists()


class TestRir:
    def test_writes_rirs_and_meta(self, tmp_path):
        config = _write_config(
            tmp_path / "cfg.json",
            {
                "room": {"dims": [6.0, 5.0, 3.0], "absorption": 0.4},
                "source": [2.0, 2.0, 1.5],
                "mics": [[3.0, 2.5, 1.2], [3.08, 2.5, 1.2]],
                "duration": 0.1,
            },
        )
        out = tmp_path / "rirs"
        assert main(["rir", "--config", config, "--out", str(out)]) == EXIT_OK
        meta = json.loads((out / "rir_meta.json").read_text())
        assert len(meta["rirs"]) == 2
        for k, entry in enumerate(meta["rirs"]):
            rir = load_wav(out / f"rir_mic{k}.wav")
            assert rir.num_samples == int(0.1 * 16000)
            expected_delay = round(entry["distance_m"] / 343.0 * 16000)
            assert entry["direct_delay_samples"] == expected_delay

    def test_requires_config(self, tmp_path):
        assert main(["rir", "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    @pytest.mark.parametrize("duration", [0, -0.1])
    def test_non_positive_duration_rejected(self, tmp_path, capsys, duration):
        config = _write_config(
            tmp_path / "cfg.json",
            {
                "room": {"dims": [6.0, 5.0, 3.0], "absorption": 0.4},
                "source": [2.0, 2.0, 1.5],
                "mics": [[3.0, 2.5, 1.2], [3.08, 2.5, 1.2]],
                "duration": duration,
            },
        )
        out = tmp_path / "rirs"
        assert main(["rir", "--config", config, "--out", str(out)]) == EXIT_CONSTRAINT
        assert "duration" in capsys.readouterr().err
        assert not out.exists()


def _non_finite_in_last_chunk():
    # extract reads 10240 samples a chunk: these are in the last one
    samples = np.zeros((200000, 4), dtype=np.float32)
    samples[199990, 2] = np.nan
    samples[199995, 3] = np.inf
    return 16000, samples


class TestExtract:
    @pytest.mark.parametrize(
        "variant,width,planes",
        [("lstsc-1", 257, 3), ("lstsc-3", 257, 4), ("lstsc-4", 48, 4)],
    )
    def test_header_contract(self, tmp_path, mixture_wav, variant, width, planes):
        out = tmp_path / f"{variant}.lsts"
        assert main(["extract", "--in", mixture_wav, "--variant", variant,
                     "--out", str(out)]) == EXIT_OK
        magic, version, num_frames, got_width, got_planes = struct.unpack(
            "<4sIIII", out.read_bytes()[:20]
        )
        assert magic == b"LSTS" and version == 1
        assert num_frames == 98  # 1 + (16000 - 400) // 160
        assert (got_width, got_planes) == (width, planes)
        back = read_features(out)
        assert back["planes"][0].shape == (98, width)

    def test_csv_sidecars(self, tmp_path, mixture_wav):
        # each plane's bytes are those of np.savetxt with "%.9e"
        planes = {"gamma_local": "gamma_local", "gamma_global": "gamma_global",
                  "gamma_global_warped": "gamma_global_warped", "lambda": "lambda_trace"}
        specs = stft_multichannel(load_wav(mixture_wav), StftConfig())
        for variant, prefix in (("lstsc-3", ""), ("lstsc-4", "banded_")):
            out = tmp_path / variant / "feat.lsts"
            assert main(["extract", "--in", mixture_wav, "--variant", variant,
                         "--csv", "--out", str(out)]) == EXIT_OK
            features = compute_lstsc(specs, CoherenceConfig.for_variant(variant))
            assert sorted(path.name for path in out.parent.glob("feat.*.csv")) == sorted(
                f"feat.{name}.csv" for name in planes
            )
            for name, attr in planes.items():
                want = savetxt_bytes(getattr(features, prefix + attr))
                assert (out.parent / f"feat.{name}.csv").read_bytes() == want

    @pytest.mark.parametrize("variant", ["lstsc-1", "lstsc-2", "lstsc-3", "lstsc-4"])
    @pytest.mark.parametrize(
        "num_frames,num_mics", [(65, 3), (89, 2), (90, 4), (128, 3), (769, 8)],
        ids=["last-1", "last-25", "last-26", "last-64", "8mic-last-1"],
    )
    def test_streamed_bytes_equal_whole_clip(self, tmp_path, variant, num_frames, num_mics):
        # extract streams the WAV through the engine a chunk at a time; its
        # files are those of the whole-clip API writers
        rng = np.random.default_rng(num_frames)
        num_samples = 400 + 160 * (num_frames - 1) + 37
        _assert_streamed_bytes(tmp_path, 0.1 * rng.standard_normal((num_samples, num_mics)), variant)

    def test_pcm24_input(self, tmp_path):
        # 3 bytes a sample in the file, 4 in the chunks read from it
        rng = np.random.default_rng(24)
        pcm = rng.integers(-(2**23), 2**23, (16000, 3)) << 8
        wav = tmp_path / "pcm24.wav"
        write_pcm24(wav, pcm)
        out = tmp_path / "f.lsts"
        assert main(["extract", "--in", str(wav), "--variant", "lstsc-4", "--out", str(out)]) == EXIT_OK
        features = compute_lstsc(
            stft_multichannel(load_wav(wav)), CoherenceConfig.for_variant("lstsc-4")
        )
        write_features(tmp_path / "whole.lsts", features)
        assert out.read_bytes() == (tmp_path / "whole.lsts").read_bytes()

    @pytest.mark.parametrize(
        "make,words",
        [
            (lambda: (16000, np.zeros((0, 3), np.float32)), "shorter than one frame (0 < 400)"),
            (lambda: (16000, np.zeros((399, 3), np.float32)), "shorter than one frame (399 < 400)"),
            (lambda: (8000, np.zeros((8000, 3), np.float32)), "expects 16 kHz audio, got 8000 Hz"),
            (lambda: (16000, np.zeros(8000, np.float32)), "requires at least 2 microphones"),
            (_non_finite_in_last_chunk, "non-finite audio sample at channel 2, sample 199990"),
        ],
        ids=["empty", "short", "rate", "one-channel", "non-finite-last-chunk"],
    )
    def test_rejected_before_anything_is_written(self, tmp_path, capsys, make, words):
        wav = tmp_path / "in.wav"
        wavfile.write(wav, *make())
        out = tmp_path / "out" / "f.lsts"
        assert main(["extract", "--in", str(wav), "--variant", "lstsc-4", "--csv",
                     "--out", str(out)]) == EXIT_CONSTRAINT
        assert words in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [wav]

    @pytest.mark.parametrize("case", sorted(UNREADABLE_WAVS))
    def test_unreadable_wav_exits_4_naming_file_and_problem(self, tmp_path, capsys, case):
        # a truncated data chunk was extracted short, with exit 0
        wav = tmp_path / "in.wav"
        write_unreadable_wav(wav, case)
        out = tmp_path / "out" / "f.lsts"
        assert main(["extract", "--in", str(wav), "--out", str(out)]) == EXIT_CONSTRAINT
        err = capsys.readouterr().err
        assert str(wav) in err and UNREADABLE_WAVS[case] in err
        assert list(tmp_path.iterdir()) == [wav]

    def test_peak_memory_flat_in_clip_length(self, tmp_path):
        # one engine block and one chunk of samples and spectra, whatever
        # the clip's length
        peaks = {}
        rng = np.random.default_rng(80)
        for seconds in (8, 80):
            wav = tmp_path / f"{seconds}s.wav"
            wavfile.write(wav, 16000, 0.1 * rng.standard_normal((16000 * seconds, 8), dtype=np.float32))
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(["extract", "--in", str(wav), "--variant", "lstsc-4",
                                 "--out", str(tmp_path / "f.lsts")])
                peaks[seconds] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == EXIT_OK
            wav.unlink()
        assert abs(peaks[80] - peaks[8]) <= 0.1 * peaks[8], peaks

    def test_missing_input(self, tmp_path):
        assert main(["extract", "--in", str(tmp_path / "nope.wav"),
                     "--variant", "lstsc-3",
                     "--out", str(tmp_path / "x.lsts")]) == EXIT_MISSING

    def test_mono_input_rejected(self, tmp_path, rng):
        from lstsc.signal_core import MultichannelAudio

        path = tmp_path / "mono.wav"
        save_wav(path, MultichannelAudio(rng.standard_normal((1, 8000)), 16000))
        assert main(["extract", "--in", str(path), "--variant", "lstsc-3",
                     "--out", str(tmp_path / "x.lsts")]) == EXIT_CONSTRAINT

    def test_unknown_variant_rejected(self, tmp_path, mixture_wav):
        assert main(["extract", "--in", mixture_wav, "--variant", "lstsc-9",
                     "--out", str(tmp_path / "x.lsts")]) == EXIT_CONFIG

    def test_config_override(self, tmp_path, mixture_wav):
        config = _write_config(tmp_path / "cfg.json", {"R": 2})
        out = tmp_path / "feat.lsts"
        assert main(["extract", "--in", mixture_wav, "--variant", "lstsc-1",
                     "--config", config, "--out", str(out)]) == EXIT_OK

    def test_unknown_config_key(self, tmp_path, mixture_wav):
        config = _write_config(tmp_path / "cfg.json", {"lambda": 0.5})
        assert main(["extract", "--in", mixture_wav, "--variant", "lstsc-1",
                     "--config", config,
                     "--out", str(tmp_path / "x.lsts")]) == EXIT_CONFIG

    def test_deterministic(self, tmp_path, mixture_wav):
        a, b = tmp_path / "a.lsts", tmp_path / "b.lsts"
        main(["extract", "--in", mixture_wav, "--variant", "lstsc-3", "--out", str(a)])
        main(["extract", "--in", mixture_wav, "--variant", "lstsc-3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


    @pytest.mark.parametrize("variant", ["lstsc-1", "lstsc-4"])
    @pytest.mark.parametrize("R", [1, 3])
    def test_traced_peak_holds_one_block(self, tmp_path, variant, R):
        # 8 mics: the peak holds one block's spectra and its 2R window
        # frames (about 1.2 RTF blocks), its RTFs and one tracker's state
        # stack (1 each), the coherence temporaries of two 16-frame slices
        # (about 1.2), and the WAV chunk and the extractor's samples (0.36
        # each): 4.5-5.0 RTF blocks, and the bound leaves 10% above that.
        # With each block waiting for the next chunk's lookahead and whole
        # halves scored at once, it read 6.6-7.3
        rng = np.random.default_rng(R)
        wav = tmp_path / "mix.wav"
        wavfile.write(wav, 16000, (0.1 * rng.standard_normal((3 * 16000, 8))).astype(np.float32))
        argv = ["extract", "--in", str(wav), "--variant", variant,
                "--config", _write_config(tmp_path / "r.json", {"R": R}),
                "--out", str(tmp_path / "f.lsts")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == EXIT_OK  # imports and caches outside the trace
            tracemalloc.start()
            try:
                assert main(argv) == EXIT_OK
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        rtf_block = 64 * 257 * 7 * np.dtype(np.complex128).itemsize
        assert peak < 5.5 * rtf_block, peak / rtf_block

    @pytest.mark.parametrize("R", [0, 3, 70])
    def test_streamed_bytes_equal_whole_clip_at_any_r(self, tmp_path, R):
        # the first chunk read is longer by R hops: the files are still
        # those of the whole-clip API writers
        rng = np.random.default_rng(R)
        _assert_streamed_bytes(tmp_path, 0.1 * rng.standard_normal((400 + 160 * 199, 3)), "lstsc-4", R=R)


def _assert_streamed_bytes(tmp_path, samples, variant, **config) -> None:
    """``extract --csv`` of the (n, M) ``samples``, as a float32 WAV, with
    ``config`` overriding the variant's settings, writes the files of the
    whole-clip API writers."""
    wav = tmp_path / "mix.wav"
    wavfile.write(wav, 16000, samples.astype(np.float32))
    out = tmp_path / "stream" / "f.lsts"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["extract", "--in", str(wav), "--variant", variant, "--csv",
                     "--config", _write_config(tmp_path / "config.json", config),
                     "--out", str(out)]) == EXIT_OK
    features = compute_lstsc(
        stft_multichannel(load_wav(wav)), CoherenceConfig.for_variant(variant, **config)
    )
    whole = tmp_path / "whole" / "f.lsts"
    whole.parent.mkdir()
    write_features(whole, features)
    export_features_csv(whole, features)
    names = sorted(path.name for path in whole.parent.iterdir())
    assert sorted(path.name for path in out.parent.iterdir()) == names
    for name in names:
        assert (out.parent / name).read_bytes() == (whole.parent / name).read_bytes(), name


class TestEnhance:
    def test_writes_wav_and_mask(self, tmp_path, mixture_wav):
        out = tmp_path / "enhanced.wav"
        assert main(["enhance", "--in", mixture_wav, "--variant", "lstsc-3",
                     "--out", str(out)]) == EXIT_OK
        enhanced = load_wav(out)
        assert enhanced.num_channels == 1
        assert enhanced.num_samples == 16000
        mask = np.loadtxt(tmp_path / "enhanced.mask.csv", delimiter=",")
        assert mask.shape == (98, 257)
        assert mask.min() >= 0.0 and mask.max() <= 1.0
        result = enhance_stream(
            load_wav(mixture_wav), CoherenceConfig.for_variant("lstsc-3"), HeuristicMaskEstimator()
        )
        want = savetxt_bytes(result.mask.data)
        assert (tmp_path / "enhanced.mask.csv").read_bytes() == want

    def test_explicit_mask_path(self, tmp_path, mixture_wav):
        out = tmp_path / "e.wav"
        mask_out = tmp_path / "custom_mask.csv"
        assert main(["enhance", "--in", mixture_wav, "--variant", "lstsc-2",
                     "--out", str(out), "--mask-out", str(mask_out)]) == EXIT_OK
        assert mask_out.exists()


class TestNonFiniteInput:
    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from(["extract", "enhance"]),
        st.sampled_from([np.nan, np.inf, -np.inf]),
        st.integers(0, 2),
        st.integers(0, 15999),
    )
    def test_rejected_with_exit_4(self, command, value, channel, sample):
        rng = np.random.default_rng(channel * 16000 + sample)
        samples = (0.1 * rng.standard_normal((16000, 3))).astype(np.float32)
        samples[sample, channel] = value
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bad.wav"
            wavfile.write(path, 16000, samples)
            out = Path(tmp) / "out"
            with contextlib.redirect_stderr(stderr):
                code = main([command, "--in", str(path), "--out", str(out)])
            assert not out.exists()
        assert code == EXIT_CONSTRAINT
        assert f"non-finite audio sample at channel {channel}, sample {sample}" in (
            stderr.getvalue()
        )



class TestShortInput:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["extract", "enhance"]), st.integers(0, 399), st.integers(2, 4))
    @example("extract", 0, 2)
    @example("enhance", 0, 3)
    @example("enhance", 399, 2)
    def test_shorter_than_one_frame_exits_4(self, command, num_samples, channels):
        rng = np.random.default_rng(num_samples)
        samples = (0.1 * rng.standard_normal((num_samples, channels))).astype(np.float32)
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "short.wav"
            wavfile.write(path, 16000, samples)
            with contextlib.redirect_stderr(stderr):
                code = main([command, "--in", str(path), "--out", str(Path(tmp) / "out")])
            assert list(Path(tmp).iterdir()) == [path]
        assert code == EXIT_CONSTRAINT
        assert "shorter than one frame" in stderr.getvalue()


class TestVariantSettingKeys:
    """``--variant`` alone sets the time-varying schedule, the warp and the
    bands; a config naming one of them is rejected, agreeing or not."""

    @pytest.mark.parametrize("command", ["extract", "enhance"])
    @pytest.mark.parametrize(
        "key,value",
        [("time_varying", True), ("time_varying", False), ("apply_arcsine", True),
         ("apply_arcsine", False), ("erb_bands", None), ("erb_bands", 48)],
    )
    def test_exits_2_naming_the_key(self, tmp_path, mixture_wav, capsys, command, key, value):
        config = _write_config(tmp_path / "cfg.json", {key: value})
        out = tmp_path / "out"
        assert main([command, "--in", mixture_wav, "--variant", "lstsc-3",
                     "--config", config, "--out", str(out)]) == EXIT_CONFIG
        assert f"unknown config key '{key}'" in capsys.readouterr().err
        assert not out.exists()

def _schema_keys(schema, prefix=()):
    """(dotted path, expected types) of every key, sections included."""
    for key, expected in schema.items():
        path = prefix + (key,)
        if isinstance(expected, dict):
            yield path, (dict,)
            yield from _schema_keys(expected, path)
        else:
            yield path, expected


_CONFIG_SCHEMAS = {
    "rir": cli._RIR_CONFIG_KEYS,
    "simulate": cli._SIMULATE_CONFIG_KEYS,
    "extract": cli._COHERENCE_KEYS,
}
_EXPECTED_TYPES = {
    (command, path): expected
    for command, schema in _CONFIG_SCHEMAS.items()
    for path, expected in _schema_keys(schema)
}


def _json_kinds(expected):
    """JSON kinds a schema entry admits; a number may be written as an integer."""
    kinds = {int: {"integer"}, float: {"integer", "number"}, bool: {"boolean"},
             str: {"string"}, list: {"vector"}, type(None): {"null"}, dict: {"object"}}
    return set().union(*(kinds[t] for t in expected))


def _json_kind(value):
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, list):
        return "vector" if all(_json_kind(v) in ("integer", "number", "vector") for v in value) else "list"
    return {int: "integer", float: "number", str: "string", type(None): "null", dict: "object"}[type(value)]


class TestConfigTypes:
    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(sorted(_EXPECTED_TYPES)),
        st.sampled_from(["x", "0.1", True, 1.5, 3, None, [1.0, 2], [[0.5, "x"]], {"a": 1}]),
    )
    @example(("rir", ("duration",)), "0.1")
    @example(("simulate", ("array", "num_mics")), "four")
    @example(("extract", ("R",)), 1.5)
    def test_wrong_type_exits_2_naming_the_key(self, case, value):
        command, path = case
        assume(_json_kind(value) not in _json_kinds(_EXPECTED_TYPES[case]))
        config = value
        for key in reversed(path):
            config = {key: config}
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = Path(tmp) / "cfg.json"
            cfg_path.write_text(json.dumps(config))
            out = Path(tmp) / "out"
            argv = [command, "--config", str(cfg_path), "--out", str(out)]
            if command == "simulate":
                argv += ["--seed", "1"]
            if command == "extract":
                argv += ["--in", str(Path(tmp) / "unread.wav")]
            with contextlib.redirect_stderr(stderr):
                code = main(argv)
            assert not out.exists()
        assert code == EXIT_CONFIG
        assert f"'{'.'.join(path)}'" in stderr.getvalue()


# the coherence keys reach `enhance` too
_NON_FINITE_CASES = sorted(_EXPECTED_TYPES) + [
    ("enhance", path) for command, path in sorted(_EXPECTED_TYPES) if command == "extract"
]


class TestNonFiniteConfig:
    """NaN and Infinity, which Python's json reads though JSON has no such
    numbers, and numbers that overflow to infinity are rejected wherever
    they stand, before anything is written."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(_NON_FINITE_CASES), st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400"]))
    @example(("simulate", ("scene", "min_angle_deg")), "NaN")
    @example(("simulate", ("mix", "clip_seconds")), "Infinity")
    @example(("simulate", ("t60",)), "Infinity")
    @example(("enhance", ("beta",)), "NaN")
    @example(("rir", ("room", "t60")), "-Infinity")
    def test_exits_2_naming_the_token(self, case, token):
        command, path = case
        text = token
        for key in reversed(path):
            text = f'{{"{key}": {text}}}'
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = Path(tmp) / "cfg.json"
            cfg_path.write_text(text)
            out = Path(tmp) / "out"
            argv = [command, "--config", str(cfg_path), "--out", str(out)]
            if command == "simulate":
                argv += ["--seed", "1"]
            if command in ("extract", "enhance"):
                argv += ["--in", str(Path(tmp) / "unread.wav")]
            with contextlib.redirect_stderr(stderr):
                code = main(argv)
            assert not out.exists()
        assert code == EXIT_CONFIG
        assert f"non-finite number {token}" in stderr.getvalue()


class TestEvaluate:
    def test_appends_jsonl(self, tmp_path, rng):
        ref = delayed_array_audio(rng, 1, 8000)
        est_samples = ref.samples + 0.01 * rng.standard_normal((1, 8000))
        ref_path, est_path = tmp_path / "ref.wav", tmp_path / "est.wav"
        save_wav(ref_path, ref)
        save_wav(est_path, MultichannelAudio(est_samples, 16000))
        report = tmp_path / "report.jsonl"
        for label in ("first", "second"):
            assert main(["evaluate", "--ref", str(ref_path), "--est", str(est_path),
                         "--out", str(report), "--label", label]) == EXIT_OK
        lines = [json.loads(line) for line in report.read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0]["label"] == "first"
        assert np.isfinite(lines[0]["si_sdr_db"])

    def test_sample_rate_mismatch_exits_4(self, tmp_path, rng, capsys):
        # the same samples saved at 8 kHz scored 100 dB against the 16 kHz
        # reference
        samples = delayed_array_audio(rng, 1, 8000).samples
        ref_path, est_path = tmp_path / "ref.wav", tmp_path / "est.wav"
        save_wav(ref_path, MultichannelAudio(samples, 16000))
        save_wav(est_path, MultichannelAudio(samples, 8000))
        report = tmp_path / "report.jsonl"
        assert main(["evaluate", "--ref", str(ref_path), "--est", str(est_path),
                     "--out", str(report)]) == EXIT_CONSTRAINT
        err = capsys.readouterr().err
        assert f"{ref_path} is at 16000 Hz" in err and f"{est_path} at 8000 Hz" in err
        assert not report.exists()

    def test_missing_reference(self, tmp_path, rng):
        est = tmp_path / "est.wav"
        save_wav(est, delayed_array_audio(rng, 1, 4000))
        assert main(["evaluate", "--ref", str(tmp_path / "none.wav"),
                     "--est", str(est),
                     "--out", str(tmp_path / "r.jsonl")]) == EXIT_MISSING


class TestEnvironmentRoot:
    def test_output_root_prefixes_relative_paths(self, tmp_path, mixture_wav,
                                                 monkeypatch):
        monkeypatch.setenv("LSTSC_OUTPUT_ROOT", str(tmp_path))
        assert main(["extract", "--in", mixture_wav, "--variant", "lstsc-1",
                     "--out", "nested/feat.lsts"]) == EXIT_OK
        assert (tmp_path / "nested" / "feat.lsts").exists()

    def test_absolute_path_wins(self, tmp_path, mixture_wav, monkeypatch):
        monkeypatch.setenv("LSTSC_OUTPUT_ROOT", str(tmp_path / "ignored"))
        out = tmp_path / "direct.lsts"
        assert main(["extract", "--in", mixture_wav, "--variant", "lstsc-1",
                     "--out", str(out)]) == EXIT_OK
        assert out.exists()


class TestArgparseSurface:
    def test_no_command_is_config_error(self):
        assert main([]) == EXIT_CONFIG

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_version_flag(self, capsys):
        assert main(["--version"]) == EXIT_OK
        assert "lstsc" in capsys.readouterr().out


class TestStartUp:
    @pytest.mark.parametrize("scipy", ["blocked", "importable"])
    def test_readme_commands_need_no_scipy(self, tmp_path, scipy):
        # numpy is the one runtime dependency: README's five commands
        # succeed with scipy unimportable, and load none of it when it is
        # importable (scipy.io took 0.2-0.4 s of every command)
        script = textwrap.dedent("""
            import importlib.abc, json, sys

            class NoScipy(importlib.abc.MetaPathFinder):
                def find_spec(self, name, path=None, target=None):
                    if name.split(".")[0] == "scipy":
                        raise ImportError(f"{name} is blocked")

            root, scipy = sys.argv[1:]
            if scipy == "blocked":
                sys.meta_path.insert(0, NoScipy())
            from lstsc.cli import main
            with open(f"{root}/rir.json", "w") as file:
                json.dump({"room": {"dims": [6.0, 4.0, 2.5], "t60": 0.3}, "source": [2.1, 3.1, 1.7],
                           "mics": [[3.7, 1.9, 1.1], [3.7, 2.1, 1.1]], "duration": 0.5}, file)
            with open(f"{root}/scene.json", "w") as file:
                json.dump({"mix": {"clip_seconds": 3.0}}, file)
            codes = [
                main(["rir", "--config", f"{root}/rir.json", "--out", f"{root}/rirs"]),
                main(["simulate", "--config", f"{root}/scene.json", "--seed", "0",
                      "--out", f"{root}/scene"]),
                main(["extract", "--in", f"{root}/scene/mixture.wav", "--variant", "lstsc-4",
                      "--out", f"{root}/features.lsts", "--csv"]),
                main(["enhance", "--in", f"{root}/scene/mixture.wav", "--variant", "lstsc-3",
                      "--out", f"{root}/enhanced.wav"]),
                main(["evaluate", "--ref", f"{root}/scene/target.wav",
                      "--est", f"{root}/enhanced.wav", "--out", f"{root}/report.jsonl"]),
            ]
            loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
            print(json.dumps({"codes": codes, "loaded": loaded}))
        """)
        src = Path(cli.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path), scipy],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
        )
        assert json.loads(run.stdout.splitlines()[-1]) == {"codes": [EXIT_OK] * 5, "loaded": []}


class TestResidentMemory:
    def test_extract_resident_peak_does_not_grow_with_the_wav(self, tmp_path):
        # the WAV is read in chunks from its samples' offset, not mapped:
        # a mapped 80 s 8-mic float32 WAV added its 41 MB of read pages to
        # the peak (+36 MB from 8 s); chunked reads add about 2 MB
        rng = np.random.default_rng(0)

        def write(wav, seconds):
            wavfile.write(wav, 16000, rng.standard_normal((seconds * 16000, 8), dtype=np.float32))

        self._assert_flat_peak(tmp_path, write)

    def test_extract_resident_peak_does_not_grow_with_a_24_bit_wav(self, tmp_path):
        # 24-bit PCM is read in chunks too (read whole, the 80 s file
        # added 44.5 MB)
        rng = np.random.default_rng(0)

        def write(wav, seconds):
            write_pcm24(wav, rng.integers(-(2**23), 2**23, (seconds * 16000, 8)) << 8)

        self._assert_flat_peak(tmp_path, write)

    @staticmethod
    def _assert_flat_peak(tmp_path, write) -> None:
        """The fresh-process ``ru_maxrss`` of ``extract`` lstsc-1 on 8-mic
        WAVs that ``write(path, seconds)`` makes grows by less than 10 MB
        from 8 s to 80 s.  A small wrapper process runs each extract, since
        a child's ru_maxrss counts what its parent had resident when it was
        started."""
        wrapper = textwrap.dedent("""
            import resource, subprocess, sys
            subprocess.run([sys.executable, "-m", "lstsc.cli", "extract", *sys.argv[1:]],
                           check=True, stdout=subprocess.DEVNULL)
            print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        """)
        src = Path(cli.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        peaks = []
        for seconds in (8, 80):
            wav = tmp_path / f"{seconds}.wav"
            write(wav, seconds)
            run = subprocess.run(
                [sys.executable, "-c", wrapper, "--in", str(wav), "--variant", "lstsc-1",
                 "--out", str(tmp_path / f"{seconds}.lsts")],
                env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
            )
            peaks.append(int(run.stdout) / 1024)  # ru_maxrss is in kB on Linux
        assert peaks[1] - peaks[0] < 10, peaks
