"""Batch command-line driver.

Subcommands: ``rir`` (impulse-response synthesis), ``simulate`` (scene
rendering), ``extract`` (feature extraction to the binary + CSV formats),
``enhance`` (masking-based enhancement), ``evaluate`` (scale-invariant
SDR reporting as JSON lines).  Configs are JSON with unknown keys, values
of the wrong JSON type and non-finite numbers rejected; a config section
that sets a settings object has that object's fields as its keys and
defaults.  Every run is deterministic given config + seed.

Exit codes: 0 success, 2 bad configuration or arguments, 3 missing input
file, 4 domain-constraint violation, 1 unexpected failure.  The
``LSTSC_OUTPUT_ROOT`` environment variable prefixes relative output
paths.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import typing
from pathlib import Path

import numpy as np

from . import __version__
from .coherence import (
    VARIANT_SETTINGS,
    CoherenceConfig,
    FeatureWriter,
    StreamingExtractor,
    write_plane_csv,
)
from .enhance import HeuristicMaskEstimator, enhance_stream
from .metrics import si_sdr
from .roomsim import (
    ROLE_ORDER,
    SPEED_OF_SOUND,
    ArrayGeometry,
    MixSpec,
    SceneConstraints,
    measure_t60,
    simulate_rirs,
)
from .scenarios import DEFAULT_STEM_KINDS, STEM_KINDS, render_scene
from .signal_core import (
    SAMPLE_RATE,
    MultichannelAudio,
    StftConfig,
    WavReader,
    _in_halves,
    load_wav,
    save_wav,
)

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_CONSTRAINT = 4

_OUTPUT_ROOT_ENV = "LSTSC_OUTPUT_ROOT"


class ConfigError(Exception):
    """Malformed or unknown configuration content."""


def _resolve_out(path: str | Path) -> Path:
    path = Path(path)
    root = os.environ.get(_OUTPUT_ROOT_ENV)
    if root and not path.is_absolute():
        return Path(root) / path
    return path


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    cfg_path = Path(path)
    if not cfg_path.exists():
        raise FileNotFoundError(f"file not found: {cfg_path}")

    # Python's json reads NaN and Infinity, which JSON lacks, and 1e400 as inf
    def finite(token: str) -> float:
        value = float(token)
        if not math.isfinite(value):
            raise ConfigError(f"config {cfg_path} holds the non-finite number {token}")
        return value

    # an integer is kept as int, unless it is too large for a float
    def integer(token: str) -> int:
        if not math.isfinite(float(token)):
            raise ConfigError(
                f"config {cfg_path} holds a {len(token.lstrip('-'))}-digit integer, "
                "too large for a float"
            )
        return int(token)

    try:
        with open(cfg_path) as fh:
            config = json.load(
                fh, parse_float=finite, parse_int=integer, parse_constant=finite
            )
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {cfg_path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {cfg_path} must be a JSON object")
    return config


# Expected JSON types of config values; bool is never taken for a number.
_INT = (int,)
_NUM = (int, float)
_BOOL = (bool,)
_STR = (str,)
_VEC = (list,)  # numbers, or lists of numbers
_OR_NULL = (type(None),)

_JSON_NAMES = {
    bool: "true or false",
    int: "an integer",
    float: "a number",
    str: "a string",
    list: "an array of numbers",
    type(None): "null",
}


def _has_type(value, types: tuple) -> bool:
    if isinstance(value, bool):
        return bool in types
    if isinstance(value, list):
        return list in types and all(_has_type(v, _NUM + _VEC) for v in value)
    return isinstance(value, types)


def _check_keys(mapping: dict, allowed: dict, context: str) -> None:
    """Reject unknown keys and values of the wrong JSON type; recurse into
    nested sections."""
    for key, value in mapping.items():
        if key not in allowed:
            raise ConfigError(
                f"unknown config key '{context}{key}'; allowed: {sorted(allowed)}"
            )
        expected = allowed[key]
        if isinstance(expected, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config section '{context}{key}' must be an object")
            _check_keys(value, expected, context=f"{context}{key}.")
        elif not _has_type(value, expected):
            # a number may be written as an integer, so float names both
            names = [_JSON_NAMES[t] for t in expected if not (t is int and float in expected)]
            raise ConfigError(
                f"config key '{context}{key}' must be {' or '.join(names)}, "
                f"got {json.dumps(value)}"
            )


_HINT_TYPES = {int: _INT, float: _NUM, bool: _BOOL, tuple: _VEC, np.ndarray: _VEC}


def _config_keys(*targets, omit=()) -> dict:
    """Config keys and their JSON types: the annotated parameters of each
    settings class or factory in ``targets``, except ``omit``."""
    return {
        name: _HINT_TYPES[typing.get_origin(hint) or hint]
        for target in targets
        for name, hint in typing.get_type_hints(target).items()
        if name != "return" and name not in omit
    }


# the variant's own settings come from --variant alone
_COHERENCE_KEYS = _config_keys(CoherenceConfig, omit=set().union(*VARIANT_SETTINGS.values()))

_ARRAY_FACTORIES = {
    "ula": ArrayGeometry.ula, "circular": ArrayGeometry.circular, "positions": ArrayGeometry
}

_STEM_KEYS = {"kind": _STR, "rms": _NUM}

_RIR_CONFIG_KEYS = {
    "room": {"dims": _VEC, "t60": _NUM + _OR_NULL, "absorption": _NUM + _OR_NULL},
    "source": _VEC,
    "mics": _VEC,
    "fs": _INT,
    "duration": _NUM + _OR_NULL,
}

_SIMULATE_CONFIG_KEYS = {
    "t60": _NUM,
    "array": {"kind": _STR, **_config_keys(*_ARRAY_FACTORIES.values())},
    "scene": _config_keys(SceneConstraints),
    "mix": _config_keys(MixSpec),
    "stems": {role: _STEM_KEYS for role in ROLE_ORDER},
}


def _array_from_config(section: dict) -> ArrayGeometry:
    params = dict(section)
    kind = params.pop("kind", "ula")
    if kind not in _ARRAY_FACTORIES:
        raise ConfigError(f"unknown array kind {kind!r}")
    if kind == "positions" and "positions" not in params:
        raise ConfigError("array kind 'positions' needs a positions list")
    _check_keys(params, _config_keys(_ARRAY_FACTORIES[kind]), context="array.")
    return _ARRAY_FACTORIES[kind](**params)


def _cmd_rir(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    if not config:
        raise ConfigError("rir requires a config file (room, source, mics)")
    _check_keys(config, _RIR_CONFIG_KEYS, context="")
    room = config.get("room", {})
    dims = room.get("dims")
    if dims is None:
        raise ConfigError("config needs room.dims")
    if "source" not in config or "mics" not in config:
        raise ConfigError("config needs source and mics")
    fs = config.get("fs", SAMPLE_RATE)
    t60 = room.get("t60")
    absorption = room.get("absorption")

    rirs = simulate_rirs(
        dims,
        t60,
        config["source"],
        config["mics"],
        fs,
        absorption=absorption,
        duration=config.get("duration"),
    )
    out_dir = _resolve_out(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {"fs": fs, "room_dims": dims, "t60": t60, "absorption": absorption, "rirs": []}
    for index, (mic, rir) in enumerate(zip(config["mics"], rirs)):
        path = out_dir / f"rir_mic{index}.wav"
        save_wav(path, MultichannelAudio(rir.taps[np.newaxis, :], fs))
        entry = {
            "mic": list(map(float, mic)),
            "file": path.name,
            "distance_m": rir.source_distance,
            "direct_delay_samples": int(round(rir.source_distance / SPEED_OF_SOUND * fs)),
        }
        try:
            entry["measured_t60_s"] = measure_t60(rir)
        except ValueError:
            entry["measured_t60_s"] = None
        meta["rirs"].append(entry)
    with open(out_dir / "rir_meta.json", "w") as fh:
        json.dump(meta, fh, indent=2)
    print(f"wrote {len(meta['rirs'])} impulse responses to {out_dir}")
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    _check_keys(config, _SIMULATE_CONFIG_KEYS, context="")
    t60 = float(config.get("t60", 0.3))
    array = _array_from_config(config.get("array", {}))
    constraints = SceneConstraints(**config.get("scene", {}))
    spec = MixSpec(**config.get("mix", {}))

    makers, stem_kinds = {}, {}
    for role in ROLE_ORDER:
        level = dict(config.get("stems", {}).get(role, {}))
        kind = stem_kinds[role] = level.pop("kind", DEFAULT_STEM_KINDS[role])
        if kind not in STEM_KINDS:
            raise ConfigError(
                f"unknown stem kind {kind!r} for 'stems.{role}.kind'; "
                f"allowed: {sorted(STEM_KINDS)}"
            )
        makers[role] = functools.partial(STEM_KINDS[kind], **level)

    rendered = render_scene(
        args.seed, makers, t60=t60, spec=spec, array=array, constraints=constraints
    )
    scene, result = rendered.scene, rendered.mix

    out_dir = _resolve_out(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {
        "mixture.wav": result.mixture,
        **{f"{role}.wav": image for role, image in result.images.items()},
        "noise.wav": result.noise,
    }
    names = list(files)

    def write(lo: int, hi: int) -> None:
        for name in names[lo:hi]:
            save_wav(out_dir / name, files[name])

    # in two halves (the first three files here, the last two on the
    # worker): the float32 casts and the writes release the GIL
    _in_halves(write, len(names), 2)

    manifest = {
        "seed": args.seed,
        "noise_seed": result.noise_seed,
        "fs": SAMPLE_RATE,
        "t60": t60,
        "room_dims": scene.room_dims.tolist(),
        "mic_positions": scene.mic_positions.tolist(),
        "sources": [
            {"role": src.role, "position": src.position.tolist()}
            for src in scene.sources
        ],
        "stem_kinds": stem_kinds,
        "mix": {
            "sir_db": spec.sir_db,
            "snr_db": spec.snr_db,
            "clip_seconds": spec.clip_seconds,
        },
        "gains": result.gains,
        "realized_sir_db": result.realized_sir_db,
        "realized_snr_db": result.realized_snr_db,
        "files": names,
        "config_echo": config,
    }
    with open(out_dir / "scene.json", "w") as fh:
        json.dump(manifest, fh, indent=2, allow_nan=False)
    sir, snr = (
        "n/a" if level is None else round(level, 3) + 0.0
        for level in (result.realized_sir_db, result.realized_snr_db)
    )
    print(f"wrote scene to {out_dir} (SIR {sir} dB, SNR {snr} dB)")
    return EXIT_OK


def _check_pipeline_rate(sample_rate: int) -> None:
    if sample_rate != SAMPLE_RATE:
        raise ValueError(f"pipeline entry expects 16 kHz audio, got {sample_rate} Hz")


def _load_pipeline_audio(path: str) -> MultichannelAudio:
    audio = load_wav(path)
    _check_pipeline_rate(audio.sample_rate)
    return audio


# Samples read per chunk: one engine block of hops.  The first chunk is
# longer by the first block's R frames of lookahead and by the frame's
# overhang past its hop, so that it completes the first block and every
# later chunk completes the next one: the extractor then holds one block's
# spectra and its 2R window frames, not a block waiting for the next chunk.
_CHUNK_SAMPLES = 64 * StftConfig().hop


def _cmd_extract(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    _check_keys(config, _COHERENCE_KEYS, context="")
    cfg = CoherenceConfig.for_variant(args.variant, **config)
    # every check is made before anything is written
    wav = WavReader(args.infile)
    _check_pipeline_rate(wav.sample_rate)
    if wav.num_channels < 2:
        raise ValueError("feature extraction requires at least 2 microphones")
    num_frames = StftConfig().num_frames(wav.num_samples)
    extractor = StreamingExtractor(cfg, wav.num_channels)
    hop, frame_len = extractor.stft_cfg.hop, extractor.stft_cfg.frame_len
    first = _CHUNK_SAMPLES + cfg.R * hop + frame_len - hop
    out_path = _resolve_out(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with FeatureWriter(out_path, num_frames, csv=args.csv) as writer:
        for chunk in wav.chunks(_CHUNK_SAMPLES, first):
            writer.write(extractor.push(chunk))
        writer.write(extractor.flush())
    note = f" and {len(writer.csv_paths)} CSV planes" if args.csv else ""
    print(f"wrote {out_path} ({num_frames} frames x {writer.width}){note}")
    return EXIT_OK


def _cmd_enhance(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    _check_keys(config, _COHERENCE_KEYS, context="")
    cfg = CoherenceConfig.for_variant(args.variant, **config)
    audio = _load_pipeline_audio(args.infile)
    result = enhance_stream(audio, cfg, HeuristicMaskEstimator())
    out_path = _resolve_out(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_wav(out_path, result.enhanced)
    mask_path = (
        _resolve_out(args.mask_out)
        if args.mask_out
        else out_path.with_suffix(".mask.csv")
    )
    write_plane_csv(mask_path, result.mask.data)
    print(f"wrote {out_path} and {mask_path}")
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    ref = load_wav(args.ref)
    est = load_wav(args.est)
    if ref.sample_rate != est.sample_rate:
        raise ValueError(
            f"reference {args.ref} is at {ref.sample_rate} Hz, "
            f"estimate {args.est} at {est.sample_rate} Hz"
        )
    report = si_sdr(ref.channel(0), est.channel(0))
    out_path = _resolve_out(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    record = {
        "ref": str(args.ref),
        "est": str(args.est),
        "si_sdr_db": report.value_db,
        "projection_gain": report.projection_gain,
    }
    if args.label:
        record["label"] = args.label
    with open(out_path, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(f"SI-SDR {report.value_db:.3f} dB -> {out_path}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lstsc",
        description="Spatial-coherence feature pipeline and scene synthesizer.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rir = sub.add_parser("rir", help="simulate room impulse responses")
    p_rir.add_argument("--config", required=True, help="JSON: room, source, mics")
    p_rir.add_argument("--out", required=True, help="output directory")
    p_rir.set_defaults(func=_cmd_rir)

    p_sim = sub.add_parser("simulate", help="sample and render a scene")
    p_sim.add_argument("--config", help="JSON scene/mix/stem settings")
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=_cmd_simulate)

    p_ext = sub.add_parser("extract", help="compute coherence features")
    p_ext.add_argument("--in", dest="infile", required=True, help="multichannel WAV")
    p_ext.add_argument(
        "--variant",
        default="lstsc-3",
        choices=sorted(VARIANT_SETTINGS),
    )
    p_ext.add_argument("--config", help="JSON coherence overrides")
    p_ext.add_argument("--out", required=True, help="binary feature file path")
    p_ext.add_argument(
        "--csv", action="store_true", help="also write one CSV per feature plane"
    )
    p_ext.set_defaults(func=_cmd_extract)

    p_enh = sub.add_parser("enhance", help="masking-based enhancement")
    p_enh.add_argument("--in", dest="infile", required=True, help="multichannel WAV")
    p_enh.add_argument(
        "--variant",
        default="lstsc-3",
        choices=sorted(VARIANT_SETTINGS),
    )
    p_enh.add_argument("--config", help="JSON coherence overrides")
    p_enh.add_argument("--out", required=True, help="enhanced WAV path")
    p_enh.add_argument("--mask-out", help="mask CSV path (default: <out>.mask.csv)")
    p_enh.set_defaults(func=_cmd_enhance)

    p_eval = sub.add_parser("evaluate", help="scale-invariant SDR report")
    p_eval.add_argument("--ref", required=True, help="reference WAV (channel 0)")
    p_eval.add_argument("--est", required=True, help="estimate WAV (channel 0)")
    p_eval.add_argument("--out", required=True, help="JSON-lines report (appended)")
    p_eval.add_argument("--label", help="free-form tag copied into the record")
    p_eval.set_defaults(func=_cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except Exception as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
