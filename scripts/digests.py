#!/usr/bin/env python3
"""SHA-256 digests of the package's outputs, one ``name sha256`` line each.

Run it on two checkouts and diff the outputs to see which artifacts a
change alters:

    python3 scripts/digests.py > before.txt    # on the parent commit
    python3 scripts/digests.py > after.txt     # on the change
    diff before.txt after.txt

An array's digest covers its dtype, shape and bytes; a file's covers its
bytes, and a command's printed line is hashed with the output root
replaced by ``<root>``.  The set:

* both scenario builders at seeds 0-4 and T60 0.3 and 0.7: mixture,
  images, noise, dry stems, stem activity, frame labels, gains and the
  realized SIR/SNR;
* every ``LstscFeatures`` plane of lstsc-1...4, without an estimator and
  with ``HeuristicMaskEstimator``, on the sifting scene of seed 0;
* every ``enhance_stream`` output (enhanced audio, mask and features) of
  lstsc-1...4 on that scene;
* the ``LstscFeatures`` planes and ``enhance_stream`` outputs of
  lstsc-2...4 on that scene under two deterministic estimators
  (``PatternEstimator``) that halt the global tracker on the scene's
  ``target_active`` frames, or on every other frame;
* every plane of lstsc-1 and of lstsc-3 with the estimator on random
  spectra of M = 2...13 channels;
* ``whiten`` (epsilon 0) of one (64, 257, 7) block whose parts span
  1e-320 to 1e300, so that sums of squares underflow and overflow and
  the modulus rescales entries all through the block;
* ``lstsc simulate`` bundles: no config, integer- and float-spelled
  numbers, one config per array kind, named stem kinds and levels, and a
  ``scene`` section; and a 30 s 8-mic bundle with its ``extract --csv``
  (lstsc-1, lstsc-4) and ``enhance`` (lstsc-3) files.

FFT bytes can differ across numpy builds, and scene images
(``roomsim._image``), features and enhancement all come from numpy's FFT,
so compare digests made in one environment; this is why no test runs it.
A run takes about 15 s on two vCPUs and peaks near 285 MB resident.
"""
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lstsc import cli
from lstsc.coherence import VARIANT_SETTINGS, CoherenceConfig, compute_lstsc, whiten
from lstsc.enhance import HeuristicMaskEstimator, enhance_stream, heuristic_mask
from lstsc.scenarios import build_misconvergence_scenario, build_sifting_scenario
from lstsc.signal_core import stft_multichannel


def _spelled(number) -> dict:
    return {
        "array": {"kind": "circular", "num_mics": 3, "diameter": number(1)},
        "scene": {"min_angle_deg": number(20)},
        "mix": {"sir_db": number(5), "snr_db": number(25), "clip_seconds": number(2)},
        "stems": {"target": {"rms": number(1)}},
    }


_ON_MIXTURE = [
    ["extract", "--variant", "lstsc-1", "--csv", "--in", "{dir}/mixture.wav", "--out", "{dir}/l1.lsts"],
    ["extract", "--variant", "lstsc-4", "--csv", "--in", "{dir}/mixture.wav", "--out", "{dir}/l4.lsts"],
    ["enhance", "--variant", "lstsc-3", "--in", "{dir}/mixture.wav", "--out", "{dir}/enhanced.wav"],
]

# name -> (config or None, seed, commands run on the bundle's mixture)
SIMULATE_CONFIGS = {
    "default": (None, 0, []),
    "integer": (_spelled(int), 2, []),
    "float": (_spelled(float), 2, []),
    "ula": ({"array": {"kind": "ula", "num_mics": 3, "spacing": 0.05},
             "mix": {"clip_seconds": 3.0}}, 1, []),
    "circular": ({"t60": 0.5, "array": {"kind": "circular", "num_mics": 5, "diameter": 0.1},
                  "mix": {"clip_seconds": 3.0}}, 1, []),
    "positions": ({"array": {"kind": "positions",
                             "positions": [[-0.1, 0.0, 0.0], [0.0, 0.05, 0.0], [0.1, 0.0, 0.02]]},
                   "mix": {"clip_seconds": 3.0}}, 1, []),
    "stems": ({"mix": {"sir_db": 5.0, "snr_db": 25.0, "clip_seconds": 3.0},
               "stems": {"target": {"kind": "speech_like", "rms": 0.03},
                         "non_target": {"kind": "intermittent"},
                         "interferer": {"kind": "stationary_noise", "rms": 0.02}}}, 3, []),
    "scene": ({"scene": {"room_dims": [7.0, 6.0, 3.0], "array_center": [3.5, 2.0, 1.2],
                         "range_bounds": [0.8, 1.8], "min_angle_deg": 25.0,
                         "azimuth_deg": [10.0, 170.0], "wall_margin": 0.1,
                         "max_attempts": 500},
               "mix": {"allow_off_grid": True, "sir_db": 2.5, "clip_seconds": 3.0}}, 4, []),
    "long30s_m8": ({"t60": 0.3, "array": {"kind": "circular", "num_mics": 8},
                    "mix": {"clip_seconds": 30.0}}, 0, _ON_MIXTURE),
}


def array_digest(value) -> str:
    value = np.ascontiguousarray(value)
    digest = hashlib.sha256(f"{value.dtype.str} {value.shape} ".encode())
    digest.update(value.tobytes())
    return digest.hexdigest()


def _features(prefix, features):
    for field, plane in vars(features).items():
        if plane is not None:
            yield f"{prefix}/{field}", plane


def scenarios():
    for builder in (build_sifting_scenario, build_misconvergence_scenario):
        for t60 in (0.3, 0.7):
            for seed in range(5):
                scene = builder(seed, t60=t60)
                prefix = f"{builder.__name__}/t60={t60}/seed={seed}"
                yield f"{prefix}/mixture", scene.mixture.samples
                for role, image in scene.mix.images.items():
                    yield f"{prefix}/image/{role}", image.samples
                yield f"{prefix}/noise", scene.mix.noise.samples
                for role in scene.stems:
                    yield f"{prefix}/stem/{role}", scene.stems[role]
                    yield f"{prefix}/active/{role}", scene.active[role]
                for label in ("target_active", "interferer_only"):
                    if getattr(scene, label) is not None:
                        yield f"{prefix}/{label}", getattr(scene, label)
                for role, gain in scene.mix.gains.items():
                    yield f"{prefix}/gain/{role}", np.float64(gain)
                realized = (scene.mix.realized_sir_db, scene.mix.realized_snr_db)
                yield f"{prefix}/realized", np.array([np.nan if v is None else v for v in realized])


class PatternEstimator:
    """Mask row ``l`` is energetic (mean square above the default beta,
    0.01) where ``energetic[l]`` is set and quiet elsewhere, so frame
    ``l + 1`` halts exactly where ``energetic[l]`` is set.  The rows are
    ``heuristic_mask`` scaled into [0.5, 1] or [0, 0.05], so they depend on
    the coherence rows the estimator is given."""

    def __init__(self, energetic: np.ndarray) -> None:
        self.energetic = energetic
        self.frame = 0

    def __call__(self, magnitude, gamma_local, gamma_global, banded=None):
        row = heuristic_mask(gamma_local, gamma_global)
        row = 0.5 + 0.5 * row if self.energetic[self.frame] else 0.05 * row
        self.frame += 1
        return row


def _enhance(prefix, result):
    yield f"{prefix}/enhanced", result.enhanced.samples
    yield f"{prefix}/mask", result.mask.data
    yield from _features(f"{prefix}/features", result.features)


def features():
    scene = build_sifting_scenario(0)
    specs = stft_multichannel(scene.mixture)
    for variant in sorted(VARIANT_SETTINGS):
        cfg = CoherenceConfig.for_variant(variant)
        yield from _features(f"features/{variant}/no_estimator", compute_lstsc(specs, cfg))
        yield from _features(
            f"features/{variant}/heuristic",
            compute_lstsc(specs, cfg, mask_feedback=HeuristicMaskEstimator()),
        )
        yield from _enhance(f"enhance/{variant}", enhance_stream(scene.mixture, cfg, HeuristicMaskEstimator()))
    # halts that follow the target, and strictly alternating ones: the
    # heuristic above keeps the tracker halted on nearly every frame
    num_frames = specs.shape[1]
    patterns = {
        "target_active": np.append(scene.target_active[1:], False),
        "alternating": np.arange(num_frames) % 2 == 0,
    }
    for name, energetic in patterns.items():
        for variant in ("lstsc-2", "lstsc-3", "lstsc-4"):
            cfg = CoherenceConfig.for_variant(variant)
            yield from _features(
                f"features/{variant}/{name}",
                compute_lstsc(specs, cfg, mask_feedback=PatternEstimator(energetic)),
            )
            yield from _enhance(
                f"enhance/{variant}/{name}",
                enhance_stream(scene.mixture, cfg, PatternEstimator(energetic)),
            )


def random_spectra():
    for num_mics in range(2, 14):
        rng = np.random.default_rng(num_mics)
        shape = (num_mics, 150, 257)
        specs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        yield from _features(
            f"random/M={num_mics}/lstsc-1",
            compute_lstsc(specs, CoherenceConfig.for_variant("lstsc-1")),
        )
        yield from _features(
            f"random/M={num_mics}/lstsc-3",
            compute_lstsc(
                specs, CoherenceConfig.for_variant("lstsc-3"),
                mask_feedback=HeuristicMaskEstimator(),
            ),
        )


def wide_range_whiten():
    rng = np.random.default_rng(0)
    shape = (64, 257, 7)
    vectors = np.empty(shape, dtype=np.complex128)
    for part in (vectors.real, vectors.imag):
        part[...] = 10.0 ** rng.uniform(-320.0, 300.0, shape) * rng.choice([-1.0, 1.0], shape)
    yield "whiten/wide_range", whiten(vectors, 0.0)[0]


def _run(root: Path, argv: list[str]) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"lstsc {' '.join(argv)} exited with {code}")
    return stdout.getvalue().replace(str(root), "<root>")


def cli_bundles():
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, (config, seed, commands) in SIMULATE_CONFIGS.items():
            out = root / name
            argv = ["simulate", "--seed", str(seed), "--out", str(out)]
            if config is not None:
                (root / f"{name}.json").write_text(json.dumps(config))
                argv += ["--config", str(root / f"{name}.json")]
            printed = [_run(root, argv)]
            for command in commands:
                printed.append(_run(root, [arg.format(dir=out) for arg in command]))
            yield f"cli/{name}/stdout", "".join(printed).encode()
            for path in sorted(out.iterdir()):
                yield f"cli/{name}/{path.name}", path.read_bytes()


def main() -> int:
    for source in (scenarios, features, random_spectra, wide_range_whiten, cli_bundles):
        for name, value in source():
            if isinstance(value, bytes):
                digest = hashlib.sha256(value).hexdigest()
            else:
                digest = array_digest(value)
            print(f"{name} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
