#!/usr/bin/env python3
"""Fixed-vs-adaptive forgetting-factor A/B on long continuous target speech.

With a fixed global forgetting factor the long-term tracker slowly
converges onto a target speaker who keeps talking, and the global
coherence over target-active frames creeps upward (mis-convergence).
The adaptive schedule freezes the tracker while the previous mask is
energetic, which should hold that average down.  A scene counts as a win
when the adaptive arm scores lower than the fixed arm over target-active
frames.  Prints a per-scene table and writes an optional JSON report.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import experiment
from lstsc.coherence import CoherenceConfig, compute_lstsc
from lstsc.enhance import enhance_stream
from lstsc.scenarios import build_misconvergence_scenario, mean_global_warped
from lstsc.signal_core import stft_multichannel


def parse_args(argv=None):
    parser = experiment.parser(__doc__, scenes=20)
    parser.add_argument(
        "--utterance",
        type=float,
        nargs=2,
        default=(2.0, 7.0),
        metavar=("START", "STOP"),
        help="continuous target utterance span [s]",
    )
    return parser.parse_args(argv)


def run_scene(seed, args):
    scene = build_misconvergence_scenario(
        seed,
        t60=args.t60,
        sir_db=args.sir,
        snr_db=args.snr,
        utterance=tuple(args.utterance),
    )
    specs = stft_multichannel(scene.mixture)
    fixed = compute_lstsc(specs, CoherenceConfig.for_variant("lstsc-1"))
    # the adaptive arm runs the full enhancement loop so the heuristic
    # mask feeds the halting rule frame by frame
    adaptive = enhance_stream(
        scene.mixture, CoherenceConfig.for_variant("lstsc-2")
    ).features
    mean_fixed = mean_global_warped(fixed, scene.target_active)
    mean_adaptive = mean_global_warped(adaptive, scene.target_active)
    return {
        "seed": seed,
        "target_active_frames": int(scene.target_active.sum()),
        "mean_fixed": mean_fixed,
        "mean_adaptive": mean_adaptive,
        "delta": mean_fixed - mean_adaptive,
        "win": bool(mean_adaptive < mean_fixed),
    }


def main(argv=None):
    args = parse_args(argv)
    return experiment.run(
        args,
        "misconvergence_ab",
        {"utterance": list(args.utterance)},
        run_scene,
        columns=(("fixed", "mean_fixed"), ("adaptive", "mean_adaptive")),
        stat="delta",
    )


if __name__ == "__main__":
    raise SystemExit(main())
