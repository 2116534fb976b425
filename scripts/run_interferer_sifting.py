#!/usr/bin/env python3
"""Interferer-sifting sweep: does the global coherence plane separate
interferer-only frames from target-active frames?

Each seeded scene mixes a stationary directional interferer with an
intermittent speech-like target (SIR 0 dB by default).  A scene counts
as a win when the warped global coherence, averaged over interferer-only
frames, exceeds the same average over target-active frames.  Prints a
per-scene table and writes an optional JSON report.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import experiment
from lstsc.coherence import VARIANT_SETTINGS, CoherenceConfig, compute_lstsc
from lstsc.scenarios import build_sifting_scenario, mean_global_warped
from lstsc.signal_core import stft_multichannel


def parse_args(argv=None):
    parser = experiment.parser(__doc__, scenes=50)
    parser.add_argument(
        "--variant",
        default="lstsc-3",
        choices=sorted(VARIANT_SETTINGS),
        help="feature variant used for scoring",
    )
    return parser.parse_args(argv)


def run_scene(seed, args):
    cfg = CoherenceConfig.for_variant(args.variant)
    scene = build_sifting_scenario(
        seed, t60=args.t60, sir_db=args.sir, snr_db=args.snr, coherence_cfg=cfg
    )
    feats = compute_lstsc(stft_multichannel(scene.mixture), cfg)
    interferer_only = mean_global_warped(feats, scene.interferer_only)
    target_active = mean_global_warped(feats, scene.target_active)
    return {
        "seed": seed,
        "interferer_only_frames": int(scene.interferer_only.sum()),
        "target_active_frames": int(scene.target_active.sum()),
        "mean_interferer_only": interferer_only,
        "mean_target_active": target_active,
        "margin": interferer_only - target_active,
        "win": bool(interferer_only > target_active),
    }


def main(argv=None):
    args = parse_args(argv)
    return experiment.run(
        args,
        "interferer_sifting",
        {"variant": args.variant},
        run_scene,
        columns=(("int-only", "mean_interferer_only"), ("tgt-act", "mean_target_active")),
        stat="margin",
    )


if __name__ == "__main__":
    raise SystemExit(main())
