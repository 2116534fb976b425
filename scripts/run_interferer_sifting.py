#!/usr/bin/env python3
"""Interferer-sifting sweep: does the global coherence plane separate
interferer-only frames from target-active frames?

Each seeded scene mixes a stationary directional interferer with an
intermittent speech-like target (SIR 0 dB by default).  A scene counts
as a win when the warped global coherence, averaged over interferer-only
frames, exceeds the same average over target-active frames.  Prints a
per-scene table and writes an optional JSON report.
"""
import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lstsc.coherence import VARIANT_SETTINGS, CoherenceConfig, compute_lstsc
from lstsc.scenarios import build_sifting_scenario, mean_global_warped
from lstsc.signal_core import stft_multichannel


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenes", type=int, default=50, help="number of seeded scenes")
    parser.add_argument("--seed0", type=int, default=0, help="first scene seed")
    parser.add_argument("--t60", type=float, default=0.3, help="reverberation time [s]")
    parser.add_argument("--sir", type=float, default=0.0, help="signal-to-interference ratio [dB]")
    parser.add_argument("--snr", type=float, default=30.0, help="signal-to-noise ratio [dB]")
    parser.add_argument(
        "--variant",
        default="lstsc-3",
        choices=sorted(VARIANT_SETTINGS),
        help="feature variant used for scoring",
    )
    parser.add_argument("--json", type=Path, default=None, help="write a JSON report here")
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
    rows = []
    print(f"{'seed':>5} {'int-only':>9} {'tgt-act':>9} {'margin':>8}  win")
    for seed in range(args.seed0, args.seed0 + args.scenes):
        row = run_scene(seed, args)
        rows.append(row)
        print(
            f"{row['seed']:>5} {row['mean_interferer_only']:>9.4f} "
            f"{row['mean_target_active']:>9.4f} {row['margin']:>+8.4f}  "
            f"{'yes' if row['win'] else 'NO'}"
        )

    margins = np.array([row["margin"] for row in rows])
    wins = sum(row["win"] for row in rows)
    print(
        f"\n{wins}/{len(rows)} wins | margin min {margins.min():+.4f} "
        f"median {np.median(margins):+.4f} max {margins.max():+.4f}"
    )

    if args.json is not None:
        report = {
            "experiment": "interferer_sifting",
            "config": {
                "scenes": args.scenes,
                "seed0": args.seed0,
                "t60": args.t60,
                "sir_db": args.sir,
                "snr_db": args.snr,
                "variant": args.variant,
            },
            "scenes": rows,
            "summary": {
                "wins": int(wins),
                "margin_min": float(margins.min()),
                "margin_median": float(np.median(margins)),
                "margin_max": float(margins.max()),
            },
        }
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(report, indent=2) + "\n")
        print(f"report written to {args.json}")

    return 0 if wins else 1


if __name__ == "__main__":
    raise SystemExit(main())
