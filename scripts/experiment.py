"""What the experiment scripts share: the scene-sweep arguments, the
per-seed table, the min/median/max summary, the JSON report and the exit
code (0 when at least one scene wins).

A script supplies ``run_scene(seed, args)``, which returns one row: a
dict with ``seed``, ``win`` and the two per-scene means and the statistic
that the table prints.
"""
import argparse
import json
from pathlib import Path

import numpy as np


def parser(description: str, scenes: int) -> argparse.ArgumentParser:
    """The arguments every sweep takes; a script may add its own."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--scenes", type=int, default=scenes, help="number of seeded scenes")
    parser.add_argument("--seed0", type=int, default=0, help="first scene seed")
    parser.add_argument("--t60", type=float, default=0.3, help="reverberation time [s]")
    parser.add_argument("--sir", type=float, default=0.0, help="signal-to-interference ratio [dB]")
    parser.add_argument("--snr", type=float, default=30.0, help="signal-to-noise ratio [dB]")
    parser.add_argument("--json", type=Path, default=None, help="write a JSON report here")
    return parser


def run(args, experiment: str, config: dict, run_scene, columns, stat: str) -> int:
    """Run every seeded scene, print the table and summary, write the
    report.  ``columns`` holds two (table heading, row key) pairs,
    ``stat`` the row key summarized over scenes, and ``config`` the
    script's own settings for the report."""
    (head_a, key_a), (head_b, key_b) = columns
    rows = []
    print(f"{'seed':>5} {head_a:>9} {head_b:>9} {stat:>8}  win")
    for seed in range(args.seed0, args.seed0 + args.scenes):
        row = run_scene(seed, args)
        rows.append(row)
        print(
            f"{row['seed']:>5} {row[key_a]:>9.4f} "
            f"{row[key_b]:>9.4f} {row[stat]:>+8.4f}  "
            f"{'yes' if row['win'] else 'NO'}"
        )

    values = np.array([row[stat] for row in rows])
    wins = sum(row["win"] for row in rows)
    print(
        f"\n{wins}/{len(rows)} wins | {stat} min {values.min():+.4f} "
        f"median {np.median(values):+.4f} max {values.max():+.4f}"
    )

    if args.json is not None:
        report = {
            "experiment": experiment,
            "config": {
                "scenes": args.scenes,
                "seed0": args.seed0,
                "t60": args.t60,
                "sir_db": args.sir,
                "snr_db": args.snr,
                **config,
            },
            "scenes": rows,
            "summary": {
                "wins": int(wins),
                f"{stat}_min": float(values.min()),
                f"{stat}_median": float(np.median(values)),
                f"{stat}_max": float(values.max()),
            },
        }
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(report, indent=2) + "\n")
        print(f"report written to {args.json}")

    return 0 if wins else 1
