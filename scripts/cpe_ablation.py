#!/usr/bin/env python3
"""Positional-encoding ablation on the octant-labeling task.

Trains two identical transformer block stacks on a cloud whose labels are
the spatial octant while the input features are constant. The stack with
the conditional positional encoding should solve the task; the ablated
stack provably cannot leave chance level.

Usage:
    python3 scripts/cpe_ablation.py
    python3 scripts/cpe_ablation.py --steps 240 --channels 64
"""

import argparse
import sys

from octformer.experiments import run_cpe_ablation


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points-per-octant", type=int, default=160)
    parser.add_argument("--depth", type=int, default=5)
    parser.add_argument("--channels", type=int, default=48)
    parser.add_argument("--blocks", type=int, default=6)
    parser.add_argument("--point-number", type=int, default=16)
    parser.add_argument("--steps", type=int, default=150)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    res = run_cpe_ablation(points_per_octant=args.points_per_octant,
                           depth=args.depth, channels=args.channels,
                           num_blocks=args.blocks,
                           point_number=args.point_number,
                           steps=args.steps, seed=args.seed)
    print(f"points: {res['num_points']}  chance: {res['chance']:.4f}")
    print(f"{'variant':<14} {'train acc':>10} {'train loss':>12}")
    for key in ("with_cpe", "without_cpe"):
        r = res[key]
        print(f"{key:<14} {r.final_accuracy:>10.4f} {r.final_loss:>12.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
