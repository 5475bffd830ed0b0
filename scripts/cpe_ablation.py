#!/usr/bin/env python3
"""Positional-encoding ablation on the octant-labeling task.

Trains two identical transformer block stacks on a cloud whose labels are
the spatial octant while the input features are constant. The stack with
the conditional positional encoding should solve the task; the ablated
stack provably cannot leave chance level.

Every option defaults to ``run_cpe_ablation``'s value. A count below 1
(below 0 for ``--blocks``) is a usage error; an invalid configuration
prints one line. Both exit 2.

Usage:
    python3 scripts/cpe_ablation.py
    python3 scripts/cpe_ablation.py --steps 240 --channels 64
"""

import argparse
import inspect
import sys

from octformer.errors import ConfigError, DataError
from octformer.experiments import run_cpe_ablation


def at_least(low: int):
    """An argparse type: an int of at least ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" error
    return parse


def main() -> int:
    defaults = inspect.signature(run_cpe_ablation).parameters
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    for flag, dest, low in (("--points-per-octant", "points_per_octant", 1),
                            ("--depth", "depth", 1),
                            ("--channels", "channels", 1),
                            ("--blocks", "num_blocks", 0),
                            ("--point-number", "point_number", 1),
                            ("--steps", "steps", 1),
                            ("--seed", "seed", 0)):
        parser.add_argument(flag, dest=dest, type=at_least(low), default=argparse.SUPPRESS,
                            help=f"default {defaults[dest].default}")
    args = parser.parse_args()

    try:
        res = run_cpe_ablation(**vars(args))
    except (ConfigError, DataError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    print(f"points: {res['num_points']}  chance: {res['chance']:.4f}")
    print(f"{'variant':<14} {'train acc':>10} {'train loss':>12}")
    for key in ("with_cpe", "without_cpe"):
        r = res[key]
        print(f"{key:<14} {r.final_accuracy:>10.4f} {r.final_loss:>12.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
