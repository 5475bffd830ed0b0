"""Command-line surface.

Subcommands: build-octree, partition, attend, train-toy, segment, bench,
selftest. Exit codes: 0 success, 1 usage error, 2 data/config error (an
input too large for memory included), 3 numeric or training failure.
Commands run with floating-point overflow, invalid operations and division by
zero raising, so each is a numeric error.

Thread control: `--threads N` (default: the OCTFORMER_THREADS environment
variable) caps the BLAS thread pools. It must take effect before numpy is
first imported, so heavy modules are imported lazily inside the command
handlers.
"""

from __future__ import annotations

import argparse
import os
import sys

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)

    def _get_value(self, action, arg_string):
        """Convert with the argument's type, naming the argument in a UsageError."""
        try:
            return super()._get_value(action, arg_string)
        except UsageError as e:
            name = "/".join(action.option_strings) or action.dest
            raise UsageError(f"{name}: {e}") from None


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"expected an integer >= {low}, got {text!r}") from None
    if value < low:
        raise UsageError(f"expected an integer >= {low}, got {value}")
    return value


def positive_int(text: str) -> int:
    """argparse type for sizes and counts that must be >= 1."""
    return _int_at_least(text, 1)


def non_negative_int(text: str) -> int:
    """argparse type for token counts and seeds that must be >= 0."""
    return _int_at_least(text, 0)


def _apply_threads(threads: int | None) -> None:
    if threads is None:
        env = os.environ.get("OCTFORMER_THREADS")
        try:
            threads = positive_int(env) if env else None
        except UsageError as e:
            raise UsageError(f"OCTFORMER_THREADS: {e}") from None
    if threads is None:
        return
    for var in _THREAD_ENV_VARS:
        os.environ[var] = str(threads)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="octformer",
                     description="Octree window attention toolkit")
    parser.add_argument("--threads", type=positive_int, default=None,
                        help="BLAS thread count (default: $OCTFORMER_THREADS)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-octree", help="build and dump an octree")
    p.add_argument("input")
    p.add_argument("--depth", type=positive_int, required=True)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--dump", required=True)

    p = sub.add_parser("partition", help="dump a window partition as CSV")
    p.add_argument("--n", type=non_negative_int, required=True)
    p.add_argument("--k", type=positive_int, required=True)
    p.add_argument("--d", type=positive_int, default=1)
    p.add_argument("--csv", default=None, help="output path (default stdout)")

    p = sub.add_parser("attend", help="run one transformer block, print a checksum")
    p.add_argument("input")
    p.add_argument("--depth", type=positive_int, default=8)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--k", type=positive_int, default=32)
    p.add_argument("--d", type=positive_int, default=1)
    p.add_argument("--channels", type=positive_int, default=32)
    p.add_argument("--seed", type=non_negative_int, default=0)

    p = sub.add_parser("train-toy", help="overfit a tiny model on synthetic data")
    p.add_argument("--config", required=True)

    p = sub.add_parser("segment", help="write per-point labels for a cloud")
    p.add_argument("input")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("bench", help="run the attention scaling benchmark")
    p.add_argument("--config", required=True)

    sub.add_parser("selftest", help="run the oracle equivalence suite")
    return parser


def _write_output(text: str, path: str | None) -> None:
    """Write ``text`` to ``path`` if one is given, else to stdout."""
    if path:
        with open(path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _cmd_build_octree(args) -> int:
    from .octree import build_octree, dump_octree
    from .pointcloud import load_point_cloud

    cloud = load_point_cloud(args.input, args.depth, args.scale)
    tree = build_octree(cloud)
    dump_octree(tree, args.dump)
    counts = " ".join(str(tree.node_count(lv)) for lv in range(1, tree.depth + 1))
    print(f"octree depth {tree.depth} nodes-per-depth {counts}")
    return EXIT_OK


def _cmd_partition(args) -> int:
    from .partition import make_plan, plan_to_csv

    _write_output(plan_to_csv(make_plan(args.n, args.k, args.d)), args.csv)
    return EXIT_OK


def _cmd_attend(args) -> int:
    import numpy as np

    from .network import MLP_RATIO, BlockParams, octformer_block
    from .octree import build_octree, init_leaf_features
    from .pointcloud import load_point_cloud
    from .tensor import LinearParams, linear

    cloud = load_point_cloud(args.input, args.depth, args.scale)
    tree = build_octree(cloud)
    feats = init_leaf_features(tree, cloud, use_position=True,
                               use_color=cloud.colors is not None,
                               use_normal=cloud.normals is not None)
    rng = np.random.default_rng(args.seed)
    c = args.channels
    lift = LinearParams.init(feats.shape[1], c, rng)
    block = BlockParams.init(c, ratio=MLP_RATIO, dilation=args.d, rng=rng)
    feats = feats.astype(lift.weight.dtype)  # run the block at the weights' precision
    out = octformer_block(linear(feats, lift), tree, tree.depth, block,
                          point_number=args.k, training=False)
    checksum = float(np.abs(out.data.astype(np.float64)).sum())
    print(f"nodes {out.shape[0]} channels {out.shape[1]} checksum {checksum:.8e}")
    return EXIT_OK


def _cmd_train_toy(args) -> int:
    from .config import load_run_config
    from .network import save_checkpoint, train_toy
    from .synthetic import two_spheres_dataset

    run = load_run_config(args.config)
    dataset = two_spheres_dataset(run.dataset.n_clouds,
                                  run.dataset.points_per_cloud,
                                  run.dataset.depth, run.dataset.seed)
    result = train_toy(dataset, run.network.build(), run.training)
    lines = ["step,lr,loss,accuracy"]
    lines += [f"{r['step']},{r['lr']:.6e},{r['loss']:.6e},{r['accuracy']:.6f}"
              for r in result.records]
    _write_output("\n".join(lines) + "\n", run.outputs.loss_curve)
    if run.outputs.checkpoint:
        save_checkpoint(run.outputs.checkpoint, result.model)
    print(f"initial_loss {result.initial_loss:.6f} final_loss "
          f"{result.final_loss:.6f} final_accuracy {result.final_accuracy:.6f}")
    return EXIT_OK


def _cmd_segment(args) -> int:
    from .network import load_checkpoint, segment_logits
    from .pointcloud import load_point_cloud

    model = load_checkpoint(args.ckpt)
    cloud = load_point_cloud(args.input, model.config.octree_depth, args.scale)
    logits = segment_logits(cloud, model, training=False)
    labels = logits.data.argmax(axis=1)
    _write_output("\n".join(str(int(v)) for v in labels) + "\n", args.out)
    return EXIT_OK


def _cmd_bench(args) -> int:
    from .bench import bench_attention, rows_to_csv
    from .config import load_run_config

    run = load_run_config(args.config)
    rows = []
    for variant in run.bench.variants:
        rows.extend(bench_attention(variant, run.bench))
    _write_output(rows_to_csv(rows), run.outputs.bench_csv)
    return EXIT_OK


def _cmd_selftest(_args) -> int:
    from .selftest import run_selftest

    return EXIT_OK if run_selftest() else EXIT_NUMERIC


_COMMANDS = {
    "build-octree": _cmd_build_octree,
    "partition": _cmd_partition,
    "attend": _cmd_attend,
    "train-toy": _cmd_train_toy,
    "segment": _cmd_segment,
    "bench": _cmd_bench,
    "selftest": _cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _apply_threads(args.threads)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE

    import numpy as np

    from .errors import ConfigError, DataError, NumericError, TrainingError

    try:
        # overflow, invalid and divide are numeric errors; underflow is not,
        # since the softmax's -1e9 mask underflows by design
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _COMMANDS[args.command](args)
    except (DataError, ConfigError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as e:  # the input asks for more than the machine has
        print(f"data error: out of memory: {e}" if str(e) else "data error: out of memory",
              file=sys.stderr)
        return EXIT_DATA
    except (NumericError, TrainingError, FloatingPointError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
