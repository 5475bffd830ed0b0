"""Cold start: no command imports scipy.

The pytest process already holds scipy (the gradient checks and the oracles
import it), so each check runs in a fresh interpreter.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np

from octformer import cli

SRC = str(pathlib.Path(cli.__file__).resolve().parents[1])

# prints whether any scipy module was loaded, after the program ran
_REPORT_SCIPY = ("print('scipy loaded:', any(m == 'scipy' or m.startswith('scipy.') "
                 "for m in sys.modules), file=sys.stderr)")


def _run(code: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": SRC})


def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    return _run("import sys; from octformer.cli import main; code = main(sys.argv[1:]); "
                + _REPORT_SCIPY + "; sys.exit(code)", *argv)


def test_importing_the_program_loads_no_scipy():
    proc = _run("import sys; import octformer.cli, octformer.network, "
                "octformer.partition, octformer.pointcloud, octformer.synthetic; "
                + _REPORT_SCIPY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "scipy loaded: False\n"


def test_float32_segment_loads_no_scipy(tmp_path):
    from octformer.network import NetworkConfig, init_model, named_tensors, save_checkpoint

    config = NetworkConfig(channels=8, blocks=(1, 1, 1, 1), point_number=8,
                           num_classes=2, octree_depth=7, features=("position",),
                           fpn_channels=8, head_hidden=8)
    model = init_model(config, seed=0)
    assert {v.dtype for _, v, kind in named_tensors(model) if kind == "param"} == {
        np.dtype(np.float32)}
    save_checkpoint(str(tmp_path / "m.ofck"), model)
    pos = np.random.default_rng(5).random((60, 3))
    (tmp_path / "cloud.xyz").write_text(
        "\n".join(" ".join(f"{v:.6f}" for v in p) for p in pos) + "\n")
    proc = _run_cli("segment", str(tmp_path / "cloud.xyz"), "--ckpt",
                    str(tmp_path / "m.ofck"), "--out", str(tmp_path / "labels.txt"))
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert proc.stderr == "scipy loaded: False\n"
    assert len((tmp_path / "labels.txt").read_text().split()) == 60


def _train_config(out_dir: pathlib.Path) -> dict:
    """``test_cli_train_and_segment``'s run, writing into ``out_dir``."""
    return {
        "dataset": {"kind": "two-spheres", "n_clouds": 2,
                    "points_per_cloud": 250, "depth": 7, "seed": 1},
        "network": {"preset": None, "channels": 16, "blocks": [1, 1, 1, 1],
                    "point_number": 8, "dilation": 2, "num_classes": 2,
                    "octree_depth": 7, "features": ["position", "color"]},
        "training": {"steps": 2, "lr": 1e-3, "seed": 0},
        "outputs": {"checkpoint": str(out_dir / "m.ofck"),
                    "loss_curve": str(out_dir / "loss.csv")},
    }


def test_train_toy_in_a_fresh_process_writes_the_in_process_bytes(tmp_path, capsys):
    """A fresh process trains without loading scipy (its float64 gelu is
    numpy's port of scipy's erf) and writes the bits of a process that holds
    scipy."""
    runs = {}
    for where in ("fresh", "in-process"):
        out_dir = tmp_path / where
        out_dir.mkdir()
        cfg = out_dir / "run.json"
        cfg.write_text(json.dumps(_train_config(out_dir)))
        if where == "fresh":
            proc = _run_cli("train-toy", "--config", str(cfg))
            assert proc.returncode == cli.EXIT_OK, proc.stderr
            assert proc.stderr.endswith("scipy loaded: False\n"), proc.stderr
        else:
            assert cli.main(["train-toy", "--config", str(cfg)]) == cli.EXIT_OK
            capsys.readouterr()
        runs[where] = ((out_dir / "loss.csv").read_bytes(),
                       (out_dir / "m.ofck").read_bytes())
    assert runs["fresh"] == runs["in-process"]
