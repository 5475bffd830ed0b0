import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octformer import bench, cli, network
from octformer.bench import BenchSettings
from octformer.config import load_run_config, parse_run_config
from octformer.errors import ConfigError
from octformer.network import NetworkConfig, OptimSettings


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- config -------------------------------------------------------------------

def test_config_defaults():
    cfg = parse_run_config({})
    assert cfg.bench.sizes == (10_000, 20_000, 50_000, 100_000, 200_000)
    assert cfg.network.build() == NetworkConfig.preset("base")


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        parse_run_config({"sneed": 1})
    with pytest.raises(ConfigError):
        parse_run_config({"training": {"steps": 10, "velocity": 3}})


def test_config_range_checks():
    with pytest.raises(ConfigError):
        parse_run_config({"training": {"steps": 0}})
    with pytest.raises(ConfigError):
        parse_run_config({"bench": {"variants": ["octree", "hexagonal"]}})
    with pytest.raises(ConfigError):
        parse_run_config({"dataset": {"kind": "mnist"}})
    with pytest.raises(ConfigError):
        parse_run_config({"bench": {"trials": 0}})


@pytest.mark.parametrize("make", [
    lambda: OptimSettings(steps=0),
    lambda: OptimSettings(batch_size=0),
    lambda: OptimSettings(lr=-1),
    lambda: BenchSettings(variants=("hexagonal",)),
    lambda: BenchSettings(sizes=(0,)),
    lambda: BenchSettings(variants=("knn",), sizes=(20,), k_neighbors=64),
    lambda: OptimSettings(lr=float("nan")),
    lambda: OptimSettings(lr=float("inf")),
    lambda: OptimSettings(weight_decay=float("nan")),
    lambda: OptimSettings(weight_decay=float("inf")),
], ids=["steps", "batch_size", "lr", "variant", "size", "k_neighbors",
        "lr_nan", "lr_inf", "weight_decay_nan", "weight_decay_inf"])
def test_settings_check_their_ranges_without_the_json_path(make):
    with pytest.raises(ConfigError):
        make()


def test_config_value_types():
    for bad in ({"training": {"steps": "ten"}}, {"training": {"lr": "fast"}},
                {"training": {"steps": True}}, {"dataset": {"seed": 1.5}},
                {"network": {"blocks": [1, "2", 1, 1]}},
                {"bench": {"sizes": 100}}, {"outputs": {"checkpoint": 3}},
                {"training": [1, 2]}):
        with pytest.raises(ConfigError, match="must be"):
            parse_run_config(bad)
    cfg = parse_run_config({"training": {"lr": 1, "steps": 2},
                            "network": {"preset": None, "blocks": [1, 1, 1, 1]}})
    assert cfg.training.lr == 1 and cfg.network.blocks == (1, 1, 1, 1)


@pytest.mark.parametrize("config", [
    {"seed": 0}, {"threads": 2}, {"inputs": ["scan.xyz"]}, {"octree": {"depth": 0}},
    {"outputs": {"labels": "labels.txt"}}, {"dataset": {"num_classes": 2}},
    {"dataset": {"kind": "octants"}},
])
def test_config_rejects_removed_fields(tmp_path, capsys, config):
    with pytest.raises(ConfigError, match="unknown"):
        parse_run_config(config)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "train-toy", "--config", str(cfg_path))
    assert code == cli.EXIT_DATA
    assert err.count("\n") == 1 and "Traceback" not in err


def test_readme_config_example_parses():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("### Configuration", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = parse_run_config(json.loads(block))
    assert cfg.dataset.kind == "two-spheres"
    assert cfg.network.build().blocks == (1, 1, 1, 1)


def test_config_bench_k_neighbors_within_sizes():
    with pytest.raises(ConfigError, match="k_neighbors 64 exceeds size 20"):
        parse_run_config({"bench": {"variants": ["knn"], "sizes": [100, 20],
                                    "k_neighbors": 64}})
    # without the knn variant the neighbour count is unused
    parse_run_config({"bench": {"variants": ["octree"], "sizes": [20],
                                "k_neighbors": 64}})


def test_cli_bad_values_exit_2_with_one_line(tmp_path, capsys):
    cases = {"train-toy": {"training": {"steps": "ten"}},
             "bench": {"bench": {"variants": ["knn"], "sizes": [20],
                                 "k_neighbors": 64}}}
    for command, config in cases.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, command, "--config", str(cfg_path))
        assert code == cli.EXIT_DATA
        assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_segment_truncated_checkpoint_exits_2(tmp_path, capsys):
    from octformer.network import NetworkConfig, init_model, save_checkpoint

    ckpt = tmp_path / "m.ofck"
    config = NetworkConfig(channels=8, blocks=(1, 1, 1, 1), point_number=8,
                           num_classes=2, octree_depth=7, features=("position",))
    save_checkpoint(str(ckpt), init_model(config, seed=0))
    ckpt.write_bytes(ckpt.read_bytes()[:-5])
    pts = tmp_path / "cloud.xyz"
    pos = np.random.default_rng(3).random((50, 3))
    pts.write_text("\n".join(" ".join(f"{v:.6f}" for v in p) for p in pos) + "\n")
    code, _, err = run_cli(capsys, "segment", str(pts), "--ckpt", str(ckpt),
                           "--out", str(tmp_path / "labels.txt"))
    assert code == cli.EXIT_DATA
    assert err.count("\n") == 1 and "truncated checkpoint" in err


def test_cli_segment_huge_blocks_checkpoint_exits_2_fast(tmp_path, capsys):
    import time

    from octformer.network import NetworkConfig, init_model, save_checkpoint

    ckpt = tmp_path / "m.ofck"
    config = NetworkConfig(channels=8, blocks=(1, 1, 1, 1), point_number=8,
                           num_classes=2, octree_depth=7, features=("position",))
    save_checkpoint(str(ckpt), init_model(config, seed=0))
    data = ckpt.read_bytes()
    cfg_len = int.from_bytes(data[8:12], "little")
    cfg = json.loads(data[12:12 + cfg_len])
    cfg["blocks"] = [1, 1, 1, 100000]
    cfg_bytes = json.dumps(cfg).encode()
    ckpt.write_bytes(data[:8] + len(cfg_bytes).to_bytes(4, "little") + cfg_bytes
                     + data[12 + cfg_len:])
    pts = tmp_path / "cloud.xyz"
    pts.write_text("0.1 0.2 0.3\n0.5 0.5 0.5\n")
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "segment", str(pts), "--ckpt", str(ckpt))
    assert time.perf_counter() - start < 2.0
    assert code == cli.EXIT_DATA
    assert err.count("\n") == 1 and "truncated checkpoint" in err


@pytest.fixture(scope="module")
def colour_segment_files(tmp_path_factory):
    """A toy position+colour checkpoint's bytes and a 300-point coloured cloud
    that it segments (exit 0), in a module-wide dir."""
    from octformer.network import NetworkConfig, init_model, save_checkpoint

    d = tmp_path_factory.mktemp("ofck-colour")
    config = NetworkConfig(channels=16, blocks=(1, 1, 1, 1), point_number=8,
                           num_classes=2, octree_depth=7,
                           features=("position", "color"), fpn_channels=8, head_hidden=8)
    save_checkpoint(str(d / "m.ofck"), init_model(config, seed=0))
    rows = np.random.default_rng(4).random((300, 6))
    (d / "cloud.xyz").write_text(
        "\n".join(" ".join(f"{v:.6f}" for v in r) for r in rows) + "\n")
    blob = (d / "m.ofck").read_bytes()
    assert _segment_with(d, blob) == (cli.EXIT_OK, "")
    return d, blob


@pytest.mark.parametrize("key, value", [
    ("channels", True), ("octree_depth", 7.0), ("num_classes", 2.5), ("mlp_ratio", 1.5),
    ("fpn_channels", -3), ("blocks", [1, 1, 1, 1.5]), ("embed_depth", 0)])
def test_cli_segment_malformed_checkpoint_config_exits_2_with_one_line(
        colour_segment_files, key, value):
    d, blob = colour_segment_files
    cfg_len = int.from_bytes(blob[8:12], "little")
    cfg = json.loads(blob[12:12 + cfg_len])
    cfg[key] = value
    cfg_bytes = json.dumps(cfg).encode()
    code, err = _segment_with(d, blob[:8] + len(cfg_bytes).to_bytes(4, "little")
                              + cfg_bytes + blob[12 + cfg_len:])
    assert code == cli.EXIT_DATA
    assert err.count("\n") == 1 and "bad checkpoint config" in err and key in err


def test_cli_segment_refuses_a_version_1_checkpoint(colour_segment_files):
    """Version 1 is the format whose config also held ``head_divisor``,
    ``mlp_ratio``, ``embed_depth`` and ``variant``."""
    d, blob = colour_segment_files
    cfg_len = int.from_bytes(blob[8:12], "little")
    cfg = json.loads(blob[12:12 + cfg_len])
    cfg.update(head_divisor=16, mlp_ratio=4, embed_depth=None, variant="custom")
    cfg_bytes = json.dumps(cfg, sort_keys=True).encode()
    old = (blob[:4] + (1).to_bytes(4, "little") + len(cfg_bytes).to_bytes(4, "little")
           + cfg_bytes + blob[12 + cfg_len:])
    assert _segment_with(d, old) == (cli.EXIT_DATA,
                                     "data error: unsupported checkpoint version 1\n")


def _record_fields(blob: bytes) -> list[tuple[int, int]]:
    """(name-length offset, ndim offset) of every record of an OFCK file."""
    off = 12 + int.from_bytes(blob[8:12], "little")
    fields = []
    while off < len(blob):
        name_len = int.from_bytes(blob[off:off + 4], "little")
        ndim_off = off + 4 + name_len + 1
        ndim = int.from_bytes(blob[ndim_off:ndim_off + 4], "little")
        shape = np.frombuffer(blob, "<u8", ndim, ndim_off + 4)
        itemsize = 4 if blob[ndim_off - 1] == 0 else 8
        fields.append((off, ndim_off))
        off = ndim_off + 4 + 8 * ndim + int(np.prod(shape)) * itemsize
    return fields


@pytest.fixture(scope="module")
def toy_segment_files(tmp_path_factory):
    """A toy checkpoint's bytes and a 300-point cloud, in a module-wide dir."""
    from octformer.network import NetworkConfig, init_model, save_checkpoint

    d = tmp_path_factory.mktemp("ofck")
    config = NetworkConfig(channels=16, blocks=(1, 1, 1, 1), point_number=8,
                           num_classes=2, octree_depth=7, features=("position",),
                           fpn_channels=8, head_hidden=8)
    save_checkpoint(str(d / "m.ofck"), init_model(config, seed=0))
    pos = np.random.default_rng(3).random((300, 3))
    (d / "cloud.xyz").write_text(
        "\n".join(" ".join(f"{v:.6f}" for v in p) for p in pos) + "\n")
    return d, (d / "m.ofck").read_bytes()


def _segment_with(d, blob: bytes) -> tuple[int, str]:
    """Exit code and stderr of ``segment`` on the cloud with ``blob`` as the
    checkpoint."""
    (d / "x.ofck").write_bytes(blob)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["segment", str(d / "cloud.xyz"), "--ckpt", str(d / "x.ofck"),
                         "--out", str(d / "labels.txt")])
    return code, err.getvalue()


@pytest.mark.parametrize("field, value", [(1, 0xFFFFFFFF), (0, 0xFFFFFFF0)],
                         ids=["ndim", "name-length"])
def test_cli_segment_huge_length_field_exits_2_with_one_line(toy_segment_files,
                                                             field, value):
    # read before allocate: 8 * 0xFFFFFFFF bytes of dims would be 34 GB
    d, blob = toy_segment_files
    at = _record_fields(blob)[0][field]
    code, err = _segment_with(d, blob[:at] + value.to_bytes(4, "little") + blob[at + 4:])
    assert code == cli.EXIT_DATA
    assert err.count("\n") == 1 and "truncated checkpoint" in err


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(("cut", "flip", "header", "name-length", "ndim")),
       where=st.integers(0, 2**32 - 1), byte=st.integers(0, 3), bit=st.integers(0, 7))
@example(kind="ndim", where=0, byte=3, bit=7)
@example(kind="name-length", where=0, byte=3, bit=7)
def test_cli_segment_corrupted_checkpoint_never_traces_back(toy_segment_files, kind,
                                                            where, byte, bit):
    """One flipped bit (anywhere, in the magic/version/config header, or in a
    record's name-length or ndim field) or a truncation: exit 0, 2 or 3 with at
    most one line on stderr."""
    d, blob = toy_segment_files
    if kind == "cut":
        corrupt = blob[:where % len(blob)]
    else:
        if kind in ("name-length", "ndim"):
            fields = _record_fields(blob)
            at = fields[where % len(fields)][kind == "ndim"] + byte
        elif kind == "header":
            at = where % (12 + int.from_bytes(blob[8:12], "little"))
        else:
            at = where % len(blob)
        corrupt = bytearray(blob)
        corrupt[at] ^= 1 << bit
    code, err = _segment_with(d, bytes(corrupt))
    assert code in (cli.EXIT_OK, cli.EXIT_DATA, cli.EXIT_NUMERIC)
    assert err.count("\n") <= 1 and "Traceback" not in err


_XYZ_TOKENS = ("nan", "1e999", "-1e999", "0.5")


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(("flip", "cut", "insert", "replace")),
       where=st.integers(0, 2**32 - 1), bit=st.integers(0, 7),
       token=st.sampled_from(_XYZ_TOKENS))
@example(kind="flip", where=0, bit=7, token="nan")  # a byte that is not UTF-8
@example(kind="replace", where=4, bit=0, token="1e999")
@example(kind="insert", where=9, bit=0, token="0.5")  # an extra column on one line
def test_cli_segment_mutated_xyz_never_traces_back(toy_segment_files, kind, where,
                                                   bit, token):
    """A small XYZ file with one flipped bit, a truncation, a token inserted at
    any byte, or a field replaced by ``nan``, ``1e999`` or a number: exit 0, 1,
    2 or 3 with at most one line on stderr."""
    d, blob = toy_segment_files
    rows = np.random.default_rng(4).random((12, 6))
    text = ("\n".join(" ".join(f"{v:.4f}" for v in row) for row in rows) + "\n").encode()
    (d / "mutated.xyz").write_bytes(_mutate(text, kind, where, bit, token))
    (d / "x.ofck").write_bytes(blob)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["segment", str(d / "mutated.xyz"), "--ckpt", str(d / "x.ofck"),
                         "--out", str(d / "labels.txt")])
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_NUMERIC)
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()


def _mutate(text: bytes, kind: str, where: int, bit: int, token: str,
            first_row: int = 0) -> bytes:
    """One flipped bit, a truncation or an inserted token at any byte, or one
    field of a row from line ``first_row`` on replaced by ``token``."""
    if kind == "flip":
        at = where % len(text)
        return text[:at] + bytes([text[at] ^ (1 << bit)]) + text[at + 1:]
    if kind == "cut":
        return text[:where % len(text)]
    if kind == "insert":
        at = where % (len(text) + 1)
        return text[:at] + f" {token} ".encode() + text[at:]
    lines = text.decode().splitlines()
    row = first_row + where % (len(lines) - first_row)
    fields = lines[row].split()
    fields[where // len(lines) % len(fields)] = token
    lines[row] = " ".join(fields)
    return ("\n".join(lines) + "\n").encode()


def _ply_text() -> bytes:
    """A 12-point ASCII PLY file: float positions and uchar colours."""
    rng = np.random.default_rng(5)
    rows = [" ".join([*(f"{v:.4f}" for v in p), *(str(v) for v in c)])
            for p, c in zip(rng.random((12, 3)), rng.integers(0, 256, (12, 3)))]
    return ("ply\nformat ascii 1.0\nelement vertex 12\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n" + "\n".join(rows) + "\n").encode()


_PLY_HEADER_LINES = 10


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(("flip", "cut", "insert", "replace")),
       where=st.integers(0, 2**32 - 1), bit=st.integers(0, 7),
       token=st.sampled_from(_XYZ_TOKENS))
@example(kind="flip", where=200, bit=7, token="nan")  # a byte that is not UTF-8
@example(kind="replace", where=0, bit=0, token="1e999")
@example(kind="insert", where=190, bit=0, token="0.5")  # an extra field on one row
@example(kind="flip", where=37, bit=0, token="nan")  # a vertex count of 13
def test_cli_segment_mutated_ply_never_traces_back(toy_segment_files, kind, where,
                                                   bit, token):
    """The XYZ fuzz's mutations on a small PLY file with uchar colours: exit
    0, 1, 2 or 3 with at most one line on stderr."""
    d, blob = toy_segment_files
    (d / "mutated.ply").write_bytes(
        _mutate(_ply_text(), kind, where, bit, token, _PLY_HEADER_LINES))
    (d / "x.ofck").write_bytes(blob)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["segment", str(d / "mutated.ply"), "--ckpt", str(d / "x.ofck"),
                         "--out", str(d / "labels.txt")])
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_NUMERIC)
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _config_text() -> bytes:
    return json.dumps({
        "dataset": {"n_clouds": 2, "points_per_cloud": 300, "depth": 5, "seed": 1},
        "network": {"preset": None, "channels": 16, "blocks": [1, 1, 1, 1],
                    "point_number": 8, "features": ["position", "color"]},
        "training": {"steps": 2, "lr": 0.003, "weight_decay": 0.05},
        "bench": {"sizes": [100, 200], "variants": ["octree"], "trials": 1},
        "outputs": {"loss_curve": "loss.csv"},
    }).encode()


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(("flip", "cut", "insert")),
       where=st.integers(0, 2**32 - 1), bit=st.integers(0, 7),
       token=st.sampled_from(("[", "{", '"', ",", "null", "NaN", "1e999", "-1", "0.5",
                              "[" * 5000, "9" * 5000, "\\udcff")))
@example(kind="flip", where=0, bit=7, token="[")  # a byte that is not UTF-8
def test_load_run_config_mutated_bytes_is_a_config_or_a_config_error(
        fuzz_dir, kind, where, bit, token):
    """Every mutation of a valid run config loads as a RunConfig or raises
    ConfigError; the configs it accepts are not trained."""
    from octformer.config import RunConfig

    path = fuzz_dir / "run.json"
    path.write_bytes(_mutate(_config_text(), kind, where, bit, token))
    try:
        assert isinstance(load_run_config(str(path)), RunConfig)
    except ConfigError:
        pass


@pytest.mark.parametrize("text", [
    b'{"training": {"steps": 2}, "outputs": {"loss_curve": "l\xffss.csv"}}',
    b"[" * 100_000 + b"]" * 100_000,
], ids=["non-utf8-byte", "nested-100000-deep"])
def test_cli_train_toy_unreadable_config_exits_2_with_one_line(tmp_path, capsys, text):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_bytes(text)
    code, _, err = run_cli(capsys, "train-toy", "--config", str(cfg_path))
    assert code == cli.EXIT_DATA
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("training", [
    '"lr": NaN, "weight_decay": Infinity', '"lr": Infinity', '"weight_decay": NaN',
    '"lr": -Infinity',
], ids=["lr-nan-weight-decay-inf", "lr-inf", "weight-decay-nan", "lr-minus-inf"])
def test_cli_train_toy_non_finite_settings_exit_2_before_any_octree(
        tmp_path, capsys, monkeypatch, training):
    """JSON's NaN and Infinity literals parse as floats; they are config errors."""
    from octformer import network

    def no_octree(*args, **kwargs):
        raise AssertionError("an octree was built")

    monkeypatch.setattr(network, "build_octree", no_octree)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text('{"training": {"steps": 2, %s}}' % training)
    code, _, err = run_cli(capsys, "train-toy", "--config", str(cfg_path))
    assert code == cli.EXIT_DATA
    assert err.count("\n") == 1 and "finite" in err and "Traceback" not in err


def _record_data_offset(blob: bytes, name: str) -> int:
    """Byte offset of the first value of the float32 record ``name``."""
    for off, ndim_off in _record_fields(blob):
        name_len = int.from_bytes(blob[off:off + 4], "little")
        if blob[off + 4:off + 4 + name_len].decode() == name:
            assert blob[ndim_off - 1] == 0  # float32 tag
            ndim = int.from_bytes(blob[ndim_off:ndim_off + 4], "little")
            return ndim_off + 4 + 8 * ndim
    raise KeyError(name)


@pytest.mark.parametrize("value, code, message", [
    ("inf", cli.EXIT_DATA, "non-finite value in record 'backbone.stages.1.down.conv.weights'"),
    ("nan", cli.EXIT_DATA, "non-finite value in record 'backbone.stages.1.down.conv.weights'"),
    ("3e38", cli.EXIT_NUMERIC, "numeric error: overflow"),
])
def test_cli_segment_extreme_checkpoint_value_exits_with_one_line(toy_segment_files,
                                                                  value, code, message):
    """A non-finite weight is a data error; a finite one so large that the
    forward overflows is a numeric error, not a warning. Run as a subprocess,
    so that stderr holds everything a user sees, warnings included."""
    d, blob = toy_segment_files
    at = _record_data_offset(blob, "backbone.stages.1.down.conv.weights")
    (d / "v.ofck").write_bytes(blob[:at] + np.float32(value).tobytes() + blob[at + 4:])
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from octformer.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "segment", str(d / "cloud.xyz"),
         "--ckpt", str(d / "v.ofck"), "--out", str(d / "labels.txt")],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == code
    assert proc.stderr.count("\n") == 1 and message in proc.stderr


@pytest.mark.parametrize("value", ["nan", "1e400", "-inf"])
@pytest.mark.parametrize("column", [3, 5, 6, 8], ids=["red", "blue", "nx", "nz"])
def test_cli_non_finite_xyz_column_exits_2_with_one_line(tmp_path, capsys, column, value):
    rows = [[f"{v:.6f}" for v in row]
            for row in np.random.default_rng(2).random((30, 9))]
    rows[7][column] = value
    src = tmp_path / "pts.xyz"
    src.write_text("\n".join(" ".join(row) for row in rows) + "\n")
    code, _, err = run_cli(capsys, "attend", str(src), "--depth", "5", "--k", "4")
    assert code == cli.EXIT_DATA
    assert err.count("\n") == 1 and "non-finite value in point 7" in err


@pytest.mark.parametrize("count", ["99999999999", "6", "-1", "many"])
def test_cli_ply_vertex_count_beyond_file_exits_2_with_one_line(tmp_path, capsys, count):
    src = tmp_path / "pts.ply"
    src.write_text("ply\nformat ascii 1.0\n"
                   f"element vertex {count}\n"
                   "property float x\nproperty float y\nproperty float z\n"
                   "end_header\n0.1 0.2 0.3\n0.4 0.5 0.6\n")
    code, _, err = run_cli(capsys, "build-octree", str(src), "--depth", "4",
                           "--dump", str(tmp_path / "t.octf"))
    assert code == cli.EXIT_DATA
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_ply_without_vertices_exits_2_with_one_line(tmp_path, capsys):
    src = tmp_path / "pts.ply"
    src.write_text("ply\nformat ascii 1.0\nelement vertex 0\n"
                   "property float x\nproperty float y\nproperty float z\nend_header\n")
    code, _, err = run_cli(capsys, "build-octree", str(src), "--depth", "4",
                           "--dump", str(tmp_path / "t.octf"))
    assert code == cli.EXIT_DATA
    assert err == f"data error: {src}: no points\n"


@pytest.mark.parametrize("header, row", [
    ("property float x\nproperty float y\nproperty float z\n", "0.1 abc 0.3"),
    ("property float x\nproperty float y\nproperty float z\nproperty float\n",
     "0.1 0.2 0.3 0.4"),
    ("property float x\nproperty float y\nproperty float z\n", "0.1 \xff 0.3"),
], ids=["non-numeric-value", "unnamed-property", "non-utf8-byte"])
def test_cli_malformed_ply_exits_2_with_one_line(tmp_path, capsys, header, row):
    src = tmp_path / "pts.ply"
    # latin-1 writes "\xff" as the single byte 0xff, which is not UTF-8
    src.write_bytes(("ply\nformat ascii 1.0\nelement vertex 2\n" + header
                     + f"end_header\n{row}\n{row}\n").encode("latin-1"))
    code, _, err = run_cli(capsys, "build-octree", str(src), "--depth", "4",
                           "--dump", str(tmp_path / "t.octf"))
    assert code == cli.EXIT_DATA
    assert err.count("\n") == 1 and "Traceback" not in err


def test_config_network_overrides():
    cfg = parse_run_config({"network": {"preset": "small",
                                        "num_classes": 5,
                                        "octree_depth": 7}})
    net = cfg.network.build()
    assert net.blocks == (2, 2, 6, 2)
    assert net.num_classes == 5


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"training": {"seed": 3, "steps": 12}}))
    cfg = load_run_config(str(path))
    assert cfg.training.seed == 3 and cfg.training.steps == 12
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_run_config(str(path))


# -- cli ----------------------------------------------------------------------

def test_cli_usage_error(capsys):
    code, _, err = run_cli(capsys, "partition", "--n", "10")
    assert code == cli.EXIT_USAGE
    assert "usage" in err.lower()
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == cli.EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["partition", "--n", "10", "--k", "0"],
    ["partition", "--n", "10", "--k", "4", "--d", "0"],
    ["attend", "{cloud}", "--k", "0"],
    ["attend", "{cloud}", "--d", "-1"],
    ["attend", "{cloud}", "--channels", "0"],
    ["attend", "{cloud}", "--depth", "0"],
    ["build-octree", "{cloud}", "--depth", "-3", "--dump", "{cloud}.octf"],
    ["partition", "--n", "-3", "--k", "4"],
    ["attend", "{cloud}", "--seed", "-1"],
    ["OCTFORMER_THREADS=abc", "partition", "--n", "4", "--k", "2"],
    ["OCTFORMER_THREADS=0", "partition", "--n", "4", "--k", "2"],
    ["--threads", "0", "partition", "--n", "4", "--k", "2"],
])
def test_cli_non_positive_sizes_exit_1_with_one_line(tmp_path, capsys, monkeypatch,
                                                     argv):
    cloud = tmp_path / "pts.xyz"
    cloud.write_text("\n".join(" ".join(f"{v:.6f}" for v in row)
                               for row in np.random.default_rng(4).random((60, 3))))
    monkeypatch.delenv("OCTFORMER_THREADS", raising=False)
    while "=" in argv[0]:  # leading NAME=value words set the environment, as in a shell
        name, value = argv[0].split("=", 1)
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    code, out, err = run_cli(capsys, *[a.format(cloud=cloud) for a in argv])
    assert code == cli.EXIT_USAGE and out == ""
    assert err.count("\n") == 1 and err.startswith("usage error: ")


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
def test_cli_bad_scale_exits_2_with_one_line(tmp_path, capsys, scale):
    cloud = tmp_path / "pts.xyz"
    cloud.write_text("\n".join(" ".join(f"{v:.6f}" for v in row)
                               for row in np.random.default_rng(5).random((60, 3))))
    code, out, err = run_cli(capsys, "build-octree", str(cloud), "--depth", "5",
                             "--scale", scale, "--dump", str(tmp_path / "t.octf"))
    assert code == cli.EXIT_DATA and out == ""
    assert err.count("\n") == 1 and "scale must be a finite positive number" in err


def test_cli_partition_golden_28_7_1(capsys):
    code, out, _ = run_cli(capsys, "partition", "--n", "28", "--k", "7", "--d", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "window,slot,source_index,is_pad"
    assert len(lines) == 29
    for flat, line in enumerate(lines[1:]):
        w, s, src, pad = line.split(",")
        assert int(w) == flat // 7 and int(s) == flat % 7
        assert int(src) == flat and pad == "0"


def test_cli_partition_golden_28_7_2(capsys):
    code, out, _ = run_cli(capsys, "partition", "--n", "28", "--k", "7", "--d", "2")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    window0 = [int(r[2]) for r in rows if r[0] == "0"]
    window1 = [int(r[2]) for r in rows if r[0] == "1"]
    assert window0 == [0, 2, 4, 6, 8, 10, 12]
    assert window1 == [1, 3, 5, 7, 9, 11, 13]
    assert all(r[3] == "0" for r in rows)


def test_cli_build_octree_and_dump(tmp_path, capsys):
    src = tmp_path / "pts.xyz"
    rng = np.random.default_rng(0)
    src.write_text("\n".join(" ".join(f"{v:.6f}" for v in row)
                             for row in rng.random((100, 3))) + "\n")
    dump = tmp_path / "tree.octf"
    code, out, _ = run_cli(capsys, "build-octree", str(src), "--depth", "5",
                           "--dump", str(dump))
    assert code == 0
    assert dump.read_bytes()[:4] == b"OCTF"
    assert "octree depth 5" in out


def test_cli_build_octree_missing_file(capsys):
    code, _, err = run_cli(capsys, "build-octree", "/nonexistent.xyz",
                           "--depth", "5", "--dump", "/tmp/x.octf")
    assert code == cli.EXIT_DATA


@pytest.mark.parametrize("argv", [
    ["segment", "{dir}", "--ckpt", "{d}/m.ofck"],
    ["segment", "{d}/cloud.xyz", "--ckpt", "{dir}"],
    ["segment", "{d}/cloud.xyz", "--ckpt", "{d}/m.ofck", "--out", "{dir}"],
    ["train-toy", "--config", "{dir}"],
    ["partition", "--n", "10", "--k", "4", "--csv", "{dir}"],
    ["build-octree", "{d}/cloud.xyz", "--depth", "5", "--dump", "{dir}"],
], ids=["segment-input", "segment-ckpt", "segment-out", "train-toy-config",
        "partition-csv", "build-octree-dump"])
def test_cli_directory_path_exits_2_with_one_line(toy_segment_files, tmp_path, capsys,
                                                  argv):
    d, _ = toy_segment_files
    argv = [a.format(d=d, dir=tmp_path) for a in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_DATA
    assert err.count("\n") == 1 and "Traceback" not in err
    assert str(tmp_path) in err


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                 "(1000000000000,) and data type int64"),
     "data error: out of memory: Unable to allocate 7.28 TiB"),
    (MemoryError(), "data error: out of memory\n"),
], ids=["numpy-message", "bare"])
def test_cli_input_too_large_for_memory_exits_2_with_one_line(capsys, monkeypatch,
                                                               error, message):
    """``partition --n 1000000000000`` fails its first allocation; the error is
    raised here instead, so that the test allocates nothing."""
    from octformer import partition

    def out_of_memory(*args, **kwargs):
        raise error

    monkeypatch.setattr(partition, "make_plan", out_of_memory)
    code, out, err = run_cli(capsys, "partition", "--n", "1000000000000", "--k", "4")
    assert code == cli.EXIT_DATA and out == ""
    assert err.count("\n") == 1 and message in err and "Traceback" not in err


def test_cli_attend_checksum_deterministic(tmp_path, capsys):
    src = tmp_path / "pts.xyz"
    rng = np.random.default_rng(1)
    src.write_text("\n".join(" ".join(f"{v:.6f}" for v in row)
                             for row in rng.random((200, 3))) + "\n")
    code, out1, _ = run_cli(capsys, "attend", str(src), "--depth", "6",
                            "--k", "8", "--d", "2", "--seed", "3")
    assert code == 0
    assert "checksum" in out1
    code, out2, _ = run_cli(capsys, "attend", str(src), "--depth", "6",
                            "--k", "8", "--d", "2", "--seed", "3")
    assert out1 == out2


@pytest.mark.parametrize("channels, heads", [(33, 1), (50, 2)])
def test_cli_attend_takes_the_largest_head_count_dividing_its_channels(
        tmp_path, capsys, monkeypatch, channels, heads):
    src = tmp_path / "pts.xyz"
    src.write_text("\n".join(" ".join(f"{v:.6f}" for v in row)
                             for row in np.random.default_rng(1).random((200, 3))) + "\n")
    seen, block_fn = [], network.octformer_block

    def recording_block(x, octree, depth, block, *args, **kwargs):
        seen.append(block.attn.heads)
        return block_fn(x, octree, depth, block, *args, **kwargs)

    monkeypatch.setattr(network, "octformer_block", recording_block)
    code, out, err = run_cli(capsys, "attend", str(src), "--depth", "6", "--k", "8",
                             "--channels", str(channels))
    assert code == 0 and err == ""
    assert out.count("\n") == 1 and f"channels {channels} checksum" in out
    assert seen == [heads]


def test_cli_selftest(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert out.count("PASS") == 7
    assert "FAIL" not in out


def test_cli_train_and_segment(tmp_path, capsys):
    config = {
        "dataset": {"kind": "two-spheres", "n_clouds": 2,
                    "points_per_cloud": 250, "depth": 7, "seed": 1},
        "network": {"preset": None, "channels": 16, "blocks": [1, 1, 1, 1],
                    "point_number": 8, "dilation": 2, "num_classes": 2,
                    "octree_depth": 7,
                    "features": ["position", "color"]},
        "training": {"steps": 2, "lr": 1e-3, "seed": 0},
        "outputs": {"checkpoint": str(tmp_path / "m.ofck"),
                    "loss_curve": str(tmp_path / "loss.csv")},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "train-toy", "--config", str(cfg_path))
    assert code == 0, err
    curve = (tmp_path / "loss.csv").read_text().strip().split("\n")
    assert curve[0] == "step,lr,loss,accuracy"
    assert len(curve) == 3

    # segment with the saved checkpoint
    pts = tmp_path / "cloud.xyz"
    rng = np.random.default_rng(2)
    pos = rng.random((120, 3))
    col = rng.random((120, 3))
    pts.write_text("\n".join(
        " ".join(f"{v:.6f}" for v in np.concatenate([p, c]))
        for p, c in zip(pos, col)) + "\n")
    out_path = tmp_path / "labels.txt"
    code, _, err = run_cli(capsys, "segment", str(pts), "--ckpt",
                           str(tmp_path / "m.ofck"), "--out", str(out_path))
    assert code == 0, err
    labels = out_path.read_text().strip().split("\n")
    assert len(labels) == 120
    assert set(labels) <= {"0", "1"}


def test_cli_bench_tiny(tmp_path, capsys):
    config = {
        "bench": {"sizes": [50, 100], "variants": ["octree", "global"],
                  "trials": 1, "warmup": 0, "channels": 8, "heads": 2,
                  "point_number": 8, "depth": 6, "seed": 0},
        "outputs": {"bench_csv": str(tmp_path / "bench.csv")},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "bench", "--config", str(cfg_path))
    assert code == 0, err
    rows = (tmp_path / "bench.csv").read_text().strip().split("\n")
    assert rows[0] == "variant,n,median_s,iqr_s,trials"
    assert len(rows) == 5
    for row in rows[1:]:
        variant, n, median_s, iqr_s, trials = row.split(",")
        assert variant in ("octree", "global")
        assert float(median_s) > 0
        assert trials == "1"


@pytest.mark.parametrize("settings", [
    {"cubic_window": 0, "variants": ["cubic"]}, {"point_number": 0}, {"channels": 0},
    {"heads": 0}, {"k_neighbors": 0, "variants": ["knn"]}, {"depth": 40},
    {"depth": 3}], ids=["cubic_window-0", "point_number-0", "channels-0", "heads-0",
                        "k_neighbors-0", "depth-40", "depth-3"])
def test_cli_bench_bad_settings_exit_2_with_one_line(tmp_path, capsys, settings):
    # depth 3 holds too few surface cells for 300 tokens
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"bench": {"sizes": [300], "trials": 1, "warmup": 0,
                                              **settings}}))
    code, _, err = run_cli(capsys, "bench", "--config", str(cfg_path))
    assert code == cli.EXIT_DATA
    assert len(err.strip().splitlines()) == 1, err


@pytest.mark.parametrize("settings, message", [
    ({"variants": ["octree", "global"], "sizes": [64, 5000], "depth": 6},
     "global attention guarded at N <= 4096, got 5000"),
    ({"channels": 10, "heads": 3}, "bench channels 10 not divisible by heads 3"),
], ids=["global-above-guard", "channels-not-divisible-by-heads"])
def test_cli_bench_refuses_a_sweep_that_cannot_run_before_any_cell(
        tmp_path, capsys, monkeypatch, settings, message):
    data = {"bench": {"sizes": [64], "trials": 1, "warmup": 0, **settings}}
    with pytest.raises(ConfigError, match=message):
        parse_run_config(data)
    cells, make_runner = [], bench._make_runner

    def counting(*args):
        cells.append(args)
        return make_runner(*args)

    monkeypatch.setattr(bench, "_make_runner", counting)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "bench", "--config", str(cfg_path))
    assert (code, out, err) == (cli.EXIT_DATA, "", f"data error: {message}\n")
    assert cells == []


def test_cli_bad_config_is_data_error(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"unknown_section": {}}))
    code, _, _ = run_cli(capsys, "bench", "--config", str(cfg_path))
    assert code == cli.EXIT_DATA


def test_cli_threads_flag_sets_env(monkeypatch, capsys):
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    code, out, _ = run_cli(capsys, "--threads", "2", "partition",
                           "--n", "4", "--k", "2")
    assert code == 0
    import os
    assert os.environ["OMP_NUM_THREADS"] == "2"


def test_cli_threads_env_default(monkeypatch, capsys):
    monkeypatch.setenv("OCTFORMER_THREADS", "3")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    code, _, _ = run_cli(capsys, "partition", "--n", "4", "--k", "2")
    assert code == 0
    import os
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"


def test_cli_threads_zero_is_usage_error(monkeypatch, capsys):
    monkeypatch.delenv("OCTFORMER_THREADS", raising=False)
    code, _, err = run_cli(capsys, "--threads", "0", "partition",
                           "--n", "4", "--k", "2")
    assert code == cli.EXIT_USAGE
    assert "threads" in err
