from unittest import mock

import numpy as np
import pytest

from octformer import pointcloud
from octformer.errors import DataError
from octformer.octree import QuantizedCloud
from octformer.pointcloud import (
    RawCloud,
    load_point_cloud,
    normalize_cloud,
    read_points,
    write_points,
)


def test_read_xyz_three_lines(tmp_path):
    p = tmp_path / "a.xyz"
    p.write_text("0 0 0\n1 2 3\n4 5 6\n")
    raw = read_points(str(p))
    assert raw.positions.shape == (3, 3)
    assert raw.colors is None and raw.normals is None


def test_read_xyz_with_color_and_normals(tmp_path):
    p = tmp_path / "a.xyz"
    p.write_text("0 0 0 0.5 0.25 1 0 0 1\n1 1 1 1 0 0 0 1 0\n")
    raw = read_points(str(p))
    assert raw.colors.shape == (2, 3)
    assert raw.normals.shape == (2, 3)
    assert raw.colors[0].tolist() == [0.5, 0.25, 1.0]


def test_read_xyz_errors(tmp_path):
    p = tmp_path / "bad.xyz"
    p.write_text("1 2\n")
    with pytest.raises(DataError):
        read_points(str(p))
    p.write_text("1 2 3\n1 2\n")
    with pytest.raises(DataError):
        read_points(str(p))
    p.write_text("1 2 zebra\n")
    with pytest.raises(DataError):
        read_points(str(p))
    p.write_text("")
    with pytest.raises(DataError):
        read_points(str(p))
    p.write_text("1 2 nan\n")
    with pytest.raises(DataError):
        read_points(str(p))


@pytest.mark.parametrize("width", [3, 6, 9])
def test_read_xyz_matches_the_line_scan_bit_for_bit(tmp_path, width):
    from octformer.pointcloud import _scan_xyz

    rng = np.random.default_rng(width)
    values = rng.normal(size=(40, width)) * 10.0 ** rng.integers(-8, 8, size=(40, width))
    lines = ["# a header comment", ""]
    for i, row in enumerate(values):
        fmt = "{:.17g}" if i % 2 else "{:+.6e}"
        lines.append("\t ".join(fmt.format(v) for v in row)
                     + ("  # trailing comment" if i % 5 == 0 else ""))
        if i % 7 == 0:
            lines.append("   ")
    p = tmp_path / "pts.xyz"
    p.write_text("\n".join(lines) + "\n")
    raw = read_points(str(p))
    got = np.hstack([a for a in (raw.positions, raw.colors, raw.normals) if a is not None])
    assert got.shape == (40, width)
    assert got.tobytes() == _scan_xyz(str(p)).tobytes()


def test_read_xyz_error_text_names_the_line(tmp_path):
    p = tmp_path / "bad.xyz"
    cases = {
        "# c\n\n1 2\n": ":3: expected 3, 6, or 9 columns, got 2",
        "1 2 3\n\n1 2\n": ":3: inconsistent column count",
        "1 2 3\n1 2 zebra\n": ":2: unparseable number",
        "# only a comment\n": ": no points",
    }
    for text, tail in cases.items():
        p.write_text(text)
        with pytest.raises(DataError) as e:
            read_points(str(p))
        assert str(e.value) == f"{p}{tail}"
    p.write_text("1_0 2 3\n")  # float() reads digit separators, the fast parse does not
    assert read_points(str(p)).positions.tolist() == [[10.0, 2.0, 3.0]]


def test_xyz_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    raw = RawCloud(rng.normal(size=(50, 3)) * 10,
                   colors=rng.random((50, 3)),
                   normals=rng.normal(size=(50, 3)))
    path = tmp_path / "out.xyz"
    write_points(str(path), raw)
    back = read_points(str(path))
    assert np.allclose(back.positions, raw.positions, atol=1e-6)
    assert np.allclose(back.colors, raw.colors, atol=1e-6)
    assert np.allclose(back.normals, raw.normals, atol=1e-6)


def test_ply_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    raw = RawCloud(rng.normal(size=(20, 3)), colors=rng.random((20, 3)))
    path = tmp_path / "out.ply"
    write_points(str(path), raw)
    back = read_points(str(path))
    assert np.allclose(back.positions, raw.positions, atol=1e-6)
    assert np.allclose(back.colors, raw.colors, atol=1e-6)


def test_ply_uchar_colors_scaled(tmp_path):
    p = tmp_path / "c.ply"
    p.write_text(
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n"
        "0 0 0 255 0 128\n1 1 1 0 255 64\n")
    raw = read_points(str(p))
    assert np.allclose(raw.colors[0], [1.0, 0.0, 128 / 255])
    assert np.allclose(raw.colors[1], [0.0, 1.0, 64 / 255])


def test_ply_errors(tmp_path):
    p = tmp_path / "bad.ply"
    p.write_text("not a ply\n")
    with pytest.raises(DataError):
        read_points(str(p))
    p.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
    with pytest.raises(DataError):
        read_points(str(p))


def _fstring_rows(cloud: RawCloud) -> str:
    """The writers' rows as they were formatted one numpy scalar at a time."""
    out = []
    for i in range(cloud.positions.shape[0]):
        fields = list(cloud.positions[i])
        if cloud.colors is not None:
            fields += list(cloud.colors[i])
        if cloud.normals is not None:
            fields += list(cloud.normals[i])
        out.append(" ".join(f"{v:.9g}" for v in fields) + "\n")
    return "".join(out)


_EDGE_VALUES = [-0.0, 5e-324, 1e300, -1e300, 1e-300, -1e-300, np.nan, np.inf, -np.inf,
                2.0 ** 60, 0.1, 1 / 3, 123456789.123, 1e16, 0.0, -7.0, 2.0 ** -1074, 65504.0]


@pytest.mark.parametrize("ext", ["xyz", "ply"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
@pytest.mark.parametrize("width", [3, 6, 9])
@pytest.mark.parametrize("chunk_rows", [7, pointcloud.WRITE_CHUNK_ROWS])
def test_writers_match_the_fstring_expression_byte_for_byte(tmp_path, ext, dtype, width,
                                                           chunk_rows):
    rng = np.random.default_rng(width)
    n = 40
    if dtype is np.int64:
        pos = rng.integers(-2**40, 2**40, size=(n, 3))
        pos[:2] = [[2**60, -2**60, 2**60 + 1], [0, -1, 2**53 + 1]]
    else:
        pos = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-8, 8, size=(n, 3))
        pos[:6] = np.reshape(_EDGE_VALUES, (6, 3))
        with np.errstate(over="ignore"):  # 1e300 is inf in float32
            pos = pos.astype(dtype)
    extra = [rng.random((n, 3)), rng.normal(size=(n, 3))][:(width - 3) // 3]
    if width == 9:
        extra[1][:6] = np.reshape(_EDGE_VALUES, (6, 3))[::-1]
    cloud = RawCloud(pos, *extra)
    path = tmp_path / f"out.{ext}"
    with mock.patch.object(pointcloud, "WRITE_CHUNK_ROWS", chunk_rows):
        write_points(str(path), cloud)
    text = path.read_text()
    if ext == "ply":
        assert text.startswith(f"ply\nformat ascii 1.0\nelement vertex {n}\n")
        text = text.split("end_header\n", 1)[1]
    assert text == _fstring_rows(cloud)


@pytest.mark.parametrize("ext", ["xyz", "ply"])
def test_writers_write_an_empty_cloud(tmp_path, ext):
    path = tmp_path / f"out.{ext}"
    write_points(str(path), RawCloud(np.zeros((0, 3)), colors=np.zeros((0, 3))))
    text = path.read_text()
    assert text == ("" if ext == "xyz" else
                    "ply\nformat ascii 1.0\nelement vertex 0\nproperty float x\n"
                    "property float y\nproperty float z\nproperty float red\n"
                    "property float green\nproperty float blue\nend_header\n")


@pytest.mark.parametrize("layout", ["uchar-colors", "extra-property", "face-element"])
def test_read_ply_layouts(tmp_path, layout):
    rng = np.random.default_rng(7)
    n = 50
    pos = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-8, 8, size=(n, 3))
    rgb = rng.integers(0, 256, size=(n, 3))
    # (property type, names, values) in declared order
    blocks = [("float", ("x", "y", "z"), pos), ("uchar", ("red", "green", "blue"), rgb)]
    if layout == "extra-property":  # first, so that x is not column 0
        blocks.insert(0, ("int", ("label",), rng.integers(-5, 5, size=(n, 1))))
    header = ["ply", "format ascii 1.0", "comment written by a test", f"element vertex {n}"]
    header += [f"property {typ} {name}" for typ, names, _ in blocks for name in names]
    rows = ["\t ".join(f"{v:.17g}" for v in row)
            for row in np.hstack([values for _, _, values in blocks])]
    if layout == "face-element":
        header += ["element face 2", "property list uchar int vertex_indices"]
        rows += ["3 0 1 2", "3 2 3 4"]
    path = tmp_path / "pts.ply"
    path.write_text("\n".join(header + ["end_header"] + rows) + "\n")
    raw = read_points(str(path))
    assert raw.positions.tobytes() == pos.tobytes()
    assert raw.colors.tobytes() == (rgb / 255.0).tobytes()
    assert raw.normals is None


def test_read_ply_row_errors_name_the_row(tmp_path):
    p = tmp_path / "bad.ply"
    head = ("ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n")
    cases = {  # rows long enough for the header's byte check
        "1.5 2.5 3.5\n4.5 5.5\n7.5 8.5 9.5\n": ": bad vertex row 1",
        "1.5 2.5 3.5\n\n7.5 8.5 9.5\n": ": bad vertex row 1",
        "1.5 2.5 3.5\n4.5 five 6.5\n7.5 8.5 9.5\n": ": unparseable number in vertex row 1",
        "1.5 2.5 3.5\n4.5 5.5 6.5\n": ": truncated vertex data at row 2",
        "1.5 2.5 3.5\n4.5 5.5 6.5\n7.5 nan 9.5\n": ": non-finite value in point 2",
    }
    for body, tail in cases.items():
        p.write_text(head + body)
        with pytest.raises(DataError) as e:
            read_points(str(p))
        assert str(e.value) == f"{p}{tail}"


def test_normalize_fit_bounding_box():
    raw = RawCloud(np.array([[0.0, 0.0, 0.0], [10.0, 5.0, 2.0]]))
    cloud = normalize_cloud(raw, depth=4)
    assert cloud.positions.min() >= 0
    assert cloud.positions.max() < 1


def test_normalize_with_scale():
    raw = RawCloud(np.array([[0.0, 0.0, 0.0], [1.5, 0.5, 0.5]]))
    cloud = normalize_cloud(raw, depth=4, scale=0.25)  # cube spans 4 units
    assert np.allclose(cloud.positions[1], [1.5 / 4, 0.5 / 4, 0.5 / 4])
    with pytest.raises(DataError):
        normalize_cloud(RawCloud(np.array([[0.0, 0, 0], [5.0, 0, 0]])),
                        depth=4, scale=0.25)


def test_load_point_cloud(tmp_path):
    p = tmp_path / "pts.xyz"
    p.write_text("0 0 0\n1 1 1\n2 0 1\n")
    cloud = load_point_cloud(str(p), depth=5)
    assert isinstance(cloud, QuantizedCloud)
    assert cloud.num_points == 3
