import numpy as np
import pytest

from octformer.bench import BenchSettings, bench_attention, rows_to_csv
from octformer.errors import ConfigError
from octformer.octree import build_octree
from octformer.synthetic import (
    cloud_from_cells,
    octant_task_cloud,
    surface_cells,
    surface_depth,
    two_spheres_dataset,
)

from oracles import linear_fit_r2


def test_surface_cells_exact_count_and_sorted():
    for n in (100, 3000):
        depth = surface_depth(n)
        keys = surface_cells(n, depth, seed=1)
        assert keys.size == n
        assert (np.diff(keys.astype(np.int64)) > 0).all()
        tree = build_octree(cloud_from_cells(keys, depth))
        assert tree.node_count(depth) == n
        assert np.array_equal(tree.keys[depth], keys)


def test_surface_cells_deterministic():
    a = surface_cells(500, 7, seed=3)
    b = surface_cells(500, 7, seed=3)
    assert np.array_equal(a, b)
    c = surface_cells(500, 7, seed=4)
    assert not np.array_equal(a, c)


def test_two_spheres_dataset_shapes():
    clouds = two_spheres_dataset(3, 500, depth=7, seed=0)
    assert len(clouds) == 3
    for sample in clouds:
        assert sample.cloud.num_points == 500
        assert sample.cloud.colors is not None
        assert set(np.unique(sample.labels)) == {0, 1}


def test_octant_task_balanced_and_symmetric():
    sample = octant_task_cloud(50, depth=5, seed=1)
    assert sample.labels.size == 400
    counts = np.bincount(sample.labels, minlength=8)
    assert (counts == 50).all()
    # features are position-free
    assert np.allclose(sample.cloud.colors, 0.5)
    # octant of each point matches its label
    octant = (sample.cloud.positions >= 0.5) @ np.array([4, 2, 1])
    assert np.array_equal(octant.astype(int), sample.labels)


def test_linear_fit_r2():
    ns = np.array([1, 2, 3, 4.0])
    assert linear_fit_r2(ns, 2 * ns + 1) > 0.999999
    rng = np.random.default_rng(0)
    noisy = 2 * ns + rng.normal(scale=3.0, size=4)
    assert linear_fit_r2(ns, noisy) < 1.0


def test_bench_rows_and_csv():
    cfg = BenchSettings(sizes=(64, 128), trials=2, warmup=0, channels=8, heads=2,
                        point_number=8, depth=6, seed=0)
    rows = bench_attention("octree", cfg)
    assert [r.n for r in rows] == [64, 128]
    assert all(r.median_s > 0 and r.iqr_s >= 0 for r in rows)
    csv_text = rows_to_csv(rows)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "variant,n,median_s,iqr_s,trials"
    assert len(lines) == 3


def test_bench_guards():
    with pytest.raises(ConfigError):
        BenchSettings(trials=0)
    cfg = BenchSettings(sizes=(64,), trials=1, warmup=0, depth=6)
    with pytest.raises(ConfigError):
        bench_attention("hexagonal", cfg)
    with pytest.raises(ConfigError):
        bench_attention("global", BenchSettings(sizes=(5000,), trials=1, warmup=0, depth=6))
