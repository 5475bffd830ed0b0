"""Seeded synthetic point clouds for training demos, ablations, and benches.

Samplers draw points on analytic surfaces (unions of spheres) so that the
occupied-cell sparsity resembles scanned surfaces rather than volume noise.
"""

from __future__ import annotations

import numpy as np

from . import morton
from .errors import ConfigError
from .network import LabeledCloud
from .octree import QuantizedCloud

COLOR_NOISE = 0.3  # std of the Gaussian noise on two-spheres colors
SURFACE_SPHERES = 5  # spheres in a ``surface_cells`` cloud


def sphere_points(rng: np.random.Generator, n: int, center: np.ndarray,
                  radius: float) -> np.ndarray:
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return center + radius * dirs


def _clip_unit(points: np.ndarray) -> np.ndarray:
    return np.clip(points, 0.0, np.nextafter(1.0, 0.0))


def two_spheres_dataset(n_clouds: int, points_per_cloud: int, depth: int,
                        seed: int) -> list[LabeledCloud]:
    """Binary segmentation set: two interleaved spheres per cloud.

    The label is the sphere a point lies on; colors are label-correlated
    with Gaussian noise, so the task is learnable but not degenerate.
    """
    rng = np.random.default_rng(seed)
    clouds = []
    for _ in range(n_clouds):
        n0 = points_per_cloud // 2
        n1 = points_per_cloud - n0
        c0 = rng.uniform(0.35, 0.45, size=3)
        c1 = rng.uniform(0.55, 0.65, size=3)
        p0 = sphere_points(rng, n0, c0, rng.uniform(0.18, 0.25))
        p1 = sphere_points(rng, n1, c1, rng.uniform(0.18, 0.25))
        positions = _clip_unit(np.concatenate([p0, p1]))
        labels = np.concatenate([np.zeros(n0, dtype=np.int64),
                                 np.ones(n1, dtype=np.int64)])
        base = np.where(labels[:, None] == 0, [0.8, 0.2, 0.2], [0.2, 0.2, 0.8])
        colors = np.clip(base + rng.normal(scale=COLOR_NOISE, size=(positions.shape[0], 3)),
                         0.0, 1.0)
        order = rng.permutation(positions.shape[0])
        cloud = QuantizedCloud(positions[order], depth, colors=colors[order])
        clouds.append(LabeledCloud(cloud, labels[order]))
    return clouds


def octant_task_cloud(points_per_octant: int, depth: int, seed: int) -> LabeledCloud:
    """Position-only task: label = spatial octant, features carry nothing.

    Points are sampled on a sphere patch inside octant 0 and mirrored into
    all eight octants, so per-octant point counts are exactly balanced and
    the cloud is symmetric under the octant reflections. Colors are a
    constant, making the features position-free.
    """
    rng = np.random.default_rng(seed)
    base = sphere_points(rng, points_per_octant, np.array([0.25, 0.25, 0.25]), 0.17)
    base = np.clip(base, 0.02, 0.48)
    parts, labels = [], []
    for octant in range(8):
        mirrored = base.copy()
        for axis, bit in enumerate((4, 2, 1)):
            if octant & bit:
                mirrored[:, axis] = 1.0 - mirrored[:, axis]
        parts.append(mirrored)
        labels.append(np.full(points_per_octant, octant, dtype=np.int64))
    positions = _clip_unit(np.concatenate(parts))
    labels = np.concatenate(labels)
    colors = np.full_like(positions, 0.5)
    return LabeledCloud(QuantizedCloud(positions, depth, colors=colors), labels)


def _surface_radius(n_cells: int, depth: int) -> float:
    """Sphere radius at which the union of ``SURFACE_SPHERES`` surfaces holds
    ~1.4x ``n_cells`` cells of the given depth."""
    return np.sqrt(1.4 * n_cells / (4 * np.pi * SURFACE_SPHERES * 4.0**depth))


def surface_depth(n_cells: int) -> int:
    """Octree depth at which ``n_cells`` surface cells stay locally dense.

    Picks the shallowest depth whose sphere radii (sized so the union
    surface holds ~1.4x the requested cells) still fit inside the cube.
    """
    for depth in range(6, 22):
        if _surface_radius(n_cells, depth) <= 0.22:
            return depth
    raise ValueError("cell target too large")


def surface_cells(n_cells: int, depth: int, seed: int) -> np.ndarray:
    """Exactly ``n_cells`` distinct occupied cells on a union of spheres.

    Returns sorted shuffled keys; used by the bench harness to control the
    token count precisely. Sphere radii are sized so the union surface
    holds ~1.4x the target, keeping the picked subset locally dense the
    way scanned surfaces are.
    """
    rng = np.random.default_rng(seed)
    base_r = min(max(_surface_radius(n_cells, depth), 2.0 / (1 << depth)), 0.22)
    radii = base_r * rng.uniform(0.8, 1.2, size=SURFACE_SPHERES)
    radii = np.clip(radii, 2.0 / (1 << depth), 0.22)
    lo, hi = 0.05 + radii, 0.95 - radii
    centers = lo[:, None] + rng.random((SURFACE_SPHERES, 3)) * (hi - lo)[:, None]
    keys = np.empty(0, dtype=np.uint64)
    batch = max(4 * n_cells, 4096)
    while keys.size < n_cells:
        which = rng.integers(0, SURFACE_SPHERES, size=batch)
        pts = sphere_points(rng, batch, centers[which], radii[which, None])
        pts = _clip_unit(pts)
        cells = np.floor(pts * (1 << depth)).astype(np.int64)
        cells = np.clip(cells, 0, (1 << depth) - 1)
        found = np.unique(np.concatenate([keys, morton.encode_cells(cells, depth)]))
        batch *= 2
        # a batch that finds no new cell has exhausted the spheres' surfaces
        if found.size < n_cells and (found.size == keys.size
                                     or batch > 64 * n_cells + 10_000_000):
            raise ConfigError(f"{n_cells} surface cells asked for at depth {depth}; "
                              f"the sampler found {found.size}")
        keys = found
    pick = np.sort(rng.choice(keys.size, size=n_cells, replace=False))
    return keys[pick]


def cloud_from_cells(keys: np.ndarray, depth: int) -> QuantizedCloud:
    """One point at the center of each given cell."""
    coords = morton.decode_cells(keys, depth)
    positions = (coords + 0.5) / float(1 << depth)
    return QuantizedCloud(positions, depth)
