"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they complete. Tolerances and runtime budgets are fixed here and
match the package's documented guarantees.
"""

import dataclasses
import time

import numpy as np

from octformer import cli
from octformer import tensor as T
from octformer.bench import BenchSettings, bench_attention
from octformer.experiments import run_cpe_ablation
from octformer.network import (
    BlockParams,
    NetworkConfig,
    OptimSettings,
    init_model,
    octformer_block,
    train_toy,
)
from octformer.octconv import ConvSpec, octree_conv
from octformer.octree import QuantizedCloud, build_octree, filter_and_pad_count
from octformer.partition import (
    AttentionParams,
    PartitionPlan,
    heads_for,
    make_plan,
    windowed_attention,
)
from octformer.synthetic import two_spheres_dataset

from oracles import (
    count_parameters,
    dense_conv3d,
    dense_masked_attention,
    float64,
    full_grid_tree,
    gradcheck,
    interleave2d,
    linear_fit_r2,
)


def report(criterion: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion:2d} [{name}]: {status}{suffix}")
    assert ok, f"criterion {criterion} {name}: {detail}"


# -- 1: partition goldens ---------------------------------------------------------

def test_criterion_1_partition_goldens(capsys, tmp_path):
    t0 = time.perf_counter()
    ok = True

    code = cli.main(["partition", "--n", "28", "--k", "7", "--d", "1"])
    out = capsys.readouterr().out
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    ok &= code == 0 and len(rows) == 28
    for flat, row in enumerate(rows):
        ok &= (int(row[0]), int(row[1]), int(row[2]), row[3]) == (
            flat // 7, flat % 7, flat, "0")

    code = cli.main(["partition", "--n", "28", "--k", "7", "--d", "2"])
    out = capsys.readouterr().out
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    ok &= code == 0
    windows = {w: [] for w in range(4)}
    for row in rows:
        windows[int(row[0])].append(int(row[2]))
        ok &= row[3] == "0"
    ok &= windows[0] == [0, 2, 4, 6, 8, 10, 12]
    ok &= windows[1] == [1, 3, 5, 7, 9, 11, 13]
    ok &= windows[2] == [14, 16, 18, 20, 22, 24, 26]
    ok &= windows[3] == [15, 17, 19, 21, 23, 25, 27]

    # full 8x8 2D grid in z-order: k=16/d=1 gives 4x4 blocks, k=16/d=4 the
    # dilated parity lattices
    coords = [(x, y) for x in range(8) for y in range(8)]
    order = sorted(range(64), key=lambda i: interleave2d(*coords[i], 3))
    plan = make_plan(64, 16, 1)
    src = plan.window_sources().reshape(plan.b, plan.k)
    for w in range(4):
        cells = {coords[order[int(p)]] for p in src[w]}
        bx, by = (w >> 1) * 4, (w & 1) * 4
        ok &= cells == {(bx + i, by + j) for i in range(4) for j in range(4)}
    plan = make_plan(64, 16, 4)
    src = plan.window_sources().reshape(plan.b, plan.k)
    seen_parities = set()
    for w in range(4):
        cells = {coords[order[int(p)]] for p in src[w]}
        parities = {(x % 2, y % 2) for x, y in cells}
        ok &= len(parities) == 1
        px, py = parities.pop()
        seen_parities.add((px, py))
        ok &= cells == {(x, y) for x in range(px, 8, 2) for y in range(py, 8, 2)}
    ok &= seen_parities == {(0, 0), (0, 1), (1, 0), (1, 1)}

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    with capsys.disabled():
        report(1, "partition goldens", ok, f"{elapsed:.3f}s")


# -- 2: attention oracle equivalence ------------------------------------------------

def test_criterion_2_attention_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2025)
    worst32 = worst64 = 0.0
    for _ in range(200):
        c = int(rng.choice([8, 96]))
        k = int(rng.choice([16, 32]))
        d = int(rng.choice([1, 2, 4]))
        n = int(rng.integers(1, 513))
        heads = max(1, c // 16)
        params64 = AttentionParams.init(c, heads, rng, dtype=np.float64)
        x64 = rng.normal(size=(n, c))
        plan = make_plan(n, k, d)
        ref = dense_masked_attention(
            x64, params64.w_q.data, params64.w_k.data, params64.w_v.data,
            params64.w_o.data, heads, plan.window_of_position()[:n])

        got64 = windowed_attention(T.Tensor(x64, np.float64), plan, params64).data
        worst64 = max(worst64, float(np.abs(got64 - ref).max(initial=0.0)))

        params32 = AttentionParams(
            T.Tensor(params64.w_q.data, np.float32),
            T.Tensor(params64.w_k.data, np.float32),
            T.Tensor(params64.w_v.data, np.float32),
            T.Tensor(params64.w_o.data, np.float32), heads, params64.head_dim)
        got32 = windowed_attention(T.Tensor(x64, np.float32), plan, params32).data
        worst32 = max(worst32, float(np.abs(got32 - ref).max(initial=0.0)))

    elapsed = time.perf_counter() - t0
    ok = worst32 < 1e-5 and worst64 < 1e-10 and elapsed < 60.0
    with capsys.disabled():
        report(2, "attention oracle equivalence", ok,
               f"max32 {worst32:.2e}, max64 {worst64:.2e}, {elapsed:.1f}s")


# -- 3: padding bound and invariance -------------------------------------------------

def test_criterion_3_padding(capsys):
    ok = True
    rng = np.random.default_rng(3)
    for n in list(range(0, 70, 3)) + [128, 500, 12345]:
        for k in (7, 16, 32):
            for d in (1, 2, 4):
                padded = filter_and_pad_count(n, k, d)
                ok &= padded - n < k * d
                ok &= padded % (k * d) == 0 and padded >= n

    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(5, 200))
        k = int(rng.choice([8, 16, 32]))
        d = int(rng.choice([1, 2, 4]))
        c = 16
        params = AttentionParams.init(c, 2, rng)
        x = T.Tensor(rng.normal(size=(n, c)).astype(np.float32))
        base = windowed_attention(x, make_plan(n, k, d), params).data
        for extra in (1, 2):
            padded = filter_and_pad_count(n, k, d) + extra * k * d
            more = windowed_attention(x, PartitionPlan(n, k, d, padded),
                                      params).data
            worst = max(worst, float(np.abs(base - more).max()))
    ok &= worst < 1e-6
    with capsys.disabled():
        report(3, "padding bound and invariance", ok, f"max drift {worst:.2e}")


# -- 4: octree invariants --------------------------------------------------------------

def test_criterion_4_octree_invariants(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(100):
        depth = int(rng.integers(2, 8))
        n = int(rng.integers(1, 2000))
        cloud = QuantizedCloud(rng.random((n, 3)), depth)
        tree = build_octree(cloud)
        brute = {tuple(c) for c in cloud.cells().tolist()}
        ok &= tree.node_count(depth) == len(brute)
        for level in range(1, depth + 1):
            keys = tree.keys[level]
            ok &= bool((np.diff(keys.astype(np.int64)) > 0).all())
        for level in range(1, depth):
            up = tree.keys[level + 1] >> np.uint64(3)  # children's parent keys
            lo = np.searchsorted(up, tree.keys[level], "left")
            hi = np.searchsorted(up, tree.keys[level], "right")
            ok &= bool((hi > lo).all())
            ok &= lo[0] == 0 and hi[-1] == tree.node_count(level + 1)
            ok &= bool((lo[1:] == hi[:-1]).all())
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    with capsys.disabled():
        report(4, "octree invariants", ok, f"100 clouds, {elapsed:.1f}s")


# -- 5: convolution oracle ---------------------------------------------------------------

def test_criterion_5_convolution_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    cases = [
        (3, 1, False, 4), (3, 1, True, 4),   # 16^3 grid
        (2, 2, False, 4), (2, 2, True, 4),
        (3, 2, False, 3), (3, 2, True, 3),   # 8^3 grid
        (2, 1, False, 3), (2, 1, True, 3),
    ]
    for kernel, stride, depthwise, depth in cases:
        tree = full_grid_tree(depth)
        lim = 1 << depth
        c_in, c_out = 3, (3 if depthwise else 4)
        taps = kernel**3
        wshape = (taps, c_in) if depthwise else (taps, c_in, c_out)
        w = rng.normal(size=wshape)
        spec = ConvSpec(kernel, stride, c_in, c_out, T.Tensor(w, np.float64),
                        depthwise)
        x = rng.normal(size=(tree.node_count(depth), c_in))
        got = octree_conv(T.Tensor(x, np.float64), tree, depth, spec).data
        grid = np.zeros((lim, lim, lim, c_in))
        coords = tree.coords(depth)
        grid[coords[:, 0], coords[:, 1], coords[:, 2]] = x
        ref_grid = dense_conv3d(grid, w, kernel, stride, depthwise)
        out_depth = depth if stride == 1 else depth - 1
        oc = tree.coords(out_depth)
        ref = ref_grid[oc[:, 0], oc[:, 1], oc[:, 2]]
        worst = max(worst, float(np.abs(got - ref).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 60.0
    with capsys.disabled():
        report(5, "convolution oracle", ok,
               f"8 variants, max {worst:.2e}, {elapsed:.1f}s")


# -- 6: gradient checks -------------------------------------------------------------------

def test_criterion_6_gradient_checks(capsys):
    t0 = time.perf_counter()
    worst = 0.0

    def track(err):
        nonlocal worst
        worst = max(worst, err)

    # elementwise / structural
    track(gradcheck(lambda xs: T.sum_(T.mul(T.add(xs[0], xs[1]), xs[2])),
                    [(4, 5), (4, 5), (4, 5)], seed=60))
    track(gradcheck(lambda xs: T.sum_(T.mul(xs[0], xs[1])), [(6,), (6,)], seed=61))
    track(gradcheck(
        lambda xs: T.sum_(T.mul(T.transpose(T.reshape(xs[0], (2, 3, 4)), (2, 0, 1)),
                                T.reshape(xs[1], (4, 2, 3)))),
        [(6, 4), (24,)], seed=62))
    track(gradcheck(lambda xs: T.mean_(T.mul(xs[0], xs[0])), [(5, 3)], seed=63))
    # matmul (plain and batched)
    track(gradcheck(lambda xs: T.sum_(T.matmul(xs[0], xs[1])),
                    [(4, 3), (3, 5)], seed=64))
    track(gradcheck(lambda xs: T.sum_(T.matmul(xs[0], xs[1])),
                    [(2, 2, 4, 3), (3, 5)], seed=65))
    # softmax / norms / activations
    track(gradcheck(lambda xs: T.sum_(T.mul(T.softmax(xs[0]), xs[1])),
                    [(4, 7), (4, 7)], seed=66))
    track(gradcheck(
        lambda xs: T.sum_(T.mul(T.layer_norm(xs[0], xs[1], xs[2]), xs[3])),
        [(5, 6), (6,), (6,), (5, 6)], seed=67))

    def bn_build(xs):
        state = T.BatchNormState(gamma=xs[1], beta=xs[2],
                                 running_mean=np.zeros(4), running_var=np.ones(4))
        return T.sum_(T.mul(T.batch_norm(xs[0], state, training=True), xs[3]))

    track(gradcheck(bn_build, [(6, 4), (4,), (4,), (6, 4)], seed=68))
    track(gradcheck(lambda xs: T.sum_(T.mul(T.gelu(xs[0]), xs[1])),
                    [(4, 5), (4, 5)], seed=69))

    def relu_build(xs):
        shifted = T.add(xs[0], T.Tensor(np.full((4, 5), 0.75)))  # keep off kink
        return T.sum_(T.mul(T.relu(shifted), xs[1]))

    track(gradcheck(relu_build, [(4, 5), (4, 5)], seed=70))
    # gather / scatter
    idx = np.array([2, -1, 0, 3, 3])
    track(gradcheck(lambda xs: T.sum_(T.mul(T.gather_rows(xs[0], idx), xs[1])),
                    [(4, 3), (5, 3)], seed=71))
    track(gradcheck(
        lambda xs: T.sum_(T.mul(T.scatter_rows_add(xs[0], idx, 4), xs[1])),
        [(5, 3), (4, 3)], seed=72))
    # cross entropy
    labels = np.array([0, 2, 1, -1])
    track(gradcheck(lambda xs: T.cross_entropy(xs[0], labels),
                    [(4, 3)], seed=73))

    # octree convolutions
    rng = np.random.default_rng(74)
    tree = build_octree(QuantizedCloud(rng.random((40, 3)), 3))
    n3, n2 = tree.node_count(3), tree.node_count(2)

    def conv_build(xs):
        spec = ConvSpec(3, 1, 3, 2, xs[1])
        return T.sum_(T.mul(octree_conv(xs[0], tree, 3, spec), xs[2]))

    track(gradcheck(conv_build, [(n3, 3), (27, 3, 2), (n3, 2)], seed=75))

    def dw_build(xs):
        spec = ConvSpec(2, 2, 3, 3, xs[1], depthwise=True)
        return T.sum_(T.mul(octree_conv(xs[0], tree, 3, spec), xs[2]))

    track(gradcheck(dw_build, [(n3, 3), (8, 3), (n2, 3)], seed=76))

    # windowed attention
    plan = make_plan(14, 4, 2)

    def attn_build(xs):
        params = AttentionParams(xs[1], xs[2], xs[3], xs[4], heads=2, head_dim=3)
        return T.sum_(T.mul(windowed_attention(xs[0], plan, params), xs[5]))

    track(gradcheck(attn_build,
                    [(14, 6), (6, 6), (6, 6), (6, 6), (6, 6), (14, 6)], seed=77))

    # one micro end-to-end transformer block (C=8, N=32)
    rng = np.random.default_rng(78)
    tree_b = build_octree(QuantizedCloud(rng.random((40, 3)), 3))
    nb = tree_b.node_count(3)
    block = BlockParams.init(8, ratio=2, dilation=2, rng=np.random.default_rng(79))
    block.attn = dataclasses.replace(block.attn, heads=2, head_dim=4)  # the same weights
    block = float64(block)

    def block_build(xs):
        out = octformer_block(xs[0], tree_b, 3, block, point_number=4,
                              training=True)
        return T.sum_(T.mul(out, xs[1]))

    track(gradcheck(block_build, [(nb, 8), (nb, 8)], seed=80))

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 120.0
    with capsys.disabled():
        report(6, "gradient checks", ok,
               f"worst rel err {worst:.2e}, {elapsed:.1f}s")


# -- 7: structural constants ------------------------------------------------------------

def test_criterion_7_structural_constants(capsys):
    t0 = time.perf_counter()
    ok = True
    base = NetworkConfig.preset("base")
    ok &= heads_for(base.channels) == 6
    ok &= base.stage_channels == (96, 192, 384, 384)

    # pyramid depths span S/4 .. S/32 (embed depth minus 2 .. minus 5)
    from octformer.network import backbone_apply
    from octformer.octree import init_leaf_features
    rng = np.random.default_rng(7)
    cloud = QuantizedCloud(rng.random((800, 3)), 7)
    tree = build_octree(cloud)
    cfg = NetworkConfig(channels=16, blocks=(1, 1, 1, 1), point_number=8,
                        dilation=2, octree_depth=7, num_classes=2,
                        features=("position",), fpn_channels=8, head_hidden=8)
    model = init_model(cfg, seed=0)
    feats = init_leaf_features(tree, cloud, **cfg.feature_flags())
    pyramid = backbone_apply(tree, feats, cfg, model.backbone, training=False)
    ok &= pyramid.depths == [5, 4, 3, 2]
    ok &= [lvl.shape[1] for lvl in pyramid.levels] == [16, 32, 64, 64]

    counts = {}
    for name, target in (("small", 18e6), ("base", 39e6), ("large", 156e6)):
        backbone = init_model(NetworkConfig.preset(name), seed=0).backbone
        counts[name] = count_parameters(backbone)
        ok &= abs(counts[name] - target) / target < 0.15
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    with capsys.disabled():
        report(7, "structural constants", ok,
               f"params {counts['small']/1e6:.1f}M/{counts['base']/1e6:.1f}M/"
               f"{counts['large']/1e6:.1f}M, {elapsed:.1f}s")


# -- 8: toy training ----------------------------------------------------------------------

def test_criterion_8_toy_training(capsys):
    t0 = time.perf_counter()
    dataset = two_spheres_dataset(5, 2000, depth=7, seed=42)
    cfg = NetworkConfig(channels=16, blocks=(1, 1, 1, 1), point_number=32,
                        dilation=4, octree_depth=7, num_classes=2,
                        features=("position", "color"))
    settings = OptimSettings(steps=300, lr=3e-3, weight_decay=0.05,
                             batch_size=1, seed=0)
    result = train_toy(dataset, cfg, settings)
    elapsed = time.perf_counter() - t0
    initial_ok = abs(result.initial_loss - np.log(2)) / np.log(2) < 0.05
    ok = (initial_ok and result.final_loss < 0.1
          and result.final_accuracy > 0.95 and elapsed < 600.0)
    with capsys.disabled():
        report(8, "toy training", ok,
               f"initial {result.initial_loss:.4f} (ln2 {np.log(2):.4f}), "
               f"final loss {result.final_loss:.4f}, "
               f"acc {result.final_accuracy:.4f}, {elapsed:.0f}s")


# -- 9: positional-encoding ablation --------------------------------------------------------

def test_criterion_9_cpe_ablation(capsys):
    t0 = time.perf_counter()
    res = run_cpe_ablation(points_per_octant=160, depth=5, channels=48,
                           num_blocks=6, point_number=16, steps=150, seed=7)
    elapsed = time.perf_counter() - t0
    with_acc = res["with_cpe"].final_accuracy
    without_acc = res["without_cpe"].final_accuracy
    chance = res["chance"]
    n = res["num_points"]
    sigma = np.sqrt(chance * (1 - chance) / n)
    ok = (with_acc > 0.90 and abs(without_acc - chance) <= 3 * sigma
          and elapsed < 600.0)
    with capsys.disabled():
        report(9, "positional encoding ablation", ok,
               f"with {with_acc:.3f}, without {without_acc:.3f}, "
               f"chance {chance:.3f} +- {3*sigma:.4f}, {elapsed:.0f}s")


# -- 10: efficiency scaling -------------------------------------------------------------------

def test_criterion_10_efficiency(capsys):
    t0 = time.perf_counter()
    sizes = (10_000, 20_000, 50_000, 100_000, 200_000)
    oct_cfg = BenchSettings(sizes=sizes, trials=3, warmup=2, seed=0)
    oct_rows = bench_attention("octree", oct_cfg)
    ns = np.array([r.n for r in oct_rows])
    ts = np.array([r.median_s for r in oct_rows])
    r2 = linear_fit_r2(ns, ts)

    knn_cfg = BenchSettings(sizes=(100_000,), trials=1, warmup=1, seed=0)
    knn_row = bench_attention("knn", knn_cfg)[0]
    octree_100k = float(ts[ns == 100_000][0])
    ratio = knn_row.median_s / octree_100k
    elapsed = time.perf_counter() - t0
    ok = r2 > 0.95 and ratio >= 5.0 and elapsed < 900.0
    with capsys.disabled():
        report(10, "efficiency scaling", ok,
               f"R2 {r2:.4f}, knn/octree at 100k = {ratio:.1f}x, {elapsed:.0f}s")


# -- 11: reproducibility -----------------------------------------------------------------------

def test_criterion_11_reproducibility(capsys, tmp_path):
    import json

    ok = True
    # selftest: byte-identical stdout
    outs = []
    for _ in range(2):
        code = cli.main(["selftest"])
        outs.append(capsys.readouterr().out)
        ok &= code == 0
    ok &= outs[0] == outs[1]

    # train-toy: identical loss curve and checkpoint bytes
    curves, ckpts = [], []
    for run in range(2):
        cfg = {
            "dataset": {"kind": "two-spheres", "n_clouds": 2,
                        "points_per_cloud": 300, "depth": 7, "seed": 3},
            "network": {"preset": None, "channels": 16, "blocks": [1, 1, 1, 1],
                        "point_number": 8, "dilation": 2, "num_classes": 2,
                        "octree_depth": 7, "features": ["position", "color"]},
            "training": {"steps": 5, "lr": 3e-3, "seed": 1},
            "outputs": {"checkpoint": str(tmp_path / f"m{run}.ofck"),
                        "loss_curve": str(tmp_path / f"l{run}.csv")},
        }
        path = tmp_path / f"train{run}.json"
        path.write_text(json.dumps(cfg))
        code = cli.main(["train-toy", "--config", str(path)])
        capsys.readouterr()
        ok &= code == 0
        curves.append((tmp_path / f"l{run}.csv").read_bytes())
        ckpts.append((tmp_path / f"m{run}.ofck").read_bytes())
    ok &= curves[0] == curves[1]
    ok &= ckpts[0] == ckpts[1]

    # bench: identical rows once the physical timing columns are masked
    csvs = []
    for run in range(2):
        cfg = {
            "bench": {"sizes": [200, 400], "variants": ["octree", "knn"],
                      "trials": 1, "warmup": 0, "channels": 8, "heads": 2,
                      "point_number": 8, "k_neighbors": 4, "depth": 6,
                      "seed": 0},
            "outputs": {"bench_csv": str(tmp_path / f"b{run}.csv")},
        }
        path = tmp_path / f"bench{run}.json"
        path.write_text(json.dumps(cfg))
        code = cli.main(["bench", "--config", str(path)])
        capsys.readouterr()
        ok &= code == 0
        rows = (tmp_path / f"b{run}.csv").read_text().strip().split("\n")
        masked = [",".join(col if i not in (2, 3) else "t"
                           for i, col in enumerate(r.split(",")))
                  for r in rows]
        csvs.append(masked)
    ok &= csvs[0] == csvs[1]

    with capsys.disabled():
        report(11, "reproducibility", ok)
