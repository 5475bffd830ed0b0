import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octformer import tensor as T
from octformer.errors import NumericError, ShapeError
from octformer.octree import QuantizedCloud, build_octree
from octformer.partition import (
    AttentionParams,
    CpeParams,
    PartitionPlan,
    apply_plan,
    conditional_positional_encoding,
    heads_for,
    make_plan,
    plan_to_csv,
    reverse_plan,
    windowed_attention,
)

from oracles import (
    dense_masked_attention,
    finite_difference,
    gradcheck,
    interleave2d,
    relative_error,
)


def random_attention(channels, heads, seed, dtype=np.float32):
    return AttentionParams.init(channels, heads, np.random.default_rng(seed),
                                dtype=dtype)


# -- plans ---------------------------------------------------------------------

def test_plan_28_7_1_consecutive_runs():
    plan = make_plan(28, 7, 1)
    assert plan.b == 4 and plan.padded == 28
    src = plan.window_sources().reshape(4, 7)
    assert not (src >= plan.n).any()
    for w in range(4):
        assert src[w].tolist() == list(range(w * 7, (w + 1) * 7))


def test_plan_28_7_2_interleaved():
    plan = make_plan(28, 7, 2)
    assert plan.b == 4 and plan.padded == 28
    src = plan.window_sources().reshape(4, 7)
    assert src[0].tolist() == [0, 2, 4, 6, 8, 10, 12]
    assert src[1].tolist() == [1, 3, 5, 7, 9, 11, 13]
    assert src[2].tolist() == [14, 16, 18, 20, 22, 24, 26]
    assert src[3].tolist() == [15, 17, 19, 21, 23, 25, 27]


def test_plan_5_4_2_hand_case():
    plan = make_plan(5, 4, 2)
    assert plan.padded == 8
    src = plan.window_sources().reshape(2, 4)
    assert sorted(src[src >= plan.n].tolist()) == [5, 6, 7]
    assert src[0].tolist() == [0, 2, 4, 6]
    assert src[1].tolist() == [1, 3, 5, 7]


@pytest.mark.parametrize("padded", [3, 12])
def test_a_plan_pads_to_a_covering_multiple_of_k_times_d(padded):
    # 3 is short of n = 5 and 12 is no multiple of k*d = 8
    with pytest.raises(ValueError, match="multiple of 8"):
        PartitionPlan(5, 4, 2, padded)


def test_plan_identity_layout_for_d1():
    plan = make_plan(40, 8, 1)
    assert np.array_equal(plan.window_sources(), np.arange(40))
    assert np.array_equal(plan.window_of_position(), np.arange(40) // 8)


@given(st.integers(0, 300), st.integers(1, 33), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_plan_invariants(n, k, d):
    plan = make_plan(n, k, d)
    assert plan.b * plan.k == plan.padded
    assert plan.padded - n < k * d
    flat = plan.window_sources()
    assert sorted(flat.tolist()) == list(range(plan.padded))
    assert (flat >= n).sum() == plan.padded - n
    # window_of_position inverts window_sources
    assert np.array_equal(plan.window_of_position()[flat], np.arange(plan.padded) // k)
    # real tokens in each window appear in increasing sequence order
    src = flat.reshape(plan.b, plan.k)
    for w in range(plan.b):
        real = src[w][src[w] < n]
        assert (np.diff(real) > 0).all()


def test_plan_2d_grid_blocks_match_quadrants():
    # full 8x8 grid in 2D z-order: 16 consecutive tokens = one 4x4 block
    coords = [(x, y) for x in range(8) for y in range(8)]
    order = sorted(range(64), key=lambda i: interleave2d(*coords[i], 3))
    plan = make_plan(64, 16, 1)
    src = plan.window_sources().reshape(plan.b, plan.k)
    for w in range(4):
        cells = {coords[order[int(p)]] for p in src[w]}
        bx, by = (w >> 1) * 4, (w & 1) * 4
        assert cells == {(bx + i, by + j) for i in range(4) for j in range(4)}


def test_plan_2d_grid_dilated_parity_lattices():
    coords = [(x, y) for x in range(8) for y in range(8)]
    order = sorted(range(64), key=lambda i: interleave2d(*coords[i], 3))
    plan = make_plan(64, 16, 4)
    src = plan.window_sources().reshape(plan.b, plan.k)
    assert plan.b == 4
    for w in range(4):
        cells = {coords[order[int(p)]] for p in src[w]}
        parities = {(x % 2, y % 2) for x, y in cells}
        assert len(parities) == 1  # one sub-lattice per window
        px, py = parities.pop()
        assert cells == {(x, y) for x in range(px, 8, 2) for y in range(py, 8, 2)}


def test_plan_csv_dump():
    csv = plan_to_csv(make_plan(5, 4, 2))
    lines = csv.strip().split("\n")
    assert lines[0] == "window,slot,source_index,is_pad"
    assert lines[1] == "0,0,0,0"
    assert lines[2] == "0,1,2,0"
    assert lines[5] == "1,0,1,0"
    assert lines[8] == "1,3,-1,1"


# -- apply / reverse -------------------------------------------------------------

def test_apply_single_window_then_zeros():
    x = np.random.default_rng(0).normal(size=(3, 2)).astype(np.float32)
    plan = make_plan(3, 5, 1)
    out = apply_plan(T.Tensor(x), plan).data
    assert out.shape == (1, 5, 2)
    assert np.array_equal(out[0, :3], x)
    assert np.array_equal(out[0, 3:], np.zeros((2, 2), dtype=np.float32))


def test_apply_reverse_round_trip():
    r = np.random.default_rng(1)
    for n, k, d in ((28, 7, 1), (28, 7, 2), (5, 4, 2), (100, 16, 4), (64, 64, 1)):
        x = r.normal(size=(n, 3)).astype(np.float32)
        plan = make_plan(n, k, d)
        back = reverse_plan(apply_plan(T.Tensor(x), plan), plan).data
        assert np.array_equal(back, x)


@given(st.integers(0, 120), st.integers(1, 9), st.integers(1, 5), st.integers(0, 2))
@settings(max_examples=100, deadline=None)
def test_apply_matches_index_loop(n, k, d, extra):
    # position span*k*d + i*d + j lands in window span*d + j, slot i
    x = np.random.default_rng(n).normal(size=(n, 5))
    plan = PartitionPlan(n, k, d, make_plan(n, k, d).padded + extra * k * d)
    out = apply_plan(T.Tensor(x, np.float64), plan).data
    src = plan.window_sources()
    expect = np.zeros((plan.b, k, 5))
    for p in range(plan.padded):
        span, rem = divmod(p, k * d)
        i, j = divmod(rem, d)
        w = span * d + j
        assert src[w * k + i] == p
        if p < n:
            expect[w, i] = x[p]
    assert out.dtype == np.float64 and np.array_equal(out, expect)


@pytest.mark.parametrize("d", [1, 3])
def test_regroup_gradcheck(d):
    n, k, c = 10, 4, 3
    plan = PartitionPlan(n, k, d, make_plan(n, k, d).padded + 2 * k * d)
    gradcheck(lambda xs: T.sum_(T.mul(apply_plan(xs[0], plan), xs[1])),
              [(n, c), (plan.b, k, c)])
    gradcheck(lambda xs: T.sum_(T.mul(reverse_plan(xs[0], plan), xs[1])),
              [(plan.b, k, c), (n, c)])


def test_reverse_all_ones():
    plan = make_plan(10, 4, 1)
    y = T.Tensor(np.ones((plan.b, plan.k, 2)))
    assert np.array_equal(reverse_plan(y, plan).data, np.ones((10, 2), dtype=np.float32))


def test_apply_shape_error():
    plan = make_plan(10, 4, 1)
    with pytest.raises(ShapeError):
        apply_plan(T.Tensor(np.zeros((9, 2))), plan)
    with pytest.raises(ShapeError):
        reverse_plan(T.Tensor(np.zeros((2, 4, 2))), plan)


# -- windowed attention ----------------------------------------------------------

def test_heads_for_keeps_one_head_per_16_channels_where_that_divides():
    """Where the plain rule ``max(1, c // 16)`` divides c it is the largest
    divisor within the cap, so ``heads_for`` gives the same head count (and
    the same weight draws) as that rule; elsewhere it falls to a divisor."""
    for c in range(1, 1025):
        h = heads_for(c)
        assert c % h == 0 and 1 <= h <= max(1, c // 16), c
        if c % max(1, c // 16) == 0:
            assert h == max(1, c // 16), c


def window_ids(plan: PartitionPlan) -> np.ndarray:
    return plan.window_of_position()[: plan.n]


def test_attention_single_token_window():
    params = random_attention(8, 2, seed=3)
    x = np.random.default_rng(4).normal(size=(1, 8)).astype(np.float32)
    plan = make_plan(1, 4, 1)
    out = windowed_attention(T.Tensor(x), plan, params).data
    expect = x @ params.w_v.data @ params.w_o.data
    assert np.allclose(out, expect, atol=1e-6)


def test_attention_identical_tokens_uniform():
    params = random_attention(8, 2, seed=5)
    row = np.random.default_rng(6).normal(size=8).astype(np.float32)
    x = np.tile(row, (7, 1))
    plan = make_plan(7, 4, 1)  # windows of 4 and 3+pad
    out = windowed_attention(T.Tensor(x), plan, params).data
    expect = row @ params.w_v.data @ params.w_o.data
    assert np.allclose(out, np.tile(expect, (7, 1)), atol=1e-5)


@pytest.mark.parametrize("n,k,d,c,h", [
    (37, 8, 1, 8, 2), (64, 16, 2, 16, 4), (100, 16, 4, 8, 1), (12, 32, 1, 8, 2),
])
def test_attention_matches_dense_oracle(n, k, d, c, h):
    r = np.random.default_rng(n * 7 + k)
    params = random_attention(c, h, seed=n + k, dtype=np.float64)
    x = r.normal(size=(n, c))
    plan = make_plan(n, k, d)
    got = windowed_attention(T.Tensor(x, np.float64), plan, params).data
    expect = dense_masked_attention(
        x, params.w_q.data, params.w_k.data, params.w_v.data, params.w_o.data,
        h, window_ids(plan))
    assert np.abs(got - expect).max() < 1e-10


def test_attention_padding_invariance():
    r = np.random.default_rng(8)
    n, k, d, c, h = 21, 8, 2, 16, 2
    params = random_attention(c, h, seed=9)
    x = T.Tensor(r.normal(size=(n, c)).astype(np.float32))
    base = windowed_attention(x, make_plan(n, k, d), params).data
    for extra in (1, 3):
        padded = make_plan(n, k, d).padded + extra * k * d
        more = windowed_attention(x, PartitionPlan(n, k, d, padded), params).data
        assert np.abs(base - more).max() < 1e-6


def test_attention_permutation_equivariance_within_window():
    r = np.random.default_rng(10)
    n, k, c, h = 16, 8, 8, 2
    params = random_attention(c, h, seed=11)
    x = r.normal(size=(n, c)).astype(np.float32)
    plan = make_plan(n, k, 1)
    perm = np.arange(n)
    perm[:8] = r.permutation(8)  # permute only window 0
    out_base = windowed_attention(T.Tensor(x), plan, params).data
    out_perm = windowed_attention(T.Tensor(x[perm]), plan, params).data
    assert np.allclose(out_perm, out_base[perm], atol=1e-6)


def test_attention_non_finite_input():
    params = random_attention(8, 2, seed=12)
    x = np.zeros((4, 8), dtype=np.float32)
    x[1, 3] = np.nan
    with pytest.raises(NumericError):
        windowed_attention(T.Tensor(x), make_plan(4, 4, 1), params)


def test_attention_gradcheck():
    r = np.random.default_rng(13)
    n, k, d, c, h = 10, 4, 2, 6, 2
    params = random_attention(c, h, seed=14, dtype=np.float64)
    plan = make_plan(n, k, d)
    x0 = r.normal(size=(n, c))
    target = r.normal(size=(n, c))

    with T.Tape() as tape:
        xt = T.Tensor(x0, np.float64)
        out = windowed_attention(xt, plan, params)
        loss = T.sum_(T.mul(out, T.Tensor(target, np.float64)))
    T.backward(tape, loss)

    def f(v):
        return float((windowed_attention(T.Tensor(v, np.float64), plan, params).data
                      * target).sum())

    fd = finite_difference(f, x0)
    assert relative_error(tape.grad(xt), fd) < 1e-4

    # and through a weight matrix
    gq = tape.grad(params.w_q)

    def fq(v):
        p2 = AttentionParams(T.Tensor(v, np.float64), params.w_k, params.w_v,
                             params.w_o, params.heads, params.head_dim)
        return float((windowed_attention(T.Tensor(x0, np.float64), plan, p2).data
                      * target).sum())

    probes = np.random.default_rng(15).choice(params.w_q.size, 20, replace=False)
    fdq = finite_difference(fq, params.w_q.data, samples=probes)
    mask = ~np.isnan(fdq)
    assert relative_error(gq[mask], fdq[mask]) < 1e-4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_without_padding_adds_no_mask(monkeypatch, dtype):
    from octformer import partition

    n, k, d, c, h = 48, 4, 3, 8, 2  # 4 whole spans: no padded slot
    params = random_attention(c, h, seed=21, dtype=dtype)
    x = T.Tensor(np.random.default_rng(22).normal(size=(n, c)), dtype)
    x.data[:k * d] = 0.0  # all-zero scores in the first span
    adds = []

    def counting_add(a, b):
        adds.append(b.shape)
        return T.add(a, b)

    monkeypatch.setattr(partition, "add", counting_add)
    padded = windowed_attention(x, PartitionPlan(n, k, d, n + k * d), params)
    assert adds == [(n // k + d, 1, 1, k)]
    plain = windowed_attention(x, make_plan(n, k, d), params)
    assert adds == [(n // k + d, 1, 1, k)]
    assert plain.data.tobytes() == padded.data.tobytes()


@pytest.mark.parametrize("d, dtype", [(1, np.float32), (4, np.float64)])
def test_attention_without_tape_frees_scores_and_windows(d, dtype):
    import tracemalloc

    # 4,000 tokens, C = 32, H = 4, K = 32: one (B, H, K, K) array is four
    # times a (padded, C) one, so a third live score array breaks the bound
    n, c, h, k = 4000, 32, 4, 32
    params = random_attention(c, h, seed=17, dtype=dtype)
    plan = make_plan(n, k, d)
    x = T.Tensor(np.random.default_rng(18).normal(size=(n, c)), dtype)
    tracemalloc.start()
    try:
        windowed_attention(x, plan, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    item = np.dtype(dtype).itemsize
    assert peak < 2 * plan.b * h * k * k * item + 5 * plan.padded * c * item


@pytest.mark.parametrize("d, dtype", [(1, np.float32), (4, np.float64)])
def test_attention_without_tape_ends_projections_after_their_last_reader(d, dtype):
    import tracemalloc

    # the peak is set in the softmax, beside its input and output (B, H, K, K)
    # arrays; there only val (one (padded, C) array) is still read later, so
    # q and key live no longer than the scores matmul (with them alive the
    # peak is over three (padded, C) arrays above the two score arrays)
    n, c, h, k = 4000, 32, 4, 32
    params = random_attention(c, h, seed=19, dtype=dtype)
    plan = make_plan(n, k, d)
    x = T.Tensor(np.random.default_rng(20).normal(size=(n, c)), dtype)
    tracemalloc.start()
    try:
        windowed_attention(x, plan, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    item = np.dtype(dtype).itemsize
    assert peak < 2 * plan.b * h * k * k * item + 2 * plan.padded * c * item


# -- conditional positional encoding ----------------------------------------------

def small_tree(seed=16, n=60, depth=3):
    pos = np.random.default_rng(seed).random((n, 3))
    cloud = QuantizedCloud(pos, depth)
    return build_octree(cloud)


def test_cpe_zero_kernel_is_identity():
    tree = small_tree()
    n = tree.node_count(3)
    cpe = CpeParams.init(5)
    x = np.random.default_rng(17).normal(size=(n, 5)).astype(np.float32)
    out = conditional_positional_encoding(T.Tensor(x), tree, 3, cpe, training=True)
    assert np.allclose(out.data, x, atol=1e-6)


def test_cpe_isolated_node_center_tap():
    cloud = QuantizedCloud(np.array([[0.5, 0.5, 0.5], [0.05, 0.05, 0.05]]), 4)
    tree = build_octree(cloud)
    c = 3
    cpe = CpeParams.init(c)
    rng = np.random.default_rng(18)
    kern = np.zeros((27, c), dtype=np.float32)
    kern[13] = rng.normal(size=c)  # center offset (0,0,0) is tap 13
    cpe.kernel = T.Tensor(kern)
    x = rng.normal(size=(2, c)).astype(np.float32)
    out = conditional_positional_encoding(T.Tensor(x), tree, 4, cpe, training=False)
    # eval-mode bn with fresh stats scales by 1/sqrt(1 + eps)
    bn_scale = 1.0 / np.sqrt(1.0 + T.NORM_EPS)
    assert np.allclose(out.data, x + kern[13] * x * bn_scale, atol=1e-6)


def test_cpe_sensitivity_to_arrangement():
    # same multiset of features, different spatial arrangement: attention
    # alone cannot tell them apart, attention + nonzero CPE can.
    cells = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0], [3, 3, 3]])
    pos = (cells + 0.5) / 4
    tree = build_octree(QuantizedCloud(pos, 2))
    n, c, h = 4, 8, 2
    params = random_attention(c, h, seed=19)
    plan = make_plan(n, n, 1)  # one window holding everything
    rng = np.random.default_rng(20)
    feats = rng.normal(size=(n, c)).astype(np.float32)
    swap = np.array([1, 0, 2, 3])  # exchange features of two nodes

    out_a = windowed_attention(T.Tensor(feats), plan, params).data
    out_b = windowed_attention(T.Tensor(feats[swap]), plan, params).data
    assert np.allclose(out_b, out_a[swap], atol=1e-6)  # arrangement-blind

    cpe = CpeParams.init(c)
    cpe.kernel = T.Tensor(rng.normal(size=(27, c)).astype(np.float32) * 0.5)

    def with_cpe(f):
        x = conditional_positional_encoding(T.Tensor(f), tree, 2, cpe, training=False)
        return windowed_attention(x, plan, params).data

    cpe_a, cpe_b = with_cpe(feats), with_cpe(feats[swap])
    gap = np.abs(cpe_b - cpe_a[swap]).max()
    assert gap > 0.05 * np.abs(cpe_a).max()  # arrangement now matters
