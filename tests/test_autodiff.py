import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octformer import tensor as T
from octformer.errors import NumericError, ShapeError

from oracles import finite_difference, float64, gradcheck, naive_matmul, relative_error

rng = np.random.default_rng


# -- matmul -----------------------------------------------------------------

def test_matmul_identity():
    x = T.Tensor(rng(0).normal(size=(4, 4)))
    out = T.matmul(T.Tensor(np.eye(4)), x)
    assert np.allclose(out.data, x.data)


def test_matmul_scalars():
    out = T.matmul(T.Tensor([[3.0]]), T.Tensor([[2.0]]))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == pytest.approx(6.0)


def test_matmul_matches_triple_loop():
    r = rng(1)
    a = r.normal(size=(7, 5))
    b = r.normal(size=(5, 3))
    got = T.matmul(T.Tensor(a, np.float64), T.Tensor(b, np.float64)).data
    assert relative_error(got, naive_matmul(a, b)) < 1e-6


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 2))))


def test_matmul_gradcheck():
    gradcheck(lambda xs: T.sum_(T.matmul(xs[0], xs[1])), [(4, 3), (3, 5)])
    # batched against unbatched
    gradcheck(lambda xs: T.sum_(T.matmul(xs[0], xs[1])), [(2, 3, 4, 3), (3, 5)])


# -- softmax ----------------------------------------------------------------

def test_softmax_constant_rows_uniform():
    out = T.softmax(T.Tensor(np.full((3, 5), 2.7)))
    assert np.allclose(out.data, 0.2, atol=1e-7)


def test_softmax_single_element_axis():
    out = T.softmax(T.Tensor(np.array([[4.2], [-1.0]])))
    assert np.allclose(out.data, 1.0)


def test_softmax_large_values_stable():
    row = np.array([[1000.0, 1000.1]])
    out = T.softmax(T.Tensor(row, np.float64)).data
    # 64-bit reference on the shifted values
    e = np.exp(np.array([0.0, 0.1]) - 0.1)
    expect = e / e.sum()
    assert np.allclose(out, expect, atol=1e-12)
    assert np.isfinite(out).all()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_softmax_rows_sum_to_one(seed):
    x = rng(seed).normal(scale=5.0, size=(4, 9))
    out = T.softmax(T.Tensor(x)).data
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)
    assert (out >= 0).all()


def test_softmax_gradcheck():
    gradcheck(lambda xs: T.sum_(T.mul(T.softmax(xs[0]), xs[1])),
              [(3, 6), (3, 6)])


# -- layer norm / batch norm -------------------------------------------------

def test_layer_norm_constant_row_zero():
    g = T.Tensor(np.ones(8))
    b = T.Tensor(np.zeros(8))
    out = T.layer_norm(T.Tensor(np.full((2, 8), 3.3)), g, b)
    assert np.allclose(out.data, 0.0, atol=1e-5)


def test_layer_norm_zero_gamma_gives_beta():
    g = T.Tensor(np.zeros(4))
    b = T.Tensor(np.arange(4.0))
    out = T.layer_norm(T.Tensor(rng(2).normal(size=(3, 4))), g, b)
    assert np.allclose(out.data, np.arange(4.0), atol=1e-6)


def test_layer_norm_statistics():
    x = rng(3).normal(loc=2.0, scale=3.0, size=(10, 32))
    out = T.layer_norm(T.Tensor(x, np.float64), T.Tensor(np.ones(32), np.float64),
                       T.Tensor(np.zeros(32), np.float64)).data
    assert np.abs(out.mean(axis=1)).max() < 1e-5
    assert np.abs(out.var(axis=1) - 1.0).max() < 1e-5


def test_layer_norm_gradcheck():
    gradcheck(lambda xs: T.sum_(T.mul(T.layer_norm(xs[0], xs[1], xs[2]), xs[3])),
              [(4, 6), (6,), (6,), (4, 6)])


def test_batch_norm_eval_identity():
    state = T.BatchNormState.create(5)
    x = rng(4).normal(size=(7, 5)).astype(np.float32)
    out = T.batch_norm(T.Tensor(x), state, training=False)
    assert np.allclose(out.data, x, atol=1e-5)


def test_batch_norm_train_constant_column_zero():
    state = T.BatchNormState.create(3)
    x = np.broadcast_to(np.array([1.0, -2.0, 0.5]), (6, 3)).copy()
    out = T.batch_norm(T.Tensor(x), state, training=True)
    assert np.allclose(out.data, 0.0, atol=1e-3)


def test_batch_norm_train_stats_match_two_pass():
    state = T.BatchNormState.create(4)
    x = rng(5).normal(loc=1.5, scale=2.0, size=(50, 4))
    T.batch_norm(T.Tensor(x, np.float64), state, training=True)
    mu = x.mean(axis=0)
    var = ((x - mu) ** 2).mean(axis=0)
    m = T.BN_MOMENTUM
    assert np.allclose(state.running_mean, m * mu, atol=1e-10)
    assert np.allclose(state.running_var, (1 - m) * 1.0 + m * var, atol=1e-10)


def test_batch_norm_degenerate_batch():
    state = T.BatchNormState.create(2)
    with pytest.raises(NumericError):
        T.batch_norm(T.Tensor(np.zeros((1, 2))), state, training=True)


def test_batch_norm_gradcheck():
    def build(xs):
        state = T.BatchNormState(gamma=xs[1], beta=xs[2],
                                 running_mean=np.zeros(5), running_var=np.ones(5))
        return T.sum_(T.mul(T.batch_norm(xs[0], state, training=True), xs[3]))

    gradcheck(build, [(6, 5), (5,), (5,), (6, 5)])


# -- activations --------------------------------------------------------------

def test_relu_values():
    out = T.relu(T.Tensor(np.array([-1.0, 2.0, 0.0])))
    assert out.data.tolist() == [0.0, 2.0, 0.0]


def test_gelu_values():
    assert T.gelu(T.Tensor(np.array(0.0))).item() == 0.0
    # Phi(1) = 0.8413447460685429
    got = T.gelu(T.Tensor(np.array(1.0), np.float64)).item()
    assert got == pytest.approx(0.8413447460685429, abs=1e-12)


def test_activation_gradchecks():
    gradcheck(lambda xs: T.sum_(T.mul(T.gelu(xs[0]), xs[1])), [(4, 5), (4, 5)])
    # keep relu probes away from the kink
    r = rng(6)
    x = r.normal(size=(4, 5))
    x[np.abs(x) < 0.1] += 0.3
    with T.Tape() as tape:
        xt = T.Tensor(x, np.float64)
        loss = T.sum_(T.relu(xt))
    T.backward(tape, loss)
    fd = finite_difference(lambda v: np.maximum(v, 0).sum(), x)
    assert relative_error(tape.grad(xt), fd) < 1e-6


# -- gather / scatter ---------------------------------------------------------

def test_gather_identity():
    x = T.Tensor(rng(7).normal(size=(6, 3)))
    out = T.gather_rows(x, np.arange(6))
    assert np.array_equal(out.data, x.data)


def test_gather_all_sentinel():
    x = T.Tensor(rng(8).normal(size=(4, 3)))
    out = T.gather_rows(x, np.full(5, -1))
    assert np.array_equal(out.data, np.zeros((5, 3), dtype=np.float32))


def test_gather_random_matches_loop():
    r = rng(9)
    x = r.normal(size=(10, 4))
    idx = r.integers(-1, 10, size=20)
    out = T.gather_rows(T.Tensor(x, np.float64), idx).data
    for i, j in enumerate(idx):
        expect = np.zeros(4) if j < 0 else x[j]
        assert np.allclose(out[i], expect)


def test_gather_index_error():
    with pytest.raises(IndexError):
        T.gather_rows(T.Tensor(np.zeros((3, 2))), np.array([0, 3]))


def test_gather_scatter_adjoint():
    r = rng(10)
    x = r.normal(size=(8, 3))
    y = r.normal(size=(12, 3))
    idx = r.integers(-1, 8, size=12)
    gathered = T.gather_rows(T.Tensor(x, np.float64), idx).data
    scattered = T.scatter_rows_add(T.Tensor(y, np.float64), idx, 8).data
    assert (gathered * y).sum() == pytest.approx((x * scattered).sum(), rel=1e-12)


def test_gather_gradcheck():
    idx = np.array([2, -1, 0, 2, 1])
    gradcheck(lambda xs: T.sum_(T.mul(T.gather_rows(xs[0], idx), xs[1])),
              [(4, 3), (5, 3)])


# -- backward mechanics -------------------------------------------------------

def test_backward_sum_gives_ones():
    with T.Tape() as tape:
        x = T.Tensor(rng(11).normal(size=(3, 4)), np.float64)
        loss = T.sum_(x)
    T.backward(tape, loss)
    assert np.array_equal(tape.grad(x), np.ones((3, 4)))


def test_backward_square():
    with T.Tape() as tape:
        x = T.Tensor(np.array(3.0), np.float64)
        loss = T.mul(x, x)
    T.backward(tape, loss)
    assert tape.grad(x) == pytest.approx(6.0)


def test_backward_repeatable():
    with T.Tape() as tape:
        x = T.Tensor(rng(12).normal(size=(4,)), np.float64)
        loss = T.sum_(T.mul(x, x))
    T.backward(tape, loss)
    g1 = tape.grad(x).copy()
    T.backward(tape, loss)
    assert np.array_equal(g1, tape.grad(x))


def test_backward_requires_scalar():
    with T.Tape() as tape:
        x = T.Tensor(np.zeros((2, 2)))
        y = T.mul(x, x)
    with pytest.raises(ShapeError):
        T.backward(tape, y)


def test_grad_off_path_is_zero():
    with T.Tape() as tape:
        x = T.Tensor(np.array(1.0))
        y = T.Tensor(np.array(2.0))
        T.mul(y, y)  # dead branch
        loss = T.mul(x, x)
    T.backward(tape, loss)
    assert tape.grad(y) == 0.0


def _backward_keeping_every_gradient(tape, loss) -> dict:
    """The tape replay with no gradient ever dropped: every tensor on a path
    to ``loss``, op outputs included, keeps its accumulated gradient."""
    grads = {id(loss): np.ones((), dtype=loss.dtype)}
    for node in reversed(tape.nodes):
        g = grads.get(id(node.out))
        if g is None:
            continue
        for parent, gp in zip(node.parents, node.vjp(g)):
            if gp is not None:
                acc = grads.get(id(parent))
                grads[id(parent)] = gp if acc is None else acc + gp
    return grads


def test_backward_keeps_only_leaf_gradients():
    r = rng(14)
    fc1 = float64(T.LinearParams.init(6, 12, r))
    fc2 = float64(T.LinearParams.init(12, 6, r))
    ln = float64(T.LayerNormParams.init(6))
    with T.Tape() as tape:
        x = T.Tensor(r.normal(size=(9, 6)), np.float64)
        dead = T.Tensor(r.normal(size=(9, 6)), np.float64)
        T.mul(dead, dead)  # off the loss path
        h = T.add(x, T.gelu_mlp(T.apply_layer_norm(x, ln), fc1, fc2))  # x read twice
        rows = T.gather_rows(T.softmax(h), np.array([0, 2, -1, 8, 2]))
        loss = T.add(T.mean_(T.mul(rows, rows)),
                     T.cross_entropy(h, np.arange(9) % 6))
    every = _backward_keeping_every_gradient(tape, loss)
    outputs = {id(node.out) for node in tape.nodes}
    leaves = [x, fc1.weight, fc1.bias, fc2.weight, fc2.bias, ln.gamma, ln.beta]
    for _ in range(2):  # a second backward on the same tape agrees
        T.backward(tape, loss)
        assert set(tape.gradients) == set(every) - outputs
        assert {id(t) for t in leaves} <= set(tape.gradients)
        assert id(dead) not in tape.gradients and id(h) not in tape.gradients
        for t in leaves:
            assert tape.grad(t).tobytes() == every[id(t)].tobytes()
        assert not np.any(tape.grad(h))  # an op output's gradient is gone


def test_no_tape_records_nothing():
    tape = T.Tape()
    with tape:
        pass
    x = T.Tensor(np.ones((2, 2)))
    T.mul(x, x)
    assert tape.nodes == []


# -- cross entropy ------------------------------------------------------------

def test_cross_entropy_confident_correct():
    logits = np.zeros((3, 4))
    labels = np.array([1, 2, 0])
    logits[np.arange(3), labels] = 1e6
    loss = T.cross_entropy(T.Tensor(logits, np.float64), labels)
    assert loss.item() == pytest.approx(0.0, abs=1e-9)


def test_cross_entropy_uniform_is_log_l():
    for l_count in (2, 5, 17):
        logits = np.zeros((4, l_count))
        loss = T.cross_entropy(T.Tensor(logits), np.zeros(4, dtype=int))
        assert loss.item() == pytest.approx(np.log(l_count), rel=1e-6)


def test_cross_entropy_matches_lse_oracle():
    r = rng(13)
    z = r.normal(size=(6, 5))
    labels = r.integers(0, 5, size=6)
    labels[2] = -1  # ignored
    loss = T.cross_entropy(T.Tensor(z, np.float64), labels).item()
    ref = 0.0
    for i in range(6):
        if labels[i] == -1:
            continue
        lse = np.log(np.exp(z[i]).sum())
        ref += lse - z[i, labels[i]]
    assert loss == pytest.approx(ref / 5, rel=1e-12)


def test_cross_entropy_all_ignored():
    with pytest.raises(NumericError):
        T.cross_entropy(T.Tensor(np.zeros((2, 3))), np.array([-1, -1]))


def test_cross_entropy_gradcheck():
    labels = np.array([0, 2, 1, -1])
    gradcheck(lambda xs: T.cross_entropy(xs[0], labels), [(4, 3)])


# -- composite ----------------------------------------------------------------

def test_composite_gradcheck():
    def build(xs):
        h = T.relu(T.matmul(xs[0], xs[1]))
        h = T.softmax(h)
        return T.sum_(T.mul(h, xs[2]))

    gradcheck(build, [(3, 4), (4, 5), (3, 5)], tol=1e-4)


def test_reshape_transpose_gradcheck():
    def build(xs):
        y = T.transpose(T.reshape(xs[0], (2, 3, 4)), (1, 0, 2))
        return T.sum_(T.mul(y, T.reshape(xs[1], (3, 2, 4))))

    gradcheck(build, [(6, 4), (24,)])


# -- scalar operands ------------------------------------------------------------

# op under test, and its float64 numpy reference: (x, s, upstream g) -> (out, dx)
SCALAR_OPS = {
    "add": (lambda x, s: T.add(x, s), lambda x, s, g: (x + s, g)),
    "mul": (lambda x, s: T.mul(x, s), lambda x, s, g: (x * s, g * s)),
    "mean": (lambda x, s: T.mean_(x, axis=0),
             lambda x, s, g: (x.sum(axis=0) * (1.0 / len(x)),
                              np.broadcast_to(g * (1.0 / len(x)), x.shape))),
}


def _scalar_op_run(name, x, scalar):
    op = SCALAR_OPS[name][0]
    xt = T.Tensor(x)
    with T.Tape() as tape:
        out = op(xt, scalar)
        g = T.Tensor(rng(1).normal(size=out.shape), out.dtype)
        loss = T.sum_(T.mul(out, g))
    T.backward(tape, loss)
    return out.data, tape.grad(xt), g.data


@pytest.mark.parametrize("scalar", [0.37, np.float64(0.37)], ids=["python", "numpy"])
@pytest.mark.parametrize("name", list(SCALAR_OPS))
def test_scalar_operand_keeps_float32(name, scalar):
    x = rng(0).normal(size=(4, 3)).astype(np.float32)
    out, dx, g = _scalar_op_run(name, x, scalar)
    assert out.dtype == np.float32 and dx.dtype == np.float32
    ref_out, ref_dx = SCALAR_OPS[name][1](x.astype(np.float64), float(scalar),
                                          g.astype(np.float64))
    assert np.allclose(out, ref_out, rtol=1e-6, atol=1e-6)
    assert np.allclose(dx, ref_dx, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("scalar", [0.37, np.float64(0.37)], ids=["python", "numpy"])
@pytest.mark.parametrize("name", list(SCALAR_OPS))
def test_scalar_operand_float64_bytes_unchanged(name, scalar):
    x = rng(0).normal(size=(4, 3))
    out, dx, g = _scalar_op_run(name, x, scalar)
    ref_out, ref_dx = SCALAR_OPS[name][1](x, np.float64(scalar), g)
    assert out.dtype == np.float64 and dx.dtype == np.float64
    assert out.tobytes() == np.asarray(ref_out).tobytes()
    assert dx.tobytes() == np.ascontiguousarray(ref_dx).tobytes()


# -- in-place rewrites ----------------------------------------------------------
# Each op below writes only into arrays it allocated; its output must equal, bit
# for bit, the plain numpy expression it replaced.

def _reference_expressions():
    from scipy.special import erf

    def gelu(x):
        return x * (0.5 * (1.0 + erf(x * T._INV_SQRT2)))

    def softmax(x):
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    def normalize(x, mu, var, gamma, beta, eps):
        return (x - mu) * (1.0 / np.sqrt(var + eps)) * gamma + beta

    return gelu, softmax, normalize


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rewritten_ops_match_numpy_bit_for_bit(dtype):
    gelu, softmax, normalize = _reference_expressions()
    r = rng(21)
    x = (r.normal(size=(37, 24)) * 3).astype(dtype)
    before = x.copy()
    gamma, beta = r.normal(size=24).astype(dtype), r.normal(size=24).astype(dtype)
    w, b = r.normal(size=(24, 10)).astype(dtype), r.normal(size=10).astype(dtype)

    if dtype == np.float64:  # float32 gelu is a rational erf: test_gelu_float32_oracle
        assert np.array_equal(T.gelu(T.Tensor(x)).data, gelu(x))
        zero_d = np.asarray(0.7, dtype=dtype)  # x * c is a numpy scalar here
        assert np.array_equal(T.gelu(T.Tensor(zero_d)).data, gelu(zero_d))
    scores = x.reshape(37, 2, 12)
    assert np.array_equal(T.softmax(T.Tensor(scores)).data, softmax(scores))

    mu = x.mean(axis=-1, keepdims=True)
    ln = T.layer_norm(T.Tensor(x), T.Tensor(gamma), T.Tensor(beta)).data
    assert np.array_equal(ln, normalize(x, mu, x.var(axis=-1, keepdims=True),
                                        gamma, beta, T.NORM_EPS))

    state = T.BatchNormState(T.Tensor(gamma), T.Tensor(beta),
                             r.normal(size=24), r.random(24) + 0.5)
    bn = T.batch_norm(T.Tensor(x), state, training=False).data
    assert np.array_equal(bn, normalize(x, state.running_mean.astype(dtype),
                                        state.running_var.astype(dtype),
                                        gamma, beta, T.NORM_EPS))
    bn = T.batch_norm(T.Tensor(x), state, training=True).data
    assert np.array_equal(bn, normalize(x, x.mean(axis=0), x.var(axis=0),
                                        gamma, beta, T.NORM_EPS))

    lin = T.linear(T.Tensor(x), T.LinearParams(T.Tensor(w), T.Tensor(b))).data
    assert np.array_equal(lin, x @ w + b)
    assert np.array_equal(x, before)  # no op wrote into its input
    for out in (lin, ln, bn):
        assert out.dtype == dtype


def test_linear_gradcheck():
    def with_bias(xs):
        y = T.linear(xs[0], T.LinearParams(xs[1], xs[2]))
        return T.sum_(T.mul(y, xs[3]))

    gradcheck(with_bias, [(5, 4), (4, 3), (3,), (5, 3)])


def test_linear_shape_error():
    p = T.LinearParams(T.Tensor(np.zeros((4, 3))), T.Tensor(np.zeros(3)))
    for shape in ((5, 3), (2, 5, 4), (4,)):
        with pytest.raises(ShapeError):
            T.linear(T.Tensor(np.zeros(shape)), p)


# -- float64 erf ----------------------------------------------------------------
# tensor._erf64 ports Cephes' erf, which scipy runs, and must give scipy's bits.
# It runs as the commands do: overflow, invalid and divide raising.

_CEPHES_MAXLOG_ROOT = np.sqrt(7.09782712893383996843e2)  # ~26.64: erfc underflows past it


def _erf64_bits_match_scipy(x):
    from scipy.special import erf

    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = T._erf64(np.array(x, np.float64))
    return got.shape == np.shape(x) and got.tobytes() == np.asarray(erf(x)).tobytes()


def test_erf64_matches_scipy_bit_for_bit_on_a_dense_grid():
    r = rng(31)
    edges = np.array([1.0, 6.0, 8.0, _CEPHES_MAXLOG_ROOT])
    near_edges = np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, 30.0),
                                 (edges + r.uniform(-1e-3, 1e-3, (2_000, 4))).ravel()])
    x = np.concatenate([np.linspace(-30.0, 30.0, 4_000_001), near_edges, -near_edges,
                        r.normal(size=500_000), r.normal(size=500_000) * 5.0])
    assert ((np.abs(x) < 1.0).sum() > 100_000 and (np.abs(x) > 27.0).sum() > 100_000
            and ((np.abs(x) > 1.0) & (np.abs(x) < 8.0)).sum() > 100_000)
    assert _erf64_bits_match_scipy(x)


@pytest.mark.parametrize("x", [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 8.0, -8.0,
                               5e-324, -5e-324])
def test_erf64_special_inputs_match_scipy(x):
    assert _erf64_bits_match_scipy(np.array([x, x]))
    assert _erf64_bits_match_scipy(np.asarray(x))  # 0-d


# -- float32 gelu and the fused mlp ---------------------------------------------

GELU32_BOUND = 5e-7  # |gelu32(x) - gelu64(x)| <= GELU32_BOUND * max(1, |x|)


def _within_gelu32_bound(got, x):
    ref = T.gelu(T.Tensor(np.asarray(x, np.float64))).data
    return bool((np.abs(got - ref) <= GELU32_BOUND * np.maximum(1.0, np.abs(x))).all())


def test_gelu_float32_oracle():
    x = np.concatenate([np.linspace(-10, 10, 400_001, dtype=np.float32),
                        (rng(21).normal(size=888) * 3).astype(np.float32)])
    got = T.gelu(T.Tensor(x)).data
    assert got.dtype == np.float32 and _within_gelu32_bound(got, x)

    zero_d = np.asarray(0.7, np.float32)
    got = T.gelu(T.Tensor(zero_d)).data
    assert got.shape == () and got.dtype == np.float32 and _within_gelu32_bound(got, zero_d)

    # signed zeros, infinities and nan come out as scipy's erf gives them
    gelu, _, _ = _reference_expressions()
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], np.float32)
    with np.errstate(invalid="ignore"):  # -inf * 0
        got, want = T.gelu(T.Tensor(special)).data, gelu(special)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _mlp_params(r, c, hidden, dtype):
    def lin(fan_in, fan_out):
        return T.LinearParams(T.Tensor(r.normal(size=(fan_in, fan_out)) * 0.3, dtype),
                              T.Tensor(r.normal(size=fan_out) * 0.3, dtype))
    return lin(c, hidden), lin(hidden, c)


def _mlp_chain(x, fc1, fc2):
    return T.linear(T.gelu(T.linear(x, fc1)), fc2)


def _mlp_outputs(mlp, x, fc1, fc2, cotangent):
    """Forward output and the gradients of x, W1, b1, W2 and b2."""
    with T.Tape() as tape:
        y = mlp(x, fc1, fc2)
        loss = T.sum_(T.mul(y, cotangent))
    T.backward(tape, loss)
    return [y.data] + [tape.grad(t) for t in (x, fc1.weight, fc1.bias,
                                               fc2.weight, fc2.bias)]


@pytest.mark.parametrize("weight_dtype", [np.float64, np.float32])
def test_gelu_mlp_float64_matches_chain_bit_for_bit(weight_dtype):
    r = rng(23)
    c, hidden = 24, 96
    rows = T.MLP_BLOCK_ELEMENTS // hidden
    n = 3 * rows + 1  # one row past three full blocks: a lone row would take gemv
    fc1, fc2 = _mlp_params(r, c, hidden, weight_dtype)
    x = T.Tensor(r.normal(size=(n, c)), np.float64)
    cotangent = T.Tensor(r.normal(size=(n, c)), np.float64)
    got = _mlp_outputs(T.gelu_mlp, x, fc1, fc2, cotangent)
    want = _mlp_outputs(_mlp_chain, x, fc1, fc2, cotangent)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    assert T.gelu_mlp(x, fc1, fc2).data.tobytes() == want[0].tobytes()  # no tape


def test_gelu_mlp_float32_meets_the_gelu_oracle():
    # identity weights and zero biases make the op gelu itself, exactly
    c = 64
    eye = T.LinearParams(T.Tensor(np.eye(c, dtype=np.float32)),
                         T.Tensor(np.zeros(c, dtype=np.float32)))
    x = np.linspace(-10, 10, 4 * T.MLP_BLOCK_ELEMENTS + 3 * c, dtype=np.float32)
    x = x.reshape(-1, c)
    got = T.gelu_mlp(T.Tensor(x), eye, eye).data
    assert got.dtype == np.float32 and _within_gelu32_bound(got, x)

    # general weights: the same bits as the float32 three-op chain
    r = rng(24)
    fc1, fc2 = _mlp_params(r, 24, 96, np.float32)
    x = T.Tensor(r.normal(size=(3 * (T.MLP_BLOCK_ELEMENTS // 96) + 17, 24)), np.float32)
    assert T.gelu_mlp(x, fc1, fc2).data.tobytes() == _mlp_chain(x, fc1, fc2).data.tobytes()


def test_gelu_mlp_gradcheck(monkeypatch):
    monkeypatch.setattr(T, "MLP_BLOCK_ELEMENTS", 40)  # 6 rows x 16 hidden: 3 blocks

    def build(xs):
        y = T.gelu_mlp(xs[0], T.LinearParams(xs[1], xs[2]), T.LinearParams(xs[3], xs[4]))
        return T.sum_(T.mul(y, xs[5]))

    gradcheck(build, [(6, 4), (4, 16), (16,), (16, 4), (4,), (6, 4)])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_mlp_without_tape_keeps_no_full_hidden_array(dtype):
    import tracemalloc

    r = rng(25)
    n, c = 16384, 32
    fc1, fc2 = _mlp_params(r, c, 4 * c, dtype)
    x = T.Tensor(r.normal(size=(n, c)), dtype)
    T.gelu(T.Tensor(np.zeros(1), dtype))  # a warm-up: one-time allocations stay out of the window
    tracemalloc.start()
    try:
        T.gelu_mlp(x, fc1, fc2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * 4 * c * np.dtype(dtype).itemsize


@given(n=st.integers(0, 300), width=st.integers(1, 2000), elements=st.integers(64, 10**5))
@settings(max_examples=200, deadline=None)
def test_row_blocks_cover_the_rows_in_order_with_no_empty_block(n, width, elements):
    """At most n blocks: for n >= 1 none is empty, the blocks cover 0..n in
    order, and they are the non-empty blocks of the uncapped count."""
    blocks = T.row_blocks(n, width, elements)
    if n == 0:
        assert blocks == [slice(0, 0)]
        return
    assert all(b.stop > b.start for b in blocks)
    assert blocks[0].start == 0 and blocks[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    uncapped = max(1, -(-n * width // elements))
    old = [slice(n * i // uncapped, n * (i + 1) // uncapped) for i in range(uncapped)]
    assert blocks == [b for b in old if b.stop > b.start]


def test_gelu_mlp_shape_error():
    fc1, fc2 = _mlp_params(rng(26), 4, 16, np.float64)
    for shape in ((5, 3), (2, 5, 4), (4,)):
        with pytest.raises(ShapeError):
            T.gelu_mlp(T.Tensor(np.zeros(shape)), fc1, fc2)


# -- the segmentation head's fused linears --------------------------------------

def _hidden_chain(u, hidden, classifier):
    """The head's hidden layer and classifier as three separate ops."""
    return T.linear(T.relu(T.linear(u, hidden)), classifier)


def _merge_chain(level, lateral, coarse, parents):
    """The head's lateral merge as three separate ops."""
    return T.add(T.gather_rows(coarse, parents), T.linear(level, lateral))


def _outputs(build, inputs, cotangent):
    """Forward output and the gradients of every input."""
    with T.Tape() as tape:
        y = build()
        loss = T.sum_(T.mul(y, cotangent))
    T.backward(tape, loss)
    return [y.data] + [tape.grad(t) for t in inputs]


@pytest.mark.parametrize("rows", [1, 700])
@pytest.mark.parametrize("x_dtype, w_dtype", [(np.float32, np.float32),
                                              (np.float64, np.float64),
                                              (np.float64, np.float32)])
def test_head_fused_linears_match_the_op_chains_bit_for_bit(monkeypatch, rows,
                                                            x_dtype, w_dtype):
    monkeypatch.setattr(T, "MLP_BLOCK_ELEMENTS", 40 * 12)  # the merge in 40-row blocks
    r = rng(27)
    c, f, classes = 10, 12, 3
    hidden, classifier = (T.LinearParams(T.Tensor(r.normal(size=(a, b)), w_dtype),
                                         T.Tensor(r.normal(size=b), w_dtype))
                          for a, b in ((f, f), (f, classes)))
    hidden.bias.data[:4] = 0.0
    u = T.Tensor(r.normal(size=(rows, f)), x_dtype)
    u.data[0] = 0.0  # pre-activations of exactly zero: no gradient through the ReLU
    inputs = [u, hidden.weight, hidden.bias, classifier.weight, classifier.bias]
    cotangent = T.Tensor(r.normal(size=(rows, classes)), x_dtype)
    got = _outputs(lambda: T.linear(T.linear_relu(u, hidden), classifier),
                   inputs, cotangent)
    want = _outputs(lambda: _hidden_chain(u, hidden, classifier), inputs, cotangent)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    lateral = T.LinearParams(T.Tensor(r.normal(size=(c, f)), w_dtype),
                             T.Tensor(r.normal(size=f), w_dtype))
    level = T.Tensor(r.normal(size=(rows, c)), x_dtype)
    coarse = T.Tensor(r.normal(size=(max(1, rows // 8), f)),
                      np.result_type(x_dtype, w_dtype))
    parents = np.sort(r.integers(0, coarse.shape[0], rows)).astype(np.int32)
    inputs = [level, lateral.weight, lateral.bias, coarse]
    cotangent = T.Tensor(r.normal(size=(rows, f)), x_dtype)
    got = _outputs(lambda: T.linear_add_rows(level, lateral, coarse, parents),
                   inputs, cotangent)
    want = _outputs(lambda: _merge_chain(level, lateral, coarse, parents),
                    inputs, cotangent)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    untaped = T.linear_add_rows(level, lateral, coarse, parents)
    assert untaped.data.tobytes() == want[0].tobytes()


def test_head_fused_linears_gradcheck(monkeypatch):
    monkeypatch.setattr(T, "MLP_BLOCK_ELEMENTS", 8)  # 2 rows x 4 outputs per block
    parents = np.array([0, 0, 1, 2, 2, 2])

    def build(xs):
        u = T.linear_add_rows(xs[0], T.LinearParams(xs[1], xs[2]), xs[3], parents)
        y = T.linear_relu(u, T.LinearParams(xs[4], xs[5]))
        return T.sum_(T.mul(y, xs[6]))

    gradcheck(build, [(6, 3), (3, 4), (4,), (3, 4), (4, 5), (5,), (6, 5)])


def test_linear_add_rows_checks_its_rows():
    r = rng(28)
    p = T.LinearParams(T.Tensor(r.normal(size=(3, 4))), T.Tensor(r.normal(size=4)))
    x, y = T.Tensor(r.normal(size=(5, 3))), T.Tensor(r.normal(size=(2, 4)))
    idx = np.array([0, 1, 1, -1, 0])  # -1 adds a zero row, as gather_rows gives
    got = T.linear_add_rows(x, p, y, idx)
    assert got.data.tobytes() == _merge_chain(x, p, y, idx).data.tobytes()
    for idx in ([0, 1, 1, 2, 0], [0, 1, 1, -2, 0]):
        with pytest.raises(IndexError):
            T.linear_add_rows(x, p, y, np.array(idx))
    for bad_y, idx in ((T.Tensor(np.zeros((2, 5))), [0] * 5),
                       (T.Tensor(np.zeros((2, 4)), np.float32), [0] * 5),
                       (y, [0] * 4)):
        with pytest.raises(ShapeError):
            T.linear_add_rows(x, p, bad_y, np.array(idx))
