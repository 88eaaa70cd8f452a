"""Engine tests: forward oracles, gradient checks, invariants."""

import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from densecil import tensor as T
from densecil.config import TOL
from densecil.gradcheck import op_cases

import oracles as O


# ---------------------------------------------------------------- oracles

def matmul_oracle(a, b, bias=None):
    """Triple-loop reference product, per matrix of a stack, plus bias; the
    lower-rank operand is reused for every matrix of the other's extra axes."""
    if a.ndim > b.ndim:
        return np.stack([matmul_oracle(x, b, bias) for x in a])
    if b.ndim > a.ndim:
        return np.stack([matmul_oracle(a, y, bias) for y in b])
    if a.ndim > 2:
        return np.stack([matmul_oracle(x, y, bias) for x, y in zip(a, b)])
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for q in range(k):
                acc += a[i, q] * b[q, j]
            out[i, j] = acc + (0.0 if bias is None else bias[j])
    return out


def layer_norm_oracle(x, gain, bias, eps):
    """Two-pass mean/variance reference, one token at a time."""
    out = np.zeros_like(x)
    flat = x.reshape(-1, x.shape[-1])
    oflat = out.reshape(-1, x.shape[-1])
    for i, row in enumerate(flat):
        mu = sum(row) / len(row)
        var = sum((v - mu) ** 2 for v in row) / len(row)
        oflat[i] = (row - mu) / math.sqrt(var + eps) * gain + bias
    return out


def central_difference(f, x, h=TOL.fd_step):
    """Gradient of scalar f at flat array x via central differences."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f()
        flat[i] = orig - h
        lo = f()
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * h)
    return g


def rel_err(a, b):
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1.0)
    return np.abs(a - b).max(initial=0.0) / denom


def check_grad(build, arrays, seed=0):
    """FD-check the gradient of a scalarized op w.r.t. every input array.

    ``build(tensors) -> Tensor`` runs the op; the output is scalarized with
    a fixed random weighting so the full Jacobian action is exercised.
    """
    rng = np.random.default_rng(seed)
    probe = None

    def run():
        ts = [T.Tensor(a, requires_grad=True) for a in arrays]
        out = build(ts)
        w = T.Tensor(probe)
        return ts, T.sum_all(T.mul(out, w))

    ts0 = [T.Tensor(a) for a in arrays]
    out0 = build(ts0)
    probe = rng.normal(size=out0.shape) if out0.shape else np.asarray(1.0)

    ts, loss = run()
    T.backward(loss)
    worst = 0.0
    for i, a in enumerate(arrays):
        fd = central_difference(lambda: run()[1].item(), a)
        ad = ts[i].grad if ts[i].grad is not None else np.zeros_like(a)
        worst = max(worst, rel_err(ad, fd))
    return worst


# ---------------------------------------------------------------- matmul

def test_matmul_identity():
    a = np.arange(9.0).reshape(3, 3)
    out = T.matmul(T.Tensor(np.eye(3)), T.Tensor(a))
    np.testing.assert_array_equal(out.data, a)


def test_matmul_zeros():
    b = np.arange(12.0).reshape(3, 4)
    out = T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(b))
    np.testing.assert_array_equal(out.data, np.zeros((2, 4)))


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(7)
    cases = [((3, 3), (3, 3), False), ((2, 3, 4), (2, 4, 5), False),
             ((3, 4), (4, 2), True), ((2, 3, 4), (2, 4, 5), True),
             ((2, 3, 4), (4, 5), True), ((2, 2, 1, 4), (2, 4, 5), False),
             ((2, 1, 4), (3, 2, 4, 5), False)]
    for a_shape, b_shape, bias in cases:
        a = rng.normal(size=a_shape)
        b = rng.normal(size=b_shape)
        c = rng.normal(size=b_shape[-1]) if bias else None
        got = T.matmul(T.Tensor(a), T.Tensor(b), None if c is None else T.Tensor(c)).data
        assert np.abs(got - matmul_oracle(a, b, c)).max() < TOL.matmul


def test_matmul_all_small_shapes():
    rng = np.random.default_rng(11)
    for m in range(1, 9):
        for k in range(1, 9):
            for n in range(1, 9):
                a = rng.normal(size=(m, k))
                b = rng.normal(size=(k, n))
                got = T.matmul(T.Tensor(a), T.Tensor(b)).data
                assert np.abs(got - matmul_oracle(a, b)).max() < TOL.matmul


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(T.ShapeError) as exc:
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)
    for a, b in [((3,), (3, 4)), ((2, 2, 3), (3, 3, 4)),         # rank < 2, leading axes
                 ((2, 2, 3), (2, 3, 3, 4))]:                      # broadcast axes disagree
        with pytest.raises(T.ShapeError):
            T.matmul(T.Tensor(np.zeros(a)), T.Tensor(np.zeros(b)))


# ---------------------------------------------------------------- softmax

def test_softmax_symmetric_row():
    out = O.softmax_rows(T.Tensor(np.zeros((1, 3))), 1.0)
    np.testing.assert_allclose(out.data, np.full((1, 3), 1 / 3), atol=1e-15)


def test_softmax_single_column():
    out = O.softmax_rows(T.Tensor(np.array([[5.0]])), 1.0)
    np.testing.assert_array_equal(out.data, [[1.0]])


def test_softmax_analytic_two_thirds():
    out = O.softmax_rows(T.Tensor(np.array([[math.log(2.0), 0.0]])), 1.0)
    np.testing.assert_allclose(out.data, [[2 / 3, 1 / 3]], atol=1e-15)


def test_softmax_rejects_nonfinite():
    with pytest.raises(T.NumericError):
        O.softmax_rows(T.Tensor(np.array([[np.nan, 0.0]])), 1.0)


def test_softmax_rejects_bad_scale():
    with pytest.raises(T.ContractError):
        O.softmax_rows(T.Tensor(np.zeros((1, 2))), 0.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=6),
                min_size=1, max_size=5).filter(lambda rs: len({len(r) for r in rs}) == 1))
def test_softmax_rows_sum_to_one(rows):
    out = O.softmax_rows(T.Tensor(np.array(rows)), 2.5)
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=TOL.row_sum)


def test_masked_softmax_restricts_support():
    x = np.array([[1.0, 2.0, 3.0]])
    mask = np.array([[True, False, True]])
    out = O.softmax_rows(T.Tensor(x), 1.0, mask)
    assert out.data[0, 1] == 0.0
    np.testing.assert_allclose(out.data.sum(), 1.0, atol=TOL.row_sum)
    dense = O.softmax_rows(T.Tensor(np.array([[1.0, 3.0]])), 1.0)
    np.testing.assert_allclose(out.data[0, [0, 2]], dense.data[0], atol=1e-15)


def test_masked_softmax_mask_broadcasts_over_leading_axes():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 2, 5))
    mask = np.array([[True, False, True, True, False], [False, True, True, False, True]])
    out = O.softmax_rows(T.Tensor(x), 2.0, mask).data
    for i in range(3):
        np.testing.assert_array_equal(out[i], O.softmax_rows(T.Tensor(x[i]), 2.0, mask).data)
    with pytest.raises(T.ShapeError):
        O.softmax_rows(T.Tensor(x), 2.0, mask[:, :4])


def test_masked_softmax_rejects_empty_row():
    with pytest.raises(T.ContractError):
        O.softmax_rows(T.Tensor(np.zeros((1, 2))), 1.0, np.zeros((1, 2), dtype=bool))


# ---------------------------------------------------------------- layer norm

def test_layer_norm_constant_token_is_zero():
    x = T.Tensor(np.full((1, 4), 3.7))
    out = T.layer_norm(x, T.Tensor(np.ones(4)), T.Tensor(np.zeros(4)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_layer_norm_already_normalized():
    x = T.Tensor(np.array([[1.0, -1.0]]))
    out = T.layer_norm(x, T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)))
    np.testing.assert_allclose(out.data, [[1.0, -1.0]] / np.sqrt(1.0 + T.LN_EPS), atol=1e-6)


def test_layer_norm_matches_two_pass_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 7))
    gain = rng.normal(size=7)
    bias = rng.normal(size=7)
    got = T.layer_norm(T.Tensor(x), T.Tensor(gain), T.Tensor(bias)).data
    want = layer_norm_oracle(x, gain, bias, T.LN_EPS)
    assert np.abs(got - want).max() < TOL.layer_norm


def test_layer_norm_sum_form_equals_mean_form_bit_for_bit():
    """``sum / d`` is the reduction and division ``ndarray.mean`` performs."""
    rng = np.random.default_rng(8)
    for shape in [(5, 7), (4, 16), (2, 16, 4, 16), (3, 5, 64), (1, 1, 3)]:
        d = shape[-1]
        x, g = rng.normal(size=shape), rng.normal(size=shape)
        gain, bias = rng.normal(size=d), rng.normal(size=d)
        xt = T.Tensor(x, requires_grad=True)
        out = T.layer_norm(xt, T.Tensor(gain), T.Tensor(bias))
        T.backward(T.sum_all(T.mul(out, T.Tensor(g))))
        mu = x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(((x - mu) * (x - mu)).mean(axis=-1, keepdims=True) + T.LN_EPS)
        xhat = (x - mu) * inv
        dxhat = g * gain
        dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        np.testing.assert_array_equal(out.data, xhat * gain + bias)
        np.testing.assert_array_equal(xt.grad, dx)


def test_layer_norm_constant_input_gets_the_same_affine_gradients():
    """With a constant ``x`` no dx is built; gain and bias gradients are
    those of the case where ``x`` requires a gradient, bit for bit."""
    rng = np.random.default_rng(11)
    x, g = rng.normal(size=(2, 5, 3, 8)), rng.normal(size=(2, 5, 3, 8))
    gain_data, bias_data = rng.normal(size=8), rng.normal(size=8)
    grads = []
    for needs in (True, False):
        xt = T.Tensor(x, requires_grad=needs)
        gain = T.Tensor(gain_data, requires_grad=True)
        bias = T.Tensor(bias_data, requires_grad=True)
        out = T.layer_norm(xt, gain, bias)
        assert (out._backward(g)[0] is not None) == needs
        T.backward(T.sum_all(T.mul(out, T.Tensor(g))))
        grads.append((gain.grad, bias.grad))
    np.testing.assert_array_equal(grads[0][0], grads[1][0])
    np.testing.assert_array_equal(grads[0][1], grads[1][1])


@pytest.mark.parametrize("needs", [True, False], ids=["x_grad", "x_constant"])
def test_normalize_then_affine_equals_layer_norm_bit_for_bit(needs):
    """One kernel: ``normalize(x)`` times ``gain`` plus ``bias``, composed of
    ``mul`` and ``add``, gives ``layer_norm(x)``'s output and its gain, bias
    and input gradients, for a constant ``x`` too."""
    rng = np.random.default_rng(13)
    for shape in [(5, 7), (2, 16, 4, 16), (3, 5, 64)]:
        x, g = rng.normal(size=shape), rng.normal(size=shape)
        gain_data, bias_data = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        results = []
        for split in (True, False):
            xt = T.Tensor(x, requires_grad=needs)
            gain = T.Tensor(gain_data, requires_grad=True)
            bias = T.Tensor(bias_data, requires_grad=True)
            out = (T.add(T.mul(T.normalize(xt), gain), bias) if split
                   else T.layer_norm(xt, gain, bias))
            T.backward(T.sum_all(T.mul(out, T.Tensor(g))))
            results.append((out.data, gain.grad, bias.grad, xt.grad))
        for got, want in zip(*results):
            if want is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------- gelu

def test_gelu_zero():
    assert T.gelu(T.Tensor(np.array([0.0]))).data[0] == 0.0


def test_gelu_asymptote():
    assert abs(T.gelu(T.Tensor(np.array([20.0]))).data[0] - 20.0) < 1e-8


def test_gelu_at_one_matches_erf_oracle():
    want = 1.0 * 0.5 * (1.0 + erf(1.0 / math.sqrt(2.0)))
    got = T.gelu(T.Tensor(np.array([1.0]))).data[0]
    assert abs(got - want) < 1e-12
    assert abs(got - 0.841345) < 1e-6
    # on a (16, 16, 4, 64) activation, the output and the input gradient are
    # the bits of the same steps computed with scipy's erf
    rng = np.random.default_rng(19)
    data = rng.standard_normal((16, 16, 4, 64)) * 2.0
    k = rng.standard_normal(data.shape)
    cdf = data * (1.0 / math.sqrt(2.0))
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    want_out = data * cdf
    want_grad = -0.5 * data
    want_grad *= data
    np.exp(want_grad, out=want_grad)
    want_grad *= 1.0 / math.sqrt(2.0 * math.pi)
    want_grad *= data
    want_grad += cdf
    want_grad *= k
    x = T.Tensor(data, requires_grad=True)
    out = T.gelu(x)
    np.testing.assert_array_equal(out.data.view(np.int64), want_out.view(np.int64))
    T.backward(T.sum_all(T.mul(out, T.Tensor(k))))
    np.testing.assert_array_equal(x.grad.view(np.int64), want_grad.view(np.int64))


ERF_EDGES = [0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
             -np.nextafter(1.0, 0.0), -np.nextafter(1.0, 2.0), 8.0, np.nextafter(8.0, 0.0),
             -8.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e300, -1e300]


def test_erf_equals_scipy_erf_bit_for_bit():
    """Both branches of the numpy erf (|x| <= 1 and the gathered |x| > 1),
    the branch edge's neighbours, the cap at 8, infinities, NaN, the
    smallest subnormal and a huge value; no floating-point warning."""
    rng = np.random.default_rng(1606)
    x = np.concatenate([ERF_EDGES, rng.standard_normal(20000),
                        rng.uniform(-1.0, 1.0, 20000), rng.uniform(-9.0, 9.0, 20000),
                        rng.uniform(-40.0, 40.0, 5000)])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = T._erf(x.copy())
    want = erf(x)
    assert np.isnan(got[13]) and np.signbit(got[1]) and not np.signbit(got[0])
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    f = np.asfortranarray(x[:20000].reshape(100, 200))
    np.testing.assert_array_equal(T._erf(f.copy(order="F")), erf(f))


# ---------------------------------------------------------------- backward basics

def test_backward_square():
    x = T.Tensor(np.array(3.0), requires_grad=True)
    y = T.mul(x, x)
    T.backward(y)
    assert x.grad == pytest.approx(6.0)


def test_backward_constant_gets_no_grad():
    x = T.Tensor(np.array(3.0))
    y = T.mul(x, x)
    assert not y.requires_grad
    T.backward(T.sum_all(y))
    assert x.grad is None


def test_backward_rejects_nonscalar_root():
    x = T.Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(T.ContractError):
        T.backward(T.add(x, x))


def test_backward_visits_diamond_once():
    x = T.Tensor(np.array(2.0), requires_grad=True)
    y = T.mul(x, x)
    z = T.add(y, y)
    T.backward(z)
    assert x.grad == pytest.approx(8.0)


def test_add_hands_its_gradient_to_one_operand_only():
    """``add`` of equal shapes returns one gradient array for both operands;
    a later accumulation into one operand's gradient leaves the other's."""
    a = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = T.Tensor(np.array([3.0, 4.0]), requires_grad=True)
    k = T.Tensor(np.array([5.0, 7.0]))
    T.backward(T.sum_all(T.add(T.add(a, b), T.mul(a, k))))
    np.testing.assert_array_equal(b.grad, [1.0, 1.0])
    np.testing.assert_array_equal(a.grad, [6.0, 8.0])


def test_add_returns_no_gradient_for_a_constant():
    a = T.Tensor(np.ones((2, 3)), requires_grad=True)
    c = T.Tensor(np.ones(3))
    assert T.add(a, c)._backward(np.ones((2, 3)))[1] is None
    assert T.add(c, a)._backward(np.ones((2, 3)))[0] is None


def test_backward_releases_the_graph_and_refuses_a_second_walk():
    """A graph is used once: its records drop their closures, parents and
    gradients; leaves keep theirs; a second backward through any released
    node raises before it changes a gradient."""
    x = T.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    y = T.mul(x, x)
    loss = T.sum_all(y)
    T.backward(loss)
    for node in (y, loss):
        assert node._backward.__closure__ is None
        assert node.parents == () and node.grad is None
    np.testing.assert_array_equal(x.grad, [2.0, -4.0])
    for again in (loss, T.sum_all(T.add(y, x))):
        with pytest.raises(T.ContractError):
            T.backward(again)
    np.testing.assert_array_equal(x.grad, [2.0, -4.0])


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_rank_one_value_gradient_keeps_the_products_bits(lead):
    """With one query row the value-path gradient is a broadcast multiply;
    its bits equal those of ``y.swapaxes(-1, -2) @ gp``, signed zeros and
    subnormals included."""
    rng = np.random.default_rng(17)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-309, 2.2250738585072014e-308])
    values = np.concatenate([special, rng.normal(size=9), [1e-200, -1e-160, 0.5, -3.0]])
    p, h_pool, dout = 5, 4, 6
    y = rng.choice(values, size=(*lead, p, 1, h_pool))
    gp = rng.choice(values, size=(*lead, p, 1, dout))
    got = T._value_grad(y, gp)
    want = np.ascontiguousarray(np.swapaxes(y.swapaxes(-1, -2) @ gp, -3, -2))
    assert got.flags.c_contiguous and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    products = y.swapaxes(-1, -2) * gp
    assert (np.signbit(products) & (products == 0)).any()    # the -0 case occurs
    assert ((products != 0) & (np.abs(products) < 2.2250738585072014e-308)).any()


def test_no_grad_builds_no_graph():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        y = T.mul(x, x)
    assert not y.requires_grad and y.parents == ()


# ---------------------------------------------------------------- gradient suite

OP_CASES = op_cases()


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_finite_difference_gradients(name):
    """Every case ``densecil gradcheck`` runs, against this file's own
    finite-difference check."""
    for point in range(10):
        rng = np.random.default_rng(1000 * point + zlib.crc32(name.encode()) % 997)
        arrays, build = OP_CASES[name](rng)
        err = check_grad(build, arrays, seed=point)
        assert err < TOL.fd_rel, f"{name} point {point}: rel err {err:.2e}"


def test_cross_entropy_rows_equal_single_vectors():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(4, 6))
    labels = [5, 0, 2, 2]
    batched = T.cross_entropy_logits(T.Tensor(x), labels).data
    assert batched.shape == (4,)
    for row, y, got in zip(x, labels, batched):
        assert got == T.cross_entropy_logits(T.Tensor(row), y).data
    with pytest.raises(T.ShapeError):
        T.cross_entropy_logits(T.Tensor(x), labels[:3])
    with pytest.raises(T.ContractError):
        T.cross_entropy_logits(T.Tensor(x), [0, 6, 1, 1])


# ---------------------------------------------------------------- determinism & misc

def test_forward_determinism_bitwise():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(6, 6)), rng.normal(size=(6, 6))

    def run():
        x = O.softmax_rows(T.matmul(T.Tensor(a), T.Tensor(b)), math.sqrt(6.0))
        return T.gelu(x).data

    assert np.array_equal(run(), run())


def test_mac_counter_counts_matmul_family():
    with T.MacCounter() as c:
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((3, 4))))
        T.matmul(T.Tensor(np.zeros((5, 2, 3))), T.Tensor(np.zeros((5, 3, 4))))
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((3, 4))), T.Tensor(np.zeros(4)))
        T.matmul(T.Tensor(np.zeros((6, 2, 3))), T.Tensor(np.zeros((3, 4))))
        T.gelu(T.Tensor(np.zeros((10, 10))))
    assert c.macs == 2 * 3 * 4 + 5 * 2 * 3 * 4 + 2 * 3 * 4 + 6 * 2 * 3 * 4


def test_sgd_rejects_frozen_params():
    p = T.Tensor(np.ones(3))
    with pytest.raises(T.ContractError):
        T.SGD([p], lr=0.1, weight_decay=0.0, momentum=0.0)


def test_sgd_step_and_weight_decay():
    p = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = T.SGD([p], lr=0.5, weight_decay=0.1, momentum=0.0)
    p.grad = np.array([1.0, 1.0])
    opt.step()
    np.testing.assert_allclose(p.data, [1.0 - 0.5 * 1.1, 2.0 - 0.5 * 1.2])


def test_trunc_normal_bounded_and_seeded():
    rng = np.random.default_rng(9)
    a = T.trunc_normal(rng, (100, 100), std=0.02)
    assert np.abs(a).max() <= 0.04 + 1e-12
    b = T.trunc_normal(np.random.default_rng(9), (100, 100), std=0.02)
    np.testing.assert_array_equal(a, b)


def _rescanning_trunc_normal(rng, shape, std):
    """The whole-array rescan that ``trunc_normal`` must match; also
    returns how many redraw rounds it needed."""
    out = rng.normal(0.0, std, size=tuple(shape))
    rounds = 0
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        rounds += 1
        bad = np.abs(out) > 2.0 * std
    return out, rounds


@pytest.mark.parametrize("std", [0.02, 0.25])
@pytest.mark.parametrize("shape", [(9216,), (4, 64, 16), (1,)])
@pytest.mark.parametrize("seed", [0, 3, 5])
def test_trunc_normal_equals_the_rescanning_oracle(seed, shape, std):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = T.trunc_normal(rng, shape, std=std)
    want, rounds = _rescanning_trunc_normal(oracle_rng, shape, std)
    assert got.shape == shape
    np.testing.assert_array_equal(got, want)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    if (seed, shape) == (0, (9216,)):
        assert rounds >= 3
