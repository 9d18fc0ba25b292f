"""Forward oracles and finite-difference gradient checks for every op."""

import gc
import math
import weakref

import numpy as np
import pytest

import entsel.numerics as nm
from entsel.errors import GraphError, ShapeError
from entsel.numerics import ComputeGraph, Tensor, backward, grad_check


def t(data, rg=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------


def test_matmul_identity():
    out = nm.matmul(t([[1.0, 0.0], [0.0, 1.0]]), t([[3.0, 4.0], [5.0, 6.0]]))
    assert np.array_equal(out.data, [[3.0, 4.0], [5.0, 6.0]])


def test_matmul_inner_product():
    out = nm.matmul(t([[1.0, 2.0]]), t([[3.0], [4.0]]))
    assert out.data.shape == (1, 1) and out.data[0, 0] == 11.0


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=(4, 5)), rng.normal(size=(5, 3))
    want = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            for k in range(5):
                want[i, j] += a[i, k] * b[k, j]
    assert np.abs(nm.matmul(t(a), t(b)).data - want).max() < 1e-12


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        nm.matmul(t(np.ones((2, 3))), t(np.ones((4, 2))))


def test_softmax_symmetry_and_closed_form():
    assert np.allclose(nm.softmax(t([0.0, 0.0, 0.0])).data, 1.0 / 3.0)
    got = nm.softmax(t([1.0, 2.0, 3.0])).data
    assert np.abs(got - [0.09003, 0.24473, 0.66524]).max() < 1e-5


def test_softmax_stabilized_and_normalized():
    got = nm.softmax(t([1000.0, 0.0])).data
    assert np.all(np.isfinite(got)) and got[0] > 0.999
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(scale=10.0, size=(3, 5))
        sums = nm.softmax(t(x)).data.sum(axis=-1)
        assert np.abs(sums - 1.0).max() < 1e-9


def test_layer_norm_values():
    g, b = t(np.ones(4)), t(np.zeros(4))
    assert np.allclose(nm.layer_norm(t([5.0, 5.0, 5.0, 5.0]), g, b).data, 0.0)
    out = nm.layer_norm(t([1.0, -1.0]), t(np.ones(2)), t(np.zeros(2)))
    assert np.abs(out.data - [1.0, -1.0]).max() < 1e-5
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 16))
    out = nm.layer_norm(t(x), t(np.ones(16)), t(np.zeros(16))).data
    assert np.abs(out.mean(axis=-1)).max() < 1e-6
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-3
    x = rng.normal(loc=3.0, scale=20.0, size=(5, 64))
    want = (x - x.mean(axis=-1, keepdims=True)) / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
    got = nm.layer_norm(t(x), t(np.ones(64)), t(np.zeros(64))).data
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_sigmoid_values():
    assert nm.sigmoid(t(0.0)).item() == 0.5
    assert nm.sigmoid(t(-50.0)).item() < 2e-22
    assert abs(nm.sigmoid(t(1.0)).item() - 0.731058) < 1e-5
    zs = np.linspace(-30.0, 30.0, 601)
    want = np.array([1.0 / (1.0 + math.exp(-z)) if z >= 0 else
                     math.exp(z) / (1.0 + math.exp(z)) for z in zs])
    got = nm.sigmoid(t(zs)).data
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    assert np.all(np.diff(got) >= 0.0)
    assert np.abs(got + got[::-1] - 1.0).max() < 1e-15  # sigmoid(-z) = 1 - sigmoid(z)
    assert abs(got[0] / math.exp(-30.0) - 1.0) < 1e-12  # lower tail keeps its digits
    tails = nm.sigmoid(t([-700.0, -1e-300, 1e-300, 700.0])).data
    assert np.all(np.isfinite(tails)) and tails[0] > 0.0 and tails[3] == 1.0


def test_gelu_tanh_form():
    xs = np.concatenate([np.linspace(-4.0, 4.0, 33), np.linspace(-30.0, 30.0, 241)])
    c = np.sqrt(2.0 / np.pi)
    tanh = np.tanh(c * (xs + 0.044715 * xs**3))
    want = 0.5 * xs * (1.0 + tanh)
    tails = np.abs(xs) > 4.0
    got = nm.gelu(t(xs)).data
    assert np.abs(got - want).max() < 1e-12
    np.testing.assert_allclose(got[tails], want[tails], rtol=1e-12, atol=0.0)
    assert nm.gelu(t(0.0)).item() == 0.0
    assert abs(nm.gelu(t(10.0)).item() - 10.0) < 1e-9
    x = t(xs, rg=True)
    with ComputeGraph():
        backward(nm.tsum(nm.gelu(x)))
    dwant = (0.5 * (1.0 + tanh)
             + 0.5 * xs * (1.0 - tanh**2) * c * (1.0 + 3 * 0.044715 * xs**2))
    assert np.abs(x.grad - dwant).max() < 1e-12
    np.testing.assert_allclose(x.grad[tails], dwant[tails], rtol=1e-12, atol=0.0)


def test_log_floor_guard():
    out = nm.log(t([1.0, 0.0]))
    assert out.data[0] == 0.0 and out.data[1] == math.log(1e-12)


def test_embedding_takes_rows():
    table = t(np.arange(12.0).reshape(4, 3))
    out = nm.embedding(table, np.array([2, 0, 2]))
    assert np.array_equal(out.data, table.data[[2, 0, 2]])


def test_concat_rows():
    parts = [t([[1.0, 2.0]]), t([[3.0, 4.0], [5.0, 6.0]])]
    assert np.array_equal(nm.concat(parts).data, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    with pytest.raises(ShapeError):
        nm.concat([t([[1.0, 2.0]]), t([[3.0]])])
    with pytest.raises(ShapeError):
        nm.concat([])


def test_l2_normalize_unit_norm():
    rng = np.random.default_rng(2)
    for _ in range(10):
        v = nm.l2_normalize(t(rng.normal(size=7))).data
        assert abs(np.linalg.norm(v) - 1.0) < 1e-9
    m = rng.normal(size=(5, 7))
    rows = nm.l2_normalize(t(m)).data
    assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() < 1e-12
    for row, vec in zip(rows, m):  # each row alone, as a 1-D vector
        assert np.array_equal(row, nm.l2_normalize(t(vec)).data)


def test_bias_add_broadcast_limited_to_last_axis():
    out = nm.add(t(np.zeros((2, 3))), t([1.0, 2.0, 3.0]))
    assert np.array_equal(out.data, [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    with pytest.raises(ShapeError):
        nm.add(t(np.zeros((2, 3))), t(np.zeros((3, 2))))


def test_dropout_inverted_scaling():
    rng = np.random.default_rng(3)
    x = t(np.ones(10000))
    out = nm.dropout(x, 0.25, rng).data
    kept = out[out != 0.0]
    assert np.allclose(kept, 1.0 / 0.75)
    assert abs(kept.size / 10000 - 0.75) < 0.02


# ---------------------------------------------------------------------------
# backward semantics
# ---------------------------------------------------------------------------


def test_backward_of_sum_is_ones():
    w = t(np.arange(6.0).reshape(2, 3), rg=True)
    with ComputeGraph():
        backward(nm.tsum(w))
    assert np.array_equal(w.grad, np.ones((2, 3)))


def test_backward_sigmoid_at_zero():
    x = t(0.0, rg=True)
    with ComputeGraph():
        backward(nm.sigmoid(x))
    assert abs(float(x.grad) - 0.25) < 1e-12


def test_backward_requires_graph_scalar_and_attachment():
    x = t([1.0, 2.0], rg=True)
    with pytest.raises(GraphError):
        backward(nm.tsum(x))  # no active graph
    with ComputeGraph():
        y = nm.tsum(x)
        with pytest.raises(ShapeError):
            backward(nm.mul_scalar(x, 2.0))  # non-scalar loss
        backward(y)
    with ComputeGraph():
        with pytest.raises(GraphError):
            backward(y)  # y belongs to the previous graph


def test_backward_twice_raises():
    x = t(1.5, rg=True)
    with ComputeGraph():
        y = nm.mul(x, x)
        backward(y)
        with pytest.raises(GraphError):
            backward(y)


def test_backward_accumulates_over_reuse():
    # diamond: loss = x*x + x, d/dx = 2x + 1
    x = t(3.0, rg=True)
    with ComputeGraph():
        backward(nm.add(nm.mul(x, x), x))
    assert abs(float(x.grad) - 7.0) < 1e-12


def test_backward_visits_each_node_once():
    x = t(np.ones(4), rg=True)
    with ComputeGraph() as g:
        y = x
        for _ in range(10):
            y = nm.mul_scalar(y, 1.0)
        backward(nm.tsum(y))
    assert g.visit_count == len(g.nodes) == 11


def test_no_tape_outside_graph():
    x = t([1.0, 2.0], rg=True)
    y = nm.mul_scalar(x, 3.0)  # eager, nothing recorded
    with ComputeGraph() as g:
        pass
    assert g.nodes == [] and y._graph is None


def test_graph_frees_activations_without_gc():
    # tensors reference their graph weakly, so the tape is no reference cycle
    # and refcounting alone frees a step's activations
    x = t(np.linspace(-1.0, 1.0, 12).reshape(3, 4), rg=True)
    w = t(np.full((4, 5), 0.5), rg=True)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with ComputeGraph():
            hidden = nm.gelu(nm.matmul(x, w))
            probe = weakref.ref(hidden.data)
            loss = nm.tsum(nm.softmax(hidden))
            del hidden
            backward(loss)
            assert probe() is not None  # the tape keeps it for backward
        del loss
        assert probe() is None
        assert x.grad is not None and w.grad is not None
    finally:
        if was_enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# finite-difference checks, one op at a time
# ---------------------------------------------------------------------------

CASES = [
    ("matmul-left", lambda x: nm.tsum(nm.matmul(x, _const((4, 3)))), (5, 4)),
    ("matmul-right", lambda x: nm.tsum(nm.matmul(_const((3, 5)), x)), (5, 2)),
    ("matmul-batched", lambda x: nm.tsum(nm.matmul(x, _const((2, 4, 3)))), (2, 5, 4)),
    ("add", lambda x: nm.tsum(nm.add(x, _const((4, 6)))), (4, 6)),
    ("bias-add", lambda x: nm.tsum(nm.add(_const((4, 6)), x)), (6,)),
    ("mul", lambda x: nm.tsum(nm.mul(x, _const((3, 4)))), (3, 4)),
    ("neg", lambda x: nm.tsum(nm.neg(x)), (5,)),
    ("add_scalar", lambda x: nm.tsum(nm.add_scalar(x, 2.5)), (4,)),
    ("mul_scalar", lambda x: nm.tsum(nm.mul_scalar(x, -1.7)), (4,)),
    ("log", lambda x: nm.tsum(nm.log(nm.sigmoid(x))), (6,)),
    ("sigmoid", lambda x: nm.tsum(nm.sigmoid(x)), (2, 3)),
    ("gelu", lambda x: nm.tsum(nm.gelu(x)), (3, 3)),
    ("softmax", lambda x: nm.tsum(nm.mul(nm.softmax(x), _const((3, 4)))), (3, 4)),
    ("layer_norm-x", lambda x: nm.tsum(nm.mul(
        nm.layer_norm(x, _const((6,)), _const((6,))), _const((2, 6)))), (2, 6)),
    ("layer_norm-gain", lambda x: nm.tsum(nm.mul(
        nm.layer_norm(_const((2, 6)), x, _const((6,))), _const((2, 6)))), (6,)),
    ("embedding", lambda x: nm.tsum(nm.mul(
        nm.embedding(x, np.array([0, 2, 2, 1])), _const((4, 3)))), (4, 3)),
    ("reshape", lambda x: nm.tsum(nm.mul(nm.reshape(x, (6, 2)), _const((6, 2)))), (3, 4)),
    ("transpose", lambda x: nm.tsum(nm.mul(nm.transpose(x, (1, 0)), _const((4, 3)))), (3, 4)),
    ("concat", lambda x: nm.tsum(nm.mul(nm.concat([nm.mul_scalar(x, 2.0), nm.neg(x), x]),
                                        _const((12, 3)))), (4, 3)),
    ("l2_normalize", lambda x: nm.tsum(nm.mul(nm.l2_normalize(x), _const((7,)))), (7,)),
    ("l2_normalize-rows", lambda x: nm.tsum(nm.mul(nm.l2_normalize(x), _const((4, 7)))),
     (4, 7)),
    ("linear", lambda x: nm.tsum(nm.mul(nm.linear(x, _const((4, 3)), _const((3,))),
                                        _const((5, 3)))), (5, 4)),
    ("linear-weight", lambda x: nm.tsum(nm.mul(nm.linear(_const((5, 4)), x, _const((3,))),
                                               _const((5, 3)))), (4, 3)),
    ("linear-bias", lambda x: nm.tsum(nm.mul(nm.linear(_const((5, 4)), _const((4, 3)), x),
                                             _const((5, 3)))), (3,)),
    # no bk case: a key bias shifts a whole score row, which the softmax ignores,
    # so its gradient is zero and the check would only measure difference noise
    *[(name, lambda x, arg=arg: _attention_loss(**{arg: x}), shape) for name, arg, shape in (
        ("attention", "x", (6, 4)),
        ("attention-wq", "wq", (4, 4)), ("attention-bq", "bq", (4,)),
        ("attention-wk", "wk", (4, 4)),
        ("attention-wv", "wv", (4, 4)), ("attention-bv", "bv", (4,)))],
]

_consts = {}


def _const(shape):
    # fixed pseudo-random coefficients so each loss is a deterministic function
    if shape not in _consts:
        rng = np.random.default_rng(hash(shape) % (2**32))
        _consts[shape] = Tensor(rng.normal(size=shape))
    return _consts[shape]


_ATTENTION_ARGS = ("x", "wq", "bq", "wk", "bk", "wv", "bv")


def _attention_inputs(**given):
    # two sequences of three tokens, d=4, two heads; fixed draws, distinct per input
    rng = np.random.default_rng(5)
    shapes = {"x": (6, 4), "wq": (4, 4), "bq": (4,), "wk": (4, 4), "bk": (4,),
              "wv": (4, 4), "bv": (4,)}
    drawn = {name: Tensor(rng.normal(size=shapes[name])) for name in _ATTENTION_ARGS}
    return [given.get(name, drawn[name]) for name in _ATTENTION_ARGS]


def _attention_loss(**given):
    return nm.tsum(nm.mul(nm.attention(*_attention_inputs(**given), 2, 2, 3), _const((6, 4))))


@pytest.mark.parametrize("name,f,shape", CASES, ids=[c[0] for c in CASES])
def test_grad_check_per_op(name, f, shape):
    rng = np.random.default_rng(11)
    for trial in range(25):
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        report = grad_check(f, x, step=1e-4, tolerance=1e-5)
        assert report.passed, f"{name} trial {trial}: rel err {report.max_rel_error:.3g}"


def test_grad_check_affine_is_machine_precision():
    a = Tensor(np.array([2.0, -3.0, 0.5]))
    report = grad_check(lambda x: nm.tsum(nm.mul(a, x)),
                        Tensor(np.array([1.0, 1.0, 1.0]), requires_grad=True))
    assert report.max_rel_error < 1e-9


def test_grad_check_flags_corrupted_backward():
    # negative control: the analytic pass sees a doubled loss, the numeric
    # probes see the plain one, so the reported gradient is off by 2x
    calls = {"n": 0}

    def flaky(x):
        calls["n"] += 1
        if calls["n"] == 1:
            return nm.tsum(nm.mul_scalar(x, 2.0))
        return nm.tsum(x)

    good = grad_check(lambda x: nm.tsum(x), Tensor(np.ones(3), requires_grad=True))
    assert good.passed
    report = grad_check(flaky, Tensor(np.ones(3), requires_grad=True))
    assert not report.passed and report.max_rel_error > 0.4


def _composed_linear(x, w, b):
    return nm.add(nm.matmul(x, w), b)


def _composed_attention(x, wq, bq, wk, bk, wv, bv, heads, batch, seq_len):
    d = x.shape[-1]
    dh = d // heads
    q, k, v = (nm.add(nm.matmul(x, w), b) for w, b in ((wq, bq), (wk, bk), (wv, bv)))
    qh = nm.transpose(nm.reshape(q, (batch, seq_len, heads, dh)), (0, 2, 1, 3))
    kt = nm.transpose(nm.reshape(k, (batch, seq_len, heads, dh)), (0, 2, 3, 1))
    vh = nm.transpose(nm.reshape(v, (batch, seq_len, heads, dh)), (0, 2, 1, 3))
    probs = nm.softmax(nm.mul_scalar(nm.matmul(qh, kt), 1.0 / math.sqrt(dh)))
    return nm.reshape(nm.transpose(nm.matmul(probs, vh), (0, 2, 1, 3)), (batch * seq_len, d))


@pytest.mark.parametrize("fused,composed,shapes,extra", [
    (nm.linear, _composed_linear, [(12, 8), (8, 5), (5,)], ()),
    (nm.attention, _composed_attention,
     [(3 * 7, 8), (8, 8), (8,), (8, 8), (8,), (8, 8), (8,)], (2, 3, 7)),
], ids=["linear", "attention"])
def test_fused_ops_match_their_composition(fused, composed, shapes, extra):
    rng = np.random.default_rng(13)
    values = [rng.normal(scale=2.0, size=shape) for shape in shapes]
    weights = rng.normal(size=(shapes[0][0], shapes[-1][0]))
    results = []
    for op in (fused, composed):
        inputs = [Tensor(v.copy(), requires_grad=True) for v in values]
        with ComputeGraph():
            out = op(*inputs, *extra)
            backward(nm.tsum(nm.mul(out, Tensor(weights))))
        results.append((out.data, [x.grad for x in inputs]))
    (got, got_grads), (want, want_grads) = results
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    for i, (g, w) in enumerate(zip(got_grads, want_grads)):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12, err_msg=f"input {i}")


def test_fused_ops_reject_bad_shapes():
    with pytest.raises(ShapeError):
        nm.linear(t(np.ones((2, 3))), t(np.ones((3, 4))), t(np.ones(3)))
    with pytest.raises(ShapeError):
        nm.attention(*_attention_inputs(), 2, 2, 4)  # 6 rows are not 2 sequences of 4
    with pytest.raises(ShapeError):
        nm.attention(*_attention_inputs(), 3, 2, 3)  # d=4 does not split into 3 heads


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_first_nonfinite_names_the_earliest_op():
    x = t([[1e308, 1e308]], rg=True)
    with ComputeGraph() as graph:
        row = nm.mul_scalar(x, 1.0)
        assert graph.first_nonfinite() is None  # a finite tape names nothing
        nm.matmul(row, t([[1e308], [1.0]]))  # overflows to inf
        nm.mul_scalar(row, 0.5)  # finite again
    assert len(graph.nodes) == 3
    assert graph.first_nonfinite() == "op matmul (input shapes (1, 2), (2, 1))"
