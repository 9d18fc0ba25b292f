"""Dense float64 tensors with reverse-mode autodiff on an op tape.

Storage is a row-major (C-contiguous) numpy array; shapes are plain tuples.
Gradients are recorded only while a ComputeGraph is active on the current
thread, so inference-time math pays no tape overhead. The tape is also the
NaN trap: `ComputeGraph.first_nonfinite` names the earliest recorded op with a
NaN or Inf output, and runs only when asked. Numerical constants (log's
floor, the norm epsilons) are fixed in the ops. Broadcasting is deliberately
restricted to bias-add over the last axis; every other shape mix raises
ShapeError.
"""

import math
import threading
import weakref

import numpy as np

from ..errors import GraphError, ShapeError

_state = threading.local()


def _active_graph():
    return getattr(_state, "graph", None)


class Tensor:
    """A dense float64 array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "_graph")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 0 and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)  # keep 0-d as 0-d; it would promote to 1-d
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._graph = None  # weakref to the graph that recorded this tensor's op

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g):
        # the first gradient is stored without a copy: no code updates a .grad
        # in place (accumulation rebinds, Adam only reads), so sharing is safe
        if self.grad is None:
            self.grad = np.asarray(g, dtype=np.float64)
        else:
            self.grad = self.grad + g

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class ComputeGraph:
    """Creation-ordered tape of ops; backward walks it in reverse exactly once.

    Use as a context manager around one forward/backward step. Graphs are
    single-threaded; independent graphs may live on separate threads.
    Tensors point back to their graph only weakly, so the tape holds no
    reference cycle: once the step's last reference to the graph goes, its
    nodes and every activation they keep are freed at once, without the gc.
    """

    def __init__(self):
        self.nodes = []  # (output Tensor, inputs tuple, backward_fn)
        self.consumed = False
        self.visit_count = 0
        self._ref = weakref.ref(self)  # shared by every tensor this graph records

    def __enter__(self):
        if _active_graph() is not None:
            raise GraphError("a ComputeGraph is already active on this thread")
        _state.graph = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _state.graph = None
        return False

    def record(self, out, inputs, backward_fn):
        out._graph = self._ref
        self.nodes.append((out, inputs, backward_fn))

    def first_nonfinite(self):
        """"op NAME (input shapes ...)" for the earliest recorded output holding
        a NaN or Inf, or None when every output is finite."""
        for out, inputs, backward_fn in self.nodes:
            if not np.isfinite(out.data).all():
                op = backward_fn.__qualname__.split(".")[0]  # every backward is a closure of its op
                shapes = ", ".join(str(t.shape) for t in inputs)
                return f"op {op} (input shapes {shapes})"
        return None


def backward(loss):
    """Populate grads of every requires_grad tensor reachable from `loss`.

    `loss` must be a scalar produced under the currently active graph; a
    second backward on the same graph raises GraphError.
    """
    graph = _active_graph()
    if graph is None:
        raise GraphError("backward called with no active ComputeGraph")
    if loss.data.shape != ():
        raise ShapeError(f"loss must be scalar, got shape {loss.data.shape}")
    if loss._graph is not graph._ref:
        raise GraphError("loss is detached from the active graph")
    if graph.consumed:
        raise GraphError("backward already ran on this graph; build a new one")
    graph.consumed = True

    loss.grad = np.ones((), dtype=np.float64)
    visits = 0
    for out, _inputs, backward_fn in reversed(graph.nodes):
        if out.grad is None:
            continue  # not on a path to the loss
        backward_fn(out.grad)
        visits += 1
    graph.visit_count = visits


def _make(data, inputs, backward_fn):
    """Wrap an op result, recording it on the active tape when grads flow."""
    requires = any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=requires)
    graph = _active_graph()
    if requires and graph is not None:
        graph.record(out, inputs, backward_fn)
    return out


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def matmul(a, b):
    """Matrix product; 2-D, or stacked with identical leading batch dims."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2] or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    data = a.data @ b.data

    def back(g):
        if a.requires_grad:
            a.accumulate_grad(g @ b.data.swapaxes(-1, -2))
        if b.requires_grad:
            b.accumulate_grad(a.data.swapaxes(-1, -2) @ g)

    return _make(data, (a, b), back)


def linear(x, w, b):
    """x @ w + b as one node: [n x d_in] rows, [d_in x d_out] weights, [d_out] bias."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError(f"linear shape mismatch: {x.shape} x {w.shape} + {b.shape}")
    data = x.data @ w.data
    data += b.data

    def back(g):
        if x.requires_grad:
            x.accumulate_grad(g @ w.data.T)
        if w.requires_grad:
            w.accumulate_grad(x.data.T @ g)
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=0))

    return _make(data, (x, w, b), back)


def attention(x, wq, bq, wk, bk, wv, bv, heads, batch, seq_len):
    """Multi-head self-attention of same-length sequences as one node.

    `x` holds batch*seq_len rows (sequence g's token t at row g*seq_len + t).
    The q/k/v maps, the per-head softmax(q k^T / sqrt(dh)) v and the merge of
    the heads back into [batch*seq_len x d] rows all run inside; the output
    map stays outside. The tape keeps q, k, v and the probabilities: one
    [batch x heads x seq x seq] array, with the scores softmaxed in place.
    """
    n, d = x.shape
    if n != batch * seq_len or d % heads != 0:
        raise ShapeError(f"attention: {x.shape} rows are not {batch}x{seq_len} "
                         f"sequences of {heads} heads")
    for w, bias in ((wq, bq), (wk, bk), (wv, bv)):
        if w.shape != (d, d) or bias.shape != (d,):
            raise ShapeError(f"attention maps must be [{d} x {d}] + [{d}], "
                             f"got {w.shape} + {bias.shape}")
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)

    def split(w, bias, axes):  # [n x d] rows -> contiguous per-head blocks
        rows = x.data @ w.data
        rows += bias.data
        return np.ascontiguousarray(rows.reshape(batch, seq_len, heads, dh).transpose(axes))

    qh = split(wq, bq, (0, 2, 1, 3))  # [b x h x S x dh]
    kt = split(wk, bk, (0, 2, 3, 1))  # [b x h x dh x S]
    vh = split(wv, bv, (0, 2, 1, 3))
    probs = qh @ kt
    probs *= scale
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    data = (probs @ vh).transpose(0, 2, 1, 3).reshape(n, d)

    def back(g):
        gctx = np.ascontiguousarray(g.reshape(batch, seq_len, heads, dh).transpose(0, 2, 1, 3))
        gvh = probs.swapaxes(-1, -2) @ gctx
        gs = gctx @ vh.swapaxes(-1, -2)  # d loss / d probs, then in place d loss / d raw scores
        gs -= (gs * probs).sum(axis=-1, keepdims=True)
        gs *= probs
        gs *= scale
        gqh = gs @ kt.swapaxes(-1, -2)
        gkt = qh.swapaxes(-1, -2) @ gs
        del gs
        gx = None
        for w, bias, grad in ((wv, bv, gvh.transpose(0, 2, 1, 3)),
                              (wk, bk, gkt.transpose(0, 3, 1, 2)),
                              (wq, bq, gqh.transpose(0, 2, 1, 3))):
            grad = grad.reshape(n, d)
            if bias.requires_grad:
                bias.accumulate_grad(grad.sum(axis=0))
            if w.requires_grad:
                w.accumulate_grad(x.data.T @ grad)
            if x.requires_grad:
                gx = grad @ w.data.T if gx is None else gx + grad @ w.data.T
        if gx is not None:
            x.accumulate_grad(gx)

    return _make(data, (x, wq, bq, wk, bk, wv, bv), back)


def add(a, b):
    """Elementwise add; `b` may also be 1-D bias broadcast over the last axis."""
    if a.shape == b.shape:
        def back(g):
            if a.requires_grad:
                a.accumulate_grad(g)
            if b.requires_grad:
                b.accumulate_grad(g)

        return _make(a.data + b.data, (a, b), back)
    if b.ndim == 1 and a.ndim >= 1 and a.shape[-1] == b.shape[0]:
        def back(g):
            if a.requires_grad:
                a.accumulate_grad(g)
            if b.requires_grad:
                b.accumulate_grad(g.reshape(-1, b.shape[0]).sum(axis=0))

        return _make(a.data + b.data, (a, b), back)
    raise ShapeError(f"add shape mismatch: {a.shape} + {b.shape}")


def mul(a, b):
    """Elementwise product of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} * {b.shape}")

    def back(g):
        if a.requires_grad:
            a.accumulate_grad(g * b.data)
        if b.requires_grad:
            b.accumulate_grad(g * a.data)

    return _make(a.data * b.data, (a, b), back)


def neg(x):
    def back(g):
        if x.requires_grad:
            x.accumulate_grad(-g)

    return _make(-x.data, (x,), back)


def add_scalar(x, c):
    c = float(c)

    def back(g):
        if x.requires_grad:
            x.accumulate_grad(g)

    return _make(x.data + c, (x,), back)


def mul_scalar(x, c):
    c = float(c)

    def back(g):
        if x.requires_grad:
            x.accumulate_grad(g * c)

    return _make(x.data * c, (x,), back)


def tsum(x):
    """Sum of all elements, as a scalar tensor."""

    def back(g):
        if x.requires_grad:
            x.accumulate_grad(np.full(x.shape, float(g), dtype=np.float64))

    return _make(x.data.sum(), (x,), back)


def log(x):
    """Natural log; values below 1e-12 are clamped to it first (zero gradient there)."""
    clamped = np.maximum(x.data, 1e-12)
    data = np.log(clamped)

    def back(g):
        if x.requires_grad:
            x.accumulate_grad(np.where(x.data > 1e-12, g / clamped, 0.0))

    return _make(data, (x,), back)


def sigmoid(x):
    """Elementwise 1/(1+exp(-x)), computed without overflow on either tail."""
    z = x.data
    e = np.exp(-np.abs(z))
    data = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def back(g):
        if x.requires_grad:
            x.accumulate_grad(g * data * (1.0 - data))

    return _make(data, (x,), back)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x):
    """tanh-approximate GELU; smooth everywhere, so finite differences agree."""
    z = x.data.reshape(-1)  # a view; 1-D because a 0-d product is a scalar, not a buffer
    z2 = z * z  # products, not z**3: float powers go through libm pow, ~70x slower
    t = z2 * z
    t *= 0.044715
    t += z
    t *= _GELU_C
    np.tanh(t, out=t)
    data = t + 1.0
    data *= z
    data *= 0.5
    data = data.reshape(x.shape)

    def back(g):
        if x.requires_grad:
            # g * (0.5 (1 + t) + 0.5 z (1 - t^2) c (1 + 3 * 0.044715 z^2)), in two buffers
            out = z2 * (3 * 0.044715)
            out += 1.0
            out *= _GELU_C
            tmp = t * t
            np.subtract(1.0, tmp, out=tmp)
            tmp *= z
            tmp *= 0.5
            out *= tmp
            np.add(t, 1.0, out=tmp)
            tmp *= 0.5
            out += tmp
            out *= g.reshape(-1)
            x.accumulate_grad(out.reshape(x.shape))

    return _make(data, (x,), back)


def softmax(x):
    """Max-subtracted softmax along the last axis; each row sums to 1."""
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ShapeError("softmax needs a last axis of length >= 1")
    data = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=-1, keepdims=True)

    def back(g):
        if x.requires_grad:
            dot = (g * data).sum(axis=-1, keepdims=True)
            x.accumulate_grad((g - dot) * data)

    return _make(data, (x,), back)


def layer_norm(x, gain, bias):
    """Normalize the last axis to mean 0 / variance 1 (+1e-5), then scale and shift."""
    d = x.shape[-1]
    if d < 2:
        raise ShapeError("layer_norm needs last axis >= 2")
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError("gain/bias must be 1-D of the normalized width")
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat *= inv
    data = xhat * gain.data + bias.data

    def back(g):
        if gain.requires_grad:
            gain.accumulate_grad((g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias.accumulate_grad(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gy = g * gain.data
            m1 = gy.mean(axis=-1, keepdims=True)
            m2 = (gy * xhat).mean(axis=-1, keepdims=True)
            x.accumulate_grad(inv * (gy - m1 - xhat * m2))

    return _make(data, (x, gain, bias), back)


def embedding(table, ids):
    """Row lookup into a [vocab x dim] table; grads scatter-add by id."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("embedding ids must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError("embedding id out of range")
    data = table.data[idx]

    def back(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, idx, g)
            table.accumulate_grad(gt)

    return _make(data, (table,), back)


def reshape(x, shape):
    shape = tuple(shape)

    def back(g):
        if x.requires_grad:
            x.accumulate_grad(g.reshape(x.shape))

    return _make(x.data.reshape(shape), (x,), back)


def transpose(x, axes):
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def back(g):
        if x.requires_grad:
            x.accumulate_grad(g.transpose(inverse))

    return _make(x.data.transpose(axes), (x,), back)


def concat(tensors):
    """Join tensors of equal trailing shape along the leading axis."""
    if not tensors:
        raise ShapeError("concat needs at least one tensor")
    if any(t.ndim < 1 or t.shape[1:] != tensors[0].shape[1:] for t in tensors):
        raise ShapeError("concat requires identical trailing shapes")
    ends = np.cumsum([t.shape[0] for t in tensors])

    def back(g):
        for t, end in zip(tensors, ends):
            if t.requires_grad:
                t.accumulate_grad(g[end - t.shape[0]:end])

    return _make(np.concatenate([t.data for t in tensors]), tuple(tensors), back)


def l2_normalize(x):
    """Scale every vector along the last axis to unit L2 norm (+1e-12 under the root)."""
    if x.ndim < 1:
        raise ShapeError("l2_normalize needs at least one axis")
    norm = np.sqrt(np.vecdot(x.data, x.data)[..., None] + 1e-12)
    data = x.data / norm

    def back(g):
        if x.requires_grad:
            x.accumulate_grad(g / norm - x.data * np.vecdot(x.data, g)[..., None] / norm**3)

    return _make(data, (x,), back)


def dropout(x, p, rng):
    """Inverted dropout with keep-prob 1-p; identity when p == 0."""
    if p <= 0.0:
        return x
    mask = (rng.random(x.shape) >= p) / (1.0 - p)

    def back(g):
        if x.requires_grad:
            x.accumulate_grad(g * mask)

    return _make(x.data * mask, (x,), back)
