"""Dense float64 tensors with reverse-mode autodiff on an op tape.

Storage is a row-major (C-contiguous) numpy array; shapes are plain tuples.
Gradients are recorded only while a ComputeGraph is active on the current
thread, so inference-time math pays no tape overhead. Broadcasting is
deliberately restricted to bias-add over the last axis; every other shape
mix raises ShapeError.
"""

import math
import threading
import weakref

import numpy as np

from ..errors import GraphError, NumericError, ShapeError

_state = threading.local()


def _active_graph():
    return getattr(_state, "graph", None)


def set_debug_checks(on):
    """Toggle NaN/Inf validation after every op (thread-local, default off)."""
    _state.debug = bool(on)


def debug_checks_enabled():
    return getattr(_state, "debug", False)


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


def _finish(out):
    if debug_checks_enabled() and not np.all(np.isfinite(out.data)):
        raise NumericError("non-finite values produced by op")
    return out


def _make(data, inputs, backward_fn):
    """Wrap an op result, recording it on the active tape when grads flow."""
    requires = any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=requires)
    graph = _active_graph()
    if requires and graph is not None:
        graph.record(out, inputs, backward_fn)
    return _finish(out)


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


def log(x, floor=0.0):
    """Natural log; values below `floor` are clamped before the log."""
    clamped = np.maximum(x.data, floor) if floor > 0.0 else x.data
    data = np.log(clamped)

    def back(g):
        if x.requires_grad:
            gx = g / clamped
            if floor > 0.0:
                gx = np.where(x.data > floor, gx, 0.0)
            x.accumulate_grad(gx)

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
    z = x.data
    z2 = z * z  # products, not z**3: float powers go through libm pow, ~70x slower
    t = np.tanh(_GELU_C * (z + 0.044715 * (z2 * z)))
    data = 0.5 * z * (1.0 + t)

    def back(g):
        if x.requires_grad:
            dinner = _GELU_C * (1.0 + 3 * 0.044715 * z2)
            x.accumulate_grad(g * (0.5 * (1.0 + t) + 0.5 * z * (1.0 - t * t) * dinner))

    return _make(data, (x,), back)


def softmax(x, axis=-1):
    """Max-subtracted softmax along `axis`; each slice sums to 1."""
    if x.shape[axis] < 1:
        raise ShapeError("softmax axis must have length >= 1")
    data = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=axis, keepdims=True)

    def back(g):
        if x.requires_grad:
            dot = (g * data).sum(axis=axis, keepdims=True)
            x.accumulate_grad((g - dot) * data)

    return _make(data, (x,), back)


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize the last axis to mean 0 / variance 1, then scale and shift."""
    d = x.shape[-1]
    if d < 2:
        raise ShapeError("layer_norm needs last axis >= 2")
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError("gain/bias must be 1-D of the normalized width")
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
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


def l2_normalize(x, eps=1e-12):
    """Scale every vector along the last axis to unit L2 norm."""
    if x.ndim < 1:
        raise ShapeError("l2_normalize needs at least one axis")
    norm = np.sqrt(np.vecdot(x.data, x.data)[..., None] + eps)
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
