"""Mini pre-norm transformer encoder with two output heads.

`encode_batch` produces token-level representations for a batch of
same-length sequences. `classify_pairs_batch` softmaxes an affine map of each
[CLS] row into (entail, non-entail); `score_options_batch` sigmoid-scores the
mean-pooled span of each hypothesis through a small MLP shared across
positions. `bi_encode_rows` mean-pools each whole sequence and returns one
[n x model_dim] matrix of unit rows, in input order, for retrieval.
"""

import json
import math
import struct
from dataclasses import asdict, dataclass
from types import SimpleNamespace

import numpy as np

from . import numerics as nm
from .errors import DataError, LayoutError, ShapeError
from .files import atomic_write

CHECKPOINT_MAGIC = b"ENTSELCK"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class EncoderConfig:
    layers: int = 2
    heads: int = 4
    model_dim: int = 64
    ff_dim: int = 256
    max_len: int = 256
    dropout: float = 0.1
    use_positions: bool = True
    seed: int = 0

    def __post_init__(self):
        for name in ("layers", "heads", "model_dim", "ff_dim", "max_len"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise DataError(f"{name} must be an integer >= 1, got {value!r}")
        if self.model_dim % self.heads != 0:
            raise DataError("model_dim must be divisible by heads")
        if not 0.0 <= self.dropout < 1.0:
            raise DataError("dropout must be in [0, 1)")


class EncoderModel:
    """Trunk + head parameters, one per `_param_specs` row, each also an
    attribute (`model.tok_emb`, `model.blocks[i].wq`). They are drawn from
    default_rng(config.seed) in table order, or adopted from `arrays`, which
    maps every table name to a float64 array of the table's shape."""

    def __init__(self, config, vocab_size, arrays=None):
        self.config, self.vocab_size = config, vocab_size
        self.blocks = [SimpleNamespace() for _ in range(config.layers)]
        self._params = {}
        rng = np.random.default_rng(config.seed)
        for name, shape, init in _param_specs(config, vocab_size):
            data = _draw(rng, shape, init) if arrays is None else arrays[name]
            param = self._params[name] = nm.Tensor(data, requires_grad=True)
            block, _, field = name.rpartition(".")
            setattr(self.blocks[int(block.removeprefix("block"))] if block else self, field, param)
        self._dropout_rng = np.random.default_rng(config.seed + 1)

    def named_parameters(self):
        return dict(self._params)

    def parameters(self):
        return list(self._params.values())

    def copy(self):
        """Deep copy with independent parameter arrays and dropout stream."""
        return EncoderModel(self.config, self.vocab_size,
                            {name: p.data.copy() for name, p in self._params.items()})


def _param_specs(config, vocab_size):
    """(name, shape, init) of every parameter; the init rng draws the normal rows in order.

    init is "ones", "zeros", "eye" or a zero-mean normal draw: "embed" at std 1/sqrt(d) so
    token identity survives the first norm, "xavier" at sqrt(2/(fan_in+fan_out)) of the
    shape. The first block's query/key maps start as the identity, which biases early
    attention toward token-identity matching; without that head start the premise-
    hypothesis matching circuit takes far longer to form at this width.
    """
    d, ff = config.model_dim, config.ff_dim
    yield "tok_emb", (vocab_size, d), "embed"
    yield "pos_emb", (config.max_len, d), "embed"
    for i in range(config.layers):
        qk = "eye" if i == 0 else "xavier"
        for name, shape, init in (
                ("ln1_g", (d,), "ones"), ("ln1_b", (d,), "zeros"),
                ("wq", (d, d), qk), ("bq", (d,), "zeros"),
                ("wk", (d, d), qk), ("bk", (d,), "zeros"),
                ("wv", (d, d), "xavier"), ("bv", (d,), "zeros"),
                ("wo", (d, d), "xavier"), ("bo", (d,), "zeros"),
                ("ln2_g", (d,), "ones"), ("ln2_b", (d,), "zeros"),
                ("w1", (d, ff), "xavier"), ("b1", (ff,), "zeros"),
                ("w2", (ff, d), "xavier"), ("b2", (d,), "zeros")):
            yield f"block{i}.{name}", shape, init
    yield from (("final_g", (d,), "ones"), ("final_b", (d,), "zeros"),
                ("cls_w", (d, 2), "xavier"), ("cls_b", (2,), "zeros"),
                ("scorer_w1", (d, d), "xavier"), ("scorer_b1", (d,), "zeros"),
                ("scorer_w2", (d, 1), "xavier"), ("scorer_b2", (1,), "zeros"))


def _draw(rng, shape, init):
    if init == "ones":
        return np.ones(shape)
    if init == "zeros":
        return np.zeros(shape)
    if init == "eye":
        return np.eye(shape[0])
    if init == "xavier":
        return rng.normal(0.0, math.sqrt(2.0 / sum(shape)), shape)
    return rng.normal(0.0, 1.0 / math.sqrt(shape[1]), shape)


# ---------------------------------------------------------------------------
# the forward: one [batch x seq] matrix of same-length sequences per call.
# Attention never crosses sequence boundaries and every norm is per-token, so
# each row's result is what a one-row batch gives (dropout draws aside).
# Desk-scale matrices are overhead-bound, so one fused call over a group is an
# order of magnitude faster than a loop; fused_groups forms those groups.
# In train mode a block records 11 tape nodes: layer_norm, attention (q/k/v
# maps, softmax and head merge in one node), linear (output map), dropout,
# add, layer_norm, linear, gelu, linear, dropout, add. Eval mode records none.
# ---------------------------------------------------------------------------


def encode_batch(model, ids_matrix, train_mode=False):
    """Representations for a [batch x seq] id matrix, flattened to
    [batch*seq x model_dim]; sequence g's token t sits at row g*seq + t."""
    cfg = model.config
    ids = np.asarray(ids_matrix, dtype=np.int64)
    if ids.ndim != 2 or ids.size == 0:
        raise ShapeError("ids must be a non-empty 2-D [batch x seq] matrix")
    batch, seq_len = ids.shape
    if seq_len > cfg.max_len:
        raise LayoutError(f"sequence length {seq_len} exceeds max_len {cfg.max_len}")
    if ids.min() < 0 or ids.max() >= model.vocab_size:
        raise DataError("token id out of vocabulary range")

    p = cfg.dropout if train_mode else 0.0
    rng = model._dropout_rng
    x = nm.embedding(model.tok_emb, ids.reshape(-1))
    if cfg.use_positions:
        x = nm.add(x, nm.embedding(model.pos_emb, np.tile(np.arange(seq_len), batch)))
    x = nm.dropout(x, p, rng)
    for blk in model.blocks:
        h = nm.layer_norm(x, blk.ln1_g, blk.ln1_b)
        ctx = nm.attention(h, blk.wq, blk.bq, blk.wk, blk.bk, blk.wv, blk.bv,
                           cfg.heads, batch, seq_len)
        attn = nm.linear(ctx, blk.wo, blk.bo)
        x = nm.add(x, nm.dropout(attn, p, rng))
        h = nm.layer_norm(x, blk.ln2_g, blk.ln2_b)
        ff = nm.linear(nm.gelu(nm.linear(h, blk.w1, blk.b1)), blk.w2, blk.b2)
        x = nm.add(x, nm.dropout(ff, p, rng))
    return nm.layer_norm(x, model.final_g, model.final_b)


def classify_pairs_batch(model, reps_flat, batch, seq_len):
    """[batch x 2] probabilities; row g reads sequence g's [CLS] row."""
    cls_rows = nm.embedding(reps_flat, np.arange(batch) * seq_len)
    logits = nm.linear(cls_rows, model.cls_w, model.cls_b)
    return nm.softmax(logits)


def _validate_spans(spans, seq_len):
    if not spans:
        raise ShapeError("need at least one span")
    prev_end = -1
    for start, end in sorted(spans):
        if start >= end:
            raise ShapeError(f"empty span [{start},{end})")
        if start < prev_end:
            raise ShapeError("spans overlap")
        if end > seq_len:
            raise ShapeError(f"span [{start},{end}) exceeds sequence length {seq_len}")
        prev_end = end


def score_options_batch(model, reps_flat, batch, seq_len, spans):
    """[batch x k] span scores; the span layout is shared across the batch."""
    _validate_spans(spans, seq_len)
    k = len(spans)
    d = model.config.model_dim
    pool = np.zeros((len(spans), seq_len))
    for i, (s, e) in enumerate(spans):
        pool[i, s:e] = 1.0 / (e - s)
    pool3 = nm.Tensor(np.broadcast_to(pool, (batch, k, seq_len)).copy())
    reps3 = nm.reshape(reps_flat, (batch, seq_len, d))
    pooled = nm.reshape(nm.matmul(pool3, reps3), (batch * k, d))
    h = nm.gelu(nm.linear(pooled, model.scorer_w1, model.scorer_b1))
    logits = nm.linear(h, model.scorer_w2, model.scorer_b2)
    return nm.sigmoid(nm.reshape(logits, (batch, k)))


def fused_groups(id_lists, keys=None):
    """Exact-shape groups of id sequences: [(positions, id_matrix)] in sorted key order.

    Sequences sharing a key (default: their length) stack into one
    [group x seq] matrix, so every key must imply one length; positions
    index id_lists in input order. Layout only: callers run encode_batch
    and their head on each group.
    """
    if keys is None:
        keys = [len(ids) for ids in id_lists]
    groups = {}
    for pos, key in enumerate(keys):
        groups.setdefault(key, []).append(pos)
    return [(groups[key], np.array([id_lists[p] for p in groups[key]], dtype=np.int64))
            for key in sorted(groups)]


def bi_encode_rows(model, id_lists, train_mode=False):
    """[n x model_dim] unit rows, row i the L2-normalized mean of all token
    representations of sequence i. Sequences are fused by length group; the
    groups are joined, put back in input order and normalized as one matrix.
    """
    if not id_lists:
        raise ShapeError("need at least one id sequence")
    d = model.config.model_dim
    pooled, order = [], []
    for members, ids in fused_groups(id_lists):
        batch, length = ids.shape
        reps = encode_batch(model, ids, train_mode=train_mode)
        pool = nm.Tensor(np.full((batch, 1, length), 1.0 / length))
        mean = nm.matmul(pool, nm.reshape(reps, (batch, length, d)))
        pooled.append(nm.reshape(mean, (batch, d)))
        order.extend(members)
    return nm.l2_normalize(nm.embedding(nm.concat(pooled), np.argsort(order)))


# ---------------------------------------------------------------------------
# checkpoint format: magic, version, config JSON, named float64 arrays
# ---------------------------------------------------------------------------


def save_model(model, path):
    params = model.named_parameters()
    header = {"config": asdict(model.config), "vocab_size": model.vocab_size}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path, binary=True) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            arr = np.ascontiguousarray(params[name].data, dtype=np.float64)
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}q", *arr.shape))
            fh.write(arr.tobytes())


class _Cursor:
    """Bounds-checked reads over a checkpoint held whole in memory."""

    def __init__(self, buf):
        self.buf, self.pos = memoryview(buf), 0

    def take(self, n):
        end = self.pos + n
        if end > len(self.buf):
            raise DataError("truncated")
        chunk = self.buf[self.pos:end]
        self.pos = end
        return chunk

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n):
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError as exc:
            raise DataError("bad UTF-8 text") from exc


def _parse_checkpoint(buf):
    cur = _Cursor(buf)
    if cur.take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise DataError("not an encoder checkpoint")
    version, blob_len = cur.unpack("<II")
    if version != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    blob = cur.text(blob_len)
    try:
        header = json.loads(blob)
        config, vocab_size = EncoderConfig(**header["config"]), header["vocab_size"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad header ({exc})") from exc
    if type(vocab_size) is not int or vocab_size < 1:
        raise DataError(f"bad header (vocab_size must be an integer >= 1, got {vocab_size!r})")
    # sizes first: a crafted header is refused before any parameter is read, and
    # the running total stops the table walk once it passes the bytes that follow
    need, rest, shapes = 0, len(buf) - cur.pos, {}
    for name, shape, _ in _param_specs(config, vocab_size):
        need += 8 * math.prod(shape)
        if need > rest:
            raise DataError(f"header implies more than the {rest} bytes of parameters that follow")
        shapes[name] = shape
    (n_params,) = cur.unpack("<I")
    arrays = {}
    for _ in range(n_params):
        (name_len,) = cur.unpack("<I")
        name = cur.text(name_len)
        (ndim,) = cur.unpack("<I")
        shape = cur.unpack(f"<{ndim}q")
        if name not in shapes:
            raise DataError(f"unknown parameter {name!r}")
        if name in arrays:
            raise DataError(f"duplicate parameter {name!r}")
        if shapes[name] != shape:
            raise DataError(f"shape mismatch for {name!r}")
        raw = cur.take(8 * math.prod(shape))
        arrays[name] = np.frombuffer(raw, dtype=np.float64).reshape(shape).copy()
    missing = sorted(set(shapes) - set(arrays))
    if missing:
        raise DataError(f"missing parameters {missing}")
    if cur.pos != len(buf):
        raise DataError(f"{len(buf) - cur.pos} trailing bytes")
    return EncoderModel(config, vocab_size, arrays)


def load_model(path):
    """Read a checkpoint in one read and parse it whole.

    A truncated file, a missing, unknown or duplicate parameter, or bytes
    past the last parameter raise DataError naming the file; no partly
    loaded model is ever returned.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    try:
        return _parse_checkpoint(buf)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
