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

import numpy as np

from . import numerics as nm
from .errors import DataError, LayoutError, ShapeError

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
        if self.layers < 1 or self.heads < 1:
            raise DataError("layers and heads must be >= 1")
        if self.model_dim % self.heads != 0:
            raise DataError("model_dim must be divisible by heads")
        if not 0.0 <= self.dropout < 1.0:
            raise DataError("dropout must be in [0, 1)")


class _LayerParams:
    """Attention + feed-forward parameters of one encoder block.

    Weight matrices use Xavier-scale noise. The first block's query/key maps
    start as the identity, which biases early attention toward token-identity
    matching; without that head start the premise-hypothesis matching circuit
    takes far longer to form from scratch at this width.
    """

    FIELDS = ("ln1_g", "ln1_b", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
              "ln2_g", "ln2_b", "w1", "b1", "w2", "b2")

    def __init__(self, rng, d, ff, identity_qk=False):
        self.ln1_g = _param(np.ones(d))
        self.ln1_b = _param(np.zeros(d))
        if identity_qk:
            self.wq = _param(np.eye(d))
            self.wk = _param(np.eye(d))
        else:
            self.wq = _param(_xavier(rng, d, d))
            self.wk = _param(_xavier(rng, d, d))
        self.bq = _param(np.zeros(d))
        self.bk = _param(np.zeros(d))
        self.wv = _param(_xavier(rng, d, d))
        self.bv = _param(np.zeros(d))
        self.wo = _param(_xavier(rng, d, d))
        self.bo = _param(np.zeros(d))
        self.ln2_g = _param(np.ones(d))
        self.ln2_b = _param(np.zeros(d))
        self.w1 = _param(_xavier(rng, d, ff))
        self.b1 = _param(np.zeros(ff))
        self.w2 = _param(_xavier(rng, ff, d))
        self.b2 = _param(np.zeros(d))


def _param(arr):
    return nm.Tensor(arr, requires_grad=True)


def _xavier(rng, fan_in, fan_out):
    return rng.normal(0.0, math.sqrt(2.0 / (fan_in + fan_out)), (fan_in, fan_out))


class _NoDraws:
    """Stands in for the init rng when every drawn parameter is overwritten next."""

    @staticmethod
    def normal(_loc, _scale, size):
        return np.empty(size)


class EncoderModel:
    """Trunk + head parameters; deterministic for a given (config, vocab_size)."""

    def __init__(self, config, vocab_size):
        self._build(config, vocab_size, np.random.default_rng(config.seed))

    def _build(self, config, vocab_size, rng):
        self.config = config
        self.vocab_size = vocab_size
        d, ff = config.model_dim, config.ff_dim
        # embeddings at 1/sqrt(d) so token identity survives the first norm
        self.tok_emb = _param(rng.normal(0, 1.0 / math.sqrt(d), (vocab_size, d)))
        self.pos_emb = _param(rng.normal(0, 1.0 / math.sqrt(d), (config.max_len, d)))
        self.blocks = [_LayerParams(rng, d, ff, identity_qk=(i == 0))
                       for i in range(config.layers)]
        self.final_g = _param(np.ones(d))
        self.final_b = _param(np.zeros(d))
        self.cls_w = _param(_xavier(rng, d, 2))
        self.cls_b = _param(np.zeros(2))
        self.scorer_w1 = _param(_xavier(rng, d, d))
        self.scorer_b1 = _param(np.zeros(d))
        self.scorer_w2 = _param(_xavier(rng, d, 1))
        self.scorer_b2 = _param(np.zeros(1))
        self._dropout_rng = np.random.default_rng(config.seed + 1)

    def named_parameters(self):
        params = {"tok_emb": self.tok_emb, "pos_emb": self.pos_emb,
                  "final_g": self.final_g, "final_b": self.final_b,
                  "cls_w": self.cls_w, "cls_b": self.cls_b,
                  "scorer_w1": self.scorer_w1, "scorer_b1": self.scorer_b1,
                  "scorer_w2": self.scorer_w2, "scorer_b2": self.scorer_b2}
        for i, blk in enumerate(self.blocks):
            for name in _LayerParams.FIELDS:
                params[f"block{i}.{name}"] = getattr(blk, name)
        return params

    def parameters(self):
        return list(self.named_parameters().values())

    def copy(self):
        """Deep copy with independent parameter arrays and dropout stream."""
        clone = _unfilled(self.config, self.vocab_size)
        for name, p in clone.named_parameters().items():
            p.data[...] = self.named_parameters()[name].data
        return clone


def _unfilled(config, vocab_size):
    """A model whose drawn parameters are left uninitialised, for callers that
    overwrite every parameter before handing the model out (copy, load)."""
    model = EncoderModel.__new__(EncoderModel)
    model._build(config, vocab_size, _NoDraws())
    return model


# ---------------------------------------------------------------------------
# the forward: one [batch x seq] matrix of same-length sequences per call.
# Attention never crosses sequence boundaries and every norm is per-token, so
# each row's result is what a one-row batch gives (dropout draws aside).
# Desk-scale matrices are overhead-bound, so one fused call over a group is an
# order of magnitude faster than a loop; fused_groups forms those groups.
# ---------------------------------------------------------------------------


def _attention_batch(blk, x, heads, batch, seq_len):
    d = x.shape[-1]
    dh = d // heads
    q = nm.add(nm.matmul(x, blk.wq), blk.bq)
    k = nm.add(nm.matmul(x, blk.wk), blk.bk)
    v = nm.add(nm.matmul(x, blk.wv), blk.bv)
    qh = nm.transpose(nm.reshape(q, (batch, seq_len, heads, dh)), (0, 2, 1, 3))
    kt = nm.transpose(nm.reshape(k, (batch, seq_len, heads, dh)), (0, 2, 3, 1))
    vh = nm.transpose(nm.reshape(v, (batch, seq_len, heads, dh)), (0, 2, 1, 3))
    scores = nm.mul_scalar(nm.matmul(qh, kt), 1.0 / math.sqrt(dh))
    probs = nm.softmax(scores, axis=-1)
    ctx = nm.reshape(nm.transpose(nm.matmul(probs, vh), (0, 2, 1, 3)),
                     (batch * seq_len, d))
    return nm.add(nm.matmul(ctx, blk.wo), blk.bo)


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
    if p > 0.0:
        x = nm.dropout(x, p, rng)
    for blk in model.blocks:
        h = nm.layer_norm(x, blk.ln1_g, blk.ln1_b)
        attn = _attention_batch(blk, h, cfg.heads, batch, seq_len)
        if p > 0.0:
            attn = nm.dropout(attn, p, rng)
        x = nm.add(x, attn)
        h = nm.layer_norm(x, blk.ln2_g, blk.ln2_b)
        ff = nm.add(nm.matmul(nm.gelu(nm.add(nm.matmul(h, blk.w1), blk.b1)), blk.w2), blk.b2)
        if p > 0.0:
            ff = nm.dropout(ff, p, rng)
        x = nm.add(x, ff)
    return nm.layer_norm(x, model.final_g, model.final_b)


def classify_pairs_batch(model, reps_flat, batch, seq_len):
    """[batch x 2] probabilities; row g reads sequence g's [CLS] row."""
    cls_rows = nm.embedding(reps_flat, np.arange(batch) * seq_len)
    logits = nm.add(nm.matmul(cls_rows, model.cls_w), model.cls_b)
    return nm.softmax(logits, axis=-1)


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
    h = nm.gelu(nm.add(nm.matmul(pooled, model.scorer_w1), model.scorer_b1))
    logits = nm.add(nm.matmul(h, model.scorer_w2), model.scorer_b2)
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
    with open(path, "wb") as fh:
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
        model = _unfilled(EncoderConfig(**header["config"]), header["vocab_size"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad header ({exc})") from exc
    params = model.named_parameters()
    (n_params,) = cur.unpack("<I")
    seen = set()
    for _ in range(n_params):
        (name_len,) = cur.unpack("<I")
        name = cur.text(name_len)
        (ndim,) = cur.unpack("<I")
        shape = cur.unpack(f"<{ndim}q")
        if name not in params:
            raise DataError(f"unknown parameter {name!r}")
        if name in seen:
            raise DataError(f"duplicate parameter {name!r}")
        if params[name].shape != shape:
            raise DataError(f"shape mismatch for {name!r}")
        seen.add(name)
        arr = np.frombuffer(cur.take(8 * params[name].size), dtype=np.float64)
        params[name].data[...] = arr.reshape(shape)
    missing = sorted(set(params) - seen)
    if missing:
        raise DataError(f"missing parameters {missing}")
    if cur.pos != len(buf):
        raise DataError(f"{len(buf) - cur.pos} trailing bytes")
    return model


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
