import math

import numpy as np
import pytest

from entsel.encoder import EncoderConfig, EncoderModel
from entsel.pairing import OptionSpace, SelectionInstance
from entsel.text import build_vocab
from entsel.workbench.synth import space_corpus

TINY = EncoderConfig(layers=2, heads=2, model_dim=8, ff_dim=16, max_len=64,
                     dropout=0.0, use_positions=True, seed=0)


def small_space(n=6, template="[LABEL]"):
    return OptionSpace(options=tuple(f"opt{i}x" for i in range(n)), template=template)


def small_instances(space, n=4, golds_per=1, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        gold = sorted(int(g) for g in rng.choice(len(space), size=golds_per, replace=False))
        words = [space.options[g] for g in gold] + ["filler"] * 3
        out.append(SelectionInstance(id=f"i{i}", premise=" ".join(words),
                                     gold=frozenset(gold)))
    return out


def vocab_for(space, instances):
    return build_vocab([inst.premise for inst in instances] + space_corpus(space))


@pytest.fixture(scope="session")
def tiny_setup():
    """Small space + instances + vocab + untrained tiny model, shared read-only."""
    space = small_space()
    instances = small_instances(space, n=6)
    vocab = vocab_for(space, instances)
    model = EncoderModel(TINY, len(vocab))
    return space, instances, vocab, model


# ---------------------------------------------------------------------------
# plain-numpy reference forward: one sequence at a time, a loop over heads,
# no Tensor and no tape. The batched path in entsel.encoder is tested
# against it.
# ---------------------------------------------------------------------------


def _ref_layer_norm(x, gain, bias, eps=1e-5):
    centred = x - x.mean(axis=-1, keepdims=True)
    var = (centred ** 2).mean(axis=-1, keepdims=True)
    return centred / np.sqrt(var + eps) * gain + bias


def _ref_gelu(z):
    return 0.5 * z * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (z + 0.044715 * z ** 3)))


def _ref_softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _ref_attention(blk, x, heads):
    q = x @ blk.wq.data + blk.bq.data
    k = x @ blk.wk.data + blk.bk.data
    v = x @ blk.wv.data + blk.bv.data
    dh = x.shape[1] // heads
    ctx = np.zeros_like(x)
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        probs = _ref_softmax(q[:, cols] @ k[:, cols].T / math.sqrt(dh))
        ctx[:, cols] = probs @ v[:, cols]
    return ctx @ blk.wo.data + blk.bo.data


def reference_encode(model, ids):
    """[len(ids) x model_dim] eval-mode token representations of one sequence."""
    ids = np.asarray(ids, dtype=np.int64)
    x = model.tok_emb.data[ids]
    if model.config.use_positions:
        x = x + model.pos_emb.data[np.arange(ids.size)]
    for blk in model.blocks:
        x = x + _ref_attention(blk, _ref_layer_norm(x, blk.ln1_g.data, blk.ln1_b.data),
                               model.config.heads)
        h = _ref_layer_norm(x, blk.ln2_g.data, blk.ln2_b.data)
        x = x + _ref_gelu(h @ blk.w1.data + blk.b1.data) @ blk.w2.data + blk.b2.data
    return _ref_layer_norm(x, model.final_g.data, model.final_b.data)


def reference_classify(model, reps):
    """(entail, non-entail) probabilities from row 0 of one sequence's reps."""
    return _ref_softmax(reps[0] @ model.cls_w.data + model.cls_b.data)


def reference_scores(model, reps, spans):
    """sigmoid(MLP(mean of rows [s, e))) per span."""
    pooled = np.stack([reps[s:e].mean(axis=0) for s, e in spans])
    h = _ref_gelu(pooled @ model.scorer_w1.data + model.scorer_b1.data)
    logits = (h @ model.scorer_w2.data + model.scorer_b2.data)[:, 0]
    return 1.0 / (1.0 + np.exp(-logits))


def reference_bi_encode(model, ids):
    """Unit-norm mean of one sequence's token representations."""
    pooled = reference_encode(model, ids).mean(axis=0)
    return pooled / np.linalg.norm(pooled)
