"""Bi-encoder candidate retrieval: exact cosine scan over option embeddings.

The index embeds every option once; queries reuse it. No approximate
structures, since option spaces stay small enough for a full scan.
Ranking rule: options by descending cosine score, ties to the smaller
option index. Top-k finds each query's k-th largest score with one
partition of the [queries x options] score matrix, then sorts only the
options scoring at least that much; at k == n (a full ranking) that is
every option of the row.
"""

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .encoder import bi_encode_rows
from .errors import DataError
from .pairing import verbalize
from .text import CLS_ID
from .training import Adam

EPS = 1e-12


@dataclass
class EmbeddingIndex:
    matrix: np.ndarray  # [n, model_dim], rows unit-norm, row i = option i

    def __post_init__(self):
        if self.matrix.ndim != 2 or self.matrix.shape[0] < 1:
            raise DataError("index matrix must be [n, model_dim] with n >= 1")
        norms = np.linalg.norm(self.matrix, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-6):
            raise DataError("index rows must be unit-norm")

    def __len__(self):
        return self.matrix.shape[0]


def option_text(space, option_index):
    """Text embedded for an option: entity-dependent templates use the bare label."""
    if "[ENTITY]" in space.template:
        return space.options[option_index]
    return verbalize(space, option_index)


def _text_ids(model, vocab, text):
    return [CLS_ID] + vocab.encode(text)[:model.config.max_len - 1]


def _embed_many(model, vocab, texts):
    """One unit-norm embedding row per text ([CLS] prepended, eval mode)."""
    return bi_encode_rows(model, [_text_ids(model, vocab, t) for t in texts]).data


def embed_text(model, vocab, text):
    """Unit-norm query embedding: one row of _embed_many."""
    return _embed_many(model, vocab, [text])[0]


def build_index(model, space, vocab):
    """Embed every option once; rebuilding with the same weights is bitwise stable."""
    if len(space) < 1:
        raise DataError("cannot index an empty option space")
    rows = _embed_many(model, vocab, [option_text(space, i) for i in range(len(space))])
    return EmbeddingIndex(matrix=rows)


def rank_all(index, model, vocab, instances):
    """Full option ranking per instance (one query embedding each)."""
    return retrieve_candidates(index, model, vocab, instances, len(index))


def recall_from_rankings(rankings, instances, k):
    hits = total = 0
    for inst in instances:
        prefix = set(rankings[inst.id][:k])
        for g in inst.gold:
            total += 1
            hits += int(g in prefix)
    return hits / total if total else 0.0


def retrieve_candidates(index, model, vocab, instances, k):
    """instance id -> top-k option indices, in rank order."""
    n = len(index)
    if not 1 <= k <= n:
        raise DataError(f"k must lie in [1, {n}], got {k}")
    scores = _embed_many(model, vocab, [inst.premise for inst in instances]) @ index.matrix.T
    kth = np.partition(scores, n - k, axis=1)[:, n - k]  # each row's k-th largest score
    pools = {}
    for inst, row, floor in zip(instances, scores, kth):
        # every option tied with the k-th score competes; a stable sort of
        # the ascending candidates by -score sends ties to the smaller index
        cand = np.flatnonzero(row >= floor)
        pools[inst.id] = cand[np.argsort(-row[cand], kind="stable")[:k]].tolist()
    return pools


def train_bi_encoder(model, dataset, space, vocab, epochs=3, batch_size=16,
                     lr=3e-4, temperature=0.1, seed=0):
    """In-batch contrastive fit: each premise against its gold option embeddings.

    Every (instance, gold option) pair becomes one training row, so a
    multi-gold premise is pulled toward each of its golds; the other rows in
    the batch act as negatives. Returns the per-step loss sequence.
    """
    if not dataset:
        raise DataError("bi-encoder training set is empty")
    if epochs < 1:
        raise DataError(f"bi-encoder epochs must be >= 1, got {epochs}")
    if batch_size < 2:
        raise DataError(f"bi-encoder batch_size must be >= 2, got {batch_size}")
    if temperature <= 0:
        raise DataError("temperature must be positive")
    pairs = [(inst, g) for inst in dataset for g in sorted(inst.gold)]
    if not pairs:
        raise DataError("bi-encoder training set has no gold options")
    rng = np.random.default_rng(seed)
    total_steps = epochs * max(1, len(pairs) // batch_size)
    opt = Adam(model.parameters(), lr=lr, warmup_steps=max(1, int(0.05 * total_steps)))
    losses = []
    for _epoch in range(epochs):
        order = rng.permutation(len(pairs))
        for start in range(0, len(order), batch_size):
            batch = [pairs[int(i)] for i in order[start:start + batch_size]]
            if len(batch) < 2:
                continue  # a single row has no in-batch negatives
            q_lists = [_text_ids(model, vocab, inst.premise) for inst, _ in batch]
            o_lists = [_text_ids(model, vocab, option_text(space, g)) for _, g in batch]
            opt.zero_grad()
            with nm.ComputeGraph():
                q_rows = bi_encode_rows(model, q_lists, train_mode=True)
                o_rows = bi_encode_rows(model, o_lists, train_mode=True)
                sims = nm.matmul(q_rows, nm.transpose(o_rows, (1, 0)))
                probs = nm.softmax(nm.mul_scalar(sims, 1.0 / temperature), axis=-1)
                eye = nm.Tensor(np.eye(len(batch)))
                diag = nm.tsum(nm.mul(nm.log(probs, floor=EPS), eye))
                loss = nm.mul_scalar(diag, -1.0 / len(batch))
                nm.backward(loss)
            losses.append(loss.item())
            opt.step()
    return losses
