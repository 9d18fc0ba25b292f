"""Losses, Adam, epoch loops for the three paradigms, and dev-set selection.

Training is deterministic given (config.seed, model seed): every random
choice flows through one np.random.Generator in a fixed order. Context mode
with k=0 consumes the generator identically to te mode, so their loss
sequences match exactly (an invariant the tests pin down).
"""

import dataclasses
import math
import time

import numpy as np

from . import numerics as nm
from .encoder import classify_pairs_batch, encode_batch, score_options_batch, save_model
from .errors import DataError, NumericError, ShapeError
from .inference import (ParadigmConfig, evaluate, example_averaged_prf,
                        score_pairwise, score_parallel, select_multi)
from .pairing import make_context_pair, make_parallel_pair, make_te_pair, shuffle_augment

EPS = 1e-12

THRESHOLD_GRID = tuple(i / 100 for i in range(1, 100))


def ce_loss(probs, label):
    """−log p(label) for a 2-way (entail, non-entail) distribution."""
    if probs.shape != (2,):
        raise ShapeError(f"expected 2-way probabilities, got shape {probs.shape}")
    if abs(float(np.sum(probs.data)) - 1.0) > 1e-6:
        raise DataError("probabilities must sum to 1")
    onehot = np.array([1.0, 0.0]) if label else np.array([0.0, 1.0])
    picked = nm.tsum(nm.mul(probs, nm.Tensor(onehot)))
    return nm.neg(nm.log(picked, floor=EPS))


def bce_loss(scores, labels):
    """Mean binary cross entropy of k sigmoid scores against boolean labels."""
    if scores.ndim != 1 or scores.size < 1:
        raise ShapeError("scores must be a nonempty vector")
    if scores.size != len(labels):
        raise ShapeError(f"{scores.size} scores vs {len(labels)} labels")
    y = np.array([1.0 if b else 0.0 for b in labels])
    pos = nm.mul(nm.log(scores, floor=EPS), nm.Tensor(y))
    neg = nm.mul(nm.log(nm.add_scalar(nm.neg(scores), 1.0), floor=EPS), nm.Tensor(1.0 - y))
    return nm.mul_scalar(nm.tsum(nm.add(pos, neg)), -1.0 / scores.size)


class Adam:
    """Adaptive-moment optimizer with linear warmup and linear decay.

    After the warmup ramp the rate decays linearly to final_fraction * lr at
    total_steps; without total_steps it stays constant. The decay tail keeps
    dropout-era training from bouncing around the optimum late in a run.
    """

    def __init__(self, params, lr=3e-4, betas=(0.9, 0.999), eps=1e-8,
                 warmup_steps=0, total_steps=None, final_fraction=0.1):
        self.params = list(params)
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps
        self.final_fraction = final_fraction
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def current_lr(self):
        if self.warmup_steps > 0 and self._t < self.warmup_steps:
            return self.lr * self._t / self.warmup_steps
        if self.total_steps is None or self.total_steps <= self.warmup_steps:
            return self.lr
        span = self.total_steps - self.warmup_steps
        progress = min(1.0, (self._t - self.warmup_steps) / span)
        return self.lr * (1.0 - (1.0 - self.final_fraction) * progress)

    def step(self):
        self._t += 1
        lr_t = self.current_lr()
        b1, b2 = self.betas
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            mhat = m / (1.0 - b1 ** self._t)
            vhat = v / (1.0 - b2 ** self._t)
            p.data -= lr_t * mhat / (np.sqrt(vhat) + self.eps)


@dataclasses.dataclass
class TrainConfig:
    mode: str  # te | context | parallel
    k: int = 0
    epochs: int = 5
    batch_size: int = 16
    learning_rate: float = 3e-4
    seed: int = 0
    augment: bool = False
    negative_ratio: float = 1.0
    rank_fill: bool = False  # fill parallel slots in pool order instead of sampling
    early_stop: float = None  # stop once the dev metric reaches this value

    def __post_init__(self):
        if self.mode not in ("te", "context", "parallel"):
            raise DataError(f"unknown training mode {self.mode!r}")
        if self.augment and self.mode != "parallel":
            raise DataError("shuffle augmentation only applies to parallel mode")
        if self.k < 0:
            raise DataError("k must be >= 0")
        if self.epochs < 1:
            raise DataError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise DataError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.mode == "parallel" and self.k < 1:
            raise DataError("parallel mode needs k >= 1")
        if self.negative_ratio <= 0:
            raise DataError("negative_ratio must be positive")


@dataclasses.dataclass
class TrainReport:
    losses: list  # one entry per optimizer step
    dev_metrics: list  # one entry per epoch, empty without a dev set
    epoch_seconds: list
    checkpoint_path: str = None


def _instance_pool(instance, space, candidates):
    if candidates is not None:
        return list(candidates[instance.id])
    return list(range(len(space)))


def _epoch_pairs(instances, space, config, candidates, rng):
    """(instance, option, label) triples: all golds plus sampled negatives."""
    examples = []
    for inst in instances:
        pool = _instance_pool(inst, space, candidates)
        golds = sorted(inst.gold)
        neg_pool = [o for o in pool if o not in inst.gold]
        if not neg_pool:
            raise DataError(f"no negative options in the pool for instance {inst.id!r}")
        n_neg = min(len(neg_pool), max(1, round(len(golds) * config.negative_ratio)))
        picked = rng.choice(len(neg_pool), size=n_neg, replace=False)
        examples.extend((inst, g, True) for g in golds)
        examples.extend((inst, neg_pool[int(j)], False) for j in picked)
    order = rng.permutation(len(examples))
    return [examples[int(i)] for i in order]


def _epoch_parallel(instances, space, config, candidates, rng, vocab, max_len):
    """One k-option layout per instance (or an augmented group of them).

    Gold options always make it into the training layout; the remaining
    slots come from the non-gold pool, sampled uniformly unless rank_fill
    keeps the pool's own (retrieval rank) order.
    """
    layouts = []
    for inst in instances:
        pool = _instance_pool(inst, space, candidates)
        golds = sorted(inst.gold)
        if not golds:
            raise DataError(f"instance {inst.id!r} has no gold options")
        if len(golds) > config.k:
            pick = sorted(int(i) for i in rng.choice(len(golds), size=config.k, replace=False))
            keep = [golds[i] for i in pick]
        else:
            keep = golds
        fill_pool = [o for o in pool if o not in inst.gold]
        n_fill = min(config.k - len(keep), len(fill_pool))
        if config.rank_fill:
            fills = fill_pool[:n_fill]
        else:
            idx = rng.choice(len(fill_pool), size=n_fill, replace=False) if n_fill else []
            fills = [fill_pool[int(i)] for i in idx]
        opts = keep + fills
        if config.augment:
            if len(keep) != 1:
                raise DataError("shuffle augmentation needs exactly one gold per layout")
            layouts.extend(shuffle_augment(inst, opts, len(opts), rng, space, vocab, max_len))
        else:
            perm = rng.permutation(len(opts))
            layouts.append(make_parallel_pair(inst, [opts[int(i)] for i in perm],
                                              space, vocab, max_len))
    order = rng.permutation(len(layouts))
    return [layouts[int(i)] for i in order]


def _count_epoch_examples(instances, space, config, candidates):
    # mirrors the sampling arithmetic above without consuming the rng
    total = 0
    for inst in instances:
        pool = _instance_pool(inst, space, candidates)
        golds = len(inst.gold)
        if config.mode == "parallel":
            keep = min(golds, config.k)
            n_opts = keep + min(config.k - keep, len([o for o in pool if o not in inst.gold]))
            total += n_opts if config.augment else 1
        else:
            neg = len([o for o in pool if o not in inst.gold])
            total += golds + min(neg, max(1, round(golds * config.negative_ratio)))
    return total


def _pair_layout(inst, option, config, pool, rng, space, vocab, max_len):
    if config.mode == "context" and config.k > 0:
        # competing contexts are non-gold rivals: a gold option showing up as
        # context inside a negative layout would force the encoder to learn
        # position-sensitive matching before it can learn matching at all.
        # The context count is resampled per layout from {0..k} so training
        # also covers the bare (P,H) layouts used at inference time.
        ctx_pool = [o for o in pool if o != option and o not in inst.gold]
        k_eff = min(int(rng.integers(0, config.k + 1)), len(ctx_pool))
        return make_context_pair(inst, option, ctx_pool, k_eff, rng, space, vocab, max_len)
    return make_te_pair(inst, option, space, vocab, max_len)


def _pair_batch_loss(model, pairs):
    """Mean ce_loss over (layout, label) pairs, fused by sequence length."""
    groups = {}
    for lay, label in pairs:
        groups.setdefault(len(lay.ids), []).append((lay, label))
    total = None
    for length in sorted(groups):
        members = groups[length]
        ids = np.array([lay.ids for lay, _ in members], dtype=np.int64)
        reps = encode_batch(model, ids, train_mode=True)
        probs = classify_pairs_batch(model, reps, len(members), length)
        onehot = np.array([[1.0, 0.0] if lab else [0.0, 1.0] for _, lab in members])
        nll = nm.neg(nm.tsum(nm.mul(nm.log(probs, floor=EPS), nm.Tensor(onehot))))
        total = nll if total is None else nm.add(total, nll)
    return nm.mul_scalar(total, 1.0 / len(pairs))


def _parallel_batch_loss(model, layouts):
    """Mean per-layout bce_loss, fused by (length, span structure)."""
    groups = {}
    for lay in layouts:
        groups.setdefault((len(lay.ids), lay.option_spans), []).append(lay)
    total = None
    for key in sorted(groups):
        length, spans = key
        members = groups[key]
        ids = np.array([lay.ids for lay in members], dtype=np.int64)
        reps = encode_batch(model, ids, train_mode=True)
        smat = score_options_batch(model, reps, len(members), length, spans)
        labels = [lab for lay in members for lab in lay.labels]
        gloss = nm.mul_scalar(bce_loss(nm.reshape(smat, (smat.size,)), labels),
                              len(members) / len(layouts))
        total = gloss if total is None else nm.add(total, gloss)
    return total


def train(model, dataset, space, vocab, config, dev=None, candidates=None,
          dev_candidates=None, multi_label=False, checkpoint_path=None):
    """Run the configured paradigm's epoch loop; returns the loss/metric trace.

    `candidates` optionally maps instance id to a retrieved option pool
    (used for negatives, competing contexts, and parallel slot filling);
    without it the full option space is the pool.
    """
    if not dataset:
        raise DataError("training dataset is empty")
    rng = np.random.default_rng(config.seed)
    max_len = model.config.max_len
    per_epoch = _count_epoch_examples(dataset, space, config, candidates)
    steps_per_epoch = math.ceil(per_epoch / config.batch_size)
    total_steps = config.epochs * steps_per_epoch
    opt = Adam(model.parameters(), lr=config.learning_rate,
               warmup_steps=max(1, math.ceil(0.05 * total_steps)),
               total_steps=total_steps)
    losses, dev_metrics, epoch_seconds = [], [], []
    for _epoch in range(config.epochs):
        t0 = time.perf_counter()
        if config.mode == "parallel":
            epoch_items = _epoch_parallel(dataset, space, config, candidates, rng, vocab, max_len)
        else:
            epoch_items = _epoch_pairs(dataset, space, config, candidates, rng)
        for start in range(0, len(epoch_items), config.batch_size):
            batch = epoch_items[start:start + config.batch_size]
            opt.zero_grad()
            if config.mode != "parallel":
                # layout construction consumes the rng; keep it in batch order
                batch = [(_pair_layout(inst, option, config,
                                       _instance_pool(inst, space, candidates),
                                       rng, space, vocab, max_len), label)
                         for inst, option, label in batch]
            with nm.ComputeGraph():
                if config.mode == "parallel":
                    total = _parallel_batch_loss(model, batch)
                else:
                    total = _pair_batch_loss(model, batch)
                nm.backward(total)
            value = total.item()
            if not math.isfinite(value):
                raise NumericError(f"non-finite training loss at step {len(losses)}")
            losses.append(value)
            opt.step()
        epoch_seconds.append(time.perf_counter() - t0)
        if dev is not None:
            cfg = ParadigmConfig(mode=config.mode,
                                 k=config.k if config.mode == "parallel" else None,
                                 candidates=dev_candidates)
            res = evaluate(model, dev, space, vocab, cfg, multi_label=multi_label)
            metric = res.metrics["f1" if multi_label else "accuracy"]
            dev_metrics.append(metric)
            if config.early_stop is not None and metric >= config.early_stop:
                break
    if checkpoint_path is not None:
        save_model(model, checkpoint_path)
    return TrainReport(losses=losses, dev_metrics=dev_metrics,
                       epoch_seconds=epoch_seconds, checkpoint_path=checkpoint_path)


def scan_threshold(per_instance_scores, golds):
    """Exhaustive grid scan; returns (tau, f1) with ties going to larger tau."""
    best_tau, best_f1 = None, -1.0
    for tau in THRESHOLD_GRID:
        preds = [[so.index for so in scored if so.score > tau]
                 for scored in per_instance_scores]
        _, _, f1 = example_averaged_prf(preds, golds)
        if f1 >= best_f1:
            best_tau, best_f1 = tau, f1
    return best_tau, best_f1


def calibrate_threshold(model, dev, space, vocab, mode, k=None, candidates=None):
    """Pick the multi-label threshold maximizing example-averaged F1 on dev."""
    if not dev:
        raise DataError("threshold calibration needs a nonempty dev set")
    per_instance, golds = [], []
    for inst in dev:
        options = _instance_pool(inst, space, candidates)
        if mode == "parallel":
            scored, _ = score_parallel(model, inst, options, k, space, vocab)
        else:
            scored, _ = score_pairwise(model, inst, options, mode, space, vocab)
        per_instance.append(scored)
        golds.append(sorted(inst.gold))
    tau, _ = scan_threshold(per_instance, golds)
    return tau


def select_k(model_factory, dev, space, vocab, candidate_ks, multi_label=False):
    """Evaluate model_factory(k) -> (model, ParadigmConfig) per k on dev.

    Returns (best_k, curve) where curve lists (k, dev metric) in input
    order; metric ties go to the smaller (cheaper) k.
    """
    if not candidate_ks:
        raise DataError("candidate_ks must be nonempty")
    curve = []
    for k in candidate_ks:
        model, cfg = model_factory(k)
        res = evaluate(model, dev, space, vocab, cfg, multi_label=multi_label)
        curve.append((k, res.metrics["f1" if multi_label else "accuracy"]))
    best_k = max(curve, key=lambda kv: (kv[1], -kv[0]))[0]
    return best_k, curve


def write_loss_csv(path, report):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,loss\n")
        for i, loss in enumerate(report.losses):
            fh.write(f"{i},{loss:.10g}\n")


def write_manifest(path, config, extra=None):
    """Flat key=value run manifest; keys sorted for reproducible bytes."""
    fields = dataclasses.asdict(config)
    if extra:
        fields.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(fields):
            fh.write(f"{key}={fields[key]}\n")
