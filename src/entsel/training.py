"""Losses, Adam, one optimizer step, the paradigms' epoch loop, threshold calibration.

Every fit (the three paradigms and the retrieval bi-encoder) steps through
`fit_step` and takes −log p through `nll`; each keeps its own epoch loop and
learning-rate schedule. Training is deterministic given (config.seed, model
seed): every random choice flows through one np.random.Generator, and only
the epoch builders draw from it, each epoch before its first step.
`_epoch_pairs` draws each instance's negatives, then the epoch permutation,
then (context mode with k > 0) one context count and context set per layout
in permuted order. `_epoch_parallel` draws each instance's gold subset, fill
options and slot order (or augmentation), then the epoch permutation.
Context mode with k=0 consumes the generator identically to te mode, so
their loss sequences match exactly (an invariant the tests pin down).
"""

import dataclasses
import math
import time

import numpy as np

from . import numerics as nm
# unused here since batch losses go through layout_heads; perfbench's tracer test
# still checks that this second binding of encode_batch is wrapped and restored
from .encoder import encode_batch  # noqa: F401
from .errors import DataError, NumericError, ShapeError
from .files import atomic_write
from .inference import (ParadigmConfig, evaluate, example_averaged_prf, layout_heads,
                        option_pool, score_instance, select_multi, write_csv)
from .pairing import make_context_pair, make_parallel_pair, make_te_pair, shuffle_augment

THRESHOLD_GRID = tuple(i / 100 for i in range(1, 100))


def nll(probs, targets):
    """Summed −log p over the entries of `probs` that the 0/1 array `targets` marks."""
    return nm.neg(nm.tsum(nm.mul(nm.log(probs), nm.Tensor(targets))))


def ce_loss(probs, labels):
    """Summed −log p(label) over the rows of [b x 2] (entail, non-entail) probabilities."""
    if probs.shape != (len(labels), 2):
        raise ShapeError(f"expected [{len(labels)} x 2] probabilities, got shape {probs.shape}")
    if np.abs(probs.data.sum(axis=1) - 1.0).max() > 1e-6:
        raise DataError("probabilities must sum to 1 in every row")
    return nll(probs, np.array([[1.0, 0.0] if label else [0.0, 1.0] for label in labels]))


def bce_loss(scores, labels):
    """Mean binary cross entropy of k sigmoid scores against boolean labels."""
    if scores.ndim != 1 or scores.size < 1:
        raise ShapeError("scores must be a nonempty vector")
    if scores.size != len(labels):
        raise ShapeError(f"{scores.size} scores vs {len(labels)} labels")
    y = np.array([1.0 if b else 0.0 for b in labels])
    pos = nm.mul(nm.log(scores), nm.Tensor(y))
    neg = nm.mul(nm.log(nm.add_scalar(nm.neg(scores), 1.0)), nm.Tensor(1.0 - y))
    return nm.mul_scalar(nm.tsum(nm.add(pos, neg)), -1.0 / scores.size)


class Adam:
    """Adaptive-moment optimizer with linear warmup and linear decay.

    After the warmup ramp the rate decays linearly to FINAL_FRACTION * lr at
    total_steps; without total_steps it stays constant. The decay tail keeps
    dropout-era training from bouncing around the optimum late in a run.
    """

    BETAS, EPS, FINAL_FRACTION = (0.9, 0.999), 1e-8, 0.1

    def __init__(self, params, lr=3e-4, warmup_steps=0, total_steps=None):
        self.params = list(params)
        self.lr = lr
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps
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
        return self.lr * (1.0 - (1.0 - self.FINAL_FRACTION) * progress)

    def step(self):
        self._t += 1
        lr_t = self.current_lr()
        b1, b2 = self.BETAS
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
            p.data -= lr_t * mhat / (np.sqrt(vhat) + self.EPS)


def fit_step(opt, model, batch_loss, batch, losses):
    """One Adam step on the scalar batch_loss(model, batch), appended to `losses`.

    A non-finite loss raises NumericError before any weight moves, naming the
    step and the first op on the tape whose output went non-finite."""
    opt.zero_grad()
    with nm.ComputeGraph() as graph:
        loss = batch_loss(model, batch)
        value = loss.item()
        if not math.isfinite(value):
            raise NumericError(f"non-finite training loss at step {len(losses)}, "
                               f"first from {graph.first_nonfinite()}")
        nm.backward(loss)
    losses.append(value)
    opt.step()


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
    early_stop: float = None  # stop once the dev metric reaches this value

    def __post_init__(self):
        # each message starts with the field it names: "field: reason"
        if self.mode not in ("te", "context", "parallel"):
            raise DataError(f"mode: unknown training mode {self.mode!r}")
        if self.augment and self.mode != "parallel":
            raise DataError("augment: shuffle augmentation only applies to parallel mode")
        if self.k < 0:
            raise DataError("k: must be >= 0")
        if self.epochs < 1:
            raise DataError(f"epochs: must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise DataError(f"batch_size: must be >= 1, got {self.batch_size}")
        if self.mode == "parallel" and self.k < 1:
            raise DataError("k: parallel mode needs k >= 1")
        if self.negative_ratio <= 0:
            raise DataError("negative_ratio: must be positive")


@dataclasses.dataclass
class TrainReport:
    losses: list  # one entry per optimizer step
    dev_metrics: list  # one entry per epoch, empty without a dev set
    epoch_seconds: list


def _epoch_pairs(instances, space, config, candidates, rng, vocab, max_len):
    """Shuffled pair layouts: all golds plus sampled negatives per instance."""
    examples = []
    for inst in instances:
        golds = sorted(inst.gold)
        neg_pool = [o for o in option_pool(inst, space, candidates) if o not in inst.gold]
        if not neg_pool:
            raise DataError(f"no negative options in the pool for instance {inst.id!r}")
        n_neg = min(len(neg_pool), max(1, round(len(golds) * config.negative_ratio)))
        picked = rng.choice(len(neg_pool), size=n_neg, replace=False)
        examples.extend((inst, g, neg_pool) for g in golds)
        examples.extend((inst, neg_pool[int(j)], neg_pool) for j in picked)
    layouts = []
    for i in rng.permutation(len(examples)):
        inst, option, neg_pool = examples[int(i)]
        if config.mode == "context" and config.k > 0:
            # competing contexts are non-gold rivals: a gold option showing up
            # as context inside a negative layout would force the encoder to
            # learn position-sensitive matching before it can learn matching
            # at all. The context count is resampled per layout from {0..k}
            # so training also covers the bare (P,H) layouts of inference.
            ctx_pool = [o for o in neg_pool if o != option]
            k_eff = min(int(rng.integers(0, config.k + 1)), len(ctx_pool))
            layouts.append(make_context_pair(inst, option, ctx_pool, k_eff, rng,
                                             space, vocab, max_len))
        else:
            layouts.append(make_te_pair(inst, option, space, vocab, max_len))
    return layouts


def _epoch_parallel(instances, space, config, candidates, rng, vocab, max_len):
    """One k-option layout per instance (or an augmented group of them).

    Gold options always make it into the training layout; the remaining
    slots are sampled uniformly from the non-gold pool.
    """
    layouts = []
    for inst in instances:
        golds = sorted(inst.gold)
        if not golds:
            raise DataError(f"instance {inst.id!r} has no gold options")
        if len(golds) > config.k:
            pick = sorted(int(i) for i in rng.choice(len(golds), size=config.k, replace=False))
            keep = [golds[i] for i in pick]
        else:
            keep = golds
        fill_pool = [o for o in option_pool(inst, space, candidates) if o not in inst.gold]
        n_fill = min(config.k - len(keep), len(fill_pool))
        idx = rng.choice(len(fill_pool), size=n_fill, replace=False) if n_fill else []
        fills = [fill_pool[int(i)] for i in idx]
        opts = keep + fills
        if config.augment:
            layouts.extend(shuffle_augment(inst, opts, len(opts), rng, space, vocab, max_len))
        else:
            perm = rng.permutation(len(opts))
            layouts.append(make_parallel_pair(inst, [opts[int(i)] for i in perm],
                                              space, vocab, max_len))
    order = rng.permutation(len(layouts))
    return [layouts[int(i)] for i in order]


def _pair_batch_loss(model, layouts):
    """Mean ce_loss of the layouts' one scored option."""
    total = None
    for members, probs in layout_heads(model, layouts, parallel=False, train_mode=True):
        loss = ce_loss(probs, [layouts[p].labels[0] for p in members])
        total = loss if total is None else nm.add(total, loss)
    return nm.mul_scalar(total, 1.0 / len(layouts))


def _parallel_batch_loss(model, layouts):
    """Mean per-layout bce_loss."""
    total = None
    for members, smat in layout_heads(model, layouts, parallel=True, train_mode=True):
        labels = [lab for p in members for lab in layouts[p].labels]
        gloss = nm.mul_scalar(bce_loss(nm.reshape(smat, (smat.size,)), labels),
                              len(members) / len(layouts))
        total = gloss if total is None else nm.add(total, gloss)
    return total


def train(model, dataset, space, vocab, config, dev=None, candidates=None,
          dev_candidates=None, multi_label=False):
    """Run the configured paradigm's epoch loop; returns the loss/metric trace.

    `candidates` optionally maps instance id to a retrieved option pool
    (used for negatives, competing contexts, and parallel slot filling);
    without it the full option space is the pool.
    """
    if not dataset:
        raise DataError("training dataset is empty")
    rng = np.random.default_rng(config.seed)
    if config.mode == "parallel":
        build_epoch, batch_loss = _epoch_parallel, _parallel_batch_loss
    else:
        build_epoch, batch_loss = _epoch_pairs, _pair_batch_loss
    opt = None
    losses, dev_metrics, epoch_seconds = [], [], []
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        layouts = build_epoch(dataset, space, config, candidates, rng, vocab,
                              model.config.max_len)
        if opt is None:  # every epoch has epoch 0's size; Adam draws nothing from rng
            total_steps = config.epochs * math.ceil(len(layouts) / config.batch_size)
            opt = Adam(model.parameters(), lr=config.learning_rate,
                       warmup_steps=max(1, math.ceil(0.05 * total_steps)),
                       total_steps=total_steps)
        for start in range(0, len(layouts), config.batch_size):
            fit_step(opt, model, batch_loss, layouts[start:start + config.batch_size], losses)
        epoch_seconds.append(time.perf_counter() - t0)
        if dev is not None:
            cfg = ParadigmConfig(mode=config.mode, k=config.k, candidates=dev_candidates)
            res = evaluate(model, dev, space, vocab, cfg, multi_label=multi_label)
            metric = res.metrics["f1" if multi_label else "accuracy"]
            dev_metrics.append(metric)
            if config.early_stop is not None and metric >= config.early_stop:
                break
    return TrainReport(losses=losses, dev_metrics=dev_metrics, epoch_seconds=epoch_seconds)


def scan_threshold(per_instance_scores, golds):
    """Exhaustive grid scan; returns (tau, f1) with ties going to larger tau."""
    best_tau, best_f1 = None, -1.0
    for tau in THRESHOLD_GRID:
        preds = [select_multi(scored, tau) for scored in per_instance_scores]
        _, _, f1 = example_averaged_prf(preds, golds)
        if f1 >= best_f1:
            best_tau, best_f1 = tau, f1
    return best_tau, best_f1


def calibrate_threshold(model, dev, space, vocab, mode, k=None, candidates=None):
    """Pick the multi-label threshold maximizing example-averaged F1 on dev."""
    if not dev:
        raise DataError("threshold calibration needs a nonempty dev set")
    cfg = ParadigmConfig(mode=mode, k=k, candidates=candidates)
    per_instance = [score_instance(model, inst, cfg, space, vocab)[0] for inst in dev]
    tau, _ = scan_threshold(per_instance, [sorted(inst.gold) for inst in dev])
    return tau


def write_loss_csv(path, report):
    write_csv(path, ("step", "loss"),
              [(i, f"{loss:.10g}") for i, loss in enumerate(report.losses)])


def write_manifest(path, config, extra=None):
    """Flat key=value run manifest; keys sorted for reproducible bytes."""
    fields = dataclasses.asdict(config)
    if extra:
        fields.update(extra)
    with atomic_write(path) as fh:
        for key in sorted(fields):
            fh.write(f"{key}={fields[key]}\n")
