"""Option scoring, label selection, and cost accounting.

Pairwise scoring runs one forward pass per option; parallel scoring chunks
the option list and runs one pass per chunk, so its ledger shows ceil(n/k)
passes. Both hand their layouts to `_score_layouts`, which reads each scored
option off its head row; `layout_heads`, shared with training, runs same-shape
layouts as fused groups (the ledger still counts one pass per layout). All
scoring here is eval-mode (no dropout, no autodiff tape).
"""

import json
import statistics
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from .encoder import classify_pairs_batch, encode_batch, fused_groups, score_options_batch
from .errors import DataError
from .files import atomic_write
from .pairing import chunk_options, make_parallel_pair, make_te_pair


class ScoredOption(NamedTuple):
    index: int
    score: float


@dataclass
class CostLedger:
    forward_passes: int = 0
    tokens_processed: int = 0

    def merge(self, other):
        self.forward_passes += other.forward_passes
        self.tokens_processed += other.tokens_processed


@dataclass
class ParadigmConfig:
    """How to score and select at inference time."""

    mode: str  # te | context | parallel
    k: int = None  # chunk size; only parallel scoring reads it
    tau: float = 0.5  # multi-label threshold
    candidates: dict = None  # instance id -> option indices; None = full space

    def __post_init__(self):
        if self.mode not in ("te", "context", "parallel"):
            raise DataError(f"unknown paradigm mode {self.mode!r}")
        if self.mode == "parallel" and (self.k is None or self.k < 1):
            raise DataError("parallel scoring needs k >= 1")


def layout_heads(model, layouts, parallel, train_mode=False):
    """(members, head) per fused group, head row i for layouts[members[i]]: pairwise
    layouts fuse by length and get the [CLS] head's [g x 2] (entail, non-entail)
    probabilities, parallel ones by (length, spans) and get [g x m] span scores."""
    keys = [(len(lay.ids), lay.option_spans) for lay in layouts] if parallel else None
    for members, ids in fused_groups([lay.ids for lay in layouts], keys):
        reps = encode_batch(model, ids, train_mode=train_mode)
        if parallel:
            yield members, score_options_batch(model, reps, *ids.shape,
                                               layouts[members[0]].option_spans)
        else:
            yield members, classify_pairs_batch(model, reps, *ids.shape)


def _score_layouts(model, layouts, parallel):
    """(scored, ledger): one pass per layout; column j of a layout's head row
    scores option_indices[j], so a pairwise layout's one option scores p(entail)."""
    rows = {pos: row for members, head in layout_heads(model, layouts, parallel)
            for pos, row in zip(members, head.data)}
    scored = [ScoredOption(i, float(s)) for pos, lay in enumerate(layouts)
              for i, s in zip(lay.option_indices, rows[pos])]
    return scored, CostLedger(len(layouts), sum(len(lay.ids) for lay in layouts))


def score_pairwise(model, instance, option_indices, mode, space, vocab):
    """One (P, H) forward pass per option; score = entailment probability.

    Pairwise and contextualized models share this inference path: no
    competing context is appended at inference time.
    """
    if mode not in ("te", "context"):
        raise DataError(f"pairwise scoring mode must be te or context, got {mode!r}")
    return _score_layouts(model, [make_te_pair(instance, idx, space, vocab, model.config.max_len)
                                  for idx in option_indices], parallel=False)


def score_parallel(model, instance, option_indices, k, space, vocab):
    """Chunked multi-hypothesis scoring: one forward pass per ceil(n/k) chunk."""
    if k < 1:
        raise DataError("k must be >= 1")
    return _score_layouts(model, [make_parallel_pair(instance, chunk, space, vocab,
                                                     model.config.max_len)
                                  for chunk in chunk_options(option_indices, k)], parallel=True)


def select_single(scored):
    """Highest-scoring option index; exact ties go to the smallest index."""
    if not scored:
        raise DataError("cannot select from an empty score list")
    return min(scored, key=lambda so: (-so.score, so.index)).index


def select_multi(scored, tau):
    """All option indices scoring strictly above tau; may be empty."""
    if not 0.0 < tau < 1.0:
        raise DataError("tau must lie in (0, 1)")
    return {so.index for so in scored if so.score > tau}


def example_averaged_prf(predictions, golds):
    """Example-averaged precision/recall with F1 of the averaged P and R.

    Precision averages over instances with at least one prediction; recall
    averages over all instances.
    """
    p_terms, r_terms = [], []
    for pred, gold in zip(predictions, golds):
        pred, gold = set(pred), set(gold)
        if pred:
            p_terms.append(len(pred & gold) / len(pred))
        r_terms.append(len(pred & gold) / len(gold) if gold else 1.0)
    precision = sum(p_terms) / len(p_terms) if p_terms else 0.0
    recall = sum(r_terms) / len(r_terms) if r_terms else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


@dataclass
class EvalResult:
    metrics: dict
    predictions: list = field(default_factory=list)
    ledger: CostLedger = field(default_factory=CostLedger)


def option_pool(instance, space, candidates):
    """The instance's retrieved candidate pool, or the whole option space."""
    if candidates is not None:
        return list(candidates[instance.id])
    return list(range(len(space)))


def score_instance(model, instance, cfg, space, vocab):
    """Score the instance's option pool the way cfg says; (scored, ledger)."""
    options = option_pool(instance, space, cfg.candidates)
    if cfg.mode == "parallel":
        return score_parallel(model, instance, options, cfg.k, space, vocab)
    return score_pairwise(model, instance, options, cfg.mode, space, vocab)


def evaluate(model, instances, space, vocab, cfg, multi_label=False):
    """Score a dataset and compute accuracy (single) or example P/R/F1 (multi)."""
    ledger = CostLedger()
    predictions = []
    correct = 0
    multi_preds, multi_golds = [], []
    for inst in instances:
        scored, inst_ledger = score_instance(model, inst, cfg, space, vocab)
        ledger.merge(inst_ledger)
        gold = sorted(inst.gold)
        if multi_label:
            pred = sorted(select_multi(scored, cfg.tau))
            multi_preds.append(pred)
            multi_golds.append(gold)
        else:
            pred = select_single(scored)
            correct += int(pred in inst.gold)
        predictions.append({"id": inst.id,
                            "scores": [[so.index, so.score] for so in scored],
                            "prediction": pred, "gold": gold})
    n = len(instances)
    if multi_label:
        precision, recall, f1 = example_averaged_prf(multi_preds, multi_golds)
        metrics = {"precision": precision, "recall": recall, "f1": f1, "n": n}
    else:
        metrics = {"accuracy": correct / n if n else 0.0, "n": n}
    return EvalResult(metrics=metrics, predictions=predictions, ledger=ledger)


def write_predictions(path, result):
    """JSON-lines dump: one {id, scores, prediction, gold} record per instance."""
    with atomic_write(path) as fh:
        for rec in result.predictions:
            fh.write(json.dumps(rec) + "\n")


@dataclass
class BenchRow:
    paradigm: str
    n: int
    k: int
    passes_per_case: float
    tokens_per_case: float
    seconds_per_case: float
    rep_seconds: list = field(default_factory=list)


def bench(model, instances, space, vocab, configs, repetitions=3):
    """Time each paradigm config over the dataset; median of >=3 repetitions.

    Forward-pass and token counts come from the first timed repetition's
    ledgers and are exact; wall-clock excludes a warmup pass over the first
    two instances.
    """
    if repetitions < 3:
        raise DataError("bench needs at least 3 timed repetitions")
    rows = []
    for cfg in configs:
        for inst in instances[:2]:
            score_instance(model, inst, cfg, space, vocab)
        counted = CostLedger()
        times = []
        for rep in range(repetitions):
            t0 = time.perf_counter()
            for inst in instances:
                _, led = score_instance(model, inst, cfg, space, vocab)
                if rep == 0:
                    counted.merge(led)
            times.append(time.perf_counter() - t0)
        n_cases = len(instances)
        rows.append(BenchRow(paradigm=cfg.mode,
                             n=len(option_pool(instances[0], space, cfg.candidates)),
                             k=cfg.k if cfg.mode == "parallel" else 1,
                             passes_per_case=counted.forward_passes / n_cases,
                             tokens_per_case=counted.tokens_processed / n_cases,
                             seconds_per_case=statistics.median(times) / n_cases,
                             rep_seconds=times))
    return rows


def write_csv(path, header, rows):
    """One comma-separated line for the header and for each row of cells."""
    with atomic_write(path) as fh:
        for cells in (header, *rows):
            fh.write(",".join(map(str, cells)) + "\n")


def write_bench_csv(path, rows):
    write_csv(path, ("paradigm", "n", "k", "passes", "tokens", "seconds_per_case"),
              [(r.paradigm, r.n, r.k, f"{r.passes_per_case:g}", f"{r.tokens_per_case:g}",
                f"{r.seconds_per_case:.6g}") for r in rows])
