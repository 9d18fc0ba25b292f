"""End-to-end runs: retrieval, training, evaluation, ablation, k-sweep.

Every run writes its resolved config and seed manifest into out_dir, and
all outputs are deterministic functions of (data, config), so rerunning a
command reproduces identical bytes. Progress goes to stderr; artifacts to
files only.
"""

import json
import os
import sys
from dataclasses import dataclass

from ..encoder import EncoderModel, load_model
from ..errors import DataError
from ..inference import (ParadigmConfig, bench, evaluate, write_bench_csv, write_csv,
                         write_predictions)
from ..retrieval import (build_index, rank_all, recall_from_rankings,
                         retrieve_candidates, train_bi_encoder)
from ..training import calibrate_threshold, train, write_loss_csv, write_manifest
from .datafiles import (encoder_config_from, read_bundle, train_config_from,
                        write_resolved_config)
from .reports import _md_table


def _progress(msg):
    print(f"[entsel] {msg}", file=sys.stderr, flush=True)


@dataclass
class Bundle:
    splits: dict
    space: object
    vocab: object
    enc_cfg: object


def load_bundle_for(cfg):
    splits, space, vocab = read_bundle(cfg.data_dir, require_vocab=True)
    return Bundle(splits=splits, space=space, vocab=vocab,
                  enc_cfg=encoder_config_from(cfg))


def _paradigm_config(cfg, mode, tau, candidates):
    return ParadigmConfig(mode=mode, k=cfg.k if mode == "parallel" else None,
                          tau=tau, candidates=candidates)


def _fit_index(cfg, bundle):
    """Contrastively fit a bi-encoder (warm-started from the same init as the
    cross model) and index the space; returns (bi_model, index)."""
    bi_model = EncoderModel(bundle.enc_cfg, len(bundle.vocab))
    _progress(f"bi-encoder: {cfg.bi_epochs} epochs over {len(bundle.splits['train'])} instances")
    train_bi_encoder(bi_model, bundle.splits["train"], bundle.space, bundle.vocab,
                     epochs=cfg.bi_epochs, batch_size=cfg.bi_batch_size,
                     lr=cfg.bi_learning_rate, temperature=cfg.temperature, seed=cfg.seed)
    return bi_model, build_index(bi_model, bundle.space, bundle.vocab)


def build_retrieval(cfg, bundle):
    """Fit the bi-encoder, index the space, retrieve top-k pools for every split,
    and write them to out_dir/candidates.json.

    Returns candidates_by_split; None when retrieve_k == 0.
    """
    if cfg.retrieve_k <= 0:
        return None
    if cfg.retrieve_k > len(bundle.space):
        raise DataError(f"retrieve_k {cfg.retrieve_k} exceeds space size {len(bundle.space)}")
    bi_model, index = _fit_index(cfg, bundle)
    candidates = {split: retrieve_candidates(index, bi_model, bundle.vocab, insts,
                                             cfg.retrieve_k)
                  for split, insts in bundle.splits.items()}
    with open(os.path.join(cfg.out_dir, "candidates.json"), "w", encoding="utf-8") as fh:
        json.dump({"k": cfg.retrieve_k, "splits": candidates}, fh, sort_keys=True)
        fh.write("\n")
    return candidates


def load_candidates(cfg, bundle, splits):
    """out_dir/candidates.json validated whole (None when absent): "k" must equal
    retrieve_k when > 0, and every id of each split in `splits` needs a
    non-empty list of option indices. A fault raises DataError naming the file."""
    path = os.path.join(cfg.out_dir, "candidates.json")
    if not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise DataError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("splits"), dict):
        raise DataError(f"{path}: expected an object with a 'splits' object")
    k = payload.get("k")
    if cfg.retrieve_k > 0 and (type(k) is not int or k != cfg.retrieve_k):
        raise DataError(f"{path}: 'k' is {k!r} but retrieve_k is {cfg.retrieve_k}")
    n = len(bundle.space)
    for split in splits:
        pools = payload["splits"].get(split)
        if not isinstance(pools, dict):
            raise DataError(f"{path}: no candidate pools for split {split!r}")
        for inst in bundle.splits[split]:
            pool = pools.get(inst.id)
            if pool is None:
                raise DataError(f"{path}: no candidates for {split} id {inst.id!r}")
            if not (isinstance(pool, list) and pool and all(
                    type(o) is int and 0 <= o < n for o in pool)):
                raise DataError(f"{path}: candidates for {split} id {inst.id!r} must be "
                                f"a non-empty list of option indices in [0, {n})")
    return payload["splits"]


def _split_cands(candidates, split):
    return candidates[split] if candidates is not None else None


def retrieve_run(cfg):
    """Standalone retrieval: writes candidates.json and recall.csv."""
    if cfg.retrieve_k < 1:
        raise DataError("retrieve needs retrieve_k >= 1")
    bundle = load_bundle_for(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_resolved_config(os.path.join(cfg.out_dir, "resolved_config.json"), cfg)
    candidates = build_retrieval(cfg, bundle)
    recall = {split: recall_from_rankings(candidates[split], bundle.splits[split], cfg.retrieve_k)
              for split in ("dev", "test")}
    write_csv(os.path.join(cfg.out_dir, "recall.csv"), ("split", "k", "recall"),
              [(split, cfg.retrieve_k, f"{r:.6f}") for split, r in recall.items()])
    return candidates


def train_run(cfg):
    """Train one model per the config; writes checkpoint, loss curve, manifest."""
    bundle = load_bundle_for(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_resolved_config(os.path.join(cfg.out_dir, "resolved_config.json"), cfg)
    candidates = build_retrieval(cfg, bundle)
    model = EncoderModel(bundle.enc_cfg, len(bundle.vocab))
    tcfg = train_config_from(cfg)
    _progress(f"training {tcfg.mode} for up to {tcfg.epochs} epochs")
    report = train(model, bundle.splits["train"], bundle.space, bundle.vocab, tcfg,
                   dev=bundle.splits["dev"],
                   candidates=_split_cands(candidates, "train"),
                   dev_candidates=_split_cands(candidates, "dev"),
                   multi_label=cfg.multi_label,
                   checkpoint_path=os.path.join(cfg.out_dir, "model.bin"))
    write_loss_csv(os.path.join(cfg.out_dir, "loss.csv"), report)
    write_manifest(os.path.join(cfg.out_dir, "manifest.txt"), tcfg,
                   extra={"data_dir": cfg.data_dir, "model_seed": cfg.model_seed,
                          "retrieve_k": cfg.retrieve_k, "vocab_size": len(bundle.vocab)})
    if report.dev_metrics:
        _progress(f"final dev metric {report.dev_metrics[-1]:.4f}")
    return model, report, candidates


def _pick_tau(cfg, model, bundle, candidates):
    if not (cfg.multi_label and cfg.calibrate):
        return cfg.tau
    tau = calibrate_threshold(model, bundle.splits["dev"], bundle.space, bundle.vocab,
                              mode=cfg.paradigm, k=cfg.k,
                              candidates=_split_cands(candidates, "dev"))
    _progress(f"calibrated tau = {tau:.2f}")
    return tau


def eval_run(cfg, model=None, candidates=None):
    """Evaluate the trained checkpoint on the test split; writes predictions + metrics."""
    bundle = load_bundle_for(cfg)
    if model is None:
        ckpt = os.path.join(cfg.out_dir, "model.bin")
        if not os.path.exists(ckpt):
            raise DataError(f"no checkpoint at {ckpt}; train first")
        model = load_model(ckpt)
    if candidates is None:
        calibrating = cfg.multi_label and cfg.calibrate
        candidates = load_candidates(cfg, bundle, ("dev", "test") if calibrating else ("test",))
    if cfg.retrieve_k > 0 and candidates is None:
        raise DataError("retrieve_k > 0 but no candidates.json; run retrieve or train first")
    tau = _pick_tau(cfg, model, bundle, candidates)
    pcfg = _paradigm_config(cfg, cfg.paradigm, tau, _split_cands(candidates, "test"))
    result = evaluate(model, bundle.splits["test"], bundle.space, bundle.vocab, pcfg,
                      multi_label=cfg.multi_label)
    write_predictions(os.path.join(cfg.out_dir, "predictions.jsonl"), result)
    payload = {"metrics": result.metrics, "tau": tau, "paradigm": cfg.paradigm,
               "forward_passes": result.ledger.forward_passes,
               "tokens_processed": result.ledger.tokens_processed}
    with open(os.path.join(cfg.out_dir, "metrics.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    _progress(f"test metrics {result.metrics}")
    return result


def bench_run(cfg, model=None, candidates=None):
    """Compare pairwise vs parallel inference cost on the test split."""
    bundle = load_bundle_for(cfg)
    if model is None:
        model = load_model(os.path.join(cfg.out_dir, "model.bin"))
    if candidates is None:
        candidates = load_candidates(cfg, bundle, ("test",))
    instances = bundle.splits["test"]
    if cfg.bench_limit > 0:
        instances = instances[:cfg.bench_limit]
    test_cands = _split_cands(candidates, "test")
    configs = [_paradigm_config(cfg, "te", cfg.tau, test_cands),
               _paradigm_config(cfg, "parallel", cfg.tau, test_cands)]
    rows = bench(model, instances, bundle.space, bundle.vocab, configs,
                 repetitions=cfg.bench_repetitions)
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_bench_csv(os.path.join(cfg.out_dir, "bench.csv"), rows)
    return rows


ABLATION_ROWS = (("te-full", "te", False),
                 ("te-topk", "te", True),
                 ("context-topk", "context", True),
                 ("parallel-topk", "parallel", True))


def run_ablation(cfg):
    """Four-paradigm grid on shared splits and one shared candidate set.

    Separates the effect of shrinking the option space (te-full vs te-topk)
    from the effect of the layout itself (context/parallel rows).
    """
    if cfg.retrieve_k < 1:
        raise DataError("ablation needs retrieve_k >= 1 for its top-k rows")
    bundle = load_bundle_for(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_resolved_config(os.path.join(cfg.out_dir, "resolved_config.json"), cfg)
    candidates = build_retrieval(cfg, bundle)
    rows = []
    for name, mode, use_topk in ABLATION_ROWS:
        _progress(f"ablation row {name}")
        row_cands = candidates if use_topk else None
        model = EncoderModel(bundle.enc_cfg, len(bundle.vocab))
        tcfg = train_config_from(cfg, mode=mode)
        train(model, bundle.splits["train"], bundle.space, bundle.vocab, tcfg,
              candidates=_split_cands(row_cands, "train"))
        if cfg.multi_label:
            tau = calibrate_threshold(model, bundle.splits["dev"], bundle.space,
                                      bundle.vocab, mode=mode, k=cfg.k,
                                      candidates=_split_cands(row_cands, "dev"))
        else:
            tau = cfg.tau
        pcfg = _paradigm_config(cfg, mode, tau, _split_cands(row_cands, "test"))
        res = evaluate(model, bundle.splits["test"], bundle.space, bundle.vocab, pcfg,
                       multi_label=cfg.multi_label)
        pool = f"top{cfg.retrieve_k}" if use_topk else "full"
        n_cases = len(bundle.splits["test"])
        row = {"row": name, "paradigm": mode, "pool": pool,
               "passes_per_case": res.ledger.forward_passes / n_cases}
        row.update({m: v for m, v in res.metrics.items() if m != "n"})
        rows.append(row)
    _write_ablation(cfg.out_dir, rows, cfg.multi_label)
    return rows


def _write_ablation(out_dir, rows, multi_label):
    metric_cols = ("precision", "recall", "f1") if multi_label else ("accuracy",)
    header = ("row", "paradigm", "pool", "passes_per_case") + metric_cols
    cells = [[row["row"], row["paradigm"], row["pool"], f"{row['passes_per_case']:g}"]
             + [f"{row[m]:.4f}" for m in metric_cols] for row in rows]
    write_csv(os.path.join(out_dir, "ablation.csv"), header, cells)
    with open(os.path.join(out_dir, "ablation.md"), "w", encoding="utf-8") as fh:
        fh.write(_md_table(header, cells))


def run_k_sweep(cfg, ks):
    """Recall@k and dev metric per retrieval k for one trained model.

    The model is trained once at the config's own settings; only the
    inference-time candidate pool varies across the sweep.
    """
    if not ks:
        raise DataError("sweep needs at least one k")
    bundle = load_bundle_for(cfg)
    n = len(bundle.space)
    for k in ks:
        if not 1 <= k <= n:
            raise DataError(f"sweep k {k} outside [1, {n}]")
    if cfg.retrieve_k < 1:
        raise DataError("sweep needs retrieve_k >= 1 to fit the bi-encoder")
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_resolved_config(os.path.join(cfg.out_dir, "resolved_config.json"), cfg)
    bi_model, index = _fit_index(cfg, bundle)
    train_rank = rank_all(index, bi_model, bundle.vocab, bundle.splits["train"])
    dev_rank = rank_all(index, bi_model, bundle.vocab, bundle.splits["dev"])
    model = EncoderModel(bundle.enc_cfg, len(bundle.vocab))
    tcfg = train_config_from(cfg)
    train_cands = {i: r[:cfg.retrieve_k] for i, r in train_rank.items()}
    dev_cands = {i: r[:cfg.retrieve_k] for i, r in dev_rank.items()}
    _progress(f"sweep base training ({tcfg.mode})")
    train(model, bundle.splits["train"], bundle.space, bundle.vocab, tcfg,
          candidates=train_cands)
    dev = bundle.splits["dev"]
    rows = []
    for k in ks:
        recall = recall_from_rankings(dev_rank, dev, k)
        cands_k = {i: r[:k] for i, r in dev_rank.items()}
        if cfg.multi_label:
            tau = calibrate_threshold(model, dev, bundle.space, bundle.vocab,
                                      mode=cfg.paradigm, k=cfg.k, candidates=cands_k)
        else:
            tau = cfg.tau
        pcfg = _paradigm_config(cfg, cfg.paradigm, tau, cands_k)
        res = evaluate(model, dev, bundle.space, bundle.vocab, pcfg,
                       multi_label=cfg.multi_label)
        metric = res.metrics["f1" if cfg.multi_label else "accuracy"]
        rows.append((k, recall, metric))
        _progress(f"k={k} recall={recall:.4f} metric={metric:.4f}")
    write_csv(os.path.join(cfg.out_dir, "sweep.csv"), ("k", "recall", "metric"),
              [(k, f"{recall:.6f}", f"{metric:.6f}") for k, recall, metric in rows])
    return rows
