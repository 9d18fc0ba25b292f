"""End-to-end runs behind the CLI verbs retrieve, train, eval, bench, ablate
and sweep-k. Each per-run decision is made in one place: `load_candidates`
picks the pools (retrieve_k == 0 always means the full space, otherwise
candidates.json must exist and match it and the bundle's space), `_evaluate`
picks tau (fit on dev exactly when multi_label and calibrate), `_start_run`
opens a run that writes (after the verb's request checks) and `_load_trained`
one that is read.

All outputs are deterministic functions of (data, config), so rerunning a
command reproduces identical bytes. Progress goes to stderr; artifacts to
files only.
"""

import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass

from ..encoder import EncoderModel, load_model, save_model
from ..errors import DataError
from ..files import atomic_write
from ..inference import (ParadigmConfig, bench, evaluate, write_bench_csv, write_csv,
                         write_predictions)
from ..pairing import shortest_pair_len
from ..retrieval import (build_index, rank_all, recall_from_rankings,
                         retrieve_candidates, train_bi_encoder)
from ..training import calibrate_threshold, train, write_loss_csv, write_manifest
from .datafiles import (encoder_config_from, read_bundle, read_json_object, train_config_from,
                        write_json)
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


def _check_max_len(cfg, bundle, parallel):
    """Reject a max_len no training layout fits, before the run writes anything.

    A parallel fit keeps every gold and fills from the pool, so each of its
    layouts holds at least min(k, pool size) hypotheses; pairwise and context
    layouts (whose context count can be 0) hold at least one.
    """
    width = min(cfg.k, cfg.retrieve_k or len(bundle.space)) if parallel else 1
    need = shortest_pair_len(bundle.space, bundle.splits["train"], bundle.vocab, width)
    if cfg.max_len < need:
        raise DataError(f"max_len: {cfg.max_len} cannot hold the shortest training layout, "
                        f"{need} tokens")


def _start_run(cfg, bundle):
    """Create out_dir and write resolved_config.json, once retrieve_k fits the
    space; every verb that produces a run calls it after its request checks."""
    if cfg.retrieve_k > len(bundle.space):
        raise DataError(f"retrieve_k {cfg.retrieve_k} exceeds space size {len(bundle.space)}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_json(os.path.join(cfg.out_dir, "resolved_config.json"), asdict(cfg), indent=2)


def _load_trained(cfg, splits):
    """(bundle, model, candidates) of a trained run; the checkpoint must match the
    bundle's vocab, and pools are validated for `splits`."""
    bundle = load_bundle_for(cfg)
    ckpt = os.path.join(cfg.out_dir, "model.bin")
    if not os.path.exists(ckpt):
        raise DataError(f"no checkpoint at {ckpt}; train first")
    model = load_model(ckpt)
    if model.vocab_size != len(bundle.vocab):
        raise DataError(f"{ckpt} was trained on {model.vocab_size} vocab entries but "
                        f"{os.path.join(cfg.data_dir, 'vocab.txt')} has {len(bundle.vocab)}")
    return bundle, model, load_candidates(cfg, bundle, splits)


def _calibrating(cfg):
    return cfg.multi_label and cfg.calibrate


def _split_cands(candidates, split):
    return candidates[split] if candidates is not None else None


def _evaluate(cfg, model, bundle, mode, candidates, split):
    """Score `split` in `mode` over `candidates` (split -> pools; None = full
    space). Tau is fit on dev exactly when `_calibrating(cfg)`; returns
    (result, tau)."""
    tau = cfg.tau
    if _calibrating(cfg):
        tau = calibrate_threshold(model, bundle.splits["dev"], bundle.space, bundle.vocab,
                                  mode=mode, k=cfg.k,
                                  candidates=_split_cands(candidates, "dev"))
        _progress(f"calibrated tau = {tau:.2f}")
    pcfg = ParadigmConfig(mode=mode, k=cfg.k, tau=tau,
                          candidates=_split_cands(candidates, split))
    result = evaluate(model, bundle.splits[split], bundle.space, bundle.vocab, pcfg,
                      multi_label=cfg.multi_label)
    return result, tau


def _fit_index(cfg, bundle):
    """Contrastively fit a bi-encoder (warm-started from the same init as the
    cross model) and index the space; returns (bi_model, index)."""
    bi_model = EncoderModel(bundle.enc_cfg, len(bundle.vocab))
    _progress(f"bi-encoder: {cfg.bi_epochs} epochs over {len(bundle.splits['train'])} instances")
    train_bi_encoder(bi_model, bundle.splits["train"], bundle.space, bundle.vocab,
                     epochs=cfg.bi_epochs, batch_size=cfg.bi_batch_size,
                     lr=cfg.bi_learning_rate, temperature=cfg.temperature, seed=cfg.seed)
    return bi_model, build_index(bi_model, bundle.space, bundle.vocab)


def _space_fingerprint(space):
    """Option count and sha256 of the space's options and template: the
    provenance candidates.json carries, since its indices mean nothing elsewhere."""
    blob = json.dumps({"options": list(space.options), "template": space.template})
    return {"options": len(space), "sha256": hashlib.sha256(blob.encode("utf-8")).hexdigest()}


def build_retrieval(cfg, bundle):
    """Fit the bi-encoder, index the space, and retrieve top-k pools for every
    split into out_dir/candidates.json; returns them (None when retrieve_k == 0)."""
    if cfg.retrieve_k == 0:
        return None
    bi_model, index = _fit_index(cfg, bundle)
    candidates = {split: retrieve_candidates(index, bi_model, bundle.vocab, insts,
                                             cfg.retrieve_k)
                  for split, insts in bundle.splits.items()}
    write_json(os.path.join(cfg.out_dir, "candidates.json"),
               {"k": cfg.retrieve_k, "space": _space_fingerprint(bundle.space),
                "splits": candidates})
    return candidates


def load_candidates(cfg, bundle, splits):
    """Pools by split; None (the full space) when retrieve_k == 0, whatever is on
    disk. Otherwise out_dir/candidates.json must exist, its "k" must equal
    retrieve_k, its "space" fingerprint must match the bundle's space, and
    every id of each split in `splits` needs a non-empty list of option
    indices; a fault raises DataError naming the file."""
    if cfg.retrieve_k == 0:
        return None
    path = os.path.join(cfg.out_dir, "candidates.json")
    if not os.path.exists(path):
        raise DataError(f"no candidate pools at {path}; run retrieve or train first")
    payload = read_json_object(path)
    if not isinstance(payload.get("splits"), dict):
        raise DataError(f"{path}: expected an object with a 'splits' object")
    k = payload.get("k")
    if type(k) is not int or k != cfg.retrieve_k:
        raise DataError(f"{path}: 'k' is {k!r} but retrieve_k is {cfg.retrieve_k}")
    if payload.get("space") != _space_fingerprint(bundle.space):
        raise DataError(f"{path}: its 'space' fingerprint is missing or does not match the "
                        f"options and template in {cfg.data_dir}; re-run retrieve")
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


def retrieve_run(cfg):
    """Standalone retrieval: writes candidates.json and recall.csv."""
    if cfg.retrieve_k < 1:
        raise DataError("retrieve needs retrieve_k >= 1")
    bundle = load_bundle_for(cfg)
    _start_run(cfg, bundle)
    candidates = build_retrieval(cfg, bundle)
    recall = {split: recall_from_rankings(candidates[split], bundle.splits[split], cfg.retrieve_k)
              for split in ("dev", "test")}
    write_csv(os.path.join(cfg.out_dir, "recall.csv"), ("split", "k", "recall"),
              [(split, cfg.retrieve_k, f"{r:.6f}") for split, r in recall.items()])
    return candidates


def train_run(cfg):
    """Train one model per the config; writes checkpoint, loss curve, manifest."""
    bundle = load_bundle_for(cfg)
    _check_max_len(cfg, bundle, cfg.paradigm == "parallel")
    _start_run(cfg, bundle)
    candidates = build_retrieval(cfg, bundle)
    model = EncoderModel(bundle.enc_cfg, len(bundle.vocab))
    tcfg = train_config_from(cfg)
    _progress(f"training {tcfg.mode} for up to {tcfg.epochs} epochs")
    report = train(model, bundle.splits["train"], bundle.space, bundle.vocab, tcfg,
                   dev=bundle.splits["dev"],
                   candidates=_split_cands(candidates, "train"),
                   dev_candidates=_split_cands(candidates, "dev"),
                   multi_label=cfg.multi_label)
    save_model(model, os.path.join(cfg.out_dir, "model.bin"))
    write_loss_csv(os.path.join(cfg.out_dir, "loss.csv"), report)
    write_manifest(os.path.join(cfg.out_dir, "manifest.txt"), tcfg,
                   extra={"data_dir": cfg.data_dir, "model_seed": cfg.model_seed,
                          "retrieve_k": cfg.retrieve_k, "vocab_size": len(bundle.vocab)})
    if report.dev_metrics:
        _progress(f"final dev metric {report.dev_metrics[-1]:.4f}")


def eval_run(cfg):
    """Evaluate the trained checkpoint on the test split; writes predictions + metrics."""
    splits = ("dev", "test") if _calibrating(cfg) else ("test",)
    bundle, model, candidates = _load_trained(cfg, splits)
    result, tau = _evaluate(cfg, model, bundle, cfg.paradigm, candidates, "test")
    write_predictions(os.path.join(cfg.out_dir, "predictions.jsonl"), result)
    payload = {"metrics": result.metrics, "tau": tau, "paradigm": cfg.paradigm,
               "forward_passes": result.ledger.forward_passes,
               "tokens_processed": result.ledger.tokens_processed}
    write_json(os.path.join(cfg.out_dir, "metrics.json"), payload, indent=2)
    _progress(f"test metrics {result.metrics}")


def bench_run(cfg):
    """Compare pairwise vs parallel inference cost on the test split."""
    bundle, model, candidates = _load_trained(cfg, ("test",))
    instances = bundle.splits["test"]
    if cfg.bench_limit > 0:
        instances = instances[:cfg.bench_limit]
    test_cands = _split_cands(candidates, "test")
    configs = [ParadigmConfig(mode=mode, k=cfg.k, tau=cfg.tau, candidates=test_cands)
               for mode in ("te", "parallel")]
    rows = bench(model, instances, bundle.space, bundle.vocab, configs,
                 repetitions=cfg.bench_repetitions)
    write_bench_csv(os.path.join(cfg.out_dir, "bench.csv"), rows)


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
    tcfgs = [train_config_from(cfg, mode=mode) for _, mode, _ in ABLATION_ROWS]
    bundle = load_bundle_for(cfg)
    _check_max_len(cfg, bundle, parallel=True)  # the parallel-topk row
    _start_run(cfg, bundle)
    candidates = build_retrieval(cfg, bundle)
    rows = []
    for (name, mode, use_topk), tcfg in zip(ABLATION_ROWS, tcfgs):
        _progress(f"ablation row {name}")
        row_cands = candidates if use_topk else None
        model = EncoderModel(bundle.enc_cfg, len(bundle.vocab))
        train(model, bundle.splits["train"], bundle.space, bundle.vocab, tcfg,
              candidates=_split_cands(row_cands, "train"))
        res, _ = _evaluate(cfg, model, bundle, mode, row_cands, "test")
        pool = f"top{cfg.retrieve_k}" if use_topk else "full"
        row = {"row": name, "paradigm": mode, "pool": pool,
               "passes_per_case": res.ledger.forward_passes / len(bundle.splits["test"])}
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
    with atomic_write(os.path.join(out_dir, "ablation.md")) as fh:
        fh.write(_md_table(header, cells))


def run_k_sweep(cfg, ks):
    """Recall@k and dev metric per retrieval k for one trained model.

    The model is trained once at the config's own settings; only the
    inference-time candidate pool varies across the sweep.
    """
    if not ks:
        raise DataError("sweep needs at least one k")
    if cfg.retrieve_k < 1:
        raise DataError("sweep needs retrieve_k >= 1 to fit the bi-encoder")
    bundle = load_bundle_for(cfg)
    n = len(bundle.space)
    for k in ks:
        if not 1 <= k <= n:
            raise DataError(f"sweep k {k} outside [1, {n}]")
    _check_max_len(cfg, bundle, cfg.paradigm == "parallel")
    _start_run(cfg, bundle)
    bi_model, index = _fit_index(cfg, bundle)
    train_rank = rank_all(index, bi_model, bundle.vocab, bundle.splits["train"])
    dev_rank = rank_all(index, bi_model, bundle.vocab, bundle.splits["dev"])
    model = EncoderModel(bundle.enc_cfg, len(bundle.vocab))
    tcfg = train_config_from(cfg)
    _progress(f"sweep base training ({tcfg.mode})")
    train(model, bundle.splits["train"], bundle.space, bundle.vocab, tcfg,
          candidates={i: r[:cfg.retrieve_k] for i, r in train_rank.items()})
    rows = []
    for k in ks:
        recall = recall_from_rankings(dev_rank, bundle.splits["dev"], k)
        res, _ = _evaluate(cfg, model, bundle, cfg.paradigm,
                           {"dev": {i: r[:k] for i, r in dev_rank.items()}}, "dev")
        metric = res.metrics["f1" if cfg.multi_label else "accuracy"]
        rows.append((k, recall, metric))
        _progress(f"k={k} recall={recall:.4f} metric={metric:.4f}")
    write_csv(os.path.join(cfg.out_dir, "sweep.csv"), ("k", "recall", "metric"),
              [(k, f"{recall:.6f}", f"{metric:.6f}") for k, recall, metric in rows])
    return rows
