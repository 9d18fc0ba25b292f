"""Fixed-seed fingerprint of training, retrieval and scoring.

Run from the repository root:

    PYTHONPATH=src python3 tests/fingerprint.py

It prints the sha256 of one canonical JSON record. Two trees that print the
same digest train, retrieve and score bitwise alike on this script. For each
of the single_small and multi_large profiles (40/12/12 instances, seed 0) it
fits the bi-encoder, builds the index and top-8 pools, then fits te, context
k=3 with and without pools, and parallel k=4 plain, augmented (single-label
only, since augmentation needs one gold) and with pools. The record holds
every loss (as repr), a sha256 per weight, the dev and test metrics, the
calibrated tau (multi-label only), the test predictions with all their
scores, the test ledgers, the pools and the index bytes. Pytest does not
collect this file; it runs in a few seconds on one core.
"""

import hashlib
import json

from entsel.encoder import EncoderConfig, EncoderModel
from entsel.inference import ParadigmConfig, evaluate
from entsel.retrieval import build_index, retrieve_candidates, train_bi_encoder
from entsel.text import build_vocab
from entsel.training import TrainConfig, calibrate_threshold, train
from entsel.workbench.synth import space_corpus, synth

PROFILES = (("single_small", None, False), ("multi_large", 60, True))
ENCODER = EncoderConfig(layers=2, heads=2, model_dim=16, ff_dim=32, max_len=64,
                        dropout=0.1, seed=0)
RUNS = (("te", "te", 0, False, False),
        ("context", "context", 3, False, False),
        ("context-pools", "context", 3, False, True),
        ("parallel", "parallel", 4, False, False),
        ("parallel-augment", "parallel", 4, True, False),
        ("parallel-pools", "parallel", 4, False, True))
POOL_K = 8


def _sha(array):
    return hashlib.sha256(array.tobytes()).hexdigest()


def _weights(model):
    return {name: _sha(p.data) for name, p in sorted(model.named_parameters().items())}


def _run(mode, k, augment, pools, splits, space, vocab, multi_label):
    pools = pools or {}
    model = EncoderModel(ENCODER, len(vocab))
    report = train(model, splits["train"], space, vocab,
                   TrainConfig(mode=mode, k=k, epochs=2, batch_size=8, augment=augment),
                   dev=splits["dev"], candidates=pools.get("train"), dev_candidates=pools.get("dev"),
                   multi_label=multi_label)
    eval_k = k if mode == "parallel" else None
    tau = 0.5
    if multi_label:
        tau = calibrate_threshold(model, splits["dev"], space, vocab, mode, k=eval_k,
                                  candidates=pools.get("dev"))
    result = evaluate(model, splits["test"], space, vocab,
                      ParadigmConfig(mode=mode, k=eval_k, tau=tau, candidates=pools.get("test")),
                      multi_label=multi_label)
    return {"losses": [repr(v) for v in report.losses],
            "dev_metrics": [repr(v) for v in report.dev_metrics],
            "weights": _weights(model),
            "tau": repr(tau) if multi_label else None,
            "test_metrics": result.metrics,
            "predictions": result.predictions,
            "ledger": [result.ledger.forward_passes, result.ledger.tokens_processed]}


def _profile(name, n_options, multi_label):
    splits, space = synth(name, n_options=n_options, n_train=40, n_dev=12, n_test=12, seed=0)
    vocab = build_vocab([inst.premise for inst in splits["train"]] + space_corpus(space))
    bi = EncoderModel(ENCODER, len(vocab))
    bi_losses = train_bi_encoder(bi, splits["train"], space, vocab, epochs=2, batch_size=8)
    index = build_index(bi, space, vocab)
    pools = {split: retrieve_candidates(index, bi, vocab, splits[split], POOL_K)
             for split in ("train", "dev", "test")}
    record = {"bi_losses": [repr(v) for v in bi_losses], "bi_weights": _weights(bi),
              "index": _sha(index.matrix), "pools": pools}
    for label, mode, k, augment, use_pools in RUNS:
        if augment and multi_label:
            continue
        record[label] = _run(mode, k, augment, pools if use_pools else None,
                             splits, space, vocab, multi_label)
    return record


def fingerprint():
    """The canonical JSON record of every profile, as a str."""
    record = {name: _profile(name, n_options, multi_label)
              for name, n_options, multi_label in PROFILES}
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


if __name__ == "__main__":
    print(hashlib.sha256(fingerprint().encode("utf-8")).hexdigest())
