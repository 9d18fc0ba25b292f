"""Acceptance gates: one test per release criterion, run at stated tolerance.

These are the binding checks for the package. Some train real models at
desk scale (criterion 8 takes several minutes); everything is seeded, so a
failure is a regression, not noise.
"""

import math
import time

import numpy as np
import pytest

import entsel.numerics as nm
from entsel.encoder import (EncoderConfig, EncoderModel, classify_pairs_batch,
                            encode_batch, score_options_batch)
from entsel.inference import (ParadigmConfig, bench, evaluate,
                              example_averaged_prf, score_pairwise,
                              score_parallel)
from entsel.numerics import grad_check
from entsel.pairing import (OptionSpace, SelectionInstance, make_context_pair,
                            shuffle_augment)
from entsel.retrieval import (build_index, embed_text, rank_all,
                              recall_from_rankings, retrieve_candidates,
                              train_bi_encoder)
from entsel.text import CLS_ID, SEP_ID, build_vocab
from entsel.training import (THRESHOLD_GRID, TrainConfig, bce_loss,
                             calibrate_threshold, ce_loss, train)
from entsel.workbench.synth import space_corpus, synth

SMALL_CFG = EncoderConfig(layers=2, heads=2, model_dim=8, ff_dim=16,
                          max_len=256, dropout=0.0, use_positions=True, seed=0)


def word_space(n, template="[LABEL]"):
    return OptionSpace(options=tuple(f"o{i}x" for i in range(n)), template=template)


def word_instances(space, n, golds_per=1, seed=0, fillers=3):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        gold = sorted(int(g) for g in rng.choice(len(space), size=golds_per,
                                                 replace=False))
        words = [space.options[g] for g in gold] + ["fill"] * fillers
        out.append(SelectionInstance(id=f"i{i}", premise=" ".join(words),
                                     gold=frozenset(gold)))
    return out


def fit_vocab(space, instances):
    return build_vocab([inst.premise for inst in instances] + space_corpus(space))


def test_criterion_01_every_parameter_passes_grad_check():
    """All trunk layers plus the entailment and span-scoring heads, <1e-5."""
    t0 = time.perf_counter()
    cfg = EncoderConfig(layers=2, heads=2, model_dim=8, ff_dim=16, max_len=16,
                        dropout=0.0, use_positions=True, seed=0)
    vocab = build_vocab([" ".join(f"w{i}" for i in range(10))])
    model = EncoderModel(cfg, len(vocab))
    enc = vocab.encode
    # batch 2, so the batch axis of every op is covered too
    pair_ids = [[CLS_ID] + enc("w0 w1 w2") + [SEP_ID] + enc("w3 w4") + [SEP_ID],
                [CLS_ID] + enc("w5 w6 w7") + [SEP_ID] + enc("w8 w9") + [SEP_ID]]
    par_ids = [[CLS_ID] + enc("w0 w1") + [SEP_ID] + enc("w5") + [SEP_ID]
               + enc("w6") + [SEP_ID],
               [CLS_ID] + enc("w2 w3") + [SEP_ID] + enc("w7") + [SEP_ID]
               + enc("w8") + [SEP_ID]]
    spans = [(4, 5), (6, 7)]

    def combined_loss(_x):
        # one scalar that back-propagates through both heads and the trunk
        probs = classify_pairs_batch(model, encode_batch(model, pair_ids), 2, 8)
        pair = ce_loss(probs, [True, False])
        scores = score_options_batch(model, encode_batch(model, par_ids), 2, 8, spans)
        par = bce_loss(nm.reshape(scores, (4,)), [True, False, False, True])
        return nm.add(pair, par)

    params = model.named_parameters()
    assert "cls_w" in params and "scorer_w1" in params  # both heads present
    worst = ("", 0.0)
    for name, p in sorted(params.items()):
        report = grad_check(combined_loss, p, step=1e-4, tolerance=1e-5)
        assert report.passed, (f"{name}: rel err {report.max_rel_error:.3g} "
                               f"at flat index {report.worst_index}")
        if report.max_rel_error > worst[1]:
            worst = (name, report.max_rel_error)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"grad suite took {elapsed:.1f}s"
    assert worst[1] < 1e-5


def test_criterion_02_loss_closed_forms():
    assert bce_loss(nm.Tensor(np.array([0.5])), [True]).item() == pytest.approx(
        math.log(2), abs=1e-9)
    assert bce_loss(nm.Tensor(np.array([0.9, 0.1])),
                    [True, False]).item() == pytest.approx(-math.log(0.9), abs=1e-9)
    assert ce_loss(nm.Tensor(np.array([[0.5, 0.5]])), [True]).item() == pytest.approx(
        math.log(2), abs=1e-9)


def test_criterion_03_pass_counts_and_measured_speedup():
    """Ledger passes are exact for every (n, k); wall ratio >= 0.5 * n/k."""
    space = word_space(1000)
    instances = word_instances(space, 4, seed=2)
    vocab = fit_vocab(space, instances)
    model = EncoderModel(SMALL_CFG, len(vocab))
    inst = instances[0]
    for n in (4, 77, 1000):
        options = list(range(n))
        _, ledger = score_pairwise(model, inst, options, "te", space, vocab)
        assert ledger.forward_passes == n
        for k in (1, 25, 80):
            _, ledger = score_parallel(model, inst, options, k, space, vocab)
            assert ledger.forward_passes == math.ceil(n / k)

    # Wall-clock gate: sub-second per rep, so pad the workload (8 cases,
    # median of 7 reps) to keep scheduler noise out of the ratio. Long
    # premises put the timing in the amortization regime the ratio claim
    # is about; 4-token premises would time option overhead instead.
    n, k = 77, 25
    timed = word_instances(space, 8, seed=2, fillers=40)
    cands = {i.id: list(range(n)) for i in timed}
    rows = bench(model, timed, space, vocab,
                 [ParadigmConfig(mode="te", candidates=cands),
                  ParadigmConfig(mode="parallel", k=k, candidates=cands)],
                 repetitions=7)
    assert rows[0].passes_per_case == n
    assert rows[1].passes_per_case == math.ceil(n / k)
    ratio = rows[0].seconds_per_case / rows[1].seconds_per_case
    assert ratio >= 0.5 * (n / k), f"wall ratio {ratio:.2f} < {0.5 * n / k:.2f}"


def test_criterion_04_parallel_scores_are_permutation_equivariant():
    cfg = EncoderConfig(layers=2, heads=2, model_dim=8, ff_dim=16, max_len=64,
                        dropout=0.0, use_positions=False, seed=4)
    space = word_space(12)
    instances = word_instances(space, 10, seed=5)
    vocab = fit_vocab(space, instances)
    model = EncoderModel(cfg, len(vocab))
    rng = np.random.default_rng(6)
    worst = 0.0
    for trial in range(50):
        inst = instances[int(rng.integers(len(instances)))]
        m = int(rng.integers(2, 7))
        options = [int(i) for i in rng.choice(len(space), size=m, replace=False)]
        permuted = [options[int(j)] for j in rng.permutation(m)]
        base, _ = score_parallel(model, inst, options, m, space, vocab)
        swapped, _ = score_parallel(model, inst, permuted, m, space, vocab)
        lookup = {so.index: so.score for so in base}
        diff = max(abs(lookup[so.index] - so.score) for so in swapped)
        worst = max(worst, diff)
        assert diff < 1e-9, f"trial {trial}: diff {diff:.3g}"
    assert worst < 1e-9


def test_criterion_05_context_construction_never_flips_the_label():
    space = word_space(12)
    instances = word_instances(space, 20, golds_per=2, seed=7)
    vocab = fit_vocab(space, instances)
    rng = np.random.default_rng(8)
    for _ in range(10_000):
        inst = instances[int(rng.integers(len(instances)))]
        option = int(rng.integers(len(space)))
        pool = [i for i in range(len(space)) if i != option]
        k = int(rng.integers(0, 5))
        lay = make_context_pair(inst, option, pool, k, rng, space, vocab,
                                max_len=128)
        assert lay.labels == (option in inst.gold,)


def test_criterion_06_top_k_matches_brute_force_on_10k_options():
    space = word_space(10_000)
    instances = word_instances(space, 10, golds_per=2, seed=9, fillers=2)
    vocab = fit_vocab(space, instances)
    model = EncoderModel(SMALL_CFG, len(vocab))
    index = build_index(model, space, vocab)
    n = len(space)

    # full agreement for every k on one query, full-order spot checks on the rest
    query = instances[0]
    scores = index.matrix @ embed_text(model, vocab, query.premise)
    brute = sorted(range(n), key=lambda i: (-scores[i], i))
    for k in range(1, n + 1):
        got = retrieve_candidates(index, model, vocab, [query], k)[query.id]
        assert got == brute[:k], f"mismatch at k={k}"
    rankings = rank_all(index, model, vocab, instances)
    for inst in instances[1:4]:
        s = index.matrix @ embed_text(model, vocab, inst.premise)
        assert rankings[inst.id] == sorted(range(n), key=lambda i: (-s[i], i))

    # recall@k: exact match to the rank-position oracle and monotone throughout
    positions = []
    for inst in instances:
        rank_of = {opt: r for r, opt in enumerate(rankings[inst.id])}
        positions.extend(rank_of[g] for g in inst.gold)
    positions = np.array(sorted(positions))
    oracle = np.searchsorted(positions, np.arange(1, n + 1), side="left") / len(positions)
    assert np.all(np.diff(oracle) >= 0.0)
    probe_ks = sorted(set(positions + 1) | set(range(1, n + 1, 211)) | {1, n})
    for k in probe_ks:
        assert recall_from_rankings(rankings, instances, k) == oracle[k - 1]


def test_criterion_07_calibrated_threshold_attains_grid_max_f1():
    space = word_space(8)
    dev = word_instances(space, 12, golds_per=2, seed=10)
    vocab = fit_vocab(space, dev)
    model = EncoderModel(SMALL_CFG, len(vocab))
    tau = calibrate_threshold(model, dev, space, vocab, mode="parallel", k=4)

    def f1_at(t):
        preds, golds = [], []
        for inst in dev:
            scored, _ = score_parallel(model, inst, range(len(space)), 4, space, vocab)
            preds.append([so.index for so in scored if so.score > t])
            golds.append(sorted(inst.gold))
        return example_averaged_prf(preds, golds)[2]

    best = max(f1_at(t) for t in THRESHOLD_GRID)
    assert f1_at(tau) == best


def test_criterion_08_end_to_end_trainability():
    """All three paradigms >= 0.95 on the small single-label task inside the
    time budget; the calibrated parallel paradigm >= 0.80 F1 on the large
    multi-label task behind top-32 retrieval."""
    t0 = time.perf_counter()
    splits, space = synth("single_small", n_train=2000, n_dev=200, n_test=500,
                          seed=11)
    vocab = fit_vocab(space, splits["train"])
    accs = {}
    for mode, k in (("te", 0), ("context", 2), ("parallel", 8)):
        model = EncoderModel(EncoderConfig(), len(vocab))
        tcfg = TrainConfig(mode=mode, k=k, epochs=20, batch_size=16,
                           learning_rate=3e-3, seed=0, early_stop=0.97)
        train(model, splits["train"], space, vocab, tcfg, dev=splits["dev"][:150])
        pcfg = ParadigmConfig(mode=mode, k=k if mode == "parallel" else None)
        res = evaluate(model, splits["test"], space, vocab, pcfg)
        accs[mode] = res.metrics["accuracy"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"single-label phase took {elapsed:.0f}s"
    for mode, acc in accs.items():
        assert acc >= 0.95, f"{mode} test accuracy {acc:.4f} ({accs})"

    splits, space = synth("multi_large", n_train=3000, n_dev=300, n_test=300,
                          seed=5)
    vocab = fit_vocab(space, splits["train"])
    enc_cfg = EncoderConfig()
    bi = EncoderModel(enc_cfg, len(vocab))
    train_bi_encoder(bi, splits["train"], space, vocab, epochs=10,
                     batch_size=64, lr=3e-3, temperature=0.1, seed=0)
    index = build_index(bi, space, vocab)
    cands = {s: retrieve_candidates(index, bi, vocab, splits[s], 32)
             for s in splits}
    model = EncoderModel(enc_cfg, len(vocab))
    tcfg = TrainConfig(mode="parallel", k=8, epochs=8, batch_size=16,
                       learning_rate=3e-3, seed=0, early_stop=0.85)
    train(model, splits["train"], space, vocab, tcfg, dev=splits["dev"][:150],
          candidates=cands["train"], dev_candidates=cands["dev"],
          multi_label=True)
    tau = calibrate_threshold(model, splits["dev"], space, vocab,
                              mode="parallel", k=8, candidates=cands["dev"])
    pcfg = ParadigmConfig(mode="parallel", k=8, tau=tau, candidates=cands["test"])
    res = evaluate(model, splits["test"], space, vocab, pcfg, multi_label=True)
    f1 = res.metrics["f1"]
    assert f1 >= 0.80, f"multi-label F1 {f1:.4f} at tau {tau:.2f}"


def test_criterion_09_comparison_grid_reproducible(tmp_path):
    from entsel.workbench import datafiles, pipeline
    splits, space = synth("single_small", n_options=6, n_train=8, n_dev=3,
                          n_test=3, seed=1)
    data_dir = tmp_path / "data"
    datafiles.write_bundle(str(data_dir), splits, space)
    datafiles.build_bundle_vocab(str(data_dir))
    grids = []
    for run in ("a", "b"):
        cfg = datafiles.RunConfig(data_dir=str(data_dir),
                                  out_dir=str(tmp_path / run),
                                  layers=2, heads=2, model_dim=8, ff_dim=16,
                                  max_len=64, dropout=0.0, epochs=1,
                                  batch_size=4, k=2, retrieve_k=3, bi_epochs=1)
        rows = pipeline.run_ablation(cfg)
        assert [r["row"] for r in rows] == ["te-full", "te-topk",
                                            "context-topk", "parallel-topk"]
        assert [r["pool"] for r in rows] == ["full", "top3", "top3", "top3"]
        grids.append((tmp_path / run / "ablation.csv").read_bytes())
    assert grids[0] == grids[1]


def test_criterion_10_augmented_gold_covers_k_distinct_positions():
    space = word_space(10)
    instances = word_instances(space, 10, seed=12)
    vocab = fit_vocab(space, instances)
    rng = np.random.default_rng(13)
    for _ in range(300):
        inst = instances[int(rng.integers(len(instances)))]
        gold = next(iter(inst.gold))
        others = [i for i in range(len(space)) if i not in inst.gold]
        m = int(rng.integers(1, 9))
        options = [gold] + others[:m - 1]
        k = int(rng.integers(1, m + 1))
        layouts = shuffle_augment(inst, options, k, rng, space, vocab, 128)
        assert len(layouts) == k
        slots = {lay.option_indices.index(gold) for lay in layouts}
        assert len(slots) == k
