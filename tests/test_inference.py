"""Scoring paths, selection rules, ledger arithmetic, benchmark harness."""

import json
import math
import statistics

import numpy as np
import pytest

from entsel.encoder import EncoderModel
from entsel.errors import DataError
from entsel.inference import (BenchRow, CostLedger, ParadigmConfig,
                              ScoredOption, bench, evaluate,
                              example_averaged_prf, score_pairwise,
                              score_parallel, select_multi, select_single,
                              write_bench_csv, write_predictions)
from entsel.pairing import make_te_pair

from conftest import TINY, small_instances, small_space, vocab_for


@pytest.fixture(scope="module")
def setup():
    space = small_space(n=7)
    instances = small_instances(space, n=6, seed=9)
    vocab = vocab_for(space, instances)
    return space, instances, vocab, EncoderModel(TINY, len(vocab))


# ---------------------------------------------------------------------------
# scoring and the cost ledger
# ---------------------------------------------------------------------------


def test_pairwise_ledger_counts_one_pass_per_option(setup):
    space, instances, vocab, model = setup
    inst = instances[0]
    options = list(range(len(space)))
    scored, ledger = score_pairwise(model, inst, options, "te", space, vocab)
    assert ledger.forward_passes == len(options)
    assert [so.index for so in scored] == options
    want_tokens = sum(len(make_te_pair(inst, i, space, vocab, TINY.max_len).ids)
                      for i in options)
    assert ledger.tokens_processed == want_tokens
    with pytest.raises(DataError):
        score_pairwise(model, inst, options, "parallel", space, vocab)


def test_parallel_ledger_counts_chunks(setup):
    space, instances, vocab, model = setup
    inst = instances[0]
    n = len(space)
    for k in (1, 2, 3, n, n + 5):
        scored, ledger = score_parallel(model, inst, range(n), k, space, vocab)
        assert ledger.forward_passes == math.ceil(n / k)
        assert len(scored) == n
    with pytest.raises(DataError):
        score_parallel(model, inst, range(n), 0, space, vocab)


def test_pairwise_scores_are_per_option_local(setup):
    space, instances, vocab, model = setup
    inst = instances[1]
    base, _ = score_pairwise(model, inst, [0, 1, 2, 3], "te", space, vocab)
    perm, _ = score_pairwise(model, inst, [3, 1, 0, 2], "te", space, vocab)
    lookup = {so.index: so.score for so in base}
    assert all(lookup[so.index] == so.score for so in perm)


def test_parallel_k1_scores_are_order_invariant(setup):
    space, instances, vocab, model = setup
    inst = instances[2]
    base, _ = score_parallel(model, inst, [0, 1, 2, 3], 1, space, vocab)
    perm, _ = score_parallel(model, inst, [2, 3, 0, 1], 1, space, vocab)
    lookup = {so.index: so.score for so in base}
    assert all(lookup[so.index] == so.score for so in perm)


def test_context_mode_scores_like_te_at_inference(setup):
    space, instances, vocab, model = setup
    inst = instances[3]
    a, _ = score_pairwise(model, inst, [0, 1, 2], "te", space, vocab)
    b, _ = score_pairwise(model, inst, [0, 1, 2], "context", space, vocab)
    assert a == b  # no competing context is appended at inference time


def test_ledger_merge():
    a = CostLedger(forward_passes=2, tokens_processed=30)
    a.merge(CostLedger(forward_passes=3, tokens_processed=12))
    assert (a.forward_passes, a.tokens_processed) == (5, 42)


def test_paradigm_config_validation():
    with pytest.raises(DataError):
        ParadigmConfig(mode="vote")
    with pytest.raises(DataError):
        ParadigmConfig(mode="parallel", k=None)


# ---------------------------------------------------------------------------
# selection rules
# ---------------------------------------------------------------------------


def test_select_single_ties_to_smallest_index():
    scored = [ScoredOption(2, 0.7), ScoredOption(0, 0.7), ScoredOption(1, 0.3)]
    assert select_single(scored) == 0
    assert select_single([ScoredOption(5, 0.1)]) == 5
    with pytest.raises(DataError):
        select_single([])


def test_select_single_invariant_under_monotone_rescale():
    rng = np.random.default_rng(17)
    for _ in range(30):
        scored = [ScoredOption(i, float(s)) for i, s in enumerate(rng.uniform(size=6))]
        scaled = [ScoredOption(so.index, so.score * 0.4 + 0.1) for so in scored]
        assert select_single(scored) == select_single(scaled)


def test_select_multi_strict_threshold_and_antitone():
    scored = [ScoredOption(0, 0.9), ScoredOption(1, 0.5), ScoredOption(2, 0.2)]
    assert select_multi(scored, 0.5) == {0}  # 0.5 is not strictly above
    assert select_multi(scored, 0.1) == {0, 1, 2}
    taus = [0.1, 0.3, 0.5, 0.7, 0.95]
    picks = [select_multi(scored, tau) for tau in taus]
    assert all(b <= a for a, b in zip(picks, picks[1:]))
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(DataError):
            select_multi(scored, bad)


# ---------------------------------------------------------------------------
# metrics and evaluation
# ---------------------------------------------------------------------------


def test_example_averaged_prf_closed_forms():
    p, r, f1 = example_averaged_prf([[0, 1]], [[0]])
    assert (p, r) == (0.5, 1.0) and f1 == pytest.approx(2 / 3)
    p, r, f1 = example_averaged_prf([[0], [1]], [[0], [2]])
    assert (p, r, f1) == (0.5, 0.5, 0.5)
    # empty prediction drops out of precision but not recall
    p, r, _ = example_averaged_prf([[], [0]], [[1], [0]])
    assert (p, r) == (1.0, 0.5)
    # empty gold contributes a full recall term
    _, r, _ = example_averaged_prf([[]], [[]])
    assert r == 1.0
    assert example_averaged_prf([], []) == (0.0, 0.0, 0.0)


def test_evaluate_accuracy_recomputable_from_predictions(setup):
    space, instances, vocab, model = setup
    cfg = ParadigmConfig(mode="te")
    res = evaluate(model, instances, space, vocab, cfg)
    assert res.metrics["n"] == len(instances)
    recomputed = 0
    for rec, inst in zip(res.predictions, instances):
        assert rec["id"] == inst.id
        assert rec["gold"] == sorted(inst.gold)
        assert len(rec["scores"]) == len(space)
        argmax = select_single([ScoredOption(i, s) for i, s in rec["scores"]])
        assert rec["prediction"] == argmax
        recomputed += int(argmax in inst.gold)
    assert res.metrics["accuracy"] == recomputed / len(instances)
    assert res.ledger.forward_passes == len(instances) * len(space)


def test_evaluate_multilabel_recomputable(setup):
    space, instances, vocab, model = setup
    cfg = ParadigmConfig(mode="parallel", k=3, tau=0.4)
    res = evaluate(model, instances, space, vocab, cfg, multi_label=True)
    preds = [rec["prediction"] for rec in res.predictions]
    golds = [rec["gold"] for rec in res.predictions]
    p, r, f1 = example_averaged_prf(preds, golds)
    assert res.metrics["precision"] == p
    assert res.metrics["recall"] == r
    assert res.metrics["f1"] == f1
    for rec in res.predictions:
        want = {i for i, s in rec["scores"] if s > 0.4}
        assert set(rec["prediction"]) == want


def test_evaluate_respects_candidate_lists(setup):
    space, instances, vocab, model = setup
    cands = {inst.id: sorted(inst.gold)[:1] + [0, 1] for inst in instances}
    cands = {k: sorted(set(v)) for k, v in cands.items()}
    cfg = ParadigmConfig(mode="te", candidates=cands)
    res = evaluate(model, instances, space, vocab, cfg)
    for rec, inst in zip(res.predictions, instances):
        assert [i for i, _ in rec["scores"]] == cands[inst.id]


def test_write_predictions_jsonl(setup, tmp_path):
    space, instances, vocab, model = setup
    res = evaluate(model, instances, space, vocab,
                   ParadigmConfig(mode="parallel", k=4, tau=0.5), multi_label=True)
    path = tmp_path / "preds.jsonl"
    write_predictions(path, res)
    lines = path.read_text().splitlines()
    assert len(lines) == len(instances)
    for line, rec in zip(lines, res.predictions):
        parsed = json.loads(line)
        assert parsed["id"] == rec["id"]
        assert parsed["prediction"] == list(rec["prediction"])
        assert parsed["gold"] == rec["gold"]


# ---------------------------------------------------------------------------
# benchmark harness
# ---------------------------------------------------------------------------


def test_bench_rows_and_ledger_exactness(setup):
    space, instances, vocab, model = setup
    n = len(space)
    configs = [ParadigmConfig(mode="te"), ParadigmConfig(mode="parallel", k=3)]
    rows = bench(model, instances, space, vocab, configs, repetitions=3)
    te_row, par_row = rows
    assert te_row.paradigm == "te" and te_row.n == n and te_row.k == 1
    assert te_row.passes_per_case == n
    assert par_row.paradigm == "parallel" and par_row.k == 3
    assert par_row.passes_per_case == math.ceil(n / 3)
    for row in rows:
        assert len(row.rep_seconds) == 3
        assert row.seconds_per_case == statistics.median(row.rep_seconds) / len(instances)
        assert row.tokens_per_case > 0
    with pytest.raises(DataError):
        bench(model, instances, space, vocab, configs, repetitions=2)


def test_bench_repetitions_are_stable(setup):
    space, instances, vocab, model = setup
    rows = bench(model, instances * 3, space, vocab,
                 [ParadigmConfig(mode="parallel", k=4)], repetitions=4)
    reps = rows[0].rep_seconds
    assert max(reps) / min(reps) < 1.5


def test_write_bench_csv(setup, tmp_path):
    path = tmp_path / "bench.csv"
    rows = [BenchRow(paradigm="te", n=10, k=1, passes_per_case=10.0,
                     tokens_per_case=400.0, seconds_per_case=0.012)]
    write_bench_csv(path, rows)
    text = path.read_text().splitlines()
    assert text[0] == "paradigm,n,k,passes,tokens,seconds_per_case"
    assert text[1] == "te,10,1,10,400,0.012"
