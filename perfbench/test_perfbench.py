"""Tests of the benchmark itself: run with `python3 -m pytest -q perfbench`."""

import json

import numpy as np
import pytest

import suite
import tracing
import workloads as wl
from entsel import inference


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_generator_is_byte_identical_per_seed(name):
    w = wl.WORKLOADS[name]
    first = wl.to_bytes(*wl.generate(w, 5))
    assert wl.to_bytes(*wl.generate(w, 5)) == first
    assert wl.to_bytes(*wl.generate(w, 6)) != first


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_every_stratum_has_the_same_gold_counts(name):
    w = wl.WORKLOADS[name]
    shapes = set()
    for seed in (1, 2):
        splits, _ = wl.generate(w, seed)
        for insts in splits.values():
            for start in range(0, len(insts), wl.STRATUM):
                block = insts[start:start + wl.STRATUM]
                shapes.add(tuple(sorted(len(i.gold) for i in block)))
    assert len(shapes) == 1


def _short_run(tmp_path):
    w = wl.WORKLOADS["short_pairs"]
    splits, space = wl.generate(w, 3)
    run = suite.Run(workload=w, splits=splits, space=space, work_dir=str(tmp_path),
                    rng=np.random.default_rng(3))
    suite._setup_op(run)(0)
    return run


def _eval_sample(run, mode):
    """One timed eval call: every test case scored, one of them also alone."""
    return suite._eval_op(mode)(run)(0)


def _tampered_evaluate(monkeypatch, tamper):
    real = inference.evaluate

    def evaluate(*args, **kwargs):
        result = real(*args, **kwargs)
        tamper(result)
        return result
    monkeypatch.setattr(inference, "evaluate", evaluate)


def test_untampered_eval_passes_its_checks(tmp_path):
    run = _short_run(tmp_path)
    _eval_sample(run, "te")
    _eval_sample(run, "parallel")
    assert run.tally.failed == 0 and run.tally.attempted > 0


@pytest.mark.parametrize("mode", ["te", "parallel"])
def test_tampered_score_fails_the_check(tmp_path, monkeypatch, mode):
    run = _short_run(tmp_path)

    def bump_scores(result):
        for rec in result.predictions:
            rec["scores"] = [[o, s + 1e-6] for o, s in rec["scores"]]
    _tampered_evaluate(monkeypatch, bump_scores)
    _eval_sample(run, mode)
    assert run.tally.failed > 0 and run.tally.fail_share > 0


@pytest.mark.parametrize("mode", ["te", "parallel"])
def test_tampered_pass_count_fails_the_check(tmp_path, monkeypatch, mode):
    run = _short_run(tmp_path)

    def extra_pass(result):
        result.ledger.forward_passes += 1
    _tampered_evaluate(monkeypatch, extra_pass)
    _eval_sample(run, mode)
    assert run.tally.failed == len(run.splits["test"]) and run.tally.fail_share > 0


def test_reference_check_flags_a_changed_score():
    recorded = {"te": {"c": [[0, 0.25], [1, 0.5]]}}
    assert suite.check_reference(recorded, recorded) == []
    drifted = {"te": {"c": [[0, 0.25], [1, 0.5 * (1 + 1e-8)]]}}
    assert len(suite.check_reference(drifted, recorded)) == 1
    tally = suite.Tally()
    tally.add(2, suite.check_reference(drifted, recorded), failed=1)
    assert tally.fail_share == 0.5


def test_brute_force_top_k_breaks_ties_toward_smaller_index():
    matrix = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.6, 0.8]])
    assert suite.brute_force_top_k(matrix, np.array([1.0, 0.0]), 3) == [0, 2, 3]


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((suite.REFERENCE_PATH.parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        suite.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS)


def test_tracer_wraps_every_binding_and_restores_them():
    from entsel import encoder, training

    original = encoder.encode_batch
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert training.encode_batch is not original
        assert inference.encode_batch is training.encode_batch
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    assert training.encode_batch is original and inference.encode_batch is original


def test_tracer_reports_a_missing_name_as_absent(monkeypatch):
    monkeypatch.setitem(tracing.WRAPPED, "encoder.gone", ("entsel.encoder", "no_such_fn"))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["encoder.gone"]

