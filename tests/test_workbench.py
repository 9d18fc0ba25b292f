"""Synthetic data generator, bundle IO, CLI pipeline, report rendering."""

import json
import os

import numpy as np
import pytest

from entsel.errors import DataError, NumericError
from entsel.text import UNK_ID
from entsel.workbench import cli, datafiles, pipeline, reports
from entsel.workbench.synth import PROFILES, brute_force_gold, space_corpus, synth

TINY_OVERRIDES = {"layers": 2, "heads": 2, "model_dim": 8, "ff_dim": 16,
                  "max_len": 64, "dropout": 0.0, "epochs": 2, "batch_size": 4,
                  "paradigm": "parallel", "k": 3, "bi_epochs": 1}


def make_bundle(directory, n_train=10, n_dev=4, n_test=4, seed=1):
    splits, space = synth("single_small", n_options=6, n_train=n_train,
                          n_dev=n_dev, n_test=n_test, seed=seed)
    datafiles.write_bundle(str(directory), splits, space)
    datafiles.build_bundle_vocab(str(directory))
    return splits, space


def make_config(path, data_dir, out_dir, **extra):
    payload = {"data_dir": str(data_dir), "out_dir": str(out_dir),
               **TINY_OVERRIDES, **extra}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return str(path)


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


def test_profiles_cover_the_three_regimes():
    assert PROFILES["single_small"].gold_high == 1
    assert PROFILES["multi_large"].gold_high == 4
    assert PROFILES["multi_large"].with_entity
    assert PROFILES["longdoc"].premise_low == 100


def test_synth_gold_matches_brute_force_rule():
    splits, space = synth("single_small", n_options=12, n_train=30, n_dev=5,
                          n_test=5, seed=2)
    for insts in splits.values():
        for inst in insts:
            assert brute_force_gold(inst.premise, space) == inst.gold
            assert len(inst.gold) == 1


def test_synth_premise_lengths_within_profile():
    splits, _ = synth("single_small", n_options=8, n_train=40, n_dev=1,
                      n_test=1, seed=3)
    lengths = [len(inst.premise.split()) for inst in splits["train"]]
    assert min(lengths) >= 5 and max(lengths) <= 9
    assert len(set(lengths)) > 1


def test_synth_multi_profile_golds_and_entity():
    splits, space = synth("multi_large", n_options=20, n_train=40, n_dev=2,
                          n_test=2, seed=4)
    gold_sizes = set()
    for inst in splits["train"]:
        gold_sizes.add(len(inst.gold))
        assert 1 <= len(inst.gold) <= 4
        assert inst.entity is not None and inst.entity in inst.premise.split()
        assert brute_force_gold(inst.premise, space) == inst.gold
    assert len(gold_sizes) >= 3  # the size range is actually exercised


def test_synth_reproducible_per_seed():
    a, _ = synth("single_small", n_options=6, n_train=8, n_dev=2, n_test=2, seed=9)
    b, _ = synth("single_small", n_options=6, n_train=8, n_dev=2, n_test=2, seed=9)
    c, _ = synth("single_small", n_options=6, n_train=8, n_dev=2, n_test=2, seed=10)
    assert [i.premise for i in a["train"]] == [i.premise for i in b["train"]]
    assert [i.gold for i in a["train"]] == [i.gold for i in b["train"]]
    assert [i.premise for i in a["train"]] != [i.premise for i in c["train"]]


def test_synth_validation():
    with pytest.raises(DataError):
        synth("no_such_profile")
    with pytest.raises(DataError):
        synth("multi_large", n_options=4)  # must exceed gold_high
    with pytest.raises(DataError):
        synth("single_small", n_options=6, n_train=0)


# ---------------------------------------------------------------------------
# bundle files and run config
# ---------------------------------------------------------------------------


def test_bundle_round_trip(tmp_path):
    splits, space = synth("multi_large", n_options=10, n_train=6, n_dev=3,
                          n_test=3, seed=5)
    datafiles.write_bundle(str(tmp_path), splits, space)
    back_splits, back_space, vocab = datafiles.read_bundle(str(tmp_path))
    assert vocab is None  # no vocab.txt yet
    assert back_space.options == space.options
    assert back_space.template == space.template
    assert back_space.name == space.name
    for split in ("train", "dev", "test"):
        for a, b in zip(splits[split], back_splits[split]):
            assert (a.id, a.premise, a.gold, a.entity) == (b.id, b.premise,
                                                           b.gold, b.entity)


def test_bundle_vocab_covers_train_and_space(tmp_path):
    splits, space = make_bundle(tmp_path)
    _, _, vocab = datafiles.read_bundle(str(tmp_path), require_vocab=True)
    for inst in splits["train"]:
        assert UNK_ID not in vocab.encode(inst.premise)
    for line in space_corpus(space):
        assert UNK_ID not in vocab.encode(line)


def test_read_bundle_requires_vocab_when_asked(tmp_path):
    splits, space = synth("single_small", n_options=6, n_train=4, n_dev=2,
                          n_test=2, seed=6)
    datafiles.write_bundle(str(tmp_path), splits, space)
    with pytest.raises(DataError):
        datafiles.read_bundle(str(tmp_path), require_vocab=True)


def test_read_instances_rejects_bad_records(tmp_path):
    path = tmp_path / "train.jsonl"
    path.write_text('{"id": "a", "text": "x", "gold": [0]}\n'
                    '{"id": "a", "text": "y", "gold": [1]}\n')
    with pytest.raises(DataError):
        datafiles.read_instances(path)
    path.write_text('{"id": "a", "gold": [0]}\n')
    with pytest.raises(DataError):
        datafiles.read_instances(path)


def test_run_config_load_and_overrides(tmp_path):
    cfg_path = make_config(tmp_path / "run.json", "d", "o")
    cfg = datafiles.load_run_config(cfg_path)
    assert cfg.model_dim == 8 and cfg.paradigm == "parallel"
    cfg = datafiles.load_run_config(cfg_path, overrides=["epochs=7", "tau=0.3",
                                                         "calibrate=true",
                                                         "early_stop=none"])
    assert cfg.epochs == 7 and cfg.tau == 0.3
    assert cfg.calibrate is True and cfg.early_stop is None
    with pytest.raises(DataError):
        datafiles.load_run_config(cfg_path, overrides=["epochs"])
    with pytest.raises(DataError):
        datafiles.load_run_config(cfg_path, overrides=["no_such_key=1"])
    with pytest.raises(DataError):
        datafiles.load_run_config(cfg_path, overrides=["calibrate=maybe"])
    for item in ("epochs=abc", "batch_size=1.5", "tau=high", "early_stop=soon"):
        with pytest.raises(DataError, match=item.split("=")[0]):
            datafiles.load_run_config(cfg_path, overrides=[item])


def test_run_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"data_dir": "d", "out_dir": "o", "leraning_rate": 0.1}')
    with pytest.raises(DataError):
        datafiles.load_run_config(str(path))
    path.write_text('{"data_dir": "d", "out_dir": "o"')
    with pytest.raises(DataError):
        datafiles.load_run_config(str(path))


# ---------------------------------------------------------------------------
# CLI pipeline end to end
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def run_area(tmp_path_factory):
    """One bundle plus one full train/eval/bench/report chain, shared read-only."""
    root = tmp_path_factory.mktemp("runs")
    data_dir = root / "data"
    out_dir = root / "out"
    assert cli.main(["synth", "--profile", "single_small", "--out", str(data_dir),
                     "--n-options", "6", "--n-train", "10", "--n-dev", "4",
                     "--n-test", "4", "--seed", "1"]) == 0
    assert cli.main(["build-vocab", "--data", str(data_dir)]) == 0
    cfg_path = make_config(root / "run.json", data_dir, out_dir,
                           bench_repetitions=3, bench_limit=2)
    for verb in ("train", "eval", "bench"):
        assert cli.main([verb, "--config", cfg_path]) == 0
    assert cli.main(["report", "--run", str(out_dir)]) == 0
    return root, data_dir, out_dir, cfg_path


def test_cli_chain_writes_all_artifacts(run_area):
    _, _, out_dir, _ = run_area
    for name in ("model.bin", "loss.csv", "manifest.txt", "resolved_config.json",
                 "predictions.jsonl", "metrics.json", "bench.csv",
                 "loss_smoothed.csv", "report.md"):
        assert (out_dir / name).exists(), name
    payload = json.loads((out_dir / "metrics.json").read_text())
    assert payload["paradigm"] == "parallel"
    assert 0.0 <= payload["metrics"]["accuracy"] <= 1.0
    assert payload["forward_passes"] == 4 * 2  # 4 test cases, ceil(6/3) chunks
    lines = (out_dir / "bench.csv").read_text().splitlines()
    assert lines[0] == "paradigm,n,k,passes,tokens,seconds_per_case"
    assert len(lines) == 3 and lines[1].startswith("te,6,1,6,")
    assert lines[2].startswith("parallel,6,3,2,")


def test_cli_eval_reuses_checkpoint(run_area):
    root, _, out_dir, cfg_path = run_area
    before = (out_dir / "model.bin").read_bytes()
    assert cli.main(["eval", "--config", cfg_path, "--set", "tau=0.4"]) == 0
    assert (out_dir / "model.bin").read_bytes() == before
    payload = json.loads((out_dir / "metrics.json").read_text())
    assert payload["tau"] == 0.4


def test_cli_usage_errors_exit_1(run_area):
    _, _, _, cfg_path = run_area
    assert cli.main([]) == 1
    assert cli.main(["synth", "--profile", "bogus", "--out", "x"]) == 1
    assert cli.main(["train"]) == 1
    assert cli.main(["sweep-k", "--config", cfg_path, "--ks", "two,4"]) == 1


def test_cli_data_errors_exit_2(run_area, tmp_path, capsys):
    root, data_dir, _, _ = run_area
    assert cli.main(["train", "--config", str(tmp_path / "nope.json")]) == 2
    assert cli.main(["synth", "--profile", "single_small", "--out",
                     str(tmp_path / "d"), "--n-train", "0"]) == 2
    bad_cfg = make_config(tmp_path / "c.json", data_dir, tmp_path / "empty")
    assert cli.main(["eval", "--config", bad_cfg]) == 2  # no checkpoint yet
    assert cli.main(["report", "--run", str(tmp_path / "empty")]) == 2
    for item in ("learning_rate=fast", "epochs=0", "batch_size=0"):
        capsys.readouterr()
        assert cli.main(["train", "--config", bad_cfg, "--set", item]) == 2, item
        assert item.split("=")[0] in capsys.readouterr().err, item


def test_cli_numeric_failures_exit_3(run_area, monkeypatch):
    _, _, _, cfg_path = run_area
    def explode(cfg):
        raise NumericError("non-finite training loss at step 0")
    monkeypatch.setattr(cli.pipeline, "train_run", explode)
    assert cli.main(["train", "--config", cfg_path]) == 3


# ---------------------------------------------------------------------------
# retrieval run, ablation grid, k sweep
# ---------------------------------------------------------------------------


def test_retrieve_run_artifacts(tmp_path):
    make_bundle(tmp_path / "data", n_train=12)
    cfg = datafiles.load_run_config(make_config(
        tmp_path / "c.json", tmp_path / "data", tmp_path / "out", retrieve_k=3))
    index, candidates = pipeline.retrieve_run(cfg)
    assert len(index) == 6
    for split in ("train", "dev", "test"):
        for pool in candidates[split].values():
            assert len(pool) == 3 and len(set(pool)) == 3
    out = tmp_path / "out"
    assert (out / "index.bin").exists() and (out / "candidates.json").exists()
    lines = (out / "recall.csv").read_text().splitlines()
    assert lines[0] == "split,k,recall"
    for line in lines[1:]:
        split, k, recall = line.split(",")
        assert split in ("dev", "test") and k == "3"
        assert 0.0 <= float(recall) <= 1.0


def test_ablation_rows_and_reproducibility(tmp_path):
    make_bundle(tmp_path / "data", n_train=8, n_dev=3, n_test=3)
    outs = []
    for run in ("a", "b"):
        cfg = datafiles.load_run_config(make_config(
            tmp_path / f"{run}.json", tmp_path / "data", tmp_path / run,
            retrieve_k=3, epochs=1, k=2))
        rows = pipeline.run_ablation(cfg)
        assert [r["row"] for r in rows] == ["te-full", "te-topk",
                                            "context-topk", "parallel-topk"]
        assert [r["pool"] for r in rows] == ["full", "top3", "top3", "top3"]
        # per-case pass counts reflect the pool size and chunking exactly
        assert rows[0]["passes_per_case"] == 6
        assert rows[1]["passes_per_case"] == 3
        assert rows[3]["passes_per_case"] == 2  # ceil(3/2)
        outs.append(tmp_path / run)
    for name in ("ablation.csv", "ablation.md"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    header = (outs[0] / "ablation.csv").read_text().splitlines()[0]
    assert header == "row,paradigm,pool,passes_per_case,accuracy"


def test_k_sweep_recall_monotone(tmp_path):
    make_bundle(tmp_path / "data", n_train=12)
    cfg = datafiles.load_run_config(make_config(
        tmp_path / "c.json", tmp_path / "data", tmp_path / "out",
        retrieve_k=3, epochs=1))
    ks = [1, 2, 4, 6]
    rows = pipeline.run_k_sweep(cfg, ks)
    assert [k for k, _, _ in rows] == ks
    recalls = [r for _, r, _ in rows]
    assert all(b >= a for a, b in zip(recalls, recalls[1:]))
    assert recalls[-1] == 1.0  # k = full space always contains the gold
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "k,recall,metric" and len(lines) == 5
    with pytest.raises(DataError):
        pipeline.run_k_sweep(cfg, [0])
    with pytest.raises(DataError):
        pipeline.run_k_sweep(cfg, [7])


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def test_gaussian_smooth_identity_and_constant():
    v = np.array([3.0, 1.0, 4.0, 1.5])
    assert np.array_equal(reports.gaussian_smooth(v, 0.0), v)
    got = reports.gaussian_smooth(np.full(20, 2.5), 3.0)
    assert np.abs(got - 2.5).max() < 1e-12
    with pytest.raises(DataError):
        reports.gaussian_smooth(np.ones((2, 2)), 1.0)


def test_gaussian_smooth_matches_windowed_oracle():
    rng = np.random.default_rng(20)
    v = rng.normal(size=60)
    for sigma in (0.5, 1.7, 4.0):
        got = reports.gaussian_smooth(v, sigma)
        r = max(1, int(np.ceil(4 * sigma)))
        want = np.empty_like(v)
        for i in range(v.size):
            js = np.arange(max(0, i - r), min(v.size, i + r + 1))
            w = np.exp(-((js - i) ** 2) / (2 * sigma * sigma))
            want[i] = np.dot(w, v[js]) / w.sum()
        assert np.abs(got - want).max() < 1e-12


def test_gaussian_smooth_reduces_total_variation():
    rng = np.random.default_rng(21)
    v = np.linspace(3, 0, 80) + rng.normal(scale=0.5, size=80)
    smoothed = reports.gaussian_smooth(v, 2.0)
    assert np.abs(np.diff(smoothed)).sum() < np.abs(np.diff(v)).sum()


def test_render_report_is_pure_function_of_artifacts(run_area):
    _, _, out_dir, _ = run_area
    reports.render_report(str(out_dir))
    first = (out_dir / "report.md").read_bytes()
    reports.render_report(str(out_dir))
    assert (out_dir / "report.md").read_bytes() == first
    assert b"## Training loss" in first and b"## Benchmark" in first
    with pytest.raises(DataError):
        reports.render_report(str(out_dir / "missing"))
