"""Synthetic data generator, bundle IO, CLI pipeline, report rendering."""

import json
import os
import shutil
import struct

import numpy as np
import pytest

from entsel.encoder import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, EncoderModel, load_model
from entsel.errors import DataError, NumericError
from entsel.inference import EvalResult, write_csv, write_predictions
from entsel.text import UNK_ID
from entsel.training import TrainConfig, train, write_manifest
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


BAD_BUNDLE_FILES = (
    ("space.json", '{"name": "x", "template": '),  # truncated JSON
    ("space.json", '{"name": "x"}\n'),  # no template
    ("space.json", '["[LABEL]"]\n'),
    ("space.json", '{"template": "no label slot"}\n'),
    ("options.txt", b"red\n\xff\n"),
    ("vocab.txt", b"red\n\xff\n"),
    ("vocab.txt", "red\nred\n"),
    ("train.jsonl", b'{"id": "\xff", "text": "x", "gold": [0]}\n'),
    ("train.jsonl", '[0]\n'),
    ("train.jsonl", '{"id": 3, "text": "x", "gold": [0]}\n'),
    ("train.jsonl", '{"id": "a", "text": ["x"], "gold": [0]}\n'),
    ("train.jsonl", '{"id": "a", "text": "x", "gold": 0}\n'),
    ("train.jsonl", '{"id": "a", "text": "x", "gold": ["0"]}\n'),
    ("train.jsonl", '{"id": "a", "text": "x", "gold": [0.0]}\n'),
    ("train.jsonl", '{"id": "a", "text": "x", "gold": [true]}\n'),
    ("train.jsonl", '{"id": "a", "text": "x", "gold": [0], "entity": 1}\n'),
    ("train.jsonl", ""),
    ("dev.jsonl", "\n"),
    ("test.jsonl", ""),
    ("dev.jsonl", '{"id": "a", "text": "x", "gold": [-1]}\n'),
    ("test.jsonl", '{"id": "a", "text": "x", "gold": [6]}\n'),
)


def test_cli_bad_bundle_files_exit_2(tmp_path, capsys):
    make_bundle(tmp_path / "base")
    for case, (name, content) in enumerate(BAD_BUNDLE_FILES):
        data_dir = tmp_path / f"data{case}"
        shutil.copytree(tmp_path / "base", data_dir)
        path = data_dir / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        out_dir = tmp_path / f"out{case}"
        cfg_path = make_config(tmp_path / "c.json", data_dir, out_dir)
        # eval and bench read the bundle before the checkpoint, so they reject it too
        for verb in ("train", "eval", "bench"):
            capsys.readouterr()
            assert cli.main([verb, "--config", cfg_path]) == 2, (verb, name, content)
            err = capsys.readouterr().err
            assert str(path) in err and "Traceback" not in err, (verb, name, content, err)
            assert not out_dir.exists(), (verb, name, content)  # a rejected run writes nothing


class _Unprintable:
    def __format__(self, spec):
        raise RuntimeError("payload failed partway")


def _raising_rows():
    yield ("a", 1)
    raise RuntimeError("payload failed partway")


@pytest.mark.parametrize("write", [
    lambda path: datafiles.write_json(path, {"a": 1, "b": {1, 2}}),
    lambda path: write_csv(path, ("name", "value"), _raising_rows()),
    lambda path: write_predictions(path, EvalResult(metrics={}, ledger=None, predictions=[
        {"id": "x"}, {"id": {1}}])),
    lambda path: write_manifest(path, TrainConfig(mode="te"), {"zz": _Unprintable()}),
], ids=["write_json", "write_csv", "write_predictions", "write_manifest"])
def test_failed_write_keeps_previous_file(tmp_path, write):
    path = tmp_path / "artifact.txt"
    path.write_bytes(b"previous bytes\n")
    with pytest.raises((TypeError, RuntimeError)):
        write(path)
    assert path.read_bytes() == b"previous bytes\n"
    assert os.listdir(tmp_path) == ["artifact.txt"]  # no temp file left behind
    datafiles.write_json(path, {"a": 1})
    assert path.read_text() == '{"a": 1}\n' and os.listdir(tmp_path) == ["artifact.txt"]


def test_build_vocab_repairs_a_corrupt_vocab(tmp_path):
    make_bundle(tmp_path)
    good = (tmp_path / "vocab.txt").read_bytes()
    (tmp_path / "vocab.txt").write_bytes(b"red\n\xff\n")
    assert cli.main(["build-vocab", "--data", str(tmp_path)]) == 0
    assert (tmp_path / "vocab.txt").read_bytes() == good


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


def test_run_config_json_types_and_ranges(tmp_path):
    cfg = datafiles.load_run_config(make_config(tmp_path / "ok.json", "d", "o", tau=1,
                                                early_stop=None, learning_rate=1e-3))
    assert cfg.tau == 1 and cfg.early_stop is None
    for key, value in (("epochs", True), ("epochs", 2.0), ("epochs", "2"), ("tau", "0.5"),
                       ("calibrate", 1), ("calibrate", "yes"), ("early_stop", "none"),
                       ("paradigm", 3), ("retrieve_k", -1), ("bi_epochs", 0),
                       ("bi_batch_size", 1), ("bench_repetitions", 2), ("bench_limit", -1)):
        path = make_config(tmp_path / "bad.json", "d", "o", **{key: value})
        with pytest.raises(DataError, match=key) as info:
            datafiles.load_run_config(path)
        assert path in str(info.value)
    path = tmp_path / "missing.json"
    path.write_text('{"out_dir": "o"}')
    with pytest.raises(DataError, match="data_dir"):
        datafiles.load_run_config(str(path))
    for text in ("[]", "3"):
        path.write_text(text)
        with pytest.raises(DataError, match="JSON object"):
            datafiles.load_run_config(str(path))


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


def test_cli_checkpoint_equals_in_process_training(run_area):
    _, _, out_dir, cfg_path = run_area
    cfg = datafiles.load_run_config(cfg_path)
    bundle = pipeline.load_bundle_for(cfg)
    model = EncoderModel(bundle.enc_cfg, len(bundle.vocab))
    train(model, bundle.splits["train"], bundle.space, bundle.vocab,
          datafiles.train_config_from(cfg), dev=bundle.splits["dev"],
          multi_label=cfg.multi_label)
    want = model.named_parameters()
    got = load_model(str(out_dir / "model.bin")).named_parameters()
    assert sorted(got) == sorted(want)
    for name, param in want.items():
        assert got[name].data.tobytes() == param.data.tobytes(), name


def test_cli_eval_rejects_checkpoint_of_another_vocab(tmp_path, capsys):
    make_bundle(tmp_path / "data")
    cfg_path = make_config(tmp_path / "c.json", tmp_path / "data", tmp_path / "out")
    assert cli.main(["train", "--config", cfg_path]) == 0
    before = len((tmp_path / "data" / "vocab.txt").read_text().splitlines())
    assert cli.main(["build-vocab", "--data", str(tmp_path / "data"), "--min-count", "3"]) == 0
    assert len((tmp_path / "data" / "vocab.txt").read_text().splitlines()) < before
    for verb in ("eval", "bench"):
        capsys.readouterr()
        assert cli.main([verb, "--config", cfg_path]) == 2, verb
        err = capsys.readouterr().err
        assert str(tmp_path / "out" / "model.bin") in err, verb
        assert str(tmp_path / "data" / "vocab.txt") in err and "Traceback" not in err, verb
    assert not (tmp_path / "out" / "metrics.json").exists()


def _checkpoint_with_header(header, payload=b""):
    blob = json.dumps(header).encode("utf-8")
    return CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(blob)) + blob + payload


def test_cli_bad_checkpoints_exit_2(run_area, tmp_path, capsys):
    _, data_dir, out_dir, _ = run_area
    good = (out_dir / "model.bin").read_bytes()
    (blob_len,) = struct.unpack("<I", good[12:16])
    header = json.loads(good[16:16 + blob_len])
    payload = good[16 + blob_len:]

    def with_config(**fields):
        return {**header, "config": {**header["config"], **fields}}

    cases = [
        b"",
        b"NOTACKPT" + good[8:],
        good[:len(good) // 2],
        _checkpoint_with_header({**header, "vocab_size": 10**15}),  # ~200 bytes claiming PiBs
        _checkpoint_with_header({**header, "vocab_size": 10**15}, payload),
        _checkpoint_with_header(with_config(max_len=10**12), payload),
        _checkpoint_with_header(with_config(layers=10**12), payload),
        _checkpoint_with_header({**header, "vocab_size": 0}, payload),
        _checkpoint_with_header({**header, "vocab_size": -5}, payload),
        _checkpoint_with_header({**header, "vocab_size": 2.5}, payload),
        _checkpoint_with_header(with_config(model_dim=0), payload),
        _checkpoint_with_header(with_config(model_dim=-8), payload),
        _checkpoint_with_header(with_config(ff_dim=-16), payload),
        _checkpoint_with_header(with_config(layers=0), payload),
        _checkpoint_with_header(with_config(max_len=0), payload),
    ]
    for case, content in enumerate(cases):
        case_out = tmp_path / f"out{case}"
        shutil.copytree(out_dir, case_out)
        ckpt = case_out / "model.bin"
        ckpt.write_bytes(content)
        cfg_path = make_config(tmp_path / "c.json", data_dir, case_out)
        capsys.readouterr()
        assert cli.main(["eval", "--config", cfg_path]) == 2, case
        err = capsys.readouterr().err
        assert str(ckpt) in err and "Traceback" not in err, (case, err)


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
    capsys.readouterr()
    assert cli.main(["train", "--config", str(tmp_path)]) == 2  # a directory
    assert str(tmp_path) in capsys.readouterr().err
    (tmp_path / "latin1.json").write_bytes(b'{"data_dir": "\xff"}')
    assert cli.main(["train", "--config", str(tmp_path / "latin1.json")]) == 2
    assert str(tmp_path / "latin1.json") in capsys.readouterr().err
    assert cli.main(["synth", "--profile", "single_small", "--out",
                     str(tmp_path / "d"), "--n-train", "0"]) == 2
    bad_cfg = make_config(tmp_path / "c.json", data_dir, tmp_path / "empty")
    assert cli.main(["eval", "--config", bad_cfg]) == 2  # no checkpoint yet
    assert cli.main(["report", "--run", str(tmp_path / "empty")]) == 2
    for item in ("learning_rate=fast", "epochs=0", "batch_size=0", "bi_batch_size=0",
                 "bi_batch_size=1", "bi_epochs=0", "max_len=2"):
        capsys.readouterr()
        assert cli.main(["train", "--config", bad_cfg, "--set", item]) == 2, item
        assert item.split("=")[0] in capsys.readouterr().err, item
    # every TrainConfig rule runs at load, and the max_len floor (one option, or
    # min(k, pool) of them for a parallel fit) before a run opens: a rejected
    # config writes nothing, not even resolved_config.json or the retrieval pools
    for verb, items in (("train", ["epochs=0"]), ("train", ["paradigm=bogus"]),
                        ("train", ["paradigm=parallel", "k=0"]),
                        ("train", ["paradigm=te", "augment=true"]),
                        ("train", ["retrieve_k=3", "epochs=0"]),
                        ("ablate", ["retrieve_k=3", "augment=true"]),
                        ("train", ["max_len=2"]),  # [CLS] P [SEP] H [SEP] needs 6 here
                        ("train", ["paradigm=parallel", "max_len=5"]),
                        # min(k, pool) = 6 two-token options need 21 tokens
                        ("train", ["paradigm=parallel", "k=8", "max_len=10"]),
                        ("ablate", ["retrieve_k=3", "max_len=10"])):  # 3 options: 12
        sets = [arg for item in items for arg in ("--set", item)]
        capsys.readouterr()
        assert cli.main([verb, "--config", bad_cfg, *sets]) == 2, items
        assert "Traceback" not in capsys.readouterr().err, items
        assert not (tmp_path / "empty").exists(), items
    # a TrainConfig rule names the run-config key it rejects (mode is paradigm)
    for items, key in ((["paradigm=bogus"], "paradigm"),
                       (["paradigm=te", "augment=true"], "augment")):
        sets = [arg for item in items for arg in ("--set", item)]
        capsys.readouterr()
        assert cli.main(["train", "--config", bad_cfg, *sets]) == 2, items
        assert f"{bad_cfg}: {key}: " in capsys.readouterr().err, items
    for key, value in (("epochs", "2"), ("calibrate", "yes")):
        typed_cfg = make_config(tmp_path / f"{key}.json", data_dir, tmp_path / "typed",
                                **{key: value})
        capsys.readouterr()
        assert cli.main(["train", "--config", typed_cfg]) == 2, key
        err = capsys.readouterr().err
        assert key in err and typed_cfg in err, key


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
    candidates = pipeline.retrieve_run(cfg)
    for split in ("train", "dev", "test"):
        for pool in candidates[split].values():
            assert len(pool) == 3 and len(set(pool)) == 3 and set(pool) <= set(range(6))
    out = tmp_path / "out"
    assert (out / "candidates.json").exists()
    assert not (out / "index.bin").exists()  # nothing could read it back
    lines = (out / "recall.csv").read_text().splitlines()
    assert lines[0] == "split,k,recall"
    for line in lines[1:]:
        split, k, recall = line.split(",")
        assert split in ("dev", "test") and k == "3"
        assert 0.0 <= float(recall) <= 1.0
    # retrieve builds no pair layout, so a max_len too short for one still runs
    pipeline.retrieve_run(datafiles.load_run_config(make_config(
        tmp_path / "s.json", tmp_path / "data", tmp_path / "short", retrieve_k=3, max_len=2)))
    assert (tmp_path / "short" / "candidates.json").exists()


def test_cli_eval_rejects_bad_candidates_file(tmp_path, capsys):
    make_bundle(tmp_path / "data")
    cfg_path = make_config(tmp_path / "c.json", tmp_path / "data", tmp_path / "out",
                           retrieve_k=3)
    assert cli.main(["train", "--config", cfg_path]) == 0
    path = tmp_path / "out" / "candidates.json"
    text = path.read_text()

    def eval_exit(content, *extra):
        path.write_text(content)
        capsys.readouterr()
        code = cli.main(["eval", "--config", cfg_path, *extra])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err

    assert eval_exit(text)[0] == 0
    for n in range(len(text.rstrip())):  # every strict prefix of the JSON
        code, err = eval_exit(text[:n])
        assert code == 2 and str(path) in err, n
    payload = json.loads(text)
    missing = sorted(payload["splits"]["test"])[0]
    del payload["splits"]["test"][missing]
    code, err = eval_exit(json.dumps(payload))
    assert code == 2 and str(path) in err and missing in err
    code, err = eval_exit(text, "--set", "retrieve_k=2")
    assert code == 2 and str(path) in err and "retrieve_k" in err
    # pools carry the fingerprint of the space they index: a file without one,
    # or pools from a same-size space with other labels, are refused
    payload = json.loads(text)
    del payload["space"]
    code, err = eval_exit(json.dumps(payload))
    assert code == 2 and str(path) in err and "re-run retrieve" in err
    options_path = tmp_path / "data" / "options.txt"
    options = options_path.read_text()
    options_path.write_text("".join(reversed(options.splitlines(keepends=True))))
    code, err = eval_exit(text)
    assert code == 2 and str(path) in err and "re-run retrieve" in err
    options_path.write_text(options)

    # retrieve_k alone decides whether the pools on disk are read
    out = tmp_path / "out"
    assert json.loads((out / "metrics.json").read_text())["forward_passes"] == 4  # 4 x 1
    assert cli.main(["eval", "--config", cfg_path, "--set", "retrieve_k=0"]) == 0
    assert json.loads((out / "metrics.json").read_text())["forward_passes"] == 8  # 4 x 2
    assert cli.main(["bench", "--config", cfg_path]) == 0
    assert (out / "bench.csv").read_text().splitlines()[1].startswith("te,3,1,3,")
    assert cli.main(["bench", "--config", cfg_path, "--set", "retrieve_k=0"]) == 0
    assert (out / "bench.csv").read_text().splitlines()[1].startswith("te,6,1,6,")
    path.unlink()
    for verb in ("eval", "bench"):
        capsys.readouterr()
        assert cli.main([verb, "--config", cfg_path]) == 2, verb
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err, verb
    assert cli.main(["eval", "--config", cfg_path, "--set", "retrieve_k=0"]) == 0


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


def test_tau_is_calibrated_exactly_when_asked(tmp_path, monkeypatch):
    splits, space = synth("multi_large", n_options=8, n_train=8, n_dev=3, n_test=3, seed=2)
    datafiles.write_bundle(str(tmp_path / "data"), splits, space)
    datafiles.build_bundle_vocab(str(tmp_path / "data"))
    cfg_path = make_config(tmp_path / "c.json", tmp_path / "data", tmp_path / "out",
                           multi_label=True, retrieve_k=4, epochs=1, tau=0.5)
    calls = []

    def fake_calibrate(*args, **kwargs):
        calls.append(kwargs["mode"])
        return 0.25
    monkeypatch.setattr(pipeline, "calibrate_threshold", fake_calibrate)
    assert cli.main(["train", "--config", cfg_path]) == 0
    for verb, extra, n_fits in (("eval", [], 1), ("ablate", [], 4),
                                ("sweep-k", ["--ks", "2,4"], 2)):
        for calibrate, want in (("false", 0), ("true", n_fits)):
            calls.clear()
            assert cli.main([verb, "--config", cfg_path, "--set",
                             f"calibrate={calibrate}", *extra]) == 0, verb
            assert len(calls) == want, (verb, calibrate, calls)
            if verb == "eval":
                tau = json.loads((tmp_path / "out" / "metrics.json").read_text())["tau"]
                assert tau == (0.25 if want else 0.5)


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


BAD_REPORT_FILES = (  # (file, content, text the message must hold besides the path)
    ("metrics.json", '{"metrics": {"accuracy": 0.5', ""),  # truncated
    ("metrics.json", "[1, 2]", ""),
    ("metrics.json", '{"metrics": 3}', ""),
    ("loss.csv", "step,loss\n0,abc\n", ":2"),
    ("loss.csv", "step,loss\n0,1.5\n1\n", ":3"),
    ("loss.csv", "step,loss\n", ""),
)


def test_cli_report_bad_artifacts_exit_2(run_area, tmp_path, capsys):
    _, _, out_dir, _ = run_area
    for case, (name, content, where) in enumerate(BAD_REPORT_FILES):
        run_dir = tmp_path / f"run{case}"
        run_dir.mkdir()
        for artifact in ("loss.csv", "metrics.json"):
            shutil.copy(out_dir / artifact, run_dir / artifact)
        (run_dir / name).write_text(content)
        capsys.readouterr()
        assert cli.main(["report", "--run", str(run_dir)]) == 2, (name, content)
        err = capsys.readouterr().err
        assert f"{run_dir / name}{where}" in err and "Traceback" not in err, (name, content, err)
        assert not (run_dir / "report.md").exists(), (name, content)


def test_render_report_is_pure_function_of_artifacts(run_area):
    _, _, out_dir, _ = run_area
    reports.render_report(str(out_dir))
    first = (out_dir / "report.md").read_bytes()
    reports.render_report(str(out_dir))
    assert (out_dir / "report.md").read_bytes() == first
    assert b"## Training loss" in first and b"## Benchmark" in first
    with pytest.raises(DataError):
        reports.render_report(str(out_dir / "missing"))
