"""Encoder forward contracts: shapes, determinism, pooling, batched parity."""

import numpy as np
import pytest

from entsel.encoder import (EncoderConfig, EncoderModel, bi_encode,
                            bi_encode_rows, classify_pair,
                            classify_pairs_batch, cls_vector, encode_batch,
                            encode_tokens, load_model, save_model,
                            score_options, score_options_batch, span_mean_pool)
from entsel.errors import DataError, LayoutError, ShapeError
from entsel.text import CLS_ID, SEP_ID

from conftest import TINY


def make_model(config=TINY, vocab_size=20):
    return EncoderModel(config, vocab_size)


def test_config_validation():
    with pytest.raises(DataError):
        EncoderConfig(heads=3, model_dim=8)  # 8 % 3 != 0
    with pytest.raises(DataError):
        EncoderConfig(layers=0)
    with pytest.raises(DataError):
        EncoderConfig(dropout=1.0)


def test_encode_shape_and_input_checks():
    model = make_model()
    reps = encode_tokens(model, [CLS_ID, 5, 6, SEP_ID])
    assert reps.shape == (4, TINY.model_dim)
    with pytest.raises(ShapeError):
        encode_tokens(model, [])
    with pytest.raises(LayoutError):
        encode_tokens(model, [5] * (TINY.max_len + 1))
    with pytest.raises(DataError):
        encode_tokens(model, [5, 99])  # vocab_size is 20


def test_eval_mode_is_deterministic():
    model = make_model(EncoderConfig(layers=2, heads=2, model_dim=8, ff_dim=16,
                                     max_len=64, dropout=0.5, seed=0), 20)
    ids = [CLS_ID, 4, 5, 6, SEP_ID]
    a = encode_tokens(model, ids).data
    b = encode_tokens(model, ids).data
    assert np.array_equal(a, b)
    # train_mode with dropout>0 must actually perturb
    c = encode_tokens(model, ids, train_mode=True).data
    assert not np.array_equal(a, c)


def test_same_seed_same_parameters():
    a, b = make_model(), make_model()
    for name, p in a.named_parameters().items():
        assert np.array_equal(p.data, b.named_parameters()[name].data)


def test_permutation_equivariance_without_positions():
    cfg = EncoderConfig(layers=2, heads=2, model_dim=8, ff_dim=16, max_len=64,
                        dropout=0.0, use_positions=False, seed=3)
    model = EncoderModel(cfg, 30)
    rng = np.random.default_rng(5)
    for _ in range(10):
        ids = rng.integers(4, 30, size=9)
        perm = rng.permutation(9)
        base = encode_tokens(model, ids).data
        permuted = encode_tokens(model, ids[perm]).data
        assert np.abs(permuted - base[perm]).max() < 1e-9


def test_positions_break_permutation_equivariance():
    model = make_model()
    ids = np.array([4, 5, 6, 7])
    base = encode_tokens(model, ids).data
    swapped = encode_tokens(model, ids[[1, 0, 2, 3]]).data
    assert np.abs(swapped - base[[1, 0, 2, 3]]).max() > 1e-6


def test_cls_vector_is_row_zero():
    model = make_model()
    reps = encode_tokens(model, [CLS_ID, 4, 5])
    assert np.array_equal(cls_vector(reps).data, reps.data[0])
    with pytest.raises(ShapeError):
        cls_vector(cls_vector(reps))  # 1-D input


def test_span_mean_pool_matches_manual_mean():
    model = make_model()
    reps = encode_tokens(model, [CLS_ID, 4, 5, 6, 7, SEP_ID])
    got = span_mean_pool(reps, (2, 5)).data
    assert np.abs(got - reps.data[2:5].mean(axis=0)).max() < 1e-12


def test_classify_pair_probabilities():
    model = make_model()
    reps = encode_tokens(model, [CLS_ID, 4, 5, SEP_ID, 6, SEP_ID])
    probs = classify_pair(model, reps).data
    assert probs.shape == (2,) and abs(probs.sum() - 1.0) < 1e-9
    assert np.all(probs > 0.0)
    # zeroed head gives exactly even odds regardless of the encoding
    model.cls_w.data[:] = 0.0
    model.cls_b.data[:] = 0.0
    probs = classify_pair(model, reps).data
    assert np.array_equal(probs, [0.5, 0.5])


def test_score_options_zero_scorer_and_shapes():
    model = make_model()
    reps = encode_tokens(model, [CLS_ID, 4, 5, SEP_ID, 6, 7, SEP_ID, 8, SEP_ID])
    scores = score_options(model, reps, [(4, 6), (7, 8)]).data
    assert scores.shape == (2,) and np.all((scores > 0.0) & (scores < 1.0))
    single = score_options(model, reps, [(4, 6)]).data
    assert abs(single[0] - scores[0]) < 1e-12  # per-span score is local
    model.scorer_w2.data[:] = 0.0
    model.scorer_b2.data[:] = 0.0
    assert np.array_equal(score_options(model, reps, [(4, 6), (7, 8)]).data, [0.5, 0.5])


def test_identical_token_spans_score_identically_without_positions():
    cfg = EncoderConfig(layers=2, heads=2, model_dim=8, ff_dim=16, max_len=64,
                        dropout=0.0, use_positions=False, seed=1)
    model = EncoderModel(cfg, 30)
    ids = [CLS_ID, 4, 5, SEP_ID, 8, 9, SEP_ID, 8, 9, SEP_ID]
    scores = score_options(model, reps := encode_tokens(model, ids), [(4, 6), (7, 9)]).data
    assert abs(scores[0] - scores[1]) < 1e-12
    assert np.abs(reps.data[4:6] - reps.data[7:9]).max() < 1e-12


def test_span_validation():
    model = make_model()
    reps = encode_tokens(model, [CLS_ID, 4, 5, 6])
    for bad in ([], [(2, 2)], [(1, 3), (2, 4)], [(1, 5)]):
        with pytest.raises(ShapeError):
            score_options(model, reps, bad)


def test_encode_batch_matches_sequential():
    model = make_model()
    rng = np.random.default_rng(6)
    ids = rng.integers(4, 20, size=(5, 7))
    flat = encode_batch(model, ids).data
    for g in range(5):
        row = encode_tokens(model, ids[g]).data
        assert np.abs(flat[g * 7:(g + 1) * 7] - row).max() < 1e-12


def test_classify_pairs_batch_matches_sequential():
    model = make_model()
    rng = np.random.default_rng(7)
    ids = rng.integers(4, 20, size=(4, 6))
    probs = classify_pairs_batch(model, encode_batch(model, ids), 4, 6).data
    assert probs.shape == (4, 2)
    for g in range(4):
        want = classify_pair(model, encode_tokens(model, ids[g])).data
        assert np.abs(probs[g] - want).max() < 1e-12


def test_score_options_batch_matches_sequential():
    model = make_model()
    rng = np.random.default_rng(8)
    ids = rng.integers(4, 20, size=(3, 9))
    spans = [(3, 5), (6, 8)]
    got = score_options_batch(model, encode_batch(model, ids), 3, 9, spans).data
    assert got.shape == (3, 2)
    for g in range(3):
        want = score_options(model, encode_tokens(model, ids[g]), spans).data
        assert np.abs(got[g] - want).max() < 1e-12


def test_bi_encode_unit_norm_and_batch_parity():
    model = make_model()
    rng = np.random.default_rng(9)
    id_lists = [list(rng.integers(4, 20, size=n)) for n in (5, 8, 5, 3)]
    rows = bi_encode_rows(model, id_lists)
    for ids, row in zip(id_lists, rows):
        assert abs(np.linalg.norm(row.data) - 1.0) < 1e-9
        reps = encode_tokens(model, ids).data
        pooled = reps.mean(axis=0)
        want = pooled / np.linalg.norm(pooled)
        assert np.abs(row.data - want).max() < 1e-9
        assert np.abs(bi_encode(model, ids).data - row.data).max() < 1e-12
    with pytest.raises(ShapeError):
        bi_encode_rows(model, [])


def test_checkpoint_round_trip_bitwise(tmp_path):
    model = make_model()
    model.tok_emb.data[3, 0] = 1.25  # make sure a mutated value survives
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.config == model.config
    assert loaded.vocab_size == model.vocab_size
    left, right = model.named_parameters(), loaded.named_parameters()
    assert left.keys() == right.keys()
    for name in left:
        assert np.array_equal(left[name].data, right[name].data), name


MICRO = EncoderConfig(layers=1, heads=1, model_dim=2, ff_dim=2, max_len=3, dropout=0.0)


def test_checkpoint_truncated_or_extended_raises_data_error(tmp_path):
    path = tmp_path / "micro.ckpt"
    save_model(EncoderModel(MICRO, 4), path)
    blob = path.read_bytes()
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        with pytest.raises(DataError, match="micro.ckpt"):
            load_model(path)
    path.write_bytes(blob + b"\0")
    with pytest.raises(DataError, match="micro.ckpt.*trailing"):
        load_model(path)
    path.write_bytes(blob)
    load_model(path)  # the intact file still loads


def test_checkpoint_missing_parameter_raises_data_error(tmp_path, monkeypatch):
    model = EncoderModel(MICRO, 4)
    full = model.named_parameters()
    monkeypatch.setattr(EncoderModel, "named_parameters", lambda self: {
        name: p for name, p in full.items() if name != "cls_b"})
    path = tmp_path / "partial.ckpt"
    save_model(model, path)
    monkeypatch.undo()
    with pytest.raises(DataError, match="partial.ckpt.*cls_b"):
        load_model(path)


def test_parameter_count_depends_only_on_config():
    a = EncoderModel(TINY, 20)
    b = EncoderModel(EncoderConfig(layers=2, heads=2, model_dim=8, ff_dim=16,
                                   max_len=64, dropout=0.0, seed=99), 20)
    assert a.parameter_count() == b.parameter_count()
    assert a.parameter_count() == sum(p.data.size for p in a.parameters())


def test_copy_is_deep():
    model = make_model()
    clone = model.copy()
    for name, p in model.named_parameters().items():
        assert np.array_equal(clone.named_parameters()[name].data, p.data), name
    clone.tok_emb.data[0, 0] += 1.0
    assert model.tok_emb.data[0, 0] != clone.tok_emb.data[0, 0]
