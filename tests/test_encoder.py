"""Encoder forward contracts: shapes, determinism, pooling, batched parity."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from entsel.encoder import (EncoderConfig, EncoderModel, bi_encode_rows,
                            classify_pairs_batch, encode_batch, fused_groups,
                            load_model, save_model, score_options_batch)
from entsel.errors import DataError, LayoutError, ShapeError
from entsel.numerics import ComputeGraph, Tensor, backward
from entsel.text import CLS_ID, SEP_ID
from entsel.training import Adam, ce_loss

from conftest import (TINY, reference_bi_encode, reference_classify, reference_encode,
                      reference_scores)


def make_model(config=TINY, vocab_size=20):
    return EncoderModel(config, vocab_size)


def encode_one(model, ids, train_mode=False):
    """Token representations of one sequence, as a one-row batch."""
    return encode_batch(model, [list(ids)], train_mode=train_mode)


def scores_one(model, reps, spans):
    return score_options_batch(model, reps, 1, reps.shape[0], spans).data[0]


def test_config_validation():
    with pytest.raises(DataError):
        EncoderConfig(heads=3, model_dim=8)  # 8 % 3 != 0
    with pytest.raises(DataError):
        EncoderConfig(layers=0)
    with pytest.raises(DataError):
        EncoderConfig(dropout=1.0)
    for name, value in (("model_dim", 0), ("model_dim", -8), ("ff_dim", 0), ("max_len", -1),
                        ("heads", 2.0)):
        with pytest.raises(DataError, match=name):
            EncoderConfig(**{name: value})


def test_te_group_tape_size():
    # one te length group of a training step: the trunk records 4 nodes for the
    # embeddings and dropout, 11 per block and 1 for the final norm; the head
    # adds 3 and the loss 4
    model = make_model(EncoderConfig(), 30)
    ids = np.random.default_rng(0).integers(0, 30, size=(4, 9))
    with ComputeGraph() as graph:
        reps = encode_batch(model, ids, train_mode=True)
        loss = ce_loss(classify_pairs_batch(model, reps, 4, 9), [True, False, False, True])
    assert len(graph.nodes) <= 36
    assert len(graph.nodes) == 4 + 11 * EncoderConfig().layers + 1 + 3 + 4


def test_encode_shape_and_input_checks():
    model = make_model()
    reps = encode_batch(model, [[CLS_ID, 5, 6, SEP_ID], [CLS_ID, 7, 8, SEP_ID]])
    assert reps.shape == (2 * 4, TINY.model_dim)
    with pytest.raises(ShapeError):
        encode_batch(model, [[]])
    with pytest.raises(ShapeError):
        encode_batch(model, [CLS_ID, 5, 6])  # 1-D input
    with pytest.raises(LayoutError):
        encode_one(model, [5] * (TINY.max_len + 1))
    with pytest.raises(DataError):
        encode_one(model, [5, 99])  # vocab_size is 20


def test_eval_mode_is_deterministic():
    model = make_model(EncoderConfig(layers=2, heads=2, model_dim=8, ff_dim=16,
                                     max_len=64, dropout=0.5, seed=0), 20)
    ids = [CLS_ID, 4, 5, 6, SEP_ID]
    a = encode_one(model, ids).data
    b = encode_one(model, ids).data
    assert np.array_equal(a, b)
    # train_mode with dropout>0 must actually perturb
    c = encode_one(model, ids, train_mode=True).data
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
        both = encode_batch(model, np.stack([ids, ids[perm]])).data
        base, permuted = both[:9], both[9:]
        assert np.abs(permuted - base[perm]).max() < 1e-9


def test_positions_break_permutation_equivariance():
    model = make_model()
    ids = np.array([4, 5, 6, 7])
    base = encode_one(model, ids).data
    swapped = encode_one(model, ids[[1, 0, 2, 3]]).data
    assert np.abs(swapped - base[[1, 0, 2, 3]]).max() > 1e-6


def test_cls_vector_is_row_zero():
    # the classifier reads row g*seq of the flat reps and nothing else
    model = make_model()
    rng = np.random.default_rng(1)
    reps = rng.normal(size=(3 * 5, TINY.model_dim))
    probs = classify_pairs_batch(model, Tensor(reps), 3, 5).data
    reps[[1, 2, 3, 4, 6, 9, 14]] = rng.normal(size=(7, TINY.model_dim))
    assert np.array_equal(classify_pairs_batch(model, Tensor(reps), 3, 5).data, probs)
    for g in range(3):
        assert np.abs(probs[g] - reference_classify(model, reps[g * 5:(g + 1) * 5])).max() < 1e-12


def test_span_mean_pool_matches_manual_mean():
    # on arbitrary flat reps the scores equal the reference's, which pools
    # each span as the plain mean of its rows
    model = make_model()
    reps = np.random.default_rng(2).normal(size=(2 * 6, TINY.model_dim))
    spans = [(2, 5), (5, 6)]
    got = score_options_batch(model, Tensor(reps), 2, 6, spans).data
    for g in range(2):
        want = reference_scores(model, reps[g * 6:(g + 1) * 6], spans)
        assert np.abs(got[g] - want).max() < 1e-12


def test_classify_pair_probabilities():
    model = make_model()
    ids = [[CLS_ID, 4, 5, SEP_ID, 6, SEP_ID], [CLS_ID, 7, 5, SEP_ID, 4, SEP_ID]]
    reps = encode_batch(model, ids)
    probs = classify_pairs_batch(model, reps, 2, 6).data
    assert probs.shape == (2, 2) and np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9
    assert np.all(probs > 0.0)
    # zeroed head gives exactly even odds regardless of the encoding
    model.cls_w.data[:] = 0.0
    model.cls_b.data[:] = 0.0
    probs = classify_pairs_batch(model, reps, 2, 6).data
    assert np.array_equal(probs, [[0.5, 0.5], [0.5, 0.5]])


def test_score_options_zero_scorer_and_shapes():
    model = make_model()
    reps = encode_one(model, [CLS_ID, 4, 5, SEP_ID, 6, 7, SEP_ID, 8, SEP_ID])
    scores = scores_one(model, reps, [(4, 6), (7, 8)])
    assert scores.shape == (2,) and np.all((scores > 0.0) & (scores < 1.0))
    single = scores_one(model, reps, [(4, 6)])
    assert abs(single[0] - scores[0]) < 1e-12  # per-span score is local
    model.scorer_w2.data[:] = 0.0
    model.scorer_b2.data[:] = 0.0
    assert np.array_equal(scores_one(model, reps, [(4, 6), (7, 8)]), [0.5, 0.5])


def test_identical_token_spans_score_identically_without_positions():
    cfg = EncoderConfig(layers=2, heads=2, model_dim=8, ff_dim=16, max_len=64,
                        dropout=0.0, use_positions=False, seed=1)
    model = EncoderModel(cfg, 30)
    ids = [CLS_ID, 4, 5, SEP_ID, 8, 9, SEP_ID, 8, 9, SEP_ID]
    reps = encode_one(model, ids)
    scores = scores_one(model, reps, [(4, 6), (7, 9)])
    assert abs(scores[0] - scores[1]) < 1e-12
    assert np.abs(reps.data[4:6] - reps.data[7:9]).max() < 1e-12


def test_span_validation():
    model = make_model()
    reps = encode_one(model, [CLS_ID, 4, 5, 6])
    for bad in ([], [(2, 2)], [(1, 3), (2, 4)], [(1, 5)]):
        with pytest.raises(ShapeError):
            score_options_batch(model, reps, 1, 4, bad)


def test_encode_batch_matches_sequential():
    model = make_model()
    rng = np.random.default_rng(6)
    ids = rng.integers(4, 20, size=(5, 7))
    flat = encode_batch(model, ids).data
    for g in range(5):
        row = reference_encode(model, ids[g])
        assert np.abs(flat[g * 7:(g + 1) * 7] - row).max() < 1e-12


def test_classify_pairs_batch_matches_sequential():
    model = make_model()
    rng = np.random.default_rng(7)
    ids = rng.integers(4, 20, size=(4, 6))
    probs = classify_pairs_batch(model, encode_batch(model, ids), 4, 6).data
    assert probs.shape == (4, 2)
    for g in range(4):
        want = reference_classify(model, reference_encode(model, ids[g]))
        assert np.abs(probs[g] - want).max() < 1e-12


def test_score_options_batch_matches_sequential():
    model = make_model()
    rng = np.random.default_rng(8)
    ids = rng.integers(4, 20, size=(3, 9))
    spans = [(3, 5), (6, 8)]
    got = score_options_batch(model, encode_batch(model, ids), 3, 9, spans).data
    assert got.shape == (3, 2)
    for g in range(3):
        want = reference_scores(model, reference_encode(model, ids[g]), spans)
        assert np.abs(got[g] - want).max() < 1e-12


def test_fused_groups_partition_by_sorted_key():
    id_lists = [[1, 2, 3], [4, 5], [6, 7, 8], [9], [1, 1, 2], [3, 4]]
    groups = fused_groups(id_lists)
    positions = [p for members, _ in groups for p in members]
    assert sorted(positions) == list(range(len(id_lists)))
    assert [ids.shape[1] for _, ids in groups] == [1, 2, 3]
    for members, ids in groups:
        assert members == sorted(members)
        for row, pos in zip(ids, members):
            assert row.tolist() == id_lists[pos]
    # equal lengths with different span layouts stay apart, in key order
    keys = [(3, ((1, 2),)), (2, ((1, 2),)), (3, ((2, 3),)), (1, ((0, 1),)),
            (3, ((1, 2),)), (2, ((1, 2),))]
    groups = fused_groups(id_lists, keys)
    assert [members for members, _ in groups] == [[3], [1, 5], [0, 4], [2]]
    assert [keys[members[0]] for members, _ in groups] == sorted(set(keys))


def test_bi_encode_unit_norm_and_batch_parity():
    model = make_model()
    rng = np.random.default_rng(9)
    # four length groups, given out of length order, so the rows come back
    # from a concat plus a gather into input order
    id_lists = [list(rng.integers(4, 20, size=n)) for n in (5, 8, 3, 5, 11, 3, 8)]
    rows = bi_encode_rows(model, id_lists)
    assert rows.shape == (len(id_lists), TINY.model_dim)
    assert np.abs(np.linalg.norm(rows.data, axis=1) - 1.0).max() < 1e-9
    for ids, row in zip(id_lists, rows.data):
        assert np.abs(row - reference_bi_encode(model, ids)).max() < 1e-9
        assert np.abs(bi_encode_rows(model, [ids]).data[0] - row).max() < 1e-12
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


def _train_step(model):
    """One dropout-on Adam step on a fixed [2 x 6] batch; returns the parameters."""
    opt = Adam(model.parameters(), lr=1e-2)
    ids = np.array([[CLS_ID, 5, 6, SEP_ID, 7, SEP_ID], [CLS_ID, 8, 9, SEP_ID, 5, SEP_ID]])
    opt.zero_grad()
    with ComputeGraph():
        reps = encode_batch(model, ids, train_mode=True)
        backward(ce_loss(classify_pairs_batch(model, reps, 2, 6), [True, False]))
    opt.step()
    return {name: p.data for name, p in model.named_parameters().items()}


def test_loaded_and_copied_models_train_like_the_original(tmp_path):
    model = make_model(replace(TINY, dropout=0.2))
    model.tok_emb.data[3, 0] = 1.25
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    loaded, clone = load_model(path), model.copy()
    for other in (loaded, clone):
        for name, p in model.named_parameters().items():
            assert np.array_equal(other.named_parameters()[name].data, p.data), name
    want = _train_step(model)
    for other in (loaded, clone):  # same weights and the same seeded dropout stream
        got = _train_step(other)
        assert all(np.array_equal(got[name], want[name]) for name in want)


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


@pytest.mark.parametrize("config, vocab_size, digest", [
    (EncoderConfig(layers=1, heads=2, model_dim=8, ff_dim=16, max_len=12, seed=5), 11,
     "ceffcefd99fc9d5c183106bd05d402b16df85f161a72e86d7ca83f5eec3e5565"),
    (EncoderConfig(layers=3, heads=2, model_dim=8, ff_dim=12, max_len=10, seed=11), 9,
     "e59137348e5180d32750e69b7bce9d348399994bb14c59454004a4889ee9d4f2")])
def test_init_weights_are_pinned(config, vocab_size, digest):
    # sha256 over (name, float64 bytes) in sorted-name order: any change to a
    # name, shape, init rule or the order the init rng draws in shows here.
    # layers=1 covers block 0's identity q/k; layers=3 the Xavier q/k after it
    h = hashlib.sha256()
    for name, p in sorted(EncoderModel(config, vocab_size).named_parameters().items()):
        h.update(name.encode() + p.data.tobytes())
    assert h.hexdigest() == digest


def test_parameter_count_depends_only_on_config():
    a = EncoderModel(TINY, 20)
    b = EncoderModel(EncoderConfig(layers=2, heads=2, model_dim=8, ff_dim=16,
                                   max_len=64, dropout=0.0, seed=99), 20)
    shapes = {name: p.shape for name, p in a.named_parameters().items()}
    assert shapes == {name: p.shape for name, p in b.named_parameters().items()}
    assert not np.array_equal(a.tok_emb.data, b.tok_emb.data)  # the seed does matter


def test_copy_is_deep():
    model = make_model()
    clone = model.copy()
    for name, p in model.named_parameters().items():
        assert np.array_equal(clone.named_parameters()[name].data, p.data), name
    clone.tok_emb.data[0, 0] += 1.0
    assert model.tok_emb.data[0, 0] != clone.tok_emb.data[0, 0]
