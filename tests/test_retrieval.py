"""Bi-encoder index: brute-force agreement, recall arithmetic, training guards."""

import numpy as np
import pytest

from entsel.errors import DataError
from entsel.pairing import OptionSpace, SelectionInstance
from entsel.retrieval import (EmbeddingIndex, build_index, embed_text,
                              option_text, rank_all, recall_from_rankings,
                              retrieve_candidates, train_bi_encoder)
from entsel.encoder import EncoderModel

from conftest import TINY, small_instances, small_space, vocab_for


@pytest.fixture(scope="module")
def setup():
    space = small_space(n=10)
    instances = small_instances(space, n=8, seed=3)
    vocab = vocab_for(space, instances)
    model = EncoderModel(TINY, len(vocab))
    return space, instances, vocab, model, build_index(model, space, vocab)


def test_option_text_uses_template_only_with_entity():
    plain = OptionSpace(options=("cat", "dog"), template="about [LABEL]")
    assert option_text(plain, 1) == "about dog"
    ent = OptionSpace(options=("cat",), template="[ENTITY] is a [LABEL]")
    assert option_text(ent, 0) == "cat"  # entity templates index the bare label


def test_index_shape_and_unit_rows(setup):
    space, _, _, _, index = setup
    assert index.matrix.shape == (len(space), TINY.model_dim)
    norms = np.linalg.norm(index.matrix, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-9


def test_index_rebuild_bitwise(setup):
    space, _, vocab, model, index = setup
    again = build_index(model, space, vocab)
    assert np.array_equal(index.matrix, again.matrix)


def test_non_unit_rows_rejected():
    with pytest.raises(DataError):
        EmbeddingIndex(matrix=np.ones((2, 4)))


def brute_force_order(index, model, vocab, text):
    scores = index.matrix @ embed_text(model, vocab, text)
    return sorted(range(len(index)), key=lambda i: (-scores[i], i)), scores


def test_option_query_ranks_itself_first(setup):
    space, _, vocab, model, index = setup
    queries = [SelectionInstance(id=f"q{i}", premise=option_text(space, i), gold=frozenset())
               for i in range(len(space))]
    top = retrieve_candidates(index, model, vocab, queries, 1)
    for i, query in enumerate(queries):
        assert top[query.id] == [i]
        assert index.matrix[i] @ embed_text(model, vocab, query.premise) == pytest.approx(1.0)


def test_top_k_matches_brute_force(setup):
    space, instances, vocab, model, index = setup
    for k in range(1, len(space) + 1):
        got = retrieve_candidates(index, model, vocab, instances[:4], k)
        for inst in instances[:4]:
            assert got[inst.id] == brute_force_order(index, model, vocab, inst.premise)[0][:k]


def test_top_k_tie_break_to_smaller_index(setup):
    # three one-hot rows, each repeated three times: a score is one entry of
    # the query embedding whatever the BLAS kernel, so ties of three are exact
    _, instances, vocab, model, _ = setup
    rows = [1, 0, 2, 0, 1, 0, 2, 1, 2]
    index = EmbeddingIndex(matrix=np.eye(TINY.model_dim)[rows])
    n = len(rows)
    for k in (1, 2, 3, 5, n - 1, n):
        got = retrieve_candidates(index, model, vocab, instances, k)
        for inst in instances:
            scores = index.matrix @ embed_text(model, vocab, inst.premise)
            oracle = np.lexsort((np.arange(n), -scores))
            assert got[inst.id] == oracle[:k].tolist(), (k, inst.id)
            if k in (2, 5, n - 1):  # the k-th and (k+1)-th options tie
                assert scores[oracle[k - 1]] == scores[oracle[k]]


def test_top_k_validates_k(setup):
    space, instances, vocab, model, index = setup
    with pytest.raises(DataError):
        retrieve_candidates(index, model, vocab, instances, 0)
    with pytest.raises(DataError):
        retrieve_candidates(index, model, vocab, instances, len(space) + 1)


def test_rank_all_and_retrieve_agree_with_top_k(setup):
    _, instances, vocab, model, index = setup
    rankings = rank_all(index, model, vocab, instances)
    cands = retrieve_candidates(index, model, vocab, instances, 4)
    for inst in instances:
        want = brute_force_order(index, model, vocab, inst.premise)[0]
        assert rankings[inst.id] == want
        assert cands[inst.id] == want[:4]


def test_recall_arithmetic():
    insts = [SelectionInstance(id="a", premise="p", gold=frozenset([0, 5])),
             SelectionInstance(id="b", premise="q", gold=frozenset([2]))]
    rankings = {"a": [0, 1, 2, 3, 4, 5], "b": [9, 2, 0, 1, 3, 4]}
    # k=1: only a's gold 0 is in; 1 of 3 gold pairs
    assert recall_from_rankings(rankings, insts, 1) == pytest.approx(1 / 3)
    assert recall_from_rankings(rankings, insts, 2) == pytest.approx(2 / 3)
    assert recall_from_rankings(rankings, insts, 6) == 1.0


def recall_at(model, space, vocab, instances, k):
    index = build_index(model, space, vocab)
    return recall_from_rankings(rank_all(index, model, vocab, instances), instances, k)


def test_recall_monotone_in_k(setup):
    space, instances, vocab, model, index = setup
    rankings = rank_all(index, model, vocab, instances)
    values = [recall_from_rankings(rankings, instances, k) for k in range(1, len(space) + 1)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] == 1.0  # full ranking always contains the gold


def test_train_bi_encoder_improves_separation(setup):
    space, instances, vocab, _, _ = setup
    model = EncoderModel(TINY, len(vocab))
    before = recall_at(model, space, vocab, instances, 2)
    losses = train_bi_encoder(model, instances, space, vocab,
                              epochs=8, batch_size=8, lr=3e-3, seed=0)
    after = recall_at(model, space, vocab, instances, 2)
    assert losses[-1] < losses[0]
    assert after >= before
    # each of these would train nothing: no data, no in-batch negatives, no epoch
    with pytest.raises(DataError):
        train_bi_encoder(model, [], space, vocab)
    with pytest.raises(DataError, match="batch_size"):
        train_bi_encoder(model, instances, space, vocab, batch_size=1)
    with pytest.raises(DataError, match="epochs"):
        train_bi_encoder(model, instances, space, vocab, epochs=0)
