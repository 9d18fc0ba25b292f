"""Layout construction: separator placement, spans, labels, truncation."""

import numpy as np
import pytest

from entsel.errors import DataError, LayoutError
from entsel.pairing import (OptionSpace, SelectionInstance, chunk_options,
                            make_context_pair, make_parallel_pair,
                            make_te_pair, shortest_pair_len, shuffle_augment,
                            verbalize)
from entsel.text import CLS_ID, SEP_ID, build_vocab

from conftest import small_instances, small_space, vocab_for


def rivals_of(lay, space, vocab):
    """Option indices of the unscored hypotheses after the scored ones, read
    off the ids the encoder sees."""
    by_text = {verbalize(space, i): i for i in range(len(space))}
    tail = list(lay.ids[lay.option_spans[-1][1]:])
    assert tail[0] == SEP_ID and tail[-1] == SEP_ID
    cuts = [j for j, tok in enumerate(tail) if tok == SEP_ID]
    return tuple(by_text[vocab.decode(tail[a + 1:b])] for a, b in zip(cuts, cuts[1:]))


@pytest.fixture(scope="module")
def setup():
    space = small_space(n=8)
    instances = small_instances(space, n=5, seed=1)
    return space, instances, vocab_for(space, instances)


def test_option_space_validation():
    with pytest.raises(DataError):
        OptionSpace(options=("a", "a"))
    with pytest.raises(DataError):
        OptionSpace(options=("a",), template="no placeholder")
    with pytest.raises(DataError):
        OptionSpace(options=("a",), template="[LABEL] and [LABEL]")


def test_verbalize_fills_placeholders():
    space = OptionSpace(options=("red", "blue"), template="the answer is [LABEL]")
    assert verbalize(space, 1) == "the answer is blue"
    ent = OptionSpace(options=("cat",), template="[ENTITY] is a [LABEL]")
    assert verbalize(ent, 0, entity="tom") == "tom is a cat"
    with pytest.raises(DataError):
        verbalize(ent, 0)  # template needs an entity
    with pytest.raises(DataError):
        verbalize(space, 2)


def test_te_pair_layout(setup):
    space, instances, vocab = setup
    inst = instances[0]
    gold = min(inst.gold)
    lay = make_te_pair(inst, gold, space, vocab, max_len=64)
    assert lay.ids[0] == CLS_ID
    assert lay.option_indices == (gold,) and lay.labels == (True,)
    non_gold = next(i for i in range(len(space)) if i not in inst.gold)
    assert make_te_pair(inst, non_gold, space, vocab, 64).labels == (False,)
    # premise and hypothesis sit between separators, spans exclude them
    ids = list(lay.ids)
    p1 = ids.index(SEP_ID)
    h0, h1 = lay.option_spans[0]
    assert h0 == p1 + 1 and h1 == len(ids) - 1 and ids[h1] == SEP_ID
    assert SEP_ID not in ids[h0:h1]
    assert vocab.decode(ids[1:p1]) == inst.premise
    assert vocab.decode(ids[h0:h1]) == verbalize(space, gold)


def test_te_pair_truncates_premise_only(setup):
    space, _, vocab = setup
    long_inst = SelectionInstance(id="L", premise=" ".join(["filler"] * 100),
                                  gold=frozenset([0]))
    lay = make_te_pair(long_inst, 0, space, vocab, max_len=16)
    assert len(lay.ids) == 16
    h0, h1 = lay.option_spans[0]
    assert vocab.decode(list(lay.ids[h0:h1])) == verbalize(space, 0)
    premise = list(lay.ids[1:lay.ids.index(SEP_ID)])  # its end is cut, its start kept
    assert premise and premise == vocab.encode(long_inst.premise)[:len(premise)]
    assert len(premise) == 16 - 2 - (h1 - h0 + 1)
    # hypothesis that cannot fit even with an empty premise is an error
    tiny = SelectionInstance(id="T", premise="x", gold=frozenset([0]))
    with pytest.raises(LayoutError):
        make_te_pair(tiny, 0, space, vocab, max_len=3)


def test_shortest_pair_len_bounds_every_te_layout():
    ent = OptionSpace(options=("a b c", "d", "e f"), template="[ENTITY] is [LABEL]")
    insts = [SelectionInstance(id="p", premise="one two three", gold=[0], entity="the cat"),
             SelectionInstance(id="q", premise="four", gold=[1], entity="x")]
    vocab = build_vocab(["one two three four is"])
    need = shortest_pair_len(ent, insts, vocab)
    assert need == 3 + 1 + 2  # one premise token, "is d" with [ENTITY] filled by nothing
    for inst in insts:  # a lower bound: no pair layout fits below it
        for i in range(len(ent)):
            with pytest.raises(LayoutError):
                make_te_pair(inst, i, ent, vocab, max_len=need - 1)
    plain = OptionSpace(options=("a b c", "d"))
    assert shortest_pair_len(plain, insts, vocab) == 5
    assert len(make_te_pair(insts[1], 1, plain, vocab, max_len=5).ids) == 5  # and it is met
    empty = SelectionInstance(id="e", premise="", gold=[0])
    assert shortest_pair_len(plain, insts + [empty], vocab) == 4
    assert len(make_te_pair(empty, 1, plain, vocab, max_len=4).ids) == 4


def test_context_pair_matches_te_label_and_prefix(setup):
    space, instances, vocab = setup
    inst = instances[1]
    gold = min(inst.gold)
    pool = [i for i in range(len(space)) if i != gold]
    rng = np.random.default_rng(0)
    lay = make_context_pair(inst, gold, pool, 3, rng, space, vocab, 64)
    te = make_te_pair(inst, gold, space, vocab, 64)
    assert lay.labels == (True,) and lay.option_indices == (gold,)
    assert lay.option_spans == te.option_spans  # only H is scored
    assert lay.ids[:len(te.ids)] == te.ids  # contexts are appended after H
    rivals = rivals_of(lay, space, vocab)
    assert len(rivals) == 3 and set(rivals) <= set(pool)
    # k=0 degenerates to the plain pairwise layout
    bare = make_context_pair(inst, gold, pool, 0, rng, space, vocab, 64)
    assert bare.ids == te.ids and rivals_of(bare, space, vocab) == ()


def test_context_sampling_excludes_h_and_repeats(setup):
    space, instances, vocab = setup
    inst = instances[2]
    gold = min(inst.gold)
    pool = [i for i in range(len(space)) if i != gold]
    rng = np.random.default_rng(1)
    seen = set()
    for _ in range(300):
        lay = make_context_pair(inst, gold, pool, 4, rng, space, vocab, 96)
        rivals = rivals_of(lay, space, vocab)
        assert gold not in rivals
        assert len(set(rivals)) == 4
        seen.add(rivals)
    assert len(seen) > 50  # order and membership actually vary
    with pytest.raises(DataError):
        make_context_pair(inst, gold, [gold] + pool, 2, rng, space, vocab, 96)
    with pytest.raises(DataError):
        make_context_pair(inst, gold, pool[:2], 3, rng, space, vocab, 96)


def test_parallel_pair_layout(setup):
    space, instances, vocab = setup
    inst = instances[3]
    picked = (0, 3, 5, 6)
    lay = make_parallel_pair(inst, picked, space, vocab, 128)
    assert lay.option_indices == picked
    assert lay.labels == tuple(i in inst.gold for i in picked)
    assert len(lay.option_spans) == 4
    ids = list(lay.ids)
    for (s, e), idx in zip(lay.option_spans, picked):
        assert vocab.decode(ids[s:e]) == verbalize(space, idx)
        assert ids[e] == SEP_ID
    # spans are disjoint and ordered
    flat = [b for span in lay.option_spans for b in span]
    assert flat == sorted(flat)
    with pytest.raises(DataError):
        make_parallel_pair(inst, (1, 1), space, vocab, 128)
    with pytest.raises(DataError):
        make_parallel_pair(inst, (), space, vocab, 128)


def test_parallel_single_option_equals_te(setup):
    space, instances, vocab = setup
    inst = instances[4]
    gold = min(inst.gold)
    par = make_parallel_pair(inst, (gold,), space, vocab, 64)
    te = make_te_pair(inst, gold, space, vocab, 64)
    assert par.ids == te.ids and par.option_spans == te.option_spans


def test_shuffle_augment_pigeonhole(setup):
    space, instances, vocab = setup
    inst = instances[0]
    gold = min(inst.gold)
    options = [gold] + [i for i in range(len(space)) if i not in inst.gold][:4]
    rng = np.random.default_rng(2)
    k = 4
    layouts = shuffle_augment(inst, options, k, rng, space, vocab, 128)
    assert len(layouts) == k
    gold_positions = set()
    for lay in layouts:
        assert sorted(lay.option_indices) == sorted(options)
        gold_positions.add(lay.option_indices.index(gold))
        assert lay.labels[lay.option_indices.index(gold)] is True
    assert len(gold_positions) == k  # k distinct gold slots
    with pytest.raises(DataError):
        shuffle_augment(inst, options, len(options) + 1, rng, space, vocab, 128)
    multi = SelectionInstance(id="m", premise="x", gold=frozenset([0, 1]))
    with pytest.raises(DataError):
        shuffle_augment(multi, [0, 1, 2], 2, rng, space, vocab, 128)


def test_chunk_options_shapes():
    assert chunk_options(range(6), 2) == [[0, 1], [2, 3], [4, 5]]
    assert chunk_options(range(5), 3) == [[0, 1, 2], [3, 4]]
    assert chunk_options(range(3), 10) == [[0, 1, 2]]
    chunks = chunk_options(range(77), 25)
    assert [len(c) for c in chunks] == [25, 25, 25, 2]
    assert [i for c in chunks for i in c] == list(range(77))
    with pytest.raises(DataError):
        chunk_options([], 2)
    with pytest.raises(DataError):
        chunk_options(range(3), 0)


def test_instance_gold_is_frozen(setup):
    space, instances, _ = setup
    inst = instances[0]
    assert isinstance(inst.gold, frozenset)
    with pytest.raises(Exception):
        inst.gold = frozenset()
