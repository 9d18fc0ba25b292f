"""Seeded inputs for the benchmark's workloads.

The shapes mirror the shipped synth profiles (single_small, longdoc,
multi_large), but the generator is the benchmark's own, so an edit to
`entsel.workbench.synth` cannot change the load. Every aligned block of
`STRATUM` instances has the same multiset of premise lengths and gold
counts, spread evenly over the profile's range; the seed picks their order,
the words, the gold options and the fillers. That keeps the cost of a block
nearly the same from seed to seed while the contents differ.
"""

import json
from dataclasses import dataclass

import numpy as np

from entsel.pairing import OptionSpace, SelectionInstance

STRATUM = 8
N_FILLERS = 64
SPLITS = ("train", "dev", "test")


@dataclass(frozen=True)
class Workload:
    name: str
    n_options: int
    label_words: tuple  # (min, max) words per option label
    premise_tokens: tuple  # (min, max) tokens per premise
    golds: tuple  # (min, max) gold options per instance
    template: str
    entity: bool  # each instance carries its own entity token
    multi_label: bool
    k_parallel: int  # options per parallel layout, in training and eval
    k_context: int  # competing options appended in context training
    retrieve_k: int  # candidate pool size of the retrieval phase
    pools_feed_scoring: bool  # train, calibrate and eval run on the retrieved pools
    n_train: int  # every training call fits one epoch over the whole train split
    n_dev: int  # every calibration call uses the whole dev split
    n_test: int  # every eval sample scores the whole test split


WORKLOADS = {w.name: w for w in (
    Workload("short_pairs", n_options=40, label_words=(1, 1), premise_tokens=(5, 9),
             golds=(1, 1), template="about [LABEL]", entity=False, multi_label=False,
             k_parallel=8, k_context=2, retrieve_k=8, pools_feed_scoring=False,
             n_train=64, n_dev=16, n_test=8),
    Workload("long_premise", n_options=4, label_words=(1, 1), premise_tokens=(100, 200),
             golds=(1, 1), template="the answer is [LABEL]", entity=False,
             multi_label=False, k_parallel=4, k_context=2, retrieve_k=2,
             pools_feed_scoring=False, n_train=16, n_dev=16, n_test=8),
    Workload("large_space", n_options=5000, label_words=(1, 4), premise_tokens=(8, 16),
             golds=(1, 4), template="[ENTITY] is a [LABEL]", entity=True,
             multi_label=True, k_parallel=8, k_context=2, retrieve_k=32,
             pools_feed_scoring=True, n_train=48, n_dev=16, n_test=8),
)}

_CONSONANTS = tuple("bcdfghjklmnprstv")
_VOWELS = tuple("aeiou")


def _words(rng, n, suffix):
    """n distinct pronounceable pseudo-words ending in `suffix`.

    Label words end in 'z' and fillers in 'q', so the two pools never share a
    token with each other or with the template words.
    """
    out, seen = [], set()
    while len(out) < n:
        syllables = int(rng.integers(2, 4))
        word = "".join(_CONSONANTS[int(rng.integers(len(_CONSONANTS)))]
                       + _VOWELS[int(rng.integers(len(_VOWELS)))]
                       for _ in range(syllables)) + suffix
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def _spread(low, high, n, rng):
    """n values evenly spread over [low, high] per STRATUM block, shuffled in-block."""
    span = high - low + 1
    block = [low + (2 * j + 1) * span // (2 * STRATUM) for j in range(STRATUM)]
    out = []
    for _ in range(0, n, STRATUM):
        out.extend(block[int(i)] for i in rng.permutation(STRATUM))
    return out[:n]


def _labels(workload, rng):
    low, high = workload.label_words
    if high == 1:
        return _words(rng, workload.n_options, "z")
    pool = _words(rng, 2 * workload.n_options // 5, "z")
    counts = [low + j % (high - low + 1) for j in range(workload.n_options)]
    labels, seen = [], set()
    for j in rng.permutation(workload.n_options):
        while True:
            picked = rng.choice(len(pool), size=counts[int(j)], replace=False)
            label = " ".join(pool[int(i)] for i in picked)
            if label not in seen:
                break
        seen.add(label)
        labels.append(label)
    return labels


def _instance(inst_id, length, n_gold, workload, space, fillers, rng):
    gold = sorted(int(g) for g in rng.choice(len(space), size=n_gold, replace=False))
    units = [space.options[g] for g in gold]
    used = sum(len(u.split()) for u in units)
    entity = None
    if workload.entity:
        entity = "ent" + inst_id.replace("-", "") + "x"
        units.append(entity)
        used += 1
    units.extend(fillers[int(j)] for j in rng.integers(len(fillers), size=max(1, length - used)))
    text = " ".join(units[int(i)] for i in rng.permutation(len(units)))
    return SelectionInstance(id=inst_id, premise=text, gold=frozenset(gold), entity=entity)


def generate(workload, seed):
    """(splits, space) for `workload`; identical for identical seeds."""
    rng = np.random.default_rng(seed)
    space = OptionSpace(options=tuple(_labels(workload, rng)), template=workload.template,
                        name=workload.name)
    fillers = _words(rng, N_FILLERS, "q")
    splits = {}
    for split in SPLITS:
        n = getattr(workload, f"n_{split}")
        lengths = _spread(*workload.premise_tokens, n, rng)
        golds = _spread(*workload.golds, n, rng)
        splits[split] = [_instance(f"{split}-{i:05d}", lengths[i], golds[i], workload,
                                   space, fillers, rng) for i in range(n)]
    return splits, space


def to_bytes(splits, space):
    """Canonical serialization of generated inputs, for determinism checks."""
    payload = {"options": list(space.options), "template": space.template,
               "splits": {s: [[i.id, i.premise, sorted(i.gold), i.entity] for i in insts]
                          for s, insts in splits.items()}}
    return json.dumps(payload, sort_keys=True).encode("utf-8")
