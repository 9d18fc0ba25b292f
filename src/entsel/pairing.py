"""Input construction for all three scoring paradigms.

Every layout is [CLS] P [SEP] H_1 [SEP] ... H_m [SEP], built by one builder,
`_layout`. The paradigms differ only in how many of the H are scored: TE
scores its one H; Context-TE scores H_1 and appends k unscored rivals after
it; Parallel-TE scores all m. Scored hypotheses carry a span (separators
excluded), an option index and a gold label. The premise end is the only
part ever truncated; hypotheses stay intact.
"""

from dataclasses import dataclass

from .errors import DataError, LayoutError
from .text import CLS_ID, SEP_ID


@dataclass(frozen=True)
class OptionSpace:
    """Ordered option labels plus the verbalization template."""

    options: tuple
    template: str = "[LABEL]"
    name: str = "default"

    def __post_init__(self):
        object.__setattr__(self, "options", tuple(self.options))
        if len(set(self.options)) != len(self.options):
            raise DataError("option labels must be unique")
        if self.template.count("[LABEL]") != 1:
            raise DataError("template must contain exactly one [LABEL]")

    def __len__(self):
        return len(self.options)


@dataclass(frozen=True)
class SelectionInstance:
    """One task example: premise text plus gold option indices."""

    id: str
    premise: str
    gold: frozenset
    entity: str = None

    def __post_init__(self):
        object.__setattr__(self, "gold", frozenset(self.gold))


@dataclass(frozen=True)
class LayoutedInput:
    """Encoded (P, H_1..H_m) sequence; labels[j] is the gold membership of
    option_indices[j], whose hypothesis occupies ids[slice(*option_spans[j])]."""

    ids: tuple
    option_spans: tuple
    option_indices: tuple
    labels: tuple


def verbalize(space, option_index, entity=None):
    """Hypothesis text: template with [LABEL] (and optional [ENTITY]) filled."""
    if not 0 <= option_index < len(space):
        raise DataError(f"option index {option_index} out of range for space of {len(space)}")
    text = space.template.replace("[LABEL]", space.options[option_index])
    if "[ENTITY]" in text:
        if entity is None:
            raise DataError("template requires [ENTITY] but instance has no entity")
        text = text.replace("[ENTITY]", entity)
    return text


def _frame_len(hyp_lens):
    """Layout tokens outside the premise: [CLS], [SEP] and each H with its [SEP]."""
    return 2 + sum(n + 1 for n in hyp_lens)


def _premise_floor(premise):
    """Premise tokens a layout keeps at least: one, or none of an empty premise."""
    return min(1, len(premise))


def shortest_pair_len(space, instances, vocab, width=1):
    """A lower bound on the length of any layout of `width` hypotheses of
    `instances`: the premise floor and the frame of the `width` shortest
    hypotheses, [ENTITY] filled by nothing."""
    premise = min((_premise_floor(vocab.encode(inst.premise)) for inst in instances), default=1)
    hyps = sorted(len(vocab.encode(verbalize(space, i, ""))) for i in range(len(space)))
    return _frame_len(hyps[:width]) + premise


def _layout(instance, options, n_scored, space, vocab, max_len):
    """[CLS] P [SEP] H_1 [SEP] ... H_m [SEP] over `options`; the first
    n_scored hypotheses are scored, the rest are unscored context."""
    hyps = [vocab.encode(verbalize(space, i, instance.entity)) for i in options]
    if not all(hyps):
        raise LayoutError("hypothesis verbalized to an empty token sequence")
    premise = vocab.encode(instance.premise)
    budget = max_len - _frame_len(map(len, hyps))
    if budget < _premise_floor(premise):
        raise LayoutError(f"hypotheses alone exceed max_len {max_len}")
    ids = [CLS_ID] + premise[:budget] + [SEP_ID]
    spans = []
    for h in hyps:
        spans.append((len(ids), len(ids) + len(h)))
        ids += h + [SEP_ID]
    scored = tuple(options[:n_scored])
    return LayoutedInput(ids=tuple(ids), option_spans=tuple(spans[:n_scored]),
                         option_indices=scored,
                         labels=tuple(i in instance.gold for i in scored))


def make_te_pair(instance, option_index, space, vocab, max_len):
    """Pairwise layout [CLS] P [SEP] H [SEP]; label = gold membership."""
    return _layout(instance, [option_index], 1, space, vocab, max_len)


def make_context_pair(instance, option_index, context_pool, k, rng, space, vocab, max_len):
    """Contextualized layout: k competing options appended in random order.

    The competing context never changes the label: it equals make_te_pair's
    label for (instance, option_index). Context options are drawn uniformly
    without replacement from `context_pool`, which must exclude option_index.
    """
    pool = list(context_pool)
    if option_index in pool:
        raise DataError("context pool must exclude the scored option")
    if len(pool) < k:
        raise DataError(f"context pool of {len(pool)} cannot supply k={k} options")
    chosen = [pool[i] for i in rng.choice(len(pool), size=k, replace=False)] if k else []
    return _layout(instance, [option_index] + chosen, 1, space, vocab, max_len)


def make_parallel_pair(instance, option_indices, space, vocab, max_len):
    """Multi-hypothesis layout; every option is scored with its own gold label."""
    option_indices = list(option_indices)
    if len(set(option_indices)) != len(option_indices):
        raise DataError("parallel layout options must be distinct")
    if not option_indices:
        raise DataError("parallel layout needs at least one option")
    return _layout(instance, option_indices, len(option_indices), space, vocab, max_len)


def shuffle_augment(instance, option_indices, k, rng, space, vocab, max_len):
    """k parallel layouts of one option set, gold at k distinct positions.

    Applies to single-label groups only: exactly one of option_indices must
    be gold, and k cannot exceed the group size (pigeonhole).
    """
    option_indices = list(option_indices)
    golds = [i for i in option_indices if i in instance.gold]
    if len(golds) != 1:
        raise DataError(f"shuffle augmentation needs exactly one gold option, got {len(golds)}")
    if not 1 <= k <= len(option_indices):
        raise DataError(f"k={k} but only {len(option_indices)} positions available")
    gold = golds[0]
    rest = [i for i in option_indices if i != gold]
    positions = rng.choice(len(option_indices), size=k, replace=False)
    layouts = []
    for pos in positions:
        order = [rest[j] for j in rng.permutation(len(rest))]
        order.insert(int(pos), gold)
        layouts.append(make_parallel_pair(instance, order, space, vocab, max_len))
    return layouts


def chunk_options(option_indices, k):
    """Consecutive chunks of size k; the last chunk keeps the remainder."""
    option_indices = list(option_indices)
    if not option_indices:
        raise DataError("cannot chunk an empty option list")
    if k < 1:
        raise DataError("chunk size must be >= 1")
    return [option_indices[i:i + k] for i in range(0, len(option_indices), k)]
