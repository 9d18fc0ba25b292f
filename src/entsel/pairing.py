"""Input construction for all three scoring paradigms.

Layouts are token sequences [CLS] premise [SEP] hyp [SEP] ... hyp [SEP] with
recorded premise/hypothesis spans (separator tokens excluded from spans).
The premise end is the only part ever truncated; hypotheses stay intact.
"""

from dataclasses import dataclass, field

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
    """Encoded (P, H_1..H_k) sequence with span bookkeeping.

    labels[i] is the gold membership of option_indices[i]; pairwise and
    contextualized layouts carry exactly one labeled option (see .label).
    Context options are tracked separately and carry no labels.
    """

    ids: tuple
    premise_span: tuple
    option_spans: tuple
    option_indices: tuple
    labels: tuple
    context_indices: tuple = field(default=())
    context_spans: tuple = field(default=())

    def __post_init__(self):
        if not self.ids or self.ids[0] != CLS_ID:
            raise LayoutError("layout must start with [CLS]")
        if not (len(self.option_spans) == len(self.option_indices) == len(self.labels)):
            raise LayoutError("option spans, indices, and labels must align")

    @property
    def label(self):
        if len(self.labels) != 1:
            raise LayoutError("label is only defined for single-option layouts")
        return self.labels[0]

    def __len__(self):
        return len(self.ids)


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


def _assemble(premise_ids, hypothesis_ids, max_len):
    """[CLS] premise [SEP] h [SEP] ... with premise-end truncation only."""
    for h in hypothesis_ids:
        if not h:
            raise LayoutError("hypothesis verbalized to an empty token sequence")
    overhead = 2 + sum(len(h) + 1 for h in hypothesis_ids)
    budget = max_len - overhead
    if budget < min(1, len(premise_ids)):
        raise LayoutError(f"hypotheses alone exceed max_len {max_len}")
    premise = premise_ids[:budget] if budget < len(premise_ids) else premise_ids
    ids = [CLS_ID] + list(premise) + [SEP_ID]
    premise_span = (1, 1 + len(premise))
    spans = []
    for h in hypothesis_ids:
        start = len(ids)
        ids.extend(h)
        ids.append(SEP_ID)
        spans.append((start, start + len(h)))
    return tuple(ids), premise_span, tuple(spans)


def make_te_pair(instance, option_index, space, vocab, max_len):
    """Pairwise layout [CLS] P [SEP] H [SEP]; label = gold membership."""
    hyp = vocab.encode(verbalize(space, option_index, instance.entity))
    ids, premise_span, spans = _assemble(vocab.encode(instance.premise), [hyp], max_len)
    return LayoutedInput(ids=ids, premise_span=premise_span, option_spans=spans,
                         option_indices=(option_index,),
                         labels=(option_index in instance.gold,))


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
    hyps = [vocab.encode(verbalize(space, i, instance.entity))
            for i in [option_index] + chosen]
    ids, premise_span, spans = _assemble(vocab.encode(instance.premise), hyps, max_len)
    return LayoutedInput(ids=ids, premise_span=premise_span, option_spans=spans[:1],
                         option_indices=(option_index,),
                         labels=(option_index in instance.gold,),
                         context_indices=tuple(chosen), context_spans=spans[1:])


def make_parallel_pair(instance, option_indices, space, vocab, max_len):
    """Multi-hypothesis layout; every option keeps its own gold label."""
    option_indices = tuple(option_indices)
    if len(set(option_indices)) != len(option_indices):
        raise DataError("parallel layout options must be distinct")
    if not option_indices:
        raise DataError("parallel layout needs at least one option")
    hyps = [vocab.encode(verbalize(space, i, instance.entity)) for i in option_indices]
    ids, premise_span, spans = _assemble(vocab.encode(instance.premise), hyps, max_len)
    return LayoutedInput(ids=ids, premise_span=premise_span, option_spans=spans,
                         option_indices=option_indices,
                         labels=tuple(i in instance.gold for i in option_indices))


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
