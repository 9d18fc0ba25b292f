"""Whitespace tokenization and vocabulary management.

Reserved ids: [PAD]=0, [UNK]=1, [CLS]=2, [SEP]=3. The vocabulary file format
is one non-reserved token per line; line number = id - 4.
"""

from collections import Counter

from .errors import DataError
from .files import atomic_write

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3

RESERVED = ("[PAD]", "[UNK]", "[CLS]", "[SEP]")
N_RESERVED = len(RESERVED)


def tokenize(text):
    """Lowercased whitespace split; empty text gives no tokens."""
    return text.lower().split()


class Vocabulary:
    """Immutable token <-> id maps with fixed reserved entries."""

    def __init__(self, tokens):
        self._id_to_token = list(RESERVED) + list(tokens)
        self._token_to_id = {t: i for i, t in enumerate(self._id_to_token)}
        if len(self._token_to_id) != len(self._id_to_token):
            raise DataError("duplicate tokens in vocabulary")

    def __len__(self):
        return len(self._id_to_token)

    def __contains__(self, token):
        return token in self._token_to_id

    def id_of(self, token):
        return self._token_to_id.get(token, UNK_ID)

    def token_of(self, idx):
        if not 0 <= idx < len(self._id_to_token):
            raise DataError(f"token id {idx} out of range (vocab size {len(self)})")
        return self._id_to_token[idx]

    def encode(self, text):
        """Token ids for `text`; unknowns map to [UNK], no CLS/SEP inserted."""
        return [self._token_to_id.get(t, UNK_ID) for t in tokenize(text)]

    def decode(self, ids):
        """Space-joined tokens; reserved ids render as their bracketed names."""
        return " ".join(self.token_of(i) for i in ids)

    def save(self, path):
        with atomic_write(path) as fh:
            for token in self._id_to_token[N_RESERVED:]:
                fh.write(token + "\n")

    @classmethod
    def load(cls, path):
        try:
            with open(path, encoding="utf-8") as fh:
                return cls([t for t in fh.read().split("\n") if t])
        except (UnicodeDecodeError, DataError) as exc:  # bad UTF-8 or duplicate tokens
            raise DataError(f"{path}: {exc}") from exc


def build_vocab(corpus, min_count=1):
    """Vocabulary over lowercased whitespace tokens with count >= min_count.

    Ids are assigned by frequency (descending), ties broken lexicographically,
    so the result is deterministic for a given corpus.
    """
    corpus = list(corpus)
    if not corpus:
        raise DataError("cannot build a vocabulary from an empty corpus")
    counts = Counter()
    for text in corpus:
        counts.update(tokenize(text))
    kept = [t for t, c in counts.items() if c >= min_count]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary(kept)
