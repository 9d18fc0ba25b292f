"""On-disk formats: dataset bundles (JSONL + sidecar space) and run configs.

A bundle directory holds train/dev/test.jsonl, options.txt (one option per
line), space.json (name + template), and optionally vocab.txt. Writers are
deterministic so identical inputs give identical bytes.
"""

import dataclasses
import json
import os

from ..encoder import EncoderConfig
from ..errors import DataError
from ..pairing import OptionSpace, SelectionInstance
from ..text import Vocabulary, build_vocab
from ..training import TrainConfig
from .synth import space_corpus

SPLIT_NAMES = ("train", "dev", "test")


def write_instances(path, instances):
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            rec = {"id": inst.id, "text": inst.premise, "gold": sorted(inst.gold)}
            if inst.entity is not None:
                rec["entity"] = inst.entity
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_instances(path):
    instances, seen = [], set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{line_no}: bad JSON ({exc})") from exc
            for key in ("id", "text", "gold"):
                if key not in rec:
                    raise DataError(f"{path}:{line_no}: missing {key!r}")
            if rec["id"] in seen:
                raise DataError(f"{path}:{line_no}: duplicate id {rec['id']!r}")
            seen.add(rec["id"])
            instances.append(SelectionInstance(id=rec["id"], premise=rec["text"],
                                               gold=frozenset(int(g) for g in rec["gold"]),
                                               entity=rec.get("entity")))
    return instances


def write_space(directory, space):
    with open(os.path.join(directory, "options.txt"), "w", encoding="utf-8") as fh:
        for opt in space.options:
            fh.write(opt + "\n")
    with open(os.path.join(directory, "space.json"), "w", encoding="utf-8") as fh:
        json.dump({"name": space.name, "template": space.template}, fh, sort_keys=True)
        fh.write("\n")


def read_space(directory):
    opt_path = os.path.join(directory, "options.txt")
    meta_path = os.path.join(directory, "space.json")
    for p in (opt_path, meta_path):
        if not os.path.exists(p):
            raise DataError(f"missing space file {p}")
    with open(opt_path, encoding="utf-8") as fh:
        options = tuple(line.rstrip("\n") for line in fh if line.strip())
    with open(meta_path, encoding="utf-8") as fh:
        meta = json.load(fh)
    return OptionSpace(options=options, template=meta["template"], name=meta.get("name", "default"))


def write_bundle(directory, splits, space):
    os.makedirs(directory, exist_ok=True)
    for split in SPLIT_NAMES:
        write_instances(os.path.join(directory, f"{split}.jsonl"), splits[split])
    write_space(directory, space)


def read_bundle(directory, require_vocab=False):
    """(splits, space, vocab or None); gold indices validated against the space."""
    space = read_space(directory)
    splits = {}
    for split in SPLIT_NAMES:
        path = os.path.join(directory, f"{split}.jsonl")
        if not os.path.exists(path):
            raise DataError(f"missing split file {path}")
        splits[split] = read_instances(path)
        for inst in splits[split]:
            if inst.gold and max(inst.gold) >= len(space):
                raise DataError(f"{inst.id}: gold index out of range for {len(space)} options")
    vocab_path = os.path.join(directory, "vocab.txt")
    vocab = Vocabulary.load(vocab_path) if os.path.exists(vocab_path) else None
    if require_vocab and vocab is None:
        raise DataError(f"no vocab.txt in {directory}; run build-vocab first")
    return splits, space, vocab


def build_bundle_vocab(directory, min_count=1):
    """Fit vocab.txt from the train split plus the space's own token needs."""
    splits, space, _ = read_bundle(directory)
    corpus = [inst.premise for inst in splits["train"]] + space_corpus(space)
    vocab = build_vocab(corpus, min_count=min_count)
    vocab.save(os.path.join(directory, "vocab.txt"))
    return vocab


@dataclasses.dataclass
class RunConfig:
    """Everything one run needs; JSON keys match field names exactly."""

    data_dir: str
    out_dir: str
    paradigm: str = "parallel"  # te | context | parallel
    k: int = 8  # layout width (parallel) or context count (context)
    retrieve_k: int = 0  # 0 = score the full option space
    tau: float = 0.5
    calibrate: bool = False  # pick tau on dev instead of using the fixed value
    multi_label: bool = False
    epochs: int = 5
    batch_size: int = 16
    learning_rate: float = 3e-4
    seed: int = 0
    augment: bool = False
    negative_ratio: float = 1.0
    rank_fill: bool = False
    early_stop: float = None
    layers: int = 2
    heads: int = 4
    model_dim: int = 64
    ff_dim: int = 256
    max_len: int = 256
    dropout: float = 0.1
    use_positions: bool = True
    model_seed: int = 0
    bi_epochs: int = 2
    bi_batch_size: int = 16
    bi_learning_rate: float = 3e-4
    temperature: float = 0.1
    bench_repetitions: int = 3
    bench_limit: int = 0  # cap on benchmarked instances; 0 = all


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def load_run_config(path, overrides=()):
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: bad JSON ({exc})") from exc
    unknown = set(raw) - set(_FIELD_TYPES)
    if unknown:
        raise DataError(f"{path}: unknown config keys {sorted(unknown)}")
    cfg = RunConfig(**raw)
    return apply_overrides(cfg, overrides)


def _coerce(name, text):
    default = getattr(RunConfig("", ""), name)
    if isinstance(default, bool):
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise DataError(f"{name} expects a boolean, got {text!r}")
    if name == "early_stop":
        if text.lower() == "none":
            return None
        parse = float
    elif isinstance(default, (int, float)):
        parse = type(default)
    else:
        return text
    try:
        return parse(text)
    except ValueError as exc:
        raise DataError(f"{name} expects {parse.__name__}, got {text!r}") from exc


def apply_overrides(cfg, overrides):
    for item in overrides:
        if "=" not in item:
            raise DataError(f"override {item!r} must look like key=value")
        name, text = item.split("=", 1)
        if name not in _FIELD_TYPES:
            raise DataError(f"unknown config key {name!r}")
        cfg = dataclasses.replace(cfg, **{name: _coerce(name, text)})
    return cfg


def write_resolved_config(path, cfg):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(cfg), fh, sort_keys=True, indent=2)
        fh.write("\n")


def encoder_config_from(cfg):
    return EncoderConfig(layers=cfg.layers, heads=cfg.heads, model_dim=cfg.model_dim,
                         ff_dim=cfg.ff_dim, max_len=cfg.max_len, dropout=cfg.dropout,
                         use_positions=cfg.use_positions, seed=cfg.model_seed)


def train_config_from(cfg, mode=None):
    return TrainConfig(mode=mode or cfg.paradigm, k=cfg.k, epochs=cfg.epochs,
                       batch_size=cfg.batch_size, learning_rate=cfg.learning_rate,
                       seed=cfg.seed, augment=cfg.augment,
                       negative_ratio=cfg.negative_ratio, rank_fill=cfg.rank_fill,
                       early_stop=cfg.early_stop)
