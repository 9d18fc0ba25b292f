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
from ..files import atomic_write
from ..pairing import OptionSpace, SelectionInstance
from ..text import Vocabulary, build_vocab
from ..training import TrainConfig
from .synth import space_corpus

SPLIT_NAMES = ("train", "dev", "test")


def write_json(path, payload, indent=None):
    with atomic_write(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=indent)
        fh.write("\n")


def write_instances(path, instances):
    with atomic_write(path) as fh:
        for inst in instances:
            rec = {"id": inst.id, "text": inst.premise, "gold": sorted(inst.gold)}
            if inst.entity is not None:
                rec["entity"] = inst.entity
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _read_text(path):
    """The whole file as text; bad UTF-8 raises DataError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8 ({exc})") from exc


def read_json_object(path):
    """The JSON object in `path`; bad UTF-8, bad JSON or a JSON value of
    another type raises DataError naming the file."""
    try:
        payload = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: bad JSON ({exc})") from exc
    if type(payload) is not dict:
        raise DataError(f"{path}: expected a JSON object")
    return payload


def read_instances(path):
    instances, seen = [], set()
    for line_no, line in enumerate(_read_text(path).split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{line_no}: bad JSON ({exc})") from exc
        if type(rec) is not dict:
            raise DataError(f"{path}:{line_no}: expected a JSON object")
        for key, want in (("id", str), ("text", str), ("gold", list)):
            if type(rec.get(key)) is not want:
                raise DataError(f"{path}:{line_no}: {key!r} missing or not a {want.__name__}")
        if not all(type(g) is int for g in rec["gold"]):
            raise DataError(f"{path}:{line_no}: 'gold' must be a list of integers")
        if rec.get("entity") is not None and type(rec["entity"]) is not str:
            raise DataError(f"{path}:{line_no}: 'entity' must be a string")
        if rec["id"] in seen:
            raise DataError(f"{path}:{line_no}: duplicate id {rec['id']!r}")
        seen.add(rec["id"])
        instances.append(SelectionInstance(id=rec["id"], premise=rec["text"],
                                           gold=frozenset(rec["gold"]), entity=rec.get("entity")))
    return instances


def write_space(directory, space):
    with atomic_write(os.path.join(directory, "options.txt")) as fh:
        for opt in space.options:
            fh.write(opt + "\n")
    write_json(os.path.join(directory, "space.json"),
               {"name": space.name, "template": space.template})


def read_space(directory):
    opt_path = os.path.join(directory, "options.txt")
    meta_path = os.path.join(directory, "space.json")
    for p in (opt_path, meta_path):
        if not os.path.exists(p):
            raise DataError(f"missing space file {p}")
    options = tuple(line for line in _read_text(opt_path).split("\n") if line.strip())
    meta = read_json_object(meta_path)
    if type(meta.get("template")) is not str:
        raise DataError(f"{meta_path}: expected an object with a string 'template'")
    try:
        return OptionSpace(options=options, template=meta["template"],
                           name=meta.get("name", "default"))
    except DataError as exc:  # duplicate labels or a template without one [LABEL]
        raise DataError(f"{opt_path}, {meta_path}: {exc}") from exc


def write_bundle(directory, splits, space):
    os.makedirs(directory, exist_ok=True)
    for split in SPLIT_NAMES:
        write_instances(os.path.join(directory, f"{split}.jsonl"), splits[split])
    write_space(directory, space)


def _read_splits_and_space(directory):
    """(splits, space) with every gold index checked against the space."""
    space = read_space(directory)
    splits = {}
    for split in SPLIT_NAMES:
        path = os.path.join(directory, f"{split}.jsonl")
        if not os.path.exists(path):
            raise DataError(f"missing split file {path}")
        splits[split] = read_instances(path)
        if not splits[split]:
            raise DataError(f"{path}: no instances")
        for inst in splits[split]:
            if inst.gold and not (min(inst.gold) >= 0 and max(inst.gold) < len(space)):
                raise DataError(f"{path}: {inst.id}: gold index outside [0, {len(space)})")
    return splits, space


def read_bundle(directory, require_vocab=False):
    """(splits, space, vocab or None); gold indices validated against the space."""
    splits, space = _read_splits_and_space(directory)
    vocab_path = os.path.join(directory, "vocab.txt")
    vocab = Vocabulary.load(vocab_path) if os.path.exists(vocab_path) else None
    if require_vocab and vocab is None:
        raise DataError(f"no vocab.txt in {directory}; run build-vocab first")
    return splits, space, vocab


def build_bundle_vocab(directory, min_count=1):
    """Fit vocab.txt from the train split plus the space's own token needs; an
    existing vocab.txt is overwritten unread."""
    splits, space = _read_splits_and_space(directory)
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

    def __post_init__(self):
        # the fields that never reach TrainConfig; building one checks the rest
        for name, low in (("bi_epochs", 1), ("bi_batch_size", 2), ("bench_repetitions", 3),
                          ("bench_limit", 0), ("retrieve_k", 0)):
            if getattr(self, name) < low:
                raise DataError(f"{name}: must be >= {low}, got {getattr(self, name)}")
        try:
            train_config_from(self)
        except DataError as exc:  # name the run-config key: TrainConfig's mode is paradigm
            msg = str(exc)
            raise DataError("paradigm" + msg[4:] if msg.startswith("mode: ") else msg) from exc


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _check_type(name, value):
    want = _FIELD_TYPES[name]
    if name == "early_stop" and value is None:
        return
    if want is float and type(value) is int:
        return
    if type(value) is not want:  # exact: a bool is no int, an int no bool
        raise DataError(f"{name} expects {want.__name__}, got {value!r}")


def load_run_config(path, overrides=()):
    """The RunConfig of a JSON file with `key=value` overrides applied on top;
    every rule (RunConfig's and TrainConfig's) is checked once, on the result."""
    raw = read_json_object(path)
    unknown = set(raw) - set(_FIELD_TYPES)
    if unknown:
        raise DataError(f"{path}: unknown config keys {sorted(unknown)}")
    try:
        for name, value in raw.items():
            _check_type(name, value)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    raw.update(_parse_overrides(overrides))
    try:
        return RunConfig(**raw)
    except (DataError, TypeError) as exc:  # TypeError: a required key is missing
        raise DataError(f"{path}: {exc}") from exc


def _coerce(name, text):
    want = _FIELD_TYPES[name]
    if want is bool:
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise DataError(f"{name} expects a boolean, got {text!r}")
    if name == "early_stop":
        if text.lower() == "none":
            return None
        parse = float
    elif want in (int, float):
        parse = want
    else:
        return text
    try:
        return parse(text)
    except ValueError as exc:
        raise DataError(f"{name} expects {parse.__name__}, got {text!r}") from exc


def _parse_overrides(overrides):
    """{key: typed value} of `key=value` items; a later item wins."""
    out = {}
    for item in overrides:
        if "=" not in item:
            raise DataError(f"override {item!r} must look like key=value")
        name, text = item.split("=", 1)
        if name not in _FIELD_TYPES:
            raise DataError(f"unknown config key {name!r}")
        out[name] = _coerce(name, text)
    return out


def encoder_config_from(cfg):
    return EncoderConfig(layers=cfg.layers, heads=cfg.heads, model_dim=cfg.model_dim,
                         ff_dim=cfg.ff_dim, max_len=cfg.max_len, dropout=cfg.dropout,
                         use_positions=cfg.use_positions, seed=cfg.model_seed)


def train_config_from(cfg, mode=None):
    return TrainConfig(mode=mode or cfg.paradigm, k=cfg.k, epochs=cfg.epochs,
                       batch_size=cfg.batch_size, learning_rate=cfg.learning_rate,
                       seed=cfg.seed, augment=cfg.augment,
                       negative_ratio=cfg.negative_ratio, early_stop=cfg.early_stop)
