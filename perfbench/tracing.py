"""Spans around entsel's public functions, and the per-layer metrics built from them.

The tracer replaces each wrapped function at every binding its callers use:
a function imported by name (`from .encoder import encode_batch`) lives in
several module namespaces, and each one gets the wrapper. Methods are
replaced on their class. A name that no longer exists is reported as absent
instead of failing the run, so a refactor of `src/` does not break tracing.
Spans stay in memory until the run writes them out.
"""

import contextlib
import importlib
import json
import math
import sys
import time
from collections import defaultdict

import suite

# span name -> (module, attribute path)
WRAPPED = {
    "workbench.write_bundle": ("entsel.workbench.datafiles", "write_bundle"),
    "workbench.read_bundle": ("entsel.workbench.datafiles", "read_bundle"),
    "workbench.build_bundle_vocab": ("entsel.workbench.datafiles", "build_bundle_vocab"),
    "text.encode": ("entsel.text", "Vocabulary.encode"),
    "pairing.make_te_pair": ("entsel.pairing", "make_te_pair"),
    "pairing.make_context_pair": ("entsel.pairing", "make_context_pair"),
    "pairing.make_parallel_pair": ("entsel.pairing", "make_parallel_pair"),
    **{f"numerics.{op}": ("entsel.numerics.tensor", op) for op in (
        "matmul", "add", "mul", "gelu", "softmax", "layer_norm", "embedding", "reshape",
        "transpose", "dropout", "sigmoid", "log", "backward")},
    "encoder.encode_batch": ("entsel.encoder", "encode_batch"),
    "encoder.classify_pairs_batch": ("entsel.encoder", "classify_pairs_batch"),
    "encoder.score_options_batch": ("entsel.encoder", "score_options_batch"),
    "encoder.bi_encode_rows": ("entsel.encoder", "bi_encode_rows"),
    "encoder.save_model": ("entsel.encoder", "save_model"),
    "encoder.load_model": ("entsel.encoder", "load_model"),
    "inference.evaluate": ("entsel.inference", "evaluate"),
    "inference.score_pairwise": ("entsel.inference", "score_pairwise"),
    "inference.score_parallel": ("entsel.inference", "score_parallel"),
    "training.train": ("entsel.training", "train"),
    "training.Adam.step": ("entsel.training", "Adam.step"),
    "training.calibrate_threshold": ("entsel.training", "calibrate_threshold"),
    "training.scan_threshold": ("entsel.training", "scan_threshold"),
    "retrieval.train_bi_encoder": ("entsel.retrieval", "train_bi_encoder"),
    "retrieval.build_index": ("entsel.retrieval", "build_index"),
    "retrieval.retrieve_candidates": ("entsel.retrieval", "retrieve_candidates"),
}


def _matmul_work(a, b, *_):
    # multiply-adds: every output element is a dot product over the inner axis
    return math.prod(a.shape[:-1]) * b.shape[-1] * a.shape[-1]


def _size(x, *_args, **_kw):
    return x.size


def _encode_batch_work(_model, ids, *_args, **_kw):
    rows, seq = ids.shape
    return rows, rows * seq


# work counted from argument shapes, not measured
WORK = {
    "numerics.matmul": _matmul_work,
    "numerics.gelu": _size,
    "numerics.softmax": _size,
    "numerics.layer_norm": _size,
    "encoder.encode_batch": _encode_batch_work,
}

PER_LAYER = (  # name, unit, better
    ("workbench.write_bundle.s", "s", "lower"),
    ("workbench.read_bundle.s", "s", "lower"),
    ("workbench.build_bundle_vocab.s", "s", "lower"),
    ("text.encode.calls", "count", "lower"),
    ("text.encode.s", "s", "lower"),
    *[(f"pairing.{fn}.{m}", u, "lower") for fn in (
        "make_te_pair", "make_context_pair", "make_parallel_pair")
      for m, u in (("calls", "count"), ("s", "s"))],
    *[(f"numerics.{op}.{m}", u, "lower") for op in (
        "matmul", "add", "mul", "gelu", "softmax", "layer_norm", "embedding", "reshape",
        "transpose", "dropout", "sigmoid", "log", "backward")
      for m, u in (("calls", "count"), ("s", "s"))],
    ("numerics.matmul.elements", "muladd.computed", "lower"),
    ("numerics.gelu.elements", "elem.computed", "lower"),
    ("numerics.softmax.elements", "elem.computed", "lower"),
    ("numerics.layer_norm.elements", "elem.computed", "lower"),
    ("encoder.encode_batch.calls", "count", "lower"),
    ("encoder.encode_batch.s", "s", "lower"),
    ("encoder.encode_batch.rows", "count", "lower"),
    ("encoder.encode_batch.tokens", "count", "lower"),
    ("encoder.classify_pairs_batch.s", "s", "lower"),
    ("encoder.score_options_batch.s", "s", "lower"),
    ("encoder.bi_encode_rows.calls", "count", "lower"),
    ("encoder.bi_encode_rows.s", "s", "lower"),
    ("encoder.save_model.s", "s", "lower"),
    ("encoder.load_model.s", "s", "lower"),
    ("encoder.real_token_share", "ratio", "higher"),
    ("inference.score_pairwise.calls", "count", "lower"),
    ("inference.score_pairwise.s", "s", "lower"),
    ("inference.score_pairwise.self_s", "s", "lower"),
    ("inference.score_parallel.calls", "count", "lower"),
    ("inference.score_parallel.s", "s", "lower"),
    ("inference.score_parallel.self_s", "s", "lower"),
    ("inference.te.fused_calls_per_case", "calls/case", "lower"),
    ("inference.parallel.fused_calls_per_case", "calls/case", "lower"),
    ("inference.te.tokens_per_case", "tokens/case", "lower"),
    ("inference.parallel.tokens_per_case", "tokens/case", "lower"),
    ("inference.wall_ratio_te_over_parallel", "ratio", "higher"),
    ("training.train.self_s", "s", "lower"),
    ("training.Adam.step.calls", "count", "lower"),
    ("training.Adam.step.s", "s", "lower"),
    ("training.te.fused_calls_per_step", "calls/step", "lower"),
    ("training.context.fused_calls_per_step", "calls/step", "lower"),
    ("training.parallel.fused_calls_per_step", "calls/step", "lower"),
    ("training.calibrate_threshold.s", "s", "lower"),
    ("training.scan_threshold.s", "s", "lower"),
    ("retrieval.train_bi_encoder.s", "s", "lower"),
    ("retrieval.build_index.s", "s", "lower"),
    ("retrieval.retrieve_candidates.calls", "count", "lower"),
    ("retrieval.retrieve_candidates.s", "s", "lower"),
    ("retrieval.retrieve_candidates.self_s", "s", "lower"),
    ("retrieval.recall_at_k", "ratio", "higher"),
    ("tracing.overhead_share", "ratio", "lower"),
)


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, operation.

    `op` is set by the benchmark to the (phase, call index) in progress.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op, work]
        self.op = None
        self.absent = []
        self._stack = []
        self._paused = False
        self._restore = []

    def _wrap(self, name, fn):
        work = WORK.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op,
                    work(*args, **kwargs) if work else None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()

        return traced

    def install(self):
        for name, (module_name, path) in WRAPPED.items():
            try:
                owner = importlib.import_module(module_name)
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner_path:  # a method: callers reach it through the class
                self._patch(owner, attr, original, wrapper)
                continue
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if namespace is None:
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    @contextlib.contextmanager
    def paused(self):
        was, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = was

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, _work) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent,
                                     "op": f"{op[0]}#{op[1]}" if op else None}) + "\n")


def _seconds_per_unit(samples):
    return sum(s for s, _ in samples) / sum(u for _, u in samples)


def per_layer(tracer, run, untraced, traced):
    """Per-layer metrics from the spans of one traced pass of `run`.

    `untraced` and `traced` map each phase to its timed samples, (seconds,
    units), from the same calls made without and with tracing.
    """
    stats = run.stats
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _op, _work in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    work = defaultdict(int)
    rows = 0
    phase_calls = defaultdict(int)  # (span name, phase) -> calls
    phase_tokens = defaultdict(int)  # phase -> encode_batch tokens
    for i, (name, start, end, _parent, op, w) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child[i]
        phase = op[0] if op else None
        phase_calls[name, phase] += 1
        if name == "encoder.encode_batch":
            rows += w[0]
            work[name] += w[1]
            phase_tokens[phase] += w[1]
        elif w is not None:
            work[name] += w

    m = {}
    for name in WRAPPED:
        if name in tracer.absent:
            continue
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = total[name]
        m[f"{name}.self_s"] = self_s[name]
    for name in ("numerics.matmul", "numerics.gelu", "numerics.softmax", "numerics.layer_norm"):
        m[f"{name}.elements"] = work[name]
    m["encoder.encode_batch.rows"] = rows
    m["encoder.encode_batch.tokens"] = work["encoder.encode_batch"]
    ledger_tokens = sum(stats[p]["tokens"] for p in ("eval_te", "eval_parallel"))
    batch_tokens = sum(phase_tokens[p] for p in ("eval_te", "eval_parallel"))
    m["encoder.real_token_share"] = ledger_tokens / batch_tokens if batch_tokens else 0.0
    for mode in ("te", "parallel"):
        st = stats[f"eval_{mode}"]
        m[f"inference.{mode}.fused_calls_per_case"] = (
            phase_calls["encoder.encode_batch", f"eval_{mode}"] / st["cases"])
        m[f"inference.{mode}.tokens_per_case"] = st["tokens"] / st["cases"]
    m["inference.wall_ratio_te_over_parallel"] = (
        _seconds_per_unit(untraced["eval_te"]) / _seconds_per_unit(untraced["eval_parallel"]))
    for mode in ("te", "context", "parallel"):
        steps = phase_calls["training.Adam.step", f"train_{mode}"]
        m[f"training.{mode}.fused_calls_per_step"] = (
            phase_calls["encoder.encode_batch", f"train_{mode}"] / steps if steps else 0.0)
    m["retrieval.recall_at_k"] = run.recall
    on = sum(s for samples in traced.values() for s, _ in samples)
    off = sum(s for samples in untraced.values() for s, _ in samples)
    m["tracing.overhead_share"] = (on - off) / off
    return {name: m[name] for name, _, _ in PER_LAYER if name in m}


def trace(run, quota, spans_path):
    """Measure `quota` calls per phase of `run` untraced, then the same calls traced.

    Prints the untraced and traced time of each phase, writes the spans to
    `spans_path`, and returns the per-layer metrics.
    """
    run.quota = quota
    untraced = suite.measure(run)
    tracer = Tracer()
    tracer.install()
    run.tracer = tracer
    try:
        traced = suite.measure(run)
    finally:
        tracer.uninstall()
        run.tracer = None
    for phase in untraced:
        off = sum(s for s, _ in untraced[phase])
        on = sum(s for s, _ in traced[phase])
        print(f"trace {phase}: untraced {off:.4f} s, traced {on:.4f} s, "
              f"overhead {(on - off) / off:+.1%}")
    tracer.write(spans_path)
    print(f"trace wrote {len(tracer.spans)} spans to {spans_path}")
    if tracer.absent:
        print("trace absent: " + " ".join(tracer.absent))
    return per_layer(tracer, run, untraced, traced)
