"""The measured phases of one benchmark run, their checks and their metrics.

Every phase is a closed loop with one caller: the next call into entsel goes
out only after the previous one returned. Calls go through module
attributes (`inference.evaluate`), which a traced run replaces with
wrappers.
"""

import contextlib
import gc
import json
import math
import os
import platform
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from entsel import encoder, inference, retrieval, training
from entsel.errors import NumericError
from entsel.workbench import datafiles

import workloads as wl

# Share of --seconds each phase measures for, after the warm-up calls.
# Every phase makes at least MIN_SAMPLES timed calls.
PHASE_SHARES = {
    "setup": 0.06,
    "bi_train": 0.08,
    "index_build": 0.06,
    "topk": 0.05,
    "train_te": 0.14,
    "train_context": 0.14,
    "train_parallel": 0.14,
    "calibrate": 0.05,
    "eval_te": 0.14,
    "eval_parallel": 0.14,
}
MIN_SAMPLES = 3
SCORE_TOL = 1e-9  # alone-vs-fused, absolute, on probabilities
REFERENCE_RTOL = 1e-9
REFERENCE_SEED = 0
REFERENCE_CASES = 2
REFERENCE_PATH = Path(__file__).with_name("reference_scores.json")

END_TO_END = (  # name, unit, better
    ("setup_s", "s", "lower"),
    ("te_cases_per_s", "cases/s", "higher"),
    ("parallel_cases_per_s", "cases/s", "higher"),
    ("te_passes_per_case", "passes", "lower"),
    ("parallel_passes_per_case", "passes", "lower"),
    ("te_train_steps_per_s", "steps/s", "higher"),
    ("context_train_steps_per_s", "steps/s", "higher"),
    ("parallel_train_steps_per_s", "steps/s", "higher"),
    ("bi_train_steps_per_s", "steps/s", "higher"),
    ("index_build_s", "s", "lower"),
    ("topk_queries_per_s", "queries/s", "higher"),
    ("calibrate_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)


class Tally:
    """Attempted and failed operations, with a message per failed check.

    An operation is a scored case, a training step, a query, a set-up, an
    index build or a calibration.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, ops, problems=(), failed=None):
        self.attempted += ops
        if problems:
            self.failed += ops if failed is None else failed
            self.problems.extend(problems)

    @property
    def fail_share(self):
        return self.failed / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_passes(case_id, mode, n_options, k, ledger):
    want = math.ceil(n_options / k) if mode == "parallel" else n_options
    if ledger.forward_passes == want:
        return []
    return [f"{case_id} {mode}: ledger shows {ledger.forward_passes} passes "
            f"for {n_options} options, expected {want}"]


def check_alone(case_id, fused, alone):
    """Scores of options scored alone against the same options in the fused call."""
    return [f"{case_id} option {so.index}: alone {so.score!r} vs fused {fused[so.index]!r}"
            for so in alone if abs(so.score - fused[so.index]) > SCORE_TOL]


def brute_force_top_k(matrix, query, k):
    scores = matrix @ query
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:k]


def check_reference(observed, expected):
    """One problem per (mode, case) whose scores left the recorded ones.

    observed/expected: mode -> case id -> [[option, score], ...].
    """
    problems = []
    for mode, cases in expected.items():
        for case_id, want in cases.items():
            got = observed.get(mode, {}).get(case_id)
            if got is None or [o for o, _ in got] != [o for o, _ in want]:
                problems.append(f"reference {case_id} {mode}: option order differs")
                continue
            for (opt, g), (_, w) in zip(got, want):
                if abs(g - w) > REFERENCE_RTOL * abs(w):
                    problems.append(f"reference {case_id} {mode} option {opt}: "
                                    f"{g!r} vs recorded {w!r}")
                    break
    return problems


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


@dataclass
class Run:
    workload: wl.Workload
    splits: dict
    space: object
    work_dir: str
    tally: Tally = field(default_factory=Tally)
    rng: object = None  # picks the option and chunk that are re-scored alone
    tracer: object = None
    quota: int = None  # timed calls per phase (traced runs) instead of run.seconds
    seconds: float = 0.0
    # outputs of each phase's first call, used by later phases
    vocab: object = None
    model: object = None
    bi_model: object = None
    index: object = None
    pools: dict = None
    recall: float = None
    tau: float = 0.5
    stats: dict = field(default_factory=dict)  # eval counts over the timed calls

    def paused(self):
        """Context in which program calls are not traced (the benchmark's checks)."""
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def candidates(self):
        return self.pools if self.workload.pools_feed_scoring else None

    def options_for(self, inst):
        if self.workload.pools_feed_scoring:
            return list(self.pools[inst.id])
        return list(range(len(self.space)))


def setup_once(splits, space, directory):
    """The program's set-up: bundle round trip, vocab, model init, checkpoint round trip."""
    bundle = os.path.join(directory, "bundle")
    ckpt = os.path.join(directory, "model.bin")
    t0 = time.perf_counter()
    datafiles.write_bundle(bundle, splits, space)
    vocab = datafiles.build_bundle_vocab(bundle)
    read_splits, read_space, read_vocab = datafiles.read_bundle(bundle, require_vocab=True)
    model = encoder.EncoderModel(encoder.EncoderConfig(), len(read_vocab))
    encoder.save_model(model, ckpt)
    loaded = encoder.load_model(ckpt)
    seconds = time.perf_counter() - t0
    problems = []
    if wl.to_bytes(read_splits, read_space) != wl.to_bytes(splits, space):
        problems.append("bundle read back differs from what was written")
    if len(read_vocab) != len(vocab):
        problems.append("vocab read back differs in size")
    for name, p in loaded.named_parameters().items():
        if not np.array_equal(p.data, model.named_parameters()[name].data):
            problems.append(f"checkpoint round trip changed {name}")
    return seconds, read_splits, read_space, read_vocab, loaded, problems


# Each *_op(run) returns op(i), the phase's i-th call, which returns a
# sample (seconds timed, units of work done).


def _setup_op(run):
    def op(i):
        with tempfile.TemporaryDirectory(dir=run.work_dir) as d:
            seconds, splits, space, vocab, model, problems = setup_once(run.splits, run.space, d)
        run.tally.add(1, problems)
        if i == 0:
            run.splits, run.space, run.vocab, run.model = splits, space, vocab, model
        return seconds, 1
    return op


def _fit_op(run, phase, fit):
    """A call fits a fresh copy of the set-up model for a fixed number of steps."""
    def op(i):
        with run.paused():
            model = run.model.copy()
        t0 = time.perf_counter()
        try:
            losses = fit(model)
        except NumericError as exc:
            run.tally.add(1, [f"{phase}: {exc}"])
            return time.perf_counter() - t0, 0
        seconds = time.perf_counter() - t0
        bad = sum(not math.isfinite(x) for x in losses)
        run.tally.add(len(losses), [f"{phase}: {bad} non-finite losses"] if bad else [],
                      failed=bad)
        if i == 0 and phase == "bi_train":
            run.bi_model = model
        return seconds, len(losses)
    return op


def _bi_train_op(run):
    return _fit_op(run, "bi_train", lambda m: retrieval.train_bi_encoder(
        m, run.splits["train"], run.space, run.vocab, epochs=1))


def _train_op(mode, k_field):
    def factory(run):
        k = getattr(run.workload, k_field) if k_field else 0
        cfg = training.TrainConfig(mode=mode, k=k, epochs=1)
        return _fit_op(run, f"train_{mode}", lambda m: training.train(
            m, run.splits["train"], run.space, run.vocab, cfg,
            candidates=run.candidates()).losses)
    return factory


def _index_build_op(run):
    def op(i):
        t0 = time.perf_counter()
        index = retrieval.build_index(run.bi_model, run.space, run.vocab)
        seconds = time.perf_counter() - t0
        if i == 0:
            run.index = index
        ok = index.matrix.shape[0] == len(run.space) and np.array_equal(
            index.matrix, run.index.matrix)
        run.tally.add(1, [] if ok else ["index rebuild is not bitwise stable"])
        return seconds, 1
    return op


def _topk_op(run):
    queries = [inst for split in wl.SPLITS for inst in run.splits[split]]
    k = run.workload.retrieve_k

    def op(i):
        t0 = time.perf_counter()
        pools = retrieval.retrieve_candidates(run.index, run.bi_model, run.vocab, queries, k)
        seconds = time.perf_counter() - t0
        inst = queries[i % len(queries)]
        with run.paused():
            want = brute_force_top_k(run.index.matrix,
                                     retrieval.embed_text(run.bi_model, run.vocab, inst.premise), k)
        problems = [] if pools[inst.id] == want else [
            f"{inst.id}: retrieved pool differs from brute-force top-{k}"]
        run.tally.add(len(queries), problems, failed=len(problems))
        if i == 0:
            run.pools = pools
            hits = sum(g in pools[q.id] for q in queries for g in q.gold)
            run.recall = hits / sum(len(q.gold) for q in queries)
        return seconds, len(queries)
    return op


def _calibrate_op(run):
    def op(i):
        t0 = time.perf_counter()
        tau = training.calibrate_threshold(run.model, run.splits["dev"], run.space, run.vocab,
                                           mode="parallel", k=run.workload.k_parallel,
                                           candidates=run.candidates())
        seconds = time.perf_counter() - t0
        if i == 0:
            run.tau = tau
        run.tally.add(1, [] if 0.0 < tau < 1.0 else [f"calibrated tau {tau} outside (0, 1)"])
        return seconds, 1
    return op


def score_case(run, mode, inst, check_alone_scores):
    """One evaluate call on one case; returns (seconds, result, problems)."""
    w = run.workload
    k = w.k_parallel if mode == "parallel" else None
    options = run.options_for(inst)
    cfg = inference.ParadigmConfig(mode=mode, k=k, tau=run.tau, candidates=run.candidates())
    t0 = time.perf_counter()
    result = inference.evaluate(run.model, [inst], run.space, run.vocab, cfg,
                                multi_label=w.multi_label)
    seconds = time.perf_counter() - t0
    problems = check_passes(inst.id, mode, len(options), k, result.ledger)
    if check_alone_scores:
        fused = {o: s for o, s in result.predictions[0]["scores"]}
        with run.paused():
            if mode == "parallel":
                chunks = [options[j:j + k] for j in range(0, len(options), k)]
                chunk = chunks[int(run.rng.integers(len(chunks)))]
                alone, _ = inference.score_parallel(run.model, inst, chunk, k,
                                                    run.space, run.vocab)
            else:
                opt = options[int(run.rng.integers(len(options)))]
                alone, _ = inference.score_pairwise(run.model, inst, [opt], mode,
                                                    run.space, run.vocab)
        problems += check_alone(inst.id, fused, alone)
    return seconds, result, problems


def _eval_op(mode):
    def factory(run):
        def op(i):
            stats = run.stats.setdefault(f"eval_{mode}", dict(cases=0, passes=0, tokens=0))
            seconds = 0.0
            cases = run.splits["test"]
            for j, inst in enumerate(cases):
                dt, result, problems = score_case(run, mode, inst,
                                                  check_alone_scores=(j == i % len(cases)))
                seconds += dt
                run.tally.add(1, problems)
                stats["cases"] += 1
                stats["passes"] += result.ledger.forward_passes
                stats["tokens"] += result.ledger.tokens_processed
            return seconds, len(cases)
        return op
    return factory


PHASES = (  # pipeline order: each phase may use the first call's outputs of those before it
    ("setup", _setup_op),
    ("bi_train", _bi_train_op),
    ("index_build", _index_build_op),
    ("topk", _topk_op),
    ("train_te", _train_op("te", None)),
    ("train_context", _train_op("context", "k_context")),
    ("train_parallel", _train_op("parallel", "k_parallel")),
    ("calibrate", _calibrate_op),
    ("eval_te", _eval_op("te")),
    ("eval_parallel", _eval_op("parallel")),
)


def measure(run):
    """One warm-up call per phase, then timed calls, in run.seconds.

    The warm-up calls run in pipeline order and set the outputs later phases
    use; their samples are dropped. Every later call of a phase does the same
    work, so its samples differ only by noise. The timed calls interleave:
    the next call goes to the phase furthest below its share of the time
    spent so far. The speed of a shared machine drifts within seconds, and
    interleaving lets every phase's median see the same mix of fast and
    slow moments. With run.quota, each phase makes that many timed calls in
    turn instead. Returns phase -> [(seconds, units), ...].
    """
    ops = dict((name, factory(run)) for name, factory in PHASES)
    calls = dict.fromkeys(ops, 0)

    def call(name):
        # Autodiff graphs are reference cycles; collect them between calls
        # so no timed call pays for garbage an earlier call left.
        gc.collect()
        if run.tracer:
            run.tracer.op = (name, calls[name])
        calls[name] += 1
        return ops[name](calls[name] - 1)

    start = time.perf_counter()
    with run.paused():
        for name in ops:
            call(name)
    run.stats = {}
    samples = {name: [] for name in ops}
    if run.quota:
        for _ in range(run.quota):
            for name in ops:
                samples[name].append(call(name))
    else:
        spent = dict.fromkeys(ops, 0.0)
        while True:
            short = [n for n in ops if len(samples[n]) < MIN_SAMPLES]
            if time.perf_counter() - start >= run.seconds and not short:
                break
            name = min(short or ops, key=lambda n: spent[n] / PHASE_SHARES[n])
            t0 = time.perf_counter()
            samples[name].append(call(name))
            spent[name] += time.perf_counter() - t0
    if run.tracer:
        run.tracer.op = None
    return samples


def _median_seconds(samples):
    return statistics.median(s for s, _ in samples)


def _median_rate(samples):
    return statistics.median(u / s for s, u in samples if s > 0)


def end_to_end(run, samples):
    st = run.stats
    return {
        "setup_s": _median_seconds(samples["setup"]),
        "te_cases_per_s": _median_rate(samples["eval_te"]),
        "parallel_cases_per_s": _median_rate(samples["eval_parallel"]),
        "te_passes_per_case": st["eval_te"]["passes"] / st["eval_te"]["cases"],
        "parallel_passes_per_case": st["eval_parallel"]["passes"] / st["eval_parallel"]["cases"],
        "te_train_steps_per_s": _median_rate(samples["train_te"]),
        "context_train_steps_per_s": _median_rate(samples["train_context"]),
        "parallel_train_steps_per_s": _median_rate(samples["train_parallel"]),
        "bi_train_steps_per_s": _median_rate(samples["bi_train"]),
        "index_build_s": _median_seconds(samples["index_build"]),
        "topk_queries_per_s": _median_rate(samples["topk"]),
        "calibrate_s": _median_seconds(samples["calibrate"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ---------------------------------------------------------------------------
# reference eval scores
# ---------------------------------------------------------------------------


def reference_scores(workload, work_dir):
    """Eval scores of the first test cases at REFERENCE_SEED with the set-up model.

    Pool workloads score the first retrieve_k options instead of a retrieved
    pool, so the reference does not depend on bi-encoder training.
    """
    splits, space = wl.generate(workload, REFERENCE_SEED)
    with tempfile.TemporaryDirectory(dir=work_dir) as d:
        _, _, space, vocab, model, _ = setup_once(splits, space, d)
    cases = splits["test"][:REFERENCE_CASES]
    n = workload.retrieve_k if workload.pools_feed_scoring else len(space)
    pools = {inst.id: list(range(n)) for inst in cases}
    out = {}
    for mode in ("te", "parallel"):
        cfg = inference.ParadigmConfig(mode=mode, k=workload.k_parallel if mode == "parallel"
                                       else None, candidates=pools)
        result = inference.evaluate(model, cases, space, vocab, cfg,
                                    multi_label=workload.multi_label)
        out[mode] = {rec["id"]: rec["scores"] for rec in result.predictions}
    return out


def check_against_reference(run):
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)["workloads"][run.workload.name]
    with run.paused():
        observed = reference_scores(run.workload, run.work_dir)
    problems = check_reference(observed, expected)
    run.tally.add(sum(len(c) for c in expected.values()), problems, failed=len(problems))
    return problems


def record_reference(work_dir):
    payload = {"seed": REFERENCE_SEED, "workloads": {
        name: reference_scores(w, work_dir) for name, w in wl.WORKLOADS.items()}}
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# machine block
# ---------------------------------------------------------------------------


def machine(seed, blas_threads):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas_name = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name, "blas_threads": blas_threads,
            "seed": seed}
