"""Benchmark entsel end to end, or module by module with --trace 1.

    python3 perfbench/run.py --workload short_pairs --seed 1 --seconds 30 --trace 0

Builds its inputs from --seed, runs every phase of the workload in-process
against the entsel sources in ../src, checks the outputs, and prints one
JSON object as its last line of output: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1. See README.md in this directory.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

# Pinned before numpy loads: one BLAS thread never exceeds nproc, and the
# closed loop has a single caller, so more threads would only add noise.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
TRACE_QUOTA = 2  # timed calls per phase in a traced run


def _import_entsel():
    """Import entsel from this checkout's src/ only; exit with an error otherwise."""
    if not (SRC / "entsel" / "__init__.py").is_file():
        sys.exit(f"perfbench: no entsel sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import entsel

    if Path(entsel.__file__).resolve().parent != SRC / "entsel":
        sys.exit(f"perfbench: entsel imported from {entsel.__file__}, not from {SRC}")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("short_pairs", "long_premise", "large_space"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="rewrite reference_scores.json from this checkout and exit")
    args = p.parse_args(argv)
    if not args.record_reference and args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = _parse(argv)
    _import_entsel()
    import numpy as np

    import suite
    import tracing
    import workloads

    WORK.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=WORK)
    try:
        if args.record_reference:
            suite.record_reference(work_dir)
            print(f"wrote {suite.REFERENCE_PATH}")
            return 0
        workload = workloads.WORKLOADS[args.workload]
        splits, space = workloads.generate(workload, args.seed)
        run = suite.Run(workload=workload, splits=splits, space=space, work_dir=work_dir,
                        rng=np.random.default_rng(args.seed), seconds=args.seconds)
        info = suite.machine(args.seed, BLAS_THREADS)
        print("machine " + " ".join(f"{k}={v}" for k, v in info.items())
              + f" workload={workload.name}")
        if args.trace:
            spans = WORK / f"spans-{workload.name}-seed{args.seed}.jsonl"
            metrics = tracing.trace(run, TRACE_QUOTA, spans)
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        else:
            metrics = suite.end_to_end(run, suite.measure(run))
            units = {name: unit for name, unit, _ in suite.END_TO_END}
        suite.check_against_reference(run)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    tally = run.tally
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    print(f"checks attempted={tally.attempted} failed={tally.failed} "
          f"fail_share={tally.fail_share:.6g}")
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
