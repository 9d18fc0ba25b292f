"""argparse front end: synth, build-vocab, train, retrieve, eval, bench,
ablate, sweep-k, report.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numeric failure.
"""

import argparse
import sys

from ..errors import DataError, LayoutError, NumericError, ShapeError
from . import datafiles, pipeline, reports, synth


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_config_args(sub):
    sub.add_argument("--config", required=True, help="RunConfig JSON file")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a config key (repeatable)")


def build_parser():
    parser = _Parser(prog="entsel",
                     description="entailment-based option selection workbench")
    verbs = parser.add_subparsers(dest="verb", required=True)

    p = verbs.add_parser("synth", help="generate a synthetic dataset bundle")
    p.add_argument("--profile", required=True, choices=sorted(synth.PROFILES))
    p.add_argument("--out", required=True, help="bundle directory to create")
    p.add_argument("--n-options", type=int, default=None)
    p.add_argument("--n-train", type=int, default=200)
    p.add_argument("--n-dev", type=int, default=50)
    p.add_argument("--n-test", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)

    p = verbs.add_parser("build-vocab", help="fit vocab.txt for a bundle")
    p.add_argument("--data", required=True, help="bundle directory")
    p.add_argument("--min-count", type=int, default=1)

    for verb, helptext in (("train", "train a model per the config"),
                           ("retrieve", "build the bi-encoder index and candidates"),
                           ("eval", "evaluate the trained checkpoint on test"),
                           ("bench", "time pairwise vs parallel inference"),
                           ("ablate", "run the four-paradigm comparison grid")):
        p = verbs.add_parser(verb, help=helptext)
        _add_config_args(p)

    p = verbs.add_parser("sweep-k", help="recall@k and dev metric per retrieval k")
    _add_config_args(p)
    p.add_argument("--ks", required=True, help="comma-separated k values, e.g. 4,8,16")

    p = verbs.add_parser("report", help="render report.md from run artifacts")
    p.add_argument("--run", required=True, help="run output directory")
    return parser


def _parse_ks(text):
    try:
        ks = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise _UsageError(f"--ks must be comma-separated integers, got {text!r}") from exc
    if not ks:
        raise _UsageError("--ks is empty")
    return ks


def _dispatch(args):
    if args.verb == "synth":
        splits, space = synth.synth(args.profile, n_options=args.n_options,
                                    n_train=args.n_train, n_dev=args.n_dev,
                                    n_test=args.n_test, seed=args.seed)
        datafiles.write_bundle(args.out, splits, space)
        print(f"wrote {args.out}: {len(space)} options, "
              + ", ".join(f"{len(v)} {k}" for k, v in splits.items()))
        return
    if args.verb == "build-vocab":
        vocab = datafiles.build_bundle_vocab(args.data, min_count=args.min_count)
        print(f"wrote vocab.txt with {len(vocab)} entries")
        return
    if args.verb == "report":
        path = reports.render_report(args.run)
        print(f"wrote {path}")
        return
    cfg = datafiles.load_run_config(args.config, overrides=args.set)
    if args.verb == "train":
        pipeline.train_run(cfg)
    elif args.verb == "retrieve":
        pipeline.retrieve_run(cfg)
    elif args.verb == "eval":
        pipeline.eval_run(cfg)
    elif args.verb == "bench":
        pipeline.bench_run(cfg)
    elif args.verb == "ablate":
        pipeline.run_ablation(cfg)
    elif args.verb == "sweep-k":
        pipeline.run_k_sweep(cfg, _parse_ks(args.ks))


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _dispatch(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, LayoutError, ShapeError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
