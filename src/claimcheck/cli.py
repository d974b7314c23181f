"""Command-line interface.

Subcommands cover the pipeline stages (load, normalize, split, train, rank,
eval, augment, similarity) plus the reporting suites. A JSON config file
can seed any experiment flags; explicit command-line flags win over file
values.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .augment import NONE, STRATEGIES
from .cache import atomic_write
from .corpus import (
    SCHEMA_PRESETS,
    Corpus,
    build_corpus,
    corpus_stats,
)
from .errors import ClaimCheckError, ConfigError
from .evaluation import rank_scores, reports_to_json
from .model import BaselineScorer, train_scorer
from .preprocess import normalize_corpus_file
from .providers import make_providers
from .runner import (
    FEW_SHOT,
    SHOT_CHOICES,
    SUITES,
    config_from_mapping,
    prepare_cell,
    run_suite,
    run_topic,
)
from .splits import split_to_json

__all__ = ["main", "build_parser"]


def _config_file(path) -> dict:
    """The settings object of a JSON config file, read when flags are parsed."""
    with open(path, encoding="utf-8") as fh:
        try:
            loaded = json.load(fh)
        except ValueError as exc:
            raise ConfigError(
                f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(loaded, dict):
        raise ConfigError("config file must hold a JSON object")
    return loaded


def _add_io(p: argparse.ArgumentParser) -> None:
    """The settings, providers and output flags that `similarity` shares
    with the experiment commands."""
    p.add_argument("--config", type=_config_file, default=None, metavar="FILE",
                   help="JSON file of experiment settings; flags override it")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="output file, or directory for similarity and suite")
    p.add_argument("--providers", default=None,
                   help='provider set: "mock", "none", or an '
                        '"http(s)://<host>..." base URL')


def _add_common(p: argparse.ArgumentParser) -> None:
    """The flags of every command that runs or prepares experiment cells."""
    _add_io(p)
    p.add_argument("--seed", type=int, default=None, help="master random seed")
    p.add_argument("--backend", default=None, choices=("baseline", "encoder"),
                   help="scorer backend")
    p.add_argument("--shots", type=int, default=None,
                   help=f"few-shot pool prefix size, one of {SHOT_CHOICES}")
    p.add_argument("--strategy", default=None,
                   choices=(NONE,) + STRATEGIES, help="augmentation strategy")
    p.add_argument("--holdout-k", type=int, default=None,
                   help="per-topic holdout pool size")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="claimcheck",
        description="Cross-topic check-worthy claim detection experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("load", help="ingest TSV files into a corpus")
    p.add_argument("--input", action="append", required=True,
                   metavar="PRESET=PATH",
                   help=f"input file with schema preset "
                        f"({', '.join(sorted(SCHEMA_PRESETS))}); repeatable")
    p.add_argument("--allow-noncanonical", action="store_true",
                   help="skip the canonical 14-topic check")
    p.add_argument("--out", required=True, metavar="DIR")

    p = sub.add_parser("normalize", help="normalize the text of a corpus file")
    p.add_argument("src", help="corpus JSONL to read")
    p.add_argument("dst", help="normalized JSONL to write")

    p = sub.add_parser("split", help="emit a leave-one-topic-out split")
    p.add_argument("--corpus", required=True)
    p.add_argument("--target", required=True)
    _add_common(p)

    p = sub.add_parser("train", help="train a scorer on a split")
    p.add_argument("--corpus", required=True)
    p.add_argument("--target", required=True)
    _add_common(p)

    p = sub.add_parser("rank", help="rank a topic's test records by P(CW)")
    p.add_argument("--corpus", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--model", required=True, help="saved baseline model (.npz)")
    _add_common(p)

    p = sub.add_parser("eval", help="run one experiment cell end to end")
    p.add_argument("--corpus", required=True)
    p.add_argument("--target", required=True)
    _add_common(p)

    p = sub.add_parser("augment", help="generate synthetic samples for a pool")
    p.add_argument("--corpus", required=True)
    p.add_argument("--target", required=True)
    _add_common(p)

    p = sub.add_parser("similarity", help="pairwise topic similarity matrix")
    p.add_argument("--corpus", required=True)
    _add_io(p)

    p = sub.add_parser("suite", help="run a reporting suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--corpus", required=True)
    p.add_argument("--workers", type=int, default=None,
                   help="cells to run at once")
    _add_common(p)

    return parser


def _experiment_config(args, **forced):
    """Merge config file values with explicit flags, then the `forced`
    fields, into an ExperimentConfig."""
    data = {key: value for key, value in (args.config or {}).items()
            if key != "providers"}
    overrides = {
        "seed": getattr(args, "seed", None),
        "backend_id": getattr(args, "backend", None),
        "shots": getattr(args, "shots", None),
        "strategy": getattr(args, "strategy", None),
        "holdout_k": getattr(args, "holdout_k", None),
        "max_workers": getattr(args, "workers", None),
        "output_dir": getattr(args, "out", None),
        **forced,
    }
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    return config_from_mapping(data)


def _providers_from(args):
    spec = args.providers
    if spec is None:
        spec = (args.config or {}).get("providers")
    return make_providers(spec)


def _cmd_load(args) -> int:
    inputs = []
    for item in args.input:
        preset, sep, path = item.partition("=")
        if not sep or preset not in SCHEMA_PRESETS:
            raise ConfigError(
                f"--input must look like PRESET=PATH with preset in "
                f"{sorted(SCHEMA_PRESETS)}, got {item!r}"
            )
        inputs.append((path, SCHEMA_PRESETS[preset]))
    corpus, report = build_corpus(
        inputs, require_canonical=not args.allow_noncanonical
    )
    out = Path(args.out)
    corpus.to_jsonl(out / "corpus.jsonl")
    stats = corpus_stats(corpus)
    text = json.dumps({
        "total": stats.total_count,
        "topics": {t: {"cw": c[0], "ncw": c[1]}
                   for t, c in sorted(stats.per_topic.items())},
        "overall_cw_fraction": stats.overall_cw_fraction,
        **asdict(report),
    }, indent=2, ensure_ascii=False)
    atomic_write(out / "stats.json", lambda fh: fh.write(text + "\n"), text=True)
    print(f"loaded {stats.total_count} tweets across "
          f"{len(stats.per_topic)} topics "
          f"(CW fraction {stats.overall_cw_fraction:.3f}, "
          f"{report.duplicates_dropped} duplicates dropped)")
    print(f"wrote {out / 'corpus.jsonl'}")
    return 0


def _cmd_normalize(args) -> int:
    n = normalize_corpus_file(args.src, args.dst)
    print(f"normalized {n} records -> {args.dst}")
    return 0


def _cmd_split(args) -> int:
    config = _experiment_config(args, strategy=NONE)
    cell = prepare_cell(config, Corpus.from_jsonl(args.corpus), args.target)
    text = split_to_json(cell.split)
    if args.out:
        atomic_write(args.out, lambda fh: fh.write(text + "\n"), text=True)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_train(args) -> int:
    config = _experiment_config(args)
    if config.backend_id != "baseline":
        raise ConfigError(
            "only the baseline backend produces a saveable model; "
            "encoder models live with their provider"
        )
    cell = prepare_cell(config, Corpus.from_jsonl(args.corpus), args.target,
                        _providers_from(args))
    out = args.out or "model.npz"
    scorer = train_scorer(cell.train, config.scorer_config())
    scorer.save(out)
    print(f"trained on {len(cell.train)} records in {scorer.n_iter} "
          f"solver iterations and {scorer.cg_steps} CG steps "
          f"(gradient norm {scorer.grad_norm:.2g}) -> {out}")
    return 0


def _cmd_rank(args) -> int:
    config = _experiment_config(args, strategy=NONE)
    corpus = Corpus.from_jsonl(args.corpus)
    scorer = BaselineScorer.load(args.model)
    cell = prepare_cell(config, corpus, args.target)
    test_ids = cell.split.test_ids()
    scores = dict(zip(test_ids, scorer.score_many(cell.test)))
    labels = dict(zip(test_ids, cell.test.labels()))
    rows = [(pos + 1, tid, scores[tid], labels[tid])
            for pos, tid in enumerate(rank_scores(scores))]
    if args.out:
        def write(fh):
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["rank", "tweet_id", "score", "label"])
            for rank, tid, score, label in rows:
                writer.writerow([rank, tid, "%.10f" % score, label])
        atomic_write(args.out, write, text=True)
        print(f"wrote {args.out}")
    else:
        for rank, tid, score, label in rows[:20]:
            print(f"{rank:4d}  {score:.4f}  {label:3s}  {tid}")
    return 0


def _cmd_eval(args) -> int:
    config = _experiment_config(args)
    corpus = Corpus.from_jsonl(args.corpus)
    providers = _providers_from(args)
    report = run_topic(config, corpus, args.target, providers=providers)
    text = reports_to_json({args.target: report})
    if args.out:
        atomic_write(args.out, lambda fh: fh.write(text + "\n"), text=True)
        print(f"wrote {args.out}")
    print(f"{args.target}: MAP {report.map:.4f} "
          f"(AP_cw {report.ap_cw:.4f}, AP_ncw {report.ap_ncw:.4f}, "
          f"P {report.precision:.2f}, R {report.recall:.2f}, "
          f"F1 {report.f1:.2f}, n={report.n_test})")
    return 0


def _cmd_augment(args) -> int:
    config = _experiment_config(args, setting=FEW_SHOT)
    if config.strategy == NONE:
        raise ConfigError("augment requires --strategy BT, CWE, or TxtGen")
    result = prepare_cell(config, Corpus.from_jsonl(args.corpus), args.target,
                          _providers_from(args)).augmentation
    out = args.out or "synthetic.jsonl"
    atomic_write(out, lambda fh: fh.writelines(
        json.dumps(asdict(sample), ensure_ascii=False) + "\n"
        for sample in result.samples), text=True)
    print(f"{config.strategy}: {len(result.samples)} synthetic, "
          f"{len(result.skips)} skipped, "
          f"{result.identical_count} identical to seed -> {out}")
    for origin, reason in result.skips:
        print(f"  skipped {origin}: {reason}")
    return 0


def _cmd_similarity(args) -> int:
    from .topicsim import difficulty_ranking, matrix_to_csv, matrix_to_json, \
        similarity_matrix

    corpus = Corpus.from_jsonl(args.corpus)
    providers = _providers_from(args)
    if providers.embedder is None:
        raise ConfigError("similarity requires an embedder provider")
    matrix = similarity_matrix(corpus, providers.embedder)
    out = Path(args.out or ".")
    matrix_to_csv(matrix, out / "similarity.csv")
    atomic_write(out / "similarity.json",
                 lambda fh: fh.write(matrix_to_json(matrix) + "\n"), text=True)
    print(f"wrote {out / 'similarity.csv'}")
    print("most isolated topics first:")
    for topic_id, mean in difficulty_ranking(matrix):
        print(f"  {mean:.4f}  {topic_id}")
    return 0


def _cmd_suite(args) -> int:
    config = _experiment_config(args)
    corpus = Corpus.from_jsonl(args.corpus)
    providers = _providers_from(args)
    record = run_suite(args.suite, corpus, config, providers=providers)
    out = Path(config.output_dir)
    ok = len(record.cells) - len(record.failures)
    print(f"suite {args.suite}: {ok}/{len(record.cells)} cells ok")
    for key in sorted(record.aggregates):
        agg = record.aggregates[key]
        print(f"  {key}: mean MAP {agg['map']:.4f} over {agg['topics']} topics")
    for failure in record.failures:
        print(f"  FAILED {failure['cell']}: {failure['error']}")
    print(f"wrote {out / 'report.md'}, {out / 'cells.csv'}, {out / 'run.json'}")
    return 1 if record.failures else 0


_COMMANDS = {
    "load": _cmd_load,
    "normalize": _cmd_normalize,
    "split": _cmd_split,
    "train": _cmd_train,
    "rank": _cmd_rank,
    "eval": _cmd_eval,
    "augment": _cmd_augment,
    "similarity": _cmd_similarity,
    "suite": _cmd_suite,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # reads --config
        return _COMMANDS[args.command](args)
    except (ClaimCheckError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
