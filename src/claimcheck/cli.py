"""Command-line interface.

Subcommands cover the pipeline stages (load, normalize, split, train, rank,
eval, augment, similarity) plus the reporting suites. Each takes only the
options it reads. A JSON config file can seed the experiment settings,
not `--out`; explicit flags win over file values, and a file value that
contradicts what a command runs is refused, never overridden. Every
command taking `--config` checks it and builds its providers before it
reads `--corpus`.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .augment import NONE, STRATEGIES
from .cache import atomic_write
from .corpus import SCHEMA_PRESETS, Corpus, build_corpus, corpus_stats
from .errors import ClaimCheckError, ConfigError
from .evaluation import rank_scores, reports_to_json
from .model import BaselineScorer, train_scorer
from .preprocess import normalize_corpus_file
from .providers import make_providers
from .runner import (
    SHOT_CHOICES,
    SUITES,
    ExperimentConfig,
    checked_path,
    config_from_mapping,
    prepare_cell,
    run_suite,
    run_topic,
    suite_cells,
    writable,
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


# Every argument of the experiment commands, as `add_argument` keywords.
# An option that sets an ExperimentConfig field stores to that field's name.
_ARGUMENTS = {
    "suite": dict(choices=SUITES),
    "--corpus": dict(required=True),
    "--target": dict(required=True),
    "--model": dict(required=True, help="saved baseline model (.npz)"),
    "--config": dict(type=_config_file, metavar="FILE",
                     help="JSON file of experiment settings; flags override it"),
    "--out": dict(metavar="PATH", type=lambda out: checked_path(out, "--out"),
                  help="output file, or directory for similarity and suite"),
    "--providers": dict(help='provider set: "mock", "none", or an '
                             '"http(s)://<host>..." base URL'),
    "--seed": dict(type=int, help="master random seed"),
    "--backend": dict(dest="backend_id", choices=("baseline", "encoder"),
                      help="scorer backend"),
    "--shots": dict(type=int,
                    help=f"few-shot pool prefix size, one of {SHOT_CHOICES}"),
    "--strategy": dict(choices=(NONE,) + STRATEGIES,
                       help="augmentation strategy"),
    "--holdout-k": dict(type=int, help="per-topic holdout pool size"),
    "--workers": dict(dest="max_workers", type=int, metavar="N",
                      help="cells to run at once"),
}
_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}

# Each experiment command's help, `--out` default (None prints) and arguments
_EXPERIMENT_COMMANDS = {
    "split": ("emit a leave-one-topic-out split", None,
              "--corpus --target --config --out --seed --shots --holdout-k"),
    "train": ("train a baseline scorer on a split", "model.npz",
              "--corpus --target --config --out --providers --seed --shots "
              "--strategy --holdout-k"),
    "rank": ("rank a topic's test records by P(CW)", None,
             "--corpus --target --model --config --out --seed --shots "
             "--holdout-k"),
    "eval": ("run one experiment cell end to end", None,
             "--corpus --target --config --out --providers --seed --backend "
             "--shots --strategy --holdout-k"),
    "augment": ("generate synthetic samples for a pool", "synthetic.jsonl",
                "--corpus --target --config --out --providers --seed --shots "
                "--strategy --holdout-k"),
    "similarity": ("pairwise topic similarity matrix", ".",
                   "--corpus --config --out --providers"),
    "suite": ("run a reporting suite", "runs",
              "suite --corpus --config --out --providers --seed --backend "
              "--shots --holdout-k --workers"),
}

# (commands, field, the one value they run, why). A config file is shared
# between commands, so a field a command does not read is left alone.
_ONE_VALUE = [
    (("split", "rank"), "strategy", NONE, "never augments"),
    (("train", "rank"), "backend_id", "baseline",
     "runs the baseline backend only, since encoder models live with "
     "their provider"),
]


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

    for command, (help_text, out, arguments) in _EXPERIMENT_COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for argument in arguments.split():
            p.add_argument(argument, **_ARGUMENTS[argument])
        p.set_defaults(out=out)
    return parser


def _settings(args):
    """The checked config of an experiment command and, for one taking
    `--providers`, its providers, built after `--out` is found writable and
    before any input is read. Flags win over `--config` values; a value
    that contradicts what the command runs is a ConfigError."""
    if args.out is not None:
        writable(args.out, "--out", args.command in ("similarity", "suite"))
    data = dict(args.config or {})
    spec = data.pop("providers", None)
    data.update((key, value) for key, value in vars(args).items()
                if key in _CONFIG_FIELDS and value is not None)
    for commands, key, value, why in _ONE_VALUE:
        if args.command in commands and data.get(key, value) != value:
            raise ConfigError(f"{args.command} {why}; got {key} {data[key]!r}")
    if args.command == "augment" and data.get("strategy", NONE) == NONE:
        raise ConfigError("augment requires --strategy BT, CWE, or TxtGen")
    config = config_from_mapping(data)
    if args.command == "suite":
        suite_cells(args.suite, config)
    if "providers" not in args:
        return config, None
    providers = make_providers(spec if args.providers is None
                               else args.providers)
    if args.command == "similarity" and providers.embedder is None:
        raise ConfigError("similarity requires an embedder provider")
    return config, providers


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
    out = Path(writable(args.out, "--out"))
    corpus, report = build_corpus(
        inputs, require_canonical=not args.allow_noncanonical
    )
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


def _cell(args):
    """The config and the cell of `split`, `train`, `rank` or `augment`."""
    config, providers = _settings(args)
    return config, prepare_cell(config, Corpus.from_jsonl(args.corpus),
                                args.target, providers)


def _cmd_split(args) -> int:
    text = split_to_json(_cell(args)[1].split)
    if args.out:
        atomic_write(args.out, lambda fh: fh.write(text + "\n"), text=True)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_train(args) -> int:
    config, cell = _cell(args)
    scorer = train_scorer(cell.train, config.scorer_config())
    scorer.save(args.out)
    print(f"trained on {len(cell.train)} records in {scorer.stats.trials} "
          f"solver iterations and {scorer.stats.cg_steps} CG steps "
          f"(gradient norm {scorer.stats.grad_norm:.2g}) -> {args.out}")
    return 0


def _cmd_rank(args) -> int:
    cell = _cell(args)[1]
    scorer = BaselineScorer.load(args.model)
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
    config, providers = _settings(args)
    report = run_topic(config, Corpus.from_jsonl(args.corpus), args.target,
                       providers=providers)
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
    config, cell = _cell(args)
    result = cell.augmentation
    atomic_write(args.out, lambda fh: fh.writelines(
        json.dumps(asdict(sample), ensure_ascii=False) + "\n"
        for sample in result.samples), text=True)
    print(f"{config.strategy}: {len(result.samples)} synthetic, "
          f"{len(result.skips)} skipped, "
          f"{result.identical_count} identical to seed -> {args.out}")
    for origin, reason in result.skips:
        print(f"  skipped {origin}: {reason}")
    return 0


def _cmd_similarity(args) -> int:
    from .topicsim import difficulty_ranking, matrix_to_csv, matrix_to_json, \
        similarity_matrix

    embedder = _settings(args)[1].embedder
    matrix = similarity_matrix(Corpus.from_jsonl(args.corpus), embedder)
    out = Path(args.out)
    matrix_to_csv(matrix, out / "similarity.csv")
    atomic_write(out / "similarity.json",
                 lambda fh: fh.write(matrix_to_json(matrix) + "\n"), text=True)
    print(f"wrote {out / 'similarity.csv'}")
    print("most isolated topics first:")
    for topic_id, mean in difficulty_ranking(matrix):
        print(f"  {mean:.4f}  {topic_id}")
    return 0


def _cmd_suite(args) -> int:
    config, providers = _settings(args)
    record = run_suite(args.suite, Corpus.from_jsonl(args.corpus), config,
                       providers=providers, out_dir=args.out)
    out = Path(args.out)
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
