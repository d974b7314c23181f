"""Experiment orchestration: per-topic runs and the four reporting suites.

A suite executes leave-one-topic-out experiments over every topic of the
corpus and renders the results the way the project's result tables are
laid out: per-topic rows, an average row, and integer percentage-point
deltas against the relevant base column. Failed cells are marked and the
suite keeps going; the caller decides what exit code that deserves.

The raw per-cell CSV is byte-identical across reruns with the same corpus,
config, seed, and providers. Timing lives only in run.json.
"""

from __future__ import annotations

import csv
import io
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .augment import (NONE, STRATEGIES, AugmentationResult, GenerationParams,
                      augment_training)
from .cache import stable_hash
from .corpus import Corpus
from .errors import ClaimCheckError, ConfigError
from .evaluation import (
    EvalReport,
    evaluate_scores,
    improvement_table,
    render_improvement_table,
    render_report_table,
)
from .model import CorpusFeatures, ScorerConfig, train_scorer
from .splits import (HoldoutTable, TopicSplit, few_shot_split, make_holdouts,
                     zero_shot_split)

try:
    from importlib.metadata import PackageNotFoundError, version
    TOOL_VERSION = version("claimcheck")
except PackageNotFoundError:
    TOOL_VERSION = "0+unknown"

ZERO_SHOT = "zero_shot"
FEW_SHOT = "few_shot"
SETTINGS = (ZERO_SHOT, FEW_SHOT)
SHOT_CHOICES = (50, 100, 150, 200)
SUITES = ("table2", "table3", "table4", "fig4")

__all__ = [
    "ZERO_SHOT", "FEW_SHOT", "SETTINGS", "SHOT_CHOICES", "SUITES",
    "ExperimentConfig", "RunRecord", "config_from_mapping",
    "corpus_fingerprint", "PreparedCell", "prepare_cell", "run_topic",
    "run_suite",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment cell depends on, besides the corpus."""

    setting: str = ZERO_SHOT
    strategy: str = NONE
    shots: int = 0
    backend_id: str = "baseline"
    seed: int = 0
    generation_params: GenerationParams = field(default_factory=GenerationParams)
    output_dir: str = "runs"
    holdout_k: int = 200
    hyperparams: dict = field(default_factory=dict)
    ratio: float = 0.3
    pivot: str = "en"
    threshold: float = 0.5
    cw_only_map: bool = False
    max_workers: int = 0

    def __post_init__(self):
        if self.setting not in SETTINGS:
            raise ConfigError(f"unknown setting {self.setting!r}")
        if self.strategy not in (NONE,) + STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.setting == ZERO_SHOT:
            if self.strategy != NONE:
                raise ConfigError("zero_shot runs cannot use augmentation")
            if self.shots != 0:
                raise ConfigError("zero_shot runs take no shots")
        else:
            if self.shots not in SHOT_CHOICES:
                raise ConfigError(
                    f"few_shot shots must be one of {SHOT_CHOICES}, got {self.shots}"
                )
            if self.shots > self.holdout_k:
                raise ConfigError(
                    f"shots ({self.shots}) exceed the holdout size ({self.holdout_k})"
                )

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["generation_params"] = self.generation_params.to_dict()
        out["output_dir"] = str(self.output_dir)
        out["hyperparams"] = dict(self.hyperparams)
        return out


def config_from_mapping(data: dict) -> ExperimentConfig:
    """Build a config from a parsed key-value document."""
    data = dict(data)
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    gp = data.pop("generation_params", None)
    if gp is not None:
        if not isinstance(gp, dict):
            raise ConfigError("generation_params must be a mapping")
        try:
            data["generation_params"] = GenerationParams(**gp)
        except TypeError as exc:
            raise ConfigError(f"bad generation_params: {exc}") from None
    return ExperimentConfig(**data)


@dataclass
class RunRecord:
    """Everything a finished suite run leaves behind, minus the artifacts."""

    suite: str
    config: dict
    corpus_hash: str
    cells: list
    aggregates: dict
    skip_counts: dict
    failures: list
    wall_clock: dict
    tool_version: str = TOOL_VERSION
    notes: list = field(default_factory=list)

    def __post_init__(self):
        for cell in self.cells:
            if cell.get("seed") != self.config.get("seed"):
                raise ConfigError(
                    f"cell {cell.get('topic_id')} seed does not match the run config"
                )

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "tool_version": self.tool_version,
            "config": self.config,
            "corpus_hash": self.corpus_hash,
            "notes": self.notes,
            "cells": self.cells,
            "aggregates": self.aggregates,
            "skip_counts": self.skip_counts,
            "failures": self.failures,
            "wall_clock": self.wall_clock,
        }
        return json.dumps(payload, indent=2, ensure_ascii=False, sort_keys=False)


def corpus_fingerprint(corpus: Corpus) -> str:
    rows = sorted(
        (r.tweet_id, r.topic_id, r.text, r.label, r.source)
        for r in corpus.records
    )
    return stable_hash(rows)


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ClaimCheckError as exc:
        raise type(exc)(f"stage {name} failed for this run: {exc}") from exc


@dataclass(frozen=True)
class PreparedCell:
    """One cell's training data, before any model sees it."""

    holdouts: HoldoutTable
    split: TopicSplit
    train_records: list
    augmentation: AugmentationResult = None


def prepare_cell(config: ExperimentConfig, corpus: Corpus, target: str,
                 providers=None, holdouts: HoldoutTable = None,
                 cache_dir=None) -> PreparedCell:
    """Split, check and optionally augment the training data of one
    leave-one-topic-out cell.

    Holdouts are drawn from the config when none are given. Augmentation
    results are cached under `cache_dir`/augment when a cache is given.
    """
    if holdouts is None:
        holdouts = _stage("split", make_holdouts, corpus, config.holdout_k,
                          config.seed)
    if config.setting == ZERO_SHOT:
        split = _stage("split", zero_shot_split, corpus, holdouts, target)
    else:
        split = _stage("split", few_shot_split, corpus, holdouts, target,
                       config.shots)

    train_records = [corpus.record(i) for i in sorted(split.train)]
    target_in_train = [r for r in train_records if r.topic_id == target]
    if config.setting == ZERO_SHOT and target_in_train:
        raise ConfigError(
            f"zero-shot train set contains {len(target_in_train)} records "
            f"of target {target}"
        )
    if config.setting == FEW_SHOT and len(target_in_train) != config.shots:
        raise ConfigError(
            f"few-shot train set has {len(target_in_train)} target records, "
            f"expected {config.shots}"
        )

    aug_result = None
    if config.strategy != NONE:
        pool_ids = holdouts.pool(target)[: config.shots]
        pool_records = [corpus.record(i) for i in pool_ids]
        train_records, aug_result = _stage(
            "augment", augment_training, train_records, pool_records,
            config.strategy, providers, config.seed,
            params=config.generation_params, ratio=config.ratio,
            pivot=config.pivot,
            cache_dir=(Path(cache_dir) / "augment"
                       if cache_dir is not None else None),
            max_workers=config.max_workers or None,
        )
    return PreparedCell(holdouts, split, train_records, aug_result)


def run_topic(config: ExperimentConfig, corpus: Corpus, target: str,
              providers=None, holdouts: HoldoutTable = None,
              cache_dir=None, details: dict = None,
              features=None) -> EvalReport:
    """Run one leave-one-topic-out experiment and evaluate on the holdout
    complement of the target topic.

    When a `details` dict is supplied it is filled with split sizes,
    augmentation skip information, and the trained-on record count.
    `features` is handed to `train_scorer` (see there).
    """
    cell = prepare_cell(config, corpus, target, providers, holdouts, cache_dir)
    scorer_config = ScorerConfig(backend=config.backend_id,
                                 hyperparams=config.hyperparams,
                                 seed=config.seed)
    scorer = _stage("train", train_scorer, cell.train_records, scorer_config,
                    providers,
                    cache_dir=(Path(cache_dir) / "models"
                               if cache_dir is not None else None),
                    features=features)

    test_records = [corpus.record(i) for i in sorted(cell.split.test)]
    score_values = _stage("score", scorer.score_many,
                          [r.text for r in test_records])
    scores = {r.tweet_id: s for r, s in zip(test_records, score_values)}
    labels = {r.tweet_id: r.label for r in test_records}
    report = _stage("evaluate", evaluate_scores, target, scores, labels,
                    threshold=config.threshold, cw_only=config.cw_only_map)

    if details is not None:
        aug = cell.augmentation
        details["train_size"] = len(cell.train_records)
        details["test_size"] = len(test_records)
        details["aug_samples"] = len(aug.samples) if aug else 0
        details["aug_skips"] = list(aug.skips) if aug else []
        details["aug_identical"] = aug.identical_count if aug else 0
    return report


def _suite_cells(suite: str, base: ExperimentConfig) -> list:
    """The (setting, strategy, shots) combinations a suite runs."""
    shots = base.shots if base.shots in SHOT_CHOICES else 200
    if suite == "table2":
        return [(ZERO_SHOT, NONE, 0)]
    if suite == "table3":
        return [(ZERO_SHOT, NONE, 0)] + [(FEW_SHOT, s, shots) for s in STRATEGIES]
    if suite == "table4":
        return [(FEW_SHOT, NONE, shots), (FEW_SHOT, "CWE", shots)]
    if suite == "fig4":
        return [(FEW_SHOT, NONE, s) for s in SHOT_CHOICES]
    raise ConfigError(f"unknown suite {suite!r}; expected one of {SUITES}")


def _cell_key(setting: str, strategy: str, shots: int) -> str:
    return f"{setting}/{strategy}/{shots}"


CSV_COLUMNS = [
    "suite", "setting", "strategy", "shots", "topic_id", "n_test",
    "ap_cw", "ap_ncw", "map", "precision", "recall", "f1",
    "aug_samples", "aug_skips", "status", "error",
]


def _csv_row(row: dict) -> list:
    out = []
    for col in CSV_COLUMNS:
        v = row.get(col)
        if v is None:
            out.append("")
        elif col in ("ap_cw", "ap_ncw", "map", "precision", "recall", "f1"):
            out.append("%.10f" % v)
        else:
            out.append(v)
    return out


def _once(build):
    """A thread-safe zero-argument callable returning `build()`, which it
    runs on its first call only."""
    lock = threading.Lock()
    built = []

    def get():
        with lock:
            if not built:
                built.append(build())
            return built[0]
    return get


def run_suite(suite: str, corpus: Corpus, base_config: ExperimentConfig,
              providers=None, out_dir=None) -> RunRecord:
    """Run one reporting suite over every topic and write its artifacts.

    Writes report.md, cells.csv, and run.json under `out_dir` (defaults to
    the config's output_dir). Cells that fail are recorded with their error
    and excluded from rendered tables; the returned record lists them so
    callers can exit nonzero.
    """
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; expected one of {SUITES}")
    out_dir = Path(out_dir if out_dir is not None else base_config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache_dir = out_dir / "cache"

    holdouts = make_holdouts(corpus, base_config.holdout_k, base_config.seed)
    # counted on the first model-cache miss, so an all-hit rerun never pays
    features = _once(lambda: CorpusFeatures(corpus.records))
    topics = corpus.topic_ids()
    combos = _suite_cells(suite, base_config)

    jobs = []
    for setting, strategy, shots in combos:
        cell_config = replace(base_config, setting=setting, strategy=strategy,
                              shots=shots)
        for topic in topics:
            jobs.append((cell_config, topic))

    def run_job(job):
        cell_config, topic = job
        details = {}
        started = time.perf_counter()
        try:
            report = run_topic(cell_config, corpus, topic, providers=providers,
                               holdouts=holdouts, cache_dir=cache_dir,
                               details=details, features=features)
            error = None
        except Exception as exc:  # one cell's fault must not end the suite
            report, error = None, f"{type(exc).__name__}: {exc}"
        return cell_config, topic, report, error, details, \
            time.perf_counter() - started

    suite_started = time.perf_counter()
    workers = base_config.max_workers
    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_job, jobs))
    else:
        outcomes = [run_job(j) for j in jobs]
    suite_elapsed = time.perf_counter() - suite_started

    cells, failures, skip_counts, wall_clock = [], [], {}, {}
    reports = {}  # (setting, strategy, shots) -> topic -> EvalReport
    for cell_config, topic, report, error, details, elapsed in outcomes:
        key = _cell_key(cell_config.setting, cell_config.strategy,
                        cell_config.shots)
        row = {
            "suite": suite,
            "setting": cell_config.setting,
            "strategy": cell_config.strategy,
            "shots": cell_config.shots,
            "topic_id": topic,
            "seed": cell_config.seed,
        }
        wall_clock[f"{key}/{topic}"] = round(elapsed, 6)
        if report is None:
            row.update(status="failed", error=error)
            failures.append({"cell": f"{key}/{topic}", "error": error})
        else:
            row.update(
                n_test=report.n_test, ap_cw=report.ap_cw, ap_ncw=report.ap_ncw,
                map=report.map, precision=report.precision,
                recall=report.recall, f1=report.f1,
                aug_samples=details.get("aug_samples", 0),
                aug_skips=len(details.get("aug_skips", [])),
                status="ok", error="",
            )
            reports.setdefault(
                (cell_config.setting, cell_config.strategy, cell_config.shots),
                {},
            )[topic] = report
            if details.get("aug_skips"):
                skip_counts[f"{key}/{topic}"] = len(details["aug_skips"])
        cells.append(row)
    wall_clock["total"] = round(suite_elapsed, 6)

    cells.sort(key=lambda r: (r["setting"], r["strategy"], r["shots"],
                              r["topic_id"]))

    aggregates = {}
    for (setting, strategy, shots), column in reports.items():
        key = _cell_key(setting, strategy, shots)
        aggregates[key] = {
            "topics": len(column),
            "map": sum(r.map for r in column.values()) / len(column),
            "precision": sum(r.precision for r in column.values()) / len(column),
            "recall": sum(r.recall for r in column.values()) / len(column),
            "f1": sum(r.f1 for r in column.values()) / len(column),
        }

    notes = []
    if suite == "fig4":
        notes.append("shots sweep runs without augmentation")
    record = RunRecord(
        suite=suite,
        config=base_config.to_dict(),
        corpus_hash=corpus_fingerprint(corpus),
        cells=cells,
        aggregates=aggregates,
        skip_counts=skip_counts,
        failures=failures,
        wall_clock=wall_clock,
        notes=notes,
    )

    _write_artifacts(record, reports, combos, out_dir)
    return record


def _complete_columns(reports, combos, topics):
    """Columns restricted to topics every combo completed."""
    common = set(topics)
    for combo in combos:
        common &= set(reports.get(combo, {}))
    return sorted(common)


def _render_report(record: RunRecord, reports, combos, suite: str) -> str:
    lines = [f"# Suite {suite}", ""]
    lines.append(f"- tool version: {record.tool_version}")
    lines.append(f"- corpus hash: {record.corpus_hash}")
    lines.append(f"- seed: {record.config['seed']}")
    lines.append(f"- backend: {record.config['backend_id']}")
    for note in record.notes:
        lines.append(f"- note: {note}")
    lines.append("")

    def column(combo, topics):
        return {t: reports[combo][t] for t in topics}

    body = ""
    all_topics = sorted({c["topic_id"] for c in record.cells})
    topics_ok = _complete_columns(reports, combos, all_topics)
    if suite == "table2":
        combo = combos[0]
        col = reports.get(combo, {})
        if col:
            body = render_report_table(col, title="Zero-shot, per topic")
    elif suite in ("table3", "table4"):
        base_combo = combos[0]
        variant_combos = combos[1:]
        if topics_ok:
            base = column(base_combo, topics_ok)
            variants = {c[1]: column(c, topics_ok) for c in variant_combos}
            table = improvement_table(base, variants)
            base_name = ("zero-shot" if base_combo[0] == ZERO_SHOT
                         else f"few-shot({base_combo[2]}) no aug")
            title = ("Few-shot + augmentation vs zero-shot"
                     if suite == "table3"
                     else "Augmentation ablation at fixed shots")
            body = render_improvement_table(table, base_name=base_name,
                                            title=title)
    else:  # fig4
        if topics_ok:
            header = "| Topic |" + "".join(
                f" {shots} shots |" for _, _, shots in combos)
            rule = "|---|" + "---|" * len(combos)
            rows = [header, rule]
            for t in topics_ok:
                rows.append(
                    f"| {t} |" + "".join(
                        f" {reports[c][t].map:.4f} |" for c in combos)
                )
            rows.append(
                "| Average |" + "".join(
                    " {:.4f} |".format(
                        sum(reports[c][t].map for t in topics_ok) / len(topics_ok))
                    for c in combos)
            )
            body = "### MAP by number of shots\n\n" + "\n".join(rows) + "\n"

    lines.append(body if body else "_No complete columns; see failures._\n")
    if record.failures:
        lines.append("")
        lines.append("## Failed cells")
        lines.append("")
        for failure in record.failures:
            lines.append(f"- `{failure['cell']}`: {failure['error']}")
        lines.append("")
    return "\n".join(lines)


def _write_artifacts(record: RunRecord, reports, combos, out_dir: Path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in record.cells:
        writer.writerow(_csv_row(row))
    (out_dir / "cells.csv").write_text(buf.getvalue(), encoding="utf-8")
    (out_dir / "run.json").write_text(record.to_json() + "\n", encoding="utf-8")
    (out_dir / "report.md").write_text(
        _render_report(record, reports, combos, record.suite), encoding="utf-8"
    )
