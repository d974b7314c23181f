"""Experiment orchestration: per-topic runs and the four reporting suites.

A suite executes leave-one-topic-out experiments over every topic of the
corpus and renders the results the way the project's result tables are
laid out: per-topic rows, an average row, and integer percentage-point
deltas against the relevant base column. Failed cells are marked and the
suite keeps going; the caller decides what exit code that deserves.

A cell is named by `(config, corpus, target)`: its holdout pools follow
the config's `holdout_k` and `seed`. A corpus counts its tokens once, on
first use, into `Corpus.features`. Every cell is a set of its row
positions: the split names train, test and shot positions, augmentation
seeds from the shots and appends synthetic records, the model-cache key and
the training matrix are gathered by position, and test rows are scored
straight from the corpus matrix. `run_suite` builds each cell's run.json
row in one place and derives the rest of the record from those rows.

The raw per-cell CSV is byte-identical across reruns with the same corpus,
config, seed, and providers. Timing lives only in run.json: the cell's
wall time, and in `stage_s` the seconds of each stage (split, augment,
train, score, evaluate).
"""

from __future__ import annotations

import csv
import io
import json
import os
import platform
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy
import scipy

from . import __version__
from .augment import NONE, STRATEGIES, AugmentationResult, augment_training
from .cache import atomic_write
from .corpus import Corpus
from .errors import ClaimCheckError, ConfigError, ModelError, is_int
from .evaluation import (
    EvalReport,
    column_means,
    evaluate_scores,
    improvement_table,
    render_improvement_table,
    render_report_table,
)
from .model import TRAINER_VERSION, Rows, ScorerConfig, train_scorer
from .splits import (TopicSplit, few_shot_split, make_holdouts,
                     zero_shot_split)

ZERO_SHOT = "zero_shot"
FEW_SHOT = "few_shot"
SETTINGS = (ZERO_SHOT, FEW_SHOT)
SHOT_CHOICES = (50, 100, 150, 200)
SUITES = ("table2", "table3", "table4", "fig4")

__all__ = [
    "ZERO_SHOT", "FEW_SHOT", "SETTINGS", "SHOT_CHOICES", "SUITES",
    "ExperimentConfig", "RunRecord", "config_from_mapping", "checked_path",
    "PreparedCell", "prepare_cell", "run_topic", "suite_cells", "run_suite",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment cell depends on, besides the corpus.
    Without a `setting` it is few-shot when it takes shots or a strategy,
    else zero-shot. `max_workers` is read by `run_suite` only. Each field
    must be one that run.json can write: JSON values, with no lone
    surrogate in a string."""

    setting: str = None
    strategy: str = NONE
    shots: int = 0
    backend_id: str = "baseline"
    seed: int = 0
    holdout_k: int = 200
    hyperparams: dict = field(default_factory=dict)
    max_workers: int = 0

    def __post_init__(self):
        for name in ("shots", "seed"):
            if not is_int(value := getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name, value in asdict(self).items():
            try:  # each field as run.json will write it
                json.dumps(value, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError:
                raise ConfigError(f"{name} holds a lone surrogate") from None
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    f"{name} cannot be written to run.json: {exc}") from None
        if self.setting is None:
            few = self.shots or self.strategy != NONE
            object.__setattr__(self, "setting", FEW_SHOT if few else ZERO_SHOT)
        if self.setting not in SETTINGS:
            raise ConfigError(f"unknown setting {self.setting!r}")
        if not (is_int(self.holdout_k) and self.holdout_k >= 1):
            raise ConfigError(
                f"holdout_k must be an integer >= 1, got {self.holdout_k!r}")
        if not (is_int(self.max_workers) and self.max_workers >= 0):
            raise ConfigError(f"max_workers (--workers) must be an integer "
                              f">= 0, got {self.max_workers!r}")
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
        try:  # ScorerConfig owns the backend and hyperparameter checks
            self.scorer_config()
        except ModelError as exc:
            raise ConfigError(str(exc)) from None

    def scorer_config(self) -> ScorerConfig:
        return ScorerConfig(backend=self.backend_id,
                            hyperparams=self.hyperparams, seed=self.seed)


def config_from_mapping(data: dict) -> ExperimentConfig:
    """Build a config from a parsed key-value document."""
    data = dict(data)
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    return ExperimentConfig(**data)


def checked_path(value, name: str) -> str:
    """`value` as the path string run.json names; a ConfigError naming
    `name` if it is no path or holds a lone surrogate, which UTF-8 lacks."""
    path = os.fspath(value) if isinstance(value, (str, os.PathLike)) else None
    if not isinstance(path, str):
        raise ConfigError(f"{name} must be a path, got {value!r}")
    if path.encode("utf-8", "replace").decode("utf-8") != path:
        raise ConfigError(f"{name} holds a lone surrogate")
    return path


def _environment() -> dict:
    """What a run's numbers depend on besides its inputs: the Python, numpy
    and scipy versions, numpy's SIMD extensions (which follow
    NPY_ENABLE_CPU_FEATURES; None on a numpy before 1.25), the BLAS thread
    variables as set, and the trainer version."""
    try:
        simd = numpy.show_config(mode="dicts")["SIMD Extensions"]
    except (TypeError, KeyError):
        simd = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "simd_extensions": simd,
        **{name: os.environ.get(name) for name in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "trainer_version": TRAINER_VERSION,
    }


@dataclass
class RunRecord:
    """Everything a finished suite run leaves behind, minus the artifacts;
    the fields are declared in run.json's key order."""

    suite: str
    tool_version: str = field(default=__version__, kw_only=True)
    environment: dict = field(default_factory=_environment, kw_only=True)
    config: dict
    out_dir: str
    corpus_hash: str
    notes: list = field(default_factory=list, kw_only=True)
    cells: list
    aggregates: dict
    failures: list
    setup_s: float
    wall_clock: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, ensure_ascii=False)


@contextmanager
def _stage(name: str, seconds: dict):
    """Time one stage of a cell into `seconds[name]`; a ClaimCheckError
    raised inside names the stage."""
    started = time.perf_counter()
    try:
        yield
    except ClaimCheckError as exc:
        raise type(exc)(f"stage {name} failed for this run: {exc}") from exc
    finally:
        seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - started


@dataclass(frozen=True)
class PreparedCell:
    """One cell's data before any model sees it: the training rows (the
    split's train positions, then any synthetic records) and the test rows
    (its test positions), both in tweet-id order."""

    split: TopicSplit
    train: Rows
    test: Rows
    augmentation: AugmentationResult = None


def prepare_cell(config: ExperimentConfig, corpus: Corpus, target: str,
                 providers=None, cache_dir=None,
                 stage_s: dict = None) -> PreparedCell:
    """Split, check and optionally augment the training data of one
    leave-one-topic-out cell, as `Rows` of `corpus.features`.

    The holdout pools follow the config's `holdout_k` and `seed`.
    Augmentation results are cached under `cache_dir`/augment when a cache
    is given. Each stage's seconds are added to `stage_s` when it is given.
    """
    stage_s = {} if stage_s is None else stage_s
    with _stage("split", stage_s):
        holdouts = make_holdouts(corpus, config.holdout_k, config.seed)
        if config.setting == ZERO_SHOT:
            split = zero_shot_split(corpus, holdouts, target)
        else:
            split = few_shot_split(corpus, holdouts, target, config.shots)
        train = corpus.features.select(split.train)
        test = corpus.features.select(split.test)

    aug_result = None
    if config.strategy != NONE:
        with _stage("augment", stage_s):
            train, aug_result = augment_training(
                train, corpus.features.select(split.shots), config.strategy,
                providers, config.seed,
                cache_dir=(Path(cache_dir) / "augment"
                           if cache_dir is not None else None),
            )
    return PreparedCell(split, train, test, aug_result)


def run_topic(config: ExperimentConfig, corpus: Corpus, target: str,
              providers=None, cache_dir=None,
              details: dict = None) -> EvalReport:
    """Run one leave-one-topic-out experiment and evaluate on the holdout
    complement of the target topic.

    When a `details` dict is supplied it is filled with the trained-on
    record count (synthetic records included), augmentation skip
    information, and `stage_s`, the seconds each stage took (also when a
    stage fails).
    """
    stage_s = details.setdefault("stage_s", {}) if details is not None else {}
    cell = prepare_cell(config, corpus, target, providers, cache_dir, stage_s)
    with _stage("train", stage_s):
        scorer = train_scorer(cell.train, config.scorer_config(), providers,
                              cache_dir=(Path(cache_dir) / "models"
                                         if cache_dir is not None else None))
    with _stage("score", stage_s):
        score_values = scorer.score_many(cell.test)
    with _stage("evaluate", stage_s):
        test_ids = cell.split.test_ids()
        scores = dict(zip(test_ids, score_values))
        labels = dict(zip(test_ids, cell.test.labels()))
        report = evaluate_scores(target, scores, labels)

    if details is not None:
        aug = cell.augmentation
        details["train_size"] = len(cell.train)
        details["aug_samples"] = len(aug.samples) if aug else 0
        details["aug_skips"] = list(aug.skips) if aug else []
    return report


def suite_cells(suite: str, base: ExperimentConfig) -> list:
    """The (setting, strategy, shots) combinations a suite runs. A suite
    refuses a base config it would not run: one naming a strategy, a
    few-shot one for table2, and one for fig4 at shots other than 200."""
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; expected one of {SUITES}")
    if base.strategy != NONE:
        raise ConfigError(f"suite {suite} runs its own strategies; "
                          f"got strategy {base.strategy!r}")
    if suite == "table2" and base.setting != ZERO_SHOT:
        raise ConfigError(f"suite table2 runs zero_shot only; got "
                          f"{base.setting} at {base.shots} shots")
    if suite == "fig4" and base.shots not in (0, 200):
        raise ConfigError(f"suite fig4 runs shots {SHOT_CHOICES} itself; "
                          f"got {base.shots} shots")
    shots = base.shots or 200
    if suite == "table2":
        return [(ZERO_SHOT, NONE, 0)]
    if suite == "table3":
        return [(ZERO_SHOT, NONE, 0)] + [(FEW_SHOT, s, shots) for s in STRATEGIES]
    if suite == "table4":
        return [(FEW_SHOT, NONE, shots), (FEW_SHOT, "CWE", shots)]
    return [(FEW_SHOT, NONE, s) for s in SHOT_CHOICES]


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


def run_suite(suite: str, corpus: Corpus, base_config: ExperimentConfig,
              providers=None, *, out_dir) -> RunRecord:
    """Run one reporting suite over every topic and write report.md,
    cells.csv and run.json under `out_dir`, which run.json names as given.

    Up to the config's `max_workers` cells run at once, each calling its
    providers one at a time. An `out_dir` that is no path, holds a lone
    surrogate or lies under a file, a column config that is invalid (say,
    more shots than `holdout_k`) and a base config `suite_cells` refuses
    are a ConfigError, and a corpus record field holding a lone surrogate
    a CorpusError, before `out_dir` is made, the holdouts drawn or the
    corpus counted. A cell that fails is listed in `failures` with its
    error, so callers can exit nonzero, and left out of the rendered
    tables. `notes` name each topic whose holdout pool is all of it.
    `setup_s` is the seconds from this call's start to its first cell: a
    first hash of the corpus, the holdouts and a first count of the corpus
    features. `wall_clock` holds each cell's seconds and, as `total`, the
    seconds from this call's start to the end of the last cell.
    """
    suite_started = time.perf_counter()
    combos = suite_cells(suite, base_config)
    # a bad column config is reported before anything is made or counted
    configs = [replace(base_config, setting=setting, strategy=strategy,
                       shots=shots) for setting, strategy, shots in combos]
    out_path = checked_path(out_dir, "out_dir")
    out_dir = Path(out_path)
    # a file in the way would fail each cell on its first cache write
    nearest = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not nearest.is_dir():
        raise ConfigError(f"out_dir {out_path!r} cannot be made: "
                          f"{nearest} is not a directory")
    cache_dir = out_dir / "cache"

    # hashed before anything is drawn or made: a field UTF-8 cannot encode
    # is a CorpusError here, not after every cell has run
    corpus.fingerprint
    # drawn before any worker starts: a whole-topic pool warns here, once
    holdouts = make_holdouts(corpus, base_config.holdout_k, base_config.seed)
    corpus.features  # counted on first use, so before any worker starts
    setup_s = time.perf_counter() - suite_started

    jobs = [(config, topic) for config in configs
            for topic in corpus.topic_ids()]

    def run_cell(job):
        """A cell's run.json row, its report (None if it failed), seconds."""
        config, topic = job
        row = {"suite": suite, "setting": config.setting,
               "strategy": config.strategy, "shots": config.shots,
               "topic_id": topic, "seed": config.seed}
        details = {}
        started = time.perf_counter()
        try:
            report = run_topic(config, corpus, topic, providers, cache_dir,
                               details)
        except Exception as exc:  # one cell's fault must not end the suite
            report = None
            row.update(status="failed", error=f"{type(exc).__name__}: {exc}")
        else:
            row.update(
                n_test=report.n_test, train_size=details["train_size"],
                ap_cw=report.ap_cw, ap_ncw=report.ap_ncw,
                map=report.map, precision=report.precision,
                recall=report.recall, f1=report.f1,
                aug_samples=details["aug_samples"],
                aug_skips=len(details["aug_skips"]), status="ok", error="")
        seconds = time.perf_counter() - started
        row["stage_s"] = {name: round(spent, 6) for name, spent
                          in details.get("stage_s", {}).items()}
        return row, report, seconds

    workers = base_config.max_workers
    # one worker runs here, not in a one-thread pool, which raised the
    # bench's 1-worker peak RSS by about 7%
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_cell, jobs))
    else:
        outcomes = [run_cell(job) for job in jobs]
    suite_elapsed = time.perf_counter() - suite_started

    failures, wall_clock = [], {}
    reports = {}  # (setting, strategy, shots) -> topic -> EvalReport
    for row, report, seconds in outcomes:
        combo = (row["setting"], row["strategy"], row["shots"])
        name = f"{_cell_key(*combo)}/{row['topic_id']}"
        wall_clock[name] = round(seconds, 6)
        if report is None:
            failures.append({"cell": name, "error": row["error"]})
            continue
        reports.setdefault(combo, {})[row["topic_id"]] = report
    wall_clock["total"] = round(suite_elapsed, 6)
    cells = sorted((row for row, _, _ in outcomes),
                   key=lambda r: (r["setting"], r["strategy"], r["shots"],
                                  r["topic_id"]))

    aggregates = {}
    for (setting, strategy, shots), column in reports.items():
        key = _cell_key(setting, strategy, shots)
        aggregates[key] = {"topics": len(column), **column_means(column)}

    notes = []
    if suite == "fig4":
        notes.append("shots sweep runs without augmentation")
    notes.extend(holdouts.notes)
    record = RunRecord(
        suite=suite,
        config=asdict(base_config),
        out_dir=out_path,
        corpus_hash=corpus.fingerprint,
        cells=cells,
        aggregates=aggregates,
        failures=failures,
        setup_s=round(setup_s, 6),
        wall_clock=wall_clock,
        notes=notes,
    )

    _write_artifacts(record, reports, combos, out_dir)
    return record


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
    # the topics every combo completed
    topics_ok = sorted({c["topic_id"] for c in record.cells}.intersection(
        *(reports.get(combo, {}) for combo in combos)))
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
            rows.append("| Average |" + "".join(
                " {:.4f} |".format(column_means(column(c, topics_ok))["map"])
                for c in combos))
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
    # all three are rendered and encoded first, so a failure writes none
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in record.cells:
        writer.writerow(_csv_row(row))
    texts = {"cells.csv": buf.getvalue(), "run.json": record.to_json() + "\n",
             "report.md": _render_report(record, reports, combos, record.suite)}
    blobs = {name: text.encode("utf-8") for name, text in texts.items()}
    for name, blob in blobs.items():
        atomic_write(out_dir / name, lambda fh: fh.write(blob))
