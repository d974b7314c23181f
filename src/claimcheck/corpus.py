"""Tweet corpus ingestion and canonicalization.

Reads the tab-separated shared-task files, maps their label conventions onto
the binary CW/NCW scheme, folds the four COVID-related topics into one
canonical topic, and exposes per-topic class statistics. A canonical corpus is
immutable once built and serializes to JSON lines. `read_records` refuses a
lone surrogate in them as `read_lines` refuses bytes that are not UTF-8.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .cache import atomic_write, stable_hash
from .errors import CorpusError

__all__ = [
    "CW",
    "NCW",
    "LABELS",
    "TweetRecord",
    "Topic",
    "CorpusStats",
    "Corpus",
    "TsvSchema",
    "SCHEMA_PRESETS",
    "CANONICAL_TOPICS",
    "COVID_TOPIC_ID",
    "COVID_SOURCE_IDS",
    "DEFAULT_MERGE_TABLE",
    "parse_label",
    "read_lines",
    "read_records",
    "has_lone_surrogate",
    "load_tsv",
    "merge_covid_topics",
    "dedupe_records",
    "build_corpus",
    "corpus_stats",
]

CW = "CW"
NCW = "NCW"
LABELS = (CW, NCW)

# Accepted spellings per label, compared case-insensitively after trimming.
_LABEL_ALIASES = {
    "1": CW, "cw": CW, "checkworthy": CW,
    "0": NCW, "ncw": NCW,
}


def read_lines(path):
    """Yield (line number, line) for each non-blank line of the UTF-8 text
    file at `path`, lines ending at "\\n", numbered from 1 and kept with
    their ending. A missing file, or a line that is not UTF-8, is a
    CorpusError naming it."""
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"file not found: {path}")
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusError(
                    f"{path.name}:{lineno}: not UTF-8 text: {exc.reason} "
                    f"at byte {exc.start + 1} of the line") from None
            if line.strip():
                yield lineno, line


_SURROGATE_RE = re.compile("[\ud800-\udfff]")


def has_lone_surrogate(value) -> bool:
    """Whether `value`, a string or a JSON list or object, holds a lone
    surrogate (json.loads joins an escaped pair), which UTF-8 cannot encode."""
    if isinstance(value, dict):
        value = [*value, *value.values()]
    if isinstance(value, list):
        return any(map(has_lone_surrogate, value))
    return isinstance(value, str) and _SURROGATE_RE.search(value) is not None


def read_records(path, make=None):
    """Yield (line number, record) for each line `read_lines` reads: a JSON
    object with a string `text`, string `raw_text` and `topic_id` if any and
    no lone surrogate, or what `make` builds from it. A line that breaks a
    rule, or that `make` rejects with a KeyError or CorpusError, is a
    CorpusError `<file>:<line>: bad record: <reason>`."""
    for lineno, line in read_lines(path):
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise CorpusError(
                    f"expected a JSON object, got {type(record).__name__}")
            if "text" not in record:
                raise CorpusError("no text")
            for key in ("text", "raw_text", "topic_id"):
                if not isinstance(record.get(key, ""), str):
                    raise CorpusError(
                        f"{key} must be a string, got {record[key]!r}")
            if "\\" in line:  # JSON spells a surrogate only as a \u escape
                for key, value in record.items():
                    if has_lone_surrogate([key, value]):
                        raise CorpusError(f"{key!r} holds a lone surrogate")
            if make is not None:
                record = make(record)
        except (ValueError, KeyError, RecursionError, CorpusError) as exc:
            raise CorpusError(
                f"{Path(path).name}:{lineno}: bad record: {exc}") from exc
        yield lineno, record


def parse_label(value) -> str:
    """Map a raw check-worthiness field onto CW/NCW.

    Any claim/no-claim level a dataset carries alongside is simply ignored by
    the caller; only the check-worthiness value is interpreted here.
    """
    if value is None:
        raise CorpusError("missing check-worthiness label")
    text = str(value).strip().lower()
    if text not in _LABEL_ALIASES:
        raise CorpusError(f"unknown check-worthiness label: {value!r}")
    return _LABEL_ALIASES[text]


def _interned(value):
    """`value` interned if it is a str: a corpus repeats a few topic ids,
    labels and sources over all its records, which then share one copy."""
    return sys.intern(value) if type(value) is str else value


@dataclass(frozen=True, slots=True)
class TweetRecord:
    """One labelled tweet. Slotted, so a record holds no `__dict__`; the
    parsers (`from_dict`, `load_tsv`) intern its repeated fields."""

    tweet_id: str
    topic_id: str
    text: str
    label: str
    source: str  # CT20 | CT21

    def __post_init__(self):
        if self.label not in LABELS:
            raise CorpusError(f"label must be one of {LABELS}, got {self.label!r}")
        if not self.text.strip():
            raise CorpusError(f"tweet {self.tweet_id} has empty text")

    @classmethod
    def from_dict(cls, d: dict) -> "TweetRecord":
        return cls(
            tweet_id=str(d["tweet_id"]),
            topic_id=_interned(d["topic_id"]),
            text=d["text"],
            label=_interned(d["label"]),
            source=_interned(d.get("source", "CT20")),
        )

    def to_dict(self) -> dict:
        """The fields by name, in declaration order, as `from_dict` reads
        them."""
        return {"tweet_id": self.tweet_id, "topic_id": self.topic_id,
                "text": self.text, "label": self.label, "source": self.source}


@dataclass(frozen=True)
class Topic:
    topic_id: str
    title: str
    source_ids: tuple


COVID_TOPIC_ID = "COVID-19"
COVID_SOURCE_IDS = ("CT20-AR-03", "CT20-AR-28_w1", "CT20-AR-28_w2", "CT20-AR-29")

# The 14 canonical topics of the combined corpus.
CANONICAL_TOPICS = (
    Topic("CT20-AR-01", "Deal of the century", ("CT20-AR-01",)),
    Topic("CT20-AR-02", "Houthis in Yemen", ("CT20-AR-02",)),
    Topic("CT20-AR-05", "Protests in Lebanon", ("CT20-AR-05",)),
    Topic("CT20-AR-08", "Feminists", ("CT20-AR-08",)),
    Topic("CT20-AR-10", "Waseem Youssef", ("CT20-AR-10",)),
    Topic("CT20-AR-12", "Sudan and normalization", ("CT20-AR-12",)),
    Topic("CT20-AR-14", "Events in Libya", ("CT20-AR-14",)),
    Topic("CT20-AR-19", "Turkey's intervention in Syria", ("CT20-AR-19",)),
    Topic("CT20-AR-23", "The case of the Bidoon in Kuwait", ("CT20-AR-23",)),
    Topic("CT20-AR-27", "Algeria", ("CT20-AR-27",)),
    Topic("CT20-AR-30", "Boycotting countries and spreading rumors against Qatar", ("CT20-AR-30",)),
    Topic(COVID_TOPIC_ID, "COVID-19", COVID_SOURCE_IDS),
    Topic("CT21-AR-01", "Events in Gulf", ("CT21-AR-01",)),
    Topic("CT21-AR-02", "Events in USA", ("CT21-AR-02",)),
)

CANONICAL_TOPIC_IDS = tuple(t.topic_id for t in CANONICAL_TOPICS)

# Folds every known source topic id onto its canonical id (identity except
# for the four COVID topics).
DEFAULT_MERGE_TABLE = {
    src: topic.topic_id for topic in CANONICAL_TOPICS for src in topic.source_ids
}


@dataclass(frozen=True)
class CorpusStats:
    total_count: int
    per_topic: dict  # topic_id -> (cw_count, ncw_count)
    overall_cw_fraction: float


@dataclass(frozen=True)
class TsvSchema:
    """Column layout of one tab-separated input file.

    Column indices are zero-based. A column no index names, such as the
    claim/no-claim column of two-level files, is never read: only the
    `n_cols` check covers it.
    """

    name: str
    topic_col: int
    id_col: int
    text_col: int
    label_col: int
    n_cols: int
    source: str
    has_header: bool = True


# The two shared-task layouts we ship presets for, plus a minimal one for
# ad-hoc four-column files.
SCHEMA_PRESETS = {
    "ct20": TsvSchema("ct20", topic_col=0, id_col=1, text_col=3, label_col=4,
                      n_cols=5, source="CT20"),
    "ct21": TsvSchema("ct21", topic_col=0, id_col=1, text_col=3, label_col=5,
                      n_cols=6, source="CT21"),
    "simple": TsvSchema("simple", topic_col=0, id_col=1, text_col=2, label_col=3,
                        n_cols=4, source="CT20", has_header=False),
}


def load_tsv(path, schema: TsvSchema) -> list:
    """Parse one TSV file into TweetRecords.

    Raises CorpusError with the 1-based line number on malformed rows, on
    unknown label strings, and on tweet ids duplicated within the file.
    """
    path = Path(path)
    records = []
    seen = set()
    for lineno, line in read_lines(path):
        if lineno == 1 and schema.has_header:
            continue
        cols = line.rstrip("\n").rstrip("\r").split("\t")
        try:
            if len(cols) != schema.n_cols:
                raise CorpusError(
                    f"expected {schema.n_cols} columns, got {len(cols)}")
            label = parse_label(cols[schema.label_col])
            tweet_id = cols[schema.id_col].strip()
            if tweet_id in seen:
                raise CorpusError(f"duplicate tweet id {tweet_id}")
            seen.add(tweet_id)
            records.append(TweetRecord(
                tweet_id=tweet_id,
                topic_id=sys.intern(cols[schema.topic_col].strip()),
                text=cols[schema.text_col],
                label=label,
                source=schema.source,
            ))
        except CorpusError as exc:
            raise CorpusError(f"{path.name}:{lineno}: {exc}") from exc
    return records


def merge_covid_topics(records) -> list:
    """Relabel topic ids onto their canonical ids; never drops a record.

    `DEFAULT_MERGE_TABLE` folds the known source topics onto their
    canonical ids; every other topic id maps to itself.
    """
    merged = []
    for rec in records:
        target = DEFAULT_MERGE_TABLE.get(rec.topic_id, rec.topic_id)
        if target == rec.topic_id:
            merged.append(rec)
        else:
            merged.append(TweetRecord(rec.tweet_id, target, rec.text, rec.label, rec.source))
    return merged


def dedupe_records(records) -> tuple:
    """Drop cross-dataset duplicates by tweet id, keeping the CT20 copy.

    Returns (records, dropped_count). A duplicate id within one source is an
    error; across sources the CT20 record wins.
    """
    by_id = {}  # a replaced copy keeps the first copy's place
    dropped = 0
    for rec in records:
        prev = by_id.get(rec.tweet_id)
        if prev is None:
            by_id[rec.tweet_id] = rec
            continue
        if prev.source == rec.source:
            raise CorpusError(
                f"duplicate tweet id {rec.tweet_id} within source {rec.source}"
            )
        dropped += 1
        if prev.source != "CT20" and rec.source == "CT20":
            by_id[rec.tweet_id] = rec
    return list(by_id.values()), dropped


class Corpus:
    """Immutable collection of labelled tweets grouped by topic.

    A record's position is its index in `records`, and splits name records
    by position. `tweet_ids`, `id_order`, `topic_codes` and `features` (the
    token counts) are built on first use, so loading a corpus pays for none;
    `holdouts` keeps the pools drawn from it.
    """

    def __init__(self, records):
        records = list(records)
        if not records:
            raise CorpusError("corpus has no records")
        self._records = tuple(records)
        self._position = {}  # tweet id -> position
        for i, rec in enumerate(records):
            if self._position.setdefault(rec.tweet_id, i) != i:
                raise CorpusError(f"duplicate tweet id in corpus: {rec.tweet_id}")

    def __len__(self):
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    @property
    def records(self) -> tuple:
        return self._records

    @cached_property
    def _topics(self) -> list:
        return sorted({r.topic_id for r in self._records})

    def topic_ids(self) -> list:
        return list(self._topics)

    def records_for(self, topic_id: str) -> tuple:
        if topic_id not in self._topics:
            raise CorpusError(f"unknown topic: {topic_id!r}")
        at = np.flatnonzero(self.topic_codes == self._topics.index(topic_id))
        return tuple(self._records[i] for i in at.tolist())

    def record(self, tweet_id: str) -> TweetRecord:
        if tweet_id not in self._position:
            raise CorpusError(f"unknown tweet id: {tweet_id!r}")
        return self._records[self._position[tweet_id]]

    def positions(self, tweet_ids) -> np.ndarray:
        """The positions of `tweet_ids`, in their order."""
        try:
            return np.array([self._position[i] for i in tweet_ids],
                            dtype=np.int64)
        except KeyError as exc:
            raise CorpusError(f"unknown tweet id: {exc.args[0]!r}") from None

    @cached_property
    def tweet_ids(self) -> np.ndarray:
        """Every record's tweet id, by position (an object array)."""
        return np.array([r.tweet_id for r in self._records], dtype=object)

    @cached_property
    def id_order(self) -> np.ndarray:
        """Every position, ordered by ascending tweet id."""
        ids = self.tweet_ids.tolist()
        return np.array(sorted(range(len(ids)), key=ids.__getitem__),
                        dtype=np.int64)

    @cached_property
    def topic_codes(self) -> np.ndarray:
        """Every record's topic as its index in `topic_ids()`, by position."""
        code = {t: k for k, t in enumerate(self._topics)}
        return np.array([code[r.topic_id] for r in self._records],
                        dtype=np.int64)

    @cached_property
    def fingerprint(self) -> str:
        """A hash of every record's fields, whatever the record order. A
        field holding a lone surrogate, which only a corpus built in Python
        can hold, is a CorpusError naming the record and the field."""
        try:
            return stable_hash(sorted(
                (r.tweet_id, r.topic_id, r.text, r.label, r.source)
                for r in self._records))
        except UnicodeEncodeError:
            for r in self._records:
                for name, value in r.to_dict().items():
                    if has_lone_surrogate(value):
                        raise CorpusError(f"tweet {ascii(r.tweet_id)}: {name} "
                                          "holds a lone surrogate") from None
            raise

    @cached_property
    def features(self):
        """Every record's token counts, as a `CorpusFeatures`."""
        from .model import CorpusFeatures  # model imports this module
        return CorpusFeatures(self._records)

    @cached_property
    def holdouts(self) -> dict:
        """The holdout tables `splits.make_holdouts` drew from this corpus,
        by (k, seed)."""
        return {}

    def validate_canonical(self):
        """Require every topic id to be one of the 14 canonical ids."""
        unknown = sorted(set(self._topics) - set(CANONICAL_TOPIC_IDS))
        if unknown:
            raise CorpusError(f"non-canonical topic ids present: {unknown}")
        return self

    def to_jsonl(self, path):
        atomic_write(path, lambda fh: fh.writelines(
            json.dumps(rec.to_dict(), ensure_ascii=False) + "\n"
            for rec in self._records), text=True)

    @classmethod
    def from_jsonl(cls, path) -> "Corpus":
        return cls(rec for _, rec in read_records(path, TweetRecord.from_dict))


@dataclass(frozen=True)
class BuildReport:
    files: tuple
    duplicates_dropped: int
    topics_before_merge: int
    topics_after_merge: int


def build_corpus(inputs, require_canonical: bool = True) -> tuple:
    """Full ingestion pipeline: load, dedupe across datasets, merge topics.

    `inputs` is a sequence of (path, TsvSchema) pairs. Returns
    (Corpus, BuildReport).
    """
    records = []
    files = []
    for path, schema in inputs:
        records.extend(load_tsv(path, schema))
        files.append(str(path))
    records, dropped = dedupe_records(records)
    topics_before = len({r.topic_id for r in records})
    records = merge_covid_topics(records)
    topics_after = len({r.topic_id for r in records})
    corpus = Corpus(records)
    if require_canonical:
        corpus.validate_canonical()
    report = BuildReport(tuple(files), dropped, topics_before, topics_after)
    return corpus, report


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Exact per-topic and overall class counts."""
    per_topic = {}
    total_cw = 0
    for topic_id in corpus.topic_ids():
        records = corpus.records_for(topic_id)
        cw = sum(1 for r in records if r.label == CW)
        per_topic[topic_id] = (cw, len(records) - cw)
        total_cw += cw
    return CorpusStats(
        total_count=len(corpus),
        per_topic=per_topic,
        overall_cw_fraction=total_cw / len(corpus),
    )
