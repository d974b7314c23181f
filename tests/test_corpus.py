"""Corpus ingestion: TSV parsing, label mapping, topic merging, dedup, and
round-trip serialization."""

import copy
import dataclasses
import json
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import claimcheck
from claimcheck.corpus import (
    CANONICAL_TOPIC_IDS,
    COVID_SOURCE_IDS,
    COVID_TOPIC_ID,
    CW,
    NCW,
    SCHEMA_PRESETS,
    Corpus,
    TweetRecord,
    build_corpus,
    corpus_stats,
    dedupe_records,
    has_lone_surrogate,
    load_tsv,
    merge_covid_topics,
    parse_label,
    read_lines,
)
from claimcheck.errors import CorpusError
from claimcheck.preprocess import normalize_corpus_file


def _write_tsv(path, rows, header=None):
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(row) + "\n")
    return path


def _rec(tweet_id, topic_id="CT20-AR-01", label=CW, source="CT20", text="نص"):
    return TweetRecord(tweet_id, topic_id, text, label, source)


# ---- labels and records


@pytest.mark.parametrize("raw,expected", [
    ("1", CW), ("0", NCW), ("CW", CW), ("cw", CW), ("NCW", NCW),
    ("checkworthy", CW), ("CheckWorthy", CW), ("ncw", NCW),
])
def test_parse_label_aliases(raw, expected):
    assert parse_label(raw) == expected


def test_parse_label_rejects_unknown():
    with pytest.raises(CorpusError, match="maybe"):
        parse_label("maybe")


def test_record_requires_known_label_and_text():
    with pytest.raises(CorpusError):
        TweetRecord("1", "t", "text", "YES", "CT20")
    with pytest.raises(CorpusError):
        TweetRecord("1", "t", "", CW, "CT20")


def test_a_record_is_a_slotted_frozen_value():
    rec = _rec("7", text="هل هذا صحيح؟")
    same = _rec("7", text="هل هذا صحيح؟")
    assert not hasattr(rec, "__dict__")
    assert rec == same and hash(rec) == hash(same) and rec is not same
    assert {rec, same} == {rec}
    for twin in (pickle.loads(pickle.dumps(rec)), copy.deepcopy(rec),
                 copy.copy(rec), dataclasses.replace(rec)):
        assert type(twin) is TweetRecord and twin == rec
        assert hash(twin) == hash(rec)
    assert dataclasses.replace(rec, label=NCW) == _rec("7", label=NCW,
                                                       text="هل هذا صحيح؟")
    assert dataclasses.asdict(rec) == rec.to_dict() == {
        "tweet_id": "7", "topic_id": "CT20-AR-01", "text": "هل هذا صحيح؟",
        "label": CW, "source": "CT20"}
    assert TweetRecord.from_dict(rec.to_dict()) == rec
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.label = NCW
    with pytest.raises((AttributeError, TypeError)):
        rec.extra = 1
    with pytest.raises(CorpusError, match="label must be one of"):
        dataclasses.replace(rec, label="YES")


def test_parsed_records_share_their_repeated_fields(tmp_path):
    """`from_dict` and `load_tsv` intern topic ids, labels and sources, so
    a corpus holds one copy of each, whatever its size."""
    rows = [{"tweet_id": str(i), "topic_id": "T1", "text": f"نص {i}",
             "label": CW, "source": "CT21"} for i in range(3)]
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows),
                    encoding="utf-8")
    loaded = Corpus.from_jsonl(path).records
    tsv = load_tsv(_write_tsv(tmp_path / "a.tsv", [
        ["CT20-AR-01", str(i), "url", "نص", "1"] for i in range(3)],
        header=["topic_id", "tweet_id", "url", "text", "cw"]),
        SCHEMA_PRESETS["ct20"])
    for records in (loaded, tsv):
        for name in ("topic_id", "label", "source"):
            assert len({id(getattr(r, name)) for r in records}) == 1, name


# ---- TSV loading


def test_load_tsv_ct20_layout(tmp_path):
    path = _write_tsv(
        tmp_path / "a.tsv",
        [["CT20-AR-19", "123", "https://x/1", "نص تجريبي", "1"],
         ["CT20-AR-19", "124", "https://x/2", "نص آخر", "0"]],
        header=["topic_id", "tweet_id", "tweet_url", "tweet_text", "claim_worthiness"],
    )
    records = load_tsv(path, SCHEMA_PRESETS["ct20"])
    assert [r.label for r in records] == [CW, NCW]
    assert records[0] == TweetRecord("123", "CT20-AR-19", "نص تجريبي", CW, "CT20")


def test_load_tsv_ct21_discards_claim_level(tmp_path):
    path = _write_tsv(
        tmp_path / "b.tsv",
        [["CT21-AR-01", "9", "u", "نص", "1", "0"],   # claim, not worthy
         ["CT21-AR-01", "10", "u", "نص", "0", "0"],  # not claim, not worthy
         ["CT21-AR-01", "11", "u", "نص", "1", "1"]],
        header=["topic", "id", "url", "text", "claim", "worthy"],
    )
    records = load_tsv(path, SCHEMA_PRESETS["ct21"])
    assert [r.label for r in records] == [NCW, NCW, CW]
    assert all(r.source == "CT21" for r in records)


def test_load_tsv_simple_has_no_header(tmp_path):
    path = _write_tsv(tmp_path / "c.tsv", [["T-1", "1", "hello", "1"]])
    records = load_tsv(path, SCHEMA_PRESETS["simple"])
    assert len(records) == 1 and records[0].topic_id == "T-1"


def test_load_tsv_wrong_column_count_names_line(tmp_path):
    path = _write_tsv(tmp_path / "d.tsv", [["T-1", "1", "text"]])
    with pytest.raises(CorpusError, match="d.tsv:1"):
        load_tsv(path, SCHEMA_PRESETS["simple"])


def test_load_tsv_unknown_label_names_value(tmp_path):
    path = _write_tsv(tmp_path / "e.tsv", [["T-1", "1", "text", "2"]])
    with pytest.raises(CorpusError, match="'2'"):
        load_tsv(path, SCHEMA_PRESETS["simple"])


def test_load_tsv_duplicate_id_within_file(tmp_path):
    path = _write_tsv(tmp_path / "f.tsv",
                      [["T-1", "1", "x", "1"], ["T-2", "1", "y", "0"]])
    with pytest.raises(CorpusError, match="duplicate"):
        load_tsv(path, SCHEMA_PRESETS["simple"])


def test_load_tsv_missing_file():
    with pytest.raises(CorpusError):
        load_tsv("/nonexistent/file.tsv", SCHEMA_PRESETS["simple"])


@pytest.mark.parametrize("row, message", [
    (["T-1", "1", "x"], "g.tsv:2: expected 4 columns, got 3"),
    (["T-1", "1", "x", "2"], "g.tsv:2: unknown check-worthiness label: '2'"),
    (["T-1", "0", "x", "1"], "g.tsv:2: duplicate tweet id 0"),
    (["T-1", "1", " ", "1"], "g.tsv:2: tweet 1 has empty text"),
])
def test_load_tsv_names_the_line_of_each_bad_row(tmp_path, row, message):
    path = _write_tsv(tmp_path / "g.tsv", [["T-1", "0", "fine", "0"], row])
    with pytest.raises(CorpusError) as err:
        load_tsv(path, SCHEMA_PRESETS["simple"])
    assert str(err.value) == message


def test_lines_end_at_a_newline_only(tmp_path):
    # a CR before the newline stays on the line; a CR elsewhere is text
    path = tmp_path / "h.tsv"
    path.write_bytes(b"T-1\t1\tone\rtwo\t1\r\n\r\nT-1\t2\tthree\t0\n")
    assert list(read_lines(path)) == [(1, "T-1\t1\tone\rtwo\t1\r\n"),
                                      (3, "T-1\t2\tthree\t0\n")]
    records = load_tsv(path, SCHEMA_PRESETS["simple"])
    assert [r.text for r in records] == ["one\rtwo", "three"]


# ---- topic merge


def test_merge_folds_covid_sources_to_one_topic():
    records = [_rec(str(i), topic_id=t) for i, t in enumerate(COVID_SOURCE_IDS)]
    records += [_rec("x", topic_id="CT20-AR-19")]
    merged = merge_covid_topics(records)
    assert len(merged) == len(records)
    topics = {r.topic_id for r in merged}
    assert topics == {COVID_TOPIC_ID, "CT20-AR-19"}


def test_merge_is_identity_without_covid_topics():
    records = [_rec("1", topic_id="T-A"), _rec("2", topic_id="T-B")]
    assert merge_covid_topics(records) == records


def test_merge_reduces_seventeen_topics_to_fourteen():
    source_topics = [t for t in CANONICAL_TOPIC_IDS if t != COVID_TOPIC_ID]
    source_topics += list(COVID_SOURCE_IDS)
    assert len(source_topics) == 17
    records = [_rec(str(i), topic_id=t) for i, t in enumerate(source_topics)]
    merged = merge_covid_topics(records)
    assert len({r.topic_id for r in merged}) == 14
    assert len(merged) == 17


# ---- dedup


def test_dedupe_keeps_ct20_copy():
    a = _rec("1", source="CT21", text="ct21 copy")
    b = _rec("1", source="CT20", text="ct20 copy")
    for ordering in ([a, b], [b, a]):
        records, dropped = dedupe_records(ordering)
        assert dropped == 1
        assert len(records) == 1
        assert records[0].source == "CT20"


def test_dedupe_keeps_the_first_place_of_a_replaced_copy():
    a = _rec("1", source="CT21", text="ct21 copy")
    b = _rec("2", source="CT21")
    c = _rec("1", source="CT20", text="ct20 copy")
    assert dedupe_records([a, b, c]) == ([c, b], 1)


def test_dedupe_same_source_duplicate_is_error():
    with pytest.raises(CorpusError, match="within source"):
        dedupe_records([_rec("1"), _rec("1")])


# ---- Corpus container


def test_corpus_rejects_duplicate_ids():
    with pytest.raises(CorpusError):
        Corpus([_rec("1"), _rec("1", topic_id="CT20-AR-02")])


def test_corpus_lookup_and_topics():
    corpus = Corpus([_rec("1", topic_id="B"), _rec("2", topic_id="A")])
    assert corpus.topic_ids() == ["A", "B"]
    assert corpus.record("2").topic_id == "A"
    with pytest.raises(CorpusError):
        corpus.record("missing")
    with pytest.raises(CorpusError):
        corpus.records_for("missing")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["B", "A", "C-2", "C-10", "ب"]), min_size=1,
                max_size=30))
def test_topic_index_equals_a_per_topic_reference(topics):
    """`topic_ids()` and `records_for()` give what a dict of per-topic
    tuples built in corpus order gives, whatever the record order."""
    records = [_rec(str(i), topic_id=t) for i, t in enumerate(topics)]
    corpus = Corpus(records)
    by_topic = {}
    for rec in records:
        by_topic.setdefault(rec.topic_id, []).append(rec)
    assert corpus.topic_ids() == sorted(by_topic)
    for topic, expected in by_topic.items():
        assert corpus.records_for(topic) == tuple(expected)
    corpus.topic_ids().append("Z")  # a copy: the index stays as it was
    assert corpus.topic_ids() == sorted(by_topic)


def test_corpus_position_index_is_built_on_first_use(tmp_path):
    corpus = Corpus([_rec("30", topic_id="B"), _rec("4", topic_id="A"),
                     _rec("100", topic_id="B")])
    path = tmp_path / "corpus.jsonl"
    corpus.to_jsonl(path)
    reloaded = Corpus.from_jsonl(path)
    lazy = {"tweet_ids", "id_order", "topic_codes"}
    assert not lazy & set(vars(corpus)) and not lazy & set(vars(reloaded))
    assert reloaded.id_order.tolist() == [2, 0, 1]  # "100" < "30" < "4"
    assert reloaded.topic_codes.tolist() == [1, 0, 1]
    assert reloaded.positions(["4", "100"]).tolist() == [1, 2]
    with pytest.raises(CorpusError, match="missing"):
        reloaded.positions(["4", "missing"])


def test_corpus_round_trip(tmp_path, small_corpus):
    path = tmp_path / "corpus.jsonl"
    small_corpus.to_jsonl(path)
    reloaded = Corpus.from_jsonl(path)
    assert reloaded.records == small_corpus.records


def test_to_jsonl_writes_each_record_unescaped_in_field_order(tmp_path):
    path = tmp_path / "corpus.jsonl"
    Corpus([_rec("7", text="هل هذا صحيح؟ #كورونا"),
            _rec("12", topic_id=COVID_TOPIC_ID, label=NCW, source="CT21",
                 text='say "hi"\\ 😀'),
            _rec("3", text="a\tb")]).to_jsonl(path)
    assert path.read_bytes() == (
        '{"tweet_id": "7", "topic_id": "CT20-AR-01", '
        '"text": "هل هذا صحيح؟ #كورونا", "label": "CW", "source": "CT20"}\n'
        '{"tweet_id": "12", "topic_id": "COVID-19", '
        '"text": "say \\"hi\\"\\\\ 😀", "label": "NCW", "source": "CT21"}\n'
        '{"tweet_id": "3", "topic_id": "CT20-AR-01", '
        '"text": "a\\tb", "label": "CW", "source": "CT20"}\n').encode("utf-8")


_GOOD_LINE = json.dumps({"tweet_id": "1", "topic_id": "T", "text": "نص",
                         "label": "CW"})


@pytest.mark.parametrize("line, reason", [
    ("[1]", "expected a JSON object, got list"),
    ("null", "expected a JSON object, got NoneType"),
    ('{"tweet_id": "2", "topic_id": "T", "text": "x", "label": "maybe"}',
     "label must be one of"),
    ('{"tweet_id": "2", "topic_id": "T", "text": "x", "label": ["CW"]}',
     "label must be one of"),
    ('{"tweet_id": "2", "topic_id": "T", "text": " ", "label": "CW"}',
     "tweet 2 has empty text"),
    ('{"tweet_id": "2", "topic_id": "T", "text": 5, "label": "CW"}',
     "text must be a string, got 5"),
    ('{"tweet_id": "2", "topic_id": ["T"], "text": "x", "label": "CW"}',
     "topic_id must be a string"),
    ('{"tweet_id": "2", "topic_id": "T", "label": "CW"}', "no text"),
    # an id or source is a string as written: no str() of a number or null
    ('{"tweet_id": 2.0, "topic_id": "T", "text": "x", "label": "CW"}',
     "tweet_id must be a string, got 2.0"),
    ('{"tweet_id": 3, "topic_id": "T", "text": "x", "label": "CW"}',
     "tweet_id must be a string, got 3"),
    ('{"tweet_id": ["3"], "topic_id": "T", "text": "x", "label": "CW"}',
     "tweet_id must be a string, got ['3']"),
    ('{"tweet_id": null, "topic_id": "T", "text": "x", "label": "CW"}',
     "tweet_id must be a string, got None"),
    ('{"tweet_id": "2", "topic_id": "T", "text": "x", "label": "CW", '
     '"source": 2.0}', "source must be a string, got 2.0"),
    ('{"tweet_id": "2", "topic_id": "T", "text": "x", "label": "CW", '
     '"source": 20}', "source must be a string, got 20"),
    ('{"tweet_id": "2", "topic_id": "T", "text": "x", "label": "CW", '
     '"source": ["CT20", 7]}', "source must be a string, got ['CT20', 7]"),
    ('{"tweet_id": "2", "topic_id": "T", "text": "x", "label": "CW", '
     '"source": null}', "source must be a string, got None"),
    ('{"tweet_id": ', "Expecting value"),
    # half of an escaped UTF-16 pair, which no UTF-8 writer can write back
    ('{"tweet_id": "2", "topic_id": "T", "text": "a \\ud83d b", "label": "CW"}',
     "'text' holds a lone surrogate"),
    ('{"tweet_id": "2\\udc00", "topic_id": "T", "text": "x", "label": "CW"}',
     "'tweet_id' holds a lone surrogate"),
])
def test_from_jsonl_names_the_file_and_line_of_a_bad_record(tmp_path, line,
                                                            reason):
    path = tmp_path / "corpus.jsonl"
    path.write_text(f"{_GOOD_LINE}\n\n{line}\n", encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        Corpus.from_jsonl(path)
    assert str(err.value).startswith("corpus.jsonl:3: bad record: ")
    assert reason in str(err.value)


def test_an_escaped_surrogate_pair_loads_as_one_code_point(tmp_path):
    # a whole pair, and an escaped backslash before "ud800", are not lone
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"tweet_id": "1", "topic_id": "T", "text": '
                    '"نص \\ud83d\\ude00 \\\\ud800", "label": "CW"}\n',
                    encoding="utf-8")
    (record,) = Corpus.from_jsonl(path)
    assert record.text == "نص \U0001f600 \\ud800"


@pytest.mark.parametrize("value, lone", [
    ("\U0001f600", False), ("a\ud83d", True), ("\udfff", True),
    (["x", {"k": [1, None, "\ud800"]}], True), ({"\ud800": 1}, True),
    ({"k": ["x", 2.5, True]}, False), (7, False),
])
def test_has_lone_surrogate_looks_into_every_string(value, lone):
    assert has_lone_surrogate(value) is lone


@pytest.mark.parametrize("read", [
    lambda path: load_tsv(path, SCHEMA_PRESETS["simple"]),
    Corpus.from_jsonl,
    lambda path: normalize_corpus_file(path, path.with_name("out.jsonl")),
])
def test_every_line_reader_reports_a_missing_file_alike(tmp_path, read):
    path = tmp_path / "missing.jsonl"
    with pytest.raises(CorpusError) as err:
        read(path)
    assert str(err.value) == f"file not found: {path}"
    assert list(tmp_path.iterdir()) == []


def test_validate_canonical(protocol_corpus_14, small_corpus):
    protocol_corpus_14.validate_canonical()
    with pytest.raises(CorpusError, match="S-A"):
        small_corpus.validate_canonical()


def test_canonical_topic_set_shape():
    assert len(CANONICAL_TOPIC_IDS) == 14
    assert COVID_TOPIC_ID in CANONICAL_TOPIC_IDS
    assert len(COVID_SOURCE_IDS) == 4
    assert not set(COVID_SOURCE_IDS) & set(CANONICAL_TOPIC_IDS)


# ---- stats


def test_corpus_stats_counts_and_fraction():
    records = [_rec(str(i), label=(CW if i < 3 else NCW)) for i in range(10)]
    stats = corpus_stats(Corpus(records))
    assert stats.total_count == 10
    assert stats.per_topic["CT20-AR-01"] == (3, 7)
    assert stats.overall_cw_fraction == pytest.approx(0.3)


def test_corpus_stats_additive(protocol_corpus_14):
    stats = corpus_stats(protocol_corpus_14)
    assert sum(cw + ncw for cw, ncw in stats.per_topic.values()) == stats.total_count


# ---- full pipeline


def test_build_corpus_pipeline(tmp_path):
    ct20_rows = []
    source_topics = [t for t in CANONICAL_TOPIC_IDS if t != COVID_TOPIC_ID]
    source_topics += list(COVID_SOURCE_IDS)
    i = 0
    for topic in source_topics:
        for _ in range(3):
            ct20_rows.append([topic, f"id{i}", "u", f"text {i}", str(i % 2)])
            i += 1
    ct20 = _write_tsv(tmp_path / "ct20.tsv", ct20_rows, header=["t", "i", "u", "x", "l"])
    # one overlapping id plus one new record
    ct21_rows = [
        ["CT21-AR-01", "id0", "u", "overlap copy", "1", "1"],
        ["CT21-AR-01", "extra1", "u", "new text", "1", "1"],
    ]
    ct21 = _write_tsv(tmp_path / "ct21.tsv", ct21_rows, header=["t", "i", "u", "c", "w", "l"])

    corpus, report = build_corpus([
        (ct20, SCHEMA_PRESETS["ct20"]),
        (ct21, SCHEMA_PRESETS["ct21"]),
    ])
    assert report.duplicates_dropped == 1
    assert report.topics_before_merge == 17
    assert report.topics_after_merge == 14
    assert len(corpus) == len(ct20_rows) + 1
    assert corpus.record("id0").text == "text 0"  # the CT20 copy won
    assert set(corpus.topic_ids()) <= set(CANONICAL_TOPIC_IDS)


def test_build_corpus_canonical_check_can_be_disabled(tmp_path):
    path = _write_tsv(tmp_path / "odd.tsv", [["T-ODD", "1", "x", "1"]])
    with pytest.raises(CorpusError):
        build_corpus([(path, SCHEMA_PRESETS["simple"])])
    corpus, _ = build_corpus([(path, SCHEMA_PRESETS["simple"])],
                             require_canonical=False)
    assert corpus.topic_ids() == ["T-ODD"]


def test_importing_corpus_or_preprocess_loads_no_scipy_model_or_runner():
    """The package is its modules: importing `claimcheck.corpus` or
    `claimcheck.preprocess` loads neither `scipy` nor the model or runner,
    and the package itself lists none of their names."""
    probe = (
        "import json, sys\n"
        "import claimcheck.corpus, claimcheck.preprocess\n"
        "print(json.dumps({'loaded': sorted(m for m in sys.modules if m in ("
        "'scipy', 'claimcheck.model', 'claimcheck.runner') "
        "or m.startswith('scipy.')), "
        "'run_suite': hasattr(sys.modules['claimcheck'], 'run_suite')}))\n"
    )
    src = os.path.join(os.path.dirname(claimcheck.__file__), os.pardir)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [os.path.abspath(src), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout
    assert json.loads(out) == {"loaded": [], "run_suite": False}
