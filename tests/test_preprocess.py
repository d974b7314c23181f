"""Normalization: the golden corpus plus the structural properties that
must hold for arbitrary input."""

import hashlib
import json
import random
import re
import sys
import unicodedata

import pytest
from golden_cases import GOLDEN_CASES
from hypothesis import given, settings
from hypothesis import strategies as st
from synth import random_fuzz_text

from claimcheck.errors import CorpusError
from claimcheck.preprocess import (
    _ARABIC_LETTER,
    _BRACKET_RE,
    _DIGIT,
    _LATIN,
    _STRIP_RE,
    EMAIL_RE,
    MENTION_RE,
    PLACEHOLDERS,
    URL_RE,
    _correct_whitespace,
    normalize_corpus_file,
    normalize_tweet,
)

_RUN_RE = re.compile(r"(.)\1\1")


def _strip_placeholders(text):
    for token in PLACEHOLDERS:
        text = text.replace(token, "\x00")
    return text


def assert_normalized_shape(out):
    """The structural invariants every normalized text must satisfy."""
    assert _RUN_RE.search(out) is None, f"character run survived: {out!r}"
    assert "\n" not in out and "\r" not in out and "\t" not in out
    assert "  " not in out
    assert out == out.strip()
    bare = _strip_placeholders(out)
    for pattern in (URL_RE, EMAIL_RE, MENTION_RE):
        assert not pattern.search(bare), \
            f"pattern {pattern.pattern!r} survived in {out!r}"
    assert not re.search(r"</?[A-Za-z][^<>]*>", bare)


@pytest.mark.parametrize("raw,expected,count", GOLDEN_CASES,
                         ids=[f"case{i:02d}" for i in range(len(GOLDEN_CASES))])
def test_golden_case(raw, expected, count):
    result = normalize_tweet(raw)
    assert result.text == expected
    assert result.replacements == count


def test_outputs_match_the_pinned_digest():
    """Every (text, replacements) pair on the golden inputs and 20,000
    seeded fuzz strings hashes to the digest the rule-by-rule passes
    gave, so a rewrite of the passes keeps every output byte."""
    rng = random.Random(14)
    inputs = [raw for raw, _, _ in GOLDEN_CASES]
    inputs += [random_fuzz_text(rng) for _ in range(20_000)]
    digest = hashlib.sha256()
    for text in inputs:
        out = normalize_tweet(text)
        digest.update(json.dumps([out.text, out.replacements]).encode() + b"\n")
    assert digest.hexdigest() == (
        "9f6a56791fe40d7c2302b5c34453a21db3ce9b7ba10dda29ed73763beaaa7ed6")


def test_golden_corpus_covers_enough_cases():
    assert len(GOLDEN_CASES) >= 20


def test_golden_outputs_are_fixed_points():
    for raw, expected, _ in GOLDEN_CASES:
        again = normalize_tweet(expected)
        assert again.text == expected
        assert_normalized_shape(normalize_tweet(raw).text)


def test_determinism():
    for raw, _, _ in GOLDEN_CASES:
        assert normalize_tweet(raw) == normalize_tweet(raw)


def test_idempotence_on_seeded_fuzz():
    rng = random.Random(404)
    for _ in range(2000):
        text = random_fuzz_text(rng)
        once = normalize_tweet(text).text
        twice = normalize_tweet(once).text
        assert twice == once, f"not idempotent on {text!r}"
        assert_normalized_shape(once)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=80))
def test_idempotence_on_arbitrary_unicode(text):
    once = normalize_tweet(text).text
    assert normalize_tweet(once).text == once
    assert _RUN_RE.search(once) is None


@pytest.mark.parametrize("raw, expected", [
    ("<\x1fA>", ""),
    ("<😀a>", ""),
    ("x <b\x1f>y</\x1fb> z", "x y z"),
    ("&#\x1f0", "\ufffd"),
    ("a &\x1flt;b> c", "a c"),
    ("&\x1famp;lt;", "<"),
    ("&am<b>p;", "&"),
    ("&llll;", "≪"),
    ("x &gggg; y", "x ≫ y"),
])
def test_markup_exposed_by_a_removal_goes_in_one_pass(raw, expected):
    """Removing a control character, a stripped symbol, a tag or part of a
    character run can complete an HTML tag or entity; it is eliminated in
    the same pass, so a second pass changes nothing."""
    once = normalize_tweet(raw).text
    assert once == expected
    assert normalize_tweet(once).text == once


@pytest.mark.parametrize("raw, expected", [
    ("0t.co/3t.co/0;", "0 [url] [url]"),
    ("a1bit.ly/x", "a 1 [url]"),
])
def test_a_shortener_exposed_by_whitespace_correction_goes_in_one_pass(
        raw, expected):
    """The space whitespace correction inserts before a link shortener
    gives URL_RE's word boundary; the link is replaced in the same pass."""
    once = normalize_tweet(raw).text
    assert once == expected
    assert normalize_tweet(once).text == once


_URL_FRAGMENTS = ["t.co/", "bit.ly/", "is.gd/", "buff.ly/", "http://",
                  "www.", "0", "3", "a", "Z", "ب", "٣", " ", "/",
                  ";", ".", "@u", "x@y.com", "<b>", "&amp;", "(", ")", "[",
                  "[url]", "\U0001F600", "aaa"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_URL_FRAGMENTS), max_size=8).map("".join))
def test_idempotence_on_url_and_markup_fragments(text):
    once = normalize_tweet(text).text
    assert normalize_tweet(once).text == once


def test_replacement_count_totals():
    result = normalize_tweet("@a @b http://x.co/1 y@z.io")
    assert result.replacements == 4
    assert result.text.count("[user]") == 2


def test_a_url_without_a_slash_is_replaced():
    result = normalize_tweet("زوروا www.example.com اليوم")
    assert (result.text, result.replacements) == ("زوروا [url] اليوم", 1)


def test_empty_and_whitespace_only():
    assert normalize_tweet("").text == ""
    assert normalize_tweet("  \n\t ").text == ""


def test_normalize_corpus_file(tmp_path, small_corpus):
    src = tmp_path / "raw.jsonl"
    dst = tmp_path / "norm.jsonl"
    records = list(small_corpus.records)[:5]
    import json
    with open(src, "w", encoding="utf-8") as fh:
        for r in records:
            row = r.to_dict()
            row["text"] = row["text"] + " https://t.co/zz  extra   spaces"
            fh.write(json.dumps(row) + "\n")
    n = normalize_corpus_file(src, dst)
    assert n == 5
    with open(dst, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    for row, original in zip(rows, records):
        assert row["raw_text"].startswith(original.text)
        assert row["text"].endswith("[url] extra spaces")


@pytest.mark.parametrize("line, problem", [
    ("{not json", "Expecting property name"),
    ('["a list"]', "expected a JSON object, got list"),
    ('"a string"', "expected a JSON object, got str"),
    ('{"tweet_id": "1"}', "no text"),
    ('{"tweet_id": "1", "text": 7}', "text must be a string, got 7"),
    ('{"tweet_id": "1", "text": "a", "raw_text": null}',
     "raw_text must be a string, got None"),
    ('{"tweet_id": "1", "text": "a", "topic_id": 3}',
     "topic_id must be a string, got 3"),
    # half of an escaped UTF-16 pair, anywhere in the record
    ('{"tweet_id": "1", "text": "a \\ud800"}', "'text' holds a lone surrogate"),
    ('{"tweet_id": "\\ude00", "text": "a"}',
     "'tweet_id' holds a lone surrogate"),
    ('{"tweet_id": "1", "text": "a", "raw_text": "\\ude00\\ud83d"}',
     "'raw_text' holds a lone surrogate"),
    ('{"tweet_id": "1", "text": "a", "meta": {"tags": ["\\udbff"]}}',
     "'meta' holds a lone surrogate"),
    ('{"tweet_id": "1", "text": "a", "\\ud800": 1}',
     "'\\ud800' holds a lone surrogate"),
    pytest.param('{"text": "a", "x": ' + "[" * 100_000 + "]" * 100_000 + "}",
                 "maximum recursion depth exceeded", id="nested-too-deep"),
])
def test_normalize_corpus_file_reports_bad_lines(tmp_path, line, problem):
    src = tmp_path / "raw.jsonl"
    good = '{"tweet_id": "0", "text": "fine"}'
    src.write_text(f"{good}\n\n{line}\n", encoding="utf-8")
    dst = tmp_path / "norm.jsonl"
    with pytest.raises(CorpusError, match=r"^raw\.jsonl:3: bad record: ") as info:
        normalize_corpus_file(src, dst)
    assert problem in str(info.value)
    assert list(tmp_path.iterdir()) == [src]


def test_normalize_writes_an_escaped_surrogate_pair_as_before(tmp_path):
    # the pair is one emoji; an escaped backslash before "ud800" is text
    src = tmp_path / "raw.jsonl"
    src.write_text('{"tweet_id": "1", "topic_id": "T", "text": '
                   '"نص \\ud83d\\ude00 ok \\\\ud800 @user", "label": "CW"}\n',
                   encoding="utf-8")
    dst = tmp_path / "norm.jsonl"
    assert normalize_corpus_file(src, dst) == 1
    assert dst.read_bytes() == (
        '{"tweet_id": "1", "topic_id": "T", "text": "نص ok \\\\ud 800 [user]", '
        '"label": "CW", "raw_text": "نص \U0001f600 ok \\\\ud800 @user"}\n'
    ).encode("utf-8")


# ---------------------------------------------------------------------------
# each single-pass rule and prefilter against what it replaced

EVERY_CODE_POINT = "".join(map(chr, range(sys.maxunicode + 1)))


def _class_members(pattern):
    return set(re.findall(pattern, EVERY_CODE_POINT))


def test_strip_class_holds_exactly_the_control_characters_of_category_cc():
    stripped = set(EVERY_CODE_POINT) - set(_STRIP_RE.sub("", EVERY_CODE_POINT))
    cc = {c for c in EVERY_CODE_POINT if unicodedata.category(c) == "Cc"}
    assert len(cc) == 65
    assert {c for c in stripped if unicodedata.category(c) == "Cc"} == cc


def test_regex_whitespace_is_str_isspace():
    assert _class_members(r"\s") == {c for c in EVERY_CODE_POINT if c.isspace()}


def test_script_classes_are_disjoint_and_exclude_the_space():
    arabic, digit, latin = (_class_members(f"[{cls}]")
                            for cls in (_ARABIC_LETTER, _DIGIT, _LATIN))
    assert not arabic & digit and not arabic & latin and not digit & latin
    assert " " not in arabic | digit | latin


# The six sequential boundary passes the single alternation replaced; the
# oracle of the test below.
_SIX_BOUNDARY_PASSES = tuple(re.compile(p) for p in (
    rf"(?<=[{_ARABIC_LETTER}])(?=[{_DIGIT}])",
    rf"(?<=[{_DIGIT}])(?=[{_ARABIC_LETTER}])",
    rf"(?<=[{_ARABIC_LETTER}])(?=[{_LATIN}])",
    rf"(?<=[{_LATIN}])(?=[{_ARABIC_LETTER}])",
    rf"(?<=[{_LATIN}])(?=[{_DIGIT}])",
    rf"(?<=[{_DIGIT}])(?=[{_LATIN}])",
))

def _range_edges(cls):
    """The first and last member of every range of a character class and
    their neighbours outside the range."""
    edges = set()
    for first, last in re.findall(r"(.)(?:-(.))?", cls):
        lo, hi = ord(first), ord(last or first)
        edges.update(map(chr, (lo - 1, lo, hi, hi + 1)))
    return edges


_CLASS_EDGES = sorted(set().union(*map(_range_edges, (_ARABIC_LETTER, _DIGIT,
                                                       _LATIN)))
                      | set("()[]{} \t\u00a0é"))


@settings(max_examples=2000, deadline=None)
@given(st.text(alphabet=st.sampled_from(_CLASS_EDGES), max_size=24))
def test_whitespace_correction_equals_six_sequential_passes(text):
    expected = text
    for boundary in _SIX_BOUNDARY_PASSES:
        expected = boundary.sub(" ", expected)
    expected = _BRACKET_RE.sub(r" \1 ", expected)
    assert _correct_whitespace(text) == expected


def test_url_literals_have_no_case_variants():
    """URL_RE matches under IGNORECASE; the "/" and "." every one of its
    branches holds match only themselves, so a prefilter on them is exact.
    Letters are no such literal: "ſ" matches "s"."""
    assert _class_members(re.compile(r"[/.:]", re.IGNORECASE)) == set("/.:")
    assert re.fullmatch("s", "ſ", re.IGNORECASE)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(_URL_FRAGMENTS + ["ſ", "İ", "ı", "K", "HTTP://",
                                                 "WWW.", "T.CO/", "@", "-"]),
                max_size=10).map("".join))
def test_every_match_holds_its_prefilter_literal(text):
    for match in URL_RE.finditer(text):
        assert "/" in match[0] or "." in match[0]
    for pattern in (EMAIL_RE, MENTION_RE):
        for match in pattern.finditer(text):
            assert "@" in match[0]
