"""Tweet text normalization.

One public operation, :func:`normalize_tweet`, applies three rule groups in a
fixed order:

1. substitution: URLs, email addresses and user mentions are replaced by the
   literal placeholder tokens ``[url]``, ``[email]`` and ``[user]``;
2. elimination: HTML entities and tags, line breaks, runs of three or more
   identical characters (collapsed to two), emoji/pictograph/format/control
   characters, and redundant spaces;
3. whitespace correction: a space is inserted at boundaries between Arabic
   words, Latin words and digit runs, and brackets are space-separated on both
   sides.

Placeholder tokens are protected from the elimination and whitespace passes,
so they always survive verbatim. Substitution runs a second time after
elimination because collapsing characters can expose a previously broken
pattern, and again on a part holding a ``/`` that whitespace correction
changed. The function is idempotent and deterministic.

No rule walks the characters in Python: stripped symbols and control
characters share one regex class, the six script boundaries one alternation.
A pass runs only when the segment holds a literal each of its matches needs:
``/`` or ``.`` (URL_RE), ``@`` (EMAIL_RE, MENTION_RE), a digit or Latin
letter (script boundaries), one of ``()[]{}`` (bracket spacing). URL_RE's
literal is never a letter, which IGNORECASE also matches in other forms
(``ſ`` for ``s``).

:func:`normalize_corpus_file` reads through ``corpus.read_records``, the
record check ``Corpus.from_jsonl`` uses, so it writes only what UTF-8 can.
"""

from __future__ import annotations

import html
import json
import re
from dataclasses import dataclass
from pathlib import Path

from .cache import atomic_write
from .corpus import read_records
from .errors import CorpusError

__all__ = ["NormalizedText", "normalize_tweet", "normalize_corpus_file",
           "PLACEHOLDERS", "URL_RE", "EMAIL_RE", "MENTION_RE"]

URL_PLACEHOLDER = "[url]"
EMAIL_PLACEHOLDER = "[email]"
USER_PLACEHOLDER = "[user]"
PLACEHOLDERS = (URL_PLACEHOLDER, EMAIL_PLACEHOLDER, USER_PLACEHOLDER)

_SHORTENERS = r"(?:t\.co|bit\.ly|tinyurl\.com|goo\.gl|ow\.ly|is\.gd|buff\.ly)"
URL_RE = re.compile(
    r"(?:https?://\S+|www\.\S+|\b" + _SHORTENERS + r"/\S+)", re.IGNORECASE
)
EMAIL_RE = re.compile(r"[\w.+-]+@[\w-]+(?:\.[\w-]+)+")
MENTION_RE = re.compile(r"@\w+")

_HTML_TAG_RE = re.compile(r"</?[A-Za-z][^<>]*>")
_LINEBREAK_RE = re.compile(r"[\r\n\t\v\f]+")
_CHAR_RUN_RE = re.compile(r"(.)\1\1+", re.DOTALL)

# Emoji / pictograph blocks, misc symbols and dingbats, arrows, variation
# selectors, invisible format and control (Cc) characters. Arabic
# punctuation is untouched.
_STRIP_RANGES = (
    ("\x00", "\x1f"), ("\x7f", "\x9f"),  # control characters
    ("​", "‏"),        # zero-width and direction marks
    ("‪", "‮"),
    ("⁠", "⁤"),
    ("︀", "️"),        # variation selectors
    ("﻿", "﻿"),
    ("←", "⇿"),        # arrows
    ("☀", "➿"),        # misc symbols, dingbats
    ("⬀", "⯿"),
    ("\U0001f000", "\U0001fbff"),  # emoji and pictographs
)
_STRIP_RE = re.compile(
    "[" + "".join(re.escape(a) + "-" + re.escape(b) for a, b in _STRIP_RANGES) + "]"
)

_ARABIC_LETTER = (
    "ء-يٮ-ۓەۮۯۺ-ۿ"
    "ݐ-ݿࢠ-ࣿﭐ-﷿ﹰ-﻿"
)
_DIGIT = "0-9٠-٩۰-۹"
_LATIN = "A-Za-z"

# The three classes are disjoint and the inserted space is in none of them,
# so one pass finds every boundary between two of them.
_BOUNDARY_RE = re.compile(
    rf"(?<=[{_ARABIC_LETTER}])(?=[{_DIGIT}{_LATIN}])"
    rf"|(?<=[{_DIGIT}])(?=[{_ARABIC_LETTER}{_LATIN}])"
    rf"|(?<=[{_LATIN}])(?=[{_ARABIC_LETTER}{_DIGIT}])"
)

_DIGIT_OR_LATIN_RE = re.compile(rf"[{_DIGIT}{_LATIN}]")
_BRACKET_RE = re.compile(r"\s*([()\[\]{}])\s*")

_PLACEHOLDER_SPLIT_RE = re.compile(
    "(" + "|".join(re.escape(p) for p in PLACEHOLDERS) + ")"
)


@dataclass(frozen=True)
class NormalizedText:
    text: str
    replacements: int


def _substitute(segment: str) -> tuple:
    """Replace URL, email and mention patterns; returns (segments, count).

    The output alternates free text and placeholder tokens so later passes
    can skip the placeholders. URLs go first so their @/dot innards are not
    claimed by the email or mention patterns.
    """
    count = 0
    if "/" in segment or "." in segment:
        segment, count = URL_RE.subn(URL_PLACEHOLDER, segment)
    if "@" in segment:
        segment, n = EMAIL_RE.subn(EMAIL_PLACEHOLDER, segment)
        segment, m = MENTION_RE.subn(USER_PLACEHOLDER, segment)
        count += n + m
    return _PLACEHOLDER_SPLIT_RE.split(segment), count


def _unescape_entities(text: str) -> str:
    # &amp;amp; style double escaping unescapes to a fixed point
    for _ in range(10):
        unescaped = html.unescape(text)
        if unescaped == text:
            return text
        text = unescaped
    return text


def _strip_tags(text: str) -> str:
    # removing a tag can expose another (e.g. "<<b>a>"), so iterate
    while True:
        stripped = _HTML_TAG_RE.sub("", text)
        if stripped == text:
            return text
        text = stripped


def _eliminate(segment: str) -> str:
    while True:
        segment = _unescape_entities(segment)
        tagless = _strip_tags(segment)
        spaced = _LINEBREAK_RE.sub(" ", tagless)
        kept = _STRIP_RE.sub("", spaced)
        collapsed = _CHAR_RUN_RE.sub(r"\1\1", kept)
        # removing a tag, a character or part of a run can expose a tag or
        # an entity ("<\x1fb>", "&am<b>p;", "&llll;"); go again while one
        # may remain. Each further round is shorter, so this ends.
        removed = tagless != segment or kept != spaced or collapsed != kept
        if not removed or ("<" not in collapsed and "&" not in collapsed):
            return collapsed
        segment = collapsed


def _correct_whitespace(segment: str) -> str:
    # every boundary has a digit or a Latin letter on one side
    if _DIGIT_OR_LATIN_RE.search(segment):
        segment = _BOUNDARY_RE.sub(" ", segment)
    if any(b in segment for b in "()[]{}"):
        segment = _BRACKET_RE.sub(r" \1 ", segment)
    return segment


def normalize_tweet(text: str) -> NormalizedText:
    """Apply the full normalization pipeline to one tweet."""
    # literal placeholder tokens already in the input are protected too,
    # otherwise a second pass would space out their brackets
    replacements = 0
    segments = []
    for i, seg in enumerate(_PLACEHOLDER_SPLIT_RE.split(text)):
        if i % 2 == 1:  # odd indices are placeholder tokens
            segments.append(seg)
            continue
        parts, n = _substitute(seg)
        replacements += n
        segments.extend(parts)

    result = []
    for seg in segments:
        if seg in PLACEHOLDERS:
            result.append(seg)
            continue
        seg = _eliminate(seg)
        # elimination can expose a pattern (e.g. "htttp" collapsing to "http")
        parts, n = _substitute(seg)
        replacements += n
        for part in parts:
            if part in PLACEHOLDERS:
                result.append(part)
                continue
            corrected = _correct_whitespace(part)
            # a space the correction inserts can expose a link shortener
            # to URL_RE's \b ("0t.co/x" -> "0 t.co/x"), so substitute again
            if corrected != part and "/" in corrected:
                again, n = _substitute(corrected)
                replacements += n
                result.extend(again)
            else:
                result.append(corrected)

    return NormalizedText(" ".join("".join(result).split()), replacements)


def normalize_corpus_file(in_path, out_path) -> int:
    """Rewrite a JSON-lines corpus with normalized text.

    The original text is preserved under ``raw_text``, and a record that
    has one is normalized from it. Returns the number of records written.
    A line `corpus.read_records` refuses, or a tweet whose text normalizes
    to nothing, raises CorpusError naming its file and line, and leaves
    `out_path` as it was: the file is replaced only once every record is
    normalized.
    """
    in_path = Path(in_path)
    count = 0

    def write(dst):
        nonlocal count
        for lineno, record in read_records(in_path):
            raw = record.setdefault("raw_text", record["text"])
            record["text"] = normalize_tweet(raw).text
            if not record["text"]:
                raise CorpusError(f"{in_path.name}:{lineno}: tweet "
                                  f"{record.get('tweet_id')} normalizes to empty text")
            dst.write(json.dumps(record, ensure_ascii=False) + "\n")
            count += 1

    atomic_write(out_path, write, text=True)
    return count
