"""Deterministic raw corpus for the benchmark.

Writes one ``ct20`` TSV and one ``ct21`` TSV in the shared-task layouts and
returns, for every tweet id that survives ingestion, the canonical topic, the
label and the text that normalization must produce. Everything is drawn from
``random.Random(seed)``, so the same seed writes the same bytes.

Corpus make-up:

- 14 canonical topics of fixed sizes (10,790 tweets); the COVID topic is
  written under its four source topic ids and must be merged back;
- 12 to 35 words per tweet, drawn from a 40,000-word Arabic-script vocabulary
  with weight 1/rank (Arabic words are kept whole by normalization, where a
  Latin-plus-digit word would be split in two);
- P(CW) = 0.25, and every CW tweet carries one of 31 cue words;
- raw-text noise whose normalized form is known in advance (see ``NOISE``);
- the ``ct21`` file repeats ``DUPLICATES`` of the ``ct20`` ids, which
  ingestion must drop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

TOPIC_SIZES = {
    "CT20-AR-01": 500, "CT20-AR-02": 520, "CT20-AR-05": 600,
    "CT20-AR-08": 700, "CT20-AR-10": 650, "CT20-AR-12": 800,
    "CT20-AR-14": 900, "CT20-AR-19": 550, "CT20-AR-23": 620,
    "CT20-AR-27": 700, "CT20-AR-30": 750, "COVID-19": 1400,
    "CT21-AR-01": 1000, "CT21-AR-02": 1100,
}
TOTAL_TWEETS = sum(TOPIC_SIZES.values())
# The COVID topic arrives split over its four CT20 source ids.
COVID_PARTS = {"CT20-AR-03": 400, "CT20-AR-28_w1": 300,
               "CT20-AR-28_w2": 380, "CT20-AR-29": 320}
VOCAB_SIZE = 40_000
N_CUES = 31
P_CW = 0.25
MIN_WORDS, MAX_WORDS = 12, 35
DUPLICATES = 150
P_NOISE = 0.6  # chance that a tweet carries at least one noise item

# Arabic letters U+0621..U+063A and U+0641..U+064A (tatweel left out).
_LETTERS = [chr(c) for c in range(0x0621, 0x063B)] + \
    [chr(c) for c in range(0x0641, 0x064B)]
_ALNUM = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
_EMOJI = ["\U0001F600", "\U0001F525", "\U0001F44D", "❤️", "✅"]
_ENTITIES = {"&amp;": "&", "&quot;": '"', "&amp;amp;": "&"}


@dataclass(frozen=True)
class Tweet:
    tweet_id: str
    source_topic: str
    topic: str
    label: str  # "CW" | "NCW"
    raw: str
    expected: str


def _words(rng: random.Random, n: int) -> list:
    """n distinct Arabic-script words, none with two equal adjacent letters,
    so an elongated letter is the only run normalization can collapse."""
    out, seen = [], set()
    while len(out) < n:
        letters = rng.choices(_LETTERS, k=rng.randint(3, 8))
        if any(a == b for a, b in zip(letters, letters[1:])):
            continue
        word = "".join(letters)
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


# Each noise item turns the word list (raw, expected) in place. All of them
# exercise a different normalization rule, and the expected side is written
# down from the rule's documented result, not computed by the program.
def _url(rng, raw, expected):
    pos = rng.randint(0, len(raw))
    tail = "".join(rng.choice(_ALNUM) for _ in range(10))
    host = rng.choice(["https://t.co/", "http://bit.ly/", "https://example.com/a/"])
    raw.insert(pos, host + tail)
    expected.insert(pos, "[url]")


def _mention(rng, raw, expected):
    pos = rng.randint(0, len(raw))
    raw.insert(pos, "@" + rng.choice("abcdefgh") + "".join(
        rng.choice(_ALNUM + "_") for _ in range(7)))
    expected.insert(pos, "[user]")


def _emoji(rng, raw, expected):
    # either a word of its own or glued to the end of a word; both vanish
    i = rng.randrange(len(raw))
    if rng.random() < 0.5:
        raw.insert(i, rng.choice(_EMOJI))
        expected.insert(i, None)
    else:
        raw[i] = raw[i] + rng.choice(_EMOJI)


def _entity(rng, raw, expected):
    pos = rng.randint(0, len(raw))
    entity = rng.choice(sorted(_ENTITIES))
    raw.insert(pos, entity)
    expected.insert(pos, _ENTITIES[entity])


def _tag(rng, raw, expected):
    pos = rng.randint(0, len(raw))
    raw.insert(pos, rng.choice(["<br>", "<b>", "</p>", "&lt;br&gt;"]))
    expected.insert(pos, None)


def _elongate(rng, raw, expected):
    # only plain vocabulary words (no URL, glued emoji, ...) are stretched
    plain = [i for i, w in enumerate(raw)
             if expected[i] == w and w[0] in _LETTERS and w[-1] in _LETTERS]
    if not plain:
        return
    i = rng.choice(plain)
    word = raw[i]
    j = rng.randrange(len(word))
    raw[i] = word[:j] + word[j] * rng.randint(3, 6) + word[j + 1:]
    expected[i] = word[:j] + word[j] * 2 + word[j + 1:]


NOISE = (_url, _mention, _emoji, _entity, _tag, _elongate)


def make_tweets(seed: int) -> tuple:
    """All tweets plus the ct20 ids the ct21 file repeats."""
    rng = random.Random(seed)
    vocab = _words(rng, VOCAB_SIZE + N_CUES)
    vocab, cues = vocab[:VOCAB_SIZE], vocab[VOCAB_SIZE:]
    cum = list(accumulate(1.0 / r for r in range(1, VOCAB_SIZE + 1)))
    ids = rng.sample(range(10 ** 17, 10 ** 18), TOTAL_TWEETS)

    sources = []  # (source topic id, canonical topic id)
    for topic, size in TOPIC_SIZES.items():
        if topic == "COVID-19":
            for src, part in COVID_PARTS.items():
                sources += [(src, topic)] * part
        else:
            sources += [(topic, topic)] * size

    tweets = []
    for tweet_id, (src, topic) in zip(ids, sources):
        label = "CW" if rng.random() < P_CW else "NCW"
        n = rng.randint(MIN_WORDS, MAX_WORDS)
        words = rng.choices(vocab, cum_weights=cum, k=n)
        if label == "CW":
            words[rng.randrange(n)] = rng.choice(cues)
        raw, expected = list(words), list(words)
        if rng.random() < P_NOISE:
            for noise in rng.sample(NOISE, rng.randint(1, 3)):
                noise(rng, raw, expected)
        tweets.append(Tweet(str(tweet_id), src, topic, label, " ".join(raw),
                            " ".join(w for w in expected if w is not None)))
    ct20 = [t for t in tweets if not t.source_topic.startswith("CT21")]
    repeated = rng.sample(ct20, DUPLICATES)
    return tweets, repeated


def write_raw(seed: int, out_dir) -> dict:
    """Write ``ct20.tsv`` and ``ct21.tsv`` under out_dir.

    Returns the paths and, per surviving tweet id, the generated ``Tweet``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tweets, repeated = make_tweets(seed)
    rng = random.Random(f"{seed}|claims")
    ct20 = ["topic_id\ttweet_id\ttweet_url\ttweet_text\tcheck_worthiness"]
    ct21 = ["topic_id\ttweet_id\ttweet_url\ttweet_text\tclaim\tcheck_worthiness"]
    for t in tweets:
        url = f"https://twitter.com/i/status/{t.tweet_id}"
        label = "1" if t.label == "CW" else "0"
        if t.source_topic.startswith("CT21"):
            ct21.append(f"{t.source_topic}\t{t.tweet_id}\t{url}\t{t.raw}\t"
                        f"{rng.randint(0, 1)}\t{label}")
        else:
            ct20.append(f"{t.source_topic}\t{t.tweet_id}\t{url}\t{t.raw}\t{label}")
    for t in repeated:
        label = "1" if t.label == "CW" else "0"
        ct21.append(f"{t.source_topic}\t{t.tweet_id}\t-\t{t.raw}\t1\t{label}")
    paths = {"ct20": out_dir / "ct20.tsv", "ct21": out_dir / "ct21.tsv"}
    paths["ct20"].write_text("\n".join(ct20) + "\n", encoding="utf-8")
    paths["ct21"].write_text("\n".join(ct21) + "\n", encoding="utf-8")
    return {"paths": paths, "tweets": {t.tweet_id: t for t in tweets}}
