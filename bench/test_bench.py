"""Tests of the benchmark's own parts: generator, oracle, and the
serial/parallel equivalence the benchmark relies on.

    python3 -m pytest bench/test_bench.py -q
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corpusgen  # noqa: E402
import oracle  # noqa: E402
from claimcheck.corpus import Corpus, TweetRecord  # noqa: E402
from claimcheck.preprocess import normalize_tweet  # noqa: E402
from claimcheck.providers import make_providers  # noqa: E402
from claimcheck.runner import ExperimentConfig, run_suite  # noqa: E402


def test_generator_is_deterministic_per_seed(tmp_path):
    a = corpusgen.write_raw(5, tmp_path / "a")["paths"]
    b = corpusgen.write_raw(5, tmp_path / "b")["paths"]
    c = corpusgen.write_raw(6, tmp_path / "c")["paths"]
    for name in ("ct20", "ct21"):
        assert a[name].read_bytes() == b[name].read_bytes()
        assert a[name].read_bytes() != c[name].read_bytes()


def test_generator_shape():
    tweets, repeated = corpusgen.make_tweets(3)
    assert len(tweets) == corpusgen.TOTAL_TWEETS == 10_790
    assert len({t.tweet_id for t in tweets}) == len(tweets)
    assert len(repeated) == corpusgen.DUPLICATES
    assert all(not t.source_topic.startswith("CT21") for t in repeated)
    sources = {t.source_topic for t in tweets if t.topic == "COVID-19"}
    assert sources == set(corpusgen.COVID_PARTS)


@pytest.mark.parametrize("noise", corpusgen.NOISE, ids=lambda f: f.__name__)
def test_expected_text_holds_for_each_noise_pattern(noise):
    rng = random.Random(noise.__name__)
    vocab = corpusgen._words(rng, 200)
    changed = 0
    for _ in range(300):
        words = rng.sample(vocab, rng.randint(corpusgen.MIN_WORDS, 20))
        raw, expected = list(words), list(words)
        noise(rng, raw, expected)
        raw_text = " ".join(raw)
        changed += raw_text != " ".join(words)
        want = " ".join(w for w in expected if w is not None)
        assert normalize_tweet(raw_text).text == want, raw_text
    assert changed == 300


def test_expected_text_holds_on_a_generated_corpus():
    tweets, _ = corpusgen.make_tweets(4)
    noisy = [t for t in tweets if t.raw != t.expected]
    assert len(noisy) > len(tweets) // 3
    for t in tweets[:3000]:
        assert normalize_tweet(t.raw).text == t.expected, t.raw


def test_oracle_ap_hand_worked():
    # CW at ranks 1 and 3: (1/1 + 2/3) / 2
    assert oracle.exact_ap(["CW", "NCW", "CW"], "CW") == Fraction(5, 6)
    # single positive at rank 2
    assert oracle.exact_ap(["NCW", "CW"], "CW") == Fraction(1, 2)
    # positives at ranks 2, 3, 5: (1/2 + 2/3 + 3/5) / 3
    assert oracle.exact_ap(["N", "CW", "CW", "N", "CW"], "CW") == Fraction(53, 90)
    assert oracle.exact_ap(["NCW", "NCW"], "CW") == 0


def test_oracle_cell_hand_worked():
    # CW order (score desc, id asc on ties): a, b, c, d -> CW at 1 and 3.
    # NCW order (score asc, id asc on ties): d, c, a, b -> NCW at 1 and 4.
    scores = {"a": 0.9, "b": 0.9, "c": 0.5, "d": 0.1}
    labels = {"a": "CW", "b": "NCW", "c": "CW", "d": "NCW"}
    cell = oracle.exact_cell(scores, labels)
    assert cell["ap_cw"] == Fraction(5, 6)
    assert cell["ap_ncw"] == (Fraction(1, 1) + Fraction(2, 4)) / 2
    assert cell["map"] == Fraction(19, 24)
    # a, b, c predicted CW (c sits on the threshold): tp 2, fp 1, fn 0
    assert (cell["precision"], cell["recall"]) == (Fraction(2, 3), 1)
    assert cell["f1"] == Fraction(4, 5)


def test_oracle_rounding_rules():
    assert oracle.printed_matches("0.6667", Fraction(2, 3), 4)
    assert not oracle.printed_matches("0.6666", Fraction(2, 3), 4)
    assert oracle.half_away_candidates(Fraction(5, 2)) == {2, 3}
    assert oracle.half_away_candidates(Fraction(-7, 3)) == {-2}
    assert oracle.half_away_candidates(Fraction(-27, 10)) == {-3}
    with pytest.raises(oracle.CheckFailed):
        oracle.check(False, "boom")


def _small_corpus(seed, per_topic=230):
    tweets, _ = corpusgen.make_tweets(seed)
    records, taken = [], {}
    for t in tweets:
        if taken.get(t.topic, 0) < per_topic:
            taken[t.topic] = taken.get(t.topic, 0) + 1
            records.append(TweetRecord(t.tweet_id, t.topic, t.expected,
                                       t.label, "CT20"))
    return Corpus(records)


def test_run_suite_serial_and_parallel_cells_are_identical(tmp_path):
    corpus = _small_corpus(7)
    outputs = []
    for workers in (1, 2):
        config = ExperimentConfig(setting="few_shot", shots=200,
                                  max_workers=workers,
                                  hyperparams={"iterations": 40})
        out = tmp_path / f"w{workers}"
        record = run_suite("table3", corpus, config,
                           providers=make_providers("mock"), out_dir=out)
        assert not record.failures
        outputs.append((out / "cells.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert len(oracle.read_cells(outputs[0])) == 14 * 4
