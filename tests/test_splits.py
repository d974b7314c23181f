"""Experiment protocol: holdout pools, zero-/few-shot splits, leakage
freedom, frozen test sets, and nested shot prefixes."""

import hashlib
import json
import random
import re
import warnings

import numpy as np
import pytest
from synth import tiny_corpus

from claimcheck.corpus import CW, Corpus, TweetRecord
from claimcheck import splits
from claimcheck.errors import SplitError
from claimcheck.splits import (
    HoldoutTable,
    TopicSplit,
    few_shot_split,
    make_holdouts,
    split_to_json,
    zero_shot_split,
)


@pytest.fixture(scope="module")
def corpus():
    return tiny_corpus(seed=21, per_topic=120)


@pytest.fixture(scope="module")
def holdouts(corpus):
    return make_holdouts(corpus, k=40, seed=5)


def test_holdout_pools_have_requested_size(corpus, holdouts):
    for topic in corpus.topic_ids():
        pool = holdouts.pool(topic)
        assert len(pool) == 40
        assert len(set(pool)) == 40
        topic_ids = {r.tweet_id for r in corpus.records_for(topic)}
        assert set(pool) <= topic_ids


def test_holdouts_deterministic(corpus):
    a = make_holdouts(corpus, k=40, seed=5)
    b = make_holdouts(corpus, k=40, seed=5)
    assert a.per_topic == b.per_topic
    c = make_holdouts(corpus, k=40, seed=6)
    assert any(a.pool(t) != c.pool(t) for t in corpus.topic_ids())


def test_holdout_stratification(corpus, holdouts):
    for topic in corpus.topic_ids():
        records = corpus.records_for(topic)
        topic_cw = sum(1 for r in records if r.label == CW)
        expected = round(40 * topic_cw / len(records))
        labels = {r.tweet_id: r.label for r in records}
        pool_cw = sum(1 for i in holdouts.pool(topic) if labels[i] == CW)
        assert abs(pool_cw - expected) <= 1


def test_holdout_pool_covering_whole_topic_warns():
    records = [TweetRecord(f"t{i}", "T", f"text {i}",
                           CW if i % 2 else "NCW", "synthetic")
               for i in range(10)]
    corpus = Corpus(records)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = make_holdouts(corpus, k=50, seed=1)
    assert len(table.pool("T")) == 10
    assert any("T" in str(w.message) for w in caught)


def test_holdout_k_must_be_positive(corpus):
    with pytest.raises(SplitError):
        make_holdouts(corpus, k=0, seed=1)


def _counting_pools(monkeypatch) -> list:
    calls = []
    draw = splits._stratified_pool

    def counted(records, k, rng):
        calls.append(k)
        return draw(records, k, rng)

    monkeypatch.setattr(splits, "_stratified_pool", counted)
    return calls


def test_holdouts_are_drawn_once_per_corpus_k_and_seed(monkeypatch):
    records = tiny_corpus(seed=21, per_topic=60).records
    corpus = Corpus(records)
    calls = _counting_pools(monkeypatch)
    table = make_holdouts(corpus, k=20, seed=5)
    topics = len(corpus.topic_ids())
    assert len(calls) == topics
    assert make_holdouts(corpus, k=20, seed=5) is table
    assert len(calls) == topics
    for k, seed in ((20, 6), (21, 5), (20, True), (20, 1)):
        again = make_holdouts(corpus, k=k, seed=seed)
        assert (again.k, again.seed) == (k, seed)
    assert len(calls) == 5 * topics
    equal = make_holdouts(Corpus(records), k=20, seed=5)
    assert len(calls) == 6 * topics
    assert equal is not table and equal == table
    with pytest.raises(SplitError):
        make_holdouts(corpus, k=0, seed=5)
    assert len(calls) == 6 * topics


def test_a_kept_holdout_table_cannot_be_changed():
    corpus = Corpus(tiny_corpus(seed=21, per_topic=60).records)
    table = make_holdouts(corpus, k=20, seed=5)
    with pytest.raises(TypeError):
        table.per_topic["S-A"] = ()
    with pytest.raises(TypeError):
        del table.per_topic["S-A"]
    assert len(make_holdouts(corpus, k=20, seed=5).pool("S-A")) == 20


def test_a_whole_topic_holdout_warns_once_when_drawn(monkeypatch):
    corpus = Corpus([TweetRecord(f"t{i}", "T", f"text {i}",
                                 CW if i % 2 else "NCW", "synthetic")
                     for i in range(10)])
    calls = _counting_pools(monkeypatch)
    message = "topic T: holdout of 50 covers all 10 records, test set is empty"
    for expected in ([message], []):  # the draw, then the kept table
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table = make_holdouts(corpus, k=50, seed=1)
        assert [str(w.message) for w in caught] == expected
        assert all(w.filename == __file__ for w in caught)
        assert table.notes == (message,)
    assert calls == [50]
    assert make_holdouts(corpus, k=5, seed=1).notes == ()


def test_zero_shot_excludes_target_entirely(corpus, holdouts):
    for target in corpus.topic_ids():
        split = zero_shot_split(corpus, holdouts, target)
        train_topics = {corpus.records[i].topic_id for i in split.train}
        assert target not in train_topics
        assert len(split.shots) == 0
        other = {r.tweet_id for r in corpus.records
                 if r.topic_id != target}
        assert split.train_ids() == sorted(other)


def test_zero_shot_unknown_target(corpus, holdouts):
    with pytest.raises(SplitError):
        zero_shot_split(corpus, holdouts, "NOPE")


def test_test_sets_partition_the_unpooled_corpus(corpus, holdouts):
    union = set()
    for target in corpus.topic_ids():
        test = set(zero_shot_split(corpus, holdouts, target).test_ids())
        assert not union & test
        union |= test
    pooled = {i for t in corpus.topic_ids() for i in holdouts.pool(t)}
    everything = {r.tweet_id for r in corpus.records}
    assert union == everything - pooled


def test_few_shot_adds_exactly_the_pool_prefix(corpus, holdouts):
    target = corpus.topic_ids()[0]
    zero = zero_shot_split(corpus, holdouts, target)
    few = few_shot_split(corpus, holdouts, target, shots=15)
    gained = set(few.train_ids()) - set(zero.train_ids())
    assert gained == set(holdouts.pool(target)[:15])
    assert few.shot_ids() == list(holdouts.pool(target)[:15])


def test_few_shot_test_set_identical_to_zero_shot(corpus, holdouts):
    for target in corpus.topic_ids():
        zero = zero_shot_split(corpus, holdouts, target)
        for shots in (1, 10, 40):
            few = few_shot_split(corpus, holdouts, target, shots)
            assert np.array_equal(few.test, zero.test)
            assert few.test_hash() == zero.test_hash()


def test_few_shot_nesting(corpus, holdouts):
    target = corpus.topic_ids()[1]
    trains = [set(few_shot_split(corpus, holdouts, target, s).train)
              for s in (5, 10, 20, 40)]
    for smaller, larger in zip(trains, trains[1:]):
        assert smaller < larger


def test_few_shot_zero_equals_zero_shot(corpus, holdouts):
    target = corpus.topic_ids()[2]
    few = few_shot_split(corpus, holdouts, target, 0)
    zero = zero_shot_split(corpus, holdouts, target)
    assert (few.target_topic_id, few.seed) == \
        (zero.target_topic_id, zero.seed)
    assert len(few.shots) == len(zero.shots) == 0
    assert np.array_equal(few.train, zero.train)
    assert np.array_equal(few.test, zero.test)


def test_few_shot_rejects_oversized_shots(corpus, holdouts):
    target = corpus.topic_ids()[0]
    with pytest.raises(SplitError):
        few_shot_split(corpus, holdouts, target, 41)
    with pytest.raises(SplitError):
        few_shot_split(corpus, holdouts, target, -1)


@pytest.mark.parametrize("value", [2.5, "3", True, None])
def test_a_holdout_size_or_shot_count_that_is_no_integer_is_named(
        corpus, holdouts, value):
    """A split error naming the value, not what comparing or slicing with
    it would raise; a bool is not a count."""
    named = re.escape(f"got {value!r}")
    with pytest.raises(SplitError, match=f"holdout size .*{named}"):
        make_holdouts(corpus, k=value, seed=1)
    with pytest.raises(SplitError, match=f"shots .*{named}"):
        few_shot_split(corpus, holdouts, corpus.topic_ids()[0], value)


def test_no_leakage_anywhere(corpus, holdouts):
    for target in corpus.topic_ids():
        for shots in (0, 7, 40):
            split = (zero_shot_split(corpus, holdouts, target) if shots == 0
                     else few_shot_split(corpus, holdouts, target, shots))
            assert not set(split.train) & set(split.test)


def test_topic_split_rejects_leaky_construction(corpus):
    with pytest.raises(SplitError):
        TopicSplit(target_topic_id="T", train=np.array([0, 3]),
                   test=np.array([3, 5]), shots=np.array([], dtype=int),
                   seed=0,
                   corpus=corpus)


def test_topic_split_checks_its_own_target_count(corpus, holdouts):
    """The train positions hold the target's records at `shots` and no
    others, whoever builds the split: no shot that train lacks, and as many
    target records as shots."""
    target = corpus.topic_ids()[0]
    zero = zero_shot_split(corpus, holdouts, target)
    few = few_shot_split(corpus, holdouts, target, 10)
    pool = corpus.positions(holdouts.pool(target))
    other = np.setdiff1d(few.train, pool)[:1]  # a record of another topic
    for split, shots, held in ((zero, pool[:10], 0), (few, pool[:0], 10),
                               (few, pool[:9], 10), (few, pool[:11], 10),
                               (few, pool[1:11], 10),
                               (few, np.concatenate([pool[:9], other]), 10)):
        with pytest.raises(SplitError, match=f"holds {held} of its records, "
                                             f"expected its {len(shots)} "):
            TopicSplit(target_topic_id=target, train=split.train,
                       test=split.test, shots=shots, seed=5, corpus=corpus)
    assert few.shot_ids() == list(holdouts.pool(target)[:10])


def test_split_json_shape(corpus, holdouts):
    target = corpus.topic_ids()[0]
    split = few_shot_split(corpus, holdouts, target, 10)
    data = json.loads(split_to_json(split))
    assert data["target"] == target
    assert data["shots"] == 10
    assert set(data["shot_ids"]) == set(holdouts.pool(target)[:10])
    assert data["train_ids"] == sorted(
        corpus.records[i].tweet_id for i in split.train)
    assert data["test_ids"] == sorted(
        corpus.records[i].tweet_id for i in split.test)
    assert data["test_hash"] == split.test_hash()


def test_split_json_lists_its_own_shot_ids_in_pool_order(corpus, holdouts):
    """The split alone gives its shot ids: the pool prefix, in pool order."""
    target = corpus.topic_ids()[1]
    data = json.loads(split_to_json(few_shot_split(corpus, holdouts, target,
                                                   20)))
    assert data["shots"] == 20
    assert data["shot_ids"] == list(holdouts.pool(target)[:20])
    assert set(data["shot_ids"]) <= set(data["train_ids"])


# sha256 of split_to_json on tiny_corpus(seed=21, per_topic=120) with
# make_holdouts(k=40, seed=5), as written when splits still held id sets
GOLDEN_SPLIT_JSON = {
    ("S-A", 0): "7c11daa3fb0b77f04b116521d63dfff46a78d924b86687ac5bd7028f9b5a212a",
    ("S-A", 10): "e0657094d933c986bdc85eba659144b66fbdae52978d9b1fbd88da897c8f436e",
    ("S-B", 0): "210ccf8085706434ed0f21dbd1a5573078814009d268ee4a99a1e7f75d4ef937",
    ("S-B", 10): "38d25100f9fe56ff615fa173a1190c1e740b2d067d257aea75dec30b01efadf5",
    ("S-C", 0): "8e0c4f3e796efbc87f45c3ce6bd860878590192dcadb1f6b39e79bb88ef94e60",
    ("S-C", 10): "3889cb706a82743829b30d4646255d301476f75978ebcc3abba4e632f319031a",
}


@pytest.mark.parametrize("order", ["file", "shuffled"])
def test_split_json_bytes_are_golden(corpus, order):
    """Positions map back to the exact ids, order and hash of the id-set
    splits, whatever order the corpus holds its records in."""
    if order == "shuffled":
        records = list(corpus.records)
        random.Random(9).shuffle(records)
        corpus = Corpus(records)
    holdouts = make_holdouts(corpus, k=40, seed=5)
    for (target, shots), digest in GOLDEN_SPLIT_JSON.items():
        split = (few_shot_split(corpus, holdouts, target, shots) if shots
                 else zero_shot_split(corpus, holdouts, target))
        text = split_to_json(split)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_split_positions_are_in_tweet_id_order():
    records = list(tiny_corpus(seed=2, per_topic=30).records)
    records.reverse()
    corpus = Corpus(records)
    holdouts = make_holdouts(corpus, k=10, seed=1)
    split = few_shot_split(corpus, holdouts, "S-B", 4)
    for rows in (split.train, split.test):
        ids = [corpus.records[i].tweet_id for i in rows]
        assert ids == sorted(ids)
    assert split.train_ids() == sorted(
        [r.tweet_id for r in corpus.records if r.topic_id != "S-B"]
        + list(holdouts.pool("S-B")[:4]))

