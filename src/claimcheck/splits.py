"""Cross-topic experiment splits.

For every topic a fixed holdout pool is sampled once per seed; the topic's
test set is everything outside that pool. A `Corpus` object draws its pools
once per holdout size and seed, and keeps them for every later pass.
Zero-shot training data is all other topics; few-shot training data
additionally takes a prefix of the holdout pool, so shot sweeps are nested
and every setting shares the exact same test set.

Holdout pools are tuples of tweet ids. A split's train and test sets are
int arrays of corpus positions in tweet-id order, which is also the row
order of the cell's training and test data; its shots are the positions of
the pool prefix, in pool order, sliced only by `_split`. Ids reappear only
where a split is written out (`split_to_json`, `TopicSplit.test_hash`).
"""

from __future__ import annotations

import hashlib
import json
import random
import warnings
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .corpus import CW, Corpus
from .errors import CorpusError, SplitError, is_int

__all__ = ["HoldoutTable", "TopicSplit", "make_holdouts", "zero_shot_split",
           "few_shot_split", "split_to_json"]


@dataclass(frozen=True)
class HoldoutTable:
    """Per-topic held-out id pools, fully determined by (corpus, seed), and
    the warnings their draw gave, one per topic held out whole."""

    seed: int
    k: int
    per_topic: dict  # topic_id -> tuple of tweet_ids in fixed order, read-only
    notes: tuple = ()

    def pool(self, topic_id: str) -> tuple:
        if topic_id not in self.per_topic:
            raise SplitError(f"no holdout pool for topic {topic_id!r}")
        return self.per_topic[topic_id]


@dataclass(frozen=True, eq=False)
class TopicSplit:
    """One cell's train and test positions in `corpus`, disjoint int arrays
    in tweet-id order; train holds the target's records at `shots` (the
    holdout pool prefix, in pool order) and no others."""

    target_topic_id: str
    train: np.ndarray
    test: np.ndarray
    shots: np.ndarray
    seed: int
    corpus: Corpus = field(repr=False)

    def __post_init__(self):
        in_train = np.zeros(len(self.corpus), dtype=bool)
        in_train[self.train] = True
        overlap = np.count_nonzero(in_train[self.test])
        if overlap:
            raise SplitError(
                f"train/test leakage for {self.target_topic_id}: "
                f"{overlap} shared ids"
            )
        topics, target = self.corpus.topic_ids(), self.target_topic_id
        code = topics.index(target) if target in topics else -1
        held = self.train[self.corpus.topic_codes[self.train] == code]
        if not np.array_equal(np.sort(held), np.sort(self.shots)):
            raise SplitError(f"train set of {target} holds {len(held)} of its "
                             f"records, expected its {len(self.shots)} shots")

    def train_ids(self) -> list:
        return self.corpus.tweet_ids[self.train].tolist()

    def test_ids(self) -> list:
        return self.corpus.tweet_ids[self.test].tolist()

    def shot_ids(self) -> list:
        return self.corpus.tweet_ids[self.shots].tolist()

    def test_hash(self) -> str:
        digest = hashlib.sha256("\n".join(self.test_ids()).encode("utf-8"))
        return digest.hexdigest()


def _stratified_pool(records, k: int, rng: random.Random) -> list:
    """Sample k ids, matching the records' label mix up to rounding."""
    cw_ids = sorted(r.tweet_id for r in records if r.label == CW)
    ncw_ids = sorted(r.tweet_id for r in records if r.label != CW)
    total = len(cw_ids) + len(ncw_ids)
    if k >= total:
        pool = cw_ids + ncw_ids
    else:
        n_cw = round(k * len(cw_ids) / total)
        n_cw = min(max(n_cw, k - len(ncw_ids)), len(cw_ids))
        rng.shuffle(cw_ids)
        rng.shuffle(ncw_ids)
        pool = cw_ids[:n_cw] + ncw_ids[:k - n_cw]
    # one final shuffle so pool prefixes (the shot subsets) stay mixed
    rng.shuffle(pool)
    return pool


def make_holdouts(corpus: Corpus, k: int = 200, seed: int = 0) -> HoldoutTable:
    """Sample one label-stratified holdout pool of size min(k, n) per topic.

    Sampling is keyed on (seed, topic id) and on sorted record ids, so the
    result does not depend on corpus file order. Topics smaller than k are
    held out whole, which leaves an empty test set; that is flagged with a
    warning rather than an error when the table is drawn, and kept in its
    `notes`. Each `Corpus` object draws once per (k, seed) and keeps the
    table (`Corpus.holdouts`), whose `per_topic` is read-only. A topic id
    holding a lone surrogate, which only a corpus built in Python can hold,
    cannot seed a draw: it is a CorpusError naming the topic.
    """
    if not (is_int(k) and k >= 1):
        raise SplitError(f"holdout size must be an integer >= 1, got {k!r}")
    key = (repr(k), repr(seed))  # True == 1, but they draw differently
    if key not in corpus.holdouts:
        per_topic, whole = {}, []
        for topic_id in corpus.topic_ids():
            records = corpus.records_for(topic_id)
            try:
                rng = random.Random(f"{seed}|holdout|{topic_id}")
            except UnicodeEncodeError:
                raise CorpusError(f"topic {ascii(topic_id)} holds a lone "
                                  "surrogate") from None
            pool = _stratified_pool(records, k, rng)
            if len(pool) >= len(records):
                whole.append(f"topic {topic_id}: holdout of {k} covers all "
                             f"{len(records)} records, test set is empty")
            per_topic[topic_id] = tuple(pool)
        corpus.holdouts[key] = HoldoutTable(
            seed=seed, k=k, per_topic=MappingProxyType(per_topic),
            notes=tuple(whole))
        for message in whole:
            warnings.warn(message, stacklevel=2)
    return corpus.holdouts[key]


def _split(corpus: Corpus, holdouts: HoldoutTable, target: str,
           shots: int) -> TopicSplit:
    """Every other topic plus the first `shots` pool records of the target
    to train on; the target outside its pool to test on."""
    topics = corpus.topic_ids()
    if target not in topics:
        raise SplitError(f"unknown target topic: {target!r}")
    if not (is_int(shots) and shots >= 0):
        raise SplitError(f"shots must be an integer >= 0, got {shots!r}")
    pool = holdouts.pool(target)
    if shots > len(pool):
        raise SplitError(
            f"requested {shots} shots but the {target} holdout pool "
            f"has only {len(pool)} records"
        )
    pool = corpus.positions(pool)
    test = corpus.topic_codes == topics.index(target)
    train = ~test
    train[pool[:shots]] = True
    test[pool] = False
    order = corpus.id_order
    return TopicSplit(target_topic_id=target, train=order[train[order]],
                      test=order[test[order]], shots=pool[:shots],
                      seed=holdouts.seed, corpus=corpus)


def zero_shot_split(corpus: Corpus, holdouts: HoldoutTable, target: str) -> TopicSplit:
    """Train on every other topic; the target contributes test data only."""
    return _split(corpus, holdouts, target, 0)


def few_shot_split(corpus: Corpus, holdouts: HoldoutTable, target: str,
                   shots: int) -> TopicSplit:
    """Zero-shot training data plus the first `shots` ids of the target pool.

    The test set is identical to the zero-shot test set for the same corpus
    and seed.
    """
    return _split(corpus, holdouts, target, shots)


def split_to_json(split: TopicSplit) -> str:
    """Serialize one split; train and test ids are sorted, shot ids are in
    pool order."""
    return json.dumps({
        "target": split.target_topic_id,
        "seed": split.seed,
        "shots": len(split.shots),
        "train_ids": split.train_ids(),
        "test_ids": split.test_ids(),
        "test_hash": split.test_hash(),
        "stratified_holdout": True,
        "shot_ids": split.shot_ids(),
    }, ensure_ascii=False, indent=2)
