"""Scorer backends, ranking, and decision-rule tests."""

import random
import threading
import time

import numpy as np
import pytest

from claimcheck import model
from claimcheck.corpus import CW, NCW, TweetRecord
from claimcheck.errors import ModelError, ProviderError
from claimcheck.model import (
    BASELINE_DEFAULTS,
    ENCODER_DEFAULTS,
    BaselineScorer,
    CorpusFeatures,
    EncoderScorer,
    ScoredRanking,
    ScorerConfig,
    classify,
    model_cache_key,
    rank_records,
    train_scorer,
)
from claimcheck.providers import MockEncoderProvider, ProviderBundle


def _rec(i, text, label, topic="T-A"):
    return TweetRecord(tweet_id=f"t{i:03d}", topic_id=topic, text=text,
                       label=label, source="CT20")


def planted_records(n=60, seed=5):
    """CW texts always carry the token X; NCW texts never do."""
    rng = random.Random(seed)
    vocab = [f"w{j}" for j in range(30)]
    records = []
    for i in range(n):
        tokens = rng.sample(vocab, 6)
        label = CW if i % 3 == 0 else NCW
        if label == CW:
            tokens[rng.randrange(6)] = "X"
        records.append(_rec(i, " ".join(tokens), label))
    return records


# ---------------------------------------------------------------------------
# configuration


def test_config_rejects_unknown_backend():
    with pytest.raises(ModelError):
        ScorerConfig(backend="transformer")


def test_config_resolves_baseline_defaults():
    cfg = ScorerConfig(backend="baseline")
    assert cfg.resolved_hyperparams() == BASELINE_DEFAULTS


def test_config_resolves_encoder_defaults():
    cfg = ScorerConfig(backend="encoder")
    resolved = cfg.resolved_hyperparams()
    assert resolved == {"epochs": 3, "batch_size": 32, "max_seq_len": 128}
    assert resolved == ENCODER_DEFAULTS


def test_config_overrides_merge_with_defaults():
    cfg = ScorerConfig(backend="baseline", hyperparams={"iterations": 10})
    resolved = cfg.resolved_hyperparams()
    assert resolved["iterations"] == 10
    assert resolved["learning_rate"] == BASELINE_DEFAULTS["learning_rate"]
    assert resolved["l2"] == BASELINE_DEFAULTS["l2"]


# ---------------------------------------------------------------------------
# baseline scorer


def test_baseline_training_is_deterministic():
    records = planted_records()
    texts = [r.text for r in records]
    labels = [r.label for r in records]
    cfg = ScorerConfig(backend="baseline")
    a = BaselineScorer(cfg).fit(texts, labels)
    b = BaselineScorer(cfg).fit(texts, labels)
    probes = ["X w1 w2", "w3 w4 w5", "unseen tokens only"]
    assert a.score_many(probes) == b.score_many(probes)


def test_baseline_learns_planted_token():
    records = planted_records()
    scorer = train_scorer(records, ScorerConfig(backend="baseline"))
    assert scorer.score("X X X") > scorer.score("w1 w2 w3")


def test_baseline_scores_stay_probabilities():
    records = planted_records()
    scorer = train_scorer(records, ScorerConfig(backend="baseline"))
    for text in ["X X X X X X X X", "w1", "", "zz yy"]:
        s = scorer.score(text)
        assert 0.0 <= s <= 1.0


def test_baseline_order_independent_within_tolerance():
    records = planted_records(n=80)
    shuffled = list(records)
    random.Random(9).shuffle(shuffled)
    cfg = ScorerConfig(backend="baseline")
    a = train_scorer(records, cfg)
    b = train_scorer(shuffled, cfg)
    for probe in ["X w1 w2", "w3 w4 w5 w6", "X"]:
        assert a.score(probe) == pytest.approx(b.score(probe), abs=1e-6)


def test_baseline_rejects_single_class():
    texts = ["a b", "c d", "e f"]
    with pytest.raises(ModelError):
        BaselineScorer(ScorerConfig(backend="baseline")).fit(texts, [CW] * 3)


def test_baseline_rejects_length_mismatch():
    with pytest.raises(ModelError):
        BaselineScorer(ScorerConfig(backend="baseline")).fit(["a", "b"], [CW])


def test_train_scorer_rejects_empty_input():
    with pytest.raises(ModelError):
        train_scorer([], ScorerConfig(backend="baseline"))


def test_untrained_scorer_refuses_to_score():
    scorer = BaselineScorer(ScorerConfig(backend="baseline"))
    with pytest.raises(ModelError):
        scorer.score("anything")


def test_baseline_save_load_round_trip(tmp_path):
    records = planted_records()
    cfg = ScorerConfig(backend="baseline", hyperparams={"iterations": 50}, seed=4)
    scorer = train_scorer(records, cfg)
    path = tmp_path / "model.npz"
    scorer.save(path)
    loaded = BaselineScorer.load(path)
    probes = ["X w0 w1", "w2 w3", "unknown words"]
    assert loaded.score_many(probes) == scorer.score_many(probes)
    assert loaded.config.hyperparams == {"iterations": 50}
    assert loaded.config.seed == 4


def test_train_scorer_caches_baseline_models(tmp_path):
    records = planted_records()
    cfg = ScorerConfig(backend="baseline")
    first = train_scorer(records, cfg, cache_dir=tmp_path)
    cached = list(tmp_path.glob("*.npz"))
    assert len(cached) == 1
    second = train_scorer(records, cfg, cache_dir=tmp_path)
    assert list(tmp_path.glob("*.npz")) == cached
    probes = ["X w1", "w2 w3"]
    assert second.score_many(probes) == first.score_many(probes)


def test_model_cache_distinguishes_configs(tmp_path):
    records = planted_records()
    train_scorer(records, ScorerConfig(backend="baseline"), cache_dir=tmp_path)
    train_scorer(records, ScorerConfig(backend="baseline", seed=1),
                 cache_dir=tmp_path)
    assert len(list(tmp_path.glob("*.npz"))) == 2


def test_concurrent_cells_can_cache_the_same_model(tmp_path, monkeypatch):
    """Two cells with identical training data write one cache key at once."""
    save = BaselineScorer.save
    both_saving = threading.Barrier(2)

    def slow_save(self, path):
        both_saving.wait(timeout=10)
        save(self, path)
        time.sleep(0.2)  # hold the written temp file open to the other writer

    monkeypatch.setattr(BaselineScorer, "save", slow_save)
    records = planted_records()
    cfg = ScorerConfig(backend="baseline", hyperparams={"iterations": 20})
    errors = []

    def train():
        try:
            train_scorer(records, cfg, cache_dir=tmp_path)
        except Exception as exc:  # surfaced below; a thread would swallow it
            errors.append(exc)

    threads = [threading.Thread(target=train) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert [p.suffix for p in tmp_path.iterdir()] == [".npz"]
    loaded = BaselineScorer.load(next(tmp_path.iterdir()))
    fresh = BaselineScorer(cfg).fit([r.text for r in records],
                                    [r.label for r in records])
    assert loaded.score_many(["X w1", "w2"]) == fresh.score_many(["X w1", "w2"])


def test_second_train_scorer_call_is_a_cache_hit(tmp_path, monkeypatch):
    records = planted_records()
    cfg = ScorerConfig(backend="baseline", hyperparams={"iterations": 20})
    first = train_scorer(records, cfg, cache_dir=tmp_path)

    def no_fit(self, *args):
        raise AssertionError("a cached model was retrained")

    monkeypatch.setattr(BaselineScorer, "fit_matrix", no_fit)
    second = train_scorer(records, cfg, cache_dir=tmp_path,
                          features=lambda: CorpusFeatures(records))
    assert second.vocab == first.vocab
    assert np.array_equal(second.weights, first.weights)


def test_model_cache_key_frames_each_text_and_label():
    cfg = ScorerConfig(backend="baseline")
    assert (model_cache_key(cfg, ["ab"], ["c"])
            != model_cache_key(cfg, ["a"], ["bc"]))
    assert (model_cache_key(cfg, ["a b", "c"], [CW, NCW])
            != model_cache_key(cfg, ["a", "b c"], [CW, NCW]))


def test_model_cache_key_carries_the_trainer_version(monkeypatch):
    cfg = ScorerConfig(backend="baseline")
    before = model_cache_key(cfg, ["a b"], [CW])
    monkeypatch.setattr(model, "TRAINER_VERSION", model.TRAINER_VERSION + 1)
    assert model_cache_key(cfg, ["a b"], [CW]) != before


# ---------------------------------------------------------------------------
# corpus matrix


def _corpus_records():
    """Corpus records with repeated tokens, shared and unshared vocabulary."""
    rng = random.Random(11)
    vocab = [f"w{j}" for j in range(40)]
    records = []
    for i in range(80):
        tokens = rng.choices(vocab, k=rng.randint(3, 12))
        label = CW if i % 4 == 0 else NCW
        if label == CW:
            tokens.append("cue")
        records.append(_rec(i, " ".join(tokens), label))
    # a corpus token that no training row below uses, but a synthetic one does
    records[0] = _rec(0, records[0].text + " heldout-only", records[0].label)
    return records


def _synthetic(i, text, label):
    return TweetRecord(tweet_id=f"t{i:03d}::bt", topic_id="T-A", text=text,
                       label=label, source="CT20")


def _matrix_path_cases():
    corpus = _corpus_records()
    train = corpus[5:70]
    synthetic = [_synthetic(3, "aaa cue w1 w1 zz-new", CW),
                 _synthetic(9, "w2 brand-new w2", NCW),
                 _synthetic(12, "~tilde w39 0zero heldout-only", NCW)]
    edited = [TweetRecord(tweet_id=r.tweet_id, topic_id=r.topic_id,
                          text=r.text + " edited-token", label=r.label,
                          source=r.source) for r in train[:2]]
    interleaved = list(train)
    for k, rec in enumerate(synthetic):
        interleaved.insert(7 * k + 3, rec)
    return corpus, {
        "corpus": train,
        "corpus+synthetic": train + synthetic,
        "edited-text": edited + train[2:],
        "interleaved": interleaved,
    }


def _reference_counts(texts, vocab):
    """Per-text dictionary counting: the dense matrix count_matrix must give."""
    dense = np.zeros((len(texts), len(vocab)))
    for i, text in enumerate(texts):
        for tok in text.split():
            if tok in vocab:
                dense[i, vocab[tok]] += 1
    return dense


def test_count_matrix_matches_per_text_counting():
    texts = [r.text for r in _corpus_records()] + ["", "solo", "b a b a ~ 0"]
    vocab, x = model.count_matrix(texts)
    assert list(vocab) == sorted({t for text in texts for t in text.split()})
    assert list(vocab.values()) == list(range(len(vocab)))
    assert x.has_sorted_indices
    assert np.array_equal(x.toarray(), _reference_counts(texts, vocab))
    probes = ["b b unseen a", "", "nothing known"]
    _, known = model.count_matrix(probes, vocab)
    assert known.shape == (3, len(vocab))
    assert np.array_equal(known.toarray(), _reference_counts(probes, vocab))


@pytest.mark.parametrize("case", ["corpus", "corpus+synthetic", "edited-text",
                                  "interleaved"])
def test_corpus_matrix_fit_equals_text_fit(case):
    corpus, cases = _matrix_path_cases()
    records = cases[case]
    texts = [r.text for r in records]
    labels = [r.label for r in records]
    cfg = ScorerConfig(backend="baseline", hyperparams={"iterations": 50})
    from_text = BaselineScorer(cfg).fit(texts, labels)
    vocab, x = CorpusFeatures(corpus).training_matrix(records)
    _, text_x = model.count_matrix(texts)
    assert x.indices.dtype == np.int32
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(x, part), getattr(text_x, part))
    from_matrix = BaselineScorer(cfg).fit_matrix(vocab, x, labels)
    assert from_matrix.vocab == from_text.vocab
    assert list(from_matrix.vocab) == sorted(from_text.vocab)
    assert np.array_equal(from_matrix.weights, from_text.weights)
    assert from_matrix.bias == from_text.bias
    probes = [r.text for r in corpus] + ["zz-new cue", "never seen", ""]
    assert from_matrix.score_many(probes) == from_text.score_many(probes)


def test_train_scorer_fits_through_corpus_features():
    records = planted_records()
    cfg = ScorerConfig(backend="baseline", hyperparams={"iterations": 30})
    calls = []

    def features():
        calls.append(1)
        return CorpusFeatures(records)

    via_matrix = train_scorer(records[:40], cfg, features=features)
    via_text = train_scorer(records[:40], cfg)
    assert calls == [1]
    assert np.array_equal(via_matrix.weights, via_text.weights)


# ---------------------------------------------------------------------------
# ranking


def test_rank_orders_by_descending_score():
    class Fixed:
        def score_many(self, texts):
            table = {"high": 0.9, "low": 0.1, "mid": 0.5}
            return [table[t] for t in texts]

    records = [_rec(0, "high", CW), _rec(1, "low", NCW), _rec(2, "mid", NCW)]
    ranking = rank_records(Fixed(), records)
    assert ranking.order == ("t000", "t002", "t001")
    assert ranking.entries == (("t000", 0.9), ("t002", 0.5), ("t001", 0.1))


def test_rank_breaks_ties_by_ascending_id():
    class Flat:
        def score_many(self, texts):
            return [0.5] * len(texts)

    records = [_rec(i, f"text {i}", NCW) for i in (3, 1, 2)]
    ranking = rank_records(Flat(), records)
    assert ranking.order == ("t001", "t002", "t003")


def test_rank_is_a_bijection_over_inputs():
    records = planted_records(n=40)
    scorer = train_scorer(records, ScorerConfig(backend="baseline"))
    ranking = rank_records(scorer, records)
    assert sorted(ranking.order) == sorted(r.tweet_id for r in records)
    assert len(set(ranking.order)) == len(records)


def test_rank_sets_topic_for_homogeneous_input():
    class Flat:
        def score_many(self, texts):
            return [0.5] * len(texts)

    same = [_rec(i, f"text {i}", NCW, topic="T-B") for i in range(3)]
    assert rank_records(Flat(), same).target_topic_id == "T-B"
    mixed = same[:2] + [_rec(9, "text 9", NCW, topic="T-C")]
    assert rank_records(Flat(), mixed).target_topic_id == ""


def test_rank_rejects_duplicate_ids():
    records = [_rec(1, "a", CW), _rec(1, "b", NCW)]
    scorer = train_scorer(planted_records(), ScorerConfig(backend="baseline"))
    with pytest.raises(ModelError):
        rank_records(scorer, records)


def test_rank_rejects_empty_input():
    scorer = train_scorer(planted_records(), ScorerConfig(backend="baseline"))
    with pytest.raises(ModelError):
        rank_records(scorer, [])


def test_ranking_rejects_inconsistent_tables():
    with pytest.raises(ModelError):
        ScoredRanking(order=("a", "b"), scores={"a": 0.5})
    with pytest.raises(ModelError):
        ScoredRanking(order=("a",), scores={"a": 1.5})


def test_ranking_top_prefix():
    ranking = ScoredRanking(order=("a", "b", "c"),
                            scores={"a": 0.9, "b": 0.5, "c": 0.1})
    assert ranking.top(2) == ("a", "b")
    assert ranking.top(10) == ("a", "b", "c")


# ---------------------------------------------------------------------------
# decision rule


def test_classify_threshold_is_inclusive():
    assert classify(0.7) == CW
    assert classify(0.5) == CW
    assert classify(0.49) == NCW


def test_classify_honours_custom_threshold():
    assert classify(0.3, threshold=0.25) == CW
    assert classify(0.2, threshold=0.25) == NCW


def test_classify_rejects_out_of_range_values():
    with pytest.raises(ModelError):
        classify(1.2)
    with pytest.raises(ModelError):
        classify(-0.1)
    with pytest.raises(ModelError):
        classify(0.5, threshold=1.5)


# ---------------------------------------------------------------------------
# encoder backend


def test_encoder_requires_provider():
    records = planted_records()
    with pytest.raises(ModelError):
        train_scorer(records, ScorerConfig(backend="encoder"))
    with pytest.raises(ModelError):
        train_scorer(records, ScorerConfig(backend="encoder"),
                     providers=ProviderBundle())


def test_encoder_round_trip_with_mock_provider():
    provider = MockEncoderProvider()
    bundle = ProviderBundle(encoder=provider, kind="mock")
    records = planted_records()
    scorer = train_scorer(records, ScorerConfig(backend="encoder", seed=2),
                          providers=bundle)
    scores = scorer.score_many(["X X X", "w1 w2"])
    assert len(scores) == 2
    assert all(0.0 <= s <= 1.0 for s in scores)
    assert scores[0] > scores[1]


def test_encoder_requests_carry_contract_fields():
    provider = MockEncoderProvider()
    bundle = ProviderBundle(encoder=provider, kind="mock")
    records = planted_records(n=12)
    scorer = train_scorer(records, ScorerConfig(backend="encoder", seed=7),
                          providers=bundle)
    scorer.score_many(["probe text"])

    train_req = provider.requests[0]
    assert train_req["mode"] == "train"
    assert train_req["texts"] == [r.text for r in records]
    assert train_req["labels"] == [r.label for r in records]
    assert train_req["hyperparams"] == {
        "epochs": 3, "batch_size": 32, "max_seq_len": 128, "seed": 7,
    }

    score_req = provider.requests[1]
    assert score_req["mode"] == "score"
    assert score_req["texts"] == ["probe text"]
    assert score_req["handle"] == scorer.handle
    assert "labels" not in score_req


def test_encoder_rejects_missing_handle():
    def broken(payload):
        return {"status": "ok"}

    scorer = EncoderScorer(ScorerConfig(backend="encoder"), broken)
    with pytest.raises(ProviderError):
        scorer.fit(["a", "b"], [CW, NCW])


def test_encoder_rejects_wrong_score_count():
    def broken(payload):
        if payload["mode"] == "train":
            return {"handle": "h1"}
        return {"scores": [0.5]}

    scorer = EncoderScorer(ScorerConfig(backend="encoder"), broken)
    scorer.fit(["a", "b"], [CW, NCW])
    with pytest.raises(ProviderError):
        scorer.score_many(["x", "y"])


def test_encoder_rejects_out_of_range_scores():
    def broken(payload):
        if payload["mode"] == "train":
            return {"handle": "h1"}
        return {"scores": [1.7]}

    scorer = EncoderScorer(ScorerConfig(backend="encoder"), broken)
    scorer.fit(["a", "b"], [CW, NCW])
    with pytest.raises(ProviderError):
        scorer.score_many(["x"])


def test_encoder_rejects_single_class_and_bad_labels():
    scorer = EncoderScorer(ScorerConfig(backend="encoder"), MockEncoderProvider())
    with pytest.raises(ModelError):
        scorer.fit(["a", "b"], [CW, CW])
    with pytest.raises(ModelError):
        scorer.fit(["a", "b"], [CW, "maybe"])
