"""Scorer backends, and the ranking and decision rule applied to their
scores."""

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from claimcheck import model
from claimcheck.cache import stable_hash
from claimcheck.corpus import CW, NCW, TweetRecord
from claimcheck.errors import EvalError, ModelError, ProviderError
from claimcheck.evaluation import classify, rank_scores
from claimcheck.model import (
    BASELINE_DEFAULTS,
    ENCODER_DEFAULTS,
    GRADIENT_TOLERANCE,
    BaselineScorer,
    CorpusFeatures,
    EncoderScorer,
    ScorerConfig,
    count_matrix,
    model_cache_key,
    train_scorer,
)
from claimcheck.providers import MockEncoderProvider, ProviderBundle


def _rec(i, text, label, topic="T-A"):
    return TweetRecord(tweet_id=f"t{i:03d}", topic_id=topic, text=text,
                       label=label, source="CT20")


def fit_texts(config, texts, labels):
    """A baseline fit on the counts of `texts`, without a corpus."""
    return BaselineScorer(config).fit_matrix(*count_matrix(texts), labels)


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
    assert resolved == {**BASELINE_DEFAULTS, "iterations": 10}


# ---------------------------------------------------------------------------
# baseline scorer


def test_baseline_training_is_deterministic():
    records = planted_records()
    texts = [r.text for r in records]
    labels = [r.label for r in records]
    cfg = ScorerConfig(backend="baseline")
    a = fit_texts(cfg, texts, labels)
    b = fit_texts(cfg, texts, labels)
    probes = ["X w1 w2", "w3 w4 w5", "unseen tokens only"]
    assert a.score_many(probes) == b.score_many(probes)


def test_baseline_learns_planted_token():
    records = planted_records()
    scorer = train_scorer(records, ScorerConfig(backend="baseline"))
    high, low = scorer.score_many(["X X X", "w1 w2 w3"])
    assert high > low


def test_baseline_scores_stay_probabilities():
    records = planted_records()
    scorer = train_scorer(records, ScorerConfig(backend="baseline"))
    for s in scorer.score_many(["X X X X X X X X", "w1", "", "zz yy"]):
        assert 0.0 <= s <= 1.0


def test_baseline_order_independent_within_tolerance():
    records = planted_records(n=80)
    shuffled = list(records)
    random.Random(9).shuffle(shuffled)
    cfg = ScorerConfig(backend="baseline")
    a = train_scorer(records, cfg)
    b = train_scorer(shuffled, cfg)
    probes = ["X w1 w2", "w3 w4 w5 w6", "X"]
    assert a.score_many(probes) == pytest.approx(b.score_many(probes),
                                                 abs=1e-6)


def _dense_problem(records):
    vocab, x = count_matrix([r.text for r in records])
    y = np.array([1.0 if r.label == CW else 0.0 for r in records])
    return vocab, x.toarray(), y


def _dense_loss_and_gradient(x, y, l2, w, b):
    """The regularized mean logistic loss and its gradient, written
    directly from their definitions over a dense matrix."""
    z = x @ w + b
    p = 1.0 / (1.0 + np.exp(-z))
    loss = np.mean(np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0) - y * z)
    loss += 0.5 * l2 * (w @ w)
    return loss, np.append(x.T @ (p - y) / len(y) + l2 * w, np.mean(p - y))


def test_baseline_fit_reaches_the_regularized_optimum():
    records = planted_records(n=80)
    vocab, x, y = _dense_problem(records)
    l2 = BASELINE_DEFAULTS["l2"]
    scorer = fit_texts(ScorerConfig(), [r.text for r in records],
                       [r.label for r in records])
    loss, grad = _dense_loss_and_gradient(x, y, l2, scorer.weights,
                                          scorer.bias)
    assert np.linalg.norm(grad) < GRADIENT_TOLERANCE
    assert scorer.grad_norm == pytest.approx(np.linalg.norm(grad), rel=1e-6)
    assert 1 <= scorer.n_iter < BASELINE_DEFAULTS["iterations"]

    optimize = pytest.importorskip("scipy.optimize")
    reference = optimize.minimize(
        lambda theta: _dense_loss_and_gradient(x, y, l2, theta[:-1],
                                               theta[-1]),
        np.zeros(len(vocab) + 1), jac=True, method="L-BFGS-B",
        options={"gtol": 1e-12, "ftol": 1e-15, "maxiter": 10_000})
    assert loss == pytest.approx(reference.fun, abs=1e-8)


def test_baseline_iterations_cap_the_solver():
    records = planted_records()
    texts = [r.text for r in records]
    labels = [r.label for r in records]
    capped = fit_texts(ScorerConfig(hyperparams={"iterations": 1}), texts,
                       labels)
    converged = fit_texts(ScorerConfig(), texts, labels)
    assert capped.n_iter == 1
    assert converged.n_iter > 1
    assert capped.grad_norm > GRADIENT_TOLERANCE > converged.grad_norm
    assert not np.allclose(capped.weights, converged.weights)


def test_unregularized_fit_on_separable_data_stays_finite():
    records = planted_records()
    texts = [r.text for r in records]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scorer = fit_texts(ScorerConfig(hyperparams={"l2": 0}), texts,
                           [r.label for r in records])
        scores = scorer.score_many(texts + ["X X X X X X X X", "w1 w2 w3"])
    assert np.all(np.isfinite(scorer.weights)) and np.isfinite(scorer.bias)
    assert all(0.0 <= s <= 1.0 for s in scores)
    assert scorer.grad_norm < GRADIENT_TOLERANCE


def test_importing_and_training_loads_no_scipy_solver_module():
    """scipy.optimize or scipy.sparse.linalg would add memory and start-up
    time to every run, so neither may load, eagerly or lazily."""
    probe = (
        "import json, sys\n"
        "import claimcheck.runner, claimcheck.providers\n"
        "from claimcheck.model import ScorerConfig, BaselineScorer, "
        "count_matrix\n"
        "BaselineScorer(ScorerConfig()).fit_matrix("
        "*count_matrix(['a b', 'c d', 'a c']), ['CW', 'NCW', 'CW'])\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith("
        "('scipy.optimize', 'scipy.sparse.linalg')))))\n"
    )
    src = os.path.join(os.path.dirname(model.__file__), os.pardir)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [os.path.abspath(src), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout
    assert json.loads(out) == []


def test_baseline_rejects_single_class():
    texts = ["a b", "c d", "e f"]
    with pytest.raises(ModelError):
        fit_texts(ScorerConfig(backend="baseline"), texts, [CW] * 3)


def test_baseline_rejects_length_mismatch():
    with pytest.raises(ModelError):
        fit_texts(ScorerConfig(backend="baseline"), ["a", "b"], [CW])


def test_baseline_rejects_unknown_labels():
    # TweetRecord itself refuses the label, so a stand-in carries it
    records = [SimpleNamespace(tweet_id=r.tweet_id, text=r.text, label=r.label)
               for r in planted_records(n=12)]
    records[3].label = "maybe"
    cfg = ScorerConfig(backend="baseline")
    with pytest.raises(ModelError, match="maybe"):
        train_scorer(records, cfg)
    with pytest.raises(ModelError, match="maybe"):
        fit_texts(cfg, [r.text for r in records], [r.label for r in records])


def test_train_scorer_rejects_empty_input():
    with pytest.raises(ModelError):
        train_scorer([], ScorerConfig(backend="baseline"))


def test_untrained_scorer_refuses_to_score():
    scorer = BaselineScorer(ScorerConfig(backend="baseline"))
    with pytest.raises(ModelError):
        scorer.score_many(["anything"])


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
    fresh = fit_texts(cfg, [r.text for r in records],
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


def test_model_cache_key_is_equal_for_equal_data_in_other_lists():
    cfg = ScorerConfig(backend="baseline")
    texts, labels = ["نص عربي", "b c"], [CW, NCW]
    assert (model_cache_key(cfg, texts, labels)
            == model_cache_key(ScorerConfig(backend="baseline"),
                               list(texts), list(labels)))


def test_model_cache_key_changes_when_one_label_flips():
    cfg = ScorerConfig(backend="baseline")
    texts = ["a b", "c d", "e"]
    assert (model_cache_key(cfg, texts, [CW, NCW, NCW])
            != model_cache_key(cfg, texts, [CW, CW, NCW]))


def test_model_cache_key_equals_the_single_join_digest():
    """Hashing the texts a chunk at a time changes no key."""
    cfg = ScorerConfig(backend="baseline", seed=3)
    texts = [f"نص {i} " * (i % 7) + "✅" * (i % 3) for i in range(2500)]
    labels = [CW if i % 4 == 0 else NCW for i in range(2500)]
    digest = hashlib.sha256(stable_hash({
        "trainer": model.TRAINER_VERSION,
        "backend": "baseline",
        "hyperparams": cfg.resolved_hyperparams(),
        "seed": 3,
    }).encode("ascii"))
    for items in (texts, labels):
        digest.update(np.array([len(items)] + [len(t) for t in items],
                               dtype=np.int64))
        digest.update("".join(items).encode("utf-16-le"))
    assert model_cache_key(cfg, texts, labels) == digest.hexdigest()


def test_model_with_an_empty_vocabulary_round_trips(tmp_path):
    scorer = fit_texts(ScorerConfig(backend="baseline"), ["", " "], [CW, NCW])
    assert scorer.vocab == {}
    path = tmp_path / "empty.npz"
    scorer.save(path)
    loaded = BaselineScorer.load(path)
    assert loaded.vocab == {}
    assert loaded.weights.shape == (0,)
    assert loaded.bias == scorer.bias
    assert loaded.score_many(["a"]) == scorer.score_many(["a"])


def test_non_ascii_vocabulary_round_trips_bit_for_bit(tmp_path):
    texts = ["كلمة عربية ✅", "émoji 😀 طويلة", "كلمة ü", "ü 😀"]
    scorer = fit_texts(ScorerConfig(backend="baseline"), texts,
                       [CW, NCW, CW, NCW])
    path = tmp_path / "model.npz"
    scorer.save(path)
    loaded = BaselineScorer.load(path)
    assert list(loaded.vocab) == list(scorer.vocab)
    assert loaded.vocab == scorer.vocab
    assert loaded.weights.tobytes() == scorer.weights.tobytes()
    assert loaded.bias == scorer.bias


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
    from_text = fit_texts(cfg, texts, labels)
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
    own_records = train_scorer(records[:40], cfg)
    via_text = fit_texts(cfg, [r.text for r in records[:40]],
                         [r.label for r in records[:40]])
    assert calls == [1]
    assert np.array_equal(via_matrix.weights, via_text.weights)
    assert np.array_equal(own_records.weights, via_text.weights)
    assert own_records.bias == via_text.bias


# ---------------------------------------------------------------------------
# ranking (claimcheck.evaluation.rank_scores)


def test_rank_orders_by_descending_score():
    scores = {"t000": 0.9, "t001": 0.1, "t002": 0.5}
    assert rank_scores(scores) == ["t000", "t002", "t001"]
    assert rank_scores(scores, NCW) == ["t001", "t002", "t000"]


def test_rank_breaks_ties_by_ascending_id():
    scores = {tid: 0.5 for tid in ("t003", "t001", "t002")}
    assert rank_scores(scores) == ["t001", "t002", "t003"]
    assert rank_scores(scores, NCW) == ["t001", "t002", "t003"]


def test_rank_is_a_bijection_over_inputs():
    records = planted_records(n=40)
    scorer = train_scorer(records, ScorerConfig(backend="baseline"))
    scores = dict(zip([r.tweet_id for r in records],
                      scorer.score_many([r.text for r in records])))
    order = rank_scores(scores)
    assert sorted(order) == sorted(r.tweet_id for r in records)
    assert len(set(order)) == len(records)


def test_rank_rejects_empty_input():
    with pytest.raises(EvalError):
        rank_scores({})


def test_ranking_rejects_inconsistent_tables():
    """A score table holding anything but a P(CW) has no ranking."""
    for bad in (1.5, -0.1, float("nan")):
        with pytest.raises(EvalError, match="outside"):
            rank_scores({"a": 0.5, "b": bad})


# ---------------------------------------------------------------------------
# decision rule (claimcheck.evaluation.classify)


def test_classify_threshold_is_inclusive():
    assert classify(0.7) == CW
    assert classify(0.5) == CW
    assert classify(0.49) == NCW


def test_classify_honours_custom_threshold():
    assert classify(0.3, threshold=0.25) == CW
    assert classify(0.2, threshold=0.25) == NCW


def test_classify_rejects_out_of_range_values():
    with pytest.raises(EvalError):
        classify(1.2)
    with pytest.raises(EvalError):
        classify(-0.1)
    with pytest.raises(EvalError):
        classify(float("nan"))
    with pytest.raises(EvalError):
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
