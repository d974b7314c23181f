"""Scorer backends, and the ranking and decision rule applied to their
scores."""

import bisect
import gc
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import zipfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from claimcheck import model, solver
from claimcheck.augment import BT, AugmentedSample
from claimcheck.cache import stable_hash
from claimcheck.corpus import CW, NCW, Corpus, TweetRecord
from claimcheck.errors import EvalError, ModelError, ProviderError
from claimcheck.evaluation import rank_scores
from claimcheck.model import (
    BASELINE_DEFAULTS,
    ENCODER_DEFAULTS,
    BaselineScorer,
    CorpusFeatures,
    EncoderScorer,
    ScorerConfig,
    count_matrix,
    model_cache_key,
    record_digests,
    train_scorer,
)
from claimcheck.providers import MockEncoderProvider, ProviderBundle
from claimcheck.solver import GRADIENT_TOLERANCE

import reference_counts


def _rec(i, text, label, topic="T-A"):
    return TweetRecord(tweet_id=f"t{i:03d}", topic_id=topic, text=text,
                       label=label, source="CT20")


def fit_texts(config, texts, labels):
    """A baseline fit on the counts of `texts`, without a corpus:
    `solver.fit` on `count_matrix(texts)`."""
    vocab, x = count_matrix(texts)
    y = model._check_training(len(texts), labels)
    params = config.resolved_hyperparams()
    return BaselineScorer(config)._set(vocab, *solver.fit(
        x, y, float(params["l2"]), params["iterations"]))


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


@pytest.mark.parametrize("name,fields", [
    ("hyperparams", {"hyperparams": {"iterations": np.int64(50)}}),
    ("hyperparams", {"hyperparams": {"l2": np.float32(1e-4)}}),
    ("seed", {"seed": np.int64(3)}),
])
def test_config_refuses_what_the_model_cache_key_cannot_hash(
        tmp_path, name, fields):
    with pytest.raises(ModelError, match=f"^{name} cannot be written as JSON"):
        train_scorer(planted_records(), ScorerConfig(**fields),
                     cache_dir=tmp_path)
    assert not list(tmp_path.iterdir())


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


def test_trainer_version_retrains_unpreconditioned_models():
    # version 2 models came from the unpreconditioned solver, version 3
    # entries held the vocabulary and config too, and version 4 came from
    # the trust-region solver, version 5 summed the solver's dot products
    # through BLAS, in an order its thread count set, and version 6 started
    # every fit at zero and solved its last Newton step past the stopping
    # rule; their cache keys differ, so they are retrained once
    assert model.TRAINER_VERSION == 7


def test_baseline_iterations_cap_the_solver():
    records = planted_records()
    texts = [r.text for r in records]
    labels = [r.label for r in records]
    capped = fit_texts(ScorerConfig(hyperparams={"iterations": 1}), texts,
                       labels)
    converged = fit_texts(ScorerConfig(), texts, labels)
    assert capped.stats.trials == 1
    assert converged.stats.trials > 1
    assert (capped.stats.grad_norm > GRADIENT_TOLERANCE
            > converged.stats.grad_norm)
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
    assert scorer.stats.grad_norm < GRADIENT_TOLERANCE


def test_importing_and_training_loads_no_scipy_solver_module():
    """scipy.optimize or scipy.sparse.linalg would add memory and start-up
    time to every run, so neither may load, eagerly or lazily."""
    probe = (
        "import json, sys\n"
        "import claimcheck.runner, claimcheck.providers\n"
        "from types import SimpleNamespace as R\n"
        "from claimcheck.model import ScorerConfig, train_scorer\n"
        "train_scorer([R(text='a b', label='CW'), R(text='c d', label='NCW'),"
        " R(text='a c', label='CW')], ScorerConfig())\n"
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
    assert loaded.stats is None and scorer.stats is not None
    assert loaded.config.seed == 4


def test_saved_config_member_is_the_hand_listed_json(tmp_path):
    """The `config` member holds the JSON that listing the config's fields
    by hand wrote, byte for byte."""
    cfg = ScorerConfig(hyperparams={"l2": 0.5, "iterations": 50}, seed=4)
    path = tmp_path / "model.npz"
    train_scorer(planted_records(), cfg).save(path)
    expected = io.BytesIO()
    np.lib.format.write_array(expected, np.array([json.dumps({
        "backend": "baseline", "hyperparams": {"l2": 0.5, "iterations": 50},
        "seed": 4})], dtype=str), allow_pickle=False)
    with zipfile.ZipFile(path) as zf:
        assert zf.read("config.npy") == expected.getvalue()


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
    write_entry = model._write_entry
    both_writing = threading.Barrier(2)

    def slow_write(scorer, fh):
        both_writing.wait(timeout=10)
        write_entry(scorer, fh)
        time.sleep(0.2)  # hold the written temp file open to the other writer

    monkeypatch.setattr(model, "_write_entry", slow_write)
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
    fresh = fit_texts(cfg, [r.text for r in records],
                      [r.label for r in records])
    theta = np.load(next(tmp_path.iterdir()))["theta"]
    assert theta.tobytes() == np.append(fresh.weights, fresh.bias).tobytes()


def test_second_train_scorer_call_is_a_cache_hit(tmp_path, monkeypatch):
    records = planted_records()
    cfg = ScorerConfig(backend="baseline", hyperparams={"iterations": 20})
    first = train_scorer(records, cfg, cache_dir=tmp_path)

    def no_fit(*args):
        raise AssertionError("a cached model was retrained")

    monkeypatch.setattr(model, "fit", no_fit)
    second = train_scorer(CorpusFeatures(records).select(), cfg,
                          cache_dir=tmp_path)
    assert np.array_equal(second.vocab, first.vocab)
    assert np.array_equal(second.weights, first.weights)
    assert first.stats.trials >= 1 and second.stats is None


def _topic_corpus():
    """`_corpus_records` plus a target topic "T-B": only its rows 80 and
    82 hold "only-in-target", and only its row 81 holds "shared-once"."""
    corpus = _corpus_records()
    return corpus + [_rec(80, "only-in-target w1 cue", CW, topic="T-B"),
                     _rec(81, "w2 w3 shared-once", NCW, topic="T-B"),
                     _rec(82, "w4 only-in-target", NCW, topic="T-B")]


def _cache_hit_cases():
    """(training `Rows`, test `Rows`) whose column layout a cache hit has
    to work out without counting."""
    corpus, cases = _matrix_path_cases()
    rows, extra = cases["corpus+synthetic"]
    features = CorpusFeatures(corpus)
    nul_corpus = corpus + [_rec(80, "a a\x00 cue", CW), _rec(81, "a w3", NCW)]
    nul_features = CorpusFeatures(nul_corpus)
    topics = _topic_corpus()
    topic_features = CorpusFeatures(topics)
    # leave out the target topic, but for its row holding "shared-once",
    # and row 0, which holds "heldout-only"
    left_out = list(range(1, 80)) + [81]
    # records hold no empty text, so plain objects stand in for them here
    empty = CorpusFeatures([SimpleNamespace(text="", label=CW),
                            SimpleNamespace(text=" ", label=NCW)])
    return {
        "synthetic-only tokens": (features.select(rows, extra),
                                  features.select(range(5))),
        "synthetic tokens only the target topic holds": (
            topic_features.select(left_out, [
                _synthetic(3, "only-in-target heldout-only zz-new", CW),
                _synthetic(9, "shared-once w5 0zero", NCW)]),
            topic_features.select([0, 80, 82])),
        "more rows outside than inside": (
            features.select(range(20, 32), [
                _synthetic(3, "w1 heldout-only new-token", CW)]),
            features.select(range(80))),
        "a token holding a NUL": (
            nul_features.select(range(40, 82),
                                [_synthetic(3, "b\x00 w1 zz-new", NCW)]),
            nul_features.select(range(0, 82, 3))),
        "no synthetic records": (features.select(rows),
                                 features.select(range(80))),
        "empty vocabulary": (empty.select(), empty.select()),
    }


@pytest.mark.parametrize("case", ["synthetic-only tokens",
                                  "synthetic tokens only the target topic "
                                  "holds",
                                  "more rows outside than inside",
                                  "a token holding a NUL",
                                  "no synthetic records",
                                  "empty vocabulary"])
def test_cache_hit_yields_exactly_the_fitted_model(case, tmp_path,
                                                   monkeypatch):
    """A hit counts no text, yet gives the fit's vocabulary, coefficients,
    weights on the corpus's columns and scores, bit for bit."""
    train, test = _cache_hit_cases()[case]
    cfg = ScorerConfig(backend="baseline", hyperparams={"iterations": 50})
    fitted = train_scorer(train, cfg, cache_dir=tmp_path)
    fitted_scores = fitted.score_many(test)

    def no_fit(*args):
        raise AssertionError("a cached model was retrained")

    def no_count(texts):
        raise AssertionError("a cache hit counted texts")

    monkeypatch.setattr(model, "fit", no_fit)
    monkeypatch.setattr(model, "count_matrix", no_count)
    hit = train_scorer(train, cfg, cache_dir=tmp_path)
    assert hit.config is cfg
    assert hit.stats is None and fitted.stats is not None
    assert hit.weights.tobytes() == fitted.weights.tobytes()
    assert hit.bias == fitted.bias
    assert hit.score_many(test) == fitted_scores
    assert (hit._placed[1].tobytes()
            == fitted._weights_on(train.features.tokens).tobytes())
    assert hit.vocab.dtype == fitted.vocab.dtype
    assert hit.vocab.tolist() == fitted.vocab.tolist()
    monkeypatch.undo()
    assert fitted.vocab.tolist() == model.count_matrix(
        [r.text for r in train])[0].tolist()
    if case == "synthetic tokens only the target topic holds":
        assert {"only-in-target", "shared-once"} <= set(hit.vocab.tolist())
    if case == "a token holding a NUL":
        assert fitted.vocab.dtype == object
        assert {"a\x00", "b\x00", "zz-new"} <= set(fitted.vocab.tolist())
    if case == "empty vocabulary":
        assert hit.vocab.size == 0 and hit.weights.shape == (0,)


def test_corpus_column_row_counts_and_used_columns():
    corpus = _topic_corpus()
    features = CorpusFeatures(corpus)
    x = features.matrix.toarray()
    assert np.array_equal(features.column_rows, (x > 0).sum(axis=0))
    for rows in (range(83), range(1, 80), [81, 81, 3], [], [82] * 5):
        rows = np.array(rows, dtype=np.int64)
        expected = (x[rows] > 0).any(axis=0)
        assert np.array_equal(features.used_columns(rows), expected)


_LOCATE_TOKENS = st.lists(st.text("abc", min_size=1, max_size=4), max_size=12)


@settings(max_examples=300, deadline=None)
@given(tokens=_LOCATE_TOKENS, others=_LOCATE_TOKENS,
       longer=st.lists(st.text("abc", min_size=5, max_size=8), max_size=4),
       related=st.booleans(), nul=st.booleans(), objects=st.booleans())
def test_locate_matches_a_bisect_reference(tokens, others, longer, related,
                                           nul, objects):
    """Insertion points and hits of sorted unique queries, as `_locate`
    gets them, against `bisect` over Python strings: queries longer than
    every token, equal to one, prefixes of one, extensions of one and
    others, at narrower, equal and wider fixed widths, and as objects when
    a NUL is among them or `objects` is drawn, long ones included."""
    vocab = sorted(set(tokens))
    queries = set(others) | set(longer)
    if related:
        queries |= set(vocab) | {t[:-1] for t in vocab if len(t) > 1}
        queries |= {t + "a" for t in vocab} | {t + "c" * 5 for t in vocab}
    if nul:
        queries.add("a\x00")
    queries = sorted(queries)
    query_array = model._token_array(queries)
    if objects:  # as a cell's synthetic tokens are past WIDTH_FACTOR
        query_array = query_array.astype(object)
    at, found = model._locate(model._token_array(vocab), query_array)
    expected = [bisect.bisect_left(vocab, q) for q in queries]
    assert at.tolist() == expected
    assert found.tolist() == [i < len(vocab) and vocab[i] == q
                              for i, q in zip(expected, queries)]


def test_cache_entry_is_one_stored_theta_member(tmp_path):
    cfg = ScorerConfig(backend="baseline", hyperparams={"iterations": 20})
    scorer = train_scorer(planted_records(), cfg, cache_dir=tmp_path)
    (entry,) = tmp_path.iterdir()
    with zipfile.ZipFile(entry) as zf:
        (member,) = zf.infolist()
        assert member.filename == "theta.npy"
        assert member.compress_type == zipfile.ZIP_STORED
    theta = np.load(entry)["theta"]
    assert theta.tobytes() == np.append(scorer.weights,
                                        scorer.bias).tobytes()


def test_cache_entry_of_the_wrong_length_is_a_model_error(tmp_path):
    records = planted_records()
    cfg = ScorerConfig(backend="baseline", hyperparams={"iterations": 20})
    scorer = train_scorer(records, cfg, cache_dir=tmp_path)
    (entry,) = tmp_path.iterdir()
    np.savez(entry, theta=np.append(scorer.weights, [scorer.bias, 0.0]))
    with pytest.raises(ModelError, match=entry.name):
        train_scorer(records, cfg, cache_dir=tmp_path)


def test_load_rejects_files_that_are_not_saved_models(tmp_path):
    train_scorer(planted_records(), ScorerConfig(), cache_dir=tmp_path)
    (entry,) = tmp_path.iterdir()
    jsonl = tmp_path / "corpus.jsonl"
    jsonl.write_text('{"tweet_id": "1", "text": "a"}\n', encoding="utf-8")
    npy = tmp_path / "weights.npy"
    np.save(npy, np.zeros(3))
    for path in (entry, jsonl, npy):
        with pytest.raises(ModelError, match="is not a saved baseline model"):
            BaselineScorer.load(path)


def test_load_rejects_a_model_with_one_weight_too_few(tmp_path):
    path = tmp_path / "model.npz"
    train_scorer(planted_records(), ScorerConfig()).save(path)
    with np.load(path) as saved:
        members = dict(saved)
    n = members["weights"].size
    np.savez(path, **{**members, "weights": members["weights"][:-1]})
    with pytest.raises(ModelError, match=rf"is not a saved baseline model: "
                                         rf"{n - 1} weights for {n} tokens"):
        BaselineScorer.load(path)


def _key(config, texts, labels):
    return model_cache_key(config, record_digests(texts, labels))


def test_model_cache_key_frames_each_text_and_label():
    cfg = ScorerConfig(backend="baseline")
    assert _key(cfg, ["ab"], ["c"]) != _key(cfg, ["a"], ["bc"])
    assert (_key(cfg, ["a b", "c"], [CW, NCW])
            != _key(cfg, ["a", "b c"], [CW, NCW]))
    assert _key(cfg, ["1:a"], ["b"]) != _key(cfg, ["a"], ["1:b"])


def test_model_cache_key_carries_the_trainer_version(monkeypatch):
    cfg = ScorerConfig(backend="baseline")
    before = _key(cfg, ["a b"], [CW])
    monkeypatch.setattr(model, "TRAINER_VERSION", model.TRAINER_VERSION + 1)
    assert _key(cfg, ["a b"], [CW]) != before


def test_model_cache_key_is_equal_for_equal_data_in_other_lists():
    cfg = ScorerConfig(backend="baseline")
    texts, labels = ["نص عربي", "b c"], [CW, NCW]
    assert (_key(cfg, texts, labels)
            == _key(ScorerConfig(backend="baseline"), list(texts),
                    list(labels)))


def test_model_cache_key_is_equal_for_equal_rows_of_two_corpora():
    """Content addressed: the same texts and labels in the same order give
    the same key, whichever corpus and positions they are gathered from."""
    cfg = ScorerConfig(backend="baseline")
    records = planted_records(n=30)
    synthetic = [_rec(900, "X w1 brand-new", CW)]
    one = CorpusFeatures(records)
    other = CorpusFeatures([_rec(500, "unrelated", NCW)]
                           + list(reversed(records)))
    rows = [4, 9, 2, 17]
    mirrored = [len(records) - i for i in rows]
    assert ([r.tweet_id for r in one.select(rows)]
            == [r.tweet_id for r in other.select(mirrored)])
    assert (model_cache_key(cfg, one.select(rows, synthetic).digests())
            == model_cache_key(cfg, other.select(mirrored, synthetic).digests()))
    texts = [records[i].text for i in rows] + ["X w1 brand-new"]
    labels = [records[i].label for i in rows] + [CW]
    assert (model_cache_key(cfg, one.select(rows, synthetic).digests())
            == _key(cfg, texts, labels))
    assert (model_cache_key(cfg, one.select(rows[::-1], synthetic).digests())
            != _key(cfg, texts, labels))


def test_model_cache_key_of_a_tiny_corpus_is_pinned():
    """Cache entries are named by this key, so gathering the digests another
    way must not rename one, with or without synthetic records; only a
    `TRAINER_VERSION` bump (here, 7) may."""
    features = CorpusFeatures([
        _rec(0, "masks work", CW), _rec(1, "nice day", NCW),
        _rec(2, "vaccine 95% effective", CW), _rec(3, "نص عربي", NCW)])
    synthetic = [_rec(900, "masks work well ✅", CW)]
    cfg = ScorerConfig(backend="baseline")
    assert (model_cache_key(cfg, features.select([3, 0, 2]).digests())
            == "a5c2723f8c0260a29cf4f5f42d25a086"
               "270be8506379c372c68843fd61822e87")
    assert (model_cache_key(cfg, features.select([3, 0, 2], synthetic).digests())
            == "e3e6814d8dba96ee3553669b24331de6"
               "ffc862df41aaf27abbbed07f7e96c024")
    assert (model_cache_key(cfg, features.select([], synthetic).digests())
            == "46f167e0e4c032b8d1fe7ce3cbb2a728"
               "0cd6b24d80ba3c3dd3c924bbaf58bffd")


def test_model_cache_key_changes_when_one_label_flips():
    cfg = ScorerConfig(backend="baseline")
    texts = ["a b", "c d", "e"]
    assert (_key(cfg, texts, [CW, NCW, NCW])
            != _key(cfg, texts, [CW, CW, NCW]))


def test_model_cache_key_hashes_the_header_then_each_record_digest():
    cfg = ScorerConfig(backend="baseline", seed=3)
    texts = [f"نص {i} " * (i % 7) + "✅" * (i % 3) for i in range(2500)]
    labels = [CW if i % 4 == 0 else NCW for i in range(2500)]
    digest = hashlib.sha256(stable_hash({
        "trainer": model.TRAINER_VERSION,
        "backend": "baseline",
        "hyperparams": cfg.resolved_hyperparams(),
        "seed": 3,
    }).encode("ascii"))
    for text, label in zip(texts, labels):
        digest.update(hashlib.sha256(
            f"{len(label)}:{label}{text}".encode("utf-16-le")).digest())
    assert _key(cfg, texts, labels) == digest.hexdigest()


def test_model_with_an_empty_vocabulary_round_trips(tmp_path):
    scorer = fit_texts(ScorerConfig(backend="baseline"), ["", " "], [CW, NCW])
    assert len(scorer.vocab) == 0
    path = tmp_path / "empty.npz"
    scorer.save(path)
    loaded = BaselineScorer.load(path)
    assert len(loaded.vocab) == 0
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
    assert loaded.vocab.dtype == scorer.vocab.dtype
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
    return AugmentedSample(f"t{i:03d}", text, label, BT)


def _matrix_path_cases():
    """Training data as (corpus rows, extra samples) over `_corpus_records`."""
    corpus = _corpus_records()
    train = list(range(5, 70))
    synthetic = [_synthetic(3, "aaa cue w1 w1 zz-new", CW),
                 _synthetic(9, "w2 brand-new w2", NCW),
                 _synthetic(12, "~tilde w39 0zero heldout-only", NCW)]
    # a record whose text differs from the corpus copy is not a corpus row
    edited = [TweetRecord(tweet_id=r.tweet_id, topic_id=r.topic_id,
                          text=r.text + " edited-token", label=r.label,
                          source=r.source) for r in corpus[5:7]]
    shuffled = random.Random(4).sample(train, len(train))
    return corpus, {
        "corpus": (train, ()),
        "corpus+synthetic": (train, synthetic),
        "edited-text": (train[2:], edited),
        "interleaved": (shuffled, synthetic),
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
    tokens, x = model.count_matrix(texts)
    assert list(tokens) == sorted({t for text in texts for t in text.split()})
    vocab = {t: j for j, t in enumerate(tokens.tolist())}
    assert x.has_sorted_indices
    assert np.array_equal(x.toarray(), _reference_counts(texts, vocab))


# pieces of texts: repeats, NULs, a non-BMP letter, a token long enough to
# make an object token array, and the whitespace str.split splits at
TEXT_PIECES = ["a", "b", "ab", "\x00", "a\x00", "\U0001d4b3", "é", "z" * 60,
               " ", " ", "\t", "\n", "\x1c"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from(TEXT_PIECES), max_size=14).map(
    "".join), max_size=12))
def test_count_matrix_equals_the_reference_counting(texts):
    tokens, x = model.count_matrix(texts)
    want_tokens, want = reference_counts.count_matrix(texts)
    assert tokens.dtype == want_tokens.dtype
    assert tokens.tolist() == want_tokens.tolist()
    assert x.shape == want.shape
    for part in ("data", "indices", "indptr"):
        got, expected = getattr(x, part), getattr(want, part)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
    assert x.has_sorted_indices and want.has_sorted_indices


def _traced_peak(call):
    """`call()`'s result and the most memory tracemalloc saw it hold."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_count_matrix_holds_memory_in_proportion_to_its_result():
    rng = random.Random(5)
    texts = [" ".join(f"t{rng.randrange(6000)}"
                      for _ in range(rng.randint(5, 40))) for _ in range(4000)]
    (tokens, x), peak = _traced_peak(lambda: model.count_matrix(texts))
    result = sum(a.nbytes for a in (tokens, x.data, x.indices, x.indptr))
    assert peak <= 2 * result, (peak, result)


@pytest.fixture(scope="module")
def bench_tweets():
    """The bench generator's seed-1 tweets, as its `Tweet`s."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    try:
        import corpusgen
    finally:
        sys.path.pop(0)
    return corpusgen.make_tweets(1)[0]


@pytest.fixture(scope="module")
def bench_texts(bench_tweets):
    """The normalized texts of the bench generator's seed-1 corpus."""
    return [t.expected for t in bench_tweets]


def test_a_loaded_corpus_and_its_counts_hold_under_ten_mib(bench_tweets,
                                                           tmp_path):
    """What stays resident of the bench seed-1 corpus (10,790 records) once
    loaded and counted: slotted records sharing their repeated fields, and
    float32 counts. Records with a `__dict__` each and float64 counts held
    12.4 MiB on CPython 3.11; the bound is 80% of that."""
    path = tmp_path / "normalized.jsonl"
    path.write_text("".join(json.dumps({
        "tweet_id": t.tweet_id, "topic_id": t.topic, "text": t.expected,
        "label": t.label, "source": t.source_topic[:4]}) + "\n"
        for t in bench_tweets), encoding="utf-8")
    gc.collect()
    tracemalloc.start()
    try:
        corpus = Corpus.from_jsonl(path)
        features = corpus.features
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(corpus) == len(bench_tweets) == 10_790
    assert held <= 0.8 * 12.4 * 2 ** 20, held / 2 ** 20
    assert features.matrix.data.dtype == np.float32
    assert features.column_rows.dtype == np.int32


def test_locating_one_long_query_does_not_widen_the_vocabulary(bench_texts):
    """numpy searches two fixed-width arrays at the wider one's width: one
    280-character query would copy the 29,603 tokens at 1,120 bytes each."""
    tokens, _ = model.count_matrix(bench_texts)
    long = "#" * 280
    queries = model._token_array(["#", long])
    assert queries.dtype == np.dtype("<U280")
    (at, found), peak = _traced_peak(lambda: model._locate(tokens, queries))
    vocab = tokens.tolist()
    assert at.tolist() == [bisect.bisect_left(vocab, q) for q in ("#", long)]
    assert found.tolist() == ["#" in vocab, False]
    assert peak <= 2 ** 16, peak


def test_locating_object_queries_does_not_cast_the_vocabulary(bench_texts):
    """One 280-character token makes a cell's 61 synthetic tokens an object
    array; comparing them as objects would cast all 29,603 vocabulary
    tokens to Python strings (a 2.6 MiB traced peak)."""
    tokens, _ = model.count_matrix(bench_texts)
    short = sorted(set(" ".join(bench_texts[:40]).split()))[:60]
    queries = model._token_array(sorted(short + ["#" * 280]))
    assert queries.dtype == object and queries.size == 61
    (at, found), peak = _traced_peak(lambda: model._locate(tokens, queries))
    vocab = tokens.tolist()
    expected = [bisect.bisect_left(vocab, q) for q in queries]
    assert at.tolist() == expected
    assert found.tolist() == [i < len(vocab) and vocab[i] == q
                              for i, q in zip(expected, queries)]
    assert peak <= 2 ** 18, peak


def test_one_long_token_does_not_widen_every_token(bench_texts):
    """A fixed-width token array is as wide as its longest token: one
    280-character token would take the bench vocabulary from 1.0 to 31.6
    MiB, so it becomes an array of the strings themselves."""
    tokens, _ = model.count_matrix(bench_texts)
    assert tokens.dtype == np.dtype("<U9")
    tokens, x = model.count_matrix(bench_texts + ["long " + "#" * 280])
    assert tokens.dtype == object and "#" * 280 in tokens.tolist()
    assert tokens.nbytes <= 2 ** 20
    assert x.shape == (len(bench_texts) + 1, tokens.size)


@pytest.mark.parametrize("case", ["corpus", "corpus+synthetic", "edited-text",
                                  "interleaved"])
def test_corpus_matrix_fit_equals_text_fit(case):
    corpus, cases = _matrix_path_cases()
    rows, extra = cases[case]
    records = [corpus[i] for i in rows] + list(extra)
    texts = [r.text for r in records]
    labels = [r.label for r in records]
    cfg = ScorerConfig(backend="baseline", hyperparams={"iterations": 50})
    from_text = fit_texts(cfg, texts, labels)
    features = CorpusFeatures(corpus)
    layout, x, _ = model.fit_problem(features.select(rows, extra))
    _, text_x = model.count_matrix(texts)
    assert x.indices.dtype == np.int32
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(x, part), getattr(text_x, part))
    from_matrix = train_scorer(features.select(rows, extra), cfg)
    assert list(from_matrix.vocab) == list(from_text.vocab)
    assert list(from_matrix.vocab) == sorted(from_text.vocab)
    assert np.array_equal(from_matrix.weights, from_text.weights)
    assert from_matrix.bias == from_text.bias
    probes = [r.text for r in corpus] + ["zz-new cue", "never seen", ""]
    assert from_matrix.score_many(probes) == from_text.score_many(probes)
    assert (layout.on_corpus(from_text.weights).tobytes()
            == from_text._weights_on(features.tokens).tobytes())



def _stacked_blocks(layout, rows, extra_x):
    """A fit's counts built block by block, as they once were: the corpus
    rows sliced, cast to float64 and remapped, then stacked over the extra
    records' counts, remapped too."""
    remap = np.zeros(layout.features.tokens.size, dtype=np.int32)
    remap[layout.cols] = layout.col_pos
    parts = [(layout.features.matrix[rows], remap)]
    if extra_x.shape[0]:
        parts.append((extra_x, layout.extra_pos))
    blocks = [sparse.csr_matrix((x.data.astype(np.float64), cols[x.indices],
                                 x.indptr), shape=(x.shape[0], layout.size))
              for x, cols in parts]
    return blocks[0] if len(blocks) == 1 else sparse.vstack(blocks, "csr")


@pytest.mark.parametrize("case", ["corpus", "corpus+synthetic", "edited-text",
                                  "interleaved"])
def test_a_fit_gets_the_arrays_the_stacked_blocks_gave(case):
    corpus, cases = _matrix_path_cases()
    rows, extra = cases[case]
    features = CorpusFeatures(corpus)
    _, x, y = model.fit_problem(features.select(rows, extra))
    extra_tokens, extra_x = count_matrix([r.text for r in extra])
    rows = np.asarray(rows)
    stacked = _stacked_blocks(features.columns(rows, extra_tokens), rows,
                              extra_x)
    for part in ("data", "indices", "indptr"):
        got, want = getattr(x, part), getattr(stacked, part)
        assert got.dtype == want.dtype and np.array_equal(got, want), part
    assert x.shape == stacked.shape
    labels = [corpus[i].label for i in rows] + [r.label for r in extra]
    want_y = np.array([1.0 if lab == CW else 0.0 for lab in labels])
    assert y.dtype == want_y.dtype and np.array_equal(y, want_y)

def test_train_scorer_fits_through_corpus_features():
    records = planted_records()
    cfg = ScorerConfig(backend="baseline", hyperparams={"iterations": 30})
    via_matrix = train_scorer(CorpusFeatures(records).select(range(40)), cfg)
    own_records = train_scorer(records[:40], cfg)
    via_text = fit_texts(cfg, [r.text for r in records[:40]],
                         [r.label for r in records[:40]])
    assert np.array_equal(via_matrix.weights, via_text.weights)
    assert np.array_equal(own_records.weights, via_text.weights)
    assert own_records.bias == via_text.bias


def _reference_scores(scorer, texts):
    """Scoring as it was before scores came from the corpus matrix: each
    text counted over the model's own columns, tokens the model lacks
    dropped, and the counts multiplied by the weights as a CSR matrix."""
    vocab = {t: j for j, t in enumerate(scorer.vocab.tolist())}
    x = sparse.csr_matrix(_reference_counts(texts, vocab))
    z = x @ scorer.weights + scorer.bias
    return (1.0 / (1.0 + np.exp(-z))).tolist()


@pytest.mark.parametrize("nul_in", ["nowhere", "corpus", "synthetic"])
def test_matrix_scores_equal_text_count_scores_bit_for_bit(nul_in):
    """Scores sliced out of the corpus matrix equal scores of the counted
    texts, with synthetic-only model tokens and with tokens fixed-width
    unicode cannot order: it reads "a" and "a\x00" as one token."""
    nul = "a\x00" if nul_in != "nowhere" else "a_"
    corpus = _corpus_records()
    if nul_in == "corpus":
        corpus += [_rec(80, f"a {nul} a{nul}b cue", CW),
                   _rec(81, f"{nul} w3 a", NCW), _rec(82, "a w7 a", NCW)]
    features = CorpusFeatures(corpus)
    synthetic = [_synthetic(3, "aaa cue w1 zz-new", CW),
                 _synthetic(9, f"w2 brand-new {nul} a", NCW)]
    train = features.select(range(10, len(corpus)), synthetic)
    scorer = train_scorer(train, ScorerConfig(
        backend="baseline", hyperparams={"iterations": 50}))
    tokens = scorer.vocab.tolist()
    assert "zz-new" in tokens and nul in tokens and "a" in tokens
    assert (scorer.vocab.dtype == object) == (nul_in != "nowhere")
    test_rows = list(range(0, len(corpus), 2)) + [len(corpus) - 1]
    texts = [corpus[i].text for i in test_rows]
    scores = scorer.score_many(features.select(test_rows))
    assert scores == _reference_scores(scorer, texts)
    assert scorer.score_many(texts) == scores
    assert scorer.score_many(train) == scorer.score_many(
        [s.text for s in train])


@pytest.mark.parametrize("nul", [False, True])
def test_a_loaded_model_scores_rows_as_the_trained_one(nul, tmp_path):
    """`claimcheck rank`'s path: a saved model, loaded, places its weights
    on a freshly counted corpus by locating its tokens, and scores that
    corpus's rows exactly as the trained scorer scored its own."""
    corpus = _corpus_records() + [_rec(80, "a\x00 w3 cue" if nul else "a w3",
                                       CW)]
    features = CorpusFeatures(corpus)
    train = features.select(range(10, len(corpus)), [
        _synthetic(3, "aaa cue w1 zz-new", CW),
        _synthetic(9, "w2 brand-new heldout-only", NCW)])
    scorer = train_scorer(train, ScorerConfig(
        backend="baseline", hyperparams={"iterations": 50}))
    test_rows = list(range(0, len(corpus), 3))
    scores = scorer.score_many(features.select(test_rows))
    path = tmp_path / "model.npz"
    scorer.save(path)
    loaded = BaselineScorer.load(path)
    fresh = CorpusFeatures(corpus)
    assert loaded.score_many(fresh.select(test_rows)) == scores
    assert loaded._placed[0] is fresh
    assert loaded._placed[1].tobytes() == scorer._placed[1].tobytes()


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


def test_ranking_is_only_for_cw_or_ncw():
    for positive in ("maybe", "cw", None):
        with pytest.raises(EvalError, match=f"class {positive!r}"):
            rank_scores({"a": 0.9, "b": 0.1}, positive)


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
    bundle = ProviderBundle(encoder=provider)
    records = planted_records()
    scorer = train_scorer(records, ScorerConfig(backend="encoder", seed=2),
                          providers=bundle)
    scores = scorer.score_many(["X X X", "w1 w2"])
    assert len(scores) == 2
    assert all(0.0 <= s <= 1.0 for s in scores)
    assert scores[0] > scores[1]


def test_encoder_requests_carry_contract_fields():
    provider, requests = MockEncoderProvider(), []

    def recording(payload):
        requests.append(payload)
        return provider(payload)

    bundle = ProviderBundle(encoder=recording)
    records = planted_records(n=12)
    scorer = train_scorer(records, ScorerConfig(backend="encoder", seed=7),
                          providers=bundle)
    scorer.score_many(["probe text"])

    train_req = requests[0]
    assert train_req["mode"] == "train"
    assert train_req["texts"] == [r.text for r in records]
    assert train_req["labels"] == [r.label for r in records]
    assert train_req["hyperparams"] == {
        "epochs": 3, "batch_size": 32, "max_seq_len": 128, "seed": 7,
    }

    score_req = requests[1]
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


@pytest.mark.parametrize("scores, message", [
    ([True, False], "encoder score True is not a number"),
    (["0.25", "1"], "encoder score '0.25' is not a number"),
    ([0.5, None], "encoder score None is not a number"),
    ("ab", "encoder returned 0 scores for 2 texts"),
])
def test_encoder_scores_must_be_json_numbers(scores, message):
    """A bool, a numeric string or a null is a provider error, not a
    score."""
    def replying(payload):
        if payload["mode"] == "train":
            return {"handle": "h1"}
        return {"scores": scores}

    scorer = EncoderScorer(ScorerConfig(backend="encoder"), replying)
    scorer.fit(["a", "b"], [CW, NCW])
    with pytest.raises(ProviderError, match=f"^{re.escape(message)}$"):
        scorer.score_many(["x", "y"])


def test_encoder_scores_are_floats_of_the_numbers_sent():
    def replying(payload):
        if payload["mode"] == "train":
            return {"handle": "h1"}
        return {"scores": [0, 1, 0.25, np.float32(0.5)]}

    scorer = EncoderScorer(ScorerConfig(backend="encoder"), replying)
    scorer.fit(["a", "b"], [CW, NCW])
    scores = scorer.score_many(["w", "x", "y", "z"])
    assert scores == [0.0, 1.0, 0.25, 0.5]
    assert all(type(score) is float for score in scores)


def test_encoder_rejects_single_class_and_bad_labels():
    scorer = EncoderScorer(ScorerConfig(backend="encoder"), MockEncoderProvider())
    with pytest.raises(ModelError):
        scorer.fit(["a", "b"], [CW, CW])
    with pytest.raises(ModelError):
        scorer.fit(["a", "b"], [CW, "maybe"])
