"""Augmentation strategy tests, run entirely against mock providers."""

import io
import json
from dataclasses import asdict

import pytest

from mocks import MarkerFiller, RecordingGenerator, ReversingTranslator

from claimcheck.augment import (
    BT,
    CWE,
    NONE,
    TXTGEN,
    AugmentationResult,
    AugmentedSample,
    GenerationParams,
    _provider_identity,
    _save_result,
    augment_training,
    back_translate,
    contextual_substitute,
    generate_samples,
    substitution_count,
)
from claimcheck.corpus import CW, NCW, TweetRecord
from claimcheck.errors import AugmentError
from claimcheck.model import CorpusFeatures
from claimcheck.providers import (
    MASK_TOKEN,
    DistinctTokenGenerator,
    HashFiller,
    HttpProvider,
    ProviderBundle,
    identity_translator,
)


def _rec(i, text, label=CW, topic="T-A"):
    return TweetRecord(tweet_id=f"p{i:03d}", topic_id=topic, text=text,
                       label=label, source="CT20")


def _pool(n=8):
    return [_rec(i, " ".join(f"w{i}t{j}" for j in range(6)),
                 CW if i % 2 == 0 else NCW)
            for i in range(n)]


# ---------------------------------------------------------------------------
# value objects


def test_sample_rejects_unknown_strategy_and_empty_text():
    with pytest.raises(AugmentError):
        AugmentedSample("t1", "text", CW, "paraphrase")
    with pytest.raises(AugmentError):
        AugmentedSample("t1", "", CW, BT)


def test_generation_params_defaults():
    params = GenerationParams()
    assert params.to_dict() == {
        "num_beams": 5,
        "max_length": 200,
        "top_p": 0.75,
        "repetition_penalty": 3,
        "no_repeat_ngram_size": 3,
    }


def test_result_enforces_cardinality():
    sample = AugmentedSample("t1", "text", CW, BT)
    with pytest.raises(AugmentError):
        AugmentationResult(BT, pool_size=3, samples=(sample,), skips=())


# ---------------------------------------------------------------------------
# back translation


def test_bt_identity_translator_round_trips():
    pool = _pool()
    result = back_translate(pool, identity_translator)
    assert len(result.samples) == len(pool)
    assert result.skips == ()
    assert result.identical_count == len(pool)
    for rec, sample in zip(pool, result.samples):
        assert sample.text == rec.text
        assert sample.label == rec.label
        assert sample.strategy == BT


def test_bt_reversal_applied_twice_restores_order():
    pool = _pool()
    result = back_translate(pool, ReversingTranslator())
    assert [s.text for s in result.samples] == [r.text for r in pool]


def test_bt_pivot_leg_changes_reach_the_output():
    def translator(text, src, tgt):
        return text + " zz" if tgt == "ar" else text

    pool = _pool(4)
    result = back_translate(pool, translator)
    assert all(s.text == r.text + " zz" for s, r in zip(result.samples, pool))
    assert result.identical_count == 0


def test_bt_pivots_through_english():
    calls = []

    def translator(text, src, tgt):
        calls.append((src, tgt))
        return text

    back_translate(_pool(2), translator)
    assert calls == [("ar", "en"), ("en", "ar")] * 2


def test_bt_skips_failing_samples_and_continues():
    def translator(text, src, tgt):
        if "w2t0" in text:
            raise RuntimeError("service unavailable")
        return text

    pool = _pool(5)
    result = back_translate(pool, translator)
    assert len(result.samples) == 4
    assert len(result.skips) == 1
    assert result.skips[0][0] == "p002"
    assert "service unavailable" in result.skips[0][1]
    assert len(result.samples) + len(result.skips) == result.pool_size


def test_bt_skips_empty_translations():
    result = back_translate(_pool(2), lambda text, src, tgt: "  ")
    assert result.samples == ()
    assert all(reason == "translator returned empty text"
               for _, reason in result.skips)


def test_bt_requires_translator():
    with pytest.raises(AugmentError):
        back_translate(_pool(1), None)


# ---------------------------------------------------------------------------
# contextual substitution


@pytest.mark.parametrize("n_tokens, ratio, expected", [
    (10, 0.3, 3),
    (5, 0.3, 2),
    (6, 0.3, 2),
    (2, 0.3, 1),
    (1, 0.3, 0),
    (0, 0.3, 0),
    (5, 0.5, 3),
    (4, 1.0, 4),
])
def test_substitution_count(n_tokens, ratio, expected):
    assert substitution_count(n_tokens, ratio) == expected


def test_cwe_substitutes_exact_position_count():
    filler = MarkerFiller()
    pool = [_rec(0, " ".join(f"tok{j}" for j in range(10)))]
    result = contextual_substitute(pool, filler, seed=1)
    tokens = result.samples[0].text.split()
    assert len(tokens) == 10
    assert tokens.count(filler.marker) == 3
    assert result.samples[0].label == pool[0].label


# 30% of the word positions, half rounding up
@pytest.mark.parametrize("n_tokens, expected", [
    (1, 0), (2, 1), (3, 1), (4, 1), (5, 2), (6, 2), (7, 2), (8, 2), (9, 3),
    (10, 3), (11, 3), (12, 4),
])
def test_cwe_masks_thirty_percent_of_the_word_positions(n_tokens, expected):
    masked = []

    def filler(text):
        masked.append(text)
        return text

    pool = [_rec(0, " ".join(f"tok{j}" for j in range(n_tokens)))]
    contextual_substitute(pool, filler, seed=2)
    assert [text.split().count(MASK_TOKEN) for text in masked] == (
        [expected] if expected else [])


def test_cwe_never_masks_placeholders():
    filler = MarkerFiller()
    pool = [_rec(0, "[url] alpha beta gamma delta")]
    result = contextual_substitute(pool, filler, seed=0)
    tokens = result.samples[0].text.split()
    assert tokens[0] == "[url]"
    assert tokens.count(filler.marker) == 2


def test_cwe_clamps_to_eligible_positions():
    filler = MarkerFiller()
    # 10 tokens ask for 3 positions, but only the last is eligible
    placeholders = ["[url]", "[user]", "[email]"] * 3
    pool = [_rec(0, " ".join(placeholders + ["alpha"]))]
    result = contextual_substitute(pool, filler, seed=0)
    tokens = result.samples[0].text.split()
    assert tokens[:9] == placeholders
    assert tokens[9] == filler.marker


def test_cwe_all_placeholder_text_passes_through():
    filler = MarkerFiller()
    pool = [_rec(0, "[url] [user]")]
    result = contextual_substitute(pool, filler, seed=0)
    assert result.samples[0].text == pool[0].text
    assert result.identical_count == 1
    assert filler.calls == 0


def test_cwe_skips_word_count_changes():
    def filler(masked):
        return masked.replace(MASK_TOKEN, "two words")

    pool = [_rec(0, " ".join(f"tok{j}" for j in range(10)))]
    result = contextual_substitute(pool, filler, seed=0)
    assert result.samples == ()
    assert "word count" in result.skips[0][1]


def test_cwe_is_seed_deterministic():
    pool = _pool(10)
    a = contextual_substitute(pool, MarkerFiller(), seed=4)
    b = contextual_substitute(pool, MarkerFiller(), seed=4)
    assert [s.text for s in a.samples] == [s.text for s in b.samples]
    c = contextual_substitute(pool, MarkerFiller(), seed=5)
    assert [s.text for s in a.samples] != [s.text for s in c.samples]


def test_cwe_requires_filler():
    with pytest.raises(AugmentError):
        contextual_substitute(_pool(1), None)


# ---------------------------------------------------------------------------
# text generation


def test_txtgen_forwards_default_params_verbatim():
    generator = RecordingGenerator()
    pool = _pool(3)
    generate_samples(pool, generator)
    assert len(generator.calls) == 3
    for (prompt, params), rec in zip(generator.calls, pool):
        assert prompt == rec.text
        assert params.num_beams == 5
        assert params.max_length == 200
        assert params.top_p == 0.75
        assert params.repetition_penalty == 3
        assert params.no_repeat_ngram_size == 3


def test_txtgen_truncates_to_max_length_tokens():
    def generator(prompt, params):
        return " ".join(f"g{j}" for j in range(250))

    result = generate_samples(_pool(1), generator)
    assert result.samples[0].text.split() == [f"g{j}" for j in range(200)]


def test_txtgen_outputs_have_no_repeated_trigrams():
    pool = [_rec(i, " ".join(f"seed{i}w{j}" for j in range(12)))
            for i in range(5)]
    result = generate_samples(pool, DistinctTokenGenerator())
    for sample in result.samples:
        tokens = sample.text.split()
        trigrams = [tuple(tokens[j:j + 3]) for j in range(len(tokens) - 2)]
        assert len(trigrams) == len(set(trigrams))


def test_txtgen_skips_failures_and_empty_outputs():
    def generator(prompt, params):
        if "w1t0" in prompt:
            raise RuntimeError("timeout")
        if "w2t0" in prompt:
            return ""
        return "fresh text"

    result = generate_samples(_pool(4), generator)
    assert len(result.samples) == 2
    assert len(result.skips) == 2
    reasons = dict(result.skips)
    assert "timeout" in reasons["p001"]
    assert reasons["p002"] == "generator returned empty text"


def test_txtgen_requires_generator():
    with pytest.raises(AugmentError):
        generate_samples(_pool(1), None)


# ---------------------------------------------------------------------------
# augment_training


def _select(records, pool_size):
    """Training rows over all of `records`, and pool rows over the first
    `pool_size` of them."""
    features = CorpusFeatures(records)
    return features.select(), features.select(range(pool_size))


def _bundle(**kwargs):
    defaults = dict(translator=identity_translator, filler=MarkerFiller(),
                    generator=RecordingGenerator())
    defaults.update(kwargs)
    return ProviderBundle(**defaults)


def test_augment_none_is_identity():
    train, pool = _select(_pool(6), 3)
    out, result = augment_training(train, pool, NONE, None)
    assert out is train
    assert list(out) == _pool(6)
    assert result is None


def test_augment_rejects_unknown_strategy():
    train, pool = _select(_pool(4), 2)
    with pytest.raises(AugmentError):
        augment_training(train, pool, "mixup", _bundle())


def test_augment_rejects_seeds_outside_training_set():
    features = CorpusFeatures(_pool(4) + [_rec(99, "outside text")])
    train = features.select(range(4))
    with pytest.raises(AugmentError, match="p099"):
        augment_training(train, features.select([2, 4]), BT, _bundle())
    # the same records in another corpus are not training rows either
    _, elsewhere = _select(_pool(4), 2)
    with pytest.raises(AugmentError):
        augment_training(train, elsewhere, BT, _bundle())


@pytest.mark.parametrize("strategy", [BT, CWE, TXTGEN])
def test_augment_preserves_labels_and_cardinality(strategy):
    train, pool = _select(_pool(10), 6)
    out, result = augment_training(train, pool, strategy, _bundle())
    assert len(result.samples) + len(result.skips) == len(pool)
    assert len(out) == len(train) + len(result.samples)
    assert list(out)[:len(train)] == list(train)
    assert out.extra == result.samples
    labels = {r.tweet_id: r.label for r in pool}
    assert all(s.label == labels[s.origin_tweet_id] for s in result.samples)


def _set_sample(field, value):
    def edit(blob):
        blob["samples"][1][field] = value
    return edit


def _answer_another_request(blob):
    """Make a BT entry for a pool of four hold a CWE result for two."""
    blob.update(strategy=CWE, pool_size=2, skips=[],
                samples=[dict(s, strategy=CWE) for s in blob["samples"][:2]])


# an edit making a hand-written cache entry one no cell may train on, and
# the error naming it
@pytest.mark.parametrize("edit, message", [
    (_set_sample("origin_tweet_id", "p099"),
     "BT sample of 'p099' names no pool record"),
    (_set_sample("label", CW),
     "BT sample of 'p001' is labelled CW, its origin NCW"),
    (_set_sample("text", " \t\n"), "BT sample of 'p001' has empty text"),
    (_answer_another_request, "augmentation cache entry {entry} holds CWE "
                              "for 2 records, not BT for 4"),
], ids=["origin-outside-the-pool", "label-drift", "whitespace-text",
        "another-request"])
def test_a_cached_sample_a_cell_cannot_train_on_is_refused(
        tmp_path, edit, message):
    """Every result, fresh or read from the cache, passes the same checks:
    it must be the requested strategy's for a pool of the requested size,
    and a sample must come from a pool record, carry its label and hold
    text."""
    train, pool = _select(_pool(6), 4)
    augment_training(train, pool, BT, _bundle(), cache_dir=tmp_path)
    (entry,) = tmp_path.iterdir()
    blob = json.loads(entry.read_text(encoding="utf-8"))
    assert blob["samples"][1]["origin_tweet_id"] == "p001"
    edit(blob)
    entry.write_text(json.dumps(blob), encoding="utf-8")
    with pytest.raises(AugmentError) as caught:
        augment_training(train, pool, BT, _bundle(), cache_dir=tmp_path)
    assert str(caught.value) == message.format(entry=entry)


def test_augment_cache_round_trip(tmp_path):
    calls = []

    def counting_translator(text, src, tgt):
        calls.append(text)
        return text

    train, pool = _select(_pool(6), 4)
    bundle = _bundle(translator=counting_translator)
    first, result1 = augment_training(train, pool, BT, bundle,
                                      cache_dir=tmp_path)
    assert len(calls) == 8  # two hops per sample
    second, result2 = augment_training(train, pool, BT, bundle,
                                       cache_dir=tmp_path)
    assert len(calls) == 8
    assert list(second) == list(first)
    assert result2 == result1


@pytest.mark.parametrize("strategy", [BT, CWE, TXTGEN])
def test_a_reply_with_a_lone_surrogate_is_a_skip(tmp_path, strategy):
    # half of an escaped emoji pair: no UTF-8 writer could cache or write it
    def cut(text):
        return "\ud83d" + text if "w1t" in text else text

    bundle = _bundle(
        translator=lambda text, src, tgt: cut(text),
        filler=lambda masked: cut(MarkerFiller()(masked)),
        generator=lambda prompt, params: cut(prompt))
    train, pool = _select(_pool(4), 4)
    out, result = augment_training(train, pool, strategy, bundle,
                                   cache_dir=tmp_path)
    role = {BT: "translator", CWE: "filler", TXTGEN: "generator"}[strategy]
    assert result.skips == (("p001", f"{role} returned a lone surrogate"),)
    assert len(result.samples) == 3 and len(out) == 4 + 3
    (entry,) = tmp_path.iterdir()
    entry.read_text(encoding="utf-8")  # the cached result is UTF-8


def test_augment_cache_entry_bytes(tmp_path):
    def translator(text, src, tgt):
        if text.startswith("down"):
            raise RuntimeError("offline")
        return text

    train, pool = _select([_rec(0, "نص عربي"), _rec(1, "down text", NCW)], 2)
    augment_training(train, pool, BT, _bundle(translator=translator),
                     cache_dir=tmp_path)
    (entry,) = tmp_path.iterdir()
    assert entry.read_bytes() == (
        '{"strategy": "BT", "pool_size": 2, "samples": [{"origin_tweet_id": '
        '"p000", "text": "نص عربي", "label": "CW", "strategy": "BT"}], '
        '"skips": [["p001", "translator failed: offline"]], '
        '"identical_count": 1}'
    ).encode("utf-8")


@pytest.mark.parametrize("result", [
    AugmentationResult(TXTGEN, 0),
    AugmentationResult(BT, 1, skips=(("p1", "translator failed: «x»"),)),
    AugmentationResult(CWE, 3, samples=(
        AugmentedSample("p0", "نص عربي ✅", CW, CWE),
        AugmentedSample("p2", 'say "\\n"\t', NCW, CWE)),
        skips=(("p1", "filler failed"),), identical_count=1),
])
def test_augment_cache_entry_is_the_json_of_asdict(result):
    fh = io.BytesIO()
    _save_result(result, fh)
    assert fh.getvalue() == json.dumps(asdict(result),
                                       ensure_ascii=False).encode("utf-8")


def test_augment_cache_keys_on_seed(tmp_path):
    filler = MarkerFiller()
    train, pool = _select(_pool(6), 4)
    bundle = _bundle(filler=filler)
    augment_training(train, pool, CWE, bundle, seed=0, cache_dir=tmp_path)
    first_calls = filler.calls
    augment_training(train, pool, CWE, bundle, seed=1, cache_dir=tmp_path)
    assert filler.calls > first_calls


def test_augment_cache_keys_on_the_provider(tmp_path):
    def word_adding_filler(masked_text):
        return masked_text.replace(MASK_TOKEN, "x") + " extra"

    train, pool = _select(_pool(6), 4)
    _, hashed = augment_training(train, pool, CWE, _bundle(filler=HashFiller()),
                                 seed=3, cache_dir=tmp_path)
    _, added = augment_training(train, pool, CWE,
                                _bundle(filler=word_adding_filler),
                                seed=3, cache_dir=tmp_path)
    assert len(list(tmp_path.iterdir())) == 2
    assert len(hashed.samples) == 4
    assert added.samples == () and len(added.skips) == 4


# entry names written when pivot, ratio and generation parameters were
# settings; as constants they hash to the same names
@pytest.mark.parametrize("strategy, seed, name", [
    (BT, 0, "d3a77b31c65c315546146021074a69d14bc9e90d0a1a748ced79193f2fd8d193"),
    (BT, 7, "21240b244718b867dda4b5ee48bd90b0088b6c81e1f3009daba3ad192a3bd0fd"),
    (CWE, 0, "6d86dd0322832ecf1cce80f5f44e887d9bcc6389eae2b5b24c22522528bbb26a"),
    (CWE, 7, "e87e522d6dff55090611f215d25604c6ce75bc15d794605122152889b6faa5ff"),
    (TXTGEN, 0,
     "3f024727fa602d76c6ea4b274da5c5b3791c1588942deed820e20926a8d0fc06"),
    (TXTGEN, 7,
     "e0175355dace5482f4fdfaa631c64ca99df7ad460dc0e6a8f9f2d1c64ba5dd11"),
])
def test_augment_cache_entry_names_are_golden(tmp_path, strategy, seed, name):
    train, pool = _select(_pool(6), 4)
    augment_training(train, pool, strategy, _bundle(), seed=seed,
                     cache_dir=tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == [f"{name}.json"]


def test_provider_identity_is_the_url_or_the_qualified_name():
    assert _provider_identity(HttpProvider("http://h:1/", "filler")) == "http://h:1"
    assert _provider_identity(HashFiller()) == "claimcheck.providers.HashFiller"
    assert (_provider_identity(identity_translator)
            == "claimcheck.providers.identity_translator")
