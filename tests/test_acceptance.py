"""Binding acceptance checks.

Each check prints one verdict line directly to the terminal (bypassing
capture), so a full run reads as a nine-line scorecard. The checks cover
metric correctness against brute-force oracles, the improvement-table
arithmetic on transcribed reference columns, split protocol invariants,
the normalization golden corpus, augmentation invariants under mock
providers, an end-to-end planted-signal gain, similarity matrix
properties, cold-run determinism of the fig4 suite, and an opt-in live
integration path.
"""

import itertools
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

import reference_tables as ref
from golden_cases import GOLDEN_CASES
from mocks import KeywordAxisEmbedder, MarkerFiller, RecordingGenerator
from oracles import brute_force_map
from synth import random_fuzz_text, tiny_corpus

from claimcheck.augment import (
    back_translate,
    contextual_substitute,
    generate_samples,
)
from claimcheck.corpus import CW, Corpus, NCW, TweetRecord
from claimcheck.evaluation import (
    evaluate_scores,
    improvement_table,
    rank_scores,
)
from claimcheck.preprocess import normalize_tweet
from claimcheck.providers import (
    HashEmbedder,
    identity_translator,
    make_providers,
)
from claimcheck.runner import (
    FEW_SHOT,
    SHOT_CHOICES,
    ExperimentConfig,
    run_suite,
    run_topic,
)
from claimcheck.splits import few_shot_split, make_holdouts, zero_shot_split
from claimcheck.topicsim import similarity_matrix


@contextmanager
def verdict(capsys, label):
    """Print one PASS/FAIL line per criterion, straight to the terminal."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"acceptance [{label}]: FAIL")
        raise
    with capsys.disabled():
        print(f"acceptance [{label}]: PASS")


def test_1_metric_oracle_equivalence(capsys):
    with verdict(capsys, "1 metric oracle equivalence"):
        start = time.perf_counter()
        rng = random.Random(101)
        cases = 0
        for n in range(1, 13):
            for bits in itertools.product((CW, NCW), repeat=n):
                ids = [f"i{j:02d}" for j in range(n)]
                labels = dict(zip(ids, bits))
                scores = {i: rng.random() for i in ids}
                if cases % 2:
                    # coarse scores force ties, stressing the tie rule
                    scores = {i: round(s, 1) for i, s in scores.items()}
                report = evaluate_scores("T", scores, labels)
                oracle_cw, oracle_ncw, oracle_map = brute_force_map(scores, labels)
                assert abs(report.ap_cw - oracle_cw) <= 1e-9
                assert abs(report.ap_ncw - oracle_ncw) <= 1e-9
                assert abs(report.map - oracle_map) <= 1e-9
                ranking = sorted(scores, key=lambda i: (-scores[i], i))
                assert rank_scores(scores, CW) == ranking
                assert rank_scores(scores, NCW) == sorted(
                    scores, key=lambda i: (scores[i], i))
                cases += 1
        assert cases == 8190  # every label pattern of length 1..12
        assert cases >= 1000
        assert time.perf_counter() - start < 60


def test_2_improvement_table_arithmetic(capsys):
    with verdict(capsys, "2 improvement table arithmetic"):
        base = dict(zip(ref.TOPIC_IDS, ref.ZERO_SHOT_MAP))
        variants = {name: dict(zip(ref.TOPIC_IDS, column))
                    for name, (column, _, _, _) in ref.AUGMENTED.items()}
        table = improvement_table(base, variants)
        for name, (column, deltas, avg_map, avg_delta) in ref.AUGMENTED.items():
            for topic, expected in zip(ref.TOPIC_IDS, deltas):
                assert table.cell(name, topic).delta_pct == expected
            assert table.average[name].delta_pct == avg_delta
            # column cells carry 4 decimals, so their mean can drift from the
            # full-precision average by up to half an ulp per cell
            assert table.average[name].new_map == pytest.approx(avg_map, abs=1e-4)
        assert sum(ref.ZERO_SHOT_MAP) / 14 == pytest.approx(
            ref.ZERO_SHOT_AVG, abs=1e-4)

        ablation = improvement_table(
            dict(zip(ref.TOPIC_IDS, ref.FEW_SHOT_NOAUG_MAP)),
            {"CWE": dict(zip(ref.TOPIC_IDS, ref.CWE_MAP))},
        )
        for topic, expected in zip(ref.TOPIC_IDS, ref.ABLATION_DELTA):
            assert ablation.cell("CWE", topic).delta_pct == expected
        assert ablation.average["CWE"].delta_pct == ref.ABLATION_AVG_DELTA
        assert sum(ref.FEW_SHOT_NOAUG_MAP) / 14 == pytest.approx(
            ref.FEW_SHOT_NOAUG_AVG, abs=1e-4)
        # the transcription carries exactly one arithmetically inconsistent
        # printed delta (see reference_tables); everything else matches it
        diffs = [i for i, (a, b) in enumerate(
            zip(ref.ABLATION_DELTA, ref.ABLATION_DELTA_AS_PRINTED)) if a != b]
        assert diffs == [ref.TOPIC_IDS.index("Covid-19")]


def test_3_split_protocol_invariants(capsys, protocol_corpus_14):
    with verdict(capsys, "3 split protocol invariants"):
        corpus = protocol_corpus_14
        topics = corpus.topic_ids()
        assert len(topics) == 14
        holdouts = make_holdouts(corpus, 200, seed=0)
        for target in topics:
            zero = zero_shot_split(corpus, holdouts, target)
            assert not set(zero.train) & set(zero.test)
            assert all(corpus.records[i].topic_id != target for i in zero.train)
            previous = set()
            for shots in SHOT_CHOICES:
                few = few_shot_split(corpus, holdouts, target, shots)
                assert not set(few.train) & set(few.test)
                assert few.test_hash() == zero.test_hash()
                added = set(few.train) - set(zero.train)
                assert len(added) == shots
                assert all(corpus.records[i].topic_id == target for i in added)
                assert previous < added
                previous = added


def test_4_normalization_golden_corpus(capsys):
    with verdict(capsys, "4 normalization golden corpus"):
        assert len(GOLDEN_CASES) >= 20
        for raw, expected, replacements in GOLDEN_CASES:
            outcome = normalize_tweet(raw)
            assert outcome.text == expected
            assert outcome.replacements == replacements
        rng = random.Random(77)
        for _ in range(10_000):
            once = normalize_tweet(random_fuzz_text(rng)).text
            assert normalize_tweet(once).text == once


def test_5_augmentation_invariants(capsys):
    with verdict(capsys, "5 augmentation invariants"):
        rng = random.Random(13)
        pool = []
        for i in range(60):
            n_tokens = rng.randrange(1, 41)
            text = " ".join(f"t{i}x{j}" for j in range(n_tokens))
            label = CW if i % 3 == 0 else NCW
            pool.append(TweetRecord(tweet_id=f"a{i:03d}", topic_id="T-A",
                                    text=text, label=label, source="CT20"))
        by_id = {r.tweet_id: r for r in pool}

        bt = back_translate(pool, identity_translator)
        assert [s.text for s in bt.samples] == [r.text for r in pool]

        filler = MarkerFiller()
        cwe = contextual_substitute(pool, filler, ratio=0.3, seed=5)
        assert cwe.skips == ()
        for record, sample in zip(pool, cwe.samples):
            tokens = sample.text.split()
            n = len(record.text.split())
            assert len(tokens) == n
            assert tokens.count(filler.marker) == int(0.3 * n + 0.5)

        generator = RecordingGenerator(canned="fresh synthetic text")
        txtgen = generate_samples(pool, generator)
        assert len(generator.calls) == len(pool)
        for _, params in generator.calls:
            assert params.to_dict() == {
                "num_beams": 5,
                "max_length": 200,
                "top_p": 0.75,
                "repetition_penalty": 3,
                "no_repeat_ngram_size": 3,
            }

        for result in (bt, cwe, txtgen):
            assert len(result.samples) + len(result.skips) == len(pool)
            for sample in result.samples:
                assert sample.label == by_id[sample.origin_tweet_id].label


def test_6_planted_signal_few_shot_gain(capsys, planted_corpus_3):
    with verdict(capsys, "6 planted-signal few-shot gain"):
        start = time.perf_counter()
        corpus = planted_corpus_3
        zero = run_topic(ExperimentConfig(holdout_k=200), corpus, "P-A")
        few = run_topic(
            ExperimentConfig(setting=FEW_SHOT, shots=200, holdout_k=200),
            corpus, "P-A")
        assert few.map >= zero.map + 0.05
        assert time.perf_counter() - start < 120


def test_7_similarity_matrix_properties(capsys):
    with verdict(capsys, "7 similarity matrix properties"):
        rng = random.Random(23)

        def corpus_from(texts):
            records = []
            for topic, topic_texts in texts.items():
                for i, text in enumerate(topic_texts):
                    records.append(TweetRecord(
                        tweet_id=f"{topic}-{i:03d}", topic_id=topic, text=text,
                        label=CW if i % 2 == 0 else NCW, source="CT20"))
            return Corpus(records)

        texts = {
            f"T-{k}": [" ".join(rng.choice("abcdefghij") for _ in range(8))
                       for _ in range(6)]
            for k in range(5)
        }
        embedder = HashEmbedder(dim=24)
        matrix = similarity_matrix(corpus_from(texts), embedder)
        n = len(matrix.topic_ids)
        for i in range(n):
            assert matrix.values[i][i] == 1.0
            for j in range(n):
                assert abs(matrix.values[i][j] - matrix.values[j][i]) <= 1e-9

        permuted = similarity_matrix(
            corpus_from(dict(reversed(list(texts.items())))), embedder)
        for a in texts:
            for b in texts:
                assert matrix.value(a, b) == pytest.approx(
                    permuted.value(a, b), abs=1e-12)

        def scaled(text):
            return [9.0 * v for v in embedder(text)]

        rescaled = similarity_matrix(corpus_from(texts), scaled)
        for a in texts:
            for b in texts:
                assert matrix.value(a, b) == pytest.approx(
                    rescaled.value(a, b), abs=1e-12)

        orthogonal = similarity_matrix(
            corpus_from({"T-A": ["cats cats"], "T-B": ["rain rain rain"]}),
            KeywordAxisEmbedder({"cats": 0, "rain": 1}, dim=2))
        assert orthogonal.value("T-A", "T-B") == 0.0


def test_8_fig4_cold_run_determinism(capsys, tmp_path):
    with verdict(capsys, "8 fig4 cold-run determinism"):
        corpus = tiny_corpus(13, per_topic=260)
        corpus_path = tmp_path / "corpus.jsonl"
        corpus.to_jsonl(corpus_path)
        outputs = []
        for run_dir in (tmp_path / "a", tmp_path / "b"):
            proc = subprocess.run(
                [sys.executable, "-m", "claimcheck.cli", "suite", "fig4",
                 "--corpus", str(corpus_path), "--shots", "200",
                 "--holdout-k", "200", "--seed", "3", "--providers", "mock",
                 "--out", str(run_dir)],
                capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.append((run_dir / "cells.csv").read_bytes())
        assert outputs[0] == outputs[1]


def test_9_live_integration_suites(capsys, tmp_path):
    dataset = os.environ.get("CLAIMCHECK_DATASET")
    providers_spec = os.environ.get("CLAIMCHECK_PROVIDERS")
    if not dataset or not providers_spec:
        with capsys.disabled():
            print("acceptance [9 live integration suites]: SKIP "
                  "(set CLAIMCHECK_DATASET and CLAIMCHECK_PROVIDERS)")
        pytest.skip("live dataset and providers not configured")
    with verdict(capsys, "9 live integration suites"):
        corpus = Corpus.from_jsonl(dataset)
        providers = make_providers(providers_spec)
        backend = os.environ.get("CLAIMCHECK_BACKEND", "encoder")
        topics = corpus.topic_ids()

        zs = run_suite("table2", corpus, ExperimentConfig(backend_id=backend),
                       providers=providers, out_dir=tmp_path / "table2")
        assert len(zs.cells) == len(topics)
        assert not zs.failures

        fs = run_suite(
            "table3", corpus,
            ExperimentConfig(setting=FEW_SHOT, shots=200, backend_id=backend),
            providers=providers, out_dir=tmp_path / "table3")
        assert len(fs.cells) == 4 * len(topics)
        assert not fs.failures
        report = (tmp_path / "table3" / "report.md").read_text(encoding="utf-8")
        assert "Average" in report
        with capsys.disabled():
            for key in sorted(fs.aggregates):
                print(f"  live MAP {key}: {fs.aggregates[key]['map']:.4f}")
