"""Experiment runner and suite orchestration tests."""

import csv
import json
import random
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimcheck import runner
from claimcheck.augment import BT, CWE, NONE, GenerationParams
from claimcheck.errors import (AugmentError, ConfigError, ModelError,
                               ProviderError)
from claimcheck.providers import (
    MockEncoderProvider,
    ProviderBundle,
    identity_translator,
)
from claimcheck.runner import (
    FEW_SHOT,
    SHOT_CHOICES,
    ZERO_SHOT,
    ExperimentConfig,
    RunRecord,
    config_from_mapping,
    corpus_fingerprint,
    prepare_cell,
    run_suite,
    run_topic,
)
from claimcheck.corpus import Corpus
from claimcheck.model import CorpusFeatures, ScorerConfig
from claimcheck.splits import make_holdouts

from mocks import MarkerFiller
from synth import tiny_corpus


def few_shot_config(**kwargs):
    base = dict(setting=FEW_SHOT, strategy=NONE, shots=50, holdout_k=50)
    base.update(kwargs)
    return ExperimentConfig(**base)


def mock_bundle():
    return ProviderBundle(translator=identity_translator, filler=MarkerFiller(),
                          generator=lambda prompt, params: "synthetic text",
                          kind="mock")


# ---------------------------------------------------------------------------
# configuration invariants


def test_zero_shot_config_forbids_augmentation_and_shots():
    with pytest.raises(ConfigError):
        ExperimentConfig(setting=ZERO_SHOT, strategy=BT)
    with pytest.raises(ConfigError):
        ExperimentConfig(setting=ZERO_SHOT, shots=100)


def test_few_shot_config_restricts_shot_counts():
    with pytest.raises(ConfigError):
        ExperimentConfig(setting=FEW_SHOT, shots=70)
    with pytest.raises(ConfigError):
        ExperimentConfig(setting=FEW_SHOT, shots=0)
    for shots in SHOT_CHOICES:
        cfg = ExperimentConfig(setting=FEW_SHOT, shots=shots)
        assert cfg.shots == shots


def test_shots_cannot_exceed_holdout():
    with pytest.raises(ConfigError):
        ExperimentConfig(setting=FEW_SHOT, shots=100, holdout_k=50)


def test_config_rejects_unknown_setting_and_strategy():
    with pytest.raises(ConfigError):
        ExperimentConfig(setting="one_shot")
    with pytest.raises(ConfigError):
        ExperimentConfig(setting=FEW_SHOT, shots=50, strategy="mixup")


def test_config_from_mapping_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="learning_rate"):
        config_from_mapping({"seed": 1, "learning_rate": 0.1})


def test_config_from_mapping_builds_generation_params():
    cfg = config_from_mapping({
        "setting": FEW_SHOT,
        "shots": 200,
        "generation_params": {"num_beams": 2, "max_length": 64},
    })
    assert cfg.generation_params == GenerationParams(num_beams=2, max_length=64)
    assert cfg.generation_params.top_p == 0.75


def test_config_from_mapping_rejects_bad_generation_params():
    with pytest.raises(ConfigError):
        config_from_mapping({"generation_params": {"beam_width": 2}})
    with pytest.raises(ConfigError):
        config_from_mapping({"generation_params": 5})


@pytest.mark.parametrize("threshold", [1.5, -3, float("nan"), "0.5"])
def test_config_rejects_a_threshold_outside_the_unit_interval(threshold):
    with pytest.raises(ConfigError, match="threshold"):
        config_from_mapping({"threshold": threshold})


def test_config_accepts_the_unit_interval_ends_as_threshold():
    assert config_from_mapping({"threshold": 0}).threshold == 0
    assert config_from_mapping({"threshold": 1.0}).threshold == 1.0


@pytest.mark.parametrize("ratio", [0, 1.5])
def test_config_rejects_a_ratio_outside_zero_to_one(ratio):
    with pytest.raises(ConfigError, match="ratio"):
        config_from_mapping({"ratio": ratio})


def test_config_rejects_an_unknown_backend():
    with pytest.raises(ConfigError, match="svm"):
        config_from_mapping({"backend_id": "svm"})


def test_config_rejects_a_misspelled_baseline_hyperparameter():
    with pytest.raises(ModelError, match="iteration"):
        ScorerConfig(hyperparams={"iteration": 1})
    with pytest.raises(ConfigError, match="iteration"):
        config_from_mapping({"hyperparams": {"iteration": 1}})
    # encoder hyperparameters go to the provider unchecked
    config_from_mapping({"backend_id": "encoder",
                         "hyperparams": {"iteration": 1}})


@pytest.mark.parametrize("hyperparams", [
    {"iterations": 0}, {"iterations": -3}, {"iterations": 2.5},
    {"iterations": "10"}, {"iterations": True}, {"l2": "big"},
    {"l2": -1e-4}, {"l2": float("nan")}, {"l2": float("inf")},
    {"l2": None}, {"l2": False},
])
def test_config_rejects_a_bad_baseline_hyperparameter_value(hyperparams):
    name = next(iter(hyperparams))
    with pytest.raises(ModelError, match=name):
        ScorerConfig(hyperparams=hyperparams)
    with pytest.raises(ConfigError, match=name):
        config_from_mapping({"hyperparams": hyperparams})
    # encoder hyperparameters go to the provider unchecked
    config_from_mapping({"backend_id": "encoder", "hyperparams": hyperparams})


def test_config_accepts_integral_iterations_and_zero_l2():
    for hyperparams in ({"iterations": 1}, {"l2": 0}, {"l2": 0.0},
                        {"iterations": 7, "l2": 2}):
        config_from_mapping({"hyperparams": hyperparams})


@pytest.mark.parametrize("backend", ["baseline", "encoder"])
def test_config_rejects_hyperparams_that_are_not_a_mapping(backend):
    with pytest.raises(ConfigError, match="mapping"):
        config_from_mapping({"backend_id": backend, "hyperparams": None})


def test_config_builds_the_scorer_config():
    cfg = ExperimentConfig(backend_id="encoder", seed=4,
                           hyperparams={"epochs": 1})
    assert cfg.scorer_config() == ScorerConfig(
        backend="encoder", hyperparams={"epochs": 1}, seed=4)


def test_config_round_trips_through_mapping():
    cfg = few_shot_config(seed=3, strategy=CWE, ratio=0.4)
    assert config_from_mapping(cfg.to_dict()) == cfg


# ---------------------------------------------------------------------------
# prepare_cell and run_topic


def test_prepare_cell_zero_shot_draws_holdouts_and_excludes_target():
    corpus = tiny_corpus(1, per_topic=120)
    config = ExperimentConfig(holdout_k=50, seed=4)
    cell = prepare_cell(config, corpus, "S-A")
    assert cell.holdouts == make_holdouts(corpus, 50, 4)
    assert cell.augmentation is None
    assert [r.tweet_id for r in cell.train_records] == sorted(cell.split.train)
    assert not any(r.topic_id == "S-A" for r in cell.train_records)
    assert cell.split.test.isdisjoint(cell.holdouts.pool("S-A"))


def test_prepare_cell_augments_the_pool_prefix():
    corpus = tiny_corpus(1, per_topic=120)
    holdouts = make_holdouts(corpus, 50, 0)
    cell = prepare_cell(few_shot_config(strategy=CWE), corpus, "S-A",
                        providers=mock_bundle(), holdouts=holdouts)
    assert cell.holdouts is holdouts
    aug = cell.augmentation
    assert aug.strategy == CWE and aug.pool_size == 50
    origins = {s.origin_tweet_id for s in aug.samples}
    assert origins <= set(holdouts.pool("S-A")[:50])
    assert len(cell.train_records) == len(cell.split.train) + len(aug.samples)


def test_prepare_cell_caches_augmentation_under_the_cache_dir(tmp_path):
    corpus = tiny_corpus(1, per_topic=120)
    config = few_shot_config(strategy=CWE)
    first = prepare_cell(config, corpus, "S-A", providers=mock_bundle(),
                         cache_dir=tmp_path)
    assert len(list((tmp_path / "augment").glob("*.json"))) == 1
    filler = MarkerFiller()
    again = prepare_cell(config, corpus, "S-A",
                         providers=ProviderBundle(filler=filler),
                         cache_dir=tmp_path)
    assert filler.calls == 0
    assert again.augmentation == first.augmentation


def test_few_shot_training_set_grows_by_shots():
    corpus = tiny_corpus(1, per_topic=120)
    holdouts = make_holdouts(corpus, 50, 0)
    zero_details, few_details = {}, {}
    run_topic(ExperimentConfig(), corpus, "S-A", holdouts=holdouts,
              details=zero_details)
    run_topic(few_shot_config(), corpus, "S-A", holdouts=holdouts,
              details=few_details)
    assert few_details["train_size"] == zero_details["train_size"] + 50
    assert few_details["test_size"] == zero_details["test_size"]


def test_augmented_run_adds_synthetic_records():
    corpus = tiny_corpus(1, per_topic=120)
    holdouts = make_holdouts(corpus, 50, 0)
    plain, augmented = {}, {}
    run_topic(few_shot_config(), corpus, "S-A", holdouts=holdouts,
              details=plain)
    run_topic(few_shot_config(strategy=CWE), corpus, "S-A",
              providers=mock_bundle(), holdouts=holdouts, details=augmented)
    assert augmented["aug_samples"] + len(augmented["aug_skips"]) == 50
    assert augmented["train_size"] == plain["train_size"] + augmented["aug_samples"]


def test_missing_provider_errors_name_the_stage():
    corpus = tiny_corpus(1, per_topic=120)
    with pytest.raises(AugmentError, match="stage augment failed"):
        run_topic(few_shot_config(strategy=BT), corpus, "S-A")


def test_run_topic_reports_on_the_target_topic():
    corpus = tiny_corpus(1, per_topic=120)
    report = run_topic(ExperimentConfig(holdout_k=50), corpus, "S-B")
    assert report.target_topic_id == "S-B"
    assert report.n_test > 0
    assert 0.0 <= report.map <= 1.0


# ---------------------------------------------------------------------------
# suites


@pytest.fixture(scope="module")
def suite_corpus():
    return tiny_corpus(5, per_topic=120)


def test_suite_rejects_unknown_name(suite_corpus, tmp_path):
    with pytest.raises(ConfigError):
        run_suite("table9", suite_corpus, ExperimentConfig(), out_dir=tmp_path)


@pytest.mark.parametrize("suite, columns", [
    ("table2", 1),
    ("table3", 4),
    ("table4", 2),
])
def test_suite_cell_counts(suite_corpus, tmp_path, suite, columns):
    record = run_suite(suite, suite_corpus, few_shot_config(),
                       providers=mock_bundle(), out_dir=tmp_path / suite)
    assert len(record.cells) == columns * 3
    assert record.failures == []
    assert all(c["status"] == "ok" for c in record.cells)


def test_fig4_sweeps_every_shot_count(tmp_path):
    corpus = tiny_corpus(5, per_topic=260)
    record = run_suite("fig4", corpus,
                       few_shot_config(shots=200, holdout_k=200),
                       out_dir=tmp_path)
    assert len(record.cells) == len(SHOT_CHOICES) * 3
    seen = {(c["setting"], c["strategy"], c["shots"]) for c in record.cells}
    assert seen == {(FEW_SHOT, NONE, s) for s in SHOT_CHOICES}
    assert "shots sweep runs without augmentation" in record.notes


def test_suite_writes_artifacts(suite_corpus, tmp_path):
    run_suite("table2", suite_corpus, ExperimentConfig(holdout_k=50),
              out_dir=tmp_path)
    assert (tmp_path / "cells.csv").exists()
    assert (tmp_path / "report.md").exists()
    payload = json.loads((tmp_path / "run.json").read_text(encoding="utf-8"))
    assert list(payload) == [
        "suite", "tool_version", "config", "corpus_hash", "notes", "cells",
        "aggregates", "skip_counts", "failures", "wall_clock"]
    assert payload["suite"] == "table2"
    assert payload["corpus_hash"] == corpus_fingerprint(suite_corpus)
    assert "total" in payload["wall_clock"]


def test_suite_aggregates_average_topic_maps(suite_corpus, tmp_path):
    record = run_suite("table2", suite_corpus, ExperimentConfig(holdout_k=50),
                       out_dir=tmp_path)
    key = f"{ZERO_SHOT}/{NONE}/0"
    maps = [c["map"] for c in record.cells]
    assert record.aggregates[key]["map"] == pytest.approx(sum(maps) / len(maps))
    assert record.aggregates[key]["topics"] == 3


def test_suite_marks_failures_and_continues(suite_corpus, tmp_path):
    record = run_suite("table3", suite_corpus, few_shot_config(),
                       providers=None, out_dir=tmp_path)
    failed = [c for c in record.cells if c["status"] == "failed"]
    ok = [c for c in record.cells if c["status"] == "ok"]
    assert len(failed) == 9  # three augmented columns, three topics
    assert len(ok) == 3  # the zero-shot base column still runs
    assert len(record.failures) == len(failed)
    report = (tmp_path / "report.md").read_text(encoding="utf-8")
    assert "Failed cells" in report
    assert "No complete columns" in report


class FlakyScoreEncoder(MockEncoderProvider):
    """Trains fine, then answers scoring with non-numeric scores."""

    def __call__(self, payload):
        reply = super().__call__(payload)
        if payload["mode"] == "score":
            reply = {"scores": ["x"] * len(payload["texts"])}
        return reply


def test_suite_keeps_non_claimcheck_faults_inside_their_cells(suite_corpus,
                                                            tmp_path):
    record = run_suite("table2", suite_corpus,
                       ExperimentConfig(holdout_k=50, backend_id="encoder"),
                       providers=ProviderBundle(encoder=FlakyScoreEncoder()),
                       out_dir=tmp_path)
    assert len(record.cells) == 3
    assert all(c["status"] == "failed" for c in record.cells)
    assert all(c["error"].startswith("ValueError: ") for c in record.cells)
    assert len(record.failures) == 3
    for name in ("report.md", "cells.csv", "run.json"):
        assert (tmp_path / name).exists()
    assert "ValueError" in (tmp_path / "cells.csv").read_text(encoding="utf-8")


class SlowEncoder(MockEncoderProvider):
    def __call__(self, payload):
        time.sleep(0.1)
        return super().__call__(payload)


def test_wall_clock_total_is_wall_time_with_parallel_cells(suite_corpus,
                                                           tmp_path):
    record = run_suite("table3", suite_corpus,
                       few_shot_config(backend_id="encoder", max_workers=2),
                       providers=ProviderBundle(translator=identity_translator,
                                                filler=MarkerFiller(),
                                                generator=lambda p, g: "text",
                                                encoder=SlowEncoder()),
                       out_dir=tmp_path)
    assert record.failures == []
    cell_times = [v for k, v in record.wall_clock.items() if k != "total"]
    assert len(cell_times) == 12
    # two workers overlap cells that mostly wait on the encoder
    assert record.wall_clock["total"] < 0.75 * sum(cell_times)


class PatternedEncoder(MockEncoderProvider):
    """Fails the calls a seeded pattern picks, each in one of four ways:
    a provider error, a fault outside the package's errors, a reply with
    no handle or scores, and NaN scores. Each fault ends the one cell that
    made the call, so `faults` is the number of cells that must fail."""

    FAULTS = (
        lambda payload: ProviderError("injected"),
        lambda payload: RuntimeError("injected"),
        lambda payload: {},
        lambda payload: {"scores": [float("nan")] * len(payload["texts"])},
    )

    def __init__(self, seed: int, rate: float):
        super().__init__()
        self.rng = random.Random(seed)
        self.rate = rate
        self.faults = 0
        self.lock = threading.Lock()

    def __call__(self, payload):
        with self.lock:
            fault = (self.rng.choice(self.FAULTS)
                     if self.rng.random() < self.rate else None)
            self.faults += fault is not None
        if fault is None:
            return super().__call__(payload)
        outcome = fault(payload)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       rate=st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]),
       suite=st.sampled_from(["table2", "table3"]),
       workers=st.sampled_from([1, 2]))
def test_suite_always_finishes_and_marks_every_failed_cell(suite_corpus, seed,
                                                          rate, suite,
                                                          workers):
    encoder = PatternedEncoder(seed, rate)
    providers = ProviderBundle(translator=identity_translator,
                               filler=MarkerFiller(),
                               generator=lambda prompt, params: "text",
                               encoder=encoder)
    config = few_shot_config(backend_id="encoder", max_workers=workers)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        record = run_suite(suite, suite_corpus, config, providers=providers,
                           out_dir=out)
        with open(out / "cells.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        report = (out / "report.md").read_text(encoding="utf-8")
        run = json.loads((out / "run.json").read_text(encoding="utf-8"))

    failed = {"{setting}/{strategy}/{shots}/{topic_id}".format(**row)
              for row in rows if row["status"] == "failed"}
    assert len(rows) == len(record.cells) == (3 if suite == "table2" else 12)
    assert {row["status"] for row in rows} <= {"ok", "failed"}
    assert len(failed) == encoder.faults
    assert {f["cell"] for f in record.failures} == failed
    assert run["failures"] == record.failures
    listed = report.partition("## Failed cells")[2]
    assert {line.split("`")[1] for line in listed.splitlines()
            if line.startswith("- `")} == failed


def test_suite_cells_csv_is_deterministic(suite_corpus, tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    run_suite("table4", suite_corpus, few_shot_config(seed=2),
              providers=mock_bundle(), out_dir=a_dir)
    run_suite("table4", suite_corpus, few_shot_config(seed=2),
              providers=mock_bundle(), out_dir=b_dir)
    assert (a_dir / "cells.csv").read_bytes() == (b_dir / "cells.csv").read_bytes()


def test_suite_rerun_in_place_is_stable(suite_corpus, tmp_path):
    run_suite("table4", suite_corpus, few_shot_config(seed=2),
              providers=mock_bundle(), out_dir=tmp_path)
    first = (tmp_path / "cells.csv").read_bytes()
    run_suite("table4", suite_corpus, few_shot_config(seed=2),
              providers=mock_bundle(), out_dir=tmp_path)
    assert (tmp_path / "cells.csv").read_bytes() == first


def _counting_features(monkeypatch):
    """Patch the runner's corpus matrix with one that counts its builds."""
    builds = []
    lock = threading.Lock()

    class Counted(CorpusFeatures):
        def __init__(self, records):
            with lock:
                builds.append(threading.get_ident())
            time.sleep(0.05)  # widen the window for a second builder
            super().__init__(records)

    monkeypatch.setattr(runner, "CorpusFeatures", Counted)
    return builds


def test_once_builds_a_single_value_under_contention():
    builds = []

    def build():
        builds.append(1)
        time.sleep(0.01)  # let other threads reach the check meanwhile
        return object()

    get = runner._once(build)
    start = threading.Barrier(8)
    seen = []

    def worker():
        start.wait(timeout=10)
        for _ in range(200):
            seen.append(get())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert builds == [1]
    assert len(seen) == 1600 and len({id(v) for v in seen}) == 1


def test_corpus_matrix_is_built_once_lazily_and_workers_agree(
        suite_corpus, tmp_path, monkeypatch):
    builds = _counting_features(monkeypatch)
    serial, parallel = tmp_path / "w1", tmp_path / "w2"
    run_suite("table2", suite_corpus, ExperimentConfig(holdout_k=50),
              out_dir=serial)
    assert len(builds) == 1
    builds.clear()
    record = run_suite("table2", suite_corpus,
                       ExperimentConfig(holdout_k=50, max_workers=2),
                       out_dir=parallel)
    assert record.failures == []
    assert len(builds) == 1
    for name in ("cells.csv", "report.md"):
        assert (parallel / name).read_bytes() == (serial / name).read_bytes()

    builds.clear()
    run_suite("table2", suite_corpus,
              ExperimentConfig(holdout_k=50, max_workers=2), out_dir=parallel)
    assert builds == []  # every model is a cache hit
    assert (parallel / "cells.csv").read_bytes() == \
        (serial / "cells.csv").read_bytes()


def test_improvement_rendering_names_the_base(suite_corpus, tmp_path):
    run_suite("table4", suite_corpus, few_shot_config(),
              providers=mock_bundle(), out_dir=tmp_path)
    report = (tmp_path / "report.md").read_text(encoding="utf-8")
    assert "few-shot(50) no aug" in report
    assert "Average" in report


def test_table3_renders_against_zero_shot(suite_corpus, tmp_path):
    run_suite("table3", suite_corpus, few_shot_config(),
              providers=ProviderBundle(translator=identity_translator,
                                       filler=MarkerFiller(),
                                       generator=lambda p, g: "synthetic text",
                                       kind="mock"),
              out_dir=tmp_path)
    report = (tmp_path / "report.md").read_text(encoding="utf-8")
    assert "zero-shot" in report
    for strategy in ("BT", "CWE", "TxtGen"):
        assert strategy in report


# ---------------------------------------------------------------------------
# run record and fingerprint


def test_run_record_rejects_seed_drift():
    with pytest.raises(ConfigError):
        RunRecord(
            suite="table2",
            config={"seed": 0},
            corpus_hash="x",
            cells=[{"topic_id": "T", "seed": 1}],
            aggregates={},
            skip_counts={},
            failures=[],
            wall_clock={},
        )


def test_fingerprint_ignores_record_order():
    corpus = tiny_corpus(4, per_topic=10)
    reordered = Corpus(list(reversed(list(corpus.records))))
    assert corpus_fingerprint(corpus) == corpus_fingerprint(reordered)


def test_fingerprint_tracks_content():
    a = tiny_corpus(4, per_topic=10)
    b = tiny_corpus(6, per_topic=10)
    assert corpus_fingerprint(a) != corpus_fingerprint(b)
