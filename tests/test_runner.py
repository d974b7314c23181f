"""Experiment runner and suite orchestration tests."""

import csv
import importlib.util
import json
import os
import platform
import random
import re
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

import claimcheck
from claimcheck import model, runner
from claimcheck.augment import BT, CWE, NONE, STRATEGIES
from claimcheck.cache import stable_hash
from claimcheck.errors import (AugmentError, ConfigError, CorpusError,
                               ModelError, ProviderError)
from claimcheck.evaluation import EvalReport
from claimcheck.providers import (
    MockEncoderProvider,
    ProviderBundle,
    identity_translator,
)
from claimcheck.runner import (
    FEW_SHOT,
    SHOT_CHOICES,
    SUITES,
    ZERO_SHOT,
    ExperimentConfig,
    config_from_mapping,
    prepare_cell,
    run_suite,
    run_topic,
)
from claimcheck.corpus import CW, NCW, Corpus, TweetRecord
from claimcheck.model import CorpusFeatures, ScorerConfig, train_scorer
from claimcheck.splits import make_holdouts

import reference_suites
from mocks import MarkerFiller
from reference_cells import reference_cell
from synth import planted_corpus, tiny_corpus


def few_shot_config(**kwargs):
    base = dict(setting=FEW_SHOT, strategy=NONE, shots=50, holdout_k=50)
    base.update(kwargs)
    return ExperimentConfig(**base)


def suite_config(suite, **kwargs):
    """A base config `suite` takes: zero-shot for table2, else few-shot."""
    if suite == "table2":
        return ExperimentConfig(holdout_k=50, **kwargs)
    return few_shot_config(**kwargs)


def mock_bundle():
    return ProviderBundle(translator=identity_translator, filler=MarkerFiller(),
                          generator=lambda prompt, params: "synthetic text")


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


def _cli_setting(shots, strategy):
    """The setting rule the command line applied before the config owned
    it: few-shot with shots or a strategy, else zero-shot."""
    return FEW_SHOT if shots or strategy != NONE else ZERO_SHOT


@pytest.mark.parametrize("shots", (0, 70) + SHOT_CHOICES)
@pytest.mark.parametrize("strategy", (NONE,) + STRATEGIES)
def test_config_resolves_the_setting_the_way_the_command_line_did(shots,
                                                                  strategy):
    try:
        expected = ExperimentConfig(setting=_cli_setting(shots, strategy),
                                    shots=shots, strategy=strategy)
    except ConfigError:
        with pytest.raises(ConfigError):
            ExperimentConfig(shots=shots, strategy=strategy)
        return
    resolved = ExperimentConfig(shots=shots, strategy=strategy)
    assert resolved == expected
    assert asdict(resolved)["setting"] == expected.setting
    assert config_from_mapping({"shots": shots, "strategy": strategy}) \
        == expected


def test_an_explicit_setting_that_contradicts_the_shots_still_fails():
    assert ExperimentConfig(shots=200).setting == FEW_SHOT
    assert ExperimentConfig().setting == ZERO_SHOT
    with pytest.raises(ConfigError, match="no shots"):
        ExperimentConfig(setting=ZERO_SHOT, shots=200)
    with pytest.raises(ConfigError, match="shots must be one of"):
        ExperimentConfig(setting=FEW_SHOT, shots=0)


# the baseline's old learning rate, the fixed experiment constants, and
# the output path, which `--out` and `run_suite(out_dir=)` name
@pytest.mark.parametrize("key", ["learning_rate", "ratio", "pivot",
                                 "threshold", "cw_only_map",
                                 "generation_params", "output_dir"])
def test_config_from_mapping_rejects_unknown_keys(key):
    with pytest.raises(ConfigError,
                       match=re.escape(f"unknown config keys: ['{key}']")):
        config_from_mapping({"seed": 1, key: 0.1})


@pytest.mark.parametrize("key", ["ratio", "pivot", "threshold",
                                 "cw_only_map", "generation_params",
                                 "output_dir"])
def test_experiment_config_takes_no_retired_setting(key):
    """A caller that still passes a retired setting fails loudly rather
    than having it ignored."""
    with pytest.raises(TypeError, match=key):
        ExperimentConfig(**{key: None})


@pytest.mark.parametrize("seed", [True, "7", 1.5, None])
def test_config_from_mapping_rejects_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ConfigError, match="seed must be an integer"):
        config_from_mapping({"seed": seed})
    assert config_from_mapping({"seed": -7}).seed == -7


@pytest.mark.parametrize("out_dir", [5, None, ["runs"], b"runs", ""])
def test_run_suite_refuses_an_out_dir_that_is_not_a_path(out_dir, tmp_path,
                                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    corpus = tiny_corpus(3, per_topic=120)
    with pytest.raises(ConfigError, match=re.escape(
            f"out_dir must be a path, got {out_dir!r}")):
        run_suite("table2", corpus, ExperimentConfig(holdout_k=50),
                  out_dir=out_dir)
    assert list(tmp_path.iterdir()) == []
    assert "features" not in vars(corpus)
    assert not corpus.holdouts


def test_run_suite_takes_out_dir_as_a_required_keyword(suite_corpus):
    with pytest.raises(TypeError, match="out_dir"):
        run_suite("table2", suite_corpus, ExperimentConfig(holdout_k=50))
    with pytest.raises(TypeError):
        run_suite("table2", suite_corpus, ExperimentConfig(holdout_k=50),
                  None, "runs")


@pytest.mark.parametrize("under", ["", "sub"])
def test_a_suite_refuses_an_out_dir_a_file_is_in_the_way_of(tmp_path, under):
    """A file where the directory or one of its parents would go would
    fail each cell on its first cache write; it is refused before any
    holdout is drawn or the corpus counted."""
    corpus = tiny_corpus(3, per_topic=120)
    afile = tmp_path / "afile"
    afile.write_bytes(b"keep me")
    out = afile / under if under else afile
    with pytest.raises(ConfigError, match=re.escape(
            f"out_dir {str(out)!r} cannot be made: {afile} is not a "
            "directory")):
        run_suite("table2", corpus, ExperimentConfig(holdout_k=50),
                  out_dir=out)
    assert afile.read_bytes() == b"keep me"
    assert list(tmp_path.iterdir()) == [afile]
    assert "features" not in vars(corpus)
    assert not corpus.holdouts


@pytest.mark.parametrize("mapping", [
    {"max_workers": "2"}, {"max_workers": -1}, {"max_workers": 1.5},
    {"max_workers": True}, {"max_workers": None}, {"holdout_k": "5"},
    {"holdout_k": 0}, {"holdout_k": 5.0}, {"holdout_k": True},
    {"shots": 50.0}, {"shots": 0.0}, {"shots": "50"}, {"shots": True},
    {"shots": None},
])
def test_config_rejects_a_value_of_the_wrong_type(mapping):
    with pytest.raises(ConfigError, match=next(iter(mapping))):
        config_from_mapping(mapping)


def test_config_accepts_integer_counts():
    cfg = config_from_mapping({"max_workers": 0, "holdout_k": 1})
    assert (cfg.max_workers, cfg.holdout_k) == (0, 1)


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
    cfg = few_shot_config(seed=3, strategy=CWE)
    assert config_from_mapping(asdict(cfg)) == cfg


# ---------------------------------------------------------------------------
# prepare_cell and run_topic


def test_prepare_cell_zero_shot_draws_holdouts_and_excludes_target():
    corpus = tiny_corpus(1, per_topic=120)
    config = ExperimentConfig(holdout_k=50, seed=4)
    cell = prepare_cell(config, corpus, "S-A")
    pool = make_holdouts(corpus, 50, 4).pool("S-A")
    assert cell.augmentation is None
    assert [r.tweet_id for r in cell.train] == cell.split.train_ids()
    assert cell.split.train_ids() == sorted(
        r.tweet_id for r in corpus.records if r.topic_id != "S-A")
    assert not any(r.topic_id == "S-A" for r in cell.train)
    assert [r.tweet_id for r in cell.test] == cell.split.test_ids()
    assert set(cell.split.test_ids()).isdisjoint(pool)
    assert set(cell.split.test_ids()) == {
        r.tweet_id for r in corpus.records_for("S-A")} - set(pool)


def test_prepare_cell_augments_the_pool_prefix():
    corpus = tiny_corpus(1, per_topic=120)
    holdouts = make_holdouts(corpus, 50, 0)
    cell = prepare_cell(few_shot_config(strategy=CWE), corpus, "S-A",
                        providers=mock_bundle())
    assert cell.split.shot_ids() == list(holdouts.pool("S-A")[:50])
    aug = cell.augmentation
    assert aug.strategy == CWE and aug.pool_size == 50
    origins = {s.origin_tweet_id for s in aug.samples}
    assert origins <= set(holdouts.pool("S-A")[:50])
    assert len(cell.train) == len(cell.split.train) + len(aug.samples)
    assert cell.train.extra == aug.samples


@pytest.mark.parametrize("backend", ["baseline", "encoder"])
def test_a_scorer_scores_a_cells_samples_with_its_corpus_rows(backend):
    """`score_many` of a cell's training rows gives one score per row, its
    samples' included, each the score of the same text as a string."""
    corpus = planted_corpus()
    config = few_shot_config(strategy=CWE, backend_id=backend)
    providers = replace(mock_bundle(), encoder=MockEncoderProvider())
    cell = prepare_cell(config, corpus, "P-A", providers=providers)
    assert len(cell.train.extra) == 50
    scorer = train_scorer(cell.train, config.scorer_config(), providers)
    scores = scorer.score_many(cell.train)
    assert len(scores) == len(cell.train) == 900
    assert scores == scorer.score_many([r.text for r in cell.train])


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
    zero_details, few_details = {}, {}
    zero = run_topic(ExperimentConfig(holdout_k=50), corpus, "S-A",
                     details=zero_details)
    few = run_topic(few_shot_config(), corpus, "S-A", details=few_details)
    assert few_details["train_size"] == zero_details["train_size"] + 50
    assert few.n_test == zero.n_test


def test_augmented_run_adds_synthetic_records():
    corpus = tiny_corpus(1, per_topic=120)
    plain, augmented = {}, {}
    run_topic(few_shot_config(), corpus, "S-A", details=plain)
    run_topic(few_shot_config(strategy=CWE), corpus, "S-A",
              providers=mock_bundle(), details=augmented)
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
    out = tmp_path / "run"
    with pytest.raises(ConfigError, match="unknown suite"):
        run_suite("table9", suite_corpus, ExperimentConfig(), out_dir=out)
    assert not out.exists()  # rejected before any directory is made


@pytest.mark.parametrize("suite, shots", [("fig4", 150), ("table3", 200)])
def test_a_bad_column_config_is_rejected_before_any_work(suite, shots,
                                                         tmp_path):
    """The base config is valid, but a column's shots exceed the holdout
    size: no directory is made, no holdout drawn and nothing counted."""
    corpus = tiny_corpus(3, per_topic=120)
    out = tmp_path / "run"
    with pytest.raises(ConfigError, match=rf"shots \({shots}\) exceed "
                                          r"the holdout size \(100\)"):
        run_suite(suite, corpus, ExperimentConfig(holdout_k=100), out_dir=out)
    assert not out.exists()
    assert "features" not in vars(corpus)
    assert not corpus.holdouts


@pytest.mark.parametrize("suite, config, message", [
    ("table2", few_shot_config(), "table2 runs zero_shot only"),
    *[(suite, few_shot_config(strategy=CWE), "runs its own strategies")
      for suite in ("table3", "table4", "fig4")],
    ("fig4", few_shot_config(), "fig4 runs shots .* itself; got 50 shots"),
], ids=["table2-few_shot", "table3-CWE", "table4-CWE", "fig4-CWE", "fig4-50"])
def test_a_suite_refuses_a_base_config_it_would_not_run(suite, config, message,
                                                        tmp_path):
    """A suite picks its own settings: a request it would drop is refused
    before anything is made, drawn or counted."""
    corpus = tiny_corpus(3, per_topic=120)
    out = tmp_path / "run"
    with pytest.raises(ConfigError, match=message):
        run_suite(suite, corpus, config, out_dir=out)
    assert not out.exists()
    assert "features" not in vars(corpus)
    assert not corpus.holdouts


@pytest.mark.parametrize("suite, columns", [
    ("table2", 1),
    ("table3", 4),
    ("table4", 2),
])
def test_suite_cell_counts(suite_corpus, tmp_path, suite, columns):
    record = run_suite(suite, suite_corpus, suite_config(suite),
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


# a base config each suite takes at holdout_k 200: table3's names no shots,
# so its columns run at 200, and table4's runs at 100
_REFERENCE_BASES = {
    "table2": ExperimentConfig(holdout_k=200),
    "table3": ExperimentConfig(holdout_k=200),
    "table4": few_shot_config(shots=100, holdout_k=200),
    "fig4": few_shot_config(shots=200, holdout_k=200),
}


def _planted_report(setting, strategy, shots, topic):
    rng = random.Random(f"{setting}/{strategy}/{shots}/{topic}")
    ap_cw, ap_ncw = rng.random(), rng.random()
    return EvalReport(topic, ap_cw, ap_ncw, (ap_cw + ap_ncw) / 2,
                      rng.random(), rng.random(), rng.random(), 40)


@pytest.mark.parametrize("failed", ["none", "one-topic", "every-topic"])
@pytest.mark.parametrize("suite", SUITES)
def test_report_md_equals_the_tuple_based_reference(suite, failed, tmp_path,
                                                    monkeypatch):
    """report.md is the tuple-based layout's, text for text, when every
    cell finishes and when the last column fails on one topic or on all."""
    corpus = tiny_corpus(3, per_topic=120)  # every topic is held out whole
    base = _REFERENCE_BASES[suite]
    last = reference_suites.suite_cells(suite, base)[-1]
    failed_topics = {"none": [], "one-topic": ["S-B"],
                     "every-topic": corpus.topic_ids()}[failed]

    def outcome(setting, strategy, shots, topic):
        if (setting, strategy, shots) == last and topic in failed_topics:
            return "ModelError: planted fault"
        return _planted_report(setting, strategy, shots, topic)

    def planted_run_topic(config, corpus, topic, providers, cache_dir,
                          details):
        result = outcome(config.setting, config.strategy, config.shots, topic)
        if isinstance(result, str):
            raise ModelError("planted fault")
        details.update(train_size=0, aug_samples=0, aug_skips=[])
        return result

    monkeypatch.setattr(runner, "run_topic", planted_run_topic)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the whole-topic holdout warnings
        record = run_suite(suite, corpus, base, out_dir=tmp_path)
    assert len(record.failures) == len(failed_topics)
    expected = reference_suites.report_md(
        suite, base, corpus.topic_ids(), outcome,
        make_holdouts(corpus, 200, base.seed).notes, record.tool_version,
        record.corpus_hash)
    assert (tmp_path / "report.md").read_text(encoding="utf-8") == expected


def test_suite_writes_artifacts(suite_corpus, tmp_path):
    run_suite("table2", suite_corpus, ExperimentConfig(holdout_k=50),
              out_dir=tmp_path)
    assert (tmp_path / "cells.csv").exists()
    assert (tmp_path / "report.md").exists()
    payload = json.loads((tmp_path / "run.json").read_text(encoding="utf-8"))
    assert list(payload) == [
        "suite", "tool_version", "environment", "config", "out_dir",
        "corpus_hash", "notes", "cells", "aggregates", "failures", "setup_s",
        "wall_clock"]
    assert payload["suite"] == "table2"
    assert payload["corpus_hash"] == suite_corpus.fingerprint
    assert "total" in payload["wall_clock"]


def test_run_json_and_report_name_the_package_version(suite_corpus,
                                                      tmp_path):
    """The tool version is the package's own, also in a checkout that was
    never installed."""
    record = run_suite("table2", suite_corpus, ExperimentConfig(holdout_k=50),
                       out_dir=tmp_path)
    assert record.tool_version == claimcheck.__version__
    assert (f"- tool version: {claimcheck.__version__}\n"
            in (tmp_path / "report.md").read_text(encoding="utf-8"))


def test_run_json_names_the_environment_its_numbers_depend_on(
        suite_corpus, tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    run_suite("table2", suite_corpus, ExperimentConfig(holdout_k=50),
              out_dir=tmp_path)
    payload = json.loads((tmp_path / "run.json").read_text(encoding="utf-8"))
    environment = payload["environment"]
    assert list(environment) == [
        "python", "numpy", "scipy", "simd_extensions", "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS", "MKL_NUM_THREADS", "trainer_version"]
    assert environment["python"] == platform.python_version()
    assert environment["numpy"] == np.__version__
    assert environment["scipy"] == scipy.__version__
    assert environment["OPENBLAS_NUM_THREADS"] == "1"
    assert environment["OMP_NUM_THREADS"] is None
    assert environment["trainer_version"] == model.TRAINER_VERSION
    for name in ("report.md", "cells.csv"):
        text = (tmp_path / name).read_text(encoding="utf-8")
        assert np.__version__ not in text and "SIMD" not in text


def _x86_levels():
    """The X86_V levels this numpy dispatches by, found or not."""
    try:
        simd = np.show_config(mode="dicts")["SIMD Extensions"]
    except (TypeError, KeyError):
        return []
    return simd.get("found", []) + simd.get("not found", [])


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64")
    or "X86_V3" not in _x86_levels(),
    reason="needs an x86-64 numpy that dispatches by X86_V levels")
def test_run_json_records_the_simd_extensions_numpy_was_limited_to(
        tmp_path):
    """NPY_ENABLE_CPU_FEATURES changes which kernels numpy runs, so it
    changes what run.json records."""
    probe = (
        "import json, sys\n"
        "from claimcheck.runner import ExperimentConfig, run_suite\n"
        "from synth import planted_corpus, tiny_corpus\n"
        "record = run_suite('table2', tiny_corpus(3, per_topic=120), "
        "ExperimentConfig(holdout_k=50), out_dir=sys.argv[1])\n"
        "print(json.dumps(record.environment['simd_extensions']))\n"
    )
    paths = [str(Path(claimcheck.__file__).parent.parent),
             str(Path(__file__).parent)]
    env = {**os.environ, "NPY_ENABLE_CPU_FEATURES": "X86_V2",
           "PYTHONPATH": os.pathsep.join(paths)}
    out = subprocess.run([sys.executable, "-c", probe, str(tmp_path)],
                         env=env, capture_output=True, text=True,
                         timeout=120, check=True).stdout
    simd = json.loads(out.splitlines()[-1])
    assert isinstance(simd, dict)
    assert "X86_V3" not in simd.get("found", [])


def test_each_run_json_cell_carries_its_training_size(suite_corpus,
                                                      tmp_path):
    """`train_size` counts the records a cell trained on, synthetic ones
    included; cells.csv keeps its columns."""
    run_suite("table4", suite_corpus, few_shot_config(),
              providers=mock_bundle(), out_dir=tmp_path)
    payload = json.loads((tmp_path / "run.json").read_text(encoding="utf-8"))
    cells = {(c["strategy"], c["topic_id"]): c for c in payload["cells"]}
    for topic in suite_corpus.topic_ids():
        plain, cwe = cells[NONE, topic], cells[CWE, topic]
        assert plain["train_size"] == len(
            prepare_cell(few_shot_config(), suite_corpus, topic).train)
        assert cwe["aug_samples"] > 0
        assert cwe["train_size"] == plain["train_size"] + cwe["aug_samples"]
    with open(tmp_path / "cells.csv", encoding="utf-8") as fh:
        assert next(csv.reader(fh)) == runner.CSV_COLUMNS
    assert "train_size" not in runner.CSV_COLUMNS


def test_run_json_names_the_directory_the_suite_wrote(suite_corpus, tmp_path):
    out = tmp_path / "written" / "t2"
    record = run_suite("table2", suite_corpus, ExperimentConfig(holdout_k=50),
                       out_dir=out)
    payload = json.loads((out / "run.json").read_text(encoding="utf-8"))
    assert payload["out_dir"] == record.out_dir == str(out)
    assert "output_dir" not in payload["config"]
    assert list(payload["config"]) == list(record.config) == [
        "setting", "strategy", "shots", "backend_id", "seed", "holdout_k",
        "hyperparams", "max_workers"]


def test_run_json_names_the_out_dir_as_given(suite_corpus, tmp_path,
                                             monkeypatch):
    monkeypatch.chdir(tmp_path)
    record = run_suite("table2", suite_corpus, ExperimentConfig(holdout_k=50),
                       out_dir="runs/t2/")
    payload = json.loads((tmp_path / "runs/t2/run.json").read_text("utf-8"))
    assert payload["out_dir"] == record.out_dir == "runs/t2/"


def test_an_out_dir_holding_a_lone_surrogate_is_refused_before_any_work(
        tmp_path):
    corpus = tiny_corpus(3, per_topic=120)
    out = tmp_path / "run\udc80"
    with pytest.raises(ConfigError,
                       match=re.escape("out_dir holds a lone surrogate")):
        run_suite("table2", corpus, ExperimentConfig(holdout_k=50),
                  out_dir=out)
    assert list(tmp_path.iterdir()) == []
    assert "features" not in vars(corpus)
    assert not corpus.holdouts


@pytest.mark.parametrize("name, kwargs", [
    ("seed", {"seed": np.int64(1)}),
    ("hyperparams", {"hyperparams": {"iterations": np.int64(50)}}),
])
def test_a_config_value_run_json_cannot_hold_is_refused(name, kwargs):
    """A numpy integer passes the integer checks, but run.json (and the
    model-cache key) cannot encode it; it is refused when the config is
    built, not after every cell."""
    with pytest.raises(ConfigError, match=re.escape(
            f"{name} cannot be written to run.json: Object of type int64 "
            "is not JSON serializable")):
        ExperimentConfig(**kwargs)


def test_a_render_that_fails_leaves_the_previous_artifacts_as_they_were(
        suite_corpus, tmp_path, monkeypatch):
    """Every artifact is rendered before any is written, so a warm rerun
    whose report fails to render keeps all three of the first pass."""
    config = ExperimentConfig(holdout_k=50)
    run_suite("table2", suite_corpus, config, out_dir=tmp_path)
    names = ("cells.csv", "run.json", "report.md")
    before = {name: (tmp_path / name).read_bytes() for name in names}

    def fail(*args):
        raise RuntimeError("render failed")

    monkeypatch.setattr(runner, "_render_report", fail)
    with pytest.raises(RuntimeError, match="render failed"):
        run_suite("table2", suite_corpus, config, out_dir=tmp_path)
    assert {name: (tmp_path / name).read_bytes() for name in names} == before


@pytest.mark.parametrize("field", ["topic_id", "text"])
def test_a_lone_surrogate_in_a_record_is_refused_before_any_cell(
        field, suite_corpus, tmp_path):
    """Records built in Python are not checked as a corpus file's lines
    are. The corpus hash, taken first, refuses a field UTF-8 cannot encode:
    no holdout is drawn, nothing counted and no `--out` or cache made."""
    records = list(suite_corpus.records)
    records[7] = replace(records[7],
                         **{field: getattr(records[7], field) + "\ud800"})
    cut = Corpus(records)
    out = tmp_path / "run"
    with pytest.raises(CorpusError, match=rf"tweet '{records[7].tweet_id}': "
                                          rf"{field} holds a lone surrogate"):
        run_suite("table2", cut, ExperimentConfig(holdout_k=50), out_dir=out)
    assert not out.exists()
    assert "features" not in vars(cut)
    assert not cut.holdouts


@pytest.mark.parametrize("entry", [prepare_cell, run_topic])
def test_a_lone_surrogate_in_a_topic_id_is_a_corpus_error_in_one_cell(
        entry, suite_corpus):
    """A single-cell caller reads no corpus hash. The holdout draw, seeded
    by the topic id, names the topic it cannot encode."""
    cut = Corpus([replace(r, topic_id=r.topic_id + "\ud800")
                  for r in suite_corpus.records])
    target = cut.topic_ids()[0]
    with pytest.raises(CorpusError, match=re.escape(
            f"topic {ascii(target)} holds a lone surrogate")):
        entry(ExperimentConfig(holdout_k=50), cut, target)
    assert not cut.holdouts


def test_an_artifact_that_cannot_be_encoded_leaves_the_previous_ones(
        suite_corpus, tmp_path, monkeypatch):
    """All three artifacts are encoded before any is written. A record
    built in Python holding a lone surrogate fails before any cell; a
    report holding one fails at its encoding."""
    config = ExperimentConfig(holdout_k=50)
    run_suite("table2", suite_corpus, config, out_dir=tmp_path)
    names = ("cells.csv", "run.json", "report.md")
    before = {name: (tmp_path / name).read_bytes() for name in names}
    cut = Corpus([replace(r, topic_id=r.topic_id + "\ud800")
                  for r in suite_corpus.records])
    with pytest.raises(CorpusError):
        run_suite("table2", cut, config, out_dir=tmp_path)
    monkeypatch.setattr(runner, "_render_report", lambda *args: "\ud800")
    with pytest.raises(UnicodeEncodeError):
        run_suite("table2", suite_corpus, config, out_dir=tmp_path)
    assert {name: (tmp_path / name).read_bytes() for name in names} == before


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


def cell_skips(cells) -> dict:
    """The augmentation skips of each run.json cell that had any."""
    return {"{setting}/{strategy}/{shots}/{topic_id}".format(**cell):
            cell["aug_skips"] for cell in cells if cell.get("aug_skips")}


class SeedFailingFiller(MarkerFiller):
    """Fails on the masked texts of some seeds, whatever the call order."""

    def __call__(self, masked_text: str) -> str:
        if int(stable_hash(masked_text), 16) % 3 == 0:
            raise ProviderError("filler refused this text")
        return super().__call__(masked_text)


def test_a_suite_reports_the_augmentation_skips_of_each_cell(
        suite_corpus, tmp_path):
    providers = replace(mock_bundle(), filler=SeedFailingFiller())
    record = run_suite("table3", suite_corpus, few_shot_config(),
                       providers=providers, out_dir=tmp_path)
    assert record.failures == []
    with open(tmp_path / "cells.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["status"] for row in rows] == ["ok"] * 12
    skipped = {}
    for row in rows:
        if row["strategy"] == NONE:
            continue
        samples, skips = int(row["aug_samples"]), int(row["aug_skips"])
        assert samples + skips == int(row["shots"]) == 50
        if skips:
            skipped["{setting}/{strategy}/{shots}/{topic_id}".format(
                **row)] = skips
    assert skipped and all(f"/{CWE}/" in name for name in skipped)
    assert all(skips < 50 for skips in skipped.values())
    run = json.loads((tmp_path / "run.json").read_text(encoding="utf-8"))
    assert cell_skips(run["cells"]) == cell_skips(record.cells) == skipped


class SurrogateFiller(MarkerFiller):
    """Cuts an emoji escape in half in the fills of some seeds."""

    def __call__(self, masked_text: str) -> str:
        filled = super().__call__(masked_text)
        if int(stable_hash(masked_text), 16) % 3 == 0:
            return filled.replace("XSUB", "X\ud83d", 1)
        return filled


def test_a_filler_reply_with_a_lone_surrogate_is_a_skip_not_a_failure(
        suite_corpus, tmp_path):
    providers = replace(mock_bundle(), filler=SurrogateFiller())
    record = run_suite("table3", suite_corpus, few_shot_config(),
                       providers=providers, out_dir=tmp_path)
    assert record.failures == []
    skipped = cell_skips(record.cells)
    assert skipped
    assert all(f"/{CWE}/" in name for name in skipped)
    assert all(skips < 50 for skips in skipped.values())
    for name in ("report.md", "cells.csv", "run.json"):
        assert (tmp_path / name).exists()
    run = json.loads((tmp_path / "run.json").read_text(encoding="utf-8"))
    assert cell_skips(run["cells"]) == skipped


def test_a_garbage_model_cache_entry_fails_only_its_cell(suite_corpus,
                                                         tmp_path):
    config = ExperimentConfig(holdout_k=50)
    run_suite("table2", suite_corpus, config, out_dir=tmp_path)
    entries = sorted((tmp_path / "cache" / "models").iterdir())
    assert len(entries) == 3
    entries[0].write_bytes(b"not a model-cache entry")
    for name in ("report.md", "cells.csv", "run.json"):
        (tmp_path / name).unlink()
    record = run_suite("table2", suite_corpus, config, out_dir=tmp_path)
    (failure,) = record.failures
    assert failure["error"].startswith("ModelError: stage train failed")
    assert f"{entries[0]} is not a baseline model-cache entry" in (
        failure["error"])
    assert [c["status"] for c in record.cells].count("ok") == 2
    for name in ("report.md", "cells.csv", "run.json"):
        assert (tmp_path / name).exists()


class FlakyScoreEncoder(MockEncoderProvider):
    """Trains fine, then fails scoring with an error outside the
    package's own."""

    def __call__(self, payload):
        if payload["mode"] == "score":
            raise RuntimeError("score service crashed")
        return super().__call__(payload)


def test_suite_keeps_non_claimcheck_faults_inside_their_cells(suite_corpus,
                                                            tmp_path):
    record = run_suite("table2", suite_corpus,
                       ExperimentConfig(holdout_k=50, backend_id="encoder"),
                       providers=ProviderBundle(encoder=FlakyScoreEncoder()),
                       out_dir=tmp_path)
    assert len(record.cells) == 3
    assert all(c["status"] == "failed" for c in record.cells)
    assert all(c["error"] == "RuntimeError: score service crashed"
               for c in record.cells)
    assert len(record.failures) == 3
    for name in ("report.md", "cells.csv", "run.json"):
        assert (tmp_path / name).exists()
    assert "RuntimeError" in (tmp_path / "cells.csv").read_text(
        encoding="utf-8")


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


class GatedScoreEncoder(MockEncoderProvider):
    """Holds every score call until `cells` of them have arrived, so each
    cell trains before any cell scores."""

    def __init__(self, cells: int):
        super().__init__()
        self.gate = threading.Barrier(cells, timeout=30)

    def __call__(self, payload):
        if payload["mode"] == "score":
            self.gate.wait()
        return super().__call__(payload)


def test_twelve_workers_that_all_train_before_any_scores_lose_no_model(
        suite_corpus, tmp_path):
    """All 12 cells of a table3 train before the first scores; each cell
    still scores its own model, so cells.csv is the serial run's."""
    def bundle(encoder):
        return ProviderBundle(translator=identity_translator,
                              filler=MarkerFiller(),
                              generator=lambda p, g: "text", encoder=encoder)

    record = run_suite("table3", suite_corpus,
                       few_shot_config(backend_id="encoder", max_workers=12),
                       providers=bundle(GatedScoreEncoder(12)),
                       out_dir=tmp_path / "parallel")
    assert len(record.cells) == 12
    assert record.failures == []
    run_suite("table3", suite_corpus, few_shot_config(backend_id="encoder"),
              providers=bundle(MockEncoderProvider()),
              out_dir=tmp_path / "serial")
    assert ((tmp_path / "parallel" / "cells.csv").read_bytes()
            == (tmp_path / "serial" / "cells.csv").read_bytes())


def test_wall_clock_total_covers_the_corpus_features_build(suite_corpus,
                                                           tmp_path,
                                                           monkeypatch):
    """`total` runs from the top of `run_suite`: a slow first build of the
    corpus's features, which no cell times, falls inside it, and inside
    `setup_s`, which is no `wall_clock` key."""
    delay = 0.3

    class SlowFeatures(CorpusFeatures):
        def __init__(self, records):
            time.sleep(delay)
            super().__init__(records)

    monkeypatch.setattr(model, "CorpusFeatures", SlowFeatures)
    corpus = Corpus(suite_corpus.records)  # no features counted yet
    started = time.perf_counter()
    record = run_suite("table2", corpus, ExperimentConfig(holdout_k=50),
                       out_dir=tmp_path)
    elapsed = time.perf_counter() - started
    assert record.failures == []
    cells = sum(v for k, v in record.wall_clock.items() if k != "total")
    assert record.wall_clock["total"] >= cells + delay
    assert record.wall_clock["total"] <= elapsed
    assert delay <= record.setup_s <= record.wall_clock["total"] - cells
    assert "setup_s" not in record.wall_clock
    run = json.loads((tmp_path / "run.json").read_text(encoding="utf-8"))
    assert run["setup_s"] == record.setup_s


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
    config = suite_config(suite, backend_id="encoder", max_workers=workers)
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


@pytest.mark.parametrize("workers", [1, 2])
def test_a_suite_shows_each_whole_topic_warning_once(tmp_path, workers):
    """The pools are drawn once per corpus, before any cell runs, so even a
    filter that shows every warning shows each once; run.json's notes name
    them on every pass."""
    corpus = tiny_corpus(3, per_topic=60)
    config = ExperimentConfig(holdout_k=60, max_workers=workers)
    expected = [
        f"topic {t}: holdout of 60 covers all 60 records, test set is empty"
        for t in corpus.topic_ids()]
    for shown in (expected, []):  # the draw, then a pass on the kept pools
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            record = run_suite("table2", corpus, config, out_dir=tmp_path)
        assert len(record.failures) == 3  # every test set is empty
        assert sorted(str(w.message) for w in caught) == shown
        assert record.notes == expected
        run = json.loads((tmp_path / "run.json").read_text(encoding="utf-8"))
        assert run["notes"] == expected
        report = (tmp_path / "report.md").read_text(encoding="utf-8")
        assert all(f"- note: {note}\n" in report for note in expected)


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
    """Patch the corpus matrix with one that counts its builds."""
    builds = []
    lock = threading.Lock()

    class Counted(CorpusFeatures):
        def __init__(self, records):
            with lock:
                builds.append(threading.get_ident())
            time.sleep(0.05)  # widen the window for a second builder
            super().__init__(records)

    monkeypatch.setattr(model, "CorpusFeatures", Counted)
    return builds


def test_every_cell_of_a_parallel_pass_shares_one_corpus_matrix(
        suite_corpus, tmp_path, monkeypatch):
    """The matrix is built before any worker starts, so contention cannot
    build a second one: every cell trains and scores rows of the same one."""
    builds = _counting_features(monkeypatch)
    corpus = Corpus(suite_corpus.records)  # no features counted yet
    seen = []

    def recording(train, *args, **kwargs):
        seen.append(train.features)
        return train_scorer(train, *args, **kwargs)

    monkeypatch.setattr(runner, "train_scorer", recording)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        record = run_suite("table3", corpus, few_shot_config(max_workers=4),
                           providers=mock_bundle(), out_dir=tmp_path)
    finally:
        sys.setswitchinterval(interval)
    assert record.failures == []
    assert len(builds) == 1
    assert len(seen) == 12 and all(f is corpus.features for f in seen)


class InFlightCounter:
    """A provider role that notes the most calls it ever had in flight."""

    def __init__(self, reply):
        self.reply = reply
        self.active = self.peak = 0
        self.lock = threading.Lock()

    def __call__(self, *args):
        with self.lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        try:
            time.sleep(0.002)
            return self.reply(*args)
        finally:
            with self.lock:
                self.active -= 1


def test_a_pooled_pass_keeps_provider_calls_within_its_workers(tmp_path):
    """Each pooled cell makes its provider calls one at a time, so two
    workers never have more than two calls in flight."""
    counter = InFlightCounter(lambda text, *rest: text)
    providers = ProviderBundle(translator=counter, filler=counter,
                               generator=counter)
    record = run_suite("table3", tiny_corpus(2, per_topic=120),
                       few_shot_config(max_workers=2), providers=providers,
                       out_dir=tmp_path)
    assert record.failures == []
    assert record.config["max_workers"] == 2
    assert 1 <= counter.peak <= 2


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_single_cell_calls_its_provider_one_at_a_time(strategy):
    """`max_workers` spreads suite cells only: one cell's augmentation
    never has two provider calls in flight."""
    counter = InFlightCounter(lambda text, *rest: text)
    providers = ProviderBundle(translator=counter, filler=counter,
                               generator=counter)
    details = {}
    run_topic(few_shot_config(strategy=strategy, max_workers=4),
              tiny_corpus(2, per_topic=120), "S-A", providers=providers,
              details=details)
    assert details["aug_samples"] + len(details["aug_skips"]) == 50
    assert counter.peak == 1


def test_corpus_matrix_is_built_once_per_pass_and_workers_agree(
        suite_corpus, tmp_path, monkeypatch):
    """A corpus counts its tokens once, whatever passes run over it: a
    serial pass, a parallel pass and an all-hit pass share one build."""
    builds = _counting_features(monkeypatch)
    corpus = Corpus(suite_corpus.records)  # no features counted yet
    serial, parallel = tmp_path / "w1", tmp_path / "w2"
    run_suite("table2", corpus, ExperimentConfig(holdout_k=50),
              out_dir=serial)
    assert len(builds) == 1
    for _ in range(2):  # a parallel pass, then its all-hit rerun
        record = run_suite("table2", corpus,
                           ExperimentConfig(holdout_k=50, max_workers=2),
                           out_dir=parallel)
        assert record.failures == []
        for name in ("cells.csv", "report.md"):
            assert (parallel / name).read_bytes() == \
                (serial / name).read_bytes()
    assert len(builds) == 1


def test_prepare_cell_counts_the_corpus_once_across_targets(monkeypatch):
    builds = _counting_features(monkeypatch)
    corpus = tiny_corpus(2, per_topic=60)
    cells = [prepare_cell(ExperimentConfig(holdout_k=20), corpus, target)
             for target in ("S-A", "S-B")]
    assert len(builds) == 1
    for cell in cells:
        assert cell.train.features is corpus.features
        assert cell.test.features is corpus.features


def test_a_suite_pass_never_looks_records_up_by_id(suite_corpus, tmp_path,
                                                   monkeypatch):
    def no_lookup(self, tweet_id):
        raise AssertionError(f"looked up {tweet_id!r} by id")

    monkeypatch.setattr(Corpus, "record", no_lookup)
    for out in ("cold", "warm"):
        record = run_suite("table3", suite_corpus, few_shot_config(),
                           providers=mock_bundle(), out_dir=tmp_path)
        assert record.failures == [], out
        assert all(c["status"] == "ok" for c in record.cells)


def test_a_suite_pass_builds_no_vocabulary_strings(suite_corpus, tmp_path,
                                                  monkeypatch):
    """Fit or read, a cell scores its own corpus's rows from its column
    layout, so no pass needs the vocabulary's tokens as strings."""
    def no_vocab(self):
        raise AssertionError("built a vocabulary array")

    monkeypatch.setattr(model.ColumnLayout, "vocab", no_vocab)
    for out in ("cold", "warm"):
        record = run_suite("table3", suite_corpus, few_shot_config(),
                           providers=mock_bundle(), out_dir=tmp_path)
        assert record.failures == [], out
        assert all(c["status"] == "ok" for c in record.cells)
    assert len(list((tmp_path / "cache" / "models").iterdir())) == 12


# the functions a cell's stages call through runner's module globals
STAGED_CALLS = ("make_holdouts", "zero_shot_split", "few_shot_split",
                "augment_training", "train_scorer", "evaluate_scores")


def test_stage_seconds_add_up_to_each_cell_time(suite_corpus, tmp_path,
                                                monkeypatch):
    """Runner's clock stands still but for a step of 1000 s each time a
    cell enters one of `STAGED_CALLS` or a scorer's `score_many`, so a
    cell's stages add up to its wall time exactly when every such call is
    inside a stage, whatever the host's load."""
    now = [0.0]

    def stepping(fn):
        def step(*args, **kwargs):
            now[0] += 1000.0
            return fn(*args, **kwargs)
        return step

    monkeypatch.setattr(runner, "time",
                        SimpleNamespace(perf_counter=lambda: now[0]))
    for name in STAGED_CALLS:
        monkeypatch.setattr(runner, name, stepping(getattr(runner, name)))
    for scorer in (model.BaselineScorer, model.EncoderScorer):
        monkeypatch.setattr(scorer, "score_many",
                            stepping(scorer.score_many))
    run_suite("table3", suite_corpus, few_shot_config(),
              providers=mock_bundle(), out_dir=tmp_path)
    run = json.loads((tmp_path / "run.json").read_text(encoding="utf-8"))
    header = (tmp_path / "cells.csv").read_text(encoding="utf-8").split("\n")[0]
    assert "stage" not in header
    for cell in run["cells"]:
        key = "{setting}/{strategy}/{shots}/{topic_id}".format(**cell)
        stages = cell["stage_s"]
        expected = ["split", "train", "score", "evaluate"]
        if cell["strategy"] != NONE:
            expected.insert(1, "augment")
        assert list(stages) == expected
        # the holdouts and the split, then one call for each other stage
        assert stages == {name: 2000.0 if name == "split" else 1000.0
                          for name in expected}, key
        assert sum(stages.values()) == run["wall_clock"][key], key


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       sizes=st.lists(st.integers(50, 70), min_size=2, max_size=3),
       cell=st.sampled_from([(ZERO_SHOT, NONE), (FEW_SHOT, NONE),
                             (FEW_SHOT, BT), (FEW_SHOT, CWE),
                             (FEW_SHOT, "TxtGen")]),
       holdout_k=st.integers(50, 60))
def test_prepare_cell_matches_the_id_based_reference(seed, sizes, cell,
                                                     holdout_k):
    """Positions give the ids, their order and the samples' tail that
    looking every record up by id gives, whatever the file order."""
    rng = random.Random(seed)
    vocab = [f"w{j}" for j in range(25)]
    records = [
        TweetRecord(tweet_id=f"{rng.randrange(10 ** rng.randint(1, 6))}-{t}-{i}",
                    topic_id=f"T{t}",
                    text=" ".join(rng.choices(vocab, k=rng.randint(1, 8))),
                    label=CW if rng.random() < 0.3 else NCW, source="CT20")
        for t, size in enumerate(sizes) for i in range(size)]
    rng.shuffle(records)
    corpus = Corpus(records)
    setting, strategy = cell
    config = ExperimentConfig(setting=setting, strategy=strategy,
                              shots=50 if setting == FEW_SHOT else 0,
                              holdout_k=holdout_k, seed=seed % 7)
    target = rng.choice(corpus.topic_ids())
    providers = mock_bundle()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a pool may cover a whole topic
        prepared = prepare_cell(config, corpus, target, providers=providers)
        holdouts = make_holdouts(corpus, config.holdout_k, config.seed)
    train_ids, test_ids, samples = reference_cell(
        corpus, holdouts, target, config.shots,
        None if strategy == NONE else strategy, providers, config.seed)
    assert prepared.split.train_ids() == train_ids
    assert prepared.split.test_ids() == test_ids
    held = list(prepared.train)[:len(train_ids)]
    assert held == [corpus.record(i) for i in train_ids]
    assert prepared.train.extra == samples
    assert list(prepared.train) == held + list(samples)
    assert list(prepared.test) == [corpus.record(i) for i in test_ids]
    assert prepared.test.labels().tolist() == [corpus.record(i).label for i in test_ids]


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
                                       generator=lambda p, g: "synthetic text"),
              out_dir=tmp_path)
    report = (tmp_path / "report.md").read_text(encoding="utf-8")
    assert "zero-shot" in report
    for strategy in ("BT", "CWE", "TxtGen"):
        assert strategy in report


# ---------------------------------------------------------------------------
# run record and fingerprint


def test_fingerprint_ignores_record_order():
    corpus = tiny_corpus(4, per_topic=10)
    reordered = Corpus(list(reversed(list(corpus.records))))
    assert corpus.fingerprint == reordered.fingerprint


def test_fingerprint_is_computed_once_per_corpus(monkeypatch):
    corpus = tiny_corpus(4, per_topic=10)
    expected = stable_hash(sorted(
        (r.tweet_id, r.topic_id, r.text, r.label, r.source)
        for r in corpus.records))
    assert corpus.fingerprint == expected
    monkeypatch.setattr("claimcheck.corpus.stable_hash", None)
    assert corpus.fingerprint == expected


def test_fingerprint_tracks_content():
    a = tiny_corpus(4, per_topic=10)
    b = tiny_corpus(6, per_topic=10)
    assert a.fingerprint != b.fingerprint


# ---------------------------------------------------------------------------
# the benchmark's tracer


def test_the_bench_tracer_finds_everything_it_patches():
    """bench/tracing.py (stdlib only) swaps runner functions, scorer
    methods and provider roles by name: each name must still be there."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert [name for name in tracing.RUNNER_LAYERS
            if not callable(getattr(runner, name, None))] == []
    assert [name for name in tracing.SCORER_CLASSES
            if not hasattr(getattr(model, name, None), "score_many")] == []
    assert set(tracing.PROVIDER_ROLES) <= {
        f.name for f in fields(ProviderBundle)}
