"""End-to-end command-line tests, driven in process through main()."""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace

import pytest

from claimcheck import cli
from claimcheck.cli import build_parser, main, _settings
from claimcheck.corpus import Corpus
from claimcheck.model import BASELINE_DEFAULTS, GRADIENT_TOLERANCE
from claimcheck.providers import MockEncoderProvider, make_providers
from claimcheck.runner import FEW_SHOT, ZERO_SHOT, ExperimentConfig, prepare_cell

from synth import tiny_corpus


def write_simple_tsv(path, corpus):
    """Serialize records in the four-column headerless layout."""
    lines = []
    for rec in corpus.records:
        text = rec.text.replace("\t", " ")
        lines.append(f"{rec.topic_id}\t{rec.tweet_id}\t{text}\t{rec.label}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def corpus_jsonl(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-corpus")
    tsv = root / "tweets.tsv"
    write_simple_tsv(tsv, tiny_corpus(3, per_topic=120))
    rc = main(["load", "--input", f"simple={tsv}", "--allow-noncanonical",
               "--out", str(root / "loaded")])
    assert rc == 0
    return root / "loaded" / "corpus.jsonl"


# ---------------------------------------------------------------------------
# load and normalize


def test_load_writes_corpus_and_stats(corpus_jsonl):
    assert corpus_jsonl.exists()
    stats = json.loads(
        corpus_jsonl.with_name("stats.json").read_text(encoding="utf-8"))
    assert stats["total"] == 360
    assert set(stats["topics"]) == {"S-A", "S-B", "S-C"}
    assert stats["duplicates_dropped"] == 0
    assert list(stats) == [
        "total", "topics", "overall_cw_fraction", "files",
        "duplicates_dropped", "topics_before_merge", "topics_after_merge"]


def test_load_rejects_malformed_input_spec(tmp_path, capsys):
    rc = main(["load", "--input", "nosuchpreset=/tmp/x.tsv",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_load_enforces_canonical_topics_by_default(tmp_path, capsys):
    tsv = tmp_path / "tweets.tsv"
    write_simple_tsv(tsv, tiny_corpus(3, per_topic=10))
    rc = main(["load", "--input", f"simple={tsv}", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def _assert_not_utf8_error(capsys, where):
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: not UTF-8 text: "
                          f"invalid start byte at byte ")
    assert "Traceback" not in err


def test_load_reports_a_tsv_that_is_not_utf8(tmp_path, capsys):
    tsv = tmp_path / "tweets.tsv"
    tsv.write_bytes(b"S-A\t1\tfine text\t1\nS-A\t2\tbad \xff text\t0\n")
    rc = main(["load", "--input", f"simple={tsv}", "--allow-noncanonical",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    _assert_not_utf8_error(capsys, "tweets.tsv:2")
    assert not (tmp_path / "o").exists()


def test_normalize_reports_a_corpus_that_is_not_utf8_and_keeps_its_output(
        corpus_jsonl, tmp_path, capsys):
    src = tmp_path / "corpus.jsonl"
    src.write_bytes(corpus_jsonl.read_bytes() + b'{"text": "\xff"}\n')
    dst = tmp_path / "normalized.jsonl"
    dst.write_bytes(b"kept\n")
    assert main(["normalize", str(src), str(dst)]) == 2
    _assert_not_utf8_error(capsys, "corpus.jsonl:361")
    assert dst.read_bytes() == b"kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "corpus.jsonl", "normalized.jsonl"]


def test_a_failed_normalize_makes_no_output_directory(tmp_path, capsys):
    src = tmp_path / "bad.jsonl"
    src.write_bytes(b'{"tweet_id": "1", "text": "\xff"}\n')
    assert main(["normalize", str(src),
                 str(tmp_path / "sub" / "dir" / "out.jsonl")]) == 2
    _assert_not_utf8_error(capsys, "bad.jsonl:1")
    assert list(tmp_path.iterdir()) == [src]


def test_normalize_refuses_a_lone_surrogate_without_a_traceback(tmp_path,
                                                                capsys):
    src = tmp_path / "lone.jsonl"
    src.write_text('{"tweet_id": "1", "text": "abc \\ud800 def"}\n',
                   encoding="utf-8")
    assert main(["normalize", str(src),
                 str(tmp_path / "sub" / "normalized.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err == ("error: lone.jsonl:1: bad record: "
                   "'text' holds a lone surrogate\n")
    assert list(tmp_path.iterdir()) == [src]


def test_suite_refuses_a_lone_surrogate_before_any_cell(corpus_jsonl,
                                                        tmp_path, capsys):
    # a tweet's emoji escape cut in half is refused on read, not after
    # every cell has run, when the corpus hash cannot encode it
    src = tmp_path / "corpus.jsonl"
    src.write_bytes(corpus_jsonl.read_bytes() + b'{"tweet_id": "x", '
                    b'"topic_id": "S-A", "text": "a \\ud83d", "label": "CW"}\n')
    rc = main(["suite", "table2", "--corpus", str(src), "--holdout-k", "30",
               "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: corpus.jsonl:361: bad record: "
                          "'text' holds a lone surrogate")
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_suite_reports_a_corpus_that_is_not_utf8(corpus_jsonl, tmp_path,
                                                 capsys):
    src = tmp_path / "corpus.jsonl"
    src.write_bytes(b"\xff" + corpus_jsonl.read_bytes())
    rc = main(["suite", "table2", "--corpus", str(src),
               "--out", str(tmp_path / "run")])
    assert rc == 2
    _assert_not_utf8_error(capsys, "corpus.jsonl:1")
    assert not (tmp_path / "run").exists()


def test_normalize_is_idempotent_at_file_level(corpus_jsonl, tmp_path):
    once = tmp_path / "once.jsonl"
    twice = tmp_path / "twice.jsonl"
    assert main(["normalize", str(corpus_jsonl), str(once)]) == 0
    assert main(["normalize", str(once), str(twice)]) == 0
    first = [json.loads(l)["text"] for l in
             once.read_text(encoding="utf-8").splitlines()]
    second = [json.loads(l)["text"] for l in
              twice.read_text(encoding="utf-8").splitlines()]
    assert first == second
    assert len(first) == len(list(Corpus.from_jsonl(corpus_jsonl).records))


def test_normalize_rejects_a_tweet_that_normalizes_to_nothing(tmp_path,
                                                              capsys):
    src = tmp_path / "corpus.jsonl"
    rows = [{"tweet_id": "1", "topic_id": "S-A", "text": "نص", "label": "CW"},
            {"tweet_id": "2", "topic_id": "S-A", "text": "😀😀 <b></b>",
             "label": "NCW"}]
    src.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    dst = tmp_path / "normalized.jsonl"
    assert main(["normalize", str(src), str(dst)]) == 2
    assert ("error: corpus.jsonl:2: tweet 2 normalizes to empty text"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == [src]
    # an existing output is left as it was
    dst.write_text("previous\n", encoding="utf-8")
    assert main(["normalize", str(src), str(dst)]) == 2
    assert dst.read_text(encoding="utf-8") == "previous\n"
    assert sorted(tmp_path.iterdir()) == [src, dst]


def test_a_bad_corpus_record_is_an_error_not_a_traceback(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    path.write_text("[1]\n", encoding="utf-8")
    rc = main(["split", "--corpus", str(path), "--target", "S-A"])
    assert rc == 2
    assert "error: corpus.jsonl:1: bad record: " in capsys.readouterr().err


# ---------------------------------------------------------------------------
# split / train / rank / eval


def test_split_zero_shot_excludes_target(corpus_jsonl, tmp_path):
    out = tmp_path / "split.json"
    rc = main(["split", "--corpus", str(corpus_jsonl), "--target", "S-A",
               "--holdout-k", "30", "--out", str(out)])
    assert rc == 0
    blob = json.loads(out.read_text(encoding="utf-8"))
    assert blob["target"] == "S-A"
    assert blob["shots"] == 0
    assert all(not i.startswith("S-A") for i in blob["train_ids"])
    assert all(i.startswith("S-A") for i in blob["test_ids"])


def test_split_few_shot_adds_pool_prefix(corpus_jsonl, tmp_path):
    out = tmp_path / "split.json"
    rc = main(["split", "--corpus", str(corpus_jsonl), "--target", "S-A",
               "--holdout-k", "50", "--shots", "50", "--out", str(out)])
    assert rc == 0
    blob = json.loads(out.read_text(encoding="utf-8"))
    assert blob["shots"] == 50
    target_train = [i for i in blob["train_ids"] if i.startswith("S-A")]
    assert sorted(target_train) == sorted(blob["shot_ids"])
    assert len(target_train) == 50


def test_train_rank_round_trip(corpus_jsonl, tmp_path, capsys):
    model = tmp_path / "model.npz"
    rc = main(["train", "--corpus", str(corpus_jsonl), "--target", "S-B",
               "--holdout-k", "30", "--out", str(model)])
    assert rc == 0
    assert model.exists()

    ranked = tmp_path / "ranked.csv"
    rc = main(["rank", "--corpus", str(corpus_jsonl), "--target", "S-B",
               "--model", str(model), "--holdout-k", "30",
               "--out", str(ranked)])
    assert rc == 0
    lines = ranked.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "rank,tweet_id,score,label"
    assert len(lines) == 1 + 90  # 120 records minus the 30-tweet pool


def test_normalize_reports_a_record_without_text(tmp_path, capsys):
    src = tmp_path / "corpus.jsonl"
    src.write_text('{"tweet_id": "1"}\n', encoding="utf-8")
    dst = tmp_path / "normalized.jsonl"
    assert main(["normalize", str(src), str(dst)]) == 2
    assert ("error: corpus.jsonl:1: bad record: no text"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == [src]


def test_rank_rejects_a_file_that_is_not_a_saved_model(corpus_jsonl,
                                                       tmp_path, capsys):
    # a model-cache entry holds only coefficients, so it is not one either
    assert main(["suite", "table2", "--corpus", str(corpus_jsonl),
                 "--holdout-k", "30", "--out", str(tmp_path / "run")]) == 0
    entry = next((tmp_path / "run" / "cache" / "models").iterdir())
    capsys.readouterr()
    for model in (corpus_jsonl, entry):
        assert main(["rank", "--corpus", str(corpus_jsonl), "--target", "S-B",
                     "--model", str(model), "--holdout-k", "30"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model} is not a saved baseline model")
    # nor is a directory, which open() refuses with an OSError
    assert main(["rank", "--corpus", str(corpus_jsonl), "--target", "S-B",
                 "--model", str(tmp_path), "--holdout-k", "30"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_train_and_rank_create_the_out_directory(corpus_jsonl, tmp_path,
                                                capsys):
    model = tmp_path / "models" / "model.npz"
    ranked = tmp_path / "runs" / "ranked.csv"
    assert main(["train", "--corpus", str(corpus_jsonl), "--target", "S-B",
                 "--holdout-k", "30", "--out", str(model)]) == 0
    assert main(["rank", "--corpus", str(corpus_jsonl), "--target", "S-B",
                 "--model", str(model), "--holdout-k", "30",
                 "--out", str(ranked)]) == 0
    rows = [line.split(",") for line in
            ranked.read_text(encoding="utf-8").splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
    # descending P(CW), ties by ascending id
    keys = [(-float(r[2]), r[1]) for r in rows]
    assert keys == sorted(keys)


def test_train_refuses_the_encoder_backend_before_any_provider_call(
        corpus_jsonl, tmp_path, capsys, monkeypatch):
    bundle, requests = make_providers("mock"), []
    encoder = bundle.encoder

    def recording(payload):
        requests.append(payload)
        return encoder(payload)

    bundle.encoder = recording
    monkeypatch.setattr(cli, "make_providers", lambda spec: bundle)
    config = tmp_path / "config.json"
    config.write_text('{"backend_id": "encoder"}', encoding="utf-8")
    model = tmp_path / "model.npz"
    rc = main(["train", "--corpus", str(corpus_jsonl), "--target", "S-B",
               "--holdout-k", "30", "--config", str(config),
               "--providers", "mock", "--out", str(model)])
    assert rc == 2
    assert "baseline" in capsys.readouterr().err
    assert requests == []
    assert not model.exists()


def test_train_writes_exactly_the_out_path(corpus_jsonl, tmp_path, capsys):
    model = tmp_path / "model.bin"
    rc = main(["train", "--corpus", str(corpus_jsonl), "--target", "S-B",
               "--holdout-k", "30", "--out", str(model)])
    assert rc == 0
    assert [p.name for p in tmp_path.glob("model.bin*")] == ["model.bin"]
    assert capsys.readouterr().out.rstrip().endswith(f"-> {model}")

    rc = main(["rank", "--corpus", str(corpus_jsonl), "--target", "S-B",
               "--model", str(model), "--holdout-k", "30"])
    assert rc == 0


def test_train_reports_the_solver_iterations_and_gradient_norm(
        corpus_jsonl, tmp_path, capsys):
    model = tmp_path / "model.npz"
    rc = main(["train", "--corpus", str(corpus_jsonl), "--target", "S-B",
               "--holdout-k", "30", "--out", str(model)])
    assert rc == 0
    found = re.fullmatch(
        r"trained on \d+ records in (\d+) solver iterations and (\d+) CG "
        r"steps \(gradient norm (\S+)\) -> (.+)",
        capsys.readouterr().out.rstrip())
    assert found, "unexpected train summary"
    assert 1 <= int(found[1]) < BASELINE_DEFAULTS["iterations"]
    assert int(found[2]) >= int(found[1])  # one CG step or more an iteration
    assert float(found[3]) < GRADIENT_TOLERANCE
    assert found[4] == str(model)


def test_augmented_train_uses_the_cell_training_data(corpus_jsonl, tmp_path,
                                                     capsys):
    model = tmp_path / "model.npz"
    rc = main(["train", "--corpus", str(corpus_jsonl), "--target", "S-A",
               "--strategy", "CWE", "--shots", "50", "--holdout-k", "50",
               "--providers", "mock", "--out", str(model)])
    assert rc == 0
    config = ExperimentConfig(setting=FEW_SHOT, strategy="CWE", shots=50,
                              holdout_k=50)
    cell = prepare_cell(config, Corpus.from_jsonl(corpus_jsonl), "S-A",
                        make_providers("mock"))
    assert len(cell.train) == len(cell.split.train) + 50
    assert f"trained on {len(cell.train)} records" in \
        capsys.readouterr().out


def test_eval_reports_map(corpus_jsonl, tmp_path, capsys):
    out = tmp_path / "eval.json"
    rc = main(["eval", "--corpus", str(corpus_jsonl), "--target", "S-C",
               "--holdout-k", "30", "--out", str(out)])
    assert rc == 0
    assert "MAP" in capsys.readouterr().out
    blob = json.loads(out.read_text(encoding="utf-8"))
    assert "S-C" in json.dumps(blob)


def test_eval_unknown_target_exits_two(corpus_jsonl, capsys):
    rc = main(["eval", "--corpus", str(corpus_jsonl), "--target", "S-Z",
               "--holdout-k", "30"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_missing_corpus_file_exits_two(tmp_path, capsys):
    rc = main(["eval", "--corpus", str(tmp_path / "nope.jsonl"),
               "--target", "S-A"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# augment and similarity


def test_augment_writes_synthetic_samples(corpus_jsonl, tmp_path, capsys):
    out = tmp_path / "synthetic.jsonl"
    rc = main(["augment", "--corpus", str(corpus_jsonl), "--target", "S-A",
               "--strategy", "CWE", "--shots", "50", "--holdout-k", "50",
               "--providers", "mock", "--out", str(out)])
    assert rc == 0
    samples = [json.loads(l) for l in
               out.read_text(encoding="utf-8").splitlines()]
    assert len(samples) == 50
    assert all(list(s) == ["origin_tweet_id", "text", "label", "strategy"]
               for s in samples)
    assert all(s["strategy"] == "CWE" for s in samples)
    assert all(s["origin_tweet_id"].startswith("S-A") for s in samples)


def test_augment_creates_the_out_directory(corpus_jsonl, tmp_path, capsys):
    out = tmp_path / "new" / "dir" / "synthetic.jsonl"
    rc = main(["augment", "--corpus", str(corpus_jsonl), "--target", "S-A",
               "--strategy", "CWE", "--shots", "50", "--holdout-k", "50",
               "--providers", "mock", "--out", str(out)])
    assert rc == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 50


def test_similarity_writes_matrix(corpus_jsonl, tmp_path, capsys):
    rc = main(["similarity", "--corpus", str(corpus_jsonl),
               "--providers", "mock", "--out", str(tmp_path)])
    assert rc == 0
    blob = json.loads((tmp_path / "similarity.json").read_text(encoding="utf-8"))
    assert blob["topic_ids"] == ["S-A", "S-B", "S-C"]
    assert (tmp_path / "similarity.csv").exists()


# each experiment command, as it would run on the tiny corpus
_RUNNABLE = {
    "split": ["split", "--target", "S-A"],
    "train": ["train", "--target", "S-A"],
    "rank": ["rank", "--target", "S-A", "--model", "model.npz"],
    "eval": ["eval", "--target", "S-A"],
    "augment": ["augment", "--target", "S-A", "--strategy", "CWE",
                "--shots", "50", "--providers", "mock"],
    "similarity": ["similarity", "--providers", "mock"],
    "suite": ["suite", "table2"],
}

# each command and a flag it does not read
_FLAG_CASES = [
    *[("similarity", flag) for flag in (
        ["--seed", "3"], ["--backend", "encoder"], ["--shots", "50"],
        ["--strategy", "CWE"], ["--holdout-k", "50"])],
    ("split", ["--strategy", "CWE"]), ("split", ["--backend", "encoder"]),
    ("split", ["--providers", "none"]),
    ("rank", ["--strategy", "BT"]), ("rank", ["--backend", "encoder"]),
    ("rank", ["--providers", "none"]),
    ("train", ["--backend", "encoder"]),
    ("augment", ["--backend", "encoder"]),
    ("suite", ["--strategy", "CWE"]),
]


@pytest.mark.parametrize("command, flag", _FLAG_CASES,
                         ids=[f"{c}{f[0]}" for c, f in _FLAG_CASES])
def test_a_command_rejects_the_flags_it_would_ignore(
        corpus_jsonl, tmp_path, capsys, command, flag):
    """A command takes only the flags it reads; argparse refuses the
    others before anything is read or written."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exited:
        main([*_RUNNABLE[command], "--corpus", str(corpus_jsonl),
              "--out", str(out), *flag])
    assert exited.value.code == 2
    assert (f"unrecognized arguments: {' '.join(flag)}"
            in capsys.readouterr().err)
    assert not out.exists()


_URL_ERROR = ("provider URL must be http(s)://<host>..., "
              "got 'http:localhost:8000'")
# a case name, a command line, its config file and the one error line it
# prints instead of reading its corpus
_REFUSALS = [
    *[(f"{command}-bad-key", argv, {"sede": 1},
       "unknown config keys: ['sede']") for command, argv in _RUNNABLE.items()],
    *[(f"{command}-bad-seed", argv, {"seed": "x"},
       "seed must be an integer, got 'x'")
      for command, argv in _RUNNABLE.items()],
    # `--out` alone names where a command writes
    *[(f"{command}-output_dir", argv, {"output_dir": "x"},
       "unknown config keys: ['output_dir']")
      for command, argv in _RUNNABLE.items()],
    ("split-strategy", _RUNNABLE["split"], {"strategy": "CWE"},
     "split never augments; got strategy 'CWE'"),
    ("rank-strategy", _RUNNABLE["rank"], {"strategy": "BT", "shots": 50},
     "rank never augments; got strategy 'BT'"),
    ("rank-backend_id", _RUNNABLE["rank"], {"backend_id": "encoder"},
     "rank runs the baseline backend only, since encoder models live with "
     "their provider; got backend_id 'encoder'"),
    ("train-backend_id", _RUNNABLE["train"] + ["--providers", "mock"],
     {"backend_id": "encoder"},
     "train runs the baseline backend only, since encoder models live with "
     "their provider; got backend_id 'encoder'"),
    ("augment-setting", _RUNNABLE["augment"], {"setting": "zero_shot"},
     "zero_shot runs cannot use augmentation"),
    ("augment-no-strategy", ["augment", "--target", "S-A", "--shots", "50",
                             "--providers", "mock"],
     {}, "augment requires --strategy BT, CWE, or TxtGen"),
    ("suite-table2-shots", ["suite", "table2", "--shots", "50"], {},
     "suite table2 runs zero_shot only; got few_shot at 50 shots"),
    ("suite-shots", ["suite", "fig4", "--providers", "mock"], {"shots": 50},
     "suite fig4 runs shots (50, 100, 150, 200) itself; got 50 shots"),
    *[(f"{command}-bad-url", _RUNNABLE[command] + [
        "--providers", "http:localhost:8000"], {}, _URL_ERROR)
      for command in ("train", "eval", "augment", "similarity", "suite")],
    ("similarity-no-embedder", ["similarity", "--providers", "none"], {},
     "similarity requires an embedder provider"),
    ("similarity-config-no-embedder", ["similarity"], {"providers": "none"},
     "similarity requires an embedder provider"),
]


@pytest.mark.parametrize("command, setting, message",
                         [case[1:] for case in _REFUSALS],
                         ids=[case[0] for case in _REFUSALS])
def test_every_command_checks_its_settings_before_reading_the_corpus(
        tmp_path, monkeypatch, capsys, command, setting, message):
    """Config, flags and providers pass one check before `--corpus` is
    read, so a missing corpus does not hide a bad setting. No command
    overrides a config value: one that contradicts what the command runs
    is refused, and nothing is written."""
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(setting), encoding="utf-8")
    rc = main([*command, "--corpus", "missing.jsonl", "--config",
               str(config), "--out", "out"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("command", list(_RUNNABLE))
def test_an_out_holding_a_lone_surrogate_exits_two_before_the_corpus_is_read(
        tmp_path, monkeypatch, capsys, command):
    """argv decodes a byte that is not UTF-8 to a lone surrogate; every
    experiment command refuses such an `--out` before `--corpus` is read."""
    monkeypatch.chdir(tmp_path)
    rc = main([*_RUNNABLE[command], "--corpus", "missing.jsonl",
               "--out", "bad\udcffout"])
    assert rc == 2
    assert capsys.readouterr().err == "error: --out holds a lone surrogate\n"
    assert list(tmp_path.iterdir()) == []


# where each command writes without `--out`; split, rank and eval print
_DEFAULT_OUTPUTS = {"split": None, "train": "model.npz", "rank": None,
                    "eval": None, "augment": "synthetic.jsonl",
                    "similarity": ".", "suite": "runs"}


def test_each_command_writes_to_its_parser_default_without_out(
        corpus_jsonl, tmp_path, monkeypatch, capsys):
    """train writes the model rank then reads, in the working directory."""
    monkeypatch.chdir(tmp_path)
    for command, argv in _RUNNABLE.items():
        argv = [*argv, "--corpus", str(corpus_jsonl)]
        if command != "similarity":
            argv += ["--holdout-k", "50"]
        assert build_parser().parse_args(argv).out == \
            _DEFAULT_OUTPUTS[command], command
        assert main(argv) == 0, command
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "model.npz", "runs", "similarity.csv", "similarity.json",
        "synthetic.jsonl"]
    assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == [
        "cache", "cells.csv", "report.md", "run.json"]


def test_a_suite_whose_out_is_a_file_exits_two_and_keeps_the_file(
        corpus_jsonl, tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_bytes(b"keep me")
    rc = main(["suite", "table2", "--corpus", str(corpus_jsonl),
               "--holdout-k", "30", "--out", str(afile)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: out_dir {str(afile)!r} cannot be made: {afile} is not a "
        "directory\n")
    assert afile.read_bytes() == b"keep me"
    assert list(tmp_path.iterdir()) == [afile]


class NullScoreEncoder(MockEncoderProvider):
    """Trains as the mock does, then scores every text `null`."""

    def __call__(self, payload):
        reply = super().__call__(payload)
        if payload["mode"] == "score":
            reply = {"scores": [None] * len(payload["texts"])}
        return reply


@pytest.mark.parametrize("command, role, provider, message", [
    (["eval", "--target", "S-A", "--backend", "encoder", "--holdout-k", "30"],
     "encoder", NullScoreEncoder(),
     "stage score failed for this run: encoder score None is not a number"),
    (["similarity"], "embedder", lambda text: ["0.5", "0.1"],
     "embedder returned '0.5', not a number, for S-A-"),
], ids=["eval-null-score", "similarity-string-vector"])
def test_a_provider_reply_that_is_not_numbers_exits_two(
        corpus_jsonl, tmp_path, monkeypatch, capsys, command, role, provider,
        message):
    bundle = replace(make_providers("mock"), **{role: provider})
    monkeypatch.setattr(cli, "make_providers", lambda spec: bundle)
    out = tmp_path / "out"
    rc = main([*command, "--corpus", str(corpus_jsonl), "--providers",
               "mock", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# suites


def test_suite_table2_runs_clean(corpus_jsonl, tmp_path, capsys):
    rc = main(["suite", "table2", "--corpus", str(corpus_jsonl),
               "--holdout-k", "30", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "3/3 cells ok" in out
    for name in ("report.md", "cells.csv", "run.json"):
        assert (tmp_path / name).exists()


def test_suite_exits_nonzero_on_failed_cells(corpus_jsonl, tmp_path, capsys):
    rc = main(["suite", "table3", "--corpus", str(corpus_jsonl),
               "--shots", "50", "--holdout-k", "50", "--providers", "none",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "FAILED" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# configuration plumbing


# each command's options, in the order build_parser() adds them
PINNED_OPTIONS = {
    "load": "--input --allow-noncanonical --out",
    "normalize": "",
    "split": "--corpus --target --config --out --seed --shots --holdout-k",
    "train": "--corpus --target --config --out --providers --seed --shots "
             "--strategy --holdout-k",
    "rank": "--corpus --target --model --config --out --seed --shots "
            "--holdout-k",
    "eval": "--corpus --target --config --out --providers --seed --backend "
            "--shots --strategy --holdout-k",
    "augment": "--corpus --target --config --out --providers --seed --shots "
               "--strategy --holdout-k",
    "similarity": "--corpus --config --out --providers",
    "suite": "--corpus --config --out --providers --seed --backend --shots "
             "--holdout-k --workers",
}


def test_each_command_takes_exactly_its_pinned_options():
    """A new option takes an edit here; 44 of them are not required."""
    commands = build_parser()._subparsers._group_actions[0].choices
    actions = {name: [a for a in p._actions if a.dest != "help"]
               for name, p in commands.items()}
    assert {name: " ".join(o for a in acts for o in a.option_strings)
            for name, acts in actions.items()} == PINNED_OPTIONS
    assert sum(bool(a.option_strings) and not a.required
               for acts in actions.values() for a in acts) == 44


def test_config_file_feeds_experiment_settings(corpus_jsonl, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "setting": FEW_SHOT, "shots": 50, "holdout_k": 50, "seed": 5,
    }), encoding="utf-8")
    args = build_parser().parse_args(
        ["split", "--corpus", str(corpus_jsonl), "--target", "S-A",
         "--config", str(config)])
    cfg = _settings(args)[0]
    assert cfg.setting == FEW_SHOT
    assert cfg.shots == 50
    assert cfg.seed == 5


def test_flags_override_config_file(corpus_jsonl, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "setting": FEW_SHOT, "shots": 50, "holdout_k": 200, "seed": 5,
    }), encoding="utf-8")
    args = build_parser().parse_args(
        ["split", "--corpus", str(corpus_jsonl), "--target", "S-A",
         "--config", str(config), "--seed", "9", "--shots", "100"])
    cfg = _settings(args)[0]
    assert cfg.seed == 9
    assert cfg.shots == 100


def test_setting_inferred_from_flags(corpus_jsonl):
    args = build_parser().parse_args(
        ["split", "--corpus", str(corpus_jsonl), "--target", "S-A"])
    assert _settings(args)[0].setting == ZERO_SHOT
    args = build_parser().parse_args(
        ["split", "--corpus", str(corpus_jsonl), "--target", "S-A",
         "--shots", "50", "--holdout-k", "50"])
    assert _settings(args)[0].setting == FEW_SHOT


def test_providers_spec_from_config_file(corpus_jsonl, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"providers": "mock"}), encoding="utf-8")
    out = tmp_path / "synthetic.jsonl"
    rc = main(["augment", "--corpus", str(corpus_jsonl), "--target", "S-B",
               "--strategy", "BT", "--shots", "50", "--holdout-k", "50",
               "--config", str(config), "--out", str(out)])
    assert rc == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 50


def test_malformed_config_file_is_a_config_error(corpus_jsonl, tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text('{"seed": 1,', encoding="utf-8")
    rc = main(["suite", "table2", "--corpus", str(corpus_jsonl),
               "--config", str(config), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_a_config_file_corpus_key_is_an_unknown_key(corpus_jsonl, tmp_path,
                                                    capsys):
    """`--corpus` names the corpus; a config file's `corpus` key is not
    dropped but refused like any key the config lacks."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"corpus": str(corpus_jsonl), "seed": 1}),
                      encoding="utf-8")
    rc = main(["suite", "table2", "--corpus", str(corpus_jsonl),
               "--holdout-k", "30", "--config", str(config),
               "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "unknown config keys: ['corpus']" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


# each retired experiment setting, at the value every experiment used
_RETIRED_SETTINGS = [
    ("pivot", "en"), ("ratio", 0.3), ("threshold", 0.5),
    ("cw_only_map", False),
    ("generation_params", {"num_beams": 5, "max_length": 200, "top_p": 0.75,
                           "repetition_penalty": 3,
                           "no_repeat_ngram_size": 3}),
]


@pytest.mark.parametrize("command", [
    ["suite", "table2"], ["eval", "--target", "S-C"],
])
@pytest.mark.parametrize("key, value", _RETIRED_SETTINGS)
def test_a_config_file_holding_a_retired_setting_exits_two(
        corpus_jsonl, tmp_path, capsys, command, key, value):
    """The fixed experiment settings are constants: a config file that
    still sets one, even to the constant's value, is refused as an
    unknown key before any cell runs."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, key: value}), encoding="utf-8")
    out = tmp_path / "out"
    rc = main([*command, "--corpus", str(corpus_jsonl), "--holdout-k", "30",
               "--config", str(config), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"unknown config keys: ['{key}']" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("setting, message", [
    ({"strategy": "BT", "shots": 200, "setting": "few_shot"},
     "suite table2 runs its own strategies; got strategy 'BT'"),
    ({"shots": 200},
     "suite table2 runs zero_shot only; got few_shot at 200 shots"),
], ids=["few_shot-BT-200", "shots-200"])
def test_suite_table2_refuses_a_few_shot_config_file(
        corpus_jsonl, tmp_path, capsys, setting, message):
    """table2 runs zero-shot cells only, so a config file asking for
    another setting exits 2 rather than running zero-shot in silence."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(setting), encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["suite", "table2", "--corpus", str(corpus_jsonl),
               "--config", str(config), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("suite", ["table2", "table3", "table4", "fig4"])
def test_a_suite_given_a_strategy_exits_two(corpus_jsonl, tmp_path, capsys,
                                            suite):
    """A suite picks its own strategies; a config file's `strategy` is
    refused before `--out` is made, not dropped while run.json records
    it."""
    config = tmp_path / "config.json"
    config.write_text('{"strategy": "CWE"}', encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["suite", suite, "--corpus", str(corpus_jsonl), "--shots",
               "200", "--config", str(config), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: suite {suite} runs its own strategies; got strategy 'CWE'\n")
    assert not out.exists()


def test_a_suite_without_http_providers_never_loads_requests(corpus_jsonl,
                                                            tmp_path):
    """`urllib.request` (and `http.client` under it) load only when an HTTP
    provider posts, so a mock-provider suite runs without them."""
    probe = (
        "import json, sys\n"
        "from claimcheck.cli import main\n"
        "rc = main(['suite', 'table2', '--corpus', sys.argv[1], "
        "'--holdout-k', '30', '--providers', 'mock', '--out', sys.argv[2]])\n"
        "print(json.dumps([rc, sorted(m for m in sys.modules "
        "if m in ('urllib.request', 'http.client'))]))\n"
    )
    src = os.path.join(os.path.dirname(cli.__file__), os.pardir)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [os.path.abspath(src), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", probe, str(corpus_jsonl), str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=120,
        check=True).stdout
    assert json.loads(out.splitlines()[-1]) == [0, []]


@pytest.mark.parametrize("flags", [
    ["--config", '{"max_workers": "2"}'], ["--config", '{"holdout_k": "5"}'],
    ["--workers", "-1"],
])
def test_suite_with_a_bad_count_fails_before_any_cell(corpus_jsonl, tmp_path,
                                                     capsys, flags):
    if flags[0] == "--config":
        config = tmp_path / "config.json"
        config.write_text(flags[1], encoding="utf-8")
        flags = ["--config", str(config)]
    rc = main(["suite", "table2", "--corpus", str(corpus_jsonl), *flags,
               "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("setting", [
    '{"seed": true}', '{"seed": "7"}', '{"seed": 1.5}', '{"seed": null}',
])
def test_a_config_file_seed_of_the_wrong_type_exits_two(
        corpus_jsonl, tmp_path, monkeypatch, capsys, setting):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(setting, encoding="utf-8")
    rc = main(["suite", "table2", "--corpus", str(corpus_jsonl),
               "--config", str(config)])
    assert rc == 2
    name = next(iter(json.loads(setting)))
    assert re.search(rf"^error: .*{name} must be",
                     capsys.readouterr().err, re.M)
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("setting, out, name", [
    ('{"backend_id": "x\\udc00"}', "run", "backend_id"),
    ('{"backend_id": "encoder", "hyperparams": {"\\ud800": 1}}', "run",
     "hyperparams"),
    # argv decodes a byte that is not UTF-8 to a lone surrogate
    ("{}", "bad\udcffdir", "--out"),
])
def test_a_lone_surrogate_in_the_config_or_out_exits_two_before_any_cell(
        corpus_jsonl, tmp_path, capsys, setting, out, name):
    """run.json could not encode it, so it is refused before any cell runs
    rather than after every cell, when run.json is written."""
    config = tmp_path / "config.json"
    config.write_text(setting, encoding="utf-8")
    rc = main(["suite", "table2", "--corpus", str(corpus_jsonl),
               "--config", str(config), "--out", str(tmp_path / out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {name} holds a lone surrogate\n"
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("command", ["eval", "train", "augment"])
def test_workers_is_a_suite_flag(corpus_jsonl, capsys, command):
    """Only a suite runs cells at once; a single cell has nothing to
    spread over workers."""
    with pytest.raises(SystemExit) as exited:
        main([command, "--corpus", str(corpus_jsonl), "--target", "S-A",
              "--strategy", "CWE", "--shots", "50", "--holdout-k", "50",
              "--providers", "mock", "--workers", "2"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_suite_takes_workers(corpus_jsonl):
    args = build_parser().parse_args(
        ["suite", "table3", "--corpus", str(corpus_jsonl), "--workers", "2"])
    assert _settings(args)[0].max_workers == 2


@pytest.mark.parametrize("command", [
    ["similarity", "--providers", "mock"],
    ["split", "--target", "S-A"],
])
def test_non_object_config_is_rejected_by_every_command(corpus_jsonl, tmp_path,
                                                        capsys, command):
    config = tmp_path / "list.json"
    config.write_text("[1, 2]", encoding="utf-8")
    rc = main([command[0], "--corpus", str(corpus_jsonl), *command[1:],
               "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "JSON object" in capsys.readouterr().err
