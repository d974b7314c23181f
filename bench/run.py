#!/usr/bin/env python3
"""claimcheck suite benchmark.

    python3 bench/run.py --workload zeroshot-w1 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

One closed-loop client in one process: it writes the raw shared-task files
for ``--seed``, then ingests them, runs one suite cold into an empty
directory and reruns it warm into the same directory, timing calls into
claimcheck's public functions from outside the package. Set-up, ingest and
warm passes repeat in as many rounds as fit in ``--seconds`` (at least
``MIN_ROUNDS``), and their medians are reported. Every output is checked
against the benchmark's own computations (see ``verify``); a failed check
exits 1. The untraced cold pass captures the scores the oracle needs through
wrappers that read no clock.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the suite
untraced and then traced, cold and warm, and prints the per-layer metrics.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import corpusgen  # noqa: E402
import oracle  # noqa: E402
from oracle import check  # noqa: E402
from tracing import Tracer  # noqa: E402

# warm_per_round: warm passes in each measuring round, so that a short warm
# pass is sampled over about as much of the run as set-up and ingest are
WORKLOADS = {
    "zeroshot-w1": {"suite": "table2", "workers": 1, "warm_per_round": 4},
    "fewshot-aug-w1": {"suite": "table3", "workers": 1, "warm_per_round": 1},
}
SUITE_COLUMNS = {"table2": 1, "table3": 4}
SHOTS = 200
MIN_ROUNDS = 2
MB = 1024 * 1024

END_TO_END = {
    "setup_s": "s", "ingest_s": "s", "cold_s": "s", "warm_s": "s",
    "peak_rss_mb": "MB", "cache_mb": "MB", "map_mean": "MAP",
}
# Layer times taken inside a suite pass are summed over worker threads.
PER_LAYER = {
    "corpus.build_s": "s", "corpus.from_jsonl_s": "s",
    "corpus.records": "count",
    "preprocess.normalize_s": "s", "preprocess.tweets_per_s": "1/s",
    "splits.holdouts_s": "thread-s", "splits.split_s": "thread-s",
    "splits.train_ids": "count",
    "augment.cold_s": "thread-s", "augment.warm_s": "thread-s",
    "augment.provider_calls": "count", "augment.samples": "count",
    "augment.skips": "count",
    "cache.model_entries": "count", "cache.model_mb": "MB",
    "cache.augment_entries": "count", "cache.augment_mb": "MB",
    "cache.warm_new_entries": "count",
    "model.fit_s": "thread-s", "model.load_s": "thread-s",
    "model.score_s": "thread-s", "model.train_rows": "count",
    "model.train_tokens": "count", "model.vocab": "count",
    "evaluation.evaluate_s": "thread-s", "evaluation.render_s": "thread-s",
    "runner.self_s": "s", "runner.cells": "count", "runner.busy_ratio": "ratio",
    "trace.overhead_s": "s",
}


def load_claimcheck():
    """Import claimcheck from this checkout's ``src``, never from elsewhere."""
    init = SRC / "claimcheck" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: {init} not found; run from a full checkout")
    # one client thread: numpy's BLAS, here and in every fresh interpreter
    # set-up starts, must not start a thread pool of its own
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import claimcheck.corpus
    import claimcheck.model
    import claimcheck.preprocess
    import claimcheck.providers
    import claimcheck.runner
    if Path(claimcheck.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported claimcheck from {claimcheck.__file__}")
    return claimcheck


def time_import() -> float:
    """Wall time of a fresh interpreter importing the modules the bench uses."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    "import claimcheck.runner, claimcheck.providers"],
                   env=env, cwd=ROOT, check=True)
    return time.perf_counter() - started


def setup(seed: int, raw_dir: Path):
    """Write the raw files and time a fresh import; returns (gen, seconds)."""
    started = time.perf_counter()
    gen = corpusgen.write_raw(seed, raw_dir)
    generate = time.perf_counter() - started
    return gen, generate + time_import()


def ingest(cc, gen: dict, work: Path):
    """load + dedupe + merge, write JSONL, normalize, read back."""
    presets = cc.corpus.SCHEMA_PRESETS
    gc.collect()
    t0 = time.perf_counter()
    corpus, report = cc.corpus.build_corpus(
        [(gen["paths"]["ct20"], presets["ct20"]),
         (gen["paths"]["ct21"], presets["ct21"])])
    corpus.to_jsonl(work / "corpus.jsonl")
    t1 = time.perf_counter()
    cc.preprocess.normalize_corpus_file(work / "corpus.jsonl",
                                        work / "normalized.jsonl")
    t2 = time.perf_counter()
    corpus = cc.corpus.Corpus.from_jsonl(work / "normalized.jsonl")
    t3 = time.perf_counter()
    check_ingest(gen, report, corpus)
    return corpus, {"build": t1 - t0, "normalize": t2 - t1,
                    "from_jsonl": t3 - t2, "total": t3 - t0}


def check_ingest(gen: dict, report, corpus) -> None:
    tweets = gen["tweets"]
    check(report.duplicates_dropped == corpusgen.DUPLICATES,
          f"{report.duplicates_dropped} duplicates dropped, "
          f"planted {corpusgen.DUPLICATES}")
    check(report.topics_after_merge == 14 and
          corpus.topic_ids() == sorted(corpusgen.TOPIC_SIZES),
          f"topics after merge: {corpus.topic_ids()}")
    check(len(corpus) == len(tweets), f"{len(corpus)} records, "
          f"generated {len(tweets)}")
    for rec in corpus.records:
        t = tweets.get(rec.tweet_id)
        check(t is not None, f"unknown tweet id {rec.tweet_id}")
        check(rec.text == t.expected,
              f"tweet {rec.tweet_id}: normalized {rec.text!r}, "
              f"expected {t.expected!r}")
        check((rec.topic_id, rec.label) == (t.topic, t.label),
              f"tweet {rec.tweet_id}: topic/label {rec.topic_id}/{rec.label}")


def run_pass(cc, suite, corpus, config, out_dir, tracer=None):
    """One run_suite call; returns (RunRecord, wall seconds)."""
    providers = cc.providers.make_providers("mock")
    hook = tracer.install(cc, providers) if tracer else nullcontext()
    gc.collect()
    with hook:
        started = time.perf_counter()
        record = cc.runner.run_suite(suite, corpus, config,
                                     providers=providers, out_dir=out_dir)
        elapsed = time.perf_counter() - started
    return record, elapsed


def cache_stats(cache_dir: Path) -> dict:
    files = [p for p in cache_dir.rglob("*") if p.is_file()]

    def of(sub, suffix):
        chosen = [p for p in files if p.parent.name == sub and p.suffix == suffix]
        return len(chosen), sum(p.stat().st_size for p in chosen) / MB

    model_n, model_mb = of("models", ".npz")
    aug_n, aug_mb = of("augment", ".json")
    return {"files": len(files),
            "bytes_mb": sum(p.stat().st_size for p in files) / MB,
            "model_entries": model_n, "model_mb": model_mb,
            "augment_entries": aug_n, "augment_mb": aug_mb}


def verify(gen, suite, csv_versions: dict, report_md: str, tracer,
           cold_cache: dict, warm_cache: dict) -> dict:
    """Every check a run makes on its suite outputs; returns a summary."""
    names = list(csv_versions)
    first = csv_versions[names[0]]
    for name in names[1:]:
        check(csv_versions[name] == first,
              f"cells.csv of the {name} pass differs from the {names[0]} pass")
    cells = oracle.read_cells(first)
    sizes = corpusgen.TOPIC_SIZES
    check(len(cells) == len(sizes) * SUITE_COLUMNS[suite],
          f"{len(cells)} cells, expected {len(sizes) * SUITE_COLUMNS[suite]}")
    tweets = gen["tweets"]
    labels = {i: t.label for i, t in tweets.items()}
    by_topic = {}
    for i, t in tweets.items():
        by_topic.setdefault(t.topic, set()).add(i)
    pools = tracer.holdouts.per_topic
    random_maps = []
    for row in cells:
        cell = f"{row['setting']}/{row['strategy']}/{row['topic_id']}"
        check(row["status"] == "ok", f"cell {cell} failed: {row['error']}")
        topic = row["topic_id"]
        check(int(row["n_test"]) == sizes[topic] - SHOTS,
              f"cell {cell}: n_test {row['n_test']}, expected {sizes[topic] - SHOTS}")
        augmented = row["strategy"] != "none"
        check((int(row["aug_samples"]), int(row["aug_skips"])) ==
              ((SHOTS, 0) if augmented else (0, 0)),
              f"cell {cell}: aug_samples {row['aug_samples']}, "
              f"aug_skips {row['aug_skips']}")
        key = (row["setting"], row["strategy"], int(row["shots"]), topic)
        scores = tracer.scores.get(key)
        check(scores is not None, f"cell {cell}: no scores captured")
        test_ids = by_topic[topic] - set(pools[topic])
        check(set(scores) == test_ids, f"cell {cell}: scored ids are not the "
              "topic minus its holdout pool")
        exact = oracle.exact_cell(scores, labels)
        for field, value in exact.items():
            check(oracle.printed_matches(row[field], value, 10),
                  f"cell {cell}: {field} {row[field]} != exact {float(value)}")
        random_maps.append(oracle.random_ranking_map(
            [labels[i] for i in sorted(test_ids)], f"{cell}|random"))
    checker = (oracle.check_report_table3 if suite == "table3"
               else oracle.check_report_table2)
    report_numbers = checker(report_md, cells)
    map_mean = statistics.fmean(float(r["map"]) for r in cells)
    random_map = float(sum(random_maps) / len(random_maps))
    check(map_mean > random_map,
          f"map_mean {map_mean:.4f} not above random-ranking MAP {random_map:.4f}")
    new_entries = warm_cache["files"] - cold_cache["files"]
    check(new_entries == 0, f"warm passes added {new_entries} cache files")
    return {"cells": len(cells), "map_mean": map_mean,
            "random_map": random_map, "report_numbers": report_numbers,
            "warm_new_entries": new_entries}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def measure(cc, args, spec, work: Path) -> dict:
    """Untraced run: rounds of set-up, ingest and warm after one cold pass."""
    suite, workers = spec["suite"], spec["workers"]
    setups, ingests, warms = [], [], []
    gen, seconds = setup(args.seed, work / "raw")
    setups.append(seconds)
    config = suite_config(cc, suite, workers)
    corpus, parts = ingest(cc, gen, work)
    ingests.append(parts["total"])

    out = work / "suite"
    capture = Tracer(timing=False)
    record, cold = run_pass(cc, suite, corpus, config, out, capture)
    attempted = len(record.cells)
    failed = len(record.failures)
    csv_versions = {"cold": (out / "cells.csv").read_bytes()}
    cold_cache = cache_stats(out / "cache")

    rounds_started = time.perf_counter()
    while True:
        gen, seconds = setup(args.seed, work / "raw")
        setups.append(seconds)
        corpus, parts = ingest(cc, gen, work)
        ingests.append(parts["total"])
        for _ in range(spec["warm_per_round"]):
            record, seconds = run_pass(cc, suite, corpus, config, out)
            warms.append(seconds)
            attempted += len(record.cells)
            failed += len(record.failures)
            csv_versions[f"warm{len(warms)}"] = (out / "cells.csv").read_bytes()
        # stop unless another round, at the mean round length so far, would
        # still end within --seconds
        rounds = len(setups) - 1
        spent = time.perf_counter() - rounds_started
        if rounds >= MIN_ROUNDS and spent * (rounds + 1) / rounds > args.seconds:
            break
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    summary = verify(gen, suite, csv_versions,
                     (out / "report.md").read_text(encoding="utf-8"), capture,
                     cold_cache, cache_stats(out / "cache"))
    metrics = {
        "setup_s": statistics.median(setups),
        "ingest_s": statistics.median(ingests),
        "cold_s": cold,
        "warm_s": statistics.median(warms),
        "peak_rss_mb": peak_rss,
        "cache_mb": cold_cache["bytes_mb"],
        "map_mean": summary["map_mean"],
    }
    detail = {"setup_samples": setups, "ingest_samples": ingests,
              "warm_samples": warms, "summary": summary,
              "cells_sha256": {k: sha256(v) for k, v in csv_versions.items()}}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "units": END_TO_END, "detail": detail}


def measure_traced(cc, args, spec, work: Path) -> dict:
    """Traced run: the per-layer numbers and the tracing overhead."""
    suite, workers = spec["suite"], spec["workers"]
    gen, _ = setup(args.seed, work / "raw")
    config = suite_config(cc, suite, workers)
    corpus, parts = ingest(cc, gen, work)

    plain_out, traced_out = work / "untraced", work / "traced"
    record, cold_plain = run_pass(cc, suite, corpus, config, plain_out)
    attempted, failed = len(record.cells), len(record.failures)
    cold_tracer = Tracer(count_tokens=True)
    cold_record, cold_traced = run_pass(cc, suite, corpus, config,
                                        traced_out, cold_tracer)
    cold_csv = (traced_out / "cells.csv").read_bytes()
    cold_cache = cache_stats(traced_out / "cache")
    warm_tracer = Tracer()
    record, warm_traced = run_pass(cc, suite, corpus, config, traced_out,
                                   warm_tracer)
    for r in (cold_record, record):
        attempted += len(r.cells)
        failed += len(r.failures)
    csv_versions = {"untraced-cold": (plain_out / "cells.csv").read_bytes(),
                    "traced-cold": cold_csv,
                    "traced-warm": (traced_out / "cells.csv").read_bytes()}
    warm_cache = cache_stats(traced_out / "cache")
    check(cold_tracer.scores == warm_tracer.scores,
          "warm scores differ from cold scores")
    check(warm_tracer.counts.get("augment.provider_calls", 0) == 0,
          "the warm pass called augmentation providers")
    summary = verify(gen, suite, csv_versions,
                     (traced_out / "report.md").read_text(encoding="utf-8"),
                     warm_tracer, cold_cache, warm_cache)

    counts = cold_tracer.counts
    cell_seconds = sum(v for k, v in cold_record.wall_clock.items() if k != "total")
    metrics = {
        "corpus.build_s": parts["build"],
        "corpus.from_jsonl_s": parts["from_jsonl"],
        "corpus.records": len(corpus),
        "preprocess.normalize_s": parts["normalize"],
        "preprocess.tweets_per_s": len(corpus) / parts["normalize"],
        "splits.holdouts_s": warm_tracer.total("splits.holdouts"),
        "splits.split_s": warm_tracer.total("splits.split"),
        "splits.train_ids": counts.get("splits.train_ids", 0),
        "augment.cold_s": cold_tracer.total("augment"),
        "augment.warm_s": warm_tracer.total("augment"),
        "augment.provider_calls": counts.get("augment.provider_calls", 0),
        "augment.samples": counts.get("augment.samples", 0),
        "augment.skips": counts.get("augment.skips", 0),
        "cache.model_entries": cold_cache["model_entries"],
        "cache.model_mb": cold_cache["model_mb"],
        "cache.augment_entries": cold_cache["augment_entries"],
        "cache.augment_mb": cold_cache["augment_mb"],
        "cache.warm_new_entries": summary["warm_new_entries"],
        "model.fit_s": cold_tracer.total("model.train"),
        "model.load_s": warm_tracer.total("model.train"),
        "model.score_s": warm_tracer.total("model.score"),
        "model.train_rows": counts.get("model.train_rows", 0),
        "model.train_tokens": counts.get("model.train_tokens", 0),
        "model.vocab": counts.get("model.vocab", 0),
        "evaluation.evaluate_s": warm_tracer.total("evaluation.evaluate"),
        "evaluation.render_s": warm_tracer.total("evaluation.render"),
        "runner.self_s": warm_traced - warm_tracer.covered(),
        "runner.cells": len(cold_record.cells),
        "runner.busy_ratio": cell_seconds / (workers * cold_traced),
        "trace.overhead_s": cold_traced - cold_plain,
    }
    detail = {"cold_untraced_s": cold_plain, "cold_traced_s": cold_traced,
              "warm_traced_s": warm_traced, "summary": summary,
              "run_json_wall_total_s": cold_record.wall_clock["total"],
              "cells_sha256": {k: sha256(v) for k, v in csv_versions.items()}}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "units": PER_LAYER, "detail": detail}


def suite_config(cc, suite: str, workers: int):
    if suite == "table3":
        return cc.runner.ExperimentConfig(setting="few_shot", shots=SHOTS,
                                          max_workers=workers)
    return cc.runner.ExperimentConfig(max_workers=workers)


def versions() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count()}


def run_all(args) -> int:
    """Run every workload in its own process, one after the other."""
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1]) if lines else None
        status = status or proc.returncode
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    # importing first also leaves compiled modules behind, so every timed
    # fresh-interpreter import in set-up finds them
    cc = load_claimcheck()
    spec = WORKLOADS[args.workload]
    work = OUT / f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        measured = (measure_traced if args.trace else measure)(cc, args, spec,
                                                               work)
        correct = True
    except oracle.CheckFailed as exc:
        print(f"bench: check failed: {exc}", file=sys.stderr)
        measured, correct = None, False
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not correct:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1

    metrics = {name: {"value": value, "unit": measured["units"][name]}
               for name, value in measured["metrics"].items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, digest in measured["detail"]["cells_sha256"].items():
        print(f"cells.csv[{name}] sha256 {digest}")
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed,
                    "trace": args.trace, "versions": versions(),
                    "metrics": metrics, "detail": measured["detail"]},
                   indent=2) + "\n")
    print(json.dumps({"correct": True, "attempted": measured["attempted"],
                      "failed": measured["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
