"""README.md's `claimcheck` lines run verbatim and in order through the
`claimcheck` on PATH (installed, or README.md's shim), then the checks no test
under `tests/` makes: `python3 -m pytest readme/test_readme.py -q -rs`."""

import csv
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src"), str(ROOT / "tests")]

import corpusgen  # noqa: E402
from claimcheck.cli import _COMMANDS, build_parser  # noqa: E402
from provider_stub import StubService  # noqa: E402

STUB = "--providers http://localhost:8901"  # served by the mock-backed stub
CORPUS = "--corpus data/normalized.jsonl"
TABLE3 = f"claimcheck suite table3 {CORPUS} --shots 200 --providers mock"


def readme_steps(text):
    """(line number, kind, text) of each `claimcheck` line of `sh` blocks
    (continuations joined) and of each `json` and `python` block, in order."""
    steps = []
    for block in re.finditer(r"^```(\w+)\n(.*?)^```", text, re.M | re.S):
        kind, lineno = block[1], text.count("\n", 0, block.start(2)) + 1
        if kind in ("json", "python"):
            steps.append((lineno, kind, block[2]))
        for line in re.split(r"(?<!\\)\n", block[2]) if kind == "sh" else ():
            if line.startswith("claimcheck "):
                steps.append((lineno, kind, re.sub(r"\\\n\s*", "", line)))
            lineno += line.count("\n") + 1
    return steps


STEPS = readme_steps((ROOT / "README.md").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Where the commands run: the generator's seed-1 TSVs, README-named."""
    root = tmp_path_factory.mktemp("readme")
    for name, path in corpusgen.write_raw(1, root)["paths"].items():
        path.rename(root / f"train{name[2:]}.tsv")  # ct20 -> train20.tsv
    (root / "l2-zero.json").write_text('{"hyperparams": {"l2": 0}}')
    return root


def run(workdir, line, where="", code=0):
    """Run a command line through the shell, as a reader types it: a missing
    `claimcheck` exits 127."""
    done = subprocess.run(line, shell=True, cwd=workdir, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == code, \
        f"{where}`{line}` exited {done.returncode}:\n{done.stderr}"
    return done


@pytest.mark.parametrize("lineno, kind, text", STEPS, ids=[
    f"README.md:{n} {t if k == 'sh' else k}" for n, k, t in STEPS])
def test_readme_step(workdir, monkeypatch, lineno, kind, text):
    where = f"README.md:{lineno}: "
    if kind == "json":
        (workdir / "experiment.json").write_text(text, encoding="utf-8")
    elif kind == "python":
        monkeypatch.chdir(workdir)
        namespace = {}
        exec(compile(text, "README.md", "exec"), namespace)
        assert not namespace["record"].failures, where
    elif STUB in text:
        stub = StubService(port=8901)
        try:
            run(workdir, text, where)
        finally:
            stub.close()
        assert stub.calls["/encode"] > 0, where
    else:
        run(workdir, text, where)


def test_the_readme_install_lines_are_the_ones_ci_runs():
    """Each `pip install` line of README's Install block is a `run:` step
    of the CI workflow, verbatim."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Install\n\n```sh\n(.*?)^```", text, re.M | re.S)
    assert block, "README lost its Install block"
    installs = [line for line in block[1].splitlines()
                if line.startswith("pip install")]
    workflow = (ROOT / ".github/workflows/tests.yml").read_text("utf-8")
    steps = {step.strip() for step in re.findall(r"run: (.+)", workflow)}
    assert installs and [line for line in installs if line not in steps] == []


def test_the_readme_runs_every_subcommand():
    ran = {text.split(" ")[1] for _, kind, text in STEPS if kind == "sh"}
    assert ran >= set(_COMMANDS)


def test_the_readme_lists_the_options_each_command_takes():
    """One `- `<command>`: ...` line per command, after the sentence that
    introduces them, naming the options build_parser() gives it."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    listing = re.search(r"takes only the options it reads;.*?\n\n(.*?)\n\n",
                        text, re.S)
    assert listing, "README lost its per-command option list"
    listed = {line[3:line.index("`:")]: re.findall(r"`(--[\w-]+)`", line)
              for line in listing[1].splitlines()}
    commands = build_parser()._subparsers._group_actions[0].choices
    assert listed == {name: [o for a in p._actions if a.dest != "help"
                             for o in a.option_strings]
                      for name, p in commands.items()}


def test_what_the_readme_commands_wrote(workdir):
    split = json.loads((workdir / "splits/covid-100.json").read_text("utf-8"))
    shots = set(split["shot_ids"])  # its own 100 shots, trained on, not tested
    assert split["shots"] == len(split["shot_ids"]) == len(shots) == 100
    assert shots <= set(split["train_ids"]) - set(split["test_ids"])
    with open(workdir / "runs/covid/rank.csv", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    scores = [float(row[2]) for row in rows]  # ranked 1..n, scores never rise
    assert header == ["rank", "tweet_id", "score", "label"] and rows
    assert [int(row[0]) for row in rows] == list(range(1, len(rows) + 1))
    assert scores == sorted(scores, reverse=True)
    for name in ("synthetic/covid-cwe.jsonl", "sim/similarity.csv",
                 "sim/similarity.json"):
        assert (workdir / name).stat().st_size > 0, name
    # normalize reads raw_text back, so a second pass writes the same bytes
    run(workdir, "claimcheck normalize data/normalized.jsonl data/again.jsonl")
    assert (workdir / "data/again.jsonl").read_bytes() == \
        (workdir / "data/normalized.jsonl").read_bytes()


# CG steps of the fits below under trainer 6, before intercept starts, trial
# margins and the CG tolerance floor; a solver change may not add any
TRAINER_6_CG_STEPS = {"": 38, "--config l2-zero.json": 31}


@pytest.mark.parametrize("config", list(TRAINER_6_CG_STEPS))
def test_a_fit_converges_well_inside_the_cap(workdir, config):
    """9,390 records, and with l2 = 0, where the line search matters most."""
    out = run(workdir, f"claimcheck train {CORPUS} --target COVID-19 "
              f"{config} --out models/fit.npz").stdout
    found = re.search(
        r" (\d+) solver iterations and (\d+) CG steps .*norm (\S+)\)", out)
    assert found and int(found[1]) < 300 and float(found[3]) < 1e-5, out
    assert int(found[2]) <= TRAINER_6_CG_STEPS[config], out


def test_an_unregularized_table2_runs_every_cell(workdir):
    run(workdir, f"claimcheck suite table2 {CORPUS} --config l2-zero.json "
        "--out runs/table2-l2-zero/")
    with open(workdir / "runs/table2-l2-zero/cells.csv") as fh:
        assert [row["status"] for row in csv.DictReader(fh)] == ["ok"] * 14


def test_table3_cells_do_not_depend_on_the_worker_count(workdir):
    for n in (1, 2):
        run(workdir, f"{TABLE3} --workers {n} --out runs/table3-w{n}/")
    assert (workdir / "runs/table3-w1/cells.csv").read_bytes() == \
        (workdir / "runs/table3-w2/cells.csv").read_bytes()


@pytest.mark.parametrize("line", [
    f"claimcheck suite table2 {CORPUS} --out runs/table2/",
    f"{TABLE3} --out runs/table3-w1/"])
def test_a_rerun_reads_every_model_from_the_cache(workdir, line):
    out = workdir / line.rpartition("--out ")[2]
    cold = (out / "cells.csv").read_bytes()
    models = set(out.glob("cache/models/*"))
    run(workdir, line)
    assert (out / "cells.csv").read_bytes() == cold
    assert set(out.glob("cache/models/*")) == models


def test_a_refused_config_is_one_error_line_and_exit_code_2(workdir):
    """The config is built before the corpus is read, so none is needed."""
    (workdir / "cut.json").write_text('{"backend_id": "x\\udc00"}')
    done = run(workdir, "claimcheck suite table2 --corpus missing.jsonl "
               "--config cut.json --out runs/refused/", code=2)
    assert done.stderr == "error: backend_id holds a lone surrogate\n"
    assert not (workdir / "runs/refused").exists()
