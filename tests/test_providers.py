"""HTTP provider tests against a local stub service on 127.0.0.1.

The stub (`provider_stub.StubService`) replies 200 unless a test queues
other status codes; timeout tests make `urllib.request.urlopen` raise
before the request leaves, and retry tests replace the retry back-off sleep
with a no-op. A reply given as bytes is sent as it is, so a test can send a
body that is not JSON.
"""

import json
import math
import os
import random
import socket
import subprocess
import sys
import urllib.request
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from provider_stub import StubService
from synth import tiny_corpus

from claimcheck import providers as providers_mod
from claimcheck import runner
from claimcheck.augment import GenerationParams
from claimcheck.errors import ProviderError
from claimcheck.model import EncoderScorer, ScorerConfig
from claimcheck.providers import HTTP_ROLES, HttpProvider, make_providers
from claimcheck.runner import FEW_SHOT, NONE, ExperimentConfig, run_suite

# role -> (arguments of one call, expected path, expected JSON body, reply)
CALLS = {
    "translator": (("نص", "ar", "en"), "/translate",
                   {"text": "نص", "src": "ar", "tgt": "en"}, {"text": "text"}),
    "filler": (("a [MASK] b",), "/fill",
               {"text": "a [MASK] b", "mask_token": "[MASK]"}, {"text": "a x b"}),
    "generator": (("prompt", GenerationParams(num_beams=2)), "/generate",
                  {"prompt": "prompt", "num_beams": 2, "max_length": 200,
                   "top_p": 0.75, "repetition_penalty": 3,
                   "no_repeat_ngram_size": 3},
                  {"text": "generated"}),
    "embedder": (("text",), "/embed", {"text": "text"}, {"vector": [0.5, 0.5]}),
    "encoder": (({"mode": "score", "texts": ["t"], "handle": "h"},), "/encode",
                {"mode": "score", "texts": ["t"], "handle": "h"},
                {"scores": [0.25]}),
}
EXPECTED = {
    "translator": "text", "filler": "a x b", "generator": "generated",
    "embedder": [0.5, 0.5], "encoder": {"scores": [0.25]},
}


@pytest.fixture()
def stub():
    service = StubService({path: reply for _, path, _, reply in CALLS.values()})
    yield service
    service.close()


def call_every_role(bundle):
    return {role: getattr(bundle, role)(*CALLS[role][0]) for role in HTTP_ROLES}


def expected_requests():
    return [(path, body) for _, path, body, _ in CALLS.values()]


def test_every_role_has_a_pinned_call():
    assert set(CALLS) == set(HTTP_ROLES)


@pytest.mark.parametrize("form", ["url", "trailing-slash"])
def test_http_spec_forms_pin_endpoints_and_bodies(stub, form):
    spec = {"url": stub.url, "trailing-slash": stub.url + "/"}[form]
    bundle = make_providers(spec)
    assert call_every_role(bundle) == EXPECTED
    assert stub.requests == expected_requests()


def test_role_mapping_spec_mixes_http_and_mock(stub):
    spec = {role: {"kind": "http", "url": stub.url} for role in HTTP_ROLES}
    spec["embedder"] = {"kind": "mock"}
    bundle = make_providers(spec)
    assert isinstance(bundle.translator, HttpProvider)
    assert not isinstance(bundle.embedder, HttpProvider)
    results = {role: getattr(bundle, role)(*CALLS[role][0])
               for role in HTTP_ROLES if role != "embedder"}
    assert results == {r: v for r, v in EXPECTED.items() if r != "embedder"}
    assert stub.requests == [r for r in expected_requests() if r[0] != "/embed"]


def test_each_body_is_its_payload_as_json_with_its_content_type(stub):
    call_every_role(make_providers(stub.url))
    assert stub.raw == [("application/json", json.dumps(body).encode())
                        for _, body in expected_requests()]


def test_https_url_is_the_base_of_every_role(monkeypatch):
    posted = []

    def fake_post(url, payload, retries=3, timeout=30.0):
        posted.append(url)
        return {"text": "t", "vector": [1.0]}

    monkeypatch.setattr(providers_mod, "_post_json", fake_post)
    bundle = make_providers("https://models.example:8443/api/")
    call_every_role(bundle)
    assert posted == [f"https://models.example:8443/api{path}"
                      for path, _ in expected_requests()]


@pytest.mark.parametrize("role", [r for r in HTTP_ROLES if r != "encoder"])
def test_reply_without_the_role_key_is_a_provider_error(stub, role):
    path = CALLS[role][1]
    stub.replies[path] = {"unexpected": True}
    with pytest.raises(ProviderError, match="lacks"):
        HttpProvider(stub.url, role)(*CALLS[role][0])


def test_unknown_role_and_spec_are_rejected():
    with pytest.raises(ProviderError):
        HttpProvider("http://127.0.0.1:1", "summarizer")
    # an http: spec is the base URL as given, with no "http:<url>" alias
    for spec in ("ftp://host", "http:localhost:8000",
                 "http:http://127.0.0.1:8000", "https:models",
                 {"translator": {"kind": "http", "url": "localhost:8000"}}):
        with pytest.raises(ProviderError):
            make_providers(spec)
    with pytest.raises(ProviderError):
        make_providers({"translator": {"kind": "grpc"}})


@pytest.mark.parametrize("spec", [
    {"translator": "mock"},
    {"translator": {"kind": "http"}},
    {"translater": {"kind": "mock"}},
])
def test_role_mapping_rejects_malformed_entries(spec):
    with pytest.raises(ProviderError, match=next(iter(spec))):
        make_providers(spec)


# ---------------------------------------------------------------------------
# retry policy


@pytest.fixture()
def no_sleep(monkeypatch):
    monkeypatch.setattr(providers_mod.time, "sleep", lambda seconds: None)


@pytest.mark.parametrize("status", [400, 404, 422])
def test_client_error_is_not_retried(stub, no_sleep, status):
    stub.statuses = [status, 200]
    with pytest.raises(ProviderError, match=f"HTTP {status}"):
        HttpProvider(stub.url, "translator")(*CALLS["translator"][0])
    assert len(stub.requests) == 1


@pytest.mark.parametrize("role", ["translator", "encoder"])
def test_server_error_is_retried_until_success(stub, no_sleep, role):
    stub.statuses = [503]
    assert HttpProvider(stub.url, role)(*CALLS[role][0]) == EXPECTED[role]
    path = CALLS[role][1]
    assert [p for p, _ in stub.requests] == [path, path]


def test_server_errors_give_up_after_three_attempts(stub, no_sleep):
    stub.statuses = [503, 502, 500, 200]
    with pytest.raises(ProviderError, match="3 attempt"):
        HttpProvider(stub.url, "filler")(*CALLS["filler"][0])
    assert len(stub.requests) == 3


def test_encoder_train_request_is_sent_once(stub, no_sleep):
    stub.statuses = [503, 200]
    train = {"mode": "train", "texts": ["t"], "labels": ["CW"], "hyperparams": {}}
    with pytest.raises(ProviderError):
        HttpProvider(stub.url, "encoder")(train)
    assert stub.requests == [("/encode", train)]


@pytest.mark.parametrize("payload", [
    {"mode": "train", "texts": ["t"], "labels": ["CW"],
     "hyperparams": {"lr": float("nan")}},
    {"mode": "score", "texts": ["t"], "handle": "h",
     "hyperparams": {"lr": float("inf")}},
    {"mode": "score", "texts": ["t"], "handle": "h", "hyperparams": {1j: 0}},
])
def test_a_payload_json_cannot_encode_is_never_sent(stub, monkeypatch, payload):
    slept = []
    monkeypatch.setattr(providers_mod.time, "sleep", slept.append)
    with pytest.raises(ProviderError, match="cannot post .*/encode as JSON"):
        HttpProvider(stub.url, "encoder")(payload)
    assert stub.calls == {} and slept == []


@pytest.mark.parametrize("status", [307, 308])
def test_a_redirect_that_keeps_the_post_is_not_followed(stub, no_sleep,
                                                        status):
    stub.statuses = [status]  # to the same path, where a 200 would wait
    with pytest.raises(ProviderError, match=f"HTTP {status}"):
        HttpProvider(stub.url, "translator")(*CALLS["translator"][0])
    assert len(stub.requests) == 1


def test_a_refused_connection_is_retried(monkeypatch):
    slept = []
    monkeypatch.setattr(providers_mod.time, "sleep", slept.append)
    with socket.socket() as free:  # a port nothing listens on once closed
        free.bind(("127.0.0.1", 0))
        port = free.getsockname()[1]
    with pytest.raises(ProviderError, match="3 attempt.*refused"):
        HttpProvider(f"http://127.0.0.1:{port}", "embedder")("text")
    assert slept == [2.0, 4.0]


def test_https_verifies_against_the_trust_store_ssl_cert_file_names():
    """The stub's certificate is self-signed, so a run verifies it only
    when SSL_CERT_FILE names it. Each run is a fresh process, as the trust
    store is read when the first HTTPS connection is made."""
    pem = Path(__file__).with_name("stub-tls.pem")
    service = StubService({"/embed": {"vector": [0.5]}}, certfile=pem)
    probe = ("import sys\n"
             "from claimcheck.providers import HttpProvider\n"
             "print(HttpProvider(sys.argv[1], 'embedder', retries=1)('text'))\n")
    env = {k: v for k, v in os.environ.items()
           if k not in ("SSL_CERT_FILE", "SSL_CERT_DIR")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(providers_mod.__file__).parent.parent),
        env.get("PYTHONPATH")]))
    try:
        runs = [subprocess.run([sys.executable, "-c", probe, service.url],
                               env=extra | env, capture_output=True,
                               text=True, timeout=60)
                for extra in ({}, {"SSL_CERT_FILE": str(pem)})]
    finally:
        service.close()
    assert runs[0].returncode == 1
    assert "CERTIFICATE_VERIFY_FAILED" in runs[0].stderr
    assert (runs[1].returncode, runs[1].stdout) == (0, "[0.5]\n"), runs[1].stderr
    assert service.calls == {"/embed": 1}


def test_malformed_json_on_a_200_fails_after_three_attempts(stub, no_sleep):
    stub.replies["/fill"] = b'{"text": "a x'
    with pytest.raises(ProviderError, match="3 attempt"):
        HttpProvider(stub.url, "filler")(*CALLS["filler"][0])
    assert len(stub.requests) == 3


@pytest.mark.parametrize("score", [float("nan"), 1.5])
def test_encoder_score_outside_the_unit_interval_is_rejected(stub, no_sleep,
                                                            score):
    scorer = EncoderScorer(ScorerConfig(backend="encoder"),
                           HttpProvider(stub.url, "encoder"))
    stub.replies["/encode"] = {"handle": "h"}
    scorer.fit(["a", "b"], ["CW", "NCW"])
    stub.replies["/encode"] = {"scores": [0.5, score]}
    with pytest.raises(ProviderError, match="outside"):
        scorer.score_many(["a", "b"])


# ---------------------------------------------------------------------------
# timeouts


class TimingOut:
    """Stands in for `urllib.request.urlopen`: the first `n` calls time out
    before anything is sent, later ones reach the stub. `attempts` holds
    the URL of every call."""

    def __init__(self, n: int):
        self.n = n
        self.attempts = []
        self.urlopen = urllib.request.urlopen

    def __call__(self, request, **kwargs):
        self.attempts.append(request.full_url)
        if len(self.attempts) <= self.n:
            raise TimeoutError(f"read timed out ({kwargs['timeout']} s)")
        return self.urlopen(request, **kwargs)


@pytest.fixture()
def timeouts(monkeypatch):
    """`timeouts(n)` makes the next `n` POSTs time out."""
    def inject(n):
        fake = TimingOut(n)
        monkeypatch.setattr(urllib.request, "urlopen", fake)
        return fake.attempts
    return inject


def test_timeout_then_success_is_retried(stub, no_sleep, timeouts):
    attempts = timeouts(1)
    result = HttpProvider(stub.url, "translator")(*CALLS["translator"][0])
    assert result == EXPECTED["translator"]
    assert attempts == [f"{stub.url}/translate"] * 2
    assert stub.requests == [("/translate", CALLS["translator"][2])]


def test_three_timeouts_give_a_provider_error_naming_the_url(stub, no_sleep,
                                                            timeouts):
    attempts = timeouts(3)
    with pytest.raises(ProviderError, match="3 attempt") as err:
        HttpProvider(stub.url, "filler")(*CALLS["filler"][0])
    assert f"{stub.url}/fill" in str(err.value)
    assert "timed out" in str(err.value)
    assert len(attempts) == 3
    assert stub.requests == []


def test_encoder_train_that_times_out_is_sent_once(stub, no_sleep, timeouts):
    attempts = timeouts(1)
    train = {"mode": "train", "texts": ["t"], "labels": ["CW"], "hyperparams": {}}
    with pytest.raises(ProviderError, match="timed out"):
        HttpProvider(stub.url, "encoder")(train)
    assert attempts == [f"{stub.url}/encode"]


# ---------------------------------------------------------------------------
# whole suites through the stub


@pytest.fixture()
def mock_stub():
    service = StubService()
    yield service
    service.close()


@pytest.mark.parametrize("backend", ["baseline", "encoder"])
def test_suites_through_the_stub_write_the_mock_suites_cells(mock_stub,
                                                             tmp_path, backend):
    """The stub answers every role from the mock bundle, so a suite run
    over HTTP writes the cells.csv of the same suite run in process."""
    corpus = tiny_corpus(5, per_topic=120)
    configs = {
        "table2": ExperimentConfig(backend_id=backend, holdout_k=50),
        "table3": ExperimentConfig(backend_id=backend, setting=FEW_SHOT,
                                   strategy=NONE, shots=50, holdout_k=50)}
    for suite, config in configs.items():
        cells = []
        for spec in ("mock", mock_stub.url):
            out = tmp_path / suite / spec.partition(":")[0]
            record = run_suite(suite, corpus, config,
                               providers=make_providers(spec), out_dir=out)
            assert record.failures == []
            cells.append((out / "cells.csv").read_bytes())
        assert cells[0] == cells[1]
    # BT translates, CWE fills and TxtGen generates; only the encoder encodes
    assert set(mock_stub.calls) == {"/translate", "/fill", "/generate"} | (
        {"/encode"} if backend == "encoder" else set())


class FaultyStub(StubService):
    """The mock-backed stub, but the cell `cell` names (see
    `track_cells`) gets the fault `schedule` gives it: `(target, fault)`,
    where the target is the cell's augmentation calls ("aug"), its encoder
    "train" or its "score", and `FAULT_REPLIES[fault]` gives how many of
    the target's POSTs it spoils and the status sent instead. `posts`
    counts each cell's POSTs to each target."""

    def __init__(self, schedule):
        super().__init__()
        self.schedule = schedule
        self.cell = None
        self.posts = Counter()

    def answer(self, path, content_type, raw):
        status, reply = super().answer(path, content_type, raw)
        body = json.loads(raw)
        target = body["mode"] if path == "/encode" else "aug"
        self.posts[self.cell, target] += 1
        scheduled, fault = self.schedule.get(self.cell, (None, None))
        spoiled, fault_status = FAULT_REPLIES.get(fault, (0, 200))
        if target != scheduled or self.posts[self.cell, target] > spoiled:
            return status, reply
        if fault == "no-key":
            return 200, {}
        if fault == "surrogate":  # half a UTF-16 pair, sent as the escape \ud800
            half = "\ud800"
            return 200, {"aug": {"text": half}, "train": {"handle": half},
                         "score": {"scores": [half] * len(body.get("texts", ()))},
                         }[target]
        return fault_status, {"error": "injected"}


# fault -> (POSTs of its target it spoils, the status they get)
FAULT_REPLIES = {"503x1": (1, 503), "503x2": (2, 503), "503x3": (3, 503),
                 "no-key": (1, 200), "surrogate": (1, 200)}
AUG_ENDPOINTS = {"BT": ("translator", "translate"), "CWE": ("filler", "fill"),
                 "TxtGen": ("generator", "generate")}


def expected_outcome(url, strategy, target, fault):
    """(status, the start of the failed cell's error or the augmented
    cell's one skip reason, POSTs to the target) that a cell shows after
    `fault`."""
    gave_up = {f"503x{n}": f"failed after {n} attempt(s): HTTP Error 503: "
               f"Service Unavailable" for n in (1, 3)}
    if target == "aug":
        role, endpoint = AUG_ENDPOINTS[strategy]
        at = f"{url}/{endpoint}"
        # one call a shot, two for BT, whose second leg a failed first skips
        legs = 2 if strategy == "BT" else 1
        calls = legs * 50
        return {
            "503x1": ("ok", None, calls + 1), "503x2": ("ok", None, calls + 2),
            "503x3": ("ok", f"{role} failed: provider at {at} "
                            f"{gave_up['503x3']}", calls + 3 - legs),
            "no-key": ("ok", f"{role} failed: {role} reply from {at} lacks "
                             f"'text'", calls + 1 - legs),
            "surrogate": ("ok", f"{role} returned a lone surrogate", calls),
        }[fault]
    at = f"{url}/encode"

    def failed(stage, error, posts):
        return ("failed", f"ProviderError: stage {stage} failed for this "
                          f"run: {error}", posts)

    return {
        ("train", "503x1"): failed(
            "train", f"provider at {at} {gave_up['503x1']}", 1),
        ("train", "no-key"): failed(
            "train", "encoder train response missing handle: {}", 1),
        ("train", "surrogate"): failed(  # the mock cannot read the handle
            "score", f"provider at {at} rejected the request: HTTP 422", 1),
        ("score", "503x2"): ("ok", None, 3),
        ("score", "503x3"): failed(
            "score", f"provider at {at} {gave_up['503x3']}", 3),
        ("score", "no-key"): failed(
            "score", "encoder returned 0 scores for", 1),
        ("score", "surrogate"): failed(
            "score", "encoder score '\\ud800' is not a number", 1),
    }[target, fault]


@pytest.mark.parametrize("seed", [0, 1])
def test_a_suite_through_the_stub_keeps_each_provider_fault_in_its_cell(
        monkeypatch, no_sleep, tmp_path, seed):
    """Each of table3's 12 encoder cells gets one fault, drawn by `seed`:
    503s within and beyond the retry budget, a reply without the role's
    key, and one holding a lone surrogate. A fault within the budget
    leaves the cell as a clean run writes it, an augmentation fault is a
    skip, an encoder fault fails its cell only (a train is sent once), and
    the suite writes all three artifacts."""
    corpus = tiny_corpus(3, per_topic=120)
    config = ExperimentConfig(backend_id="encoder", setting=FEW_SHOT,
                              strategy=NONE, shots=50, holdout_k=50)
    clean = run_suite("table3", corpus, config, providers=make_providers("mock"),
                      out_dir=tmp_path / "clean")
    names = [f"{c['setting']}/{c['strategy']}/{c['shots']}/{c['topic_id']}"
             for c in clean.cells]
    augmented = [n for n in names if not n.startswith("zero_shot/")]
    rng = random.Random(seed)
    rng.shuffle(augmented)
    aug_faults = ["503x1", "503x2", "503x3", "no-key", "surrogate"]
    encoder_faults = [("train", "503x1"), ("train", "no-key"),
                      ("train", "surrogate"), ("score", "503x2"),
                      ("score", "503x3"), ("score", "no-key"),
                      ("score", "surrogate")]
    rng.shuffle(encoder_faults)
    schedule = {**{n: ("aug", f) for n, f in zip(augmented, aug_faults)},
                **dict(zip([n for n in names if n not in augmented[:5]],
                           encoder_faults))}
    assert len(schedule) == 12

    stub, skips = FaultyStub(schedule), {}
    run_topic = runner.run_topic

    def track_cells(config, corpus, topic, providers, cache_dir, details):
        stub.cell = (f"{config.setting}/{config.strategy}/{config.shots}/"
                     f"{topic}")
        try:
            return run_topic(config, corpus, topic, providers, cache_dir,
                             details)
        finally:
            skips[stub.cell] = details.get("aug_skips", [])

    monkeypatch.setattr(runner, "run_topic", track_cells)
    out = tmp_path / "faulty"
    try:
        record = run_suite("table3", corpus, config,
                           providers=make_providers(stub.url), out_dir=out)
    finally:
        stub.close()

    failed = set()
    for name, row, want in zip(names, record.cells, clean.cells):
        status, message, posts = expected_outcome(
            stub.url, row["strategy"], *schedule[name])
        assert stub.posts[name, schedule[name][0]] == posts, name
        assert stub.posts[name, "train"] == 1, name  # never re-sent
        if status == "failed":
            failed.add(name)
            assert row["status"] == "failed", name
            assert row["error"].startswith(message), (name, row["error"])
            if "stage train" in message:
                assert stub.posts[name, "score"] == 0, name
        elif message is None:  # as if no fault had happened
            assert row == {**want, "stage_s": row["stage_s"]}, name
        else:
            assert row["status"] == "ok", name
            assert [reason for _, reason in skips[name]] == [message], name
            assert (row["aug_samples"], row["aug_skips"]) == (
                want["aug_samples"] - 1, 1), name
    assert len(failed) == 6
    assert {f["cell"] for f in record.failures} == failed
    for name in ("cells.csv", "report.md", "run.json"):
        assert (out / name).exists()


def test_the_mock_encoder_scores_a_text_past_the_float_range():
    """A mean lean below -709 puts e^-z past the largest float."""
    encoder = make_providers("mock").encoder
    handle = encoder({"mode": "train", "texts": ["a"] * 800 + ["b"],
                      "labels": ["NCW"] * 800 + ["CW"]})["handle"]
    scores = encoder({"mode": "score", "texts": ["a", "b"],
                      "handle": handle})["scores"]
    assert scores == [0.0, 1.0 / (1.0 + math.exp(-1.0))]


def test_a_mock_encoder_handle_scores_anywhere_and_any_number_of_times():
    """The handle is the model: it scores the same after 10 other trains,
    a second time, from another thread and in a second mock bundle."""
    encoder = make_providers("mock").encoder

    def train(i):
        return encoder({"mode": "train", "texts": [f"t{i} u", "u v"],
                        "labels": ["CW", "NCW"]})["handle"]

    def score(provider, handle):
        return provider({"mode": "score", "texts": ["t0 u", "u v", "w"],
                         "handle": handle})["scores"]

    handle = train(0)
    expected = [1.0 / (1.0 + math.exp(-z)) for z in (0.5, -0.5, 0.0)]
    others = [train(i) for i in range(1, 11)]
    assert len({handle, *others}) == 11
    assert score(encoder, handle) == expected
    assert score(encoder, handle) == expected
    with ThreadPoolExecutor(1) as pool:
        assert pool.submit(score, encoder, handle).result() == expected
    assert score(make_providers("mock").encoder, handle) == expected


@pytest.mark.parametrize("handle", ["h", "1", "[]", None])
def test_a_mock_encoder_handle_that_is_no_model_is_unknown(handle):
    encoder = make_providers("mock").encoder
    with pytest.raises(ProviderError, match="unknown training handle"):
        encoder({"mode": "score", "texts": ["t"], "handle": handle})
