"""HTTP provider tests against a local stub service on 127.0.0.1.

The stub replies 200 unless a test queues other status codes; timeout
tests make `requests.post` raise before the request leaves, and retry tests
replace the retry back-off sleep with a no-op. A reply given as bytes
is sent as it is, so a test can send a body that is not JSON.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests

from claimcheck import providers as providers_mod
from claimcheck.augment import GenerationParams
from claimcheck.errors import ProviderError
from claimcheck.model import EncoderScorer, ScorerConfig
from claimcheck.providers import HTTP_ROLES, HttpProvider, make_providers

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


class StubService:
    """Records (path, JSON body) of every POST and answers from `replies`,
    with the next status code in `statuses` (200 once it is empty)."""

    def __init__(self):
        self.requests = []
        self.replies = {path: reply for _, path, _, reply in CALLS.values()}
        self.statuses = []
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                stub.requests.append((self.path, json.loads(body)))
                blob = stub.replies.get(self.path, {})
                if not isinstance(blob, bytes):
                    blob = json.dumps(blob).encode("utf-8")
                self.send_response(stub.statuses.pop(0) if stub.statuses else 200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(blob)))
                self.end_headers()
                self.wfile.write(blob)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       args=(0.05,), daemon=True)
        self.thread.start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()


@pytest.fixture()
def stub():
    service = StubService()
    yield service
    service.close()


def call_every_role(bundle):
    return {role: getattr(bundle, role)(*CALLS[role][0]) for role in HTTP_ROLES}


def expected_requests():
    return [(path, body) for _, path, body, _ in CALLS.values()]


def test_every_role_has_a_pinned_call():
    assert set(CALLS) == set(HTTP_ROLES)


@pytest.mark.parametrize("form", ["url", "http-prefixed", "trailing-slash"])
def test_http_spec_forms_pin_endpoints_and_bodies(stub, form):
    spec = {"url": stub.url, "http-prefixed": f"http:{stub.url}",
            "trailing-slash": stub.url + "/"}[form]
    bundle = make_providers(spec)
    assert bundle.kind == spec
    assert call_every_role(bundle) == EXPECTED
    assert stub.requests == expected_requests()


def test_role_mapping_spec_mixes_http_and_mock(stub):
    spec = {role: {"kind": "http", "url": stub.url} for role in HTTP_ROLES}
    spec["embedder"] = {"kind": "mock"}
    bundle = make_providers(spec)
    assert bundle.kind == "custom"
    assert isinstance(bundle.translator, HttpProvider)
    assert not isinstance(bundle.embedder, HttpProvider)
    results = {role: getattr(bundle, role)(*CALLS[role][0])
               for role in HTTP_ROLES if role != "embedder"}
    assert results == {r: v for r, v in EXPECTED.items() if r != "embedder"}
    assert stub.requests == [r for r in expected_requests() if r[0] != "/embed"]


def test_https_url_is_the_base_of_every_role(monkeypatch):
    posted = []

    def fake_post(url, payload, retries=3, timeout=30.0):
        posted.append(url)
        return {"text": "t", "vector": [1.0]}

    monkeypatch.setattr(providers_mod, "_post_json", fake_post)
    bundle = make_providers("https://models.example:8443/api/")
    assert bundle.kind == "https://models.example:8443/api/"
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
    with pytest.raises(ProviderError):
        make_providers("ftp://host")
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
    """Stands in for `requests.post`: the first `n` calls time out before
    anything is sent, later ones reach the stub. `attempts` holds the URL
    of every call."""

    def __init__(self, n: int):
        self.n = n
        self.attempts = []
        self.post = requests.post

    def __call__(self, url, **kwargs):
        self.attempts.append(url)
        if len(self.attempts) <= self.n:
            raise requests.Timeout(f"read timed out ({kwargs['timeout']} s)")
        return self.post(url, **kwargs)


@pytest.fixture()
def timeouts(monkeypatch):
    """`timeouts(n)` makes the next `n` POSTs time out."""
    def inject(n):
        fake = TimingOut(n)
        monkeypatch.setattr(requests, "post", fake)
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
