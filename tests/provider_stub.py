"""A local provider service on 127.0.0.1, for tests, CI and the README.

`StubService` serves every `HTTP_ROLES` endpoint from a thread. Given
`replies` (path -> reply), it answers each POST with its path's reply,
sending bytes as they are and anything else as JSON, and with the next
status code in `statuses` (200 once it is empty); it records each POST's
(path, JSON body) in `requests` and its (Content-Type, raw body) in `raw`.
Without `replies` it answers each role by calling one `"mock"` bundle, so
a suite run through `make_providers(stub.url)` gets the in-process mocks'
results. It then keeps no request body, as an encoder train carries the
whole training set. Either way `calls` counts the POSTs to each path, a
3xx reply redirects to the path it answers, and with `certfile`, a PEM
file holding a key and its certificate, the stub speaks HTTPS.

Run as a script, it serves the mock bundle until it is stopped:

    python3 tests/provider_stub.py --port 8901
"""

import argparse
import json
import ssl
import sys
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from claimcheck.augment import GenerationParams  # noqa: E402
from claimcheck.errors import ClaimCheckError  # noqa: E402
from claimcheck.providers import make_providers  # noqa: E402


def mock_answers() -> dict:
    """path -> the reply to a request body, from one fresh "mock" bundle,
    whose encoder keeps no request, and of its models only those not yet
    scored and those it used last."""
    mock = make_providers("mock")

    def generate(body):
        prompt = body.pop("prompt")
        return {"text": mock.generator(prompt, GenerationParams(**body))}

    return {
        "/translate": lambda body: {
            "text": mock.translator(body["text"], body["src"], body["tgt"])},
        "/fill": lambda body: {"text": mock.filler(body["text"])},
        "/generate": generate,
        "/embed": lambda body: {"vector": mock.embedder(body["text"])},
        "/encode": mock.encoder,
    }


class StubService:
    def __init__(self, replies=None, port: int = 0, certfile=None):
        self.replies = replies
        self.statuses = []
        self.requests = []
        self.raw = []
        self.calls = Counter()
        self.answers = mock_answers() if replies is None else None
        self.lock = threading.Lock()  # one reply at a time: the mocks share state
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                raw = self.rfile.read(int(self.headers["Content-Length"]))
                with stub.lock:
                    status, reply = stub.answer(
                        self.path, self.headers["Content-Type"], raw)
                blob = reply if isinstance(reply, bytes) else \
                    json.dumps(reply).encode("utf-8")
                self.send_response(status)
                if 300 <= status < 400:
                    self.send_header("Location", self.path)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(blob)))
                self.end_headers()
                self.wfile.write(blob)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", port), Handler)
        if certfile is not None:
            tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            tls.load_cert_chain(certfile)
            self.server.socket = tls.wrap_socket(self.server.socket,
                                                 server_side=True)
        self.url = (f"http{'s' if certfile else ''}://127.0.0.1:"
                    f"{self.server.server_address[1]}")
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       args=(0.05,), daemon=True)
        self.thread.start()

    def answer(self, path: str, content_type: str, raw: bytes):
        """The status and reply to one POST of `raw` to `path`."""
        body = json.loads(raw)
        self.calls[path] += 1
        status = self.statuses.pop(0) if self.statuses else 200
        if self.answers is None:
            self.requests.append((path, body))
            self.raw.append((content_type, raw))
            return status, self.replies.get(path, {})
        if path not in self.answers:
            return 404, {"error": f"no endpoint {path}"}
        try:
            return status, self.answers[path](body)
        except (ClaimCheckError, KeyError, TypeError) as exc:
            return 422, {"error": str(exc)}

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Serve the mock providers over HTTP on 127.0.0.1.")
    parser.add_argument("--port", type=int, default=8901)
    stub = StubService(port=parser.parse_args().port)
    print(f"serving the mock providers at {stub.url}", flush=True)
    try:
        stub.thread.join()
    except KeyboardInterrupt:
        stub.close()
