"""Pluggable text providers and their mock implementations.

Provider roles and call shapes:

- translator(text, src, tgt) -> text
- filler(masked_text) -> text        (fills ``[MASK]`` slots)
- generator(prompt, params) -> text  (params: the fixed GenerationParams())
- embedder(text) -> list of floats
- encoder(payload dict) -> dict      (sequence-classification backend)

The encoder payload schema is fixed JSON:
request ``{"mode": "train", "texts": [...], "labels": ["CW"|"NCW", ...],
"hyperparams": {...}}`` returns ``{"handle": "..."}``; request
``{"mode": "score", "texts": [...], "handle": "...", "hyperparams": {...}}``
returns ``{"scores": [...]}`` with one probability in [0, 1] per text.

The mocks here are the ``"mock"`` bundle of `make_providers`: one
deterministic provider per role, so experiment suites can run without any
external service.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass
from urllib.parse import urlsplit

from .errors import ProviderError

MASK_TOKEN = "[MASK]"

__all__ = [
    "MASK_TOKEN",
    "ProviderBundle",
    "identity_translator",
    "HashFiller",
    "DistinctTokenGenerator",
    "HashEmbedder",
    "MockEncoderProvider",
    "HTTP_ROLES",
    "HttpProvider",
    "make_providers",
]


@dataclass
class ProviderBundle:
    """The providers one experiment run may need; unused roles stay None."""

    translator: object = None
    filler: object = None
    generator: object = None
    embedder: object = None
    encoder: object = None


# ---------------------------------------------------------------------------
# mocks

def identity_translator(text: str, src: str, tgt: str) -> str:
    return text


class HashFiller:
    """Fills each mask slot with a token derived from its context hash."""

    def __call__(self, masked_text: str) -> str:
        tokens = masked_text.split()
        out = []
        for i, tok in enumerate(tokens):
            if tok == MASK_TOKEN:
                digest = hashlib.sha256(f"{i}|{masked_text}".encode("utf-8")).hexdigest()
                out.append("w" + digest[:6])
            else:
                out.append(tok)
        return " ".join(out)


class DistinctTokenGenerator:
    """Emits a run of distinct tokens, so no n-gram ever repeats.

    Token count tracks the prompt length without exceeding max_length, the
    way a compliant no-repeat generator would behave.
    """

    def __call__(self, prompt: str, params) -> str:
        n = min(max(len(prompt.split()), 1), params.max_length)
        seed = hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:8]
        return " ".join(f"g{seed}n{i}" for i in range(n))


class HashEmbedder:
    """Deterministic pseudo-embedding: shared tokens pull texts together."""

    def __init__(self, dim: int = 64):
        self.dim = dim

    def __call__(self, text: str) -> list:
        vec = [0.0] * self.dim
        for tok in text.split():
            digest = hashlib.sha256(tok.encode("utf-8")).digest()
            idx = int.from_bytes(digest[:4], "big") % self.dim
            sign = 1.0 if digest[4] % 2 == 0 else -1.0
            vec[idx] += sign
        norm = math.sqrt(sum(v * v for v in vec))
        if norm > 0:
            vec = [v / norm for v in vec]
        return vec


class RecentModels:
    """The mock encoder's trained models, by handle. A model stays until it
    has been scored once for each time it was trained, so no cell loses
    its model to other cells, however many run at once; after that it
    stays only while it is among the last `KEEP` models used. A suite
    scores each cell's model once, so it holds about its worker count plus
    `KEEP` models; one model holds about 4 MB on the bench corpus."""

    KEEP = 8

    def __init__(self):
        self._models = OrderedDict()  # least recently used first
        self._unscored = Counter()  # handle -> trains not scored yet
        self._lock = threading.Lock()  # suites call from several threads

    def __iter__(self):
        return iter(list(self._models))

    def train(self, handle, model) -> None:
        with self._lock:
            self._models[handle] = model
            self._models.move_to_end(handle)
            self._unscored[handle] += 1
            self._trim()

    def score(self, handle):
        with self._lock:
            if handle not in self._models:
                raise ProviderError(f"unknown training handle: {handle!r}")
            self._models.move_to_end(handle)
            if self._unscored[handle] > 1:
                self._unscored[handle] -= 1
            else:
                self._unscored.pop(handle, None)
            self._trim()
            return self._models[handle]

    def _trim(self) -> None:
        scored = [h for h in self._models if h not in self._unscored]
        for handle in scored[:-self.KEEP]:
            del self._models[handle]


class MockEncoderProvider:
    """In-memory stand-in for a sequence-classification service.

    Training just records which tokens lean CW; scoring returns the
    sigmoid-squashed lean of a text's tokens. Deterministic, stateless
    between handles. It keeps no payload, and only its `RecentModels`.
    """

    def __init__(self):
        self._models = RecentModels()

    def __call__(self, payload: dict) -> dict:
        mode = payload.get("mode")
        if mode == "train":
            texts, labels = payload["texts"], payload["labels"]
            if len(texts) != len(labels):
                raise ProviderError("texts and labels length mismatch")
            lean = {}
            for text, label in zip(texts, labels):
                delta = 1.0 if label == "CW" else -1.0
                for tok in text.split():
                    lean[tok] = lean.get(tok, 0.0) + delta
            handle = hashlib.sha256(
                repr(sorted(lean.items())).encode("utf-8")
            ).hexdigest()[:16]
            self._models.train(handle, lean)
            return {"handle": handle}
        if mode == "score":
            lean = self._models.score(payload.get("handle"))
            scores = []
            for text in payload["texts"]:
                tokens = text.split()
                z = sum(lean.get(t, 0.0) for t in tokens) / max(len(tokens), 1)
                try:
                    scores.append(1.0 / (1.0 + math.exp(-z)))
                except OverflowError:  # e^-z is past the largest float
                    scores.append(0.0)
            return {"scores": scores}
        raise ProviderError(f"unknown encoder mode: {mode!r}")


# ---------------------------------------------------------------------------
# HTTP transports

def _post_json(url: str, payload: dict, retries: int = 3, timeout: float = 30.0) -> dict:
    """POST `payload` as JSON, retrying timeouts, refused connections, 5xx
    and malformed replies. A payload JSON cannot encode and any other reply
    but a 2xx fail at once. `urllib.request` loads on the first post."""
    import http.client
    import urllib.request

    try:  # a NaN, say, is never sent
        body = json.dumps(payload, allow_nan=False).encode()
    except (TypeError, ValueError) as exc:
        raise ProviderError(f"cannot post {url} as JSON: {exc}") from None
    request = urllib.request.Request(url, body, {"Content-Type": "application/json"})
    last = None
    for attempt in range(1, retries + 1):
        try:
            return json.load(urllib.request.urlopen(request, timeout=timeout))
        except (OSError, http.client.HTTPException, ValueError) as exc:
            if isinstance(exc, urllib.request.HTTPError) and exc.code < 500:
                raise ProviderError(  # a 4xx, or a 307 or 308 not followed
                    f"provider at {url} rejected the request: HTTP {exc.code}") from None
            last = str(exc)  # not the error, which holds its reply's socket
        if attempt < retries:
            time.sleep(min(2.0 ** attempt, 10.0))
    raise ProviderError(f"provider at {url} failed after {retries} attempt(s): {last}")


# role -> (endpoint, request builder, response key); the encoder's reply is
# its result as a whole.
HTTP_ROLES = {
    "translator": ("translate",
                   lambda text, src, tgt: {"text": text, "src": src, "tgt": tgt},
                   "text"),
    "filler": ("fill",
               lambda masked_text: {"text": masked_text, "mask_token": MASK_TOKEN},
               "text"),
    "generator": ("generate",
                  lambda prompt, params: {"prompt": prompt, **params.to_dict()},
                  "text"),
    "embedder": ("embed", lambda text: {"text": text}, "vector"),
    "encoder": ("encode", lambda payload: payload, None),
}


class HttpProvider:
    """One provider role served as JSON over HTTP (see HTTP_ROLES)."""

    def __init__(self, base_url: str, role: str, retries: int = 3):
        if role not in HTTP_ROLES:
            raise ProviderError(f"unknown provider role {role!r}")
        try:  # reading a port that is not a number raises ValueError
            url = urlsplit(base_url)
            url.port
        except ValueError:
            url = None
        if not (url and url.scheme in ("http", "https") and url.hostname):
            raise ProviderError(f"provider URL must be http(s)://<host>..., "
                                f"got {base_url!r}")
        self.base_url = base_url.rstrip("/")
        self.role = role
        self.retries = retries

    def __call__(self, *args):
        endpoint, build, key = HTTP_ROLES[self.role]
        url = f"{self.base_url}/{endpoint}"
        payload = build(*args)
        # a train request starts a fine-tune; re-sending it may start another
        once = self.role == "encoder" and payload.get("mode") == "train"
        reply = _post_json(url, payload, 1 if once else self.retries)
        if key is None:
            return reply
        if not isinstance(reply, dict) or key not in reply:
            raise ProviderError(f"{self.role} reply from {url} lacks {key!r}")
        return reply[key]


def make_providers(spec) -> ProviderBundle:
    """Build a ProviderBundle from a spec string or config mapping.

    ``"mock"`` yields the deterministic in-package mocks; an
    ``http://``/``https://`` base URL, taken as given, points every role at
    one service; ``"none"`` yields an empty bundle. A mapping may configure
    roles individually with ``{"kind": "mock"|"http", "url": ...}`` entries
    under the role names.
    """
    if spec is None or spec == "none":
        return ProviderBundle()
    if spec == "mock":
        return ProviderBundle(
            translator=identity_translator,
            filler=HashFiller(),
            generator=DistinctTokenGenerator(),
            embedder=HashEmbedder(),
            encoder=MockEncoderProvider(),
        )
    if isinstance(spec, str) and spec.startswith(("http:", "https:")):
        return ProviderBundle(**{
            role: HttpProvider(spec, role) for role in HTTP_ROLES})
    if isinstance(spec, dict):
        unknown = sorted(set(spec) - set(HTTP_ROLES))
        if unknown:
            raise ProviderError(f"unknown provider roles {unknown}; "
                                f"expected some of {list(HTTP_ROLES)}")
        mock = make_providers("mock")
        bundle = ProviderBundle()
        for role, conf in spec.items():
            if conf is None:
                continue
            kind = conf.get("kind") if isinstance(conf, dict) else None
            if kind == "mock":
                setattr(bundle, role, getattr(mock, role))
            elif kind == "http" and isinstance(conf.get("url"), str):
                setattr(bundle, role, HttpProvider(conf["url"], role))
            else:
                raise ProviderError(
                    f"provider for {role} must be {{\"kind\": \"mock\"}} or "
                    f"{{\"kind\": \"http\", \"url\": ...}}, got {conf!r}")
        return bundle
    raise ProviderError(f"cannot build providers from {spec!r}")
