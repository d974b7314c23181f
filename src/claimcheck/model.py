"""Check-worthiness scorers: a self-contained baseline and an encoder client.

Both backends expose the same surface: fit on labeled tweets, then map any
text to P(CW) in [0, 1]. The baseline is a bag-of-words logistic regression
trained by full-batch gradient descent, fully deterministic given its
inputs. The encoder backend delegates training and scoring to a provider
speaking the fixed JSON contract documented in providers.py.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse

from .cache import atomic_write, stable_hash
from .corpus import CW, NCW
from .errors import ModelError, ProviderError

BACKENDS = ("baseline", "encoder")

ENCODER_DEFAULTS = {"epochs": 3, "batch_size": 32, "max_seq_len": 128}
BASELINE_DEFAULTS = {"learning_rate": 1.0, "iterations": 300, "l2": 1e-4}

__all__ = [
    "BACKENDS",
    "ENCODER_DEFAULTS",
    "BASELINE_DEFAULTS",
    "ScorerConfig",
    "BaselineScorer",
    "EncoderScorer",
    "ScoredRanking",
    "train_scorer",
    "rank_records",
    "classify",
]


@dataclass(frozen=True)
class ScorerConfig:
    """Backend choice plus hyperparameters, with per-backend defaults."""

    backend: str = "baseline"
    hyperparams: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ModelError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )

    def resolved_hyperparams(self) -> dict:
        base = ENCODER_DEFAULTS if self.backend == "encoder" else BASELINE_DEFAULTS
        merged = dict(base)
        merged.update(self.hyperparams)
        return merged


def _tokenize(text: str) -> list:
    return text.split()


class BaselineScorer:
    """Bag-of-words logistic regression.

    The vocabulary is the sorted set of training tokens and weights start
    at zero, so training is deterministic and insensitive to record order
    (up to float summation noise). The gradient step is scaled by a
    Lipschitz bound derived from the data, which keeps full-batch descent
    stable without tuning.
    """

    def __init__(self, config: ScorerConfig):
        self.config = config
        self.vocab = {}
        self.weights = None
        self.bias = 0.0

    def _vectorize(self, texts) -> sparse.csr_matrix:
        rows, cols, vals = [], [], []
        for i, text in enumerate(texts):
            counts = {}
            for tok in _tokenize(text):
                j = self.vocab.get(tok)
                if j is not None:
                    counts[j] = counts.get(j, 0) + 1
            for j, c in counts.items():
                rows.append(i)
                cols.append(j)
                vals.append(float(c))
        return sparse.csr_matrix(
            (vals, (rows, cols)), shape=(len(texts), len(self.vocab))
        )

    def fit(self, texts, labels) -> "BaselineScorer":
        if len(texts) != len(labels):
            raise ModelError("texts and labels must have the same length")
        if len(set(labels)) < 2:
            raise ModelError("training data contains a single class")
        params = self.config.resolved_hyperparams()
        lr = float(params["learning_rate"])
        iters = int(params["iterations"])
        l2 = float(params["l2"])

        tokens = sorted({t for text in texts for t in _tokenize(text)})
        self.vocab = {t: j for j, t in enumerate(tokens)}
        x = self._vectorize(texts)
        y = np.array([1.0 if lab == CW else 0.0 for lab in labels])
        n = x.shape[0]

        w = np.zeros(x.shape[1])
        b = 0.0
        # 0.25 * max ||x_i||^2 bounds the logistic loss curvature per row.
        row_sq = np.asarray(x.multiply(x).sum(axis=1)).ravel()
        lipschitz = max(0.25 * float(row_sq.max(initial=0.0)) + l2, 1e-12)
        step = lr / lipschitz
        for _ in range(iters):
            z = x @ w + b
            p = 1.0 / (1.0 + np.exp(-z))
            err = p - y
            grad_w = (x.T @ err) / n + l2 * w
            grad_b = float(err.mean())
            w -= step * grad_w
            b -= step * grad_b
        self.weights = w
        self.bias = b
        return self

    def score(self, text: str) -> float:
        return self.score_many([text])[0]

    def score_many(self, texts) -> list:
        if self.weights is None:
            raise ModelError("scorer is not trained")
        x = self._vectorize(texts)
        z = x @ self.weights + self.bias
        return [float(v) for v in 1.0 / (1.0 + np.exp(-z))]

    def save(self, path) -> None:
        if self.weights is None:
            raise ModelError("scorer is not trained")
        tokens = sorted(self.vocab, key=self.vocab.get)
        np.savez_compressed(
            path,
            vocab=np.array(tokens, dtype=str),
            weights=self.weights,
            bias=np.array([self.bias]),
            config=np.array([json.dumps({
                "backend": self.config.backend,
                "hyperparams": self.config.hyperparams,
                "seed": self.config.seed,
            })], dtype=str),
        )

    @classmethod
    def load(cls, path) -> "BaselineScorer":
        data = np.load(path, allow_pickle=False)
        conf = json.loads(str(data["config"][0]))
        scorer = cls(ScorerConfig(**conf))
        scorer.vocab = {str(t): j for j, t in enumerate(data["vocab"])}
        scorer.weights = data["weights"]
        scorer.bias = float(data["bias"][0])
        return scorer


class EncoderScorer:
    """Client for a provider-hosted sequence classifier.

    Every request carries the resolved hyperparameters and the seed; the
    provider returns an opaque handle at train time, then probabilities
    at score time. Malformed responses surface as errors rather than
    silently skewing a run.
    """

    def __init__(self, config: ScorerConfig, encoder):
        if encoder is None:
            raise ModelError("encoder backend requires an encoder provider")
        self.config = config
        self.encoder = encoder
        self.handle = None

    def _hyperparams(self) -> dict:
        params = self.config.resolved_hyperparams()
        params["seed"] = self.config.seed
        return params

    def fit(self, texts, labels) -> "EncoderScorer":
        if len(texts) != len(labels):
            raise ModelError("texts and labels must have the same length")
        if len(set(labels)) < 2:
            raise ModelError("training data contains a single class")
        for lab in labels:
            if lab not in (CW, NCW):
                raise ModelError(f"unknown label {lab!r}")
        response = self.encoder({
            "mode": "train",
            "texts": list(texts),
            "labels": list(labels),
            "hyperparams": self._hyperparams(),
        })
        handle = response.get("handle") if isinstance(response, dict) else None
        if not handle:
            raise ProviderError(f"encoder train response missing handle: {response!r}")
        self.handle = handle
        return self

    def score(self, text: str) -> float:
        return self.score_many([text])[0]

    def score_many(self, texts) -> list:
        if self.handle is None:
            raise ModelError("scorer is not trained")
        response = self.encoder({
            "mode": "score",
            "texts": list(texts),
            "handle": self.handle,
            "hyperparams": self._hyperparams(),
        })
        scores = response.get("scores") if isinstance(response, dict) else None
        if scores is None or len(scores) != len(texts):
            raise ProviderError(
                f"encoder returned {0 if scores is None else len(scores)} scores "
                f"for {len(texts)} texts"
            )
        out = []
        for s in scores:
            s = float(s)
            if not 0.0 <= s <= 1.0:
                raise ProviderError(f"encoder score {s} outside [0, 1]")
            out.append(s)
        return out


@dataclass(frozen=True)
class ScoredRanking:
    """Records ordered by descending P(CW), ids ascending within ties."""

    order: tuple
    scores: dict
    target_topic_id: str = ""

    def __post_init__(self):
        if set(self.order) != set(self.scores):
            raise ModelError("ranking order and score table disagree")
        for tid, s in self.scores.items():
            if not 0.0 <= s <= 1.0:
                raise ModelError(f"score {s} for {tid} outside [0, 1]")

    @property
    def entries(self) -> tuple:
        return tuple((i, self.scores[i]) for i in self.order)

    def top(self, n: int) -> tuple:
        return self.order[:n]


def train_scorer(records, config: ScorerConfig, providers=None,
                 cache_dir=None):
    """Fit the configured backend on TweetRecords.

    Baseline models are cached under `cache_dir` keyed by backend, resolved
    hyperparameters, seed, and training data; encoder models live with
    their provider and are never cached here.
    """
    records = list(records)
    if not records:
        raise ModelError("cannot train on an empty record set")
    texts = [r.text for r in records]
    labels = [r.label for r in records]
    if config.backend != "baseline":
        encoder = getattr(providers, "encoder", None) if providers is not None else None
        return EncoderScorer(config, encoder).fit(texts, labels)

    path = None
    if cache_dir is not None:
        key = stable_hash({
            "backend": config.backend,
            "hyperparams": config.resolved_hyperparams(),
            "seed": config.seed,
            "data": list(zip(texts, labels)),
        })
        path = Path(cache_dir) / f"{key}.npz"
        if path.exists():
            return BaselineScorer.load(path)
    scorer = BaselineScorer(config).fit(texts, labels)
    if path is not None:
        atomic_write(path, scorer.save)
    return scorer


def rank_records(scorer, records) -> ScoredRanking:
    records = list(records)
    ids = [r.tweet_id for r in records]
    if not ids:
        raise ModelError("cannot rank an empty record set")
    if len(set(ids)) != len(ids):
        raise ModelError("duplicate tweet ids in ranking input")
    topics = {r.topic_id for r in records}
    scores = scorer.score_many([r.text for r in records])
    table = dict(zip(ids, scores))
    order = tuple(sorted(table, key=lambda i: (-table[i], i)))
    return ScoredRanking(order=order, scores=table,
                         target_topic_id=topics.pop() if len(topics) == 1 else "")


def classify(score: float, threshold: float = 0.5) -> str:
    """Threshold a probability into CW/NCW; the boundary counts as CW."""
    if not 0.0 <= score <= 1.0:
        raise ModelError(f"score {score} outside [0, 1]")
    if not 0.0 <= threshold <= 1.0:
        raise ModelError(f"threshold {threshold} outside [0, 1]")
    return CW if score >= threshold else NCW
