"""Check-worthiness scorers: a self-contained baseline and an encoder client.

Both backends expose the same surface: fit on labeled tweets, then map any
text to P(CW) in [0, 1]. The baseline is a bag-of-words logistic regression
trained by full-batch gradient descent, fully deterministic given its
inputs. The encoder backend delegates training and scoring to a provider
speaking the fixed JSON contract documented in providers.py.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from bisect import bisect_left
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
# Part of every baseline model-cache key; bump it whenever the numbers
# `BaselineScorer.fit_matrix` produces change, so older entries are retrained.
TRAINER_VERSION = 1

__all__ = [
    "BACKENDS",
    "ENCODER_DEFAULTS",
    "BASELINE_DEFAULTS",
    "TRAINER_VERSION",
    "ScorerConfig",
    "count_matrix",
    "CorpusFeatures",
    "BaselineScorer",
    "EncoderScorer",
    "ScoredRanking",
    "model_cache_key",
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


def count_matrix(texts, vocab=None):
    """Token counts of `texts` as a CSR matrix, one row per text.

    Without `vocab` the columns are the sorted set of the texts' tokens;
    with a `vocab` (token -> column) they are its columns and tokens
    outside it are dropped. Returns (vocab, x): float64 counts, int32
    column indices, sorted within each row.
    """
    grow = vocab is None
    ids = {} if grow else vocab
    codes, lengths = array("q"), array("q")
    for text in texts:
        toks = _tokenize(text)
        if grow:  # new tokens get first-seen ids, ranked below
            codes.extend([ids.setdefault(t, len(ids)) for t in toks])
        else:
            codes.extend([ids.get(t, -1) for t in toks])
        lengths.append(len(toks))
    n = len(lengths)
    cols = np.frombuffer(codes, dtype=np.int64)
    rows = np.repeat(np.arange(n), np.frombuffer(lengths, dtype=np.int64))
    if grow:
        tokens = sorted(ids)
        rank = np.empty(len(tokens), dtype=np.int64)
        rank[[ids[t] for t in tokens]] = np.arange(len(tokens))
        cols = rank[cols]
        vocab = dict(zip(tokens, range(len(tokens))))
    else:
        known = cols >= 0
        cols, rows = cols[known], rows[known]
    width = len(vocab)
    stride = max(width, 1)
    # one sorted key per (row, column) entry: sorts rows, then columns
    cells, counts = np.unique(rows * stride + cols, return_counts=True)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cells // stride, minlength=n), out=indptr[1:])
    x = sparse.csr_matrix(
        (counts.astype(np.float64), (cells % stride).astype(np.int32), indptr),
        shape=(n, width),
    )
    return vocab, x


def _with_columns(x, remap, width: int) -> sparse.csr_matrix:
    return sparse.csr_matrix((x.data, remap[x.indices], x.indptr),
                             shape=(x.shape[0], width))


class CorpusFeatures:
    """Token counts of a whole corpus, counted once and sliced per fit.

    Rows are keyed by (tweet_id, text) and columns follow the corpus's
    sorted vocabulary. `training_matrix` returns exactly what
    `count_matrix` returns for the records' texts, counting only the texts
    the corpus does not hold.
    """

    def __init__(self, records):
        records = list(records)
        self.vocab, self.matrix = count_matrix([r.text for r in records])
        self.tokens = list(self.vocab)
        self.rows = {(r.tweet_id, r.text): i for i, r in enumerate(records)}

    def training_matrix(self, records):
        """(vocab, x) of `records`, rows in their order.

        Corpus rows are sliced and their columns remapped monotonically
        onto the sorted union of the tokens they use and the tokens of the
        other records (synthetic ones, or texts differing from the corpus
        copy), so each row keeps its sorted column order.
        """
        records = list(records)
        found = np.array([self.rows.get((r.tweet_id, r.text), -1)
                          for r in records], dtype=np.int64)
        held = found >= 0
        sub = self.matrix[found[held]]
        extra = np.flatnonzero(~held)
        extra_vocab, extra_x = count_matrix([records[i].text for i in extra])

        used = np.bincount(sub.indices, minlength=len(self.tokens)) > 0
        new = []  # extra tokens the corpus lacks, in sorted order
        for tok in extra_vocab:
            j = self.vocab.get(tok)
            if j is None:
                new.append(tok)
            else:
                used[j] = True
        cols = np.flatnonzero(used)
        # a new token sorts just before the first corpus token above it; the
        # stable sort keeps new tokens with one insertion point in order
        keys = np.concatenate([
            2 * cols + 1,
            2 * np.array([bisect_left(self.tokens, tok) for tok in new],
                         dtype=np.int64),
        ])
        order = np.argsort(keys, kind="stable")
        candidates = [self.tokens[j] for j in cols.tolist()] + new
        tokens = [candidates[k] for k in order.tolist()]
        vocab = dict(zip(tokens, range(len(tokens))))
        rank = np.empty(len(order), dtype=np.int32)
        rank[order] = np.arange(len(order))
        remap = np.zeros(len(self.tokens), dtype=np.int32)
        remap[cols] = rank[:cols.size]
        x = _with_columns(sub, remap, len(vocab))
        if extra.size:
            extra_remap = np.array([vocab[t] for t in extra_vocab],
                                   dtype=np.int32)
            stacked = sparse.vstack(
                [x, _with_columns(extra_x, extra_remap, len(vocab))],
                format="csr")
            placed = np.empty(len(records), dtype=np.int64)
            placed[held] = np.arange(sub.shape[0])
            placed[extra] = np.arange(sub.shape[0], len(records))
            x = stacked[placed]
        return vocab, x


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

    def fit(self, texts, labels) -> "BaselineScorer":
        return self.fit_matrix(*count_matrix(texts), labels)

    def fit_matrix(self, vocab: dict, x, labels) -> "BaselineScorer":
        """Fit on counts `x` whose columns are `vocab`'s sorted tokens, as
        `count_matrix` or `CorpusFeatures.training_matrix` return them."""
        if x.shape[0] != len(labels):
            raise ModelError("texts and labels must have the same length")
        if len(set(labels)) < 2:
            raise ModelError("training data contains a single class")
        params = self.config.resolved_hyperparams()
        lr = float(params["learning_rate"])
        iters = int(params["iterations"])
        l2 = float(params["l2"])

        self.vocab = vocab
        y = np.array([1.0 if lab == CW else 0.0 for lab in labels])
        n = x.shape[0]

        w = np.zeros(x.shape[1])
        b = 0.0
        # 0.25 * max ||x_i||^2 bounds the logistic loss curvature per row.
        row_sq = np.asarray(x.multiply(x).sum(axis=1)).ravel()
        lipschitz = max(0.25 * float(row_sq.max(initial=0.0)) + l2, 1e-12)
        step = lr / lipschitz
        # the CSC view of x; its matvec is faster than one with x.T.tocsr()
        xt = x.T
        for _ in range(iters):
            z = x @ w + b
            p = 1.0 / (1.0 + np.exp(-z))
            err = p - y
            grad_w = (xt @ err) / n + l2 * w
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
        _, x = count_matrix(texts, self.vocab)
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
        tokens = data["vocab"].tolist()
        scorer.vocab = dict(zip(tokens, range(len(tokens))))
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


def model_cache_key(config: ScorerConfig, texts, labels) -> str:
    """Cache key of a baseline model: trainer version, backend, resolved
    hyperparameters and seed, then the training data streamed as
    length-prefixed UTF-8 text and label bytes."""
    digest = hashlib.sha256(stable_hash({
        "trainer": TRAINER_VERSION,
        "backend": config.backend,
        "hyperparams": config.resolved_hyperparams(),
        "seed": config.seed,
    }).encode("ascii"))
    for text, label in zip(texts, labels):
        for part in (text.encode("utf-8"), label.encode("utf-8")):
            digest.update(len(part).to_bytes(8, "little"))
            digest.update(part)
    return digest.hexdigest()


def train_scorer(records, config: ScorerConfig, providers=None,
                 cache_dir=None, features=None):
    """Fit the configured backend on TweetRecords.

    Baseline models are cached under `cache_dir` by `model_cache_key`;
    encoder models live with their provider and are never cached here.
    `features`, a zero-argument callable returning the `CorpusFeatures` of
    the corpus the records come from, is called only when a baseline model
    has to be trained; the counts then come from its matrix instead of the
    texts.
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
        path = Path(cache_dir) / f"{model_cache_key(config, texts, labels)}.npz"
        if path.exists():
            return BaselineScorer.load(path)
    scorer = BaselineScorer(config)
    if features is None:
        scorer.fit(texts, labels)
    else:
        scorer.fit_matrix(*features().training_matrix(records), labels)
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
