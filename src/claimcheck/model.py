"""Check-worthiness scorers: a self-contained baseline and an encoder client.

Both backends map any text to P(CW) in [0, 1] through `score_many`, and
`train_scorer` is the one way to fit either. The baseline is a bag-of-words
logistic regression fit to convergence by a trust-region Newton method,
fully deterministic given its inputs; it is fit from token counts sliced
out of `CorpusFeatures`, never from texts. The encoder backend delegates
training and scoring to a provider speaking the fixed JSON contract
documented in providers.py. Ranking and thresholding scores belong to
evaluation.py.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import zipfile
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np
from scipy import sparse

from .cache import cached, stable_hash
from .corpus import CW, NCW
from .errors import ModelError, ProviderError

BACKENDS = ("baseline", "encoder")

ENCODER_DEFAULTS = {"epochs": 3, "batch_size": 32, "max_seq_len": 128}
# `iterations` caps the solver's outer iterations; `l2` weighs ||w||^2 / 2
BASELINE_DEFAULTS = {"iterations": 300, "l2": 1e-4}
# Part of every baseline model-cache key; bump it whenever the numbers
# `BaselineScorer.fit_matrix` produces change, so older entries are retrained.
TRAINER_VERSION = 2
# The baseline solver stops once the gradient's 2-norm falls below this.
GRADIENT_TOLERANCE = 1e-5

__all__ = [
    "BACKENDS",
    "ENCODER_DEFAULTS",
    "BASELINE_DEFAULTS",
    "TRAINER_VERSION",
    "GRADIENT_TOLERANCE",
    "ScorerConfig",
    "count_matrix",
    "CorpusFeatures",
    "BaselineScorer",
    "EncoderScorer",
    "model_cache_key",
    "train_scorer",
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
        if not isinstance(self.hyperparams, dict):
            raise ModelError(
                f"hyperparams must be a mapping, got {self.hyperparams!r}")
        if self.backend != "baseline":
            return  # encoder hyperparameters go to the provider unchecked
        unknown = sorted(set(self.hyperparams) - set(BASELINE_DEFAULTS))
        if unknown:
            raise ModelError(f"unknown baseline hyperparameters {unknown}; "
                             f"expected some of {sorted(BASELINE_DEFAULTS)}")
        params = self.resolved_hyperparams()
        iters, l2 = params["iterations"], params["l2"]
        if (isinstance(iters, bool) or not isinstance(iters, numbers.Integral)
                or iters < 1):
            raise ModelError(
                f"baseline iterations must be an integer >= 1, got {iters!r}")
        if (isinstance(l2, bool) or not isinstance(l2, numbers.Real)
                or not math.isfinite(l2) or l2 < 0):
            raise ModelError(
                f"baseline l2 must be a finite number >= 0, got {l2!r}")

    def resolved_hyperparams(self) -> dict:
        base = ENCODER_DEFAULTS if self.backend == "encoder" else BASELINE_DEFAULTS
        return {**base, **self.hyperparams}


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


def _check_training(n: int, labels) -> None:
    """Reject training data a scorer cannot learn from: `n` examples need
    as many labels, each CW or NCW, and both classes."""
    if n != len(labels):
        raise ModelError("texts and labels must have the same length")
    classes = set(labels)
    if not classes <= {CW, NCW}:
        unknown = ", ".join(sorted(map(repr, classes - {CW, NCW})))
        raise ModelError(f"unknown labels: {unknown}")
    if len(classes) < 2:
        raise ModelError("training data contains a single class")


def _to_boundary(s, d, radius: float) -> float:
    """The t > 0 with ||s + t·d|| = radius, for s strictly inside."""
    a, b, c = float(d @ d), 2.0 * float(s @ d), float(s @ s) - radius * radius
    aux = b + math.copysign(math.sqrt(b * b - 4.0 * a * c), b)
    return max(-aux / (2.0 * a), -2.0 * c / aux)


def _steihaug(hessp, g, gnorm: float, radius: float):
    """Minimize the model g·s + s·H·s/2 over ||s|| <= radius by conjugate
    gradients (Steihaug), stopping at the boundary, on curvature
    d·H·d <= 0, or once the model's gradient is below
    min(0.5, sqrt(||g||))·||g||. Returns the step s, the model's gradient
    g + H·s there, and whether s lies on the boundary."""
    tol = min(0.5, math.sqrt(gnorm)) * gnorm
    s = np.zeros_like(g)
    r = g
    d = -r
    rr = float(r @ r)
    while True:
        hd = hessp(d)
        dhd = float(d @ hd)
        if dhd > 0:
            alpha = rr / dhd
            step = s + alpha * d
            if float(step @ step) < radius * radius:
                s, r = step, r + alpha * hd
                rr_next = float(r @ r)
                if math.sqrt(rr_next) < tol:
                    return s, r, False
                d = (rr_next / rr) * d - r
                rr = rr_next
                continue
        t = _to_boundary(s, d, radius)
        return s + t * d, r + t * hd, True


def _fit_logistic(x, y, l2: float, max_iter: int):
    """Minimize mean(log(1 + e^z) - y·z) + l2/2·||w||^2, z = x·w + b, over
    theta = (w, b), the bias unregularized, by trust-region Newton with
    Steihaug conjugate gradients (Lin, Weng & Keerthi, JMLR 2008; the
    trust-region rules of Nocedal & Wright, Alg. 7.2). Starts at zero and
    stops once ||gradient|| < GRADIENT_TOLERANCE or after `max_iter` outer
    iterations. Returns (theta, outer iterations, final gradient norm)."""
    n = x.shape[0]
    # the CSC view of x; its matvec is faster than one with x.T.tocsr()
    xt = x.T

    def loss(theta):
        w = theta[:-1]
        z = x @ w + theta[-1]
        soft = np.logaddexp(0.0, z)
        return float(np.mean(soft - y * z)) + 0.5 * l2 * float(w @ w), z, soft

    def gradient(theta, z, soft):
        """The gradient, and p(1 - p)/n per row, which weighs the Hessian."""
        err = (np.exp(z - soft) - y) / n  # exp(z - soft) is p, overflow-free
        g = np.empty_like(theta)
        g[:-1] = xt @ err + l2 * theta[:-1]
        g[-1] = err.sum()
        return g, np.exp(z - 2.0 * soft) / n

    def hessp(v):
        t = curvature * (x @ v[:-1] + v[-1])
        hv = np.empty_like(v)
        hv[:-1] = xt @ t + l2 * v[:-1]
        hv[-1] = t.sum()
        return hv

    theta = np.zeros(x.shape[1] + 1)
    f, z, soft = loss(theta)
    g, curvature = gradient(theta, z, soft)
    gnorm = float(np.sqrt(g @ g))
    radius = 1.0
    done = 0
    while gnorm >= GRADIENT_TOLERANCE and done < max_iter:
        step, model_grad, on_boundary = _steihaug(hessp, g, gnorm, radius)
        predicted = -0.5 * float(step @ (g + model_grad))
        if predicted <= 0:  # rounding has swamped the model's decrease
            break
        trial = theta + step
        f_trial, z, soft = loss(trial)
        rho = (f - f_trial) / predicted
        if rho < 0.25:
            radius *= 0.25
        elif rho > 0.75 and on_boundary:
            radius *= 2.0
        if rho > 0.15:
            theta, f = trial, f_trial
            g, curvature = gradient(theta, z, soft)
            gnorm = float(np.sqrt(g @ g))
        done += 1
    return theta, done, gnorm


class BaselineScorer:
    """Bag-of-words logistic regression.

    The vocabulary is the sorted set of training tokens, and the weights
    are the minimizer of the regularized logistic loss, found from zero by
    a trust-region Newton solve, so training is deterministic and
    insensitive to record order (up to float summation noise). `n_iter`
    and `grad_norm` report the last fit's outer iterations and final
    gradient norm; a loaded model has neither.
    """

    def __init__(self, config: ScorerConfig):
        self.config = config
        self.vocab = {}
        self.weights = None
        self.bias = 0.0
        self.n_iter = None
        self.grad_norm = None

    def fit_matrix(self, vocab: dict, x, labels) -> "BaselineScorer":
        """Fit on counts `x` whose columns are `vocab`'s sorted tokens, as
        `count_matrix` or `CorpusFeatures.training_matrix` return them."""
        _check_training(x.shape[0], labels)
        params = self.config.resolved_hyperparams()
        y = np.array([1.0 if lab == CW else 0.0 for lab in labels])
        theta, self.n_iter, self.grad_norm = _fit_logistic(
            x, y, float(params["l2"]), params["iterations"])
        self.vocab = vocab
        self.weights = theta[:-1]
        self.bias = float(theta[-1])
        return self

    def score_many(self, texts) -> list:
        if self.weights is None:
            raise ModelError("scorer is not trained")
        _, x = count_matrix(texts, self.vocab)
        z = x @ self.weights + self.bias
        return [float(v) for v in 1.0 / (1.0 + np.exp(-z))]

    def save(self, path) -> None:
        """Write the model to exactly `path` (a path or a binary file): an
        npz zip deflated at level 1. Its `vocab` member is the tokens in
        column order, newline-joined, as UTF-8 bytes; `_tokenize` never
        yields a token holding a newline."""
        if self.weights is None:
            raise ModelError("scorer is not trained")
        tokens = sorted(self.vocab, key=self.vocab.get)
        members = {
            "vocab": np.frombuffer("\n".join(tokens).encode("utf-8"),
                                   dtype=np.uint8),
            "weights": self.weights,
            "bias": np.array([self.bias]),
            "config": np.array([json.dumps({
                "backend": self.config.backend,
                "hyperparams": self.config.hyperparams,
                "seed": self.config.seed,
            })], dtype=str),
        }
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED,
                             compresslevel=1) as zf:
            for name, value in members.items():
                with zf.open(f"{name}.npy", "w", force_zip64=True) as fh:
                    np.lib.format.write_array(fh, value, allow_pickle=False)

    @classmethod
    def load(cls, path) -> "BaselineScorer":
        with np.load(path, allow_pickle=False) as data:
            scorer = cls(ScorerConfig(**json.loads(str(data["config"][0]))))
            blob = data["vocab"].tobytes().decode("utf-8")
            scorer.weights = data["weights"]
            scorer.bias = float(data["bias"][0])
        tokens = blob.split("\n") if blob else []
        scorer.vocab = dict(zip(tokens, range(len(tokens))))
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
        _check_training(len(texts), labels)
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


_KEY_CHUNK = 1024


def model_cache_key(config: ScorerConfig, texts, labels) -> str:
    """Cache key of a baseline model: trainer version, backend, resolved
    hyperparameters and seed, then the texts and then the labels, each as
    one int64 array of the item count and every item's length, followed by
    the items' concatenation. Count, lengths and concatenation give back
    the sequence, so no two training sets share a key."""
    digest = hashlib.sha256(stable_hash({
        "trainer": TRAINER_VERSION,
        "backend": config.backend,
        "hyperparams": config.resolved_hyperparams(),
        "seed": config.seed,
    }).encode("ascii"))
    for items in (texts, labels):
        digest.update(np.fromiter(chain((len(items),), map(len, items)),
                                  dtype=np.int64, count=len(items) + 1))
        # UTF-16 encodes Arabic text about five times faster than UTF-8.
        # It has no BOM, so hashing the concatenation a chunk at a time
        # gives the digest of one join without building the whole string.
        for start in range(0, len(items), _KEY_CHUNK):
            digest.update(
                "".join(items[start:start + _KEY_CHUNK]).encode("utf-16-le"))
    return digest.hexdigest()


def train_scorer(records, config: ScorerConfig, providers=None,
                 cache_dir=None, features=None):
    """Fit the configured backend on TweetRecords.

    Baseline models are cached under `cache_dir` by `model_cache_key`;
    encoder models live with their provider and are never cached here.
    A baseline model that has to be trained takes its counts from the
    `CorpusFeatures` that `features`, a zero-argument callable, returns for
    the corpus the records come from; without `features` they are counted
    over the records themselves.
    """
    records = list(records)
    if not records:
        raise ModelError("cannot train on an empty record set")
    texts = [r.text for r in records]
    labels = [r.label for r in records]
    if config.backend != "baseline":
        return EncoderScorer(config, getattr(providers, "encoder", None)).fit(
            texts, labels)

    def fit():
        counts = features() if features is not None else CorpusFeatures(records)
        return BaselineScorer(config).fit_matrix(
            *counts.training_matrix(records), labels)

    path = None
    if cache_dir is not None:
        path = Path(cache_dir) / f"{model_cache_key(config, texts, labels)}.npz"
    return cached(path, fit, BaselineScorer.save, BaselineScorer.load)

