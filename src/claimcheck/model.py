"""Check-worthiness scorers: a self-contained baseline and an encoder client.

Both backends map any text to P(CW) in [0, 1] through `score_many`, and
`train_scorer` is the one way to fit either. The baseline is a bag-of-words
logistic regression fit to convergence by truncated Newton (preconditioned
conjugate gradients) with a backtracking line search, fully deterministic
given its inputs; it is fit from token counts sliced out of
`CorpusFeatures`, never from texts. A cell's records travel as `Rows`:
positions in one `CorpusFeatures` plus any synthetic records. Its counts,
labels and model-cache key are gathered by position.

A fit's vocabulary is the sorted union of the corpus tokens its rows use
and its synthetic records' tokens. `ColumnLayout` places each used corpus
column in it by integers alone: its rank among the used columns, plus the
synthetic-only tokens that sort before it. Which columns the rows use
comes from per-column row counts kept once per corpus, less those of the
few rows outside the training set. A model-cache hit therefore counts no
text and copies no training row: it reads the synthetic records' unique
tokens and the cached coefficients. Trained or read, a scorer keeps the
layout as its vocabulary and places its weights once on the corpus's
columns, so test rows are scored straight from the corpus matrix by one
product, with no token compared; the vocabulary's strings are built from
the layout only to save, to score strings or to score another corpus's
rows. A model loaded from disk locates the corpus's tokens in its
vocabulary instead. Fit, hit and load all set a scorer's coefficients
through `BaselineScorer._set`.

The encoder backend delegates training and scoring to a provider speaking
the fixed JSON contract documented in providers.py. Ranking and
thresholding scores belong to evaluation.py.
"""

from __future__ import annotations

import hashlib
import json
import math
import zipfile
from array import array
from dataclasses import asdict, dataclass, field, replace
from itertools import chain
from pathlib import Path

import numpy as np
from scipy import sparse

from .cache import atomic_write, cached, stable_hash
from .corpus import CW, NCW
from .errors import ModelError, ProviderError, is_int, is_number

BACKENDS = ("baseline", "encoder")

ENCODER_DEFAULTS = {"epochs": 3, "batch_size": 32, "max_seq_len": 128}
# `iterations` caps the solver's trial points, accepted or not; `l2` weighs
# ||w||^2 / 2
BASELINE_DEFAULTS = {"iterations": 300, "l2": 1e-4}
# Part of every baseline model-cache key; bump it whenever the numbers
# `BaselineScorer.fit_matrix` produces change, or what a cache entry holds
# changes, so older entries are retrained rather than read.
TRAINER_VERSION = 7
# The baseline solver stops once the gradient's 2-norm falls below this.
GRADIENT_TOLERANCE = 1e-5
# No Newton step's conjugate gradients aim below this residual norm: a step
# that starts near GRADIENT_TOLERANCE would otherwise be solved 10-100x past
# what the stopping rule asks (oversolving; Eisenstat & Walker, SIAM J. Sci.
# Comput. 1996).
CG_TOLERANCE_FLOOR = 0.1 * GRADIENT_TOLERANCE
# The weight of diag(H) in the solver's diagonal preconditioner; 1 would be
# pure Jacobi. CG steps over the 56 fits of a cold bench table3 pass
# (corpus seed 0): 0.01 -> 2,770, 0.1 -> 2,082, 1 -> 3,613.
PRECONDITIONER_MIX = 0.1
# A token array is fixed-width only up to this many times its text's size,
# as one long token widens every slot. On bench seed 1's 29,603 tokens
# (mean 5.5 characters), an object array with its strings takes 2.6 MiB,
# the fixed-width one 1.0 MiB at its width of 9 and equal memory near width
# 24 (4.4 times the text); at twice that it still searches about 0.13 ms
# faster per 197 queries, and one 280-character token makes it 31.6 MiB.
WIDTH_FACTOR = 8

__all__ = [
    "BACKENDS",
    "ENCODER_DEFAULTS",
    "BASELINE_DEFAULTS",
    "TRAINER_VERSION",
    "GRADIENT_TOLERANCE",
    "ScorerConfig",
    "count_matrix",
    "record_digests",
    "CorpusFeatures",
    "ColumnLayout",
    "Rows",
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
        for name in ("hyperparams", "seed"):
            try:  # each field as the model cache key hashes it
                json.dumps(getattr(self, name))
            except (TypeError, ValueError) as exc:
                raise ModelError(
                    f"{name} cannot be written as JSON: {exc}") from None
        if self.backend != "baseline":
            return  # the provider takes encoder values without a range check
        unknown = sorted(set(self.hyperparams) - set(BASELINE_DEFAULTS))
        if unknown:
            raise ModelError(f"unknown baseline hyperparameters {unknown}; "
                             f"expected some of {sorted(BASELINE_DEFAULTS)}")
        params = self.resolved_hyperparams()
        iters, l2 = params["iterations"], params["l2"]
        if not (is_int(iters) and iters >= 1):
            raise ModelError(
                f"baseline iterations must be an integer >= 1, got {iters!r}")
        if not (is_number(l2) and math.isfinite(l2) and l2 >= 0):
            raise ModelError(
                f"baseline l2 must be a finite number >= 0, got {l2!r}")

    def resolved_hyperparams(self) -> dict:
        base = ENCODER_DEFAULTS if self.backend == "encoder" else BASELINE_DEFAULTS
        return {**base, **self.hyperparams}


def _tokenize(text: str) -> list:
    return text.split()


def _token_array(tokens: list) -> np.ndarray:
    """The sorted `tokens` as an array numpy orders the way Python orders
    str: fixed-width unicode, unless a token holds a NUL, which fixed-width
    unicode cannot tell from its padding, or the array would be more than
    `WIDTH_FACTOR` times the tokens' text; then Python objects."""
    text = "".join(tokens)
    width = max(map(len, tokens), default=0)
    wide = len(tokens) * width > WIDTH_FACTOR * len(text)
    return np.array(tokens, dtype=object if wide or "\x00" in text else str)


def _locate(tokens: np.ndarray, queries: np.ndarray):
    """Where each of the `queries` goes in the sorted `tokens`: its
    left insertion point, and whether it is there. Fixed-width queries
    wider than the tokens are searched clipped to the tokens' width, as
    numpy would otherwise copy every token at the queries' width; object
    queries against fixed-width tokens are too, unless one holds a NUL,
    which fixed-width unicode cannot hold, as casting every token to an
    object would cost more."""
    if (queries.dtype.kind == "O" and tokens.dtype.kind == "U"
            and "\x00" not in "".join(queries)):
        queries = queries.astype(str)
    if tokens.dtype.kind != queries.dtype.kind:  # compare as Python does
        tokens, queries = tokens.astype(object), queries.astype(object)
    if queries.dtype.kind == "U" and queries.itemsize > tokens.itemsize:
        # a query longer than every token follows exactly the tokens up to
        # and including its clipped prefix, and is never found
        clipped = queries.astype(tokens.dtype)
        at = np.searchsorted(tokens, clipped)
        longer = np.char.str_len(queries) > tokens.itemsize // 4
        at[longer] = np.searchsorted(tokens, clipped[longer], "right")
    else:
        at = np.searchsorted(tokens, queries)
    found = np.zeros(at.size, dtype=bool)
    inside = at < tokens.size
    found[inside] = tokens[at[inside]] == queries[inside]
    return at, found


def count_matrix(texts):
    """Token counts of `texts` as a CSR matrix, one row per text, whose
    columns are the sorted set of the texts' tokens. Returns (tokens, x):
    the tokens as a sorted array, float64 counts and int32 column indices,
    sorted within each row. Each token occurrence is an int32 code, then a
    1.0 in its column, which scipy's compiled `sum_duplicates` adds up in
    place: at most 12 bytes an occurrence beyond the token index and result."""
    ids = {}  # token -> first-seen id, ranked below
    codes, indptr = array("i"), array("q", [0])
    for text in texts:
        codes.extend([ids.setdefault(t, len(ids)) for t in _tokenize(text)])
        indptr.append(len(codes))
    tokens = sorted(ids)
    rank = np.empty(len(tokens), dtype=np.int32)
    rank[[ids[t] for t in tokens]] = np.arange(len(tokens), dtype=np.int32)
    tokens = _token_array(tokens)
    del ids  # the first-seen strings, which the array does not need
    cols = rank[np.frombuffer(codes, dtype=np.intc)]
    del codes
    x = sparse.csr_matrix(
        (np.ones(cols.size), cols, np.frombuffer(indptr, dtype=np.int64)),
        shape=(len(indptr) - 1, tokens.size))
    x.sum_duplicates()
    # keep only the prefix the sums fill, copied one array at a time
    x.data = x.data.copy()
    x.indices = x.indices.copy()
    return tokens, x


def record_digests(texts, labels) -> np.ndarray:
    """One sha256 digest per (text, label) pair, as an (n, 32) uint8
    array. The label comes first, after its length, so no two pairs hash
    the same input."""
    blob = b"".join(
        hashlib.sha256(f"{len(label)}:{label}{text}".encode(
            "utf-16-le", "surrogatepass")).digest()
        for text, label in zip(texts, labels))
    return np.frombuffer(blob, dtype=np.uint8).reshape(-1, 32)


def _unique_tokens(texts) -> np.ndarray:
    """The sorted set of the tokens of `texts`, as `count_matrix` returns
    it, without counting them."""
    tokens = set()
    for text in texts:
        tokens.update(_tokenize(text))
    return _token_array(sorted(tokens))


class CorpusFeatures:
    """Token counts, labels and (text, label) digests of a corpus's
    records, computed once and gathered by position: row i is
    `records[i]`, and the columns are the corpus's sorted tokens.
    `column_rows` counts the rows that use each column, as int32. The
    counts are kept as float32, which holds every integer count below
    2**24 exactly; a fit's `ColumnLayout.matrix` casts them to float64,
    and a product with float64 weights upcasts them, so every number
    computed from them is the one float64 counts give."""

    def __init__(self, records):
        self.records = tuple(records)
        texts = [r.text for r in self.records]
        labels = [r.label for r in self.records]
        self.tokens, self.matrix = count_matrix(texts)
        self.matrix.data = self.matrix.data.astype(np.float32)
        self.column_rows = np.bincount(
            self.matrix.indices, minlength=self.tokens.size).astype(np.int32)
        self.labels = np.array(labels, dtype=object)
        self.digests = record_digests(texts, labels)

    def select(self, rows=None, extra=()) -> "Rows":
        """`Rows` of these records at `rows` (default: all, in order),
        followed by the `extra` records."""
        if rows is None:
            rows = np.arange(len(self.records))
        return Rows(self, np.asarray(rows, dtype=np.int64), tuple(extra))

    def used_columns(self, rows) -> np.ndarray:
        """Whether any record at `rows` uses each column: `column_rows`
        less the counts of the rows outside `rows`, which in a
        leave-one-topic-out cell are few, so the training rows' counts are
        never copied."""
        outside = np.ones(len(self.records), dtype=bool)
        outside[rows] = False
        return self.column_rows > np.bincount(
            self.matrix[np.flatnonzero(outside)].indices,
            minlength=self.tokens.size)

    def columns(self, rows, extra_tokens) -> "ColumnLayout":
        """The column layout of a fit on the records at `rows` followed by
        records whose sorted unique tokens are `extra_tokens` (as
        `_unique_tokens` or `count_matrix` return them)."""
        used = self.used_columns(rows)
        at, found = _locate(self.tokens, extra_tokens)
        used[at[found]] = True
        cols = np.flatnonzero(used)
        new_at = at[~found]  # insertion points of the tokens the corpus lacks
        # a corpus column moves up past the new tokens that sort before it,
        # a new token past the used columns that do
        col_pos = np.arange(cols.size) + np.searchsorted(new_at, cols, "right")
        extra_pos = np.empty(extra_tokens.size, dtype=np.int32)
        extra_pos[~found] = (np.arange(new_at.size)
                             + np.searchsorted(cols, new_at, "left"))
        extra_pos[found] = col_pos[np.searchsorted(cols, at[found])]
        return ColumnLayout(self, cols, col_pos, extra_tokens, extra_pos,
                            ~found)


@dataclass(frozen=True, eq=False)
class ColumnLayout:
    """Where each column of a fit sits in its vocabulary, the sorted union
    of the corpus tokens its rows use and its extra records' tokens,
    exactly as `count_matrix` orders them for those texts. The corpus
    columns `cols` go to `col_pos`, and `extra_tokens[j]` to
    `extra_pos[j]`; `new` marks the extra tokens the corpus lacks. Both
    maps are monotone, so each row keeps its sorted column order."""

    features: CorpusFeatures
    cols: np.ndarray
    col_pos: np.ndarray
    extra_tokens: np.ndarray
    extra_pos: np.ndarray
    new: np.ndarray

    @property
    def size(self) -> int:
        return self.cols.size + int(np.count_nonzero(self.new))

    def vocab(self) -> np.ndarray:
        """The vocabulary's tokens, in column order."""
        corpus_tokens, extra_tokens = self.features.tokens, self.extra_tokens
        vocab = np.empty(self.size, dtype=np.result_type(corpus_tokens,
                                                         extra_tokens))
        vocab[self.col_pos] = corpus_tokens[self.cols]
        vocab[self.extra_pos[self.new]] = extra_tokens[self.new]
        return vocab

    def matrix(self, rows, extra_x) -> sparse.csr_matrix:
        """The counts of a fit on the vocabulary's columns, as one CSR
        matrix: the corpus counts of `rows`, stacked over the extra
        records' counts `extra_x`, whose columns are `extra_tokens`. The
        corpus rows are gathered once; their counts, cast to float64, and
        their columns, remapped, are written straight into the result's
        arrays, as are those of `extra_x`."""
        remap = np.zeros(self.features.tokens.size, dtype=np.int32)
        remap[self.cols] = self.col_pos
        held = self.features.matrix[rows]
        split = held.nnz
        data = np.empty(split + extra_x.nnz)
        indices = np.empty(data.size, dtype=np.int32)
        data[:split], data[split:] = held.data, extra_x.data
        # every column is in range; "clip" only spares the copy "raise" makes
        np.take(remap, held.indices, out=indices[:split], mode="clip")
        np.take(self.extra_pos, extra_x.indices, out=indices[split:],
                mode="clip")
        indptr = np.concatenate([held.indptr, extra_x.indptr[1:] + split])
        return sparse.csr_matrix((data, indices, indptr),
                                 shape=(indptr.size - 1, self.size))

    def on_corpus(self, weights: np.ndarray) -> np.ndarray:
        """`weights` of the vocabulary placed on the corpus's columns; a
        corpus token outside the vocabulary weighs +0.0."""
        placed = np.zeros(self.features.tokens.size)
        placed[self.cols] = weights[self.col_pos]
        return placed


@dataclass(frozen=True, eq=False)
class Rows:
    """The records of a `CorpusFeatures` at `rows`, followed by `extra`
    records it does not hold (synthetic ones). A cell's training and test
    data travel as `Rows`, so the corpus's records are neither copied nor
    counted again."""

    features: CorpusFeatures
    rows: np.ndarray
    extra: tuple = ()

    def __len__(self) -> int:
        return len(self.rows) + len(self.extra)

    def __iter__(self):
        records = self.features.records
        return chain(map(records.__getitem__, self.rows.tolist()), self.extra)

    def extend(self, records) -> "Rows":
        return replace(self, extra=self.extra + tuple(records))

    def labels(self) -> np.ndarray:
        """Every record's label, in order, as an object array."""
        return np.concatenate([self.features.labels[self.rows], np.array(
            [r.label for r in self.extra], dtype=object)])

    def digests(self) -> np.ndarray:
        """The (text, label) digests of every record, in order."""
        held = np.take(self.features.digests, self.rows, axis=0)
        if not self.extra:
            return held
        return np.concatenate([held, record_digests(
            [r.text for r in self.extra], [r.label for r in self.extra])])


def _check_training(n: int, labels) -> np.ndarray:
    """Reject training data a scorer cannot learn from: `n` examples need
    as many labels, each CW or NCW, and both classes. Returns y, 1.0 for
    each CW label and 0.0 for each NCW one."""
    labels = np.asarray(labels, dtype=object)
    if labels.shape != (n,):
        raise ModelError("texts and labels must have the same length")
    cw = labels == CW
    unknown = labels[~(cw | (labels == NCW))]
    if unknown.size:
        names = ", ".join(sorted(map(repr, set(unknown.tolist()))))
        raise ModelError(f"unknown labels: {names}")
    if cw.all() or not cw.any():
        raise ModelError("training data contains a single class")
    return cw.astype(np.float64)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a·b summed in the order numpy's own loop fixes, on any host: a BLAS
    `ddot`, which `a @ b` calls, splits a long sum over its threads."""
    return float(np.einsum("i,i->", a, b))


def _newton_cg(hessp, g, m, gnorm: float):
    """An inexact Newton step: minimize the model g·s + s·H·s/2 from s = 0
    by conjugate gradients preconditioned with the diagonal `m`, until the
    model's gradient r = g + H·s has ||r|| < min(0.5, sqrt(||g||))·||g||,
    or ||r|| < CG_TOLERANCE_FLOOR. `hessp(d)` returns H·d and d's margins
    X·d_w + d_b, which the step's margins sum, so a trial point along the
    step is priced without a product of its own. A direction of curvature
    d·H·d <= 0 ends it with the step so far, or with the first direction
    -g/m if there is none. Returns the step, its margins and the number of
    CG steps (Hessian-vector products) taken."""
    tol = max(min(0.5, math.sqrt(gnorm)) * gnorm, CG_TOLERANCE_FLOOR)
    s, q = np.zeros_like(g), 0.0
    r = g
    z = r / m
    d = -z
    rz = _dot(r, z)
    steps = 0
    while True:
        hd, xd = hessp(d)
        steps += 1
        dhd = _dot(d, hd)
        if dhd <= 0:
            return (s, q, steps) if steps > 1 else (d, xd, steps)
        alpha = rz / dhd
        s, q, r = s + alpha * d, q + alpha * xd, r + alpha * hd
        if math.sqrt(_dot(r, r)) < tol:
            return s, q, steps
        z = r / m
        rz_next = _dot(r, z)
        d = (rz_next / rz) * d - z
        rz = rz_next


def _preconditioner(xsq_t, curvature, l2: float):
    """The diagonal (1 - a)·l2 + a·diag(H) of Hsia, Chiang & Lin (ACML
    2018), a = PRECONDITIONER_MIX, in this module's mean-loss scaling:
    diag(H) is sum_i x_ij^2·c_i + l2 for a weight and sum_i c_i for the
    bias, c the Hessian's row weights p(1 - p)/n and `xsq_t` the
    transposed squared counts. Floored at machine epsilon, so a curvature
    that underflows to 0 at l2 = 0 divides nothing by zero."""
    m = np.empty(xsq_t.shape[0] + 1)
    m[:-1] = PRECONDITIONER_MIX * (xsq_t @ curvature) + l2
    m[-1] = (PRECONDITIONER_MIX * curvature.sum()
             + (1.0 - PRECONDITIONER_MIX) * l2)
    return np.maximum(m, np.finfo(float).eps, out=m)


def _fit_logistic(x, y, l2: float, max_iter: int):
    """Minimize mean(log(1 + e^z) - y·z) + l2/2·||w||^2, z = x·w + b, over
    theta = (w, b), the bias unregularized, by truncated Newton with a
    backtracking line search (Nocedal & Wright, Alg. 7.1): each step comes
    from `_newton_cg`, whose conjugate gradients are preconditioned by a
    diagonal M built at the start of each step (Hsia, Chiang & Lin, ACML
    2018), and is halved until the loss falls enough (Armijo). `y` holds
    both classes. Starts at the intercept-only optimum w = 0, b =
    log(ybar / (1 - ybar)), whose margins are b everywhere, or at zero when
    l2 = 0, as unregularized fits took more CG steps from the intercept
    (2,879 against 1,978 over a cold bench table3 pass, corpus seed 1).
    Stops once ||gradient|| < GRADIENT_TOLERANCE, after `max_iter` trial
    points, accepted or not, or at a step that does not descend. The
    margins z are carried along: a trial point's are z plus the step's
    margins, which halve with it (Galli & Lin, IEEE TNNLS 2021), so only
    the gradient, the preconditioner and CG multiply by x. Returns (theta,
    trial points, final gradient norm, CG steps)."""
    n = x.shape[0]
    # CSC views of x and of its squared counts; a matvec with x.T is faster
    # than one with x.T.tocsr()
    xt = x.T
    xsq_t = sparse.csr_matrix((x.data ** 2, x.indices, x.indptr),
                              shape=x.shape).T

    def loss(theta, z):
        w = theta[:-1]
        soft = np.logaddexp(0.0, z)
        return float(np.mean(soft - y * z)) + 0.5 * l2 * _dot(w, w), soft

    def gradient(theta, z, soft):
        """The gradient, and p(1 - p)/n per row, which weighs the Hessian."""
        err = (np.exp(z - soft) - y) / n  # exp(z - soft) is p, overflow-free
        g = np.empty_like(theta)
        g[:-1] = xt @ err + l2 * theta[:-1]
        g[-1] = err.sum()
        return g, np.exp(z - 2.0 * soft) / n

    def hessp(v):
        """H·v, and v's margins x·v_w + v_b."""
        xv = x @ v[:-1] + v[-1]
        t = curvature * xv
        hv = np.empty_like(v)
        hv[:-1] = xt @ t + l2 * v[:-1]
        hv[-1] = t.sum()
        return hv, xv

    theta = np.zeros(x.shape[1] + 1)
    if l2 > 0:
        positives = int(np.count_nonzero(y))
        # math.log, unlike np.log, gives the same bits on every CPU
        theta[-1] = math.log(positives / (n - positives))
    z = np.full(n, theta[-1])
    f, soft = loss(theta, z)
    g, curvature = gradient(theta, z, soft)
    gnorm = math.sqrt(_dot(g, g))
    done = cg_steps = 0
    while gnorm >= GRADIENT_TOLERANCE and done < max_iter:
        m = _preconditioner(xsq_t, curvature, l2)
        step, margins, steps = _newton_cg(hessp, g, m, gnorm)
        cg_steps += steps
        slope = _dot(g, step)
        if slope >= 0:  # rounding has left no descent direction
            break
        while done < max_iter:
            done += 1
            trial, z_trial = theta + step, z + margins
            f_trial, soft = loss(trial, z_trial)
            # Armijo's sufficient decrease, with the usual constant 1e-4
            if f_trial <= f + 1e-4 * slope:
                theta, z, f = trial, z_trial, f_trial
                g, curvature = gradient(theta, z, soft)
                gnorm = math.sqrt(_dot(g, g))
                break
            # halving is exact, so slope stays g·step and the margins
            # x·step_w + step_b to the last bit
            step, margins, slope = 0.5 * step, 0.5 * margins, 0.5 * slope
    return theta, done, gnorm, cg_steps


# what reading a file that is not the npz its reader expects can raise
_NOT_A_MODEL = (IndexError, KeyError, TypeError, ValueError, ModelError,
                zipfile.BadZipFile)


def _npz_members(path, names) -> list:
    """The arrays `names` of the npz zip at `path`, in order."""
    with zipfile.ZipFile(path) as zf:
        members = []
        for name in names:
            with zf.open(f"{name}.npy") as fh:
                members.append(
                    np.lib.format.read_array(fh, allow_pickle=False))
    return members


class BaselineScorer:
    """Bag-of-words logistic regression.

    The vocabulary is the sorted set of training tokens, and the weights
    are the minimizer of the regularized logistic loss, found from the
    intercept-only optimum (from zero when l2 = 0) by a line-search Newton
    solve, so training is deterministic and insensitive to record order
    (up to float summation noise). `n_iter`, `cg_steps` and `grad_norm`
    report the last fit's iterations (trial points, accepted or not),
    Hessian-vector products and final gradient norm; a loaded model has
    none of them.
    """

    def __init__(self, config: ScorerConfig):
        self.config = config
        self._vocab = _token_array([])
        self.weights = None
        self.bias = 0.0
        self.n_iter = None
        self.cg_steps = None
        self.grad_norm = None
        self._placed = None  # (CorpusFeatures, the weights on its columns)

    @property
    def vocab(self) -> np.ndarray:
        """The sorted tokens the weights belong to. A scorer fit or read
        through a column layout builds them from it only when asked: to
        save, to score strings, or to score another corpus's rows."""
        if isinstance(self._vocab, ColumnLayout):
            self._vocab = self._vocab.vocab()
        return self._vocab

    def _set(self, vocab, theta: np.ndarray) -> "BaselineScorer":
        """Take the coefficients theta = (weights, bias) over `vocab`: the
        sorted tokens, or the `ColumnLayout` that lays them out, whose
        corpus columns the weights are placed on now, for `score_many` of
        that corpus's `Rows`."""
        self._vocab = vocab
        self.weights = theta[:-1]
        self.bias = float(theta[-1])
        self._placed = ((vocab.features, vocab.on_corpus(self.weights))
                        if isinstance(vocab, ColumnLayout) else None)
        return self

    def fit_matrix(self, vocab, x, labels) -> "BaselineScorer":
        """Fit on counts `x` whose columns are `vocab`: the sorted tokens,
        as `count_matrix` returns them, or a `ColumnLayout`, whose
        `matrix` gives the counts."""
        y = _check_training(x.shape[0], labels)
        params = self.config.resolved_hyperparams()
        theta, self.n_iter, self.grad_norm, self.cg_steps = _fit_logistic(
            x, y, float(params["l2"]), params["iterations"])
        return self._set(vocab, theta)

    def _weights_on(self, tokens: np.ndarray) -> np.ndarray:
        """The weights placed on the columns of the sorted `tokens`; a
        token the model lacks weighs +0.0, which changes no row sum."""
        at, found = _locate(self.vocab, tokens)
        placed = np.zeros(tokens.size)
        placed[found] = self.weights[at[found]]
        return placed

    def score_many(self, texts) -> list:
        """P(CW) of each text: of strings, counted here, or of `Rows`,
        whose counts are sliced out of their corpus matrix. The weights are
        placed on the counts' columns. For `Rows` that is done once per
        corpus: `train_scorer` places them from the fit's column layout,
        and any other corpus's tokens are located in the vocabulary."""
        if self.weights is None:
            raise ModelError("scorer is not trained")
        if isinstance(texts, Rows):
            features = texts.features
            if self._placed is None or self._placed[0] is not features:
                self._placed = (features, self._weights_on(features.tokens))
            x, w = features.matrix[texts.rows], self._placed[1]
        else:
            tokens, x = count_matrix(texts)
            w = self._weights_on(tokens)
        z = x @ w + self.bias
        return (1.0 / (1.0 + np.exp(-z))).tolist()

    def save(self, path) -> None:
        """Write the model to exactly `path` (a path, through `atomic_write`,
        or a binary file): an npz zip deflated at level 1. Its `vocab` member
        is the tokens in column order, newline-joined, as UTF-8 bytes;
        `_tokenize` never yields a token holding a newline."""
        if self.weights is None:
            raise ModelError("scorer is not trained")
        if not hasattr(path, "write"):
            return atomic_write(path, self.save)
        blob = "\n".join(self.vocab.tolist()).encode("utf-8")
        members = {
            "vocab": np.frombuffer(blob, dtype=np.uint8),
            "weights": self.weights,
            "bias": np.array([self.bias]),
            "config": np.array([json.dumps(asdict(self.config))], dtype=str),
        }
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED,
                             compresslevel=1) as zf:
            for name, value in members.items():
                with zf.open(f"{name}.npy", "w", force_zip64=True) as fh:
                    np.lib.format.write_array(fh, value, allow_pickle=False)

    @classmethod
    def load(cls, path) -> "BaselineScorer":
        """Read a model `save` wrote; a file that holds anything else
        raises ModelError."""
        try:
            vocab, weights, bias, config = _npz_members(
                path, ("vocab", "weights", "bias", "config"))
            blob = vocab.tobytes().decode("utf-8")
            tokens = _token_array(blob.split("\n") if blob else [])
            if weights.shape != tokens.shape:
                raise ModelError(
                    f"{weights.size} weights for {tokens.size} tokens")
            scorer = cls(ScorerConfig(**json.loads(str(config[0]))))._set(
                tokens, np.append(weights, float(bias[0])))
        except _NOT_A_MODEL as exc:
            raise ModelError(
                f"{path} is not a saved baseline model: {exc}") from exc
        return scorer


def _write_entry(scorer: BaselineScorer, fh) -> None:
    """Write a model-cache entry: an npz zip holding theta = (weights,
    bias) as one stored float64 member. The entry's key fixes the config
    and the training records, so it holds nothing else."""
    np.savez(fh, theta=np.append(scorer.weights, scorer.bias))


def _read_entry(path, config: ScorerConfig,
                layout: ColumnLayout) -> BaselineScorer:
    """The model of the cache entry at `path`, written for a fit of
    `config` whose columns `layout` lays out."""
    try:
        (theta,) = _npz_members(path, ("theta",))
    except _NOT_A_MODEL as exc:
        raise ModelError(
            f"{path} is not a baseline model-cache entry: {exc}") from exc
    size = layout.size
    if theta.dtype != np.float64 or theta.shape != (size + 1,):
        raise ModelError(
            f"model-cache entry {path} holds {theta.size} {theta.dtype} "
            f"coefficients; a vocabulary of {size} tokens needs "
            f"{size + 1} float64")
    return BaselineScorer(config)._set(layout, theta)


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
        texts = ([r.text for r in texts] if isinstance(texts, Rows)
                 else list(texts))
        response = self.encoder({
            "mode": "score",
            "texts": texts,
            "handle": self.handle,
            "hyperparams": self._hyperparams(),
        })
        scores = response.get("scores") if isinstance(response, dict) else None
        if not isinstance(scores, list) or len(scores) != len(texts):
            count = len(scores) if isinstance(scores, list) else 0
            raise ProviderError(
                f"encoder returned {count} scores for {len(texts)} texts")
        for s in scores:
            if not is_number(s):
                raise ProviderError(f"encoder score {s!r} is not a number")
            if not 0.0 <= s <= 1.0:
                raise ProviderError(f"encoder score {s} outside [0, 1]")
        return [float(s) for s in scores]


def model_cache_key(config: ScorerConfig, digests) -> str:
    """Cache key of a baseline model: sha256 over the trainer version,
    backend, resolved hyperparameters and seed, then the training records'
    (text, label) digests in order (`record_digests`). Equal texts and
    labels in equal order give an equal key, whatever corpus they came
    from."""
    digest = hashlib.sha256(stable_hash({
        "trainer": TRAINER_VERSION,
        "backend": config.backend,
        "hyperparams": config.resolved_hyperparams(),
        "seed": config.seed,
    }).encode("ascii"))
    digest.update(np.ascontiguousarray(digests, dtype=np.uint8))
    return digest.hexdigest()


def train_scorer(train, config: ScorerConfig, providers=None, cache_dir=None):
    """Fit the configured backend on `train`: `Rows`, or TweetRecords.

    Baseline models are cached under `cache_dir` by `model_cache_key`;
    encoder models live with their provider and are never cached here.
    A baseline model takes its column layout, and when it has to be
    trained its counts, from the `CorpusFeatures` the rows belong to;
    plain records are counted into one of their own first. The layout
    needs only which corpus columns the rows use and the extra records'
    unique tokens, so a cache hit counts nothing. An entry holds only
    theta = (weights, bias): its key fixes the config and the training
    records, so a hit takes `config` as given. Either way the scorer keeps
    the layout as its vocabulary and places the weights on the corpus's
    columns once, for `score_many` of its `Rows`.
    """
    if not isinstance(train, Rows):
        train = list(train)
    if not len(train):
        raise ModelError("cannot train on an empty record set")
    if config.backend != "baseline":
        records = list(train)
        return EncoderScorer(config, getattr(providers, "encoder", None)).fit(
            [r.text for r in records], [r.label for r in records])
    if not isinstance(train, Rows):
        train = CorpusFeatures(train).select()
    features = train.features
    extra_texts = [r.text for r in train.extra]

    def fit():
        extra_tokens, extra_x = count_matrix(extra_texts)
        layout = features.columns(train.rows, extra_tokens)
        return BaselineScorer(config).fit_matrix(
            layout, layout.matrix(train.rows, extra_x), train.labels())

    def read(entry):
        # the extra texts' unique tokens give the layout their counts would
        layout = features.columns(train.rows, _unique_tokens(extra_texts))
        return _read_entry(entry, config, layout)

    path = None
    if cache_dir is not None:
        path = Path(cache_dir) / f"{model_cache_key(config, train.digests())}.npz"
    return cached(path, fit, _write_entry, read)
