"""Data augmentation for few-shot seeds: back translation, contextual word
substitution, and text generation.

Each strategy turns every few-shot pool sample into at most one synthetic
sample carrying the seed's label; a cell trains on those samples as they
are, by their text and label. Provider failures never abort a run: a
call that raises, or a reply that is empty or holds a lone surrogate, skips
the sample and records the skip, so |synthetic| + |skips| always equals the
pool size. All randomness is derived from the run seed plus the origin tweet
id, so results are reproducible and independent of provider call order.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .cache import cached, stable_hash
from .corpus import has_lone_surrogate
from .errors import AugmentError
from .preprocess import PLACEHOLDERS
from .providers import MASK_TOKEN, HttpProvider

BT = "BT"
CWE = "CWE"
TXTGEN = "TxtGen"
NONE = "none"
STRATEGIES = (BT, CWE, TXTGEN)
_ROLES = {BT: "translator", CWE: "filler", TXTGEN: "generator"}
PIVOT = "en"  # back translation's pivot language
RATIO = 0.3  # the share of word positions CWE substitutes

__all__ = [
    "BT", "CWE", "TXTGEN", "NONE", "STRATEGIES", "PIVOT", "RATIO",
    "AugmentedSample", "GenerationParams", "AugmentationResult",
    "back_translate", "contextual_substitute", "generate_samples",
    "augment_training",
]


@dataclass(frozen=True)
class AugmentedSample:
    origin_tweet_id: str
    text: str
    label: str
    strategy: str

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise AugmentError(f"unknown strategy {self.strategy!r}")
        if not self.text.strip():
            raise AugmentError(f"{self.strategy} sample of "
                               f"{self.origin_tweet_id!r} has empty text")


@dataclass(frozen=True)
class GenerationParams:
    """The text generator's parameters, as the generator role receives
    them; TxtGen always uses these values."""

    num_beams: int = 5
    max_length: int = 200
    top_p: float = 0.75
    repetition_penalty: float = 3
    no_repeat_ngram_size: int = 3

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class AugmentationResult:
    """Synthetic samples plus the skip log for one strategy run."""

    strategy: str
    pool_size: int
    samples: tuple = ()
    skips: tuple = ()  # (origin_tweet_id, reason) pairs
    identical_count: int = 0

    def __post_init__(self):
        if len(self.samples) + len(self.skips) != self.pool_size:
            raise AugmentError(
                f"samples ({len(self.samples)}) + skips ({len(self.skips)}) "
                f"!= pool size ({self.pool_size})"
            )


class _Skip(Exception):
    """Raised by a strategy's finishing step; its message is the skip reason."""


def _augment(strategy, role, samples, call, finish=None):
    """One synthetic sample or one skip per seed record, in input order.

    `call(record)` asks the `role` provider for text, one record at a
    time: an exception, an empty text or a lone surrogate skips the record.
    `finish(record, text)` returns the sample text, or raises `_Skip` to
    skip the record.
    """
    samples = list(samples)

    def attempt(record):  # the sample, or the reason for a skip
        try:
            text = call(record)
        except Exception as exc:
            return f"{role} failed: {exc}"
        if not text or not text.strip():
            return f"{role} returned empty text"
        if has_lone_surrogate(text):
            return f"{role} returned a lone surrogate"
        if finish is not None:
            try:
                text = finish(record, text)
            except _Skip as skip:
                return str(skip)
        return AugmentedSample(record.tweet_id, text, record.label, strategy)

    out, skips, identical = [], [], 0
    for record in samples:
        outcome = attempt(record)
        if isinstance(outcome, str):
            skips.append((record.tweet_id, outcome))
        else:
            out.append(outcome)
            identical += outcome.text == record.text
    return AugmentationResult(strategy, len(samples), tuple(out), tuple(skips),
                              identical)


def back_translate(samples, translator) -> AugmentationResult:
    """Round-trip each sample through the pivot language."""
    if translator is None:
        raise AugmentError("back translation requires a translator provider")
    return _augment(
        BT, "translator", samples,
        lambda r: translator(translator(r.text, "ar", PIVOT), PIVOT, "ar"))


def substitution_count(n_tokens: int, ratio: float) -> int:
    """Positions to substitute: ratio x token count, half rounding up."""
    return int(math.floor(ratio * n_tokens + 0.5))


def contextual_substitute(samples, filler, seed: int = 0) -> AugmentationResult:
    """Mask a seed-chosen `RATIO` of word positions and let the filler
    rewrite them in place.

    The position count comes from the full token count, but placeholder
    tokens are never masked; when placeholders leave fewer eligible
    positions than the count asks for, every eligible position is used.
    A fill that changes the word count is a provider failure.
    """
    if filler is None:
        raise AugmentError("contextual substitution requires a filler provider")

    def fill(record):
        tokens = record.text.split()
        eligible = [i for i, t in enumerate(tokens) if t not in PLACEHOLDERS]
        count = min(substitution_count(len(tokens), RATIO), len(eligible))
        if count == 0:
            return record.text
        rng = random.Random(f"{seed}|cwe|{record.tweet_id}")
        positions = set(rng.sample(eligible, count))
        return filler(" ".join(
            MASK_TOKEN if i in positions else t for i, t in enumerate(tokens)
        ))

    def check_count(record, filled):
        n, m = len(record.text.split()), len(filled.split())
        if m != n:
            raise _Skip(f"filler changed word count ({n} -> {m})")
        return filled

    return _augment(CWE, "filler", samples, fill, check_count)


def generate_samples(samples, generator) -> AugmentationResult:
    """Generate one new text per seed, prompting with the seed's text.

    `GenerationParams()` is forwarded to the provider verbatim; outputs
    longer than its max_length tokens are truncated to it.
    """
    if generator is None:
        raise AugmentError("text generation requires a generator provider")
    params = GenerationParams()

    def truncate(record, text):
        tokens = text.split()
        if len(tokens) > params.max_length:
            return " ".join(tokens[:params.max_length])
        return text

    return _augment(TXTGEN, "generator", samples,
                    lambda r: generator(r.text, params), truncate)


def _provider_identity(provider) -> str:
    """An HTTP provider's base URL, else the callable's module.qualname."""
    if isinstance(provider, HttpProvider):
        return provider.base_url
    named = provider if hasattr(provider, "__qualname__") else type(provider)
    return f"{named.__module__}.{named.__qualname__}"


def _save_result(result: AugmentationResult, fh) -> None:
    """`result` as the JSON of `asdict(result)`, built from the fields
    without its deep copy."""
    blob = {**vars(result), "samples": [vars(s) for s in result.samples]}
    fh.write(json.dumps(blob, ensure_ascii=False).encode("utf-8"))


def _load_result(path) -> AugmentationResult:
    blob = json.loads(Path(path).read_text(encoding="utf-8"))
    blob["samples"] = tuple(AugmentedSample(**s) for s in blob["samples"])
    blob["skips"] = tuple(tuple(s) for s in blob["skips"])
    return AugmentationResult(**blob)


def augment_training(train, pool, strategy: str, providers, seed: int = 0,
                     cache_dir=None):
    """Extend training rows with synthetic variants of their few-shot pool.

    `train` and `pool` are `claimcheck.model.Rows` of one `CorpusFeatures`.
    Returns (train extended by the result's samples, AugmentationResult),
    or (train, None) for strategy ``none``. Only pool samples ever seed
    augmentation, and every pool row must already be a training row. A
    result, fresh or cached, must be the strategy's for a pool of this
    size, and each sample must come from a pool record and carry its
    label. When a cache directory is given, results are reused across runs
    keyed by strategy, the identity of the provider it calls, the
    strategies' constants, pool content, and seed.
    """
    if strategy == NONE:
        return train, None
    if strategy not in STRATEGIES:
        raise AugmentError(f"unknown strategy {strategy!r}")
    outside = pool.rows[~np.isin(pool.rows, train.rows)]
    if pool.features is not train.features or pool.extra or outside.size:
        named = [pool.features.records[i].tweet_id for i in outside[:5]]
        raise AugmentError(
            f"augmentation seeds outside the training set: {named}")
    pool_records = list(pool)

    provider = getattr(providers, _ROLES[strategy], None)

    def run():
        if strategy == BT:
            return back_translate(pool_records, provider)
        if strategy == CWE:
            return contextual_substitute(pool_records, provider, seed)
        return generate_samples(pool_records, provider)

    path = None
    if cache_dir is not None:
        key = stable_hash({
            "strategy": strategy,
            "provider": _provider_identity(provider),
            "params": GenerationParams().to_dict(),
            "ratio": RATIO,
            "pivot": PIVOT,
            "pool": [(r.tweet_id, r.text, r.label) for r in pool_records],
            "seed": seed,
        })
        path = Path(cache_dir) / f"{key}.json"
    result = cached(path, run, _save_result, _load_result)
    if (result.strategy, result.pool_size) != (strategy, len(pool_records)):
        raise AugmentError(
            f"augmentation cache entry {path} holds {result.strategy} for "
            f"{result.pool_size} records, not {strategy} for "
            f"{len(pool_records)}")
    labels = {r.tweet_id: r.label for r in pool_records}
    for s in result.samples:
        if s.origin_tweet_id not in labels:
            raise AugmentError(f"{s.strategy} sample of {s.origin_tweet_id!r}"
                               " names no pool record")
        if s.label != labels[s.origin_tweet_id]:
            raise AugmentError(
                f"{s.strategy} sample of {s.origin_tweet_id!r} is labelled "
                f"{s.label}, its origin {labels[s.origin_tweet_id]}")
    return train.extend(result.samples), result
