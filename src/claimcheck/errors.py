"""Exception hierarchy shared across the package, and the two type tests
every config check uses: a bool is neither an integer nor a number here."""

import numbers


def is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class ClaimCheckError(Exception):
    """Base class for all errors raised by this package."""


class CorpusError(ClaimCheckError):
    """Malformed input files, bad labels, duplicate ids, broken corpora."""


class SplitError(ClaimCheckError):
    """Invalid holdout or train/test split requests."""


class ModelError(ClaimCheckError):
    """Scorer training or scoring failures."""


class AugmentError(ClaimCheckError):
    """Data augmentation failures not attributable to a single sample."""


class EvalError(ClaimCheckError):
    """Metric computation on inconsistent inputs."""


class SimilarityError(ClaimCheckError):
    """Topic embedding or similarity matrix failures."""


class ProviderError(ClaimCheckError):
    """An external provider call failed (after any retries)."""


class ConfigError(ClaimCheckError):
    """Invalid experiment configuration."""
