"""Cross-topic check-worthy claim detection experiments.

Ingest topic-labeled tweet corpora, run leave-one-topic-out zero-shot and
few-shot experiments with optional data augmentation, and evaluate ranked
check-worthiness predictions with mean average precision.
"""

from .corpus import (
    CANONICAL_TOPIC_IDS,
    CW,
    Corpus,
    NCW,
    TweetRecord,
    build_corpus,
    corpus_stats,
)
from .errors import (
    AugmentError,
    ClaimCheckError,
    ConfigError,
    CorpusError,
    EvalError,
    ModelError,
    ProviderError,
    SimilarityError,
    SplitError,
)
from .evaluation import (
    EvalReport,
    average_precision,
    classify,
    delta_percent,
    evaluate_scores,
    improvement_table,
    mean_average_precision,
    rank_scores,
)
from .model import ScorerConfig, train_scorer
from .preprocess import normalize_tweet
from .runner import ExperimentConfig, run_suite, run_topic
from .splits import few_shot_split, make_holdouts, zero_shot_split

__version__ = "0.1.0"

__all__ = [
    "CANONICAL_TOPIC_IDS", "CW", "NCW", "Corpus", "TweetRecord",
    "build_corpus", "corpus_stats",
    "ClaimCheckError", "CorpusError", "SplitError", "ModelError",
    "AugmentError", "EvalError", "SimilarityError", "ProviderError",
    "ConfigError",
    "EvalReport", "average_precision", "mean_average_precision",
    "evaluate_scores", "delta_percent", "improvement_table",
    "rank_scores", "classify",
    "ScorerConfig", "train_scorer",
    "normalize_tweet",
    "ExperimentConfig", "run_topic", "run_suite",
    "make_holdouts", "zero_shot_split", "few_shot_split",
    "__version__",
]
