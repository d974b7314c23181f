"""Cross-topic check-worthy claim detection experiments.

Ingest topic-labeled tweet corpora, run leave-one-topic-out zero-shot and
few-shot experiments with optional data augmentation, and evaluate ranked
check-worthiness predictions with mean average precision.
"""

__version__ = "0.1.0"
