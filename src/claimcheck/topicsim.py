"""Pairwise semantic similarity between topics.

A topic embedding is the arithmetic mean of its tweets' embedding vectors
(computed on normalized text); topic-to-topic similarity is the cosine of
those means. The module works for any number of topics; the canonical
corpus happens to have 14.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .cache import atomic_write
from .errors import SimilarityError, is_number

__all__ = [
    "SimilarityMatrix",
    "topic_embedding",
    "similarity_matrix",
    "difficulty_ranking",
    "matrix_to_csv",
    "matrix_to_json",
]

RECIPE = "mean-pooled cosine"


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric cosine-similarity table over an ordered topic list."""

    topic_ids: tuple
    values: tuple  # row tuples, values[i][j] = sim(topic i, topic j)

    def __post_init__(self):
        n = len(self.topic_ids)
        if len(self.values) != n or any(len(row) != n for row in self.values):
            raise SimilarityError("matrix shape does not match topic count")
        for i in range(n):
            if abs(self.values[i][i] - 1.0) > 1e-9:
                raise SimilarityError(
                    f"diagonal entry for {self.topic_ids[i]} is "
                    f"{self.values[i][i]}, expected 1"
                )
            for j in range(i + 1, n):
                if abs(self.values[i][j] - self.values[j][i]) > 1e-9:
                    raise SimilarityError(
                        f"asymmetry at ({self.topic_ids[i]}, {self.topic_ids[j]})"
                    )
                if not -1.0 - 1e-9 <= self.values[i][j] <= 1.0 + 1e-9:
                    raise SimilarityError(
                        f"similarity {self.values[i][j]} outside [-1, 1]"
                    )

    def value(self, topic_a: str, topic_b: str) -> float:
        i = self.topic_ids.index(topic_a)
        j = self.topic_ids.index(topic_b)
        return self.values[i][j]


def topic_embedding(records, embedder) -> np.ndarray:
    """Mean embedding vector over a topic's tweets."""
    records = list(records)
    if not records:
        raise SimilarityError("cannot embed an empty topic")
    vectors = []
    dim = None
    for record in records:
        vec = np.asarray(embedder(record.text), dtype=object)
        if vec.ndim != 1:
            raise SimilarityError(
                f"embedder returned a non-vector for {record.tweet_id}"
            )
        for value in vec:
            if not is_number(value):
                raise SimilarityError(f"embedder returned {value!r}, not a "
                                      f"number, for {record.tweet_id}")
        vec = vec.astype(float)
        if dim is None:
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise SimilarityError(
                f"embedding dimension changed at {record.tweet_id}: "
                f"{vec.shape[0]} != {dim}"
            )
        vectors.append(vec)
    return np.mean(vectors, axis=0)


def similarity_matrix(corpus, embedder) -> SimilarityMatrix:
    """Cosine similarity between every pair of topic embeddings."""
    topic_ids = corpus.topic_ids()
    if not topic_ids:
        raise SimilarityError("corpus has no topics")
    embeddings = []
    for topic_id in topic_ids:
        emb = topic_embedding(corpus.records_for(topic_id), embedder)
        norm = float(np.linalg.norm(emb))
        if norm == 0.0:
            raise SimilarityError(f"zero-norm embedding for topic {topic_id}")
        embeddings.append(emb / norm)
    mat = np.array([[float(a @ b) for b in embeddings] for a in embeddings])
    # cosine of a vector with itself can drift below 1 by float noise
    np.fill_diagonal(mat, 1.0)
    mat = np.clip((mat + mat.T) / 2.0, -1.0, 1.0)
    return SimilarityMatrix(
        topic_ids=tuple(topic_ids),
        values=tuple(tuple(row) for row in mat),
    )


def difficulty_ranking(matrix: SimilarityMatrix) -> list:
    """Topics by mean off-diagonal similarity, most isolated first.

    Ties order by topic id. A single-topic matrix yields mean 0.
    """
    n = len(matrix.topic_ids)
    out = []
    for i, topic_id in enumerate(matrix.topic_ids):
        others = [matrix.values[i][j] for j in range(n) if j != i]
        mean = sum(others) / len(others) if others else 0.0
        out.append((topic_id, mean))
    out.sort(key=lambda pair: (pair[1], pair[0]))
    return out


def matrix_to_csv(matrix: SimilarityMatrix, path) -> None:
    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["topic_id"] + list(matrix.topic_ids))
        for topic_id, row in zip(matrix.topic_ids, matrix.values):
            writer.writerow([topic_id] + ["%.10f" % v for v in row])
    atomic_write(path, write, text=True)


def matrix_to_json(matrix: SimilarityMatrix) -> str:
    ranking = difficulty_ranking(matrix)
    return json.dumps({
        "recipe": RECIPE,
        "topic_ids": list(matrix.topic_ids),
        "values": [list(row) for row in matrix.values],
        "difficulty_ranking": [
            {"topic_id": t, "mean_similarity": m} for t, m in ranking
        ],
    }, indent=2, ensure_ascii=False)
