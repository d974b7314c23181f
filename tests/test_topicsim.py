"""Topic similarity matrix tests with controlled mock embedders."""

import csv
import json
import random

import numpy as np
import pytest

from mocks import ConstantEmbedder, KeywordAxisEmbedder

from claimcheck.corpus import CW, Corpus, NCW, TweetRecord
from claimcheck.errors import SimilarityError
from claimcheck.providers import HashEmbedder
from claimcheck.topicsim import (
    SimilarityMatrix,
    difficulty_ranking,
    matrix_to_csv,
    matrix_to_json,
    similarity_matrix,
    topic_embedding,
)


def _rec(topic, i, text):
    return TweetRecord(tweet_id=f"{topic}-{i:03d}", topic_id=topic, text=text,
                       label=CW if i % 2 == 0 else NCW, source="CT20")


def _corpus(topic_texts):
    records = []
    for topic, texts in topic_texts.items():
        for i, text in enumerate(texts):
            records.append(_rec(topic, i, text))
    return Corpus(records)


# ---------------------------------------------------------------------------
# embeddings


def test_topic_embedding_is_the_mean_vector():
    class TwoPoint:
        def __call__(self, text):
            return [1.0, 0.0] if text == "a" else [0.0, 1.0]

    records = [_rec("T", 0, "a"), _rec("T", 1, "b")]
    emb = topic_embedding(records, TwoPoint())
    assert emb.tolist() == [0.5, 0.5]


def test_topic_embedding_single_tweet():
    emb = topic_embedding([_rec("T", 0, "only")], ConstantEmbedder([3.0, 4.0]))
    assert emb.tolist() == [3.0, 4.0]


def test_topic_embedding_rejects_empty_topic():
    with pytest.raises(SimilarityError):
        topic_embedding([], ConstantEmbedder([1.0]))


def test_topic_embedding_rejects_dimension_drift():
    class Drifting:
        def __init__(self):
            self.n = 0

        def __call__(self, text):
            self.n += 1
            return [1.0] * self.n

    records = [_rec("T", 0, "a"), _rec("T", 1, "b")]
    with pytest.raises(SimilarityError):
        topic_embedding(records, Drifting())


def test_topic_embedding_rejects_non_vector():
    class Matrixy:
        def __call__(self, text):
            return [[1.0, 0.0], [0.0, 1.0]]

    with pytest.raises(SimilarityError):
        topic_embedding([_rec("T", 0, "a")], Matrixy())


# ---------------------------------------------------------------------------
# matrix construction


def test_orthogonal_topics_have_exactly_zero_similarity():
    embedder = KeywordAxisEmbedder({"cats": 0, "rain": 1}, dim=2)
    corpus = _corpus({
        "T-A": ["cats cats", "cats"],
        "T-B": ["rain", "rain rain rain"],
    })
    matrix = similarity_matrix(corpus, embedder)
    assert matrix.value("T-A", "T-B") == 0.0
    assert matrix.value("T-A", "T-A") == 1.0


def test_identical_topics_have_similarity_one():
    corpus = _corpus({"T-A": ["x y"], "T-B": ["x y"]})
    matrix = similarity_matrix(corpus, ConstantEmbedder([0.3, 0.4, 0.5]))
    assert matrix.value("T-A", "T-B") == pytest.approx(1.0, abs=1e-12)


def test_zero_norm_embedding_error_names_the_topic():
    embedder = KeywordAxisEmbedder({"cats": 0}, dim=2)
    corpus = _corpus({"T-A": ["cats"], "T-B": ["nothing matches"]})
    with pytest.raises(SimilarityError, match="T-B"):
        similarity_matrix(corpus, embedder)


def test_matrix_is_symmetric_with_unit_diagonal():
    rng = random.Random(2)
    corpus = _corpus({
        f"T-{k}": [" ".join(rng.choice("abcdefgh") for _ in range(6))
                   for _ in range(5)]
        for k in range(6)
    })
    matrix = similarity_matrix(corpus, HashEmbedder(dim=16))
    n = len(matrix.topic_ids)
    for i in range(n):
        assert matrix.values[i][i] == 1.0
        for j in range(n):
            assert matrix.values[i][j] == matrix.values[j][i]
            assert -1.0 <= matrix.values[i][j] <= 1.0


def test_matrix_is_permutation_equivariant():
    texts = {
        "T-A": ["alpha beta", "beta gamma"],
        "T-B": ["delta epsilon"],
        "T-C": ["zeta eta theta", "eta"],
    }
    embedder = HashEmbedder(dim=32)
    forward = similarity_matrix(_corpus(texts), embedder)
    shuffled = dict(reversed(list(texts.items())))
    backward = similarity_matrix(_corpus(shuffled), embedder)
    for a in texts:
        for b in texts:
            assert forward.value(a, b) == pytest.approx(
                backward.value(a, b), abs=1e-12)


def test_matrix_is_scale_invariant():
    base = KeywordAxisEmbedder({"cats": 0, "rain": 1, "vote": 2}, dim=3)

    def scaled(text):
        return [7.0 * v for v in base(text)]

    corpus = _corpus({
        "T-A": ["cats rain", "cats"],
        "T-B": ["rain vote"],
        "T-C": ["vote cats", "vote"],
    })
    m1 = similarity_matrix(corpus, base)
    m2 = similarity_matrix(corpus, scaled)
    for a in m1.topic_ids:
        for b in m1.topic_ids:
            assert m1.value(a, b) == pytest.approx(m2.value(a, b), abs=1e-12)


def test_matrix_validation_catches_bad_shapes():
    with pytest.raises(SimilarityError):
        SimilarityMatrix(("A", "B"), ((1.0, 0.5),))
    with pytest.raises(SimilarityError):
        SimilarityMatrix(("A", "B"), ((0.9, 0.5), (0.5, 1.0)))
    with pytest.raises(SimilarityError):
        SimilarityMatrix(("A", "B"), ((1.0, 0.5), (0.4, 1.0)))
    with pytest.raises(SimilarityError):
        SimilarityMatrix(("A", "B"), ((1.0, 1.5), (1.5, 1.0)))


# ---------------------------------------------------------------------------
# difficulty ranking and export


def test_difficulty_ranking_orders_most_isolated_first():
    matrix = SimilarityMatrix(
        ("T-A", "T-B", "T-C"),
        ((1.0, 0.9, 0.8), (0.9, 1.0, 0.1), (0.8, 0.1, 1.0)),
    )
    ranking = difficulty_ranking(matrix)
    assert [t for t, _ in ranking] == ["T-C", "T-B", "T-A"]
    assert ranking[0][1] == pytest.approx((0.8 + 0.1) / 2)


def test_difficulty_ranking_breaks_ties_by_topic_id():
    matrix = SimilarityMatrix(
        ("T-B", "T-A"),
        ((1.0, 0.5), (0.5, 1.0)),
    )
    assert [t for t, _ in difficulty_ranking(matrix)] == ["T-A", "T-B"]


def test_matrix_csv_round_trip(tmp_path):
    matrix = SimilarityMatrix(
        ("T-A", "T-B"),
        ((1.0, 0.25), (0.25, 1.0)),
    )
    path = tmp_path / "sim.csv"
    matrix_to_csv(matrix, path)
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["topic_id", "T-A", "T-B"]
    assert rows[1] == ["T-A", "1.0000000000", "0.2500000000"]
    assert rows[2] == ["T-B", "0.2500000000", "1.0000000000"]


def test_matrix_json_includes_ranking():
    matrix = SimilarityMatrix(
        ("T-A", "T-B"),
        ((1.0, 0.25), (0.25, 1.0)),
    )
    blob = json.loads(matrix_to_json(matrix))
    assert blob["topic_ids"] == ["T-A", "T-B"]
    assert blob["values"][0][1] == 0.25
    assert [r["topic_id"] for r in blob["difficulty_ranking"]] == ["T-A", "T-B"]
    assert "recipe" in blob


def test_matrix_round_trips_through_numpy():
    values = np.array([[1.0, 0.3], [0.3, 1.0]])
    matrix = SimilarityMatrix(("A", "B"), tuple(tuple(r) for r in values))
    assert matrix.value("A", "B") == 0.3
