"""Metric correctness of `evaluate_scores`: AP/MAP against a brute-force
oracle, the threshold and its P/R/F1, and the integer-delta improvement
tables."""

import math
import random
import re
from dataclasses import asdict, astuple

import pytest
import reference_evaluation as reference
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_force_ap, brute_force_map

from claimcheck.corpus import CW, NCW
from claimcheck.errors import EvalError
from claimcheck.evaluation import (
    EvalReport,
    ImprovementCell,
    column_means,
    delta_percent,
    evaluate_scores,
    format_delta,
    improvement_table,
    rank_scores,
    render_improvement_table,
)


def _aps(scores, labels) -> tuple:
    """(AP_cw, AP_ncw, MAP) of `evaluate_scores` for one test set."""
    report = evaluate_scores("T", scores, labels)
    return report.ap_cw, report.ap_ncw, report.map


def _ranked(ranking) -> dict:
    """Scores that rank `ranking` best first for CW, as given."""
    return {i: 1 - k / len(ranking) for k, i in enumerate(ranking)}


def test_ap_all_positives_ranked_first():
    labels = {"a": CW, "b": CW, "c": NCW}
    assert _aps(_ranked(["a", "b", "c"]), labels)[0] == 1.0


def test_ap_single_positive_at_rank_two():
    labels = {"a": NCW, "b": CW}
    assert _aps(_ranked(["a", "b"]), labels)[0] == 0.5


def test_ap_no_positive_items_is_zero():
    labels = {"a": NCW, "b": NCW}
    assert _aps(_ranked(["a", "b"]), labels)[0] == 0.0


def test_ap_empty_ranking_errors():
    with pytest.raises(EvalError, match="empty score table"):
        evaluate_scores("t", {}, {})


def test_ap_averages_precision_at_each_positive():
    labels = {"a": CW, "b": NCW, "c": CW, "d": NCW}
    ap_cw = _aps(_ranked(["a", "b", "c", "d"]), labels)[0]
    assert abs(ap_cw - (1.0 + 2.0 / 3.0) / 2.0) < 1e-12


def test_ap_matches_oracle_on_random_rankings():
    rng = random.Random(202)
    for _ in range(500):
        n = rng.randint(1, 10)
        ids = [f"t{i}" for i in range(n)]
        labels = {i: rng.choice([CW, NCW]) for i in ids}
        rng.shuffle(ids)
        got = _aps(_ranked(ids), labels)[0]
        want = brute_force_ap(ids, labels, CW)
        assert abs(got - float(want)) < 1e-9


def test_map_perfect_separation():
    scores = {"a": 0.9, "b": 0.8, "c": 0.2, "d": 0.1}
    labels = {"a": CW, "b": CW, "c": NCW, "d": NCW}
    assert _aps(scores, labels) == (1.0, 1.0, 1.0)


def test_map_identical_scores_uses_id_tie_rule():
    ids = [f"t{i}" for i in range(8)]
    scores = {i: 0.5 for i in ids}
    labels = {i: (CW if k % 2 == 0 else NCW) for k, i in enumerate(ids)}
    got = _aps(scores, labels)
    want = brute_force_map(scores, labels)
    for g, w in zip(got, want):
        assert abs(g - float(w)) < 1e-9


def test_map_invariant_under_monotone_score_transforms():
    rng = random.Random(7)
    ids = [f"t{i}" for i in range(20)]
    scores = {i: rng.random() for i in ids}
    labels = {i: rng.choice([CW, NCW]) for i in ids}
    base = _aps(scores, labels)
    for transform in (lambda s: s / 2 + 0.25, lambda s: 1 - math.exp(-3 * s)):
        moved = {i: transform(s) for i, s in scores.items()}
        assert _aps(moved, labels) == base


def test_map_symmetric_in_classes():
    rng = random.Random(13)
    ids = [f"t{i}" for i in range(30)]
    scores = {i: rng.choice([0.1, 0.3, 0.5, 0.7]) for i in ids}
    labels = {i: rng.choice([CW, NCW]) for i in ids}
    ap_cw, ap_ncw, map_ = _aps(scores, labels)
    flipped_scores = {i: 1.0 - s for i, s in scores.items()}
    flipped_labels = {i: (NCW if lab == CW else CW) for i, lab in labels.items()}
    f_cw, f_ncw, f_map = _aps(flipped_scores, flipped_labels)
    assert (f_cw, f_ncw) == (ap_ncw, ap_cw)
    assert f_map == map_


def test_evaluate_scores_builds_consistent_report():
    scores = {"a": 0.9, "b": 0.6, "c": 0.4, "d": 0.1}
    labels = {"a": CW, "b": NCW, "c": CW, "d": NCW}
    report = evaluate_scores("topic-x", scores, labels)
    assert report.target_topic_id == "topic-x"
    assert report.n_test == 4
    assert report.map == pytest.approx((report.ap_cw + report.ap_ncw) / 2)
    # a and b clear the 0.5 threshold; only a is truly CW
    assert report.precision == pytest.approx(0.5)
    assert report.recall == pytest.approx(0.5)


def test_evaluate_scores_counts_the_threshold_as_cw():
    scores = {"a": 0.5, "b": 0.4, "c": 0.9}
    labels = {"a": CW, "b": NCW, "c": NCW}
    # a sits on the threshold, which counts as CW
    report = evaluate_scores("t", scores, labels)
    assert (report.precision, report.recall) == (0.5, 1.0)
    # 0.7 and 0.5 are CW and 0.49 is not
    report = evaluate_scores("t", {"a": 0.7, "b": 0.5, "c": 0.49},
                             {"a": CW, "b": CW, "c": CW})
    assert report.recall == 2 / 3
    for bad in (1.2, -0.1, float("nan")):
        with pytest.raises(EvalError, match="outside"):
            evaluate_scores("t", {**scores, "b": bad}, labels)


# a CW item's score and whether the fixed 0.5 threshold predicts it CW
@pytest.mark.parametrize("score, predicted_cw", [
    (0.5, True), (math.nextafter(0.5, 0), False),
    (math.nextafter(0.5, 1), True), (0.0, False), (1.0, True), (0, False),
    (1, True),
])
def test_the_cw_threshold_is_one_half(score, predicted_cw):
    report = evaluate_scores("t", {"a": score, "b": 0.0},
                             {"a": CW, "b": NCW})
    assert (report.precision, report.recall, report.f1) == (
        (1.0, 1.0, 1.0) if predicted_cw else (0.0, 0.0, 0.0))


def test_evaluate_scores_maps_zero_over_zero_to_zero():
    labels = {"a": CW, "b": NCW}
    # nothing clears the threshold: no true and no false positive
    report = evaluate_scores("t", {"a": 0.2, "b": 0.1}, labels)
    assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)
    # no CW to recall, and the one predicted CW is wrong
    report = evaluate_scores("t", {"a": 0.9, "b": 0.1}, {"a": NCW, "b": NCW})
    assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)


def test_evaluate_scores_rejects_an_id_mismatch():
    # an unscored label, an unlabelled score, and other ids altogether
    for scores, labels in (({"a": 0.5}, {"a": CW, "b": NCW}),
                           ({"a": 0.9, "b": 0.1}, {"a": CW}),
                           ({"a": 0.5}, {"b": CW})):
        with pytest.raises(EvalError, match="different ids"):
            evaluate_scores("t", scores, labels)


def test_unknown_labels_are_rejected_by_name():
    scores = {"a": 0.9, "b": 0.1, "c": 0.5}
    labels = {"a": CW, "b": "maybe", "c": NCW}
    with pytest.raises(EvalError, match="unknown labels: 'maybe'"):
        evaluate_scores("T", scores, labels)


def _bits(report) -> tuple:
    return tuple(v.hex() if isinstance(v, float) else v for v in astuple(report))


# scores from a small set, so ties are common and a score can equal the
# threshold; the ints 0 and 1 are scores too
_VALUES = (0.0, 1.0, 0.5, 0.25, 0.1, 0.3, 1 / 3, 0.7, 0.75, 0, 1)


@st.composite
def _scored_tables(draw):
    ids = draw(st.lists(st.text("abcd", min_size=1, max_size=3), min_size=1,
                        max_size=14, unique=True))
    classes = draw(st.sampled_from([(CW, NCW), (CW,), (NCW,)]))
    scores = {i: draw(st.sampled_from(_VALUES)) for i in ids}
    labels = {i: draw(st.sampled_from(classes)) for i in ids}
    return scores, labels


@settings(max_examples=400, deadline=None)
@given(_scored_tables())
def test_array_metrics_are_bit_equal_to_the_per_item_reference(table):
    scores, labels = table
    got = evaluate_scores("T", scores, labels)
    want = reference.evaluate_scores("T", scores, labels)
    assert _bits(got) == _bits(want)
    for positive in (CW, NCW):
        assert rank_scores(scores, positive) == reference.rank_scores(
            scores, positive)
    exact = brute_force_map(scores, labels)
    for value, oracle in zip((got.ap_cw, got.ap_ncw), exact):
        assert abs(value - float(oracle)) < 1e-12


def test_a_bad_score_is_named_as_the_per_item_reference_names_it():
    labels = {"a": CW, "b": NCW, "c": CW}
    for scores in ({"a": 0.5, "b": 2, "c": float("nan")},
                   {"c": -0.5, "a": float("nan"), "b": 0.5},
                   {"a": 0.5, "b": "0.5", "c": 0.5},
                   {"a": 0.5, "b": None, "c": 2}):
        with pytest.raises((EvalError, TypeError)) as want:
            reference.evaluate_scores("T", scores, labels)
        with pytest.raises(want.type, match=re.escape(str(want.value))):
            evaluate_scores("T", scores, labels)
        with pytest.raises(want.type, match=re.escape(str(want.value))):
            rank_scores(scores)


def test_report_dict_is_golden():
    fields = dict(target_topic_id="t", ap_cw=0.75, ap_ncw=0.25, map=0.5,
                  precision=0.5, recall=1.0, f1=2 / 3, n_test=5)
    report = asdict(EvalReport(**fields))
    assert report == fields
    assert list(report) == ["target_topic_id", "ap_cw", "ap_ncw", "map",
                            "precision", "recall", "f1", "n_test"]


def test_eval_report_rejects_inconsistent_map():
    fields = dict(target_topic_id="t", ap_cw=1.0, ap_ncw=0.5,
                  precision=0.0, recall=0.0, f1=0.0, n_test=1)
    EvalReport(map=0.75, **fields)
    for wrong in (1.0, 0.9):
        with pytest.raises(EvalError, match="mean of the class APs"):
            EvalReport(map=wrong, **fields)


@pytest.mark.parametrize("base,new,expected", [
    (0.6408, 0.6664, 3),
    (0.2468, 0.4868, 24),
    (0.2644, 0.2616, 0),
    (0.5637, 0.8448, 28),
    (0.3723, 0.2616, -11),
    (0.6883, 0.6590, -3),
    (0.5464, 0.6579, 11),
    (0.5983, 0.5865, -1),
])
def test_delta_percent_known_cells(base, new, expected):
    assert delta_percent(base, new) == expected


def test_delta_percent_rounds_half_away_from_zero():
    # 0.125 and 0.375 are exact in binary, so these sit exactly on .5
    assert delta_percent(0.0, 0.125) == 13
    assert delta_percent(0.0, -0.125) == -13
    assert delta_percent(0.25, 0.375) == 13
    assert delta_percent(0.0, 0.004) == 0
    assert delta_percent(0.0, 0.0) == 0
    assert delta_percent(0.2, 0.2) == 0


def test_improvement_cell_validates_delta():
    ImprovementCell(0.5, 0.6, 10)
    with pytest.raises(EvalError):
        ImprovementCell(0.5, 0.6, 9)


def test_improvement_table_cells_and_average():
    base = {"t1": 0.40, "t2": 0.60}
    variants = {"v": {"t1": 0.50, "t2": 0.66}}
    table = improvement_table(base, variants)
    assert table.cell("v", "t1").delta_pct == 10
    assert table.cell("v", "t2").delta_pct == 6
    avg = table.average["v"]
    assert avg.base_map == pytest.approx(0.50)
    assert avg.new_map == pytest.approx(0.58)
    assert avg.delta_pct == 8


def test_improvement_table_topic_mismatch_errors():
    with pytest.raises(EvalError):
        improvement_table({"t1": 0.4}, {"v": {"t2": 0.5}})


def test_an_empty_column_has_no_average():
    with pytest.raises(EvalError, match="empty column"):
        column_means({})
    with pytest.raises(EvalError, match="empty column"):
        improvement_table({}, {"x": {}})


def test_improvement_table_accepts_reports(small_corpus):
    report = evaluate_scores(
        "S-A",
        {r.tweet_id: 0.9 if r.label == CW else 0.1
         for r in small_corpus.records_for("S-A")},
        {r.tweet_id: r.label for r in small_corpus.records_for("S-A")},
    )
    table = improvement_table({"S-A": 0.5}, {"v": {"S-A": report}})
    assert table.cell("v", "S-A").new_map == report.map == 1.0


def test_delta_rendering_styles():
    assert format_delta(0) == "(0%)"
    assert format_delta(3) == "(+3%)"
    assert format_delta(-11) == "(-11%)"


def test_render_improvement_table_deltas():
    base = {"t1": 0.2468, "t2": 0.5637}
    variants = {"CWE": {"t1": 0.4868, "t2": 0.8448}}
    table = improvement_table(base, variants)
    text = render_improvement_table(table, base_name="zero-shot")
    assert "(+24%)" in text and "(+28%)" in text
