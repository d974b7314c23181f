"""Metric correctness: AP/MAP against a brute-force oracle, the classifier
metrics, and the integer-delta improvement tables."""

import json
import math
import random
import re
from dataclasses import astuple

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
    average_precision,
    delta_percent,
    evaluate_scores,
    format_delta,
    improvement_table,
    mean_average_precision,
    rank_scores,
    render_improvement_table,
)


def test_ap_all_positives_ranked_first():
    labels = {"a": CW, "b": CW, "c": NCW}
    assert average_precision(["a", "b", "c"], labels, CW) == 1.0


def test_ap_single_positive_at_rank_two():
    labels = {"a": NCW, "b": CW}
    assert average_precision(["a", "b"], labels, CW) == 0.5


def test_ap_no_positive_items_is_zero():
    labels = {"a": NCW, "b": NCW}
    assert average_precision(["a", "b"], labels, CW) == 0.0


def test_ap_empty_ranking_errors():
    with pytest.raises(EvalError):
        average_precision([], {}, CW)


def test_ap_unlabeled_id_errors():
    with pytest.raises(EvalError):
        average_precision(["a", "b"], {"a": CW}, CW)


def test_ap_truncation():
    labels = {"a": CW, "b": NCW, "c": CW, "d": NCW}
    ranking = ["a", "b", "c", "d"]
    assert average_precision(ranking, labels, CW, n=2) == 1.0
    full = average_precision(ranking, labels, CW)
    assert abs(full - (1.0 + 2.0 / 3.0) / 2.0) < 1e-12


def test_ap_matches_oracle_on_random_rankings():
    rng = random.Random(202)
    for _ in range(500):
        n = rng.randint(1, 10)
        ids = [f"t{i}" for i in range(n)]
        labels = {i: rng.choice([CW, NCW]) for i in ids}
        rng.shuffle(ids)
        cutoff = rng.choice([None, rng.randint(1, n)])
        got = average_precision(ids, labels, CW, n=cutoff)
        want = brute_force_ap(ids, labels, CW, n=cutoff)
        assert abs(got - float(want)) < 1e-9


def test_map_perfect_separation():
    scores = {"a": 0.9, "b": 0.8, "c": 0.2, "d": 0.1}
    labels = {"a": CW, "b": CW, "c": NCW, "d": NCW}
    ap_cw, ap_ncw, map_ = mean_average_precision(scores, labels)
    assert (ap_cw, ap_ncw, map_) == (1.0, 1.0, 1.0)


def test_map_identical_scores_uses_id_tie_rule():
    ids = [f"t{i}" for i in range(8)]
    scores = {i: 0.5 for i in ids}
    labels = {i: (CW if k % 2 == 0 else NCW) for k, i in enumerate(ids)}
    got = mean_average_precision(scores, labels)
    want = brute_force_map(scores, labels)
    for g, w in zip(got, want):
        assert abs(g - float(w)) < 1e-9


def test_map_id_mismatch_errors():
    with pytest.raises(EvalError):
        mean_average_precision({"a": 0.5}, {"b": CW})


def test_map_invariant_under_monotone_score_transforms():
    rng = random.Random(7)
    ids = [f"t{i}" for i in range(20)]
    scores = {i: rng.random() for i in ids}
    labels = {i: rng.choice([CW, NCW]) for i in ids}
    base = mean_average_precision(scores, labels)
    for transform in (lambda s: s / 2 + 0.25, lambda s: 1 - math.exp(-3 * s)):
        moved = {i: transform(s) for i, s in scores.items()}
        assert mean_average_precision(moved, labels) == base


def test_map_symmetric_in_classes():
    rng = random.Random(13)
    ids = [f"t{i}" for i in range(30)]
    scores = {i: rng.choice([0.1, 0.3, 0.5, 0.7]) for i in ids}
    labels = {i: rng.choice([CW, NCW]) for i in ids}
    ap_cw, ap_ncw, map_ = mean_average_precision(scores, labels)
    flipped_scores = {i: 1.0 - s for i, s in scores.items()}
    flipped_labels = {i: (NCW if lab == CW else CW) for i, lab in labels.items()}
    f_cw, f_ncw, f_map = mean_average_precision(flipped_scores, flipped_labels)
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


def test_evaluate_scores_labels_through_classify():
    scores = {"a": 0.25, "b": 0.2, "c": 0.9}
    labels = {"a": CW, "b": NCW, "c": NCW}
    # a sits on the threshold, which counts as CW
    report = evaluate_scores("t", scores, labels, threshold=0.25)
    assert (report.precision, report.recall) == (0.5, 1.0)
    with pytest.raises(EvalError, match="threshold"):
        evaluate_scores("t", scores, labels, threshold=1.5)
    with pytest.raises(EvalError, match="outside"):
        evaluate_scores("t", {**scores, "b": float("nan")}, labels)


def test_evaluate_scores_maps_zero_over_zero_to_zero():
    labels = {"a": CW, "b": NCW}
    # nothing clears the threshold: no true and no false positive
    report = evaluate_scores("t", {"a": 0.2, "b": 0.1}, labels)
    assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)
    # no CW to recall, and the one predicted CW is wrong
    report = evaluate_scores("t", {"a": 0.9, "b": 0.1}, {"a": NCW, "b": NCW})
    assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)


def test_evaluate_scores_rejects_an_id_mismatch():
    with pytest.raises(EvalError, match="different ids"):
        evaluate_scores("t", {"a": 0.5}, {"a": CW, "b": NCW})


def test_unknown_labels_are_rejected_by_name():
    scores = {"a": 0.9, "b": 0.1, "c": 0.5}
    labels = {"a": CW, "b": "maybe", "c": NCW}
    with pytest.raises(EvalError, match="unknown labels: 'maybe'"):
        evaluate_scores("T", scores, labels)
    with pytest.raises(EvalError, match="'maybe'"):
        mean_average_precision(scores, labels)


def test_ap_prefix_must_be_none_or_a_positive_integer():
    ranking, labels = ["a", "b", "c"], {"a": NCW, "b": NCW, "c": CW}
    assert average_precision(ranking, labels, CW) == 1 / 3
    assert average_precision(ranking, labels, CW, n=3) == 1 / 3
    assert average_precision(ranking, labels, CW, n=9) == 1 / 3
    for bad in (-1, 0, 1.5, True, "2"):
        with pytest.raises(EvalError, match="n must be None"):
            average_precision(ranking, labels, CW, n=bad)
        with pytest.raises(EvalError, match="n must be None"):
            mean_average_precision({"a": 0.9, "b": 0.5, "c": 0.1}, labels,
                                   n=bad)


def _bits(report) -> tuple:
    return tuple(v.hex() if isinstance(v, float) else v for v in astuple(report))


# scores from a small set, so ties are common and a threshold can equal one;
# the ints 0 and 1 are scores too
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
@given(_scored_tables(), st.sampled_from(_VALUES), st.booleans(),
       st.one_of(st.none(), st.integers(1, 16)))
def test_array_metrics_are_bit_equal_to_the_per_item_reference(
        table, threshold, cw_only, n):
    scores, labels = table
    got = evaluate_scores("T", scores, labels, threshold, cw_only)
    want = reference.evaluate_scores("T", scores, labels, threshold, cw_only)
    assert _bits(got) == _bits(want)
    for positive in (CW, NCW):
        ranking = rank_scores(scores, positive)
        assert ranking == reference.rank_scores(scores, positive)
        assert (average_precision(ranking, labels, positive, n).hex()
                == reference.average_precision(ranking, labels, positive, n).hex())
    got_map = mean_average_precision(scores, labels, n, cw_only)
    assert ([v.hex() for v in got_map] == [v.hex() for v in
            reference.mean_average_precision(scores, labels, n, cw_only)])
    exact = brute_force_map(scores, labels, n)
    for value, oracle in zip(got_map[:2], exact):
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


def test_report_dict_is_golden_with_and_without_cw_only():
    fields = dict(target_topic_id="t", ap_cw=0.75, ap_ncw=0.25, map=0.5,
                  precision=0.5, recall=1.0, f1=2 / 3, n_test=5)
    default = EvalReport(**fields).to_dict()
    assert default == fields
    assert list(default) == ["target_topic_id", "ap_cw", "ap_ncw", "map",
                             "precision", "recall", "f1", "n_test"]
    cw_only = EvalReport(**{**fields, "map": 0.75}, cw_only=True).to_dict()
    assert cw_only == {**fields, "map": 0.75, "cw_only": True}
    assert list(cw_only) == list(default) + ["cw_only"]
    assert json.dumps(cw_only) == (
        '{"target_topic_id": "t", "ap_cw": 0.75, "ap_ncw": 0.25, '
        '"map": 0.75, "precision": 0.5, "recall": 1.0, '
        '"f1": 0.6666666666666666, "n_test": 5, "cw_only": true}')


def test_cw_only_map_keeps_the_true_ncw_ap():
    scores = {"a": 0.9, "b": 0.8, "c": 0.6, "d": 0.4, "e": 0.1}
    labels = {"a": CW, "b": CW, "c": NCW, "d": CW, "e": NCW}
    default = evaluate_scores("t", scores, labels)
    cw_only = evaluate_scores("t", scores, labels, cw_only=True)
    assert default.ap_ncw != default.ap_cw
    assert (cw_only.ap_cw, cw_only.ap_ncw) == (default.ap_cw, default.ap_ncw)
    assert cw_only.map == cw_only.ap_cw
    assert mean_average_precision(scores, labels, cw_only=True) == (
        default.ap_cw, default.ap_ncw, default.ap_cw)
    assert cw_only.to_dict()["cw_only"] is True
    assert "cw_only" not in default.to_dict()


def test_eval_report_checks_map_against_its_mode():
    fields = dict(target_topic_id="t", ap_cw=1.0, ap_ncw=0.5,
                  precision=0.0, recall=0.0, f1=0.0, n_test=1)
    EvalReport(map=1.0, cw_only=True, **fields)
    EvalReport(map=0.75, **fields)
    with pytest.raises(EvalError):
        EvalReport(map=0.75, cw_only=True, **fields)
    with pytest.raises(EvalError):
        EvalReport(map=1.0, **fields)


def test_eval_report_rejects_inconsistent_map():
    with pytest.raises(EvalError):
        EvalReport(target_topic_id="t", ap_cw=1.0, ap_ncw=0.0, map=0.9,
                   precision=0.0, recall=0.0, f1=0.0, n_test=1)


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
