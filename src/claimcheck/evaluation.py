"""Ranking, decision rule, metrics and result-table arithmetic.

The task is scored as a ranking problem: each test set gets one average
precision per class (AP over the ranking ordered for that class), the mean of
the two is the MAP, and scores at or above the threshold count as CW and
additionally yield precision/recall/F1 for the positive class;
`evaluate_scores` is the one route to all of them. A test set is kept as
arrays in ascending-id order, and `_rank`, one stable argsort, is the one
rank order, for metrics and the `rank` command (`rank_scores`) alike.
Improvement tables compare MAP columns of two experiment variants topic by
topic, with integer percentage deltas.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .corpus import CW, NCW
from .errors import EvalError

__all__ = [
    "EvalReport",
    "ImprovementCell",
    "ImprovementTable",
    "rank_scores",
    "evaluate_scores",
    "column_means",
    "improvement_table",
    "delta_percent",
    "render_report_table",
    "render_improvement_table",
    "reports_to_json",
]


def _combine_aps(ap_cw: float, ap_ncw: float, cw_only: bool) -> float:
    """The MAP rule: mean of the class APs, or the CW AP alone."""
    return ap_cw if cw_only else (ap_cw + ap_ncw) / 2.0


@dataclass(frozen=True)
class EvalReport:
    """All evaluation numbers for one experiment cell (one target topic).

    With `cw_only` the MAP is the CW AP alone; AP_ncw is still reported.
    """

    target_topic_id: str
    ap_cw: float
    ap_ncw: float
    map: float
    precision: float
    recall: float
    f1: float
    n_test: int
    cw_only: bool = False

    def __post_init__(self):
        if abs(self.map - _combine_aps(self.ap_cw, self.ap_ncw, self.cw_only)) > 1e-9:
            rule = "the CW AP" if self.cw_only else "the mean of the class APs"
            raise EvalError(f"map must be {rule}, got {self.map!r}")

    def to_dict(self) -> dict:
        out = asdict(self)
        if not self.cw_only:
            del out["cw_only"]
        return out


def _unit(value: float, name: str = "score") -> float:
    """`value` itself, once it lies in [0, 1] as a P(CW) or a threshold
    must; NaN does not."""
    if not 0.0 <= value <= 1.0:
        raise EvalError(f"{name} {value} outside [0, 1]")
    return value


def _scored(scores: dict):
    """The ids of `scores` (id -> P(CW)) ascending, and their scores as a
    float64 array in that order."""
    if not scores:
        raise EvalError("cannot rank an empty score table")
    ids = sorted(scores)
    values = np.array([scores[i] for i in ids])
    if (values.dtype.kind not in "biuf"
            or not ((values >= 0.0) & (values <= 1.0)).all()):
        for value in scores.values():  # fail on the first bad score as given
            _unit(value)
    return ids, values.astype(np.float64)


def _classes(ids, labels: dict) -> np.ndarray:
    """The labels of `ids`, in order, once each is CW or NCW."""
    classes = [labels[i] for i in ids]
    unknown = set(classes) - {CW, NCW}
    if unknown:
        raise EvalError(f"unknown labels: {', '.join(sorted(map(repr, unknown)))}")
    return np.array(classes, dtype=object)


def _scored_and_labelled(scores: dict, labels: dict):
    """The scores of `_scored(scores)`, and whether each is labelled CW."""
    if scores.keys() != labels.keys():
        raise EvalError(
            f"scores and labels cover different ids "
            f"({len(scores)} scored vs {len(labels)} labelled)"
        )
    ids, values = _scored(scores)
    return values, _classes(ids, labels) == CW


def _rank(values: np.ndarray, positive: str) -> np.ndarray:
    """Positions of `values`, P(CW) in ascending-id order, best first for
    `positive`: descending P(positive), ties broken by ascending id."""
    # descending P(NCW) == ascending P(CW); a stable sort keeps id order
    return np.argsort(-values if positive == CW else values, kind="stable")


def _ap(hits: np.ndarray) -> float:
    """AP of a ranking whose positive items are `hits`, in rank order:
    hits / rank at each positive item, summed by Python in rank order."""
    at = np.flatnonzero(hits)
    if not at.size:
        return 0.0
    return sum((np.arange(1, at.size + 1) / (at + 1)).tolist()) / at.size


def _class_aps(values: np.ndarray, is_cw: np.ndarray) -> tuple:
    """(AP_cw, AP_ncw) of each class's ranking."""
    return _ap(is_cw[_rank(values, CW)]), _ap(~is_cw[_rank(values, NCW)])


def _prf(predicted: np.ndarray, actual: np.ndarray) -> tuple:
    """Precision, recall and F1 of boolean predictions; 0/0 maps to 0."""
    tp = int(np.count_nonzero(predicted & actual))
    fp = int(np.count_nonzero(predicted & ~actual))
    fn = int(np.count_nonzero(~predicted & actual))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def rank_scores(scores: dict, positive: str = CW) -> list:
    """Ids of `scores` (id -> P(CW)) best first for `positive`, CW or NCW:
    descending P(positive), ties broken by ascending id."""
    if positive not in (CW, NCW):
        raise EvalError(f"cannot rank for the class {positive!r}; "
                        f"expected {CW!r} or {NCW!r}")
    ids, values = _scored(scores)
    return [ids[j] for j in _rank(values, positive).tolist()]


def evaluate_scores(target_topic_id: str, scores: dict, labels: dict,
                    threshold: float = 0.5, cw_only: bool = False) -> EvalReport:
    """The full EvalReport for one scored test set: each class's AP over
    its `rank_scores` ranking, their MAP (the CW AP alone with `cw_only`,
    the common shared-task convention), and P/R/F1 of CW predicted for
    every P(CW) at or above `threshold`."""
    values, is_cw = _scored_and_labelled(scores, labels)
    ap_cw, ap_ncw = _class_aps(values, is_cw)
    p, r, f1 = _prf(values >= _unit(threshold, "threshold"), is_cw)
    return EvalReport(target_topic_id, ap_cw, ap_ncw,
                      _combine_aps(ap_cw, ap_ncw, cw_only), p, r, f1,
                      len(labels), cw_only)


def _mean(values) -> float:
    """The column-average rule: the full-precision mean, summed in order."""
    if not values:
        raise EvalError("cannot average an empty column")
    return sum(values) / len(values)


def column_means(reports: dict) -> dict:
    """Full-precision means of MAP, precision, recall and F1 over a column
    of EvalReports, summed in the column's order."""
    return {metric: _mean([getattr(r, metric) for r in reports.values()])
            for metric in ("map", "precision", "recall", "f1")}


def delta_percent(base_map: float, new_map: float) -> int:
    """Integer percentage-point delta, rounded half away from zero."""
    x = 100.0 * (new_map - base_map)
    if x == 0.0:
        return 0
    return int(math.copysign(math.floor(abs(x) + 0.5), x))


@dataclass(frozen=True)
class ImprovementCell:
    base_map: float
    new_map: float
    delta_pct: int

    def __post_init__(self):
        if self.delta_pct != delta_percent(self.base_map, self.new_map):
            raise EvalError("delta_pct inconsistent with its MAP pair")


@dataclass
class ImprovementTable:
    """Per-topic improvement cells for one or more variants over a base."""

    topics: list
    variant_names: list
    base: dict
    cells: dict  # variant name -> topic -> ImprovementCell
    average: dict = field(default_factory=dict)  # variant name -> ImprovementCell

    def cell(self, variant: str, topic: str) -> ImprovementCell:
        return self.cells[variant][topic]


def _as_map(value) -> float:
    return value.map if isinstance(value, EvalReport) else float(value)


def improvement_table(base: dict, variants: dict) -> ImprovementTable:
    """Compare variant MAP columns against a base column, topic by topic.

    `base` maps topic -> MAP (or EvalReport); `variants` maps a variant name to
    such a column. All columns must cover the same topics. The average row is
    computed from the arithmetic means of the full-precision columns.
    """
    topics = sorted(base)
    base_maps = {t: _as_map(v) for t, v in base.items()}
    base_avg = _mean(base_maps.values())
    cells = {}
    average = {}
    for name, column in variants.items():
        if set(column) != set(base):
            raise EvalError(f"variant {name!r} covers different topics than the base")
        col = {t: _as_map(v) for t, v in column.items()}
        cells[name] = {
            t: ImprovementCell(base_maps[t], col[t], delta_percent(base_maps[t], col[t]))
            for t in topics
        }
        new_avg = _mean(col.values())
        average[name] = ImprovementCell(base_avg, new_avg, delta_percent(base_avg, new_avg))
    return ImprovementTable(topics, list(variants), base_maps, cells, average)


def format_delta(delta_pct: int) -> str:
    return "(0%)" if delta_pct == 0 else f"({delta_pct:+d}%)"


def render_report_table(reports: dict, title: str = "") -> str:
    """Aligned markdown table with P/R/F1/MAP rows plus an average row."""
    lines = []
    if title:
        lines.append(f"### {title}")
        lines.append("")
    lines.append("| Topic | Precision | Recall | F1 | MAP |")
    lines.append("|---|---|---|---|---|")
    for topic in sorted(reports):
        r = reports[topic]
        lines.append(
            f"| {topic} | {r.precision:.2f} | {r.recall:.2f} | {r.f1:.2f} | {r.map:.4f} |"
        )
    if reports:
        lines.append("| Average | {precision:.2f} | {recall:.2f} | {f1:.2f} "
                     "| {map:.4f} |".format(**column_means(reports)))
    return "\n".join(lines) + "\n"


def render_improvement_table(table: ImprovementTable, base_name: str = "base",
                             title: str = "") -> str:
    """Markdown table in the `MAP (+d%)` style, one column pair per variant."""
    lines = []
    if title:
        lines.append(f"### {title}")
        lines.append("")
    header = f"| Topic | {base_name} |"
    rule = "|---|---|"
    for name in table.variant_names:
        header += f" {name} | |"
        rule += "---|---|"
    lines.append(header)
    lines.append(rule)
    for topic in table.topics:
        row = f"| {topic} | {table.base[topic]:.4f} |"
        for name in table.variant_names:
            c = table.cell(name, topic)
            row += f" {c.new_map:.4f} | {format_delta(c.delta_pct)} |"
        lines.append(row)
    row = f"| Average | {_mean(table.base.values()):.4f} |"
    for name in table.variant_names:
        c = table.average[name]
        row += f" {c.new_map:.4f} | {format_delta(c.delta_pct)} |"
    lines.append(row)
    return "\n".join(lines) + "\n"


def reports_to_json(reports: dict) -> str:
    return json.dumps({t: r.to_dict() for t, r in sorted(reports.items())},
                      indent=2, sort_keys=True)
