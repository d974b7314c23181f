"""A per-item reference for `claimcheck.evaluation`'s ranking and metrics:
each id ranked by a `sorted` key, each AP summed one rank at a time and
P/R/F1 counted over a dict of predictions, as they were computed before
the array path. It accepts what that code accepted (a label outside
CW/NCW is a negative); callers compare it only on inputs the production
code accepts."""

from claimcheck.corpus import CW, NCW
from claimcheck.errors import EvalError
from claimcheck.evaluation import EvalReport


def _unit(value, name="score"):
    if not 0.0 <= value <= 1.0:
        raise EvalError(f"{name} {value} outside [0, 1]")
    return value


def rank_scores(scores, positive=CW):
    if not scores:
        raise EvalError("cannot rank an empty score table")
    sign = -1.0 if positive == CW else 1.0
    return sorted(scores, key=lambda i: (sign * _unit(scores[i]), i))


def classify(score, threshold=0.5):
    return CW if _unit(score) >= _unit(threshold, "threshold") else NCW


def average_precision(ranked_ids, labels, positive):
    hits = 0
    precisions = []
    for rank, item_id in enumerate(ranked_ids, start=1):
        if labels[item_id] == positive:
            hits += 1
            precisions.append(hits / rank)
    if not precisions:
        return 0.0
    return sum(precisions) / len(precisions)


def mean_average_precision(scores, labels, cw_only=False):
    if set(scores) != set(labels):
        raise EvalError(
            f"scores and labels cover different ids "
            f"({len(scores)} scored vs {len(labels)} labelled)"
        )
    ap_cw = average_precision(rank_scores(scores, CW), labels, CW)
    ap_ncw = average_precision(rank_scores(scores, NCW), labels, NCW)
    return ap_cw, ap_ncw, ap_cw if cw_only else (ap_cw + ap_ncw) / 2.0


def precision_recall_f1(predictions, labels, positive=CW):
    if set(predictions) != set(labels):
        raise EvalError("predictions and labels cover different ids")
    tp = sum(1 for i, p in predictions.items() if p == positive and labels[i] == positive)
    fp = sum(1 for i, p in predictions.items() if p == positive and labels[i] != positive)
    fn = sum(1 for i, p in predictions.items() if p != positive and labels[i] == positive)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def evaluate_scores(target_topic_id, scores, labels, threshold=0.5,
                    cw_only=False):
    ap_cw, ap_ncw, map_ = mean_average_precision(scores, labels, cw_only=cw_only)
    predictions = {i: classify(s, threshold) for i, s in scores.items()}
    p, r, f1 = precision_recall_f1(predictions, labels, positive=CW)
    return EvalReport(target_topic_id, ap_cw, ap_ncw, map_, p, r, f1,
                      len(labels), cw_only)
