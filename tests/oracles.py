"""Brute-force metric recomputations, kept deliberately naive.

These recompute precision at every rank with exact rational arithmetic and
never share code with the production implementations they validate.
"""

from fractions import Fraction

from claimcheck.corpus import CW, NCW


def brute_force_ap(ranked_ids, labels, positive):
    """Average precision as a Fraction: precision at every rank, averaged
    over the ranks that hold a positive item."""
    precisions = []
    hits = 0
    for rank, tid in enumerate(ranked_ids, start=1):
        if labels[tid] == positive:
            hits += 1
        precisions.append(Fraction(hits, rank))
    positive_ranks = [r for r, tid in enumerate(ranked_ids, start=1)
                      if labels[tid] == positive]
    if not positive_ranks:
        return Fraction(0)
    return sum(precisions[r - 1] for r in positive_ranks) / len(positive_ranks)


def brute_force_map(scores, labels):
    """(ap_cw, ap_ncw, map) as Fractions, using the documented tie rule:
    ids ascending within equal scores, each class ranked by its own
    descending probability."""
    cw_ranking = sorted(scores, key=lambda i: (-scores[i], i))
    ncw_ranking = sorted(scores, key=lambda i: (scores[i], i))
    ap_cw = brute_force_ap(cw_ranking, labels, CW)
    ap_ncw = brute_force_ap(ncw_ranking, labels, NCW)
    return ap_cw, ap_ncw, (ap_cw + ap_ncw) / 2
