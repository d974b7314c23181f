"""Correctness checks that share no code with ``claimcheck.evaluation``.

AP, MAP, precision, recall and F1 are recomputed exactly with rational
arithmetic from captured scores and the generator's own labels; the
``report.md`` arithmetic is recomputed from ``cells.csv``.
"""

from __future__ import annotations

import csv
import io
import math
import random
import re
from fractions import Fraction

HALF_ULP_10 = Fraction(1, 2 * 10 ** 10)


class CheckFailed(Exception):
    """A benchmark output disagrees with the benchmark's own computation."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def exact_ap(ranked_labels, positive: str) -> Fraction:
    """Mean over positive items of hits/rank, as an exact fraction."""
    ranks, hits = [], 0
    for rank, label in enumerate(ranked_labels, start=1):
        if label == positive:
            hits += 1
            ranks.append((hits, rank))
    if not ranks:
        return Fraction(0)
    common = math.lcm(*(r for _, r in ranks))
    numerator = sum(h * (common // r) for h, r in ranks)
    return Fraction(numerator, common * len(ranks))


def exact_cell(scores: dict, labels: dict, threshold=0.5) -> dict:
    """Exact metrics of one scored test set.

    CW is ranked by descending score and NCW by ascending score, ties by
    ascending tweet id in both; a score at the threshold predicts CW.
    """
    cw_order = sorted(scores, key=lambda i: (-scores[i], i))
    ncw_order = sorted(scores, key=lambda i: (scores[i], i))
    ap_cw = exact_ap([labels[i] for i in cw_order], "CW")
    ap_ncw = exact_ap([labels[i] for i in ncw_order], "NCW")
    tp = sum(1 for i, s in scores.items() if s >= threshold and labels[i] == "CW")
    fp = sum(1 for i, s in scores.items() if s >= threshold and labels[i] != "CW")
    fn = sum(1 for i, s in scores.items() if s < threshold and labels[i] == "CW")
    p = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
    r = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
    f1 = 2 * p * r / (p + r) if p + r else Fraction(0)
    return {"ap_cw": ap_cw, "ap_ncw": ap_ncw, "map": (ap_cw + ap_ncw) / 2,
            "precision": p, "recall": r, "f1": f1}


def printed_matches(printed: str, exact: Fraction, decimals: int) -> bool:
    """True when `printed` is `exact` rounded to `decimals` places.

    A value within 1e-4 of a unit in the last place of the rounding midpoint
    may round either way in binary floating point, so both neighbours pass.
    """
    unit = Fraction(1, 10 ** decimals)
    return abs(Fraction(printed) - exact) <= unit / 2 + unit / 10 ** 4


def random_ranking_map(test_labels: list, seed: str) -> Fraction:
    """MAP of a seeded random ranking: CW in shuffled order, NCW reversed."""
    order = list(test_labels)
    random.Random(seed).shuffle(order)
    return (exact_ap(order, "CW") + exact_ap(order[::-1], "NCW")) / 2


def read_cells(csv_bytes: bytes) -> list:
    return list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))


def half_away_candidates(x: Fraction) -> set:
    """Integer(s) x may round to, half away from zero; both neighbours of a
    point within 1e-6 of a midpoint, since the program rounds a float."""
    mag = abs(x)
    low = math.floor(mag)
    frac = mag - low
    if abs(frac - Fraction(1, 2)) < Fraction(1, 10 ** 6):
        mags = {low, low + 1}
    else:
        mags = {low + 1 if frac >= Fraction(1, 2) else low}
    sign = -1 if x < 0 else 1
    return {sign * m for m in mags}


def _fmt_delta(d: int) -> str:
    return "(0%)" if d == 0 else f"({d:+d}%)"


_ROW_RE = re.compile(r"^\|(.*)\|$")


def _table_rows(report: str) -> list:
    rows = []
    for line in report.splitlines():
        m = _ROW_RE.match(line.strip())
        if m and not line.startswith("|---"):
            rows.append([c.strip() for c in m.group(1).split("|")])
    return rows[1:]  # drop the header


def check_report_table3(report: str, cells: list) -> int:
    """Check every MAP, delta and the average row of the improvement table.
    Returns the number of printed numbers checked."""
    cols = {}
    for row in cells:
        cols.setdefault(row["strategy"], {})[row["topic_id"]] = Fraction(row["map"])
    base = cols.pop("none")
    variants = ["BT", "CWE", "TxtGen"]
    rows = _table_rows(report)
    topics = sorted(base)
    check(len(rows) == len(topics) + 1,
          f"report.md has {len(rows)} table rows, expected {len(topics) + 1}")
    checked = 0
    means = {"none": sum(base.values()) / len(base)}
    for v in variants:
        means[v] = sum(cols[v].values()) / len(cols[v])
    for row, topic in zip(rows, topics + ["Average"]):
        check(row[0] == topic, f"report.md row {row[0]!r}, expected {topic!r}")
        b = base[topic] if topic != "Average" else means["none"]
        check(printed_matches(row[1], b, 4), f"report.md {topic} base {row[1]} != {float(b)}")
        checked += 1
        for k, v in enumerate(variants):
            new = cols[v][topic] if topic != "Average" else means[v]
            printed_map, printed_delta = row[2 + 2 * k], row[3 + 2 * k]
            check(printed_matches(printed_map, new, 4),
                  f"report.md {topic}/{v} MAP {printed_map} != {float(new)}")
            allowed = {_fmt_delta(d) for d in half_away_candidates(100 * (new - b))}
            check(printed_delta in allowed,
                  f"report.md {topic}/{v} delta {printed_delta} not in {allowed}")
            checked += 2
    return checked


def check_report_table2(report: str, cells: list) -> int:
    """Check every P/R/F1/MAP cell and the average row of the table2 report."""
    by_topic = {r["topic_id"]: r for r in cells}
    rows = _table_rows(report)
    topics = sorted(by_topic)
    check(len(rows) == len(topics) + 1,
          f"report.md has {len(rows)} table rows, expected {len(topics) + 1}")
    fields = [("precision", 2), ("recall", 2), ("f1", 2), ("map", 4)]
    checked = 0
    for row, topic in zip(rows, topics + ["Average"]):
        check(row[0] == topic, f"report.md row {row[0]!r}, expected {topic!r}")
        for k, (name, decimals) in enumerate(fields):
            if topic == "Average":
                value = sum(Fraction(r[name]) for r in cells) / len(cells)
            else:
                value = Fraction(by_topic[topic][name])
            check(printed_matches(row[1 + k], value, decimals),
                  f"report.md {topic} {name} {row[1 + k]} != {float(value)}")
            checked += 1
    return checked
