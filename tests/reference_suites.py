"""A tuple-based reference for a suite's report.md: each suite's columns as
`(setting, strategy, shots)` combinations, spelled out per suite, each
cell's report filed under its combination, and report.md rendered by
branching on the suite, as suites were run before one table defined them.

Only the layout is frozen here: a suite's refusals of a base config are
checked by their own tests."""

from types import SimpleNamespace

from claimcheck.augment import NONE, STRATEGIES
from claimcheck.evaluation import (column_means, improvement_table,
                                   render_improvement_table,
                                   render_report_table)
from claimcheck.runner import FEW_SHOT, SHOT_CHOICES, ZERO_SHOT


def suite_cells(suite, base):
    """The (setting, strategy, shots) combinations a suite runs."""
    shots = base.shots or 200
    if suite == "table2":
        return [(ZERO_SHOT, NONE, 0)]
    if suite == "table3":
        return [(ZERO_SHOT, NONE, 0)] + [(FEW_SHOT, s, shots) for s in STRATEGIES]
    if suite == "table4":
        return [(FEW_SHOT, NONE, shots), (FEW_SHOT, "CWE", shots)]
    return [(FEW_SHOT, NONE, s) for s in SHOT_CHOICES]


def report_md(suite, base, topics, outcome, holdout_notes, tool_version,
              corpus_hash) -> str:
    """report.md of a pass of `suite` over `topics` from `base`, whose cell
    `(setting, strategy, shots, topic)` ended as `outcome` of those four:
    an EvalReport, or the error text of a cell that failed."""
    combos = suite_cells(suite, base)
    reports, failures, cells = {}, [], []
    for combo in combos:
        for topic in topics:
            result = outcome(*combo, topic)
            cells.append({"topic_id": topic})
            if isinstance(result, str):
                failures.append({"cell": "{}/{}/{}/{}".format(*combo, topic),
                                 "error": result})
            else:
                reports.setdefault(combo, {})[topic] = result
    notes = []
    if suite == "fig4":
        notes.append("shots sweep runs without augmentation")
    notes.extend(holdout_notes)
    record = SimpleNamespace(
        tool_version=tool_version, corpus_hash=corpus_hash, notes=notes,
        config={"seed": base.seed, "backend_id": base.backend_id},
        cells=cells, failures=failures)
    return _render_report(record, reports, combos, suite)


def _render_report(record, reports, combos, suite: str) -> str:
    lines = [f"# Suite {suite}", ""]
    lines.append(f"- tool version: {record.tool_version}")
    lines.append(f"- corpus hash: {record.corpus_hash}")
    lines.append(f"- seed: {record.config['seed']}")
    lines.append(f"- backend: {record.config['backend_id']}")
    for note in record.notes:
        lines.append(f"- note: {note}")
    lines.append("")

    def column(combo, topics):
        return {t: reports[combo][t] for t in topics}

    body = ""
    # the topics every combo completed
    topics_ok = sorted({c["topic_id"] for c in record.cells}.intersection(
        *(reports.get(combo, {}) for combo in combos)))
    if suite == "table2":
        combo = combos[0]
        col = reports.get(combo, {})
        if col:
            body = render_report_table(col, title="Zero-shot, per topic")
    elif suite in ("table3", "table4"):
        base_combo = combos[0]
        variant_combos = combos[1:]
        if topics_ok:
            base = column(base_combo, topics_ok)
            variants = {c[1]: column(c, topics_ok) for c in variant_combos}
            table = improvement_table(base, variants)
            base_name = ("zero-shot" if base_combo[0] == ZERO_SHOT
                         else f"few-shot({base_combo[2]}) no aug")
            title = ("Few-shot + augmentation vs zero-shot"
                     if suite == "table3"
                     else "Augmentation ablation at fixed shots")
            body = render_improvement_table(table, base_name=base_name,
                                            title=title)
    else:  # fig4
        if topics_ok:
            header = "| Topic |" + "".join(
                f" {shots} shots |" for _, _, shots in combos)
            rule = "|---|" + "---|" * len(combos)
            rows = [header, rule]
            for t in topics_ok:
                rows.append(
                    f"| {t} |" + "".join(
                        f" {reports[c][t].map:.4f} |" for c in combos)
                )
            rows.append("| Average |" + "".join(
                " {:.4f} |".format(column_means(column(c, topics_ok))["map"])
                for c in combos))
            body = "### MAP by number of shots\n\n" + "\n".join(rows) + "\n"

    lines.append(body if body else "_No complete columns; see failures._\n")
    if record.failures:
        lines.append("")
        lines.append("## Failed cells")
        lines.append("")
        for failure in record.failures:
            lines.append(f"- `{failure['cell']}`: {failure['error']}")
        lines.append("")
    return "\n".join(lines)
