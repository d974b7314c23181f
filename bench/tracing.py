"""Spans and counters recorded from outside the package.

``Tracer.install`` swaps the module-level functions ``claimcheck.runner``
calls for timing wrappers, wraps the scorers' ``score_many`` at class level
(an instance attribute would tie each scorer into a reference cycle and keep
it alive past its cell), and restores everything on exit. The same wrappers capture, per cell, the scores
handed to ``evaluate_scores`` so the oracle can recompute them. With
``timing=False`` only that capture runs: no clock is read and the providers
are left alone, so an untraced pass can still be checked.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

# runner attribute -> layer span name
RUNNER_LAYERS = {
    "make_holdouts": "splits.holdouts",
    "zero_shot_split": "splits.split",
    "few_shot_split": "splits.split",
    "augment_training": "augment",
    "train_scorer": "model.train",
    "evaluate_scores": "evaluation.evaluate",
    "improvement_table": "evaluation.render",
    "render_improvement_table": "evaluation.render",
    "render_report_table": "evaluation.render",
}
SCORER_CLASSES = ("BaselineScorer", "EncoderScorer")
PROVIDER_ROLES = ("translator", "filler", "generator")


class Tracer:
    """Collects spans ``(name, start, end)`` and counters for one suite pass."""

    def __init__(self, timing: bool = True, count_tokens: bool = False):
        self.timing = timing
        self.count_tokens = count_tokens
        self.spans = []
        self.counts = {}
        self.scores = {}  # (setting, strategy, shots, topic) -> {id: score}
        self.holdouts = None
        self._lock = threading.Lock()
        self._cell = threading.local()

    def add(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                with self._lock:
                    self.spans.append((name, start, end))
        return wrapper if self.timing else fn

    def _observe(self, attr, fn):
        """Wrap one runner function: time it and note what the oracle needs."""
        timed = self._timed(RUNNER_LAYERS[attr], fn)
        cell = self._cell

        def wrapper(*args, **kwargs):
            if attr in ("zero_shot_split", "few_shot_split"):
                few = attr == "few_shot_split"
                cell.key = ["few_shot" if few else "zero_shot", "none",
                            args[3] if few else 0, args[2]]
            elif attr == "augment_training":
                cell.key[1] = args[2]
            result = timed(*args, **kwargs)
            if attr == "make_holdouts":
                self.holdouts = result
            elif attr in ("zero_shot_split", "few_shot_split"):
                self.add("splits.train_ids", len(result.train))
            elif attr == "augment_training" and result[1] is not None:
                self.add("augment.samples", len(result[1].samples))
                self.add("augment.skips", len(result[1].skips))
            elif attr == "train_scorer":
                self._on_scorer(args[0], result)
            elif attr == "evaluate_scores":
                with self._lock:
                    self.scores[tuple(cell.key)] = dict(args[1])
            return result
        return wrapper

    def _on_scorer(self, records, scorer):
        self.add("model.train_rows", len(records))
        self.add("model.vocab", len(getattr(scorer, "vocab", ())))
        if self.count_tokens:
            self.add("model.train_tokens", sum(len(r.text.split()) for r in records))

    def _counted(self, fn):
        def wrapper(*args, **kwargs):
            self.add("augment.provider_calls")
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def install(self, cc, providers):
        """Patch runner functions and, when timing, scorer classes and
        provider roles for the duration. `cc` is the claimcheck package."""
        saved = {a: getattr(cc.runner, a) for a in RUNNER_LAYERS}
        scorers = SCORER_CLASSES if self.timing else ()
        saved_scorers = {c: getattr(cc.model, c).score_many for c in scorers}
        roles = PROVIDER_ROLES if self.timing else ()
        saved_roles = {r: getattr(providers, r) for r in roles}
        try:
            for attr, fn in saved.items():
                setattr(cc.runner, attr, self._observe(attr, fn))
            for cls, fn in saved_scorers.items():
                setattr(getattr(cc.model, cls), "score_many",
                        self._timed("model.score", fn))
            for role, fn in saved_roles.items():
                setattr(providers, role, self._counted(fn))
            yield self
        finally:
            for attr, fn in saved.items():
                setattr(cc.runner, attr, fn)
            for cls, fn in saved_scorers.items():
                setattr(getattr(cc.model, cls), "score_many", fn)
            for role, fn in saved_roles.items():
                setattr(providers, role, fn)

    def total(self, prefix: str) -> float:
        """Summed span time of a layer, across threads."""
        return sum(e - s for n, s, e in self.spans
                   if n == prefix or n.startswith(prefix + "."))

    def covered(self) -> float:
        """Wall time during which at least one span was open."""
        covered, reach = 0.0, None
        for _, s, e in sorted(self.spans, key=lambda x: x[1]):
            if reach is None or s > reach:
                covered += e - s
                reach = e
            elif e > reach:
                covered += e - reach
                reach = e
        return covered
