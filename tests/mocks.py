"""Deterministic providers that tests use to pin augmentation and similarity
behaviour; the package's own `"mock"` bundle lives in claimcheck.providers."""

from claimcheck.providers import MASK_TOKEN


class ReversingTranslator:
    """Reverses token order on every call; composing twice restores input."""

    def __call__(self, text: str, src: str, tgt: str) -> str:
        return " ".join(reversed(text.split()))


class MarkerFiller:
    """Fills every mask slot with a fixed marker token."""

    def __init__(self, marker: str = "XSUB"):
        self.marker = marker
        self.calls = 0

    def __call__(self, masked_text: str) -> str:
        self.calls += 1
        return masked_text.replace(MASK_TOKEN, self.marker)


class RecordingGenerator:
    """Returns canned text and records every (prompt, params) it receives."""

    def __init__(self, canned: str = "generated text"):
        self.canned = canned
        self.calls = []

    def __call__(self, prompt: str, params) -> str:
        self.calls.append((prompt, params))
        return self.canned


class ConstantEmbedder:
    def __init__(self, vector):
        self.vector = list(vector)

    def __call__(self, text: str) -> list:
        return list(self.vector)


class KeywordAxisEmbedder:
    """Maps texts onto axes by keyword; texts with disjoint keywords embed
    orthogonally."""

    def __init__(self, keyword_axes: dict, dim: int):
        self.keyword_axes = dict(keyword_axes)
        self.dim = dim

    def __call__(self, text: str) -> list:
        vec = [0.0] * self.dim
        for tok in text.split():
            if tok in self.keyword_axes:
                vec[self.keyword_axes[tok]] += 1.0
        return vec
