"""Reference text code, kept verbatim from before the package changed it.

``clean_text`` is the scalar cleaner as it was before it skipped the
per-character category pass for printable text; the package's cleaner
must match it string for string. ``SegmentDictionary`` and ``segment``
are the greedy forward maximum matching segmenter that produced a token
list per report before ``SentimentLexicon.hits`` counted lexicon hits
without one; ``token_hits`` counts that token list the way the lexicon
did, and ``SentimentLexicon.hits`` must match it triple for triple.
"""

from __future__ import annotations

import unicodedata
from typing import Iterable

from reportsignal.errors import ArgumentError
from reportsignal.labeling import LABELS

# Unicode categories removed outright during cleaning: control and format
# characters (zero-width joiners and friends).
_STRIP_CATEGORIES = ("Cc", "Cf")


def clean_text(
    raw: str,
    risk_warning_patterns: Iterable[str] = (),
    tail_fraction: float = 0.25,
) -> str:
    """Normalise report text and strip boilerplate risk-warning tails.

    Control/format characters become spaces, runs of whitespace collapse
    to single spaces, and the text is trimmed. Then, repeatedly, the
    earliest risk-warning marker that starts inside the trailing
    ``tail_fraction`` of the text is found and everything from it onward
    is removed. The function is idempotent: cleaning a cleaned text is a
    no-op.
    """
    if not (0.0 <= tail_fraction <= 1.0):
        raise ArgumentError(f"tail_fraction must be in [0, 1], got {tail_fraction}")
    chars = [
        " " if unicodedata.category(ch) in _STRIP_CATEGORIES else ch for ch in raw
    ]
    text = " ".join("".join(chars).split())

    patterns = [p for p in risk_warning_patterns if p]
    while patterns and text:
        gate = int(len(text) * (1.0 - tail_fraction))
        cut = None
        for pattern in patterns:
            idx = text.find(pattern, gate)
            if idx != -1 and (cut is None or idx < cut):
                cut = idx
        if cut is None:
            break
        text = text[:cut].rstrip()
    return text


class SegmentDictionary:
    """Word set and max word length, for greedy longest-first matching."""

    def __init__(self, words: Iterable[str]):
        self.words = frozenset(words)
        if "" in self.words:
            raise ArgumentError("empty word in segmentation dictionary")
        if not self.words:
            raise ArgumentError("segmentation dictionary is empty")
        self.max_len = max(len(w) for w in self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.words

    def __len__(self) -> int:
        return len(self.words)


def segment(text: str, dictionary: SegmentDictionary) -> list[str]:
    """Greedy forward maximum matching.

    Scanning left to right, the longest dictionary word starting at the
    cursor becomes the next token; if none matches, the single character
    does. Whitespace separates tokens and is never part of one.
    """
    tokens: list[str] = []
    i, n = 0, len(text)
    max_len = dictionary.max_len
    words = dictionary.words
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        match = None
        for length in range(min(max_len, n - i), 1, -1):
            candidate = text[i : i + length]
            if candidate in words:
                match = candidate
                break
        if match is None:
            match = text[i]
        tokens.append(match)
        i += len(match)
    return tokens


def token_hits(text: str, lexicon) -> tuple[int, int, int]:
    """(positive, neutral, negative) counts of the tokens that ``segment``
    makes of ``text`` with the lexicon's words as its dictionary."""
    classes = {word: label for label in LABELS for word in lexicon.words(label)}
    tokens = segment(text, SegmentDictionary(classes))
    pos, neu, neg = (sum(classes.get(token) == label for token in tokens) for label in LABELS)
    return pos, neu, neg
