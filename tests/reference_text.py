"""The scalar text cleaner: ``clean_text`` as it was before it skipped the
per-character category pass for printable text, kept verbatim as the
reference the package's cleaner must match string for string.
"""

from __future__ import annotations

import unicodedata
from typing import Iterable

from reportsignal.errors import ArgumentError

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
