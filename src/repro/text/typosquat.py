"""Typosquat detection and version-suffix handling (Sec 4.2.1 / 5.3).

Hackers "typo-squat" popular app names ('FarmVile' for 'FarmVille') and
append version numbers to otherwise-identical names ('Profile Watchers
v4.32').  Both signals feed FRAppE's validation stage.
"""

from __future__ import annotations

import re
from typing import Collection, Mapping

from repro.text.fastdist import char_signature, similar

__all__ = ["strip_version_suffix", "is_typosquat"]

#: 'Name v4.32', 'Name v8', 'Name V2' — a trailing version marker.
_VERSION_RE = re.compile(r"\s+v\d+(?:\.\d+)*\s*$", re.IGNORECASE)


def strip_version_suffix(name: str) -> tuple[str, bool]:
    """Remove a trailing version marker from an app name.

    Returns ``(base_name, had_version)``.

    >>> strip_version_suffix("Profile Watchers v4.32")
    ('Profile Watchers', True)
    >>> strip_version_suffix("FarmVille")
    ('FarmVille', False)
    """
    stripped = _VERSION_RE.sub("", name)
    return stripped, stripped != name


def is_typosquat(
    name: str,
    popular_names: Collection[str],
    min_similarity: float = 0.85,
    signatures: Mapping[str, int] | None = None,
) -> bool:
    """Is *name* a near-miss of a popular app name, without matching it?

    A typosquat is highly similar to — but not identical to — some
    popular name.  Identical names are *not* typosquats (they are exact
    impersonation, which the paper treats separately).  Similarity is
    decided by :func:`repro.text.fastdist.similar`, which is exactly
    ``name_similarity(name, popular) >= min_similarity``; pass the
    popular names' :func:`~repro.text.fastdist.char_signature` values
    as *signatures* when screening many names against one set.
    """
    if name in popular_names:
        return False
    base, _ = strip_version_suffix(name)
    if base != name and base in popular_names:
        return True
    sig = char_signature(name)
    for popular in popular_names:
        sig_popular = signatures.get(popular) if signatures is not None else None
        if similar(name, popular, min_similarity, sig, sig_popular):
            return True
    return False
