"""Fast bounded edit-distance kernels for name similarity.

Clustering app names (Sec 4.2.1) and spotting typosquats (Sec 5.3)
only ever ask a *threshold* question:
is the normalized Damerau-Levenshtein similarity of two names at least
``t``?  That is an integer question — "is the OSA distance at most
``k``?" for a ``k`` derived from the threshold and the longer length —
and answering it is much cheaper than computing the full distance:

* **reject bounds** — the distance is at least the length difference,
  and at least the character-multiset imbalance (transpositions move
  no mass between multisets, so the bound holds for OSA too).  A
  64-bit character-set signature gives a hash-collision-safe
  approximation of the multiset bound in O(1) per pair;
* **accept bound** — plain Levenshtein is an upper bound on OSA
  (OSA has strictly more moves), and :func:`myers_levenshtein`
  computes it bit-parallel in O(⌈m/64⌉·n).  Conversely a transposition
  is worth at most two substitutions, so ``levenshtein <= 2·OSA`` and
  Myers doubles as a second reject bound;
* **banded DP** — when the bounds don't decide, :func:`bounded_osa`
  runs the OSA recurrence restricted to the ``|i-j| <= k`` diagonal
  band (cells outside cost more than ``k`` in pure indels), aborting
  as soon as a whole band row exceeds the limit (diagonal values are
  non-decreasing, so no later cell can dip back under it).

Everything here is exact: :func:`fast_damerau_levenshtein` equals
:func:`repro.text.reference.damerau_levenshtein` on every input (the
property tests draw random unicode to check), and :func:`similar`
reproduces the naive ``name_similarity(a, b) >= threshold`` comparison
bit-for-bit, including its float rounding, via :func:`edit_limit`.
"""

from __future__ import annotations

__all__ = [
    "myers_levenshtein",
    "bounded_osa",
    "fast_damerau_levenshtein",
    "edit_limit",
    "similar",
    "char_signature",
]

#: Myers runs single-word only; longer patterns fall back to banded DP.
_WORD = 64


def char_signature(s: str) -> int:
    """64-bit hash-set of the string's characters.

    ``popcount(sig_a & ~sig_b)`` lower-bounds the number of *distinct*
    characters of ``a`` absent from ``b`` (collisions can only merge
    bits, shrinking the count), and each such character forces at least
    one edit — a sound O(1) reject bound for both Levenshtein and OSA.
    Buckets by codepoint, not :func:`hash`, so signatures do not vary
    with ``PYTHONHASHSEED``.
    """
    sig = 0
    for ch in s:
        sig |= 1 << (ord(ch) & 63)
    return sig


def _multiset_lower_bound(a: str, b: str) -> int:
    """``max(chars to remove from a, chars to add to a)`` — OSA-sound."""
    counts: dict[str, int] = {}
    for ch in a:
        counts[ch] = counts.get(ch, 0) + 1
    for ch in b:
        counts[ch] = counts.get(ch, 0) - 1
    surplus = deficit = 0
    for diff in counts.values():
        if diff > 0:
            surplus += diff
        elif diff < 0:
            deficit -= diff
    return surplus if surplus > deficit else deficit


def myers_levenshtein(a: str, b: str) -> int:
    """Bit-parallel Levenshtein distance (Myers/Hyyrö, single word).

    Requires the shorter string to fit one machine word (<= 64 chars);
    processes the longer string one character per O(1) word step.
    """
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    if m == 0:
        return len(a)
    if m > _WORD:
        raise ValueError(f"pattern too long for single-word Myers: {m}")
    peq: dict[str, int] = {}
    for i, ch in enumerate(b):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    mask = (1 << m) - 1
    last = 1 << (m - 1)
    pv = mask
    mv = 0
    score = m
    for ch in a:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
    return score


def bounded_osa(a: str, b: str, limit: int) -> int:
    """OSA (restricted Damerau-Levenshtein) distance, capped at *limit*.

    Returns the exact distance when it is <= ``limit`` and ``limit + 1``
    otherwise.  Runs the three-row OSA recurrence over the diagonal band
    ``|i - j| <= limit`` — any alignment leaving the band spends more
    than ``limit`` on insertions/deletions alone — and aborts early once
    every cell of a row exceeds the limit, which is final because values
    never decrease along a diagonal.
    """
    if a == b:
        return 0
    if limit <= 0:
        return limit + 1
    la, lb = len(a), len(b)
    if lb > la:
        a, b, la, lb = b, a, lb, la
    if la - lb > limit:
        return limit + 1
    big = limit + 1
    prev2: list[int] = []
    prev = [j if j <= limit else big for j in range(lb + 1)]
    for i in range(1, la + 1):
        lo = i - limit if i > limit else 1
        hi = i + limit if i + limit < lb else lb
        current = [big] * (lb + 1)
        if lo == 1:
            current[0] = i if i <= limit else big
        row_min = current[0] if lo == 1 else big
        ca = a[i - 1]
        for j in range(lo, hi + 1):
            cb = b[j - 1]
            d = prev[j - 1] + (ca != cb)  # substitution / match
            up = prev[j] + 1  # deletion
            if up < d:
                d = up
            left = current[j - 1] + 1  # insertion
            if left < d:
                d = left
            if i > 1 and j > 1 and ca == b[j - 2] and a[i - 2] == cb:
                tr = prev2[j - 2] + 1  # transposition
                if tr < d:
                    d = tr
            if d > limit:
                d = big
            current[j] = d
            if d < row_min:
                row_min = d
        if row_min > limit:
            return big
        prev2, prev = prev, current
    distance = prev[lb]
    return distance if distance <= limit else big


def fast_damerau_levenshtein(a: str, b: str) -> int:
    """Exact OSA distance via limit-doubling over :func:`bounded_osa`.

    Equals :func:`repro.text.reference.damerau_levenshtein` everywhere;
    the doubling search keeps the band (and therefore the work) sized to
    the answer instead of to the strings.
    """
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if not la:
        return lb
    if not lb:
        return la
    longest = la if la > lb else lb
    limit = abs(la - lb) + 1
    while True:
        if limit >= longest:
            return bounded_osa(a, b, longest)  # distance <= max length
        distance = bounded_osa(a, b, limit)
        if distance <= limit:
            return distance
        limit *= 2


def edit_limit(longest: int, threshold: float) -> int:
    """Largest edit distance still *similar* at ``threshold``.

    Exactly characterises the naive comparison: for integer ``d >= 0``,
    ``1.0 - d / longest >= threshold``  iff  ``d <= edit_limit(...)``.
    The seed guess is corrected by evaluating the float predicate
    itself, so no rounding disagreement with the naive path is possible
    (``1.0 - d / longest`` is non-increasing in ``d``, hence the
    predicate is a prefix property).
    """
    if longest <= 0:
        raise ValueError(f"longest must be positive, got {longest}")
    limit = int((1.0 - threshold) * longest)
    while limit > 0 and 1.0 - limit / longest < threshold:
        limit -= 1
    while limit < longest and 1.0 - (limit + 1) / longest >= threshold:
        limit += 1
    return limit


def similar(
    a: str,
    b: str,
    threshold: float,
    sig_a: int | None = None,
    sig_b: int | None = None,
) -> bool:
    """``name_similarity(a, b) >= threshold``, decided by bounds.

    Bit-identical to the naive comparison (via :func:`edit_limit`), but
    usually decided without touching the quadratic DP.  Pass cached
    :func:`char_signature` values when screening many pairs.
    """
    if a == b:
        return True
    la, lb = len(a), len(b)
    longest = la if la > lb else lb
    if longest == 0:
        return True
    limit = edit_limit(longest, threshold)
    if abs(la - lb) > limit:
        return False
    if limit >= longest:
        return True  # even replacing every character is similar enough
    if sig_a is None:
        sig_a = char_signature(a)
    if sig_b is None:
        sig_b = char_signature(b)
    missing = (sig_a & ~sig_b).bit_count()
    extra = (sig_b & ~sig_a).bit_count()
    if (missing if missing > extra else extra) > limit:
        return False
    if _multiset_lower_bound(a, b) > limit:
        return False
    if lb <= _WORD or la <= _WORD:
        lev = myers_levenshtein(a, b)
        if lev <= limit:
            return True  # OSA <= Levenshtein
        if lev > 2 * limit:
            return False  # Levenshtein <= 2 * OSA
    return bounded_osa(a, b, limit) <= limit
