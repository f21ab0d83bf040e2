"""Reference edit distances: the naive dynamic programs.

The paper (Sec 4.2.1) measures the similarity between two app names as
the Damerau-Levenshtein edit distance normalized by the length of the
longer name.  Production code answers every such question through the
exact bounded kernels in :mod:`repro.text.fastdist`; this module keeps
the textbook DPs they are proven against, and nothing else imports it
but the tests, ``repro bench`` and ``benchmarks/``:

* :func:`levenshtein` — plain insert/delete/substitute distance,
* :func:`damerau_levenshtein` — the *optimal string alignment* variant
  (adds adjacent transposition; each substring edited at most once),
  which is what implementations the paper cites use in practice,
* :func:`unrestricted_damerau_levenshtein` — the true metric variant,
* :func:`name_similarity` — the normalized similarity in [0, 1],
* :func:`naive_cluster_names` — :func:`repro.text.clustering.cluster_names`
  with one full :func:`name_similarity` DP per candidate pair.
"""

from __future__ import annotations

from repro.text.clustering import NameClustering, _cluster, _UnionFind

__all__ = [
    "levenshtein",
    "damerau_levenshtein",
    "unrestricted_damerau_levenshtein",
    "name_similarity",
    "naive_cluster_names",
]


def levenshtein(a: str, b: str) -> int:
    """Classic Levenshtein distance (insert / delete / substitute)."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    # Keep the inner loop over the shorter string.
    if len(b) > len(a):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(
                min(
                    previous[j] + 1,  # deletion
                    current[j - 1] + 1,  # insertion
                    previous[j - 1] + cost,  # substitution
                )
            )
        previous = current
    return previous[-1]


def damerau_levenshtein(a: str, b: str) -> int:
    """Optimal-string-alignment Damerau-Levenshtein distance.

    Like :func:`levenshtein` but also counts the transposition of two
    adjacent characters as a single edit.  This is the variant commonly
    called "Damerau-Levenshtein" in spell-checking code; it is not a
    true metric (the triangle inequality can fail by at most a factor
    related to repeated edits of one substring), which is irrelevant for
    the paper's normalized-similarity use.
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    la, lb = len(a), len(b)
    # Three rolling rows: i-2, i-1, i.
    prev2: list[int] = []
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        current = [i]
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d = min(
                prev[j] + 1,  # deletion
                current[j - 1] + 1,  # insertion
                prev[j - 1] + cost,  # substitution
            )
            if (
                i > 1
                and j > 1
                and a[i - 1] == b[j - 2]
                and a[i - 2] == b[j - 1]
            ):
                d = min(d, prev2[j - 2] + 1)  # transposition
            current.append(d)
        prev2, prev = prev, current
    return prev[-1]


def unrestricted_damerau_levenshtein(a: str, b: str) -> int:
    """True Damerau-Levenshtein distance (a metric).

    Allows edits to substrings that were already involved in a
    transposition, via the classic alphabet-indexed DP.
    """
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if not la:
        return lb
    if not lb:
        return la
    max_dist = la + lb
    # last row index (1-based) in `a` where each character was seen
    last_row: dict[str, int] = {}
    # d has a sentinel row/column of value max_dist at index 0,
    # then the usual (la+1) x (lb+1) table shifted by one.
    d = [[max_dist] * (lb + 2) for _ in range(la + 2)]
    for i in range(la + 1):
        d[i + 1][1] = i
    for j in range(lb + 1):
        d[1][j + 1] = j
    for i in range(1, la + 1):
        last_col = 0  # last column in `b` matching a[i-1]
        for j in range(1, lb + 1):
            i_prime = last_row.get(b[j - 1], 0)
            j_prime = last_col
            if a[i - 1] == b[j - 1]:
                cost = 0
                last_col = j
            else:
                cost = 1
            d[i + 1][j + 1] = min(
                d[i][j] + cost,  # substitution
                d[i + 1][j] + 1,  # insertion
                d[i][j + 1] + 1,  # deletion
                # transposition spanning the gap back to the last match
                d[i_prime][j_prime] + (i - i_prime - 1) + 1 + (j - j_prime - 1),
            )
        last_row[a[i - 1]] = i
    return d[la + 1][lb + 1]


def name_similarity(a: str, b: str) -> float:
    """Normalized name similarity in [0, 1] (Sec 4.2.1).

    ``1 - DL(a, b) / max(len(a), len(b))``; two empty names are fully
    similar.  A similarity of 1 means identical names.
    """
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - damerau_levenshtein(a, b) / longest


def naive_cluster_names(names: list[str], threshold: float = 1.0) -> NameClustering:
    """:func:`repro.text.clustering.cluster_names` through the naive DP.

    Same candidate pairs, same threshold predicate, so the cluster list
    is identical to the production kernel's — the tests assert it.
    """
    return _cluster(names, threshold, _link_naive)


def _link_naive(unique: list[str], threshold: float, uf: _UnionFind) -> None:
    """Reference kernel: full DP per candidate pair."""
    # Sort by length so the pruning window is contiguous.
    order = sorted(range(len(unique)), key=lambda i: len(unique[i]))
    max_gap = 1.0 - threshold
    for pos, i in enumerate(order):
        name_i = unique[i]
        for j in order[pos + 1 :]:
            name_j = unique[j]
            longest = len(name_j)  # sorted: len(name_j) >= len(name_i)
            if longest and (longest - len(name_i)) / longest > max_gap:
                break  # all later names are even longer
            if uf.find(i) == uf.find(j):
                continue
            if name_similarity(name_i, name_j) >= threshold:
                uf.union(i, j)
