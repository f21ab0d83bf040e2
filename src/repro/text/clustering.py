"""Threshold clustering of application names (Sec 4.2.1, Fig 10/11).

The paper clusters app names at several similarity thresholds: two names
join the same cluster when their normalized Damerau-Levenshtein
similarity is at least the threshold.  Clustering is transitive
(single-linkage), which we realise with a union-find over names.

For efficiency we first collapse identical names (always in the same
cluster for any threshold <= 1) and only run pairwise comparisons over
the unique names, pruned by the length bound
``|len(a) - len(b)| <= (1 - t) * max(len(a), len(b))``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

from repro.text.fastdist import char_signature, similar

__all__ = ["NameClustering", "cluster_names"]


class _UnionFind:
    """Union-find over ``range(n)`` with path compression."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


@dataclass
class NameClustering:
    """The result of clustering a multiset of names at one threshold."""

    threshold: float
    #: total number of (non-unique) names clustered
    n_names: int
    #: clusters as lists of names; a name appears once per occurrence
    clusters: list[list[str]]

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def reduction_ratio(self) -> float:
        """Clusters as a fraction of names — the y-axis of Fig 10."""
        if self.n_names == 0:
            return 1.0
        return self.n_clusters / self.n_names

    def cluster_sizes(self) -> list[int]:
        """Cluster sizes, descending — the x-axis of Fig 11."""
        return sorted((len(c) for c in self.clusters), reverse=True)

    def largest(self) -> list[str]:
        """The largest cluster (empty list if there are no names)."""
        if not self.clusters:
            return []
        return max(self.clusters, key=len)


def cluster_names(names: list[str], threshold: float = 1.0) -> NameClustering:
    """Cluster *names* at a similarity *threshold* (single linkage).

    ``threshold=1`` clusters only identical names; lower thresholds
    additionally merge near-identical names (e.g. 'FarmVile' with
    'FarmVille' at 0.8).  Pairs are decided by the exact bounded
    kernels in :mod:`repro.text.fastdist`; the cluster list depends
    only on the resulting partition (grouping is by first occurrence,
    not by union-find internals), so it is identical to the naive-DP
    reference in :mod:`repro.text.reference` — the tests assert it.
    """
    return _cluster(names, threshold, _link_fast)


def _cluster(
    names: list[str],
    threshold: float,
    link: Callable[[list[str], float, _UnionFind], None],
) -> NameClustering:
    """Collapse duplicates, let *link* union similar uniques, group."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    counts = Counter(names)
    unique = list(counts)
    if threshold == 1.0:
        clusters = [[name] * counts[name] for name in unique]
        return NameClustering(threshold, len(names), clusters)

    uf = _UnionFind(len(unique))
    link(unique, threshold, uf)

    grouped: dict[int, list[str]] = {}
    for i, name in enumerate(unique):
        grouped.setdefault(uf.find(i), []).extend([name] * counts[name])
    return NameClustering(threshold, len(names), list(grouped.values()))


def _link_fast(unique: list[str], threshold: float, uf: _UnionFind) -> None:
    """Bounded kernel: the reference's pairs and predicate, far fewer DPs.

    The candidate window replicates the length prune expression of
    :func:`repro.text.reference._link_naive` verbatim (same float
    arithmetic), so both kernels see the same pair set;
    :func:`repro.text.fastdist.similar` then decides each pair with
    reject/accept bounds before falling back to a banded DP.
    Within a window, pairs sharing a first character are visited first:
    franchise names ("FarmVille 2", "FarmVille 3", ...) union early, and
    the connectivity skip then discards the remaining quadratic bulk of
    their pairs without touching any kernel.  Visit order cannot change
    the partition — it is the connected components of the similarity
    graph — so this is purely a scheduling optimisation.
    """
    order = sorted(range(len(unique)), key=lambda i: len(unique[i]))
    signatures = {i: char_signature(unique[i]) for i in order}
    max_gap = 1.0 - threshold
    for pos, i in enumerate(order):
        name_i = unique[i]
        len_i = len(name_i)
        window: list[int] = []
        for j in order[pos + 1 :]:
            longest = len(unique[j])  # sorted: len(name_j) >= len(name_i)
            if longest and (longest - len_i) / longest > max_gap:
                break  # all later names are even longer
            window.append(j)
        if not window:
            continue
        head = name_i[:1]
        window.sort(key=lambda j: unique[j][:1] != head)
        sig_i = signatures[i]
        for j in window:
            if uf.find(i) == uf.find(j):
                continue
            if similar(name_i, unique[j], threshold, sig_i, signatures[j]):
                uf.union(i, j)
