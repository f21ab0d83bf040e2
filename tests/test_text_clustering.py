"""Tests for threshold name clustering (Fig 10/11 machinery)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.text.clustering import cluster_names
from repro.text.reference import name_similarity

_NAMES = st.lists(st.text(alphabet="abcd", min_size=1, max_size=6), max_size=25)


def test_threshold_one_groups_identical_names_only():
    names = ["The App"] * 3 + ["La App", "Past Life"]
    clustering = cluster_names(names, 1.0)
    assert clustering.n_clusters == 3
    assert sorted(clustering.cluster_sizes(), reverse=True) == [3, 1, 1]
    assert clustering.largest() == ["The App"] * 3


def test_lower_threshold_merges_similar_names():
    names = ["Past Life", "Past Live", "Zebra Quest"]
    at_one = cluster_names(names, 1.0)
    at_085 = cluster_names(names, 0.85)
    assert at_one.n_clusters == 3
    assert at_085.n_clusters == 2  # 'Past Life' ~ 'Past Live' (8/9)


def test_reduction_ratio_definition():
    clustering = cluster_names(["a", "a", "b", "c"], 1.0)
    assert clustering.reduction_ratio == pytest.approx(3 / 4)


def test_empty_input():
    clustering = cluster_names([], 1.0)
    assert clustering.n_clusters == 0
    assert clustering.reduction_ratio == 1.0
    assert clustering.largest() == []


def test_invalid_threshold_rejected():
    with pytest.raises(ValueError):
        cluster_names(["a"], 0.0)
    with pytest.raises(ValueError):
        cluster_names(["a"], 1.5)


def test_single_linkage_is_transitive():
    # a~b and b~c but a!~c: single linkage still merges all three.
    names = ["aaaa", "aaab", "aabb"]
    assert name_similarity("aaaa", "aabb") < 0.75
    assert name_similarity("aaaa", "aaab") >= 0.75
    assert name_similarity("aaab", "aabb") >= 0.75
    clustering = cluster_names(names, 0.75)
    assert clustering.n_clusters == 1


@settings(deadline=None)
@given(names=_NAMES)
def test_clusters_partition_the_input(names):
    clustering = cluster_names(names, 0.7)
    flattened = sorted(n for cluster in clustering.clusters for n in cluster)
    assert flattened == sorted(names)


@settings(deadline=None)
@given(names=_NAMES)
def test_identical_names_always_share_a_cluster(names):
    clustering = cluster_names(names, 0.8)
    owner: dict[str, int] = {}
    for index, cluster in enumerate(clustering.clusters):
        for name in cluster:
            assert owner.setdefault(name, index) == index


@settings(deadline=None)
@given(names=_NAMES)
def test_cluster_count_monotone_in_threshold(names):
    """Lower thresholds can only merge clusters, never split them."""
    high = cluster_names(names, 0.9).n_clusters
    low = cluster_names(names, 0.6).n_clusters
    assert low <= high


@settings(deadline=None)
@given(names=_NAMES)
def test_threshold_one_matches_set_of_uniques(names):
    clustering = cluster_names(names, 1.0)
    assert clustering.n_clusters == len(set(names))
