"""Tests for the edit distances (including hypothesis properties)."""

import pytest
from hypothesis import given, strategies as st

from repro.text.reference import (
    damerau_levenshtein,
    levenshtein,
    name_similarity,
    unrestricted_damerau_levenshtein,
)

_TEXT = st.text(alphabet="abcdef ", max_size=12)


class TestKnownValues:
    def test_farmville_typosquat(self):
        assert damerau_levenshtein("FarmVille", "FarmVile") == 1

    def test_transposition_counts_once(self):
        assert levenshtein("ab", "ba") == 2
        assert damerau_levenshtein("ab", "ba") == 1
        assert unrestricted_damerau_levenshtein("ab", "ba") == 1

    def test_osa_vs_unrestricted_divergence(self):
        # The classic example where OSA > true DL: 'ca' -> 'abc'.
        assert damerau_levenshtein("ca", "abc") == 3
        assert unrestricted_damerau_levenshtein("ca", "abc") == 2

    def test_empty_strings(self):
        assert levenshtein("", "") == 0
        assert damerau_levenshtein("", "abc") == 3
        assert unrestricted_damerau_levenshtein("abc", "") == 3

    def test_substitution(self):
        assert damerau_levenshtein("kitten", "sitten") == 1

    def test_classic_kitten_sitting(self):
        assert levenshtein("kitten", "sitting") == 3


@pytest.mark.parametrize(
    "distance",
    [levenshtein, damerau_levenshtein, unrestricted_damerau_levenshtein],
)
class TestSharedProperties:
    @given(a=_TEXT, b=_TEXT)
    def test_symmetry(self, distance, a, b):
        assert distance(a, b) == distance(b, a)

    @given(a=_TEXT)
    def test_identity(self, distance, a):
        assert distance(a, a) == 0

    @given(a=_TEXT, b=_TEXT)
    def test_bounds(self, distance, a, b):
        d = distance(a, b)
        assert 0 <= d <= max(len(a), len(b))
        if a != b:
            assert d >= 1
        # at least the length difference
        assert d >= abs(len(a) - len(b))


@given(a=_TEXT, b=_TEXT, c=_TEXT)
def test_levenshtein_triangle_inequality(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


@given(a=_TEXT, b=_TEXT)
def test_distance_ordering(a, b):
    """More permissive edit sets can only shrink the distance."""
    assert unrestricted_damerau_levenshtein(a, b) <= damerau_levenshtein(a, b)
    assert damerau_levenshtein(a, b) <= levenshtein(a, b)


@given(a=_TEXT, b=_TEXT)
def test_name_similarity_range(a, b):
    s = name_similarity(a, b)
    assert 0.0 <= s <= 1.0
    if a == b:
        assert s == 1.0


def test_name_similarity_normalisation():
    # one edit over nine characters
    assert name_similarity("FarmVille", "FarmVile") == pytest.approx(1 - 1 / 9)
