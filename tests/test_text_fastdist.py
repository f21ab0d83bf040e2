"""Exactness proofs for the fast name-similarity kernel.

Every routine in :mod:`repro.text.fastdist` is an *optimisation*, never
an approximation: the Myers bit-parallel Levenshtein, the banded
bounded OSA, and the pruned ``similar`` predicate must agree with the
naive dynamic programs in :mod:`repro.text.reference` on **every** input
— including multi-byte unicode, empty strings, and threshold edge
cases.  Hypothesis drives the comparison over random text; the
clustering equivalence (``cluster_names`` vs the reference
``naive_cluster_names``, byte-identical output) is covered both here on
random corpora and at scale in ``repro bench``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro

from repro.text.clustering import cluster_names
from repro.text.fastdist import (
    bounded_osa,
    char_signature,
    edit_limit,
    fast_damerau_levenshtein,
    myers_levenshtein,
    similar,
)
from repro.text.reference import (
    damerau_levenshtein,
    levenshtein,
    naive_cluster_names,
    name_similarity,
)

# Mixed-script text: ascii, latin-1, CJK, and astral-plane emoji, so the
# 64-bucket signatures and the bit-parallel kernel see real unicode.
alphabet = st.sampled_from("abcdeABC 0129_-áßñ中文日本語🎣🎮💰")
short_text = st.text(alphabet=alphabet, max_size=20)
word_text = st.text(alphabet=alphabet, max_size=70)
thresholds = st.sampled_from((0.5, 0.7, 0.8, 0.9, 0.95, 1.0))


@given(short_text, short_text)
def test_fast_damerau_levenshtein_matches_naive(a, b):
    assert fast_damerau_levenshtein(a, b) == damerau_levenshtein(a, b)


@given(word_text, word_text)
def test_myers_matches_naive_levenshtein(a, b):
    if min(len(a), len(b)) > 64:
        return  # contract: the shorter string must fit one word
    assert myers_levenshtein(a, b) == levenshtein(a, b)


def test_myers_rejects_patterns_over_one_word():
    with pytest.raises(ValueError):
        myers_levenshtein("x" * 65, "y" * 70)


@given(short_text, short_text, st.integers(min_value=0, max_value=25))
def test_bounded_osa_exact_within_limit(a, b, limit):
    distance = damerau_levenshtein(a, b)
    bounded = bounded_osa(a, b, limit)
    if distance <= limit:
        assert bounded == distance
    else:
        assert bounded > limit


@given(short_text, short_text, thresholds)
def test_similar_matches_naive_threshold_predicate(a, b, threshold):
    assert similar(a, b, threshold) == (name_similarity(a, b) >= threshold)


@given(short_text)
def test_char_signature_deterministic_and_subset_consistent(name):
    signature = char_signature(name)
    assert signature == char_signature(name)
    # every character's bucket must be present in the signature
    for ch in name:
        assert signature & (1 << (ord(ch) & 63))


def test_edit_limit_is_the_exact_threshold_boundary():
    """d <= edit_limit(n, t)  <=>  the naive float predicate accepts d."""
    for longest in range(1, 80):
        for threshold in (0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 0.95, 0.99, 1.0):
            limit = edit_limit(longest, threshold)
            for distance in range(longest + 2):
                accepts = 1.0 - distance / longest >= threshold
                assert (distance <= limit) == accepts, (
                    longest, threshold, distance, limit
                )


@settings(deadline=None, max_examples=40)
@given(
    st.lists(st.text(alphabet=alphabet, max_size=12), max_size=40),
    thresholds,
)
def test_cluster_names_fast_equals_naive(names, threshold):
    fast = cluster_names(names, threshold)
    naive = naive_cluster_names(names, threshold)
    assert fast.clusters == naive.clusters
    assert fast.threshold == naive.threshold
    assert fast.n_names == naive.n_names


def test_production_modules_do_not_import_the_reference_dp():
    """Only tests, ``repro bench`` and ``benchmarks/`` load the naive DPs."""
    script = """
import importlib, pkgutil, sys
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name.endswith("__main__") or info.name in (
        "repro.bench", "repro.text.reference"
    ):
        continue
    importlib.import_module(info.name)
print("repro.text.reference" in sys.modules)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"
