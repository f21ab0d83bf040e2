"""Text similarity primitives used to compare application names.

The paper measures name similarity with the Damerau-Levenshtein edit
distance normalized by the longer name's length (Sec 4.2.1), clusters app
names at several similarity thresholds (Fig 10/11), and detects
typosquatting of popular app names (Sec 5.3).  Both decide through the
exact bounded kernels of :mod:`repro.text.fastdist`; the naive dynamic
programs they are checked against live in :mod:`repro.text.reference`,
which this package does not import.
"""

from repro.text.fastdist import (
    bounded_osa,
    fast_damerau_levenshtein,
    myers_levenshtein,
    similar,
)
from repro.text.clustering import NameClustering, cluster_names
from repro.text.typosquat import is_typosquat, strip_version_suffix

__all__ = [
    "bounded_osa",
    "fast_damerau_levenshtein",
    "myers_levenshtein",
    "similar",
    "NameClustering",
    "cluster_names",
    "is_typosquat",
    "strip_version_suffix",
]
