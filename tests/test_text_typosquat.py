"""Tests for typosquat detection and version-suffix stripping."""

from hypothesis import given, settings, strategies as st

from repro.text.fastdist import char_signature
from repro.text.reference import name_similarity
from repro.text.typosquat import is_typosquat, strip_version_suffix

POPULAR = {"FarmVille", "CityVille", "Mafia Wars"}


class TestVersionSuffix:
    def test_paper_examples(self):
        assert strip_version_suffix("Profile Watchers v4.32") == (
            "Profile Watchers",
            True,
        )
        assert strip_version_suffix(
            "How long have you spent logged in? v8"
        ) == ("How long have you spent logged in?", True)

    def test_no_version(self):
        assert strip_version_suffix("FarmVille") == ("FarmVille", False)

    def test_embedded_v_is_not_a_version(self):
        assert strip_version_suffix("v8 engines") == ("v8 engines", False)

    def test_uppercase_marker(self):
        assert strip_version_suffix("Past Life V2") == ("Past Life", True)

    @given(st.text(alphabet="abc ", max_size=10), st.integers(1, 99))
    def test_roundtrip(self, base, major):
        name = f"{base.strip()} v{major}"
        stripped, had = strip_version_suffix(name)
        if base.strip():
            assert had
            assert stripped == base.strip()


class TestTyposquat:
    def test_paper_example(self):
        assert is_typosquat("FarmVile", POPULAR)

    def test_exact_match_is_not_a_typosquat(self):
        assert not is_typosquat("FarmVille", POPULAR)

    def test_unrelated_name(self):
        assert not is_typosquat("Free Phone Calls", POPULAR)

    def test_versioned_popular_name(self):
        assert is_typosquat("FarmVille v3", POPULAR)

    def test_transposition(self):
        assert is_typosquat("FarmVilel", POPULAR)

    def test_empty_popular_set(self):
        assert not is_typosquat("FarmVile", set())


def _reference_is_typosquat(name, popular_names, min_similarity=0.85):
    """The predicate as first written: one full DP per popular name."""
    if name in popular_names:
        return False
    base, _ = strip_version_suffix(name)
    if base != name and base in popular_names:
        return True
    return any(
        name_similarity(name, popular) >= min_similarity for popular in popular_names
    )


# A small alphabet makes near-misses common; the extra characters put
# multi-byte and astral-plane text through the 64-bucket signatures.
_ALPHABET = "FarmVileCity W.s áß中🎮"
_NAME = st.text(alphabet=_ALPHABET, max_size=16)
_VERSION = st.from_regex(r"[vV][0-9]{1,2}(\.[0-9]{1,2})?", fullmatch=True)


def _edit(name, position, char, kind):
    """Apply one insertion, deletion, substitution or transposition."""
    if not name:
        return char
    i = position % len(name)
    if kind == 0:
        return name[:i] + char + name[i:]
    if kind == 1:
        return name[:i] + name[i + 1 :]
    if kind == 2:
        return name[:i] + char + name[i + 1 :]
    if i + 1 < len(name):
        return name[:i] + name[i + 1] + name[i] + name[i + 2 :]
    return name


@settings(deadline=None, max_examples=400)
@given(
    st.data(),
    st.lists(_NAME, max_size=20),
    st.sampled_from((0.5, 0.75, 0.85, 0.9, 1.0)),
)
def test_is_typosquat_matches_reference_dp(data, popular, min_similarity):
    popular_set = set(popular)
    candidates = [
        st.text(max_size=20),
        _NAME,
        st.builds(lambda base, v: f"{base} {v}", _NAME, _VERSION),
        st.just(""),
    ]
    if popular:
        members = st.sampled_from(popular)
        candidates += [
            members,
            st.builds(lambda p, v: f"{p} {v}", members, _VERSION),
            st.builds(
                _edit,
                members,
                st.integers(0, 20),
                st.sampled_from(_ALPHABET),
                st.integers(0, 3),
            ),
        ]
    name = data.draw(st.one_of(candidates), label="name")
    expected = _reference_is_typosquat(name, popular_set, min_similarity)
    signatures = {p: char_signature(p) for p in popular_set}
    assert is_typosquat(name, popular_set, min_similarity) == expected
    assert is_typosquat(name, popular_set, min_similarity, signatures) == expected
    assert is_typosquat(name, popular, min_similarity) == expected
    if min_similarity == 0.85:
        assert is_typosquat(name, popular_set) == expected
