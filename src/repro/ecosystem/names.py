"""Application-name generation (Sec 4.2.1).

Benign developers pick essentially unique names; hackers are "lazy" —
each campaign reuses a small pool of scam-themed names across many app
IDs, occasionally appends version suffixes ('Profile Watchers v4.32'),
and sometimes typosquats a popular benign name ('FarmVile').
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.rng import bounded_integers

__all__ = ["NameFactory", "POPULAR_BENIGN_NAMES", "SCAM_BASE_NAMES"]

#: Popular benign apps named in the paper.
POPULAR_BENIGN_NAMES: tuple[str, ...] = (
    "FarmVille",
    "CityVille",
    "Facebook for iPhone",
    "Facebook for Android",
    "Mobile",
    "Links",
    "Zoo World",
    "Mafia Wars",
    "Fortune Cookie",
    "Words With Friends",
    "Texas HoldEm Poker",
    "Bubble Safari",
    "CastleVille",
    "Bejeweled Blitz",
    "Diamond Dash",
    "Draw Something",
    "Pet Society",
    "Gardens of Time",
    "The Sims Social",
    "Angry Birds",
)

#: Scam names observed in the paper (Tables 2/9, Secs 4-6).
SCAM_BASE_NAMES: tuple[str, ...] = (
    "What Does Your Name Mean?",
    "Free Phone Calls",
    "The App",
    "WhosStalking?",
    "Past Life",
    "Profile Watchers",
    "How long have you spent logged in?",
    "Death Predictor",
    "whats my name means",
    "What ur name implies!!!",
    "Name meaning finder",
    "Name meaning",
    "Future Teller",
    "What is the sexiest thing about you?",
    "Which cartoon character are you",
    "The Pink Facebook",
    "Pr0file stalker",
    "La App",
)

_BENIGN_FIRST = (
    "Happy", "Magic", "Super", "Crazy", "Daily", "Pocket", "Mega", "Tiny",
    "Royal", "Lucky", "Pixel", "Turbo", "Golden", "Cosmic", "Epic", "Ninja",
    "Puzzle", "Social", "Speedy", "Wonder", "Brave", "Clever", "Mighty",
    "Silent", "Velvet", "Crimson", "Frozen", "Ancient", "Neon", "Jolly",
)
_BENIGN_SECOND = (
    "Farm", "City", "Quiz", "Poker", "Racing", "Pets", "Words", "Bubbles",
    "Kitchen", "Garden", "Aquarium", "Empire", "Safari", "Casino", "Music",
    "Photos", "Calendar", "Trivia", "Chess", "Stories", "Dungeon", "Harbor",
    "Bakery", "Planet", "Jungle", "Castle", "Circus", "Voyage", "Orchard",
    "Workshop",
)
_BENIGN_SUFFIX = (
    "", "", "", "", "", " Saga", " Deluxe", " World", " Mania", " Pro",
)

_SCAM_FIRST = (
    "Who Viewed", "Free", "Secret", "Real", "True", "Your", "Amazing",
    "Hidden", "Instant", "Official",
)
_SCAM_SECOND = (
    "Profile Viewer", "iPad Giveaway", "Credits Generator", "Love Calculator",
    "Age Detector", "Stalker Finder", "Photo Effects", "Gift Cards",
    "Video Chat", "Fortune",
)


class NameFactory:
    """Draws app names for both populations."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._benign_serial = 0
        self._used_benign_names: set[str] = set()
        #: the same names, kept sorted: the franchise-parent draw indexes it
        self._sorted_benign_names: list[str] = []
        self._used_scam_names: set[str] = set()
        self._scam_serial = 0

    # -- benign ------------------------------------------------------------

    def popular_names(self) -> tuple[str, ...]:
        return POPULAR_BENIGN_NAMES

    def benign_names(self, n: int, shared_fraction: float = 0.02) -> list[str]:
        """*n* benign names, almost all unique.

        A *shared_fraction* of draws duplicates an earlier name — even
        legitimate developers occasionally collide (Fig 10's benign
        curve is not perfectly flat).
        """
        names: list[str] = []
        for _ in range(n):
            if names and self._rng.random() < shared_fraction:
                names.append(names[int(self._rng.integers(0, len(names)))])
            else:
                names.append(self._fresh_benign_name())
        return names

    def _fresh_benign_name(self) -> str:
        rng = self._rng
        # Some developers ship near-identical franchises ('Happy Farm',
        # 'Happy Farm Saga') — the source of Fig 10's mild benign
        # clustering at low thresholds.
        if self._used_benign_names and rng.random() < 0.15:
            parents = self._sorted_benign_names
            parent = parents[int(rng.integers(0, len(parents)))]
            for suffix in (" Saga", " Deluxe", " Pro", " World", " Mania"):
                candidate = parent + suffix
                if candidate not in self._used_benign_names:
                    return self._claim_benign_name(candidate)
        # Up to 60 tries at an unused 'First Second' pair.  The first try
        # is two scalar draws.  On a miss the other 59 pairs are drawn in
        # one call from a saved state; the state is then restored and
        # exactly the pairs the scalar loop would have drawn are redrawn.
        first = _BENIGN_FIRST[int(rng.integers(0, len(_BENIGN_FIRST)))]
        second = _BENIGN_SECOND[int(rng.integers(0, len(_BENIGN_SECOND)))]
        candidate = f"{first} {second}"
        if candidate not in self._used_benign_names:
            return self._claim_benign_name(candidate)
        saved = rng.bit_generator.state
        bounds = [len(_BENIGN_FIRST), len(_BENIGN_SECOND)] * 59
        draws = bounded_integers(rng, 0, bounds)
        for k in range(0, len(draws), 2):
            first = _BENIGN_FIRST[draws[k]]
            second = _BENIGN_SECOND[draws[k + 1]]
            candidate = f"{first} {second}"
            if candidate not in self._used_benign_names:
                rng.bit_generator.state = saved
                bounded_integers(rng, 0, bounds[: k + 2])
                return self._claim_benign_name(candidate)
        # Combinatorial space exhausted: the stream already stands where
        # 60 scalar tries leave it.  Fall back to a serial.
        self._benign_serial += 1
        return f"{first} {second} {self._benign_serial}"

    def _claim_benign_name(self, name: str) -> str:
        self._used_benign_names.add(name)
        bisect.insort(self._sorted_benign_names, name)
        return name

    # -- malicious -----------------------------------------------------------

    def scam_name_pool(self, n_names: int, base_reuse: float = 0.15) -> list[str]:
        """A campaign's pool of *n_names* distinct scam names.

        Name reuse is concentrated *within* a campaign (one name pod per
        pool entry); across campaigns only a small *base_reuse* fraction
        recycles the classic scam names, so separate hacker
        organisations rarely collide on a name.
        """
        pool: list[str] = []
        while len(pool) < n_names:
            if self._rng.random() < base_reuse:
                candidate = SCAM_BASE_NAMES[
                    int(self._rng.integers(0, len(SCAM_BASE_NAMES)))
                ]
            else:
                candidate = self._fresh_scam_name()
            if candidate not in pool:
                pool.append(candidate)
                self._used_scam_names.add(candidate)
        return pool

    def _fresh_scam_name(self) -> str:
        first = _SCAM_FIRST[int(self._rng.integers(0, len(_SCAM_FIRST)))]
        second = _SCAM_SECOND[int(self._rng.integers(0, len(_SCAM_SECOND)))]
        candidate = f"{first} {second}"
        while candidate in self._used_scam_names:
            self._scam_serial += 1
            candidate = f"{first} {second} {self._scam_serial}"
        return candidate

    def with_version(self, name: str) -> str:
        """Append a version marker ('Profile Watchers v4.32')."""
        major = int(self._rng.integers(1, 12))
        if self._rng.random() < 0.5:
            return f"{name} v{major}"
        minor = int(self._rng.integers(0, 100))
        return f"{name} v{major}.{minor:02d}"

    def typosquat_of(self, name: str) -> str:
        """Mutate one character of *name* (delete / transpose / double).

        Always returns a string different from *name* (transposing two
        identical characters would be a no-op, so draws are retried).
        """
        if len(name) < 4:
            return name + name[-1]
        for _ in range(50):
            pos = int(self._rng.integers(1, len(name) - 1))
            move = int(self._rng.integers(0, 3))
            if move == 0:  # delete ('FarmVille' -> 'FarmVile')
                candidate = name[:pos] + name[pos + 1 :]
            elif move == 1:  # transpose
                candidate = (
                    name[: pos - 1] + name[pos] + name[pos - 1] + name[pos + 1 :]
                )
            else:  # double a character
                candidate = name[:pos] + name[pos] + name[pos:]
            if candidate != name:
                return candidate
        return name + name[-1]
