"""Post-message generation.

Spam campaigns reuse near-identical, keyword-dense lure texts (that is
what MyPageKeeper's text-similarity feature keys on); benign app posts
are varied game/activity updates that rarely contain spam vocabulary.
Like/comment counts also differ: malicious posts engage users less.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.rng import bounded_integers

__all__ = ["MessageFactory"]

_SPAM_TEMPLATES = (
    "WOW I just got {n} Facebook Credits for Free",
    "Get your FREE {n} FACEBOOK CREDITS",
    "OMG free iPad for the first {n} users, hurry!",
    "WOW! I Just Got a Recharge of Rs {n}.",
    "Get Your Free Facebook Sim Card before {n} run out",
    "Shocking! See who viewed your profile, {n} stalkers found",
    "Claim your exclusive {n}$ gift card now, limited offer",
    "I won {n} credits with this amazing app, free for everyone",
)

_CHATTER_TEMPLATES = (
    "Had a great day at the beach with the family",
    "Can't believe it's already day {n} of the semester",
    "Anyone up for coffee this weekend?",
    "Just finished a {n} km run, feeling great",
    "Happy birthday to my best friend!",
    "New photo album from our trip, {n} pictures",
    "Watching the game tonight, who else?",
    "Finally finished reading that book after {n} days",
)

_BENIGN_TEMPLATES = (
    "I just reached level {n} in {app}!",
    "{app}: come help me with my farm, I planted {n} crops",
    "I scored {n} points playing {app}",
    "Sent you a little present in {app}",
    "Can you beat my {app} streak of {n}?",
    "Just unlocked a new badge in {app} after {n} games",
    "My daily fortune from {app} made me smile",
    "Joined a new tournament in {app}, wish me luck",
    "Sharing my {app} results: {n} correct answers",
    "Look at the new decoration I placed in {app}",
)


def _split(template: str) -> tuple[str, str | None]:
    """*template* as ``(head, tail)`` around its one ``{n}``.

    ``tail`` is ``None`` for a template without a number.  Formatting
    the two halves separately and joining them around ``str(n)`` equals
    ``template.format(n=n, ...)`` for templates with at most one
    ``{n}``, and skips re-parsing the template per post.
    """
    head, sep, tail = template.partition("{n}")
    return (head, tail) if sep else (template, None)


def _fill(head: str, tail: str | None, n: int) -> str:
    return head if tail is None else f"{head}{n}{tail}"


_CHATTER_PARTS = tuple(_split(t) for t in _CHATTER_TEMPLATES)
_BENIGN_PARTS = tuple(_split(t) for t in _BENIGN_TEMPLATES)


def _benign_parts(app_name: str) -> list[tuple[str, str | None]]:
    """The benign templates split around ``{n}``, *app_name* filled in."""
    return [
        (
            head.format(app=app_name),
            None if tail is None else tail.format(app=app_name),
        )
        for head, tail in _BENIGN_PARTS
    ]


class MessageFactory:
    """Draws post texts and engagement counts for both populations.

    The scalar methods draw one post's worth; the plural ones draw many
    posts' worth and consume exactly the draws of the same number of
    scalar calls, in the same order (see :func:`repro.rng.bounded_integers`).
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    # -- texts ----------------------------------------------------------

    def campaign_template(self) -> str:
        """Pick the (near-fixed) lure text template for one campaign."""
        return _SPAM_TEMPLATES[int(self._rng.integers(0, len(_SPAM_TEMPLATES)))]

    def spam_message(self, template: str) -> str:
        """Instantiate the campaign template with a varying number.

        Keeping everything but the number constant gives the high
        cross-post text similarity MyPageKeeper measures on campaigns.
        """
        n = int(self._rng.integers(1, 10)) * 10 ** int(self._rng.integers(1, 4))
        return template.format(n=n)

    def spam_messages(self, template: str, count: int) -> list[str]:
        """*count* :meth:`spam_message` texts, drawn in one call."""
        draws = bounded_integers(self._rng, 1, [10, 4] * count)
        return [
            template.format(n=mantissa * 10**exponent)
            for mantissa, exponent in zip(draws[::2], draws[1::2])
        ]

    def appless_messages(self, malicious: Sequence[bool]) -> list[str]:
        """Texts for a run of app-less posts, one per *malicious* flag.

        A malicious post reshares a scam lure (a fresh campaign template
        and its number); the rest are manual status updates.
        """
        low: list[int] = []
        high: list[int] = []
        for is_spam in malicious:
            if is_spam:
                low += (0, 1, 1)
                high += (len(_SPAM_TEMPLATES), 10, 4)
            else:
                low += (0, 1)
                high += (len(_CHATTER_TEMPLATES), 400)
        draws = iter(bounded_integers(self._rng, low, high))
        texts: list[str] = []
        for is_spam in malicious:
            if is_spam:
                template = _SPAM_TEMPLATES[next(draws)]
                n = next(draws) * 10 ** next(draws)
                texts.append(template.format(n=n))
            else:
                head, tail = _CHATTER_PARTS[next(draws)]
                texts.append(_fill(head, tail, next(draws)))
        return texts

    def benign_message(self, app_name: str) -> str:
        template = _BENIGN_TEMPLATES[int(self._rng.integers(0, len(_BENIGN_TEMPLATES)))]
        return template.format(app=app_name, n=int(self._rng.integers(1, 500)))

    def benign_messages(self, app_name: str, count: int) -> list[str]:
        """*count* :meth:`benign_message` texts, drawn in one call."""
        parts = _benign_parts(app_name)
        draws = bounded_integers(
            self._rng, [0, 1] * count, [len(parts), 500] * count
        )
        return [
            _fill(*parts[index], n) for index, n in zip(draws[::2], draws[1::2])
        ]

    def benign_posts(
        self, app_name: str, count: int
    ) -> list[tuple[int, int, str]]:
        """``(likes, comments, message)`` for *count* benign posts.

        Per post this draws :meth:`benign_engagement` then
        :meth:`benign_message`.  Poisson draws consume a variable number
        of words, so the loop stays scalar; only its per-post overhead
        is trimmed.
        """
        poisson = self._rng.poisson
        integers = self._rng.integers
        parts = _benign_parts(app_name)
        n_templates = len(parts)
        posts: list[tuple[int, int, str]] = []
        for _ in range(count):
            likes = int(poisson(7.0))
            comments = int(poisson(2.5))
            head, tail = parts[int(integers(0, n_templates))]
            n = int(integers(1, 500))
            posts.append(
                (likes, comments, head if tail is None else f"{head}{n}{tail}")
            )
        return posts

    # -- engagement -------------------------------------------------------

    def spam_engagement(self) -> tuple[int, int]:
        """(likes, comments) for a malicious post — low engagement."""
        likes = int(self._rng.poisson(0.8))
        comments = int(self._rng.poisson(0.3))
        return likes, comments

    def benign_engagement(self) -> tuple[int, int]:
        """(likes, comments) for a benign post."""
        likes = int(self._rng.poisson(7.0))
        comments = int(self._rng.poisson(2.5))
        return likes, comments
