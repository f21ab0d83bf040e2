"""Posts, walls, and the platform-wide post log.

A post is the unit MyPageKeeper observes (Sec 2.2): it carries a text
message, an optional link, like/comment counts, and — crucially for this
paper — the ``application`` metadata field naming the app that made it.
That field is what app piggybacking forges (Sec 6.2), so a post also
records hidden truth about who really produced it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator

__all__ = ["Post", "PostLog"]

#: Shared empty multiset returned by :meth:`PostLog.url_counts` for apps
#: with no links, so the no-copy path allocates nothing.
_NO_URLS: Counter[str] = Counter()


@dataclass(slots=True)
class Post:
    """One wall/news-feed post."""

    post_id: int
    day: int
    user_id: int
    #: The app named in the post's ``application`` metadata field;
    #: ``None`` for manual posts and social-plugin posts (37% of the
    #: paper's corpus).
    app_id: str | None
    #: The app's display name, as Facebook embeds it in post metadata
    #: (this is how the paper knows the names of long-deleted apps).
    app_name: str | None = None
    message: str = ""
    link: str | None = None
    likes: int = 0
    comments: int = 0
    # --- hidden ground truth (never read by the classifiers) ----------
    truth_malicious: bool = False
    #: True when hackers forged the application field via prompt_feed.
    truth_piggybacked: bool = False

    @property
    def has_link(self) -> bool:
        return self.link is not None


class PostLog:
    """Append-only log of every post, with per-app aggregates.

    The log maintains the aggregates FRAppE's aggregation-based features
    need (per-app post counts and URL multisets) incrementally, so
    feature extraction never rescans the full corpus.
    """

    def __init__(self) -> None:
        self._posts: list[Post] = []
        self._post_ids_by_app: dict[str, list[int]] = {}
        self._url_counts_by_app: dict[str, Counter[str]] = {}
        self._name_of_app: dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._posts)

    def __iter__(self) -> Iterator[Post]:
        return iter(self._posts)

    def new_post(self, **kwargs) -> Post:
        """Create, append, and return a post with the next post ID."""
        post = Post(post_id=len(self._posts), **kwargs)
        self.append(post)
        return post

    def append(self, post: Post) -> None:
        if post.post_id != len(self._posts):
            raise ValueError(
                f"post IDs must be dense: expected {len(self._posts)}, "
                f"got {post.post_id}"
            )
        self._posts.append(post)
        if post.app_id is not None:
            self._post_ids_by_app.setdefault(post.app_id, []).append(post.post_id)
            if post.app_name is not None:
                self._name_of_app.setdefault(post.app_id, post.app_name)
            if post.link is not None:
                counts = self._url_counts_by_app.setdefault(post.app_id, Counter())
                counts[post.link] += 1

    def get(self, post_id: int) -> Post:
        return self._posts[post_id]

    # -- per-app views -----------------------------------------------------

    def app_ids(self) -> list[str]:
        """Every app observed posting, in first-seen order."""
        return list(self._post_ids_by_app)

    def post_count(self, app_id: str) -> int:
        return len(self._post_ids_by_app.get(app_id, ()))

    def posts_of_app(self, app_id: str) -> list[Post]:
        return [self._posts[i] for i in self._post_ids_by_app.get(app_id, ())]

    def urls_of_app(self, app_id: str) -> Counter[str]:
        """Multiset of URLs the app has posted."""
        return Counter(self._url_counts_by_app.get(app_id, Counter()))

    def url_counts(self, app_id: str) -> Counter[str]:
        """Like :meth:`urls_of_app`, but the live internal multiset.

        No copy is made, so batch feature extraction can scan every
        app's URLs in one pass; callers must treat the result as
        read-only.
        """
        return self._url_counts_by_app.get(app_id, _NO_URLS)

    def link_count(self, app_id: str) -> int:
        return sum(self._url_counts_by_app.get(app_id, Counter()).values())

    def app_name(self, app_id: str) -> str | None:
        """App display name as observed in post metadata."""
        return self._name_of_app.get(app_id)

    def app_names(self) -> dict[str, str]:
        """All observed app_id -> name mappings."""
        return dict(self._name_of_app)
