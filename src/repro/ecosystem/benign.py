"""The benign developer population.

Generates legitimate apps whose profile matches the paper's benign
measurements: complete summaries (Fig 5), multi-permission installs
(Fig 6/7), redirect URIs inside apps.facebook.com or on reputable
company domains (Fig 8), honest client IDs (Sec 4.1.4), populated
profile feeds (Fig 9), high MAU (Fig 4), and posts that rarely leave
facebook.com (Fig 12).
"""

from __future__ import annotations

import numpy as np

from repro.ecosystem.messages import MessageFactory
from repro.ecosystem.params import GenerationParams
from repro.ecosystem.services import EcosystemServices
from repro.platform.apps import APP_CATEGORIES, FacebookApp
from repro.platform.permissions import PERMISSION_POOL, TOP_BENIGN_PERMISSIONS
from repro.platform.posts import Post
from repro.rng import bounded_integers

__all__ = ["BenignPopulation", "benign_profile_posts", "draw_benign_permissions"]

_COMPANIES = (
    "Zynga", "Electronic Arts", "Playdom", "Wooga", "King", "Playfish",
    "RockYou", "CrowdStar", "Digital Chocolate", "Kabam", "6waves",
    "Social Point", "Peak Games", "Halfbrick", "PopCap",
)

#: Cap on generated profile-feed posts per app (Fig 9's axis tops at 10^3).
_MAX_PROFILE_POSTS = 600

#: Extra permissions cluster on the same popular capabilities (Fig 6:
#: each of the top five is requested by 12-57% of benign apps).
_COMMON_EXTRAS = TOP_BENIGN_PERMISSIONS + (
    "user_location",
    "user_photos",
    "user_likes",
    "read_stream",
)


def draw_benign_permissions(rng: np.random.Generator, params: GenerationParams) -> tuple[str, ...]:
    """The benign population's permission law (Fig 6/7).

    Module-level because professionally camouflaged malicious apps
    (Sec 5.1's false negatives) draw from exactly the same law.
    """
    weights = np.array([0.30, 0.20, 0.13, 0.27, 0.10])
    first = TOP_BENIGN_PERMISSIONS[
        int(rng.choice(len(TOP_BENIGN_PERMISSIONS), p=weights))
    ]
    if rng.random() < params.benign_single_permission:
        return (first,)
    # Multi-permission apps are social games: they typically take the
    # post + offline + email combo (Fig 6's tall benign bars) plus a
    # geometric tail of rarer permissions.
    chosen: dict[str, None] = {first: None}
    for perm, probability in (
        ("publish_stream", 0.50),
        ("offline_access", 0.55),
        ("email", 0.55),
        ("user_birthday", 0.30),
        ("publish_actions", 0.12),
    ):
        if rng.random() < probability:
            chosen.setdefault(perm)
    extra_count = int(rng.geometric(0.6)) - 1
    for _ in range(extra_count):
        if rng.random() < 0.6:
            pool: tuple[str, ...] = _COMMON_EXTRAS
        else:
            pool = PERMISSION_POOL
        chosen.setdefault(pool[int(rng.integers(0, len(pool)))])
    return tuple(chosen)


def benign_profile_posts(
    rng: np.random.Generator,
    messages: MessageFactory,
    n_users: int,
    app: FacebookApp,
    count: int,
    first_id: int,
) -> list[Post]:
    """*count* benign posts for *app*'s profile page, IDs counting down.

    Module-level because camouflaged malicious apps fill their profile
    pages by the same law.  Per post, *rng* draws the day and the user
    and *messages* draws the text; each stream sees only bounded
    integers, so each draws all *count* posts in one call.
    """
    when = bounded_integers(rng, 0, [270, n_users] * count)
    texts = messages.benign_messages(app.name, count)
    return [
        Post(first_id - k, day, user, app.app_id, message=text)
        for k, (day, user, text) in enumerate(zip(when[::2], when[1::2], texts))
    ]


class BenignPopulation:
    """Builds benign apps and emits their wall posts."""

    def __init__(
        self,
        services: EcosystemServices,
        params: GenerationParams,
        rng: np.random.Generator,
        scale: float = 1.0,
    ) -> None:
        self._registry = services.registry
        self._post_log = services.post_log
        self._wot = services.wot
        self._hosting = services.hosting
        self._names = services.names
        self._messages = services.messages
        self._params = params
        self._rng = rng
        self._n_users = services.n_users
        self._scale = scale
        self._profile_post_serial = 0
        self.apps: list[FacebookApp] = []
        self.hobbyist_app_ids: set[str] = set()

    # -- app creation ------------------------------------------------------

    def build(self, n_apps: int, crawl_months: int = 3) -> list[FacebookApp]:
        """Create *n_apps* benign apps (popular names first)."""
        popular = list(self._names.popular_names())
        generated = self._names.benign_names(
            max(0, n_apps - len(popular)), self._params.benign_shared_name
        )
        all_names = (popular + generated)[:n_apps]
        for rank, name in enumerate(all_names):
            app = self._create_app(name, rank, crawl_months)
            self.apps.append(app)
        self._assign_dishonest_client_ids()
        return self.apps

    def _create_app(self, name: str, rank: int, crawl_months: int) -> FacebookApp:
        rng = self._rng
        p = self._params
        if rank >= 40 and rng.random() < p.benign_hobbyist_fraction:
            return self._create_hobbyist_app(name, crawl_months)
        company = _COMPANIES[int(rng.integers(0, len(_COMPANIES)))]
        popular = rank < 40  # the head of the popularity distribution
        has_desc = rng.random() < p.benign_has_description or popular
        app = self._registry.create(
            name=name,
            developer_id=f"dev:{company.lower().replace(' ', '-')}",
            created_day=0,
            description=(f"{name}: the official app by {company}" if has_desc else ""),
            company=(company if rng.random() < p.benign_has_company or popular else ""),
            category=(
                APP_CATEGORIES[int(rng.integers(0, len(APP_CATEGORIES)))]
                if rng.random() < p.benign_has_category or popular
                else ""
            ),
            permissions=self._draw_permissions(),
            redirect_uri=self._draw_redirect_uri(name),
            mau_series=self._draw_mau_series(crawl_months, popular),
            install_flow_crawlable=rng.random() < p.benign_inst_crawlable,
            truth_malicious=False,
        )
        self._fill_profile_feed(app)
        return app

    def _create_hobbyist_app(self, name: str, crawl_months: int) -> FacebookApp:
        """A bare-bones legitimate app (Sec 5.1's rare false positives).

        Hobbyist developers skip the summary fields, request only one
        permission, and never touch their profile page — superficially
        indistinguishable from a scam app on the on-demand features.
        """
        rng = self._rng
        p = self._params
        app = self._registry.create(
            name=name,
            developer_id="dev:hobbyist",
            created_day=0,
            permissions=(TOP_BENIGN_PERMISSIONS[0],),
            redirect_uri=self._draw_redirect_uri(name),
            mau_series=self._draw_mau_series(crawl_months, popular=False),
            install_flow_crawlable=rng.random() < p.benign_inst_crawlable,
            truth_malicious=False,
        )
        self.hobbyist_app_ids.add(app.app_id)
        return app

    def _draw_permissions(self) -> tuple[str, ...]:
        """Permission sets matching Fig 6/7's benign distribution."""
        return draw_benign_permissions(self._rng, self._params)

    def _draw_redirect_uri(self, name: str) -> str:
        rng = self._rng
        slug = "".join(ch for ch in name.lower() if ch.isalnum()) or "app"
        if rng.random() < self._params.benign_redirect_facebook:
            return f"https://apps.facebook.com/{slug}"
        domain = f"{slug[:20]}.com"
        self._wot.seed_reputable(domain)
        self._hosting.assign(domain, "self-hosted")
        return f"https://www.{domain}/canvas"

    def _draw_mau_series(self, months: int, popular: bool) -> tuple[int, ...]:
        rng = self._rng
        p = self._params
        mean = p.benign_mau_lognorm_mean + (3.0 if popular else 0.0)
        base = rng.lognormal(mean, p.benign_mau_lognorm_sigma)
        series = base * np.exp(
            rng.normal(0.0, p.mau_month_jitter_sigma, size=months)
        )
        return tuple(int(v) for v in np.maximum(series * self._scale, 1.0))

    def _assign_dishonest_client_ids(self) -> None:
        """Fig 4.1.4: ~1% of benign apps use a sibling client ID.

        Legitimate developers occasionally funnel installs of an old app
        version to the new one — the benign cause of a mismatch.
        """
        p = self._params.benign_client_id_mismatch
        for app in self.apps:
            if self._rng.random() < p:
                sibling = self.apps[int(self._rng.integers(0, len(self.apps)))]
                if sibling.app_id != app.app_id:
                    app.client_id_pool = (sibling.app_id,)

    def _fill_profile_feed(self, app: FacebookApp) -> None:
        rng = self._rng
        p = self._params
        if rng.random() < p.benign_empty_profile:
            return
        count = int(
            rng.lognormal(
                p.benign_profile_posts_lognorm_mean,
                p.benign_profile_posts_lognorm_sigma,
            )
        )
        count = min(max(count, 1), _MAX_PROFILE_POSTS)
        first_id = -(self._profile_post_serial + 1)  # not in the wall log
        app.profile_feed.extend(
            benign_profile_posts(
                rng, self._messages, self._n_users, app, count, first_id
            )
        )
        self._profile_post_serial += count

    # -- posting -------------------------------------------------------------

    def post_weights(self) -> np.ndarray:
        """Heavy-tailed per-app share of the benign post volume."""
        shape = self._params.post_volume_pareto_shape
        weights = self._rng.pareto(shape, size=len(self.apps)) + 1.0
        # Popular apps (low rank) take the head of the distribution.
        weights = np.sort(weights)[::-1]
        return weights * self._params.benign_post_volume_scale

    def emit_posts(self, app: FacebookApp, n_posts: int, horizon_days: int) -> None:
        """Emit *n_posts* wall posts for *app* into the log."""
        rng = self._rng
        p = self._params
        if rng.random() < p.benign_zero_external:
            external_ratio = 0.0
        else:
            a, b = p.benign_external_ratio_beta
            external_ratio = float(rng.beta(a, b))
        internal_link_rate = float(rng.beta(2, 6))
        slug = "".join(ch for ch in app.name.lower() if ch.isalnum()) or "app"
        days = rng.integers(0, horizon_days, size=n_posts).tolist()
        # The messages stream's draws (engagement, then text) come first:
        # streams are independent, so only the order within each counts.
        texts = self._messages.benign_posts(app.name, n_posts)
        random = rng.random
        integers = rng.integers
        new_post = self._post_log.new_post
        n_users = self._n_users
        app_id = app.app_id
        name = app.name
        internal_bound = external_ratio + internal_link_rate
        external_prefix = f"http://www.{slug}-news.com/update/"
        internal_link = f"https://apps.facebook.com/{slug}?ref=post"
        for day, (likes, comments, message) in zip(days, texts):
            draw = random()
            if draw < external_ratio:
                link = f"{external_prefix}{int(integers(1, 50))}"
            elif draw < internal_bound:
                link = internal_link
            else:
                link = None
            new_post(
                day, int(integers(0, n_users)), app_id, name,
                message, link, likes, comments, False,
            )
