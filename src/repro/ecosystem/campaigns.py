"""Hacker organisations and their campaigns (Secs 3, 4, 6).

One :class:`HackerCampaign` is one hacker organisation, and — because
promotion stays inside an organisation — one connected component of the
collusion graph (an *AppNet*).  A campaign is structured as *pods*:
groups of apps sharing one name (the paper's "laziness" observation —
627 apps named 'The App').  Pods are role-homogeneous (promoter /
promotee / dual), matching the paper's finding that the 1,936
indirection promoters carried only 206 unique names.

Promotion is emitted as actual posts, never as ground-truth edges: a
promoter app posts either a direct link to a promotee's installation
URL or a shortened link to one of the campaign's indirection websites,
and :mod:`repro.collusion` later *rediscovers* the AppNet from the post
log exactly as the paper's forensics did.

Detectability: each app is either **loud** (posts keyword-dense,
near-duplicate lure messages pointing at a small shared URL pool — the
posts MyPageKeeper flags) or **stealthy** (innocuous-looking messages,
fresh URLs).  Loud apps become the paper's D-Sample malicious set;
stealthy ones are the apps only FRAppE finds later (Sec 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ecosystem.benign import benign_profile_posts, draw_benign_permissions
from repro.ecosystem.params import GenerationParams
from repro.ecosystem.services import EcosystemServices
from repro.platform.apps import FacebookApp
from repro.platform.permissions import PERMISSION_POOL, PUBLISH_STREAM
from repro.platform.posts import Post
from repro.rng import bounded_integers
from repro.urlinfra.hosting import AWS_PROVIDER
from repro.urlinfra.redirector import IndirectionSite

__all__ = [
    "Pod",
    "CampaignPlan",
    "HackerCampaign",
    "plan_campaign_sizes",
    "DriftingCampaign",
    "StealthyLikeFarmCampaign",
    "FakeProfileRingCampaign",
    "BenignMimicryCampaign",
    "DRIFTING_ARCHETYPES",
]

_ROLES = ("promoter", "promotee", "dual")

#: Cap on generated profile-feed posts for the 3% of malicious apps
#: that advertise scams on their own profile page.
_MAX_PROFILE_POSTS = 300


@dataclass
class Pod:
    """A same-name group of apps with one collusion role."""

    name: str
    role: str  # 'promoter' | 'promotee' | 'dual' | 'standalone'
    apps: list[FacebookApp] = field(default_factory=list)
    #: pods this pod promotes (promoter/dual pods only)
    target_pods: list["Pod"] = field(default_factory=list)
    #: indirection site this pod advertises, if any
    site: IndirectionSite | None = None
    #: the pod's own shortened alias for the site URL
    site_short_url: str | None = None
    #: direct-link promotion targets (app IDs)
    direct_targets: list[str] = field(default_factory=list)

    @property
    def promotes(self) -> bool:
        return self.role in ("promoter", "dual")

    @property
    def promotable(self) -> bool:
        return self.role in ("promotee", "dual")


@dataclass(frozen=True)
class CampaignPlan:
    """Driver-level plan for one campaign."""

    campaign_id: str
    n_apps: int
    colluding: bool
    n_sites: int
    #: size of a forced giant pod (the scaled 'The App' cluster), or 0
    mega_pod_size: int = 0


def plan_campaign_sizes(
    n_colluding: int, n_components: int, rng: np.random.Generator
) -> list[int]:
    """Split *n_colluding* apps into component sizes shaped like Sec 6.1.

    The paper's 44 components have top-5 sizes (3484, 770, 589, 296,
    247) out of 6,331 colluding apps; we preserve those proportions and
    spread the remainder over the small components.
    """
    if n_components < 1 or n_colluding < n_components:
        raise ValueError("need at least one app per component")
    top_fractions = np.array([3484, 770, 589, 296, 247], dtype=float) / 6331.0
    sizes: list[int] = []
    remaining = n_colluding
    for fraction in top_fractions[: min(5, n_components)]:
        size = max(2, int(round(fraction * n_colluding)))
        sizes.append(size)
        remaining -= size
    n_small = n_components - len(sizes)
    if n_small > 0:
        remaining = max(remaining, n_small)
        shares = rng.dirichlet(np.full(n_small, 2.0))
        small = np.maximum(1, np.round(shares * remaining).astype(int))
        sizes.extend(int(s) for s in small)
    return sizes


class HackerCampaign:
    """One hacker organisation: builds its apps and emits their posts."""

    def __init__(
        self,
        plan: CampaignPlan,
        services: EcosystemServices,
        params: GenerationParams,
        rng: np.random.Generator,
        scale: float = 1.0,
        crawl_months: int = 3,
    ) -> None:
        self.plan = plan
        self._services = services
        self._params = params
        self._rng = rng
        self._scale = scale
        self._crawl_months = crawl_months
        self.apps: list[FacebookApp] = []
        self.pods: list[Pod] = []
        self.sites: list[IndirectionSite] = []
        self.spam_domains: list[str] = []
        self.loud_app_ids: set[str] = set()
        self.professional_app_ids: set[str] = set()
        self._pod_of: dict[str, Pod] = {}
        self._external_ratio: dict[str, float] = {}
        self._uses_bitly: dict[str, bool] = {}
        #: small shared pool of (landing, shortened) lure URLs
        self.loud_lure_urls: list[tuple[str, str]] = []
        self._stealth_serial = 0
        self._profile_post_serial = 0
        self._template = services.messages.campaign_template()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def build(self) -> list[FacebookApp]:
        self._create_spam_domains()
        pod_sizes = self._draw_pod_sizes()
        roles = self._assign_roles(pod_sizes)
        names = self._draw_pod_names(len(pod_sizes))
        for size, role, name in zip(pod_sizes, roles, names):
            pod = Pod(name=name, role=role)
            # Detectability is pod-correlated: pod-mates share lure
            # URLs, so MyPageKeeper tends to catch (or miss) a pod as
            # a unit — with some per-member leakage both ways.
            is_mega = self.plan.mega_pod_size > 1 and not self.pods
            pod_loud = (
                is_mega  # the giant clone pod is what got the paper's attention
                or self._rng.random() < self._params.loud_pod_probability
            )
            member_loud_p = (
                self._params.loud_pod_member_probability
                if pod_loud
                else self._params.stealth_pod_member_probability
            )
            self.pods.append(pod)
            for _ in range(size):
                app = self._create_app(pod, member_loud_p)
                pod.apps.append(app)
                self.apps.append(app)
                self._pod_of[app.app_id] = pod
        self._assign_client_id_pools()
        if self.plan.colluding:
            self._create_sites()
            self._wire_promotion()
        self._prepare_loud_urls()
        return self.apps

    def _create_spam_domains(self) -> None:
        """Rent 1-3 hosting domains from the shared bulletproof pool.

        Campaigns concentrate on the same few domains (Table 3: the top
        five host 83% of the malicious apps in D-Inst).
        """
        rng = self._rng
        n_domains = int(rng.integers(1, 4))
        if self._services.spam_domain_pool:
            self.spam_domains = self._services.sample_spam_domains(rng, n_domains)
            return
        # No shared pool configured (unit-test use): mint private domains.
        stem_pool = (
            "thenamemeans", "fastfreeupdates", "wikiworldmedia",
            "technicalyard", "freegiftzone", "profilecheck", "surveyrewards",
            "appprizes",
        )
        for _ in range(n_domains):
            stem = stem_pool[int(rng.integers(0, len(stem_pool)))]
            domain = f"{stem}{int(rng.integers(1, 100))}.com"
            if domain in self.spam_domains:
                continue
            self.spam_domains.append(domain)
            self._services.wot.seed_spammy(
                domain,
                coverage_probability=self._params.malicious_wot_coverage,
                high=self._params.malicious_wot_max_score,
            )
            self._services.hosting.assign(domain, "bulletproof-hosting.net")

    def _draw_pod_sizes(self) -> list[int]:
        """Pod (name-cluster) sizes: 13% singletons, heavy-tailed rest."""
        rng = self._rng
        params = self._params
        sizes: list[int] = []
        total = 0
        n_apps = self.plan.n_apps
        if self.plan.mega_pod_size > 1:
            sizes.append(min(self.plan.mega_pod_size, n_apps))
            total += sizes[0]
        singleton_probability = 1.0 - params.malicious_shared_name
        cap = max(12, int(200 * self._scale))
        while total < n_apps:
            if rng.random() < singleton_probability:
                size = 1
            else:
                size = 1 + min(int(rng.zipf(2.2)), cap)
            size = min(size, n_apps - total)
            sizes.append(size)
            total += size
        return sizes

    def _assign_roles(self, pod_sizes: list[int]) -> list[str]:
        if not self.plan.colluding:
            return ["standalone"] * len(pod_sizes)
        rng = self._rng
        quotas = {
            role: fraction * self.plan.n_apps
            for role, fraction in zip(_ROLES, self._params.role_fractions())
        }
        roles: list[str] = []
        for index, size in enumerate(pod_sizes):
            if index == 0 and self.plan.mega_pod_size > 1:
                roles.append("promotee")  # the giant clone pod is promoted
                quotas["promotee"] -= size
                continue
            weights = np.array([max(quotas[r], 0.0) for r in _ROLES])
            if weights.sum() <= 0:
                weights = np.ones(len(_ROLES))
            chosen = _ROLES[int(rng.choice(len(_ROLES), p=weights / weights.sum()))]
            roles.append(chosen)
            quotas[chosen] -= size
        return roles

    def _draw_pod_names(self, n_pods: int) -> list[str]:
        """One name per pod, drawn from a smaller campaign pool.

        The same hacker reuses names across pods (Sec 6.1: 1,936
        promoters carried only 206 unique names), so the pool is about
        half the pod count, sampled head-heavy.
        """
        rng = self._rng
        pool_size = max(1, int(np.ceil(n_pods * 0.40)))
        pool = self._services.names.scam_name_pool(pool_size)
        weights = 1.0 / np.arange(1, pool_size + 1) ** 1.0
        weights /= weights.sum()
        names = [
            pool[int(rng.choice(pool_size, p=weights))] for _ in range(n_pods)
        ]
        if self.plan.mega_pod_size > 1 and names:
            names[0] = "The App"  # the paper's 627-clone giant pod
        # A small fraction of pods typosquat a popular benign app.
        popular = self._services.names.popular_names()
        for i in range(1 if self.plan.mega_pod_size > 1 else 0, n_pods):
            if rng.random() < self._params.malicious_typosquat_fraction * 2:
                names[i] = self._services.names.typosquat_of(
                    popular[int(rng.integers(0, len(popular)))]
                )
        return names

    def _create_app(self, pod: Pod, loud_probability: float) -> FacebookApp:
        rng = self._rng
        params = self._params
        name = pod.name
        if rng.random() < 0.05:  # 'Profile Watchers v4.32'-style variants
            name = self._services.names.with_version(name)
        professional = rng.random() < params.malicious_professional_fraction
        domain = self.spam_domains[int(rng.integers(0, len(self.spam_domains)))]
        if professional:
            # Professionals also avoid the tell-tale name reuse: each
            # camouflaged app gets a fresh benign-style name.
            unique_name = self._services.names.benign_names(1)[0]
            app = self._create_professional_app(unique_name, rng)
        else:
            app = self._services.registry.create(
                name=name,
                developer_id=f"hacker:{self.plan.campaign_id}",
                created_day=int(rng.integers(0, 200)),
                description=(
                    "The best app ever, install now"
                    if rng.random() < params.malicious_has_description
                    else ""
                ),
                company=(
                    "Best Apps Inc"
                    if rng.random() < params.malicious_has_company
                    else ""
                ),
                category=(
                    "Entertainment"
                    if rng.random() < params.malicious_has_category
                    else ""
                ),
                permissions=self._draw_permissions(),
                redirect_uri=f"http://{domain}/lp/{int(rng.integers(1, 10_000))}",
                mau_series=self._draw_mau_series(),
                install_flow_crawlable=rng.random() < params.malicious_inst_crawlable,
                truth_malicious=True,
                truth_campaign_id=self.plan.campaign_id,
            )
            if rng.random() > params.malicious_empty_profile:
                self._fill_scam_profile_feed(app, domain)
        if rng.random() < loud_probability:
            self.loud_app_ids.add(app.app_id)
        if professional:
            # Camouflage extends to posting: scams run inside Facebook
            # canvases, so almost no external links are observable.
            self._external_ratio[app.app_id] = (
                0.0 if rng.random() < 0.8 else float(rng.beta(1.2, 8.0))
            )
        else:
            self._external_ratio[app.app_id] = self._draw_external_ratio()
        self._uses_bitly[app.app_id] = rng.random() < 0.72
        return app

    def _create_professional_app(
        self, name: str, rng: np.random.Generator
    ) -> FacebookApp:
        """A professionally configured malicious app (Sec 5.1's FNs).

        Some hackers invest in camouflage: filled-in summaries, a
        realistic permission set, an honest install flow, and a
        moderately reputable front domain.  These apps evade
        feature-based detection and are the paper's ~4% false
        negatives.
        """
        params = self._params
        slug = "".join(ch for ch in name.lower() if ch.isalnum())[:18] or "app"
        # The camouflage *is* the benign generation path: the redirect,
        # permission-set, and profile-feed draws below mirror
        # BenignPopulation, so on-demand features match the benign
        # distribution exactly.
        if rng.random() < params.benign_redirect_facebook:
            redirect = f"https://apps.facebook.com/{slug}"
        else:
            front = f"{slug}{int(rng.integers(1, 50))}studio.com"
            self._services.wot.seed_reputable(front)
            self._services.hosting.assign(front, "self-hosted")
            redirect = f"https://www.{front}/canvas"
        app = self._services.registry.create(
            name=name,
            developer_id=f"hacker:{self.plan.campaign_id}",
            created_day=int(rng.integers(0, 200)),
            description=f"{name} - play with your friends!",
            company=f"{slug.title()} Studio",
            category="Games",
            permissions=self._draw_benign_style_permissions(),
            redirect_uri=redirect,
            mau_series=self._draw_mau_series(),
            install_flow_crawlable=rng.random() < params.benign_inst_crawlable,
            truth_malicious=True,
            truth_campaign_id=self.plan.campaign_id,
        )
        self.professional_app_ids.add(app.app_id)
        self._add_benign_profile_posts(app, int(rng.integers(3, 25)))
        return app

    def _add_benign_profile_posts(self, app: FacebookApp, count: int) -> None:
        """*count* benign-looking posts on *app*'s profile page."""
        first_id = -(10**9) - (self._profile_post_serial + 1)
        app.profile_feed.extend(
            benign_profile_posts(
                self._rng,
                self._services.messages,
                self._services.n_users,
                app,
                count,
                first_id,
            )
        )
        self._profile_post_serial += count

    def _draw_permissions(self) -> tuple[str, ...]:
        rng = self._rng
        if rng.random() < self._params.malicious_single_permission:
            return (PUBLISH_STREAM,)
        extras = [p for p in PERMISSION_POOL if p != PUBLISH_STREAM]
        n_extra = int(rng.integers(1, 3))
        chosen = rng.choice(len(extras), size=n_extra, replace=False)
        return (PUBLISH_STREAM, *(extras[i] for i in chosen))

    def _draw_benign_style_permissions(self) -> tuple[str, ...]:
        """The benign population's permission law (for professionals)."""
        return draw_benign_permissions(self._rng, self._params)

    def _draw_mau_series(self) -> tuple[int, ...]:
        rng = self._rng
        params = self._params
        base = rng.lognormal(
            params.malicious_mau_lognorm_mean, params.malicious_mau_lognorm_sigma
        )
        series = base * np.exp(
            rng.normal(0.0, params.mau_month_jitter_sigma, size=self._crawl_months)
        )
        return tuple(int(v) for v in np.maximum(series * self._scale, 1.0))

    def _draw_external_ratio(self) -> float:
        """Fig 12: 40% of malicious apps average ~1 external link/post."""
        rng = self._rng
        if rng.random() < 0.34:
            return float(rng.uniform(0.85, 1.0))
        if rng.random() < self._params.malicious_low_external:
            return float(rng.uniform(0.0, 0.15))
        return float(rng.beta(2.0, 2.0) * 0.8)

    def _assign_client_id_pools(self) -> None:
        """Sec 4.1.4: 78% of malicious apps rotate sibling client IDs."""
        rng = self._rng
        for pod in self.pods:
            if len(pod.apps) < 2:
                continue
            ids = [a.app_id for a in pod.apps]
            for app in pod.apps:
                if app.app_id in self.professional_app_ids:
                    continue  # professionals keep an honest install flow
                if rng.random() < self._params.malicious_client_id_mismatch:
                    siblings = [i for i in ids if i != app.app_id]
                    take = min(len(siblings), 10)
                    chosen = rng.choice(len(siblings), size=take, replace=False)
                    app.client_id_pool = tuple(siblings[i] for i in chosen)

    def _fill_scam_profile_feed(self, app: FacebookApp, domain: str) -> None:
        rng = self._rng
        count = min(
            1 + int(rng.poisson(self._params.malicious_profile_posts_mean)),
            _MAX_PROFILE_POSTS,
        )
        # Per post: token, day and user from this stream, the text from
        # the messages stream; each stream sees only bounded integers.
        draws = bounded_integers(
            rng, [1, 0, 0] * count, [100_000, 270, self._services.n_users] * count
        )
        texts = self._services.messages.spam_messages(self._template, count)
        serial = self._profile_post_serial
        app.profile_feed.extend(
            Post(
                -(10**9) - (serial + k + 1),
                day,
                user,
                app.app_id,
                message=text,
                link=f"http://{domain}/freeoffer/{token}",
                truth_malicious=True,
            )
            for k, (token, day, user, text) in enumerate(
                zip(draws[::3], draws[1::3], draws[2::3], texts)
            )
        )
        self._profile_post_serial = serial + count

    # ------------------------------------------------------------------
    # indirection sites and promotion wiring
    # ------------------------------------------------------------------

    def _create_sites(self) -> None:
        rng = self._rng
        for index in range(max(self.plan.n_sites, 0)):
            if rng.random() < self._params.aws_hosting_fraction:
                host = f"spamredir{int(rng.integers(1, 10**6))}.s3.amazonaws.com"
                self._services.hosting.assign("amazonaws.com", AWS_PROVIDER)
            else:
                domain = self.spam_domains[int(rng.integers(0, len(self.spam_domains)))]
                host = f"go.{domain}"
            url = f"http://{host}/r/{self.plan.campaign_id}-{index}"
            site = IndirectionSite(
                url=url,
                target_app_ids=[self.apps[0].app_id],  # seed; replaced by wiring
                hosting_provider=self._services.hosting.provider_of_domain(host),
            )
            site.target_app_ids.clear()
            self.sites.append(site)

    def _wire_promotion(self) -> None:
        """Connect promoter/dual pods to promotable pods.

        Dual pods also target their own pod, reproducing the observed
        intra-clone mutual promotion ('The App' promoting 'The App').
        """
        rng = self._rng
        promotable = [p for p in self.pods if p.promotable]
        if not promotable:
            return
        for pod in self.pods:
            if not pod.promotes:
                continue
            k = 1 + int(rng.poisson(2.0))
            candidates = [p for p in promotable if p is not pod]
            chosen: list[Pod] = []
            if candidates:
                take = min(k, len(candidates))
                indices = rng.choice(len(candidates), size=take, replace=False)
                chosen = [candidates[i] for i in indices]
            if pod.role == "dual":
                chosen.append(pod)
            pod.target_pods = chosen
            target_ids = [
                app.app_id
                for target in chosen
                for app in target.apps
            ]
            if not target_ids:
                continue
            # Pods mix mechanisms: most advertise an indirection site,
            # and a subset additionally (or instead) posts direct links.
            use_site = bool(self.sites) and (
                rng.random() >= self._params.direct_promotion_fraction
            )
            use_direct = not use_site or rng.random() < 0.5
            if use_site:
                site = self.sites[int(rng.integers(0, len(self.sites)))]
                existing = set(site.target_app_ids)
                site.target_app_ids.extend(
                    t for t in target_ids if t not in existing
                )
                pod.site = site
                shortener = self._services.shortener_for(
                    rng, self._params.bitly_share
                )
                pod.site_short_url = shortener.shorten(site.url, reuse=False)
            if use_direct:
                cap = min(len(target_ids), 50)
                indices = rng.choice(len(target_ids), size=cap, replace=False)
                pod.direct_targets = [target_ids[i] for i in indices]
        # Register only sites that ended up with targets.
        for site in self.sites:
            if site.target_app_ids:
                self._services.redirector.register(site)
        self.sites = [s for s in self.sites if s.target_app_ids]

    def _prepare_loud_urls(self) -> None:
        """Mint the campaign's shared lure URLs and blacklist some.

        Each lure has a raw landing URL and, usually, a shortened alias
        — Fig 3 counts only the shortened ones, and only ~60% of
        malicious apps posted any (3,805 of 6,273).
        """
        rng = self._rng
        n_urls = int(rng.integers(2, 6))
        for index in range(n_urls):
            domain = self.spam_domains[int(rng.integers(0, len(self.spam_domains)))]
            landing = f"http://{domain}/survey/{self.plan.campaign_id}-{index}"
            shortener = self._services.shortener_for(rng, self._params.bitly_share)
            short = shortener.shorten(landing)
            self.loud_lure_urls.append((landing, short))
            if rng.random() < self._params.blacklist_hit_rate:
                self._services.blacklist.add_url(
                    landing, day=int(rng.integers(20, 200))
                )
                self._services.blacklist.add_url(
                    short, day=int(rng.integers(20, 200))
                )

    # ------------------------------------------------------------------
    # posting
    # ------------------------------------------------------------------

    def post_weights(self) -> np.ndarray:
        shape = self._params.post_volume_pareto_shape
        weights = self._rng.pareto(shape, size=len(self.apps)) + 1.0
        return weights * self._params.malicious_post_volume_scale

    def emit_posts(self, app: FacebookApp, n_posts: int, horizon_days: int) -> None:
        rng = self._rng
        pod = self._pod_of[app.app_id]
        loud = app.app_id in self.loud_app_ids
        external_ratio = self._external_ratio[app.app_id]
        days = rng.integers(
            min(app.created_day, horizon_days - 1), horizon_days, size=n_posts
        )
        can_promote = (
            pod.promotes
            and (pod.site is not None or pod.direct_targets)
            and app.app_id not in self.professional_app_ids
        )
        for day in days:
            if loud:
                message, link, likes, comments = self._loud_post(
                    app, pod, external_ratio, can_promote
                )
            elif can_promote and rng.random() < 0.6:
                message, link, likes, comments = self._stealth_promotion_post(
                    app, pod
                )
            else:
                message, link, likes, comments = self._stealth_lure_post(
                    app, external_ratio
                )
            self._services.post_log.new_post(
                day=int(day),
                user_id=int(rng.integers(0, self._services.n_users)),
                app_id=app.app_id,
                app_name=app.name,
                message=message,
                link=link,
                likes=likes,
                comments=comments,
                truth_malicious=True,
            )

    def _loud_post(
        self, app: FacebookApp, pod: Pod, external_ratio: float, can_promote: bool
    ) -> tuple[str, str, int, int]:
        """A post by a loud (MyPageKeeper-visible) campaign app.

        Loud campaigns spam aggressively: every post carries a spam
        lure text and a link — an *external* survey-scam URL with
        probability ``external_ratio``, otherwise an *internal*
        facebook.com link (promoting a sibling app, or the app itself).
        This is why Fig 16 shows flagged-post ratios near 1 even for
        apps whose external-link ratio (Fig 12) is low.
        """
        rng = self._rng
        likes, comments = self._services.messages.spam_engagement()
        message = self._services.messages.spam_message(self._template)
        if rng.random() < external_ratio:
            landing, short = self.loud_lure_urls[
                int(rng.integers(0, len(self.loud_lure_urls)))
            ]
            link = short if self._uses_bitly[app.app_id] else landing
        elif can_promote:
            link = self._promotion_link(app, pod)
        else:
            link = app.install_url  # self-promotion spam
        return message, link, likes, comments

    def _promotion_link(self, app: FacebookApp, pod: Pod) -> str:
        """The pod's promotion mechanism: its site alias or a direct link."""
        rng = self._rng
        prefer_site = pod.site_short_url is not None and (
            not pod.direct_targets or rng.random() < 0.7
        )
        if prefer_site:
            if self._uses_bitly[app.app_id]:
                return pod.site_short_url
            return pod.site.url
        target = pod.direct_targets[int(rng.integers(0, len(pod.direct_targets)))]
        return f"https://www.facebook.com/apps/application.php?id={target}"

    def _stealth_promotion_post(
        self, app: FacebookApp, pod: Pod
    ) -> tuple[str, str, int, int]:
        """A stealthy promotion post (Sec 6.1).

        Masquerades as ordinary user enthusiasm — innocuous message,
        healthy engagement — which is why post-level detection misses
        it and app-level features are needed.
        """
        link = self._promotion_link(app, pod)
        likes, comments = self._services.messages.benign_engagement()
        return self._services.messages.benign_message(app.name), link, likes, comments

    def _stealth_lure_post(
        self, app: FacebookApp, external_ratio: float
    ) -> tuple[str, str | None, int, int]:
        """A stealthy survey-scam lure: fresh URLs, innocuous text."""
        rng = self._rng
        likes, comments = self._services.messages.spam_engagement()
        if rng.random() >= external_ratio:
            return (
                self._services.messages.benign_message(app.name),
                None,
                likes,
                comments,
            )
        self._stealth_serial += 1
        domain = self.spam_domains[int(rng.integers(0, len(self.spam_domains)))]
        landing = f"http://{domain}/offer/{app.app_id[-6:]}-{self._stealth_serial}"
        if self._uses_bitly[app.app_id] and rng.random() < 0.5:
            shortener = self._services.shortener_for(rng, self._params.bitly_share)
            landing = shortener.shorten(landing)
        return self._services.messages.benign_message(app.name), landing, likes, comments


# ----------------------------------------------------------------------
# drifting variants (Sec 7's adapting hackers)
# ----------------------------------------------------------------------


class DriftingCampaign(HackerCampaign):
    """A hacker organisation that adapts to a deployed detector.

    ``drift`` in [0, 1] is how far the organisation has adapted (0 =
    the 2012 behaviour FRAppE trained on, 1 = fully adapted).  The
    contract every subclass honours: **at drift = 0 the campaign is
    byte-identical to a plain** :class:`HackerCampaign` **with the same
    RNG stream** — every adaptation lives behind ``if self.drift > 0``
    and mutates the already built population, consuming RNG draws only
    after the base construction sequence finished.  That is what lets
    the pipeline's drift-off identity test hold.
    """

    archetype = "drifting"

    def __init__(
        self,
        plan: CampaignPlan,
        services: EcosystemServices,
        params: GenerationParams,
        rng: np.random.Generator,
        scale: float = 1.0,
        crawl_months: int = 3,
        drift: float = 0.0,
    ) -> None:
        super().__init__(plan, services, params, rng, scale, crawl_months)
        self.drift = float(min(max(drift, 0.0), 1.0))

    def build(self) -> list[FacebookApp]:
        apps = super().build()
        if self.drift > 0.0:
            self._apply_drift()
        return apps

    def _apply_drift(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def _campaign_app_ids(self) -> list[str]:
        """Non-professional member IDs in creation order (professional
        apps already mimic benign behaviour; drift adapts the rest)."""
        return [
            app.app_id
            for app in self.apps
            if app.app_id not in self.professional_app_ids
        ]


class StealthyLikeFarmCampaign(DriftingCampaign):
    """A like farm turning stealthy (Ikram et al., 1506.00506).

    With rising drift the farm mimics organic behaviour: loud apps go
    quiet (their keyword-dense lure posts stop, so MyPageKeeper loses
    its handle), external-link ratios collapse toward the benign level,
    engagement on lure posts is bought to look healthy, and overall
    posting volume drops toward organic rates.
    """

    archetype = "like_farm"

    def _apply_drift(self) -> None:
        rng = self._rng
        demoted = [
            app_id
            for app_id in sorted(self.loud_app_ids)
            if rng.random() < self.drift
        ]
        self.loud_app_ids.difference_update(demoted)
        for app_id in self._campaign_app_ids():
            fade = self.drift * float(rng.uniform(0.6, 1.0))
            self._external_ratio[app_id] *= 1.0 - fade

    def post_weights(self) -> np.ndarray:
        weights = super().post_weights()
        if self.drift > 0.0:
            weights = weights * (1.0 - 0.6 * self.drift)
        return weights

    def _stealth_lure_post(
        self, app: FacebookApp, external_ratio: float
    ) -> tuple[str, str | None, int, int]:
        message, link, likes, comments = super()._stealth_lure_post(
            app, external_ratio
        )
        if self.drift > 0.0 and self._rng.random() < self.drift:
            # Bought engagement: lure posts carry organic-looking
            # like/comment counts instead of the spam signature.
            likes, comments = self._services.messages.benign_engagement()
        return message, link, likes, comments


class FakeProfileRingCampaign(DriftingCampaign):
    """A coordinated fake-profile ring (Fire et al., 1303.3751).

    The ring rotates identities between epochs: pods abandon the reused
    scam names that made the paper's name-clustering forensics work and
    re-register under fresh benign-style names, and members migrate to
    honest install flows so the client-ID-mismatch tell fades.
    """

    archetype = "profile_ring"

    def _apply_drift(self) -> None:
        rng = self._rng
        fresh_names = self._services.names.benign_names(len(self.pods))
        for pod, fresh in zip(self.pods, fresh_names):
            if rng.random() >= self.drift:
                continue
            pod.name = fresh
            for app in pod.apps:
                if app.app_id in self.professional_app_ids:
                    continue
                app.name = fresh
        for app in self.apps:
            if not app.client_id_pool:
                continue
            if rng.random() < self.drift:
                app.client_id_pool = ()


class BenignMimicryCampaign(DriftingCampaign):
    """Scam apps camouflaged as legitimate ones.

    The campaign adopts the *benign generation laws* wholesale — the
    professional-app playbook of Sec 5.1's false negatives, applied to
    an increasing fraction of the fleet: filled-in summaries, the
    benign permission distribution, reputable (or facebook.com) front
    domains, and a populated profile page.
    """

    archetype = "mimicry"

    def _apply_drift(self) -> None:
        rng = self._rng
        params = self._params
        for app in self.apps:
            if app.app_id in self.professional_app_ids:
                continue
            if rng.random() >= self.drift:
                continue
            slug = (
                "".join(ch for ch in app.name.lower() if ch.isalnum())[:18]
                or "app"
            )
            app.description = f"{app.name} - play with your friends!"
            app.company = f"{slug.title()} Studio"
            app.category = "Games"
            app.permissions = draw_benign_permissions(rng, params)
            if rng.random() < params.benign_redirect_facebook:
                app.redirect_uri = f"https://apps.facebook.com/{slug}"
            else:
                front = f"{slug}{int(rng.integers(1, 50))}front.com"
                self._services.wot.seed_reputable(front)
                self._services.hosting.assign(front, "self-hosted")
                app.redirect_uri = f"https://www.{front}/canvas"
            if not app.profile_feed:
                self._add_benign_profile_posts(app, int(rng.integers(2, 8)))


#: archetype name -> drifting campaign class, in a stable order
DRIFTING_ARCHETYPES: dict[str, type[DriftingCampaign]] = {
    StealthyLikeFarmCampaign.archetype: StealthyLikeFarmCampaign,
    FakeProfileRingCampaign.archetype: FakeProfileRingCampaign,
    BenignMimicryCampaign.archetype: BenignMimicryCampaign,
}
