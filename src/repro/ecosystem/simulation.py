"""The simulation driver: builds one complete observed world.

:func:`run_simulation` assembles the platform, the benign and malicious
populations, nine months of posting, the click/engagement traces, the
piggybacking operation, and Facebook-side moderation — and returns a
:class:`SimulatedWorld` from which the measurement pipeline (crawler,
MyPageKeeper, FRAppE) derives everything else, with no access to ground
truth.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.config import PAPER, ScaleConfig
from repro.crawler.socialbakers import SocialBakers
from repro.ecosystem.benign import BenignPopulation
from repro.ecosystem.campaigns import CampaignPlan, HackerCampaign, plan_campaign_sizes
from repro.ecosystem.messages import MessageFactory
from repro.ecosystem.names import NameFactory
from repro.ecosystem.params import GenerationParams
from repro.ecosystem.piggyback import PiggybackOperation
from repro.ecosystem.services import EcosystemServices
from repro.obs import get_observer
from repro.platform.apps import AppRegistry, FacebookApp
from repro.platform.graph_api import GraphApi
from repro.platform.install import InstallationService
from repro.platform.moderation import ModerationEngine, hazard_for_survival
from repro.platform.oauth import TokenService
from repro.platform.posts import PostLog
from repro.platform.users import UserBase
from repro.rng import RngRegistry
from repro.urlinfra.blacklist import UrlBlacklist
from repro.urlinfra.hosting import HostingRegistry
from repro.urlinfra.redirector import RedirectorNetwork
from repro.urlinfra.shortener import Shortener
from repro.urlinfra.wot import WotService

__all__ = ["CrawlSchedule", "SimulatedWorld", "run_simulation"]


@dataclass(frozen=True)
class CrawlSchedule:
    """Simulated calendar, in days since June 2011 (Sec 2.3).

    Nine months of observation, then the March–May 2012 crawls (profile
    feeds first, summaries next, install URLs last), and the October
    2012 re-check used to validate ground truth (Sec 5.3).
    """

    horizon_days: int = 270
    profilefeed_crawl_day: int = 285
    summary_crawl_day: int = 310
    inst_crawl_day: int = 340
    validation_day: int = 480
    crawl_months: int = 3


@dataclass
class SimulatedWorld:
    """The fully built world handed to the measurement pipeline."""

    config: ScaleConfig
    params: GenerationParams
    schedule: CrawlSchedule
    services: EcosystemServices
    users: UserBase
    tokens: TokenService
    installer: InstallationService
    graph_api: GraphApi
    moderation: ModerationEngine
    benign_population: BenignPopulation
    campaigns: list[HackerCampaign]
    piggyback: PiggybackOperation
    socialbakers: SocialBakers
    #: the piggybacked popular apps (whitelist candidates)
    popular_apps: list[FacebookApp] = field(default_factory=list)

    # -- convenience views -------------------------------------------------

    @property
    def registry(self) -> AppRegistry:
        return self.services.registry

    @property
    def post_log(self) -> PostLog:
        return self.services.post_log

    # -- ground truth (for scoring only; the pipeline never calls these) --

    def truth_malicious_ids(self) -> set[str]:
        return {a.app_id for a in self.registry.malicious()}

    def loud_app_ids(self) -> set[str]:
        ids: set[str] = set()
        for campaign in self.campaigns:
            ids |= campaign.loud_app_ids
        return ids

    def piggybacked_ids(self) -> set[str]:
        return {a.app_id for a in self.popular_apps}

    def colluding_truth_ids(self) -> set[str]:
        ids: set[str] = set()
        for campaign in self.campaigns:
            if campaign.plan.colluding:
                ids |= {a.app_id for a in campaign.apps}
        return ids


def run_simulation(
    config: ScaleConfig | None = None,
    params: GenerationParams | None = None,
    schedule: CrawlSchedule | None = None,
) -> SimulatedWorld:
    """Build a complete simulated world at the configured scale."""
    config = config or ScaleConfig()
    params = params or GenerationParams()
    schedule = schedule or CrawlSchedule()
    rngs = RngRegistry(config.master_seed)

    services = _build_services(config, rngs)
    log = services.post_log
    with _phase("populations", log):
        _seed_spam_domain_pool(config, params, services, rngs)
        users = UserBase(config.n_users, rngs.stream("users"))
        tokens = TokenService()
        installer = InstallationService(
            services.registry, tokens, users, rngs.stream("installs")
        )
        graph_api = GraphApi(services.registry, services.post_log)

        n_apps = config.n_apps
        n_malicious = max(20, int(round(n_apps * params.malicious_app_fraction)))
        n_benign = n_apps - n_malicious

        benign = BenignPopulation(
            services, params, rngs.stream("benign"), scale=config.scale
        )
        benign.build(n_benign, crawl_months=schedule.crawl_months)

    with _phase("campaigns", log):
        campaigns = _build_campaigns(
            config, params, services, rngs, n_malicious, schedule.crawl_months
        )

    _emit_all_posts(
        config, params, rngs, services, benign, campaigns, schedule.horizon_days
    )

    with _phase("piggyback", log):
        piggyback = PiggybackOperation(
            graph_api, services, params, rngs.stream("piggyback")
        )
        n_piggy = min(
            max(2, config.count(params.piggybacked_popular_apps)), len(benign.apps)
        )
        own_counts = {
            app.app_id: services.post_log.post_count(app.app_id)
            for app in benign.apps[:n_piggy]
        }
        popular = piggyback.run(
            benign.apps[:n_piggy], own_counts, schedule.horizon_days
        )

    with _phase("clicks", log):
        _assign_clicks(config, params, services, rngs)

    with _phase("moderation", log):
        moderation = _run_moderation(
            config, params, services, tokens, rngs, schedule
        )

    socialbakers = SocialBakers(rngs.stream("socialbakers"))
    socialbakers.vet_population(
        benign.apps, coverage=PAPER.d_sample_benign_vetted / PAPER.d_sample_benign
    )

    return SimulatedWorld(
        config=config,
        params=params,
        schedule=schedule,
        services=services,
        users=users,
        tokens=tokens,
        installer=installer,
        graph_api=graph_api,
        moderation=moderation,
        benign_population=benign,
        campaigns=campaigns,
        piggyback=piggyback,
        socialbakers=socialbakers,
        popular_apps=popular,
    )


def _build_services(config: ScaleConfig, rngs: RngRegistry) -> EcosystemServices:
    return EcosystemServices(
        registry=AppRegistry(rngs.stream("registry")),
        post_log=PostLog(),
        wot=WotService(rngs.stream("wot")),
        hosting=HostingRegistry(),
        redirector=RedirectorNetwork(rngs.stream("redirector")),
        blacklist=UrlBlacklist(),
        shorteners={
            "bit.ly": Shortener(rngs.stream("bitly"), "bit.ly"),
            "j.mp": Shortener(rngs.stream("jmp"), "j.mp"),
            "tinyurl.com": Shortener(rngs.stream("tinyurl"), "tinyurl.com"),
        },
        names=NameFactory(rngs.stream("names")),
        messages=MessageFactory(rngs.stream("messages")),
        n_users=config.n_users,
    )


def _seed_spam_domain_pool(
    config: ScaleConfig,
    params: GenerationParams,
    services: EcosystemServices,
    rngs: RngRegistry,
) -> None:
    """Mint the shared pool of bulletproof hosting domains (Table 3).

    Zipf-weighted sampling concentrates most campaigns on the head of
    the pool, reproducing the paper's finding that five domains host
    83% of the malicious apps in D-Inst.
    """
    rng = rngs.stream("spam-domains")
    stems = (
        "thenamemeans", "fastfreeupdates", "wikiworldmedia", "technicalyard",
        "freegiftzone", "profilecheck", "surveyrewards", "appprizes",
        "bestdailyoffers", "viralrewards", "checkyourfans", "megafreebies",
    )
    n_domains = config.structural(14, minimum=5)
    pool: list[str] = []
    while len(pool) < n_domains:
        stem = stems[int(rng.integers(0, len(stems)))]
        domain = f"{stem}{int(rng.integers(1, 10))}.com"
        if domain in pool:
            continue
        # Cover ~20% of the app weight with a (bad) WOT score; the
        # coverage pattern is fixed over the Zipf order so the app-level
        # unknown fraction tracks Fig 8 across scales.
        if len(pool) % 5 == 1:
            services.wot.set_score(
                domain, float(rng.uniform(0.0, params.malicious_wot_max_score))
            )
        else:
            services.wot.forget(domain)
        pool.append(domain)
        services.hosting.assign(domain, "bulletproof-hosting.net")
    weights = 1.0 / np.arange(1, len(pool) + 1) ** 1.6  # Zipf head
    services.spam_domain_pool = pool
    services.spam_domain_weights = weights / weights.sum()


def _build_campaigns(
    config: ScaleConfig,
    params: GenerationParams,
    services: EcosystemServices,
    rngs: RngRegistry,
    n_malicious: int,
    crawl_months: int,
) -> list[HackerCampaign]:
    rng = rngs.stream("campaign-planning")
    n_colluding = max(10, int(round(n_malicious * params.colluding_fraction)))
    n_colluding = min(n_colluding, n_malicious)
    n_standalone = n_malicious - n_colluding
    n_components = min(
        config.structural(PAPER.connected_components, minimum=3), n_colluding // 2
    )
    sizes = plan_campaign_sizes(n_colluding, n_components, rng)

    total_sites = config.structural(PAPER.indirection_websites, minimum=3)
    size_array = np.asarray(sizes, dtype=float)
    site_shares = np.maximum(
        1, np.round(total_sites * size_array / size_array.sum()).astype(int)
    )

    mega_pod = max(3, int(round(0.075 * n_malicious)))
    campaigns: list[HackerCampaign] = []
    for index, size in enumerate(sizes):
        plan = CampaignPlan(
            campaign_id=f"appnet-{index:03d}",
            n_apps=size,
            colluding=True,
            n_sites=int(site_shares[index]),
            mega_pod_size=mega_pod if index == 0 else 0,
        )
        campaign = HackerCampaign(
            plan,
            services,
            params,
            rngs.stream(f"campaign-{index:03d}"),
            scale=config.scale,
            crawl_months=crawl_months,
        )
        campaign.build()
        campaigns.append(campaign)

    # Standalone hacker crews: malicious apps that never collude.
    chunk = max(10, int(round(40 * max(config.scale * 20, 1.0))))
    index = len(sizes)
    while n_standalone > 0:
        size = min(chunk, n_standalone)
        plan = CampaignPlan(
            campaign_id=f"solo-{index:03d}",
            n_apps=size,
            colluding=False,
            n_sites=0,
        )
        campaign = HackerCampaign(
            plan,
            services,
            params,
            rngs.stream(f"campaign-{index:03d}"),
            scale=config.scale,
            crawl_months=crawl_months,
        )
        campaign.build()
        campaigns.append(campaign)
        n_standalone -= size
        index += 1
    return campaigns


@contextmanager
def _phase(name: str, post_log: PostLog) -> Iterator[None]:
    """Profile one simulation phase and count the wall posts it emits."""
    obs = get_observer()
    before = len(post_log)
    with obs.profile(f"simulate.{name}"):
        yield
    if obs.enabled and len(post_log) > before:
        obs.count("posts_emitted_total", len(post_log) - before, phase=name)


def _emit_all_posts(
    config: ScaleConfig,
    params: GenerationParams,
    rngs: RngRegistry,
    services: EcosystemServices,
    benign: BenignPopulation,
    campaigns: list[HackerCampaign],
    horizon_days: int,
) -> None:
    """Allocate the post budget over apps and emit every wall post.

    The budget covers *all* monitored posts; 37% carry no application
    field (manual posts and social plugins, Sec 2.2) and are emitted by
    :func:`_emit_appless_posts` after the app populations post.
    """
    rng = rngs.stream("post-allocation")
    log = services.post_log
    total_posts = config.n_posts
    app_posts = int(round(total_posts * (1.0 - params.appless_post_fraction)))
    benign_budget = int(round(app_posts * params.benign_fraction_of_posts))
    malicious_budget = app_posts - benign_budget

    with _phase("benign_posts", log):
        benign_counts = _allocate(rng, benign.post_weights(), benign_budget)
        for app, count in zip(benign.apps, benign_counts):
            benign.emit_posts(app, int(count), horizon_days)

    with _phase("campaign_posts", log):
        weights: list[np.ndarray] = []
        for campaign in campaigns:
            weights.append(campaign.post_weights())
        if weights:
            flat = np.concatenate(weights)
            counts = _allocate(rng, flat, malicious_budget)
            offset = 0
            for campaign, campaign_weights in zip(campaigns, weights):
                for app, count in zip(
                    campaign.apps, counts[offset : offset + len(campaign_weights)]
                ):
                    campaign.emit_posts(app, int(count), horizon_days)
                offset += len(campaign_weights)

    with _phase("appless_posts", log):
        _emit_appless_posts(
            params,
            rngs.stream("appless-posts"),
            services,
            campaigns,
            total_posts - app_posts,
            horizon_days,
        )


#: App-less posts buffered per batched messages-stream draw; bounded so
#: the buffer stays small next to the ~91K posts of a full-scale run.
_APPLESS_CHUNK = 4096


def _emit_appless_posts(
    params: GenerationParams,
    rng: np.random.Generator,
    services: EcosystemServices,
    campaigns: list[HackerCampaign],
    budget: int,
    horizon_days: int,
) -> None:
    """Manual/social-plugin posts: no application field (Sec 2.2).

    Most are ordinary chatter; a small share are users manually
    resharing scam links, which is why 27% of the paper's *malicious*
    posts have no associated application.

    *rng* mixes doubles, Poisson draws and integers, so its pass stays
    scalar and records each post's kind.  The messages stream sees only
    bounded integers here, so each chunk's texts are one batched draw.
    """
    lure_pools = [
        [short for _landing, short in c.loud_lure_urls]
        for c in campaigns
        if c.loud_lure_urls
    ]
    integers = rng.integers
    random = rng.random
    poisson = rng.poisson
    n_users = services.n_users
    malicious_share = params.appless_malicious_share
    rows: list[tuple[int, int, str | None, int, int, bool]] = []
    for index in range(budget):
        day = int(integers(0, horizon_days))
        user_id = int(integers(0, n_users))
        if lure_pools and random() < malicious_share:
            pool = lure_pools[int(integers(0, len(lure_pools)))]
            link = pool[int(integers(0, len(pool)))]
            likes = int(poisson(0.8))
            rows.append((day, user_id, link, likes, int(poisson(0.3)), True))
        else:
            draw = random()
            if draw < 0.70:
                link = None
            elif draw < 0.95:
                link = (
                    f"http://blog{int(integers(1, 2000))}.example-news.com/"
                    f"story/{int(integers(1, 100_000))}"
                )
            else:
                link = (
                    "https://www.facebook.com/photo.php?fbid="
                    f"{int(integers(10**9, 10**10))}"
                )
            likes = int(poisson(6.0))
            rows.append((day, user_id, link, likes, int(poisson(2.0)), False))
        if len(rows) == _APPLESS_CHUNK or index == budget - 1:
            _post_appless_rows(services, rows)
            rows = []


def _post_appless_rows(
    services: EcosystemServices,
    rows: list[tuple[int, int, str | None, int, int, bool]],
) -> None:
    texts = services.messages.appless_messages([row[5] for row in rows])
    new_post = services.post_log.new_post
    for (day, user_id, link, likes, comments, malicious), text in zip(rows, texts):
        new_post(day, user_id, None, None, text, link, likes, comments, malicious)


def _allocate(
    rng: np.random.Generator, weights: np.ndarray, budget: int
) -> np.ndarray:
    """Multinomial split of *budget* posts; every app gets at least one."""
    if len(weights) == 0:
        return np.zeros(0, dtype=int)
    probabilities = weights / weights.sum()
    counts = rng.multinomial(max(budget, len(weights)), probabilities)
    return np.maximum(counts, 1)


def _assign_clicks(
    config: ScaleConfig,
    params: GenerationParams,
    services: EcosystemServices,
    rngs: RngRegistry,
) -> None:
    """Drive clicks onto every posted short link (Fig 3).

    Clicks are assigned per *link* (the bit.ly counter is per link);
    a campaign's lure URLs are shared across its apps, so an app's
    Fig 3 total — the sum of the counters of the links it posted —
    includes clicks earned through its siblings, exactly as the paper's
    bit.ly queries do.
    """
    rng = rngs.stream("clicks")
    for shortener in services.shorteners.values():
        for link in shortener.all_links():
            base = rng.lognormal(
                params.clicks_lognorm_mean, params.clicks_lognorm_sigma
            )
            clicks = max(1, int(base * config.scale))
            link.clicks_facebook += clicks
            link.clicks_external += int(clicks * params.external_click_fraction)
            # Some short links become private/deleted (expand API fails).
            if rng.random() < params.short_url_unresolvable:
                link.resolvable = False


def _run_moderation(
    config: ScaleConfig,
    params: GenerationParams,
    services: EcosystemServices,
    tokens: TokenService,
    rngs: RngRegistry,
    schedule: CrawlSchedule,
) -> ModerationEngine:
    """Assign deletion days calibrated to the paper's survival rates."""
    malicious_mean_creation = 100  # campaign apps appear over days 0..200
    malicious_hazard = hazard_for_survival(
        params.malicious_survival_at_summary_crawl,
        schedule.summary_crawl_day - malicious_mean_creation,
    )
    benign_hazard = hazard_for_survival(
        params.benign_survival_at_summary_crawl, schedule.summary_crawl_day
    )
    moderation = ModerationEngine(
        services.registry,
        tokens,
        rngs.stream("moderation"),
        malicious_daily_hazard=malicious_hazard,
        benign_daily_hazard=benign_hazard,
    )
    moderation.assign_deletion_days(
        services.registry.all_apps(), horizon_days=schedule.validation_day + 120
    )
    return moderation
