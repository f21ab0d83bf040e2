"""Tests for names, messages, the benign population, and campaigns.

Distribution assertions use wide tolerances: these check that the
generator is wired to the right knobs, not the exact paper values
(which the benchmark suite compares at a larger scale).
"""

import numpy as np
import pytest

from repro.ecosystem.benign import BenignPopulation, draw_benign_permissions
from repro.ecosystem.campaigns import (
    CampaignPlan,
    HackerCampaign,
    plan_campaign_sizes,
)
from repro.ecosystem.messages import MessageFactory
from repro.ecosystem.names import NameFactory, SCAM_BASE_NAMES
from repro.ecosystem.params import GenerationParams
from repro.ecosystem.services import EcosystemServices
from repro.mypagekeeper.keywords import contains_spam_keyword
from repro.platform.apps import AppRegistry
from repro.platform.posts import PostLog
from repro.urlinfra.blacklist import UrlBlacklist
from repro.urlinfra.hosting import HostingRegistry
from repro.urlinfra.redirector import RedirectorNetwork
from repro.urlinfra.shortener import Shortener
from repro.urlinfra.wot import WotService


def _services(rng) -> EcosystemServices:
    return EcosystemServices(
        registry=AppRegistry(rng),
        post_log=PostLog(),
        wot=WotService(rng),
        hosting=HostingRegistry(),
        redirector=RedirectorNetwork(rng),
        blacklist=UrlBlacklist(),
        shorteners={"bit.ly": Shortener(rng, "bit.ly")},
        names=NameFactory(rng),
        messages=MessageFactory(rng),
        n_users=1000,
    )


class TestNames:
    def test_benign_names_mostly_unique(self, rng):
        names = NameFactory(rng).benign_names(300, shared_fraction=0.02)
        assert len(set(names)) >= 0.9 * len(names)

    def test_scam_pool_distinct_within_campaign(self, rng):
        pool = NameFactory(rng).scam_name_pool(40)
        assert len(set(pool)) == 40

    def test_scam_pools_rarely_collide_across_campaigns(self, rng):
        factory = NameFactory(rng)
        a = set(factory.scam_name_pool(30))
        b = set(factory.scam_name_pool(30))
        overlap = a & b
        assert len(overlap) <= 10
        assert overlap <= set(SCAM_BASE_NAMES)  # only classics repeat

    def test_version_suffix_format(self, rng):
        factory = NameFactory(rng)
        from repro.text.typosquat import strip_version_suffix
        for _ in range(20):
            versioned = factory.with_version("Past Life")
            base, had = strip_version_suffix(versioned)
            assert had and base == "Past Life"

    def test_typosquat_is_similar_but_different(self, rng):
        from repro.text.reference import name_similarity
        factory = NameFactory(rng)
        for _ in range(20):
            squatted = factory.typosquat_of("FarmVille")
            assert squatted != "FarmVille"
            assert name_similarity(squatted, "FarmVille") >= 0.75


class TestMessages:
    def test_spam_messages_are_keyword_dense_and_similar(self, rng):
        factory = MessageFactory(rng)
        template = factory.campaign_template()
        messages = [factory.spam_message(template) for _ in range(10)]
        assert all(contains_spam_keyword(m) for m in messages)
        # Same campaign template: only the number varies.
        tokens = [frozenset(m.lower().split()) for m in messages]
        shared = set.intersection(*map(set, tokens))
        assert len(shared) >= 3

    def test_benign_messages_avoid_spam_vocabulary(self, rng):
        factory = MessageFactory(rng)
        hits = sum(
            contains_spam_keyword(factory.benign_message("Happy Farm"))
            for _ in range(100)
        )
        assert hits == 0

    def test_engagement_ordering(self, rng):
        factory = MessageFactory(rng)
        spam = np.mean([factory.spam_engagement()[0] for _ in range(200)])
        benign = np.mean([factory.benign_engagement()[0] for _ in range(200)])
        assert benign > spam * 2


class TestBenignPopulation:
    @pytest.fixture(scope="class")
    def population(self):
        rng = np.random.default_rng(3)
        services = _services(rng)
        population = BenignPopulation(services, GenerationParams(), rng, scale=0.05)
        population.build(400)
        return population

    def test_build_count_and_names(self, population):
        assert len(population.apps) == 400
        assert population.apps[0].name == "FarmVille"  # popular head first

    def test_summary_completeness_near_paper(self, population):
        apps = population.apps
        has_description = np.mean([a.has_description for a in apps])
        assert 0.85 <= has_description <= 0.99

    def test_single_permission_fraction(self, population):
        singles = np.mean([a.permission_count == 1 for a in population.apps])
        assert 0.5 <= singles <= 0.75

    def test_redirects_mostly_facebook(self, population):
        facebook = np.mean(
            ["apps.facebook.com" in a.redirect_uri for a in population.apps]
        )
        assert 0.7 <= facebook <= 0.9

    def test_client_ids_mostly_honest(self, population):
        mismatched = np.mean([bool(a.client_id_pool) for a in population.apps])
        assert mismatched <= 0.05

    def test_hobbyists_are_bare(self, population):
        for app_id in population.hobbyist_app_ids:
            app = next(a for a in population.apps if a.app_id == app_id)
            assert not app.has_description
            assert app.permission_count == 1
            assert not app.profile_feed

    def test_emitted_posts_carry_metadata(self, population):
        app = population.apps[5]
        population.emit_posts(app, 20, horizon_days=270)
        log = population._post_log
        assert log.post_count(app.app_id) == 20
        assert log.app_name(app.app_id) == app.name


def test_draw_benign_permissions_law(rng):
    params = GenerationParams()
    counts = [len(draw_benign_permissions(rng, params)) for _ in range(2000)]
    singles = np.mean([c == 1 for c in counts])
    assert abs(singles - params.benign_single_permission) < 0.05
    assert max(counts) <= 64


class TestCampaignPlanning:
    def test_sizes_sum_and_shape(self, rng):
        sizes = plan_campaign_sizes(6331, 44, rng)
        assert len(sizes) == 44
        assert abs(sum(sizes) - 6331) < 300
        assert sizes[0] > sizes[1] > sizes[4]
        assert sizes[0] / sum(sizes) == pytest.approx(0.55, abs=0.05)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            plan_campaign_sizes(3, 10, rng)


class TestHackerCampaign:
    @pytest.fixture(scope="class")
    def campaign(self):
        rng = np.random.default_rng(11)
        services = _services(rng)
        plan = CampaignPlan(
            campaign_id="c0", n_apps=120, colluding=True, n_sites=3,
            mega_pod_size=15,
        )
        campaign = HackerCampaign(plan, services, GenerationParams(), rng, scale=0.05)
        campaign.build()
        return campaign

    def test_app_count(self, campaign):
        assert len(campaign.apps) == 120

    def test_mega_pod_is_the_app(self, campaign):
        mega = campaign.pods[0]
        assert mega.name == "The App"
        assert len(mega.apps) == 15
        assert all(a.app_id in campaign.loud_app_ids or True for a in mega.apps)
        # the mega pod is forced loud: most members are loud
        loud = sum(1 for a in mega.apps if a.app_id in campaign.loud_app_ids)
        assert loud >= 10

    def test_single_permission_dominates(self, campaign):
        non_professional = [
            a for a in campaign.apps
            if a.app_id not in campaign.professional_app_ids
        ]
        singles = np.mean([a.permission_count == 1 for a in non_professional])
        assert singles >= 0.9

    def test_client_id_pools_point_to_pod_mates(self, campaign):
        for pod in campaign.pods:
            ids = {a.app_id for a in pod.apps}
            for app in pod.apps:
                assert set(app.client_id_pool) <= ids - {app.app_id}

    def test_sites_target_campaign_apps(self, campaign):
        ids = {a.app_id for a in campaign.apps}
        for site in campaign.sites:
            assert set(site.target_app_ids) <= ids

    def test_roles_partition_pods(self, campaign):
        for pod in campaign.pods:
            assert pod.role in ("promoter", "promotee", "dual")

    def test_promoting_pods_have_a_mechanism(self, campaign):
        promoting = [p for p in campaign.pods if p.promotes and p.target_pods]
        assert promoting, "expected at least one wired promoting pod"
        for pod in promoting:
            assert pod.site is not None or pod.direct_targets

    def test_posts_are_emitted_with_truth_labels(self, campaign):
        app = campaign.apps[0]
        campaign.emit_posts(app, 10, horizon_days=270)
        log = campaign._services.post_log
        posts = log.posts_of_app(app.app_id)
        assert len(posts) == 10
        assert all(p.truth_malicious for p in posts)

    def test_standalone_campaign_has_no_collusion(self):
        rng = np.random.default_rng(12)
        services = _services(rng)
        plan = CampaignPlan(
            campaign_id="solo", n_apps=30, colluding=False, n_sites=0
        )
        campaign = HackerCampaign(plan, services, GenerationParams(), rng)
        campaign.build()
        assert not campaign.sites
        assert all(p.role == "standalone" for p in campaign.pods)
