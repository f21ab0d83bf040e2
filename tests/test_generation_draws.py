"""Batched world generation replays the scalar loops draw for draw.

Each rewritten generation routine runs next to a test-local copy of the
scalar loop it replaced, on identically seeded generators.  Both must
produce equal outputs *and* leave every generator in the same
``bit_generator.state``: the batching is only allowed where a stream
sees nothing but bounded integers (see :func:`repro.rng.bounded_integers`).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ecosystem import names as names_module
from repro.ecosystem.benign import BenignPopulation
from repro.ecosystem.campaigns import CampaignPlan, HackerCampaign
from repro.ecosystem.messages import _CHATTER_TEMPLATES, MessageFactory
from repro.ecosystem.names import NameFactory
from repro.ecosystem.params import GenerationParams
from repro.ecosystem.services import EcosystemServices
from repro.ecosystem.simulation import _APPLESS_CHUNK, _emit_appless_posts
from repro.platform.apps import AppRegistry, FacebookApp
from repro.platform.posts import Post, PostLog
from repro.rng import RngRegistry, bounded_integers
from repro.urlinfra.blacklist import UrlBlacklist
from repro.urlinfra.hosting import HostingRegistry
from repro.urlinfra.redirector import RedirectorNetwork
from repro.urlinfra.shortener import Shortener
from repro.urlinfra.wot import WotService

N_USERS = 5000


def _state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state


def _services(rngs: RngRegistry) -> EcosystemServices:
    """Services on distinct named streams, as the simulation driver wires them."""
    return EcosystemServices(
        registry=AppRegistry(rngs.stream("registry")),
        post_log=PostLog(),
        wot=WotService(rngs.stream("wot")),
        hosting=HostingRegistry(),
        redirector=RedirectorNetwork(rngs.stream("redirector")),
        blacklist=UrlBlacklist(),
        shorteners={"bit.ly": Shortener(rngs.stream("bitly"), "bit.ly")},
        names=NameFactory(rngs.stream("names")),
        messages=MessageFactory(rngs.stream("messages")),
        n_users=N_USERS,
    )


def _app(name: str = "Happy Farm") -> FacebookApp:
    return FacebookApp(app_id="1000042", name=name, developer_id="dev:test")


def _states(rngs: RngRegistry) -> dict[str, dict]:
    return {name: _state(rng) for name, rng in sorted(rngs._streams.items())}


# -- the helper -------------------------------------------------------------

_bounds = st.one_of(
    st.tuples(st.integers(-50, 50), st.just(1)),  # width 1: no bits drawn
    st.tuples(st.integers(0, 10**6), st.integers(2, 600)),
    st.tuples(st.integers(0, 10**9), st.integers(2**32 - 5, 2**33)),  # > 2**32
    st.tuples(st.just(0), st.integers(2, 3 * 10**9)),
)


@settings(deadline=None, max_examples=150)
@given(seed=st.integers(0, 2**32), pairs=st.lists(_bounds, max_size=60))
def test_bounded_integers_replays_the_scalar_sequence(seed, pairs):
    lows = [low for low, _width in pairs]
    highs = [low + width for low, width in pairs]
    scalar = np.random.default_rng(seed)
    batched = np.random.default_rng(seed)
    # Leave an odd 32-bit half buffered, as a preceding draw would.
    scalar.integers(0, 7)
    batched.integers(0, 7)
    expected = [int(scalar.integers(lo, hi)) for lo, hi in zip(lows, highs)]
    assert bounded_integers(batched, lows, highs) == expected
    assert _state(batched) == _state(scalar)
    # And the stream continues identically afterwards.
    assert int(batched.integers(0, 2**40)) == int(scalar.integers(0, 2**40))


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 2**32), highs=st.lists(st.integers(1, 10**10), max_size=40))
def test_bounded_integers_with_one_low(seed, highs):
    scalar = np.random.default_rng(seed)
    batched = np.random.default_rng(seed)
    expected = [int(scalar.integers(0, hi)) for hi in highs]
    assert bounded_integers(batched, 0, highs) == expected
    assert _state(batched) == _state(scalar)


def test_bounded_integers_empty_input_draws_nothing():
    rng = np.random.default_rng(3)
    before = _state(rng)
    assert bounded_integers(rng, [], []) == []
    assert bounded_integers(rng, 0, []) == []
    assert _state(rng) == before


# -- references: the scalar loops the batched code replaced -----------------


def _ref_chatter_message(messages: MessageFactory) -> str:
    rng = messages._rng
    template = _CHATTER_TEMPLATES[int(rng.integers(0, len(_CHATTER_TEMPLATES)))]
    return template.format(n=int(rng.integers(1, 400)))


def _ref_fill_profile_feed(population: BenignPopulation, app: FacebookApp) -> None:
    self = population
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
    count = min(max(count, 1), 600)
    for _ in range(count):
        self._profile_post_serial += 1
        app.profile_feed.append(
            Post(
                post_id=-self._profile_post_serial,
                day=int(rng.integers(0, 270)),
                user_id=int(rng.integers(0, self._n_users)),
                app_id=app.app_id,
                message=self._messages.benign_message(app.name),
            )
        )


def _ref_emit_posts(
    population: BenignPopulation, app: FacebookApp, n_posts: int, horizon_days: int
) -> None:
    self = population
    rng = self._rng
    p = self._params
    if rng.random() < p.benign_zero_external:
        external_ratio = 0.0
    else:
        a, b = p.benign_external_ratio_beta
        external_ratio = float(rng.beta(a, b))
    internal_link_rate = float(rng.beta(2, 6))
    slug = "".join(ch for ch in app.name.lower() if ch.isalnum()) or "app"
    days = rng.integers(0, horizon_days, size=n_posts)
    for day in days:
        likes, comments = self._messages.benign_engagement()
        draw = rng.random()
        if draw < external_ratio:
            link = f"http://www.{slug}-news.com/update/{int(rng.integers(1, 50))}"
        elif draw < external_ratio + internal_link_rate:
            link = f"https://apps.facebook.com/{slug}?ref=post"
        else:
            link = None
        self._post_log.new_post(
            day=int(day),
            user_id=int(rng.integers(0, self._n_users)),
            app_id=app.app_id,
            app_name=app.name,
            message=self._messages.benign_message(app.name),
            link=link,
            likes=likes,
            comments=comments,
            truth_malicious=False,
        )


def _ref_benign_profile_posts(
    campaign: HackerCampaign, app: FacebookApp, count: int
) -> None:
    self = campaign
    rng = self._rng
    for _ in range(count):
        self._profile_post_serial += 1
        app.profile_feed.append(
            Post(
                post_id=-(10**9) - self._profile_post_serial,
                day=int(rng.integers(0, 270)),
                user_id=int(rng.integers(0, self._services.n_users)),
                app_id=app.app_id,
                message=self._services.messages.benign_message(app.name),
            )
        )


def _ref_scam_profile_feed(
    campaign: HackerCampaign, app: FacebookApp, domain: str
) -> None:
    self = campaign
    rng = self._rng
    count = min(
        1 + int(rng.poisson(self._params.malicious_profile_posts_mean)), 300
    )
    for _ in range(count):
        self._profile_post_serial += 1
        token = int(rng.integers(1, 100_000))
        app.profile_feed.append(
            Post(
                post_id=-(10**9) - self._profile_post_serial,
                day=int(rng.integers(0, 270)),
                user_id=int(rng.integers(0, self._services.n_users)),
                app_id=app.app_id,
                message=self._services.messages.spam_message(self._template),
                link=f"http://{domain}/freeoffer/{token}",
                truth_malicious=True,
            )
        )


def _ref_emit_appless_posts(params, rng, messages, post_log, n_users, campaigns,
                            budget, horizon_days) -> None:
    lure_pools = [
        [short for _landing, short in c.loud_lure_urls]
        for c in campaigns
        if c.loud_lure_urls
    ]
    for _ in range(budget):
        day = int(rng.integers(0, horizon_days))
        user_id = int(rng.integers(0, n_users))
        if lure_pools and rng.random() < params.appless_malicious_share:
            pool = lure_pools[int(rng.integers(0, len(lure_pools)))]
            link = pool[int(rng.integers(0, len(pool)))]
            likes = int(rng.poisson(0.8))
            post_log.new_post(
                day=day,
                user_id=user_id,
                app_id=None,
                message=messages.spam_message(messages.campaign_template()),
                link=link,
                likes=likes,
                comments=int(rng.poisson(0.3)),
                truth_malicious=True,
            )
            continue
        draw = rng.random()
        if draw < 0.70:
            link = None
        elif draw < 0.95:
            link = (
                f"http://blog{int(rng.integers(1, 2000))}.example-news.com/"
                f"story/{int(rng.integers(1, 100_000))}"
            )
        else:
            link = f"https://www.facebook.com/photo.php?fbid={int(rng.integers(10**9, 10**10))}"
        post_log.new_post(
            day=day,
            user_id=user_id,
            app_id=None,
            message=_ref_chatter_message(messages),
            link=link,
            likes=int(rng.poisson(6.0)),
            comments=int(rng.poisson(2.0)),
            truth_malicious=False,
        )


class _RefNames:
    """The scalar benign-name draw (a sorted copy per franchise draw)."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._benign_serial = 0
        self._used_benign_names: set[str] = set()

    def benign_names(self, n: int, shared_fraction: float) -> list[str]:
        names: list[str] = []
        for _ in range(n):
            if names and self._rng.random() < shared_fraction:
                names.append(names[int(self._rng.integers(0, len(names)))])
            else:
                names.append(self._fresh_benign_name())
        return names

    def _fresh_benign_name(self) -> str:
        first_pool = names_module._BENIGN_FIRST
        second_pool = names_module._BENIGN_SECOND
        rng = self._rng
        if self._used_benign_names and rng.random() < 0.15:
            parents = sorted(self._used_benign_names)
            parent = parents[int(rng.integers(0, len(parents)))]
            for suffix in (" Saga", " Deluxe", " Pro", " World", " Mania"):
                candidate = parent + suffix
                if candidate not in self._used_benign_names:
                    self._used_benign_names.add(candidate)
                    return candidate
        for _ in range(60):
            first = first_pool[int(rng.integers(0, len(first_pool)))]
            second = second_pool[int(rng.integers(0, len(second_pool)))]
            candidate = f"{first} {second}"
            if candidate not in self._used_benign_names:
                self._used_benign_names.add(candidate)
                return candidate
        self._benign_serial += 1
        return f"{first} {second} {self._benign_serial}"


# -- differential tests -------------------------------------------------------


def _population(seed: int, params: GenerationParams | None = None):
    rngs = RngRegistry(seed)
    services = _services(rngs)
    population = BenignPopulation(
        services, params or GenerationParams(), rngs.stream("benign"), scale=0.05
    )
    return rngs, services, population


@pytest.mark.parametrize("seed", range(12))
def test_benign_profile_feed_matches_scalar_loop(seed):
    rngs_new, _, new = _population(seed)
    rngs_ref, _, ref = _population(seed)
    feeds = ([], [])
    for k in range(3):  # consecutive apps: the post serial carries over
        app_new, app_ref = _app(f"Happy Farm {k}"), _app(f"Happy Farm {k}")
        new._fill_profile_feed(app_new)
        _ref_fill_profile_feed(ref, app_ref)
        feeds[0].append(app_new.profile_feed)
        feeds[1].append(app_ref.profile_feed)
    assert feeds[0] == feeds[1]
    assert new._profile_post_serial == ref._profile_post_serial
    assert _states(rngs_new) == _states(rngs_ref)


@pytest.mark.parametrize("external", ["zero", "one"])
@pytest.mark.parametrize("seed", range(3))
def test_benign_emit_posts_matches_scalar_loop(seed, external):
    if external == "zero":
        params = GenerationParams(benign_zero_external=1.0)
    else:
        # Beta(1e6, 1e-6) puts the external-link ratio at ~1.
        params = GenerationParams(
            benign_zero_external=0.0, benign_external_ratio_beta=(1e6, 1e-6)
        )
    rngs_new, services_new, new = _population(seed, params)
    rngs_ref, services_ref, ref = _population(seed, params)
    for k, n_posts in enumerate((1, 57, 400)):
        name = f"Pixel Casino {k}" if k else "{app} {n} % {{"  # braces stay literal
        new.emit_posts(_app(name), n_posts, 270)
        _ref_emit_posts(ref, _app(name), n_posts, 270)
    posts = list(services_new.post_log)
    assert posts == list(services_ref.post_log)
    assert _states(rngs_new) == _states(rngs_ref)
    external_links = sum("-news.com/update/" in (p.link or "") for p in posts)
    if external == "zero":
        assert external_links == 0
    else:
        assert external_links >= 0.95 * len(posts)
    for app_id in {p.app_id for p in posts}:
        assert services_new.post_log.url_counts(app_id) == (
            services_ref.post_log.url_counts(app_id)
        )


def _campaign(seed: int) -> tuple[RngRegistry, HackerCampaign]:
    rngs = RngRegistry(seed)
    campaign = HackerCampaign(
        CampaignPlan(campaign_id="appnet-000", n_apps=5, colluding=False, n_sites=0),
        _services(rngs),
        GenerationParams(),
        rngs.stream("campaign-000"),
    )
    return rngs, campaign


@pytest.mark.parametrize("seed", range(6))
def test_professional_profile_feed_matches_scalar_loop(seed):
    rngs_new, new = _campaign(seed)
    rngs_ref, ref = _campaign(seed)
    for count in (3, 24, 0, 7):
        app_new, app_ref = _app("Lucky Bakery"), _app("Lucky Bakery")
        new._add_benign_profile_posts(app_new, count)
        _ref_benign_profile_posts(ref, app_ref, count)
        assert app_new.profile_feed == app_ref.profile_feed
    assert new._profile_post_serial == ref._profile_post_serial
    assert _states(rngs_new) == _states(rngs_ref)


@pytest.mark.parametrize("seed", range(6))
def test_scam_profile_feed_matches_scalar_loop(seed):
    rngs_new, new = _campaign(seed)
    rngs_ref, ref = _campaign(seed)
    for _ in range(3):
        app_new, app_ref = _app("Profile Watchers"), _app("Profile Watchers")
        new._fill_scam_profile_feed(app_new, "thenamemeans2.com")
        _ref_scam_profile_feed(ref, app_ref, "thenamemeans2.com")
        assert app_new.profile_feed
        assert app_new.profile_feed == app_ref.profile_feed
    assert _states(rngs_new) == _states(rngs_ref)


class _Lures:
    def __init__(self, urls: list[tuple[str, str]]) -> None:
        self.loud_lure_urls = urls


@pytest.mark.parametrize("with_lures", [False, True])
@pytest.mark.parametrize("seed", range(2))
def test_appless_posts_match_scalar_loop(seed, with_lures):
    params = GenerationParams(appless_malicious_share=0.2)
    campaigns = [_Lures([]), _Lures([("http://a.com/s/1", "http://bit.ly/a1")])]
    if with_lures:
        campaigns.append(
            _Lures([("http://b.com/s/1", "http://bit.ly/b1"),
                    ("http://b.com/s/2", "http://bit.ly/b2")])
        )
    else:
        campaigns = campaigns[:1]
    budget = _APPLESS_CHUNK + 37  # crosses a chunk boundary

    rngs_new = RngRegistry(seed)
    services = _services(rngs_new)
    _emit_appless_posts(
        params, rngs_new.stream("appless-posts"), services, campaigns, budget, 270
    )

    rngs_ref = RngRegistry(seed)
    reference = _services(rngs_ref)
    _ref_emit_appless_posts(
        params, rngs_ref.stream("appless-posts"), reference.messages,
        reference.post_log, N_USERS, campaigns, budget, 270,
    )
    posts = list(services.post_log)
    assert len(posts) == budget
    assert posts == list(reference.post_log)
    assert _states(rngs_new) == _states(rngs_ref)
    malicious = sum(p.truth_malicious for p in posts)
    assert (malicious > 0) == with_lures


@pytest.mark.parametrize("seed", range(3))
def test_benign_names_match_scalar_loop_through_exhaustion(seed):
    # 30 x 30 = 900 'First Second' pairs: 1,400 names force long
    # rejection runs and, once the pairs run out, the serial fallback.
    new = NameFactory(np.random.default_rng(seed))
    ref = _RefNames(np.random.default_rng(seed))
    got = new.benign_names(1400, shared_fraction=0.02)
    assert got == ref.benign_names(1400, shared_fraction=0.02)
    assert _state(new._rng) == _state(ref._rng)
    assert new._benign_serial == ref._benign_serial > 0
    # The stream continues identically, and the sorted parents stay in
    # step with the used-name set.
    assert new.benign_names(50, 0.5) == ref.benign_names(50, 0.5)
    assert new._sorted_benign_names == sorted(new._used_benign_names)
