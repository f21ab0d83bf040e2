"""Tests for the URL model, WOT, blacklist, redirector, and hosting."""

import pytest
from hypothesis import given, strategies as st

from repro.urlinfra.blacklist import UrlBlacklist
from repro.urlinfra.hosting import HostingRegistry
from repro.urlinfra.redirector import IndirectionSite, RedirectorNetwork
from repro.urlinfra.url import Url, domain_of, is_facebook_url, registered_domain
from repro.urlinfra.wot import WOT_UNKNOWN, WotService

_LABEL = st.text(alphabet="abcdefghij", min_size=1, max_size=8)


def _parsed_domain(raw):
    """``domain_of`` as defined: the full ``Url`` parse, ``""`` if it raises."""
    try:
        return Url.parse(raw).domain
    except ValueError:
        return ""


class TestUrl:
    def test_parse_roundtrip(self):
        raw = "https://www.facebook.com/apps/application.php?id=42"
        url = Url.parse(raw)
        assert url.host == "www.facebook.com"
        assert url.path == "/apps/application.php"
        assert url.params == {"id": "42"}
        assert str(url) == raw

    def test_relative_url_rejected(self):
        with pytest.raises(ValueError):
            Url.parse("/no/scheme")

    def test_with_params_merges(self):
        url = Url.parse("http://x.com/p?a=1").with_params(b="2")
        assert url.params == {"a": "1", "b": "2"}

    @given(sub=_LABEL, dom=_LABEL)
    def test_registered_domain_collapses_subdomains(self, sub, dom):
        assert registered_domain(f"{sub}.{dom}.com") == f"{dom}.com"

    def test_domain_of_invalid(self):
        assert domain_of("not a url") == ""

    @pytest.mark.parametrize(
        "raw",
        [
            "https://www.facebook.com/apps/application.php?id=42",
            "HTTP://WWW.FaceBook.COM/Path?Q=1",
            "http://example.com:8080/x",
            "https://a.b.c.spam-site.net/",
            "http://bit.ly/abc#frag",
            "http://EXAMPLE.com.",
            "ftp://files.example.org/f",
            "http://user:pw@host.example.com/",
            "http://[::1]:80/",
            "example.com/path",
            "//example.com/no-scheme",
            "www.facebook.com",
            "mailto:someone@example.com",
            "not a url",
            "",
            "http://",
            "http://[::1",
            "http://a.com/?a=1&a=2&&=x",
        ],
    )
    def test_domain_of_matches_url_parse(self, raw):
        assert domain_of(raw) == _parsed_domain(raw)

    @given(
        st.text(alphabet="abcAB.:/?#[]@-_ %1", max_size=30).map(
            lambda s: "http://" + s
        )
        | st.text(max_size=30)
    )
    def test_domain_of_matches_url_parse_on_random_strings(self, raw):
        assert domain_of(raw) == _parsed_domain(raw)

    def test_is_facebook_url(self):
        assert is_facebook_url("https://apps.facebook.com/farmville")
        assert is_facebook_url("http://www.facebook.com/p")
        assert not is_facebook_url("http://bit.ly/abc")
        assert not is_facebook_url("http://notfacebook.com.evil.com/x")


class TestWot:
    def test_unknown_domain(self, rng):
        assert WotService(rng).score_domain("fresh-spam.com") == WOT_UNKNOWN

    def test_facebook_is_trusted(self, rng):
        wot = WotService(rng)
        assert wot.score_url("https://apps.facebook.com/x") > 90

    def test_set_and_forget(self, rng):
        wot = WotService(rng)
        wot.set_score("example.com", 50.0)
        assert wot.score_domain("www.example.com") == 50.0
        wot.forget("example.com")
        assert wot.score_domain("example.com") == WOT_UNKNOWN

    def test_score_range_enforced(self, rng):
        with pytest.raises(ValueError):
            WotService(rng).set_score("x.com", 101.0)

    def test_seed_reputable_range(self, rng):
        wot = WotService(rng)
        for index in range(20):
            wot.seed_reputable(f"company{index}.com")
            assert 70.0 <= wot.score_domain(f"company{index}.com") <= 98.0

    def test_seed_spammy_distribution(self, rng):
        wot = WotService(rng)
        scores = []
        for index in range(300):
            domain = f"spam{index}.com"
            wot.seed_spammy(domain, coverage_probability=0.2)
            scores.append(wot.score_domain(domain))
        unknown = sum(1 for s in scores if s == WOT_UNKNOWN) / len(scores)
        assert 0.7 < unknown < 0.9  # ~80% unknown (Fig 8)
        assert all(s <= 5.0 for s in scores if s != WOT_UNKNOWN)


class TestBlacklist:
    def test_exact_url_match(self):
        blacklist = UrlBlacklist()
        blacklist.add_url("http://evil.com/a")
        assert blacklist.contains("http://evil.com/a")
        assert not blacklist.contains("http://evil.com/b")

    def test_domain_match(self):
        blacklist = UrlBlacklist()
        blacklist.add_domain("evil.com")
        assert blacklist.contains("http://www.evil.com/anything")
        assert not blacklist.contains("http://good.com/x")

    def test_time_delay(self):
        blacklist = UrlBlacklist()
        blacklist.add_url("http://evil.com/a", day=100)
        assert not blacklist.contains("http://evil.com/a", day=99)
        assert blacklist.contains("http://evil.com/a", day=100)
        assert blacklist.contains("http://evil.com/a", day=None)

    def test_earliest_listing_wins(self):
        blacklist = UrlBlacklist()
        blacklist.add_url("http://evil.com/a", day=100)
        blacklist.add_url("http://evil.com/a", day=50)
        assert blacklist.contains("http://evil.com/a", day=60)

    def test_dunder_contains(self):
        blacklist = UrlBlacklist()
        blacklist.add_url("http://evil.com/a", day=10)
        assert "http://evil.com/a" in blacklist
        assert len(blacklist) == 1


class TestRedirector:
    def _site(self, targets):
        return IndirectionSite(url="http://go.spam.com/r/1", target_app_ids=targets)

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError):
            IndirectionSite(url="http://x.com", target_app_ids=[])

    def test_probe_discovers_all_targets(self, rng):
        network = RedirectorNetwork(rng)
        site = self._site(["a", "b", "c"])
        network.register(site)
        assert network.probe(site.url, 200) == {"a", "b", "c"}

    def test_follow_returns_a_target(self, rng):
        network = RedirectorNetwork(rng)
        site = self._site(["a", "b"])
        network.register(site)
        assert network.follow(site.url) in {"a", "b"}

    def test_double_registration_rejected(self, rng):
        network = RedirectorNetwork(rng)
        site = self._site(["a"])
        network.register(site)
        with pytest.raises(ValueError):
            network.register(site)

    def test_is_indirection(self, rng):
        network = RedirectorNetwork(rng)
        network.register(self._site(["a"]))
        assert network.is_indirection("http://go.spam.com/r/1")
        assert not network.is_indirection("http://elsewhere.com")


class TestHosting:
    def test_assign_and_lookup(self):
        hosting = HostingRegistry()
        hosting.assign("spam.com", "amazonaws.com")
        assert hosting.provider_of_domain("www.spam.com") == "amazonaws.com"
        assert hosting.provider_of_url("http://spam.com/x") == "amazonaws.com"

    def test_unknown_provider(self):
        assert HostingRegistry().provider_of_domain("x.com") == "unknown"

    def test_histogram(self):
        hosting = HostingRegistry()
        hosting.assign("a.com", "aws")
        hosting.assign("b.com", "aws")
        hosting.assign("c.com", "other")
        histogram = hosting.provider_histogram(
            ["http://a.com/1", "http://b.com/2", "http://c.com/3", "http://a.com/4"]
        )
        assert histogram["aws"] == 3
        assert histogram["other"] == 1
