"""Tests for MyPageKeeper: keywords, URL features, classifier, monitor."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mypagekeeper.classifier import (
    PostFeatures,
    UrlClassifier,
    _jaccard,
    _mean,
    _token_set,
    url_features,
)
from repro.mypagekeeper.keywords import contains_spam_keyword, spam_keyword_count
from repro.mypagekeeper.monitor import AppLabeler, MyPageKeeper
from repro.platform.posts import Post, PostLog
from repro.urlinfra.blacklist import UrlBlacklist


class TestKeywords:
    def test_paper_examples(self):
        assert spam_keyword_count("WOW I just got 5000 Facebook Credits for Free") >= 3
        assert spam_keyword_count("Hurry, exclusive deal!") >= 3

    def test_case_insensitive(self):
        assert contains_spam_keyword("FREE stuff") and contains_spam_keyword("free stuff")

    def test_benign_text(self):
        assert spam_keyword_count("I just reached level 23 in Happy Farm") == 0

    def test_substring_does_not_match(self):
        # 'freedom' contains 'free' but is not a keyword token
        assert spam_keyword_count("freedom of speech") == 0

    @given(st.text(max_size=80))
    def test_count_nonnegative(self, message):
        assert spam_keyword_count(message) >= 0


def _post(post_id, message, link=None, likes=0, comments=0, app="a"):
    return Post(
        post_id=post_id, day=0, user_id=0, app_id=app,
        message=message, link=link, likes=likes, comments=comments,
    )


_WORDS = (
    "free", "WOW", "credits", "hurry", "level", "farm", "my", "new", "iPad", "a",
)


def _numpy_url_features(posts):
    """``url_features`` as it was written with ``np.mean``: the oracle."""
    messages = [p.message for p in posts]
    densities = [
        spam_keyword_count(m) / max(len(m.split()), 1) for m in messages
    ]
    sample = messages[:6]
    if len(sample) < 2:
        similarity = 0.0
    else:
        token_sets = [_token_set(m) for m in sample]
        pairs = list(combinations(token_sets, 2))
        similarity = float(np.mean([_jaccard(a, b) for a, b in pairs]))
    return PostFeatures(
        spam_keyword_density=float(np.mean(densities)),
        message_similarity=similarity,
        mean_likes=float(np.mean([p.likes for p in posts])),
        mean_comments=float(np.mean([p.comments for p in posts])),
        log_post_count=float(np.log1p(len(posts))),
    )


class TestUrlFeatures:
    def test_single_post_has_zero_similarity(self):
        features = url_features([_post(0, "hello world")])
        assert features.message_similarity == 0.0
        assert features.log_post_count == pytest.approx(np.log1p(1))

    def test_identical_messages_have_similarity_one(self):
        posts = [_post(i, "WOW free credits now") for i in range(4)]
        assert url_features(posts).message_similarity == pytest.approx(1.0)

    def test_engagement_averaging(self):
        posts = [_post(0, "m", likes=2, comments=4), _post(1, "m", likes=6, comments=0)]
        features = url_features(posts)
        assert features.mean_likes == 4.0
        assert features.mean_comments == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            url_features([])

    @settings(deadline=None, max_examples=300)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(_WORDS), max_size=12),
                st.integers(0, 40),
                st.integers(0, 15),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_bit_identical_to_numpy_means(self, drawn):
        # 8+ posts (and 5+ sampled messages, i.e. 10+ Jaccard pairs) is
        # where numpy's pairwise summation stops adding left to right.
        posts = [
            _post(i, " ".join(words), likes=likes, comments=comments)
            for i, (words, likes, comments) in enumerate(drawn)
        ]
        new, old = url_features(posts), _numpy_url_features(posts)
        assert new.spam_keyword_density == old.spam_keyword_density
        assert new.message_similarity == old.message_similarity
        assert new.mean_likes == old.mean_likes
        assert new.mean_comments == old.mean_comments
        assert new.log_post_count == old.log_post_count
        assert new == old

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=1100,
        )
    )
    def test_mean_replays_numpy_pairwise_summation(self, values):
        # Long lists cover the 8-accumulator blocks and the recursive
        # split above 128 values that big URL groups reach.
        assert _mean(values) == float(np.mean(values))


class TestUrlClassifier:
    @pytest.fixture(scope="class")
    def classifier(self):
        return UrlClassifier(UrlBlacklist(), rng=np.random.default_rng(0))

    def test_spam_campaign_flagged(self, classifier):
        posts = [
            _post(i, f"WOW I just got {n} Facebook Credits for Free", likes=0)
            for i, n in enumerate((100, 200, 500, 900, 5000))
        ]
        assert classifier.classify_url("http://spam.com/a", posts)

    def test_benign_single_post_passes(self, classifier):
        posts = [_post(0, "I just reached level 23 in Happy Farm", likes=9, comments=3)]
        assert not classifier.classify_url("http://apps.facebook.com/happyfarm", posts)

    def test_benign_campaign_passes(self, classifier):
        posts = [
            _post(i, f"I scored {i * 37} points playing Happy Farm", likes=8, comments=2)
            for i in range(30)
        ]
        assert not classifier.classify_url("https://apps.facebook.com/hf", posts)

    def test_blacklist_overrides_features(self, classifier):
        classifier.blacklist.add_url("http://evil.com/x", day=0)
        posts = [_post(0, "totally innocuous text", likes=10)]
        assert classifier.classify_url("http://evil.com/x", posts, day=5)
        # ... but not before the listing day
        assert not classifier.classify_url("http://evil.com/x", posts, day=-1)

    def test_classify_many_matches_single(self, classifier):
        spam = [_post(i, "Free iPad hurry, exclusive prize!", likes=0) for i in range(5)]
        ham = [_post(9, "level up in Happy Farm", likes=7, comments=3)]
        batch = classifier.classify_many(
            {"http://spam.com/b": spam, "http://apps.facebook.com/hf": ham}
        )
        assert ("http://spam.com/b" in batch) == classifier.classify_url(
            "http://spam.com/b", spam
        )
        assert ("http://apps.facebook.com/hf" in batch) == classifier.classify_url(
            "http://apps.facebook.com/hf", ham
        )


class TestMonitorAndLabeler:
    def _tiny_world(self):
        log = PostLog()
        # A loud malicious app posting one shared spam URL.
        for index in range(5):
            log.new_post(
                day=index, user_id=index, app_id="evil", app_name="Scam",
                message="WOW free credits, hurry, exclusive prize",
                link="http://spam.com/lure", likes=0, comments=0,
                truth_malicious=True,
            )
        # A benign app with varied posts and no external links.
        for index in range(5):
            log.new_post(
                day=index, user_id=index, app_id="good", app_name="Happy Farm",
                message=f"I just reached level {index * 17} in Happy Farm",
                likes=8, comments=3,
            )
        # A post with no application field (manual post).
        log.new_post(day=9, user_id=1, app_id=None, message="sunny day")
        return log

    def test_scan_flags_the_campaign_only(self, rng):
        log = self._tiny_world()
        report = MyPageKeeper(UrlClassifier(rng=rng), log).scan()
        assert report.posts_scanned == 11
        assert "http://spam.com/lure" in report.flagged_urls
        assert report.flagged_count("evil") == 5
        assert report.flagged_count("good") == 0
        labeler = AppLabeler(report)
        assert labeler.malicious_app_ids() == {"evil"}
        assert labeler.observed_app_ids() == {"evil", "good"}

    def test_scan_day_cutoff(self, rng):
        log = self._tiny_world()
        report = MyPageKeeper(UrlClassifier(rng=rng), log).scan(day=2)
        assert report.posts_scanned == 6  # three evil + three good posts

    def test_malicious_post_ratio(self, rng):
        log = self._tiny_world()
        report = MyPageKeeper(UrlClassifier(rng=rng), log).scan()
        assert report.malicious_post_ratio("evil") == 1.0
        assert report.malicious_post_ratio("good") == 0.0

    def test_flagged_by_apps_fraction(self, rng):
        log = self._tiny_world()
        report = MyPageKeeper(UrlClassifier(rng=rng), log).scan()
        assert report.flagged_by_apps_fraction == 1.0
