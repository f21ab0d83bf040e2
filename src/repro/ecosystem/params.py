"""Generative parameters, each derived from a paper measurement.

This module is the contract between the paper and the simulation: every
knob cites the statistic it reproduces.  Knobs are plain dataclass
fields so ablation benchmarks can perturb them (e.g. "what if hackers
started filling in app descriptions?" — Sec 7's robustness discussion).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import PAPER

__all__ = ["GenerationParams"]


@dataclass
class GenerationParams:
    """All distribution parameters of the generative ecosystem."""

    # ------------------------------------------------------------------
    # Class balance (Sec 3): ~13% of observed apps are truly malicious;
    # MyPageKeeper's post-level view catches ~44% of them (6,350 of the
    # eventual 6,273 + 8,051 ~= 14.3K), FRAppE finds the rest later.
    # ------------------------------------------------------------------
    malicious_app_fraction: float = PAPER.malicious_app_fraction
    #: Detectability is correlated within a name pod (pod-mates share
    #: lure URLs): P(pod is loud) and the member-level conditionals.
    loud_pod_probability: float = 0.43
    loud_pod_member_probability: float = 1.0
    stealth_pod_member_probability: float = 0.0

    # ------------------------------------------------------------------
    # Summary completeness (Fig 5).
    # ------------------------------------------------------------------
    benign_has_category: float = PAPER.benign_has_category
    benign_has_company: float = PAPER.benign_has_company
    benign_has_description: float = PAPER.benign_has_description
    malicious_has_category: float = PAPER.malicious_has_category
    malicious_has_company: float = PAPER.malicious_has_company
    malicious_has_description: float = PAPER.malicious_has_description

    # ------------------------------------------------------------------
    # Permissions (Fig 6/7): 97% of malicious apps request exactly
    # publish_stream; benign permission counts follow a geometric tail
    # beyond the 62% single-permission mass (a handful request 10+).
    # The tail's parameter is fixed in benign.draw_benign_permissions.
    # ------------------------------------------------------------------
    malicious_single_permission: float = PAPER.malicious_single_permission_fraction
    benign_single_permission: float = PAPER.benign_single_permission_fraction

    # ------------------------------------------------------------------
    # Redirect URIs and WOT (Fig 8, Table 3): 80% of benign apps
    # redirect inside apps.facebook.com; malicious apps land on a small
    # set of spam domains, 80% of which WOT has never scored and the
    # rest score < 5.  Table 3's top-5 coverage (83%) is measured, not
    # set: it follows from the shared spam-domain pool.
    # ------------------------------------------------------------------
    benign_redirect_facebook: float = PAPER.benign_redirect_facebook_fraction
    malicious_wot_coverage: float = 0.20  # Fig 8: ~80% of malicious
    # redirect domains end up with no WOT score at the app level
    malicious_wot_max_score: float = 5.0

    # ------------------------------------------------------------------
    # Client-ID mismatch (Sec 4.1.4).
    # ------------------------------------------------------------------
    malicious_client_id_mismatch: float = PAPER.malicious_client_id_mismatch_fraction
    benign_client_id_mismatch: float = PAPER.benign_client_id_mismatch_fraction

    # ------------------------------------------------------------------
    # Profile feeds (Fig 9): 97% of malicious apps have empty profile
    # pages; the other 3% use them to advertise scam URLs.  Benign
    # profile pages accumulate posts log-normally (median ~a dozen).
    # ------------------------------------------------------------------
    malicious_empty_profile: float = PAPER.malicious_empty_profile_fraction
    benign_empty_profile: float = 0.08
    benign_profile_posts_lognorm_mean: float = 2.5  # exp(2.5) ~ 12 posts
    benign_profile_posts_lognorm_sigma: float = 1.2
    malicious_profile_posts_mean: float = 40.0  # when non-empty: scam ads

    # ------------------------------------------------------------------
    # Names (Fig 10/11): 87% of malicious apps share a name; mean
    # cluster ~5; ~8% of names back > 10 apps; the biggest name ('The
    # App') covers ~10% of malicious apps.  A small fraction typosquat
    # popular benign names.  Benign names are almost all unique.
    # ------------------------------------------------------------------
    malicious_shared_name: float = PAPER.malicious_shared_name_fraction
    malicious_mean_apps_per_name: float = PAPER.malicious_mean_apps_per_name
    malicious_typosquat_fraction: float = 0.01
    benign_shared_name: float = 0.02

    # ------------------------------------------------------------------
    # Posting behaviour (Fig 12): 80% of benign apps post no external
    # link; 40% of malicious apps average ~1 external link per post.
    # 92% of shortened URLs go through bit.ly.
    # ------------------------------------------------------------------
    benign_zero_external: float = PAPER.benign_zero_external_fraction
    benign_external_ratio_beta: tuple[float, float] = (1.2, 8.0)
    malicious_low_external: float = 0.40  # some campaigns use plain text lures
    bitly_share: float = PAPER.bitly_share_of_short_urls
    short_url_unresolvable: float = 0.09  # 503 of 5,700 failed to expand

    # ------------------------------------------------------------------
    # Post volumes: heavy-tailed (Zipf-like) per-app volumes; the top
    # malicious app made ~1,000 posts in the paper's window.
    # ------------------------------------------------------------------
    post_volume_pareto_shape: float = 1.3
    benign_post_volume_scale: float = 1.0
    malicious_post_volume_scale: float = 0.6
    #: share of wall-post volume produced by benign apps (popular games
    #: dominate the corpus; malicious apps are many but low-volume)
    benign_fraction_of_posts: float = 0.92
    #: Sec 2.2: 37% of monitored posts carry no application field
    #: (manual posts and social plugins); 27% of *malicious* posts are
    #: app-less too (users manually sharing scam links).
    appless_post_fraction: float = PAPER.posts_without_app_fraction
    appless_malicious_share: float = 0.03

    # ------------------------------------------------------------------
    # Clicks (Fig 3): 60% of malicious apps accumulate > 100K clicks on
    # their bit.ly links, 20% > 1M, top ~1.74M.  A log-normal with
    # median ~178K and sigma ~1.7 hits those quantiles
    # (P(X > 1e5) ~ .63, P(X > 1e6) ~ .15 at full scale).
    # ------------------------------------------------------------------
    clicks_lognorm_mean: float = 10.5  # per LINK: exp(10.5) ~ 36K
    clicks_lognorm_sigma: float = 2.1
    external_click_fraction: float = 0.10  # clicks from outside Facebook

    # ------------------------------------------------------------------
    # Monthly active users (Fig 4): 40% of malicious apps keep a median
    # MAU >= 1000, 60% peak >= 1000, top max 260K.  Log-normal medians
    # with month-to-month jitter.
    # ------------------------------------------------------------------
    malicious_mau_lognorm_mean: float = 6.2  # exp(6.2) ~ 490
    malicious_mau_lognorm_sigma: float = 1.9
    benign_mau_lognorm_mean: float = 8.5  # exp(8.5) ~ 5K
    benign_mau_lognorm_sigma: float = 2.0
    mau_month_jitter_sigma: float = 0.8

    # ------------------------------------------------------------------
    # AppNets (Sec 6.1): role split 25/58.8/16.2; the collusion graph
    # has 44 components whose top-5 sizes are ~ (3484, 770, 589, 296,
    # 247) at full scale.  Fig 14's clustering coefficients are not set
    # here: they follow from role-homogeneous pods (same-name clusters)
    # sharing their promotion targets (see ecosystem.campaigns).
    # ------------------------------------------------------------------
    promoter_fraction: float = PAPER.promoter_fraction
    promotee_fraction: float = PAPER.promotee_fraction
    dual_fraction: float = PAPER.dual_role_fraction
    #: fraction of malicious apps that collude at all (6,331 / 6,273+8,051)
    colluding_fraction: float = 0.44
    #: fraction of promotion done with direct app links vs indirection
    direct_promotion_fraction: float = 0.35
    aws_hosting_fraction: float = PAPER.indirection_on_aws_fraction

    # ------------------------------------------------------------------
    # Piggybacking (Sec 6.2, Fig 16, Table 9): hackers forge the
    # application field of ~77 popular apps (6,350 pre-whitelist minus
    # 6,273); those apps end up with a malicious-post ratio < 0.2.
    # ------------------------------------------------------------------
    piggybacked_popular_apps: int = 77
    piggyback_post_ratio: float = 0.025  # forged posts vs the app's own volume

    # ------------------------------------------------------------------
    # Moderation: survival fractions at the crawl days (see
    # repro.platform.moderation).  Malicious apps: ~51% alive at the
    # profile-feed crawl (3,227/6,273), ~40% at the summary crawl
    # (2,528/6,273).  Benign: ~97% alive at the summary crawl.
    # Permission crawls additionally fail on human-only redirect flows.
    # ------------------------------------------------------------------
    malicious_survival_at_summary_crawl: float = 0.40
    benign_survival_at_summary_crawl: float = 0.967
    #: P(install-URL redirect is crawlable | app alive)
    benign_inst_crawlable: float = 0.37
    malicious_inst_crawlable: float = 0.20

    # ------------------------------------------------------------------
    # Class overlap (Sec 5.1's error rates): a few hackers configure
    # their apps professionally (complete summaries, several
    # permissions, honest client IDs) — these are the classifier's
    # false negatives (FN ~ 4%).  Conversely a few legitimate hobbyist
    # apps are as bare as scam apps (no summary, one permission) — the
    # source of FRAppE Lite's residual false positives (~ 0.1-0.6%).
    # ------------------------------------------------------------------
    malicious_professional_fraction: float = 0.018
    benign_hobbyist_fraction: float = 0.02

    # ------------------------------------------------------------------
    # MyPageKeeper signal strength.  Lure texts come from
    # ecosystem.messages; only the blacklist's reach is a knob.
    # ------------------------------------------------------------------
    #: URLs of flaggable campaigns that also land on the blacklist
    blacklist_hit_rate: float = 0.55

    def role_fractions(self) -> tuple[float, float, float]:
        return (self.promoter_fraction, self.promotee_fraction, self.dual_fraction)
