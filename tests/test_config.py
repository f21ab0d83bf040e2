"""Tests for the paper-constant registry and scale configuration."""

import pytest
from hypothesis import given, strategies as st

from repro.config import PAPER, ScaleConfig


def test_paper_dataset_hierarchy_is_consistent():
    # Every derived dataset is a subset of D-Sample.
    assert PAPER.d_summary_benign <= PAPER.d_sample_benign
    assert PAPER.d_summary_malicious <= PAPER.d_sample_malicious
    assert PAPER.d_inst_benign <= PAPER.d_sample_benign
    assert PAPER.d_complete_benign <= PAPER.d_inst_benign
    assert PAPER.d_complete_malicious <= PAPER.d_inst_malicious


def test_paper_role_fractions_sum_to_one():
    total = PAPER.promoter_fraction + PAPER.promotee_fraction + PAPER.dual_role_fraction
    assert total == pytest.approx(1.0, abs=0.001)


def test_paper_role_counts_match_fractions():
    assert PAPER.promoter_apps + PAPER.promotee_apps + PAPER.dual_role_apps == (
        PAPER.colluding_apps
    )


def test_paper_validation_counts():
    assert PAPER.validated_total <= PAPER.flagged_apps
    assert PAPER.validated_total / PAPER.flagged_apps == pytest.approx(
        PAPER.validated_fraction, abs=0.005
    )


def test_scale_rejects_out_of_range():
    with pytest.raises(ValueError):
        ScaleConfig(scale=0.0)
    with pytest.raises(ValueError):
        ScaleConfig(scale=1.5)


def test_scale_full_is_paper_scale():
    config = ScaleConfig(scale=1.0)
    assert config.n_apps == PAPER.total_apps
    assert config.n_users == PAPER.total_users
    assert config.n_posts == PAPER.total_posts


@given(st.floats(min_value=0.005, max_value=1.0))
def test_scaled_counts_have_floors_and_monotonicity(scale):
    config = ScaleConfig(scale=scale)
    assert config.n_apps >= 200
    assert config.n_users >= 500
    assert config.n_posts >= 5_000
    assert config.count(100, minimum=7) >= 7


@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.01, max_value=0.99),
)
def test_structural_scales_slower_than_linear(small, big):
    if small > big:
        small, big = big, small
    cfg_small = ScaleConfig(scale=small)
    cfg_big = ScaleConfig(scale=big)
    assert cfg_small.structural(44) <= cfg_big.structural(44)
    # sqrt scaling keeps more structure than linear scaling would
    assert cfg_small.structural(44) >= max(2, int(44 * small))


def test_post_scale_is_quadratic_by_default():
    config = ScaleConfig(scale=0.1)
    assert config.post_scale == pytest.approx(0.01)

