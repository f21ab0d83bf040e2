"""Tests for the paper-constant registry and scale configuration."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.cli import main
from repro.config import PAPER, ConfigValueError, ScaleConfig, ServiceConfig

SRC = Path(__file__).resolve().parents[1] / "src"


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


@pytest.mark.parametrize("make", [
    lambda: ScaleConfig(fault_rate=1.5),
    lambda: ScaleConfig(retry_budget=0),
    lambda: ScaleConfig(blackouts=-1),
    lambda: ServiceConfig(batch_max=0),
    lambda: ServiceConfig(max_queue_depth=0),
    lambda: ServiceConfig(cache_ttl_s=0.0),
])
def test_range_checks_raise_the_typed_error(make):
    with pytest.raises(ConfigValueError):
        make()
    assert issubclass(ConfigValueError, ValueError)


#: out-of-range flags; the global ones go before the subcommand
BAD_FLAGS = [
    ["--fault-rate", "1.5", "simulate"],
    ["--scale", "0", "simulate"],
    ["--retry-budget", "0", "simulate"],
    ["--blackouts", "-1", "simulate"],
    ["--scale", "0.01", "serve", "--batch-max", "0"],
    ["--scale", "0.01", "serve", "--queue-depth", "0"],
]


@pytest.mark.parametrize("argv", BAD_FLAGS, ids=lambda argv: " ".join(argv))
def test_cli_out_of_range_flag_is_one_line_error(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("repro: error: "), lines


@pytest.mark.parametrize("flag", ["--batch-max", "--queue-depth"])
def test_cli_serve_checks_its_flags_before_building_a_world(
    monkeypatch, capsys, flag
):
    from repro.core import pipeline

    def refuse(*args, **kwargs):
        raise AssertionError("the pipeline ran before the flags were checked")

    monkeypatch.setattr(pipeline.FrappePipeline, "run", refuse)
    assert main(["--scale", "0.01", "serve", flag, "0"]) == 2
    assert capsys.readouterr().err.startswith("repro: error: ")


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

