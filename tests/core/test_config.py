"""GBooster configuration validation and pipeline-depth policy."""

import pytest

from repro.core.config import ASYNC_SWAP_DEPTH, GBoosterConfig


def test_defaults_are_valid():
    GBoosterConfig().validate()


def test_pipeline_depth_policy():
    assert GBoosterConfig().pipeline_depth() == ASYNC_SWAP_DEPTH == 3
    assert GBoosterConfig(async_swap=False).pipeline_depth() == 1


def test_invalid_transport_rejected():
    with pytest.raises(ValueError):
        GBoosterConfig(transport="quic").validate()


def test_invalid_policy_rejected():
    with pytest.raises(ValueError):
        GBoosterConfig(switching_policy="magic").validate()


def test_invalid_scheduler_rejected():
    with pytest.raises(ValueError):
        GBoosterConfig(scheduler="random").validate()


def test_invalid_cache_capacity_rejected():
    with pytest.raises(ValueError):
        GBoosterConfig(cache_capacity=0).validate()


@pytest.mark.parametrize("rto_ms", [0.0, -5.0, float("nan"), float("inf")])
def test_rto_must_be_finite_and_positive(rto_ms):
    with pytest.raises(ValueError, match="rto_ms"):
        GBoosterConfig(rto_ms=rto_ms).validate()
