"""Unit tests for configuration dataclasses."""

import pytest

from repro.common.config import ClusteringParams, WindowSpec
from repro.common.errors import ConfigurationError


class TestClusteringParams:
    def test_valid(self):
        params = ClusteringParams(eps=0.5, tau=4)
        assert params.eps == 0.5
        assert params.tau == 4

    @pytest.mark.parametrize("eps", [0.0, -1.0])
    def test_bad_eps(self, eps):
        with pytest.raises(ConfigurationError):
            ClusteringParams(eps=eps, tau=4)

    @pytest.mark.parametrize("tau", [0, -3])
    def test_bad_tau(self, tau):
        with pytest.raises(ConfigurationError):
            ClusteringParams(eps=1.0, tau=tau)

    def test_frozen(self):
        params = ClusteringParams(eps=1.0, tau=2)
        with pytest.raises(AttributeError):
            params.eps = 2.0

    def test_tau_of_one_allowed(self):
        assert ClusteringParams(eps=1.0, tau=1).tau == 1


class TestWindowSpec:
    def test_valid(self):
        spec = WindowSpec(window=100, stride=10)
        assert spec.strides_per_window == 10
        assert spec.stride_ratio == 0.1

    def test_stride_equal_to_window(self):
        spec = WindowSpec(window=50, stride=50)
        assert spec.strides_per_window == 1
        assert spec.stride_ratio == 1.0

    def test_stride_larger_than_window_rejected(self):
        with pytest.raises(ConfigurationError):
            WindowSpec(window=10, stride=11)

    @pytest.mark.parametrize("window,stride", [(0, 1), (-5, 1), (10, 0), (10, -2)])
    def test_non_positive_rejected(self, window, stride):
        with pytest.raises(ConfigurationError):
            WindowSpec(window=window, stride=stride)

    def test_non_divisible_strides_per_window_floors(self):
        assert WindowSpec(window=100, stride=30).strides_per_window == 3
