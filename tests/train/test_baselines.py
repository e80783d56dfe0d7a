"""Unit tests for the parameter-server and allreduce closed forms."""

import pytest

from repro.comm.network import NetworkModel
from repro.training.baselines import (
    allreduce_time_per_step,
    parameter_server_time_per_step,
)


class TestClosedFormTimes:
    def test_server_bottleneck_grows_with_workers(self):
        net = NetworkModel(alpha=1e-6, beta=1e-9)
        times = [parameter_server_time_per_step(w, 1, 500, 32, net)
                 for w in (2, 4, 8, 16)]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_more_servers_relieve_bottleneck(self):
        net = NetworkModel(alpha=1e-6, beta=1e-9)
        one = parameter_server_time_per_step(8, 1, 500, 32, net)
        four = parameter_server_time_per_step(8, 4, 500, 32, net)
        assert four < one

    def test_allreduce_scales_better_than_single_server_ps(self):
        """The paper's motivation for collectives over parameter servers."""
        net = NetworkModel(alpha=1e-6, beta=1e-9)
        p = 16
        rows, dim = 2000, 64
        ps = parameter_server_time_per_step(p, 1, rows, dim, net)
        ar = allreduce_time_per_step(p, rows, dim, net)
        assert ar < ps

    def test_invalid_args_rejected(self):
        net = NetworkModel()
        with pytest.raises(ValueError):
            parameter_server_time_per_step(0, 1, 10, 8, net)
