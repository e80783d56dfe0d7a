"""Unit tests for the alpha-beta network cost model."""

import ast
import math
from pathlib import Path

import pytest

import repro
from repro.comm.network import DEFAULT_NETWORK, NetworkModel


@pytest.fixture
def net():
    return NetworkModel(alpha=1e-6, beta=1e-9, node_flops=1e9)


class TestValidation:
    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel(alpha=-1e-6)

    def test_zero_beta_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel(beta=0.0)

    def test_zero_flops_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel(node_flops=0.0)

    def test_negative_bytes_rejected(self, net):
        with pytest.raises(ValueError):
            net.transfer_time(-1)

    def test_negative_flops_rejected(self, net):
        with pytest.raises(ValueError):
            net.compute_time(-1.0)

    def test_invalid_rank_count_rejected(self, net):
        with pytest.raises(ValueError):
            net.allreduce_ring_time(100, 0)

    def test_block_count_mismatch_rejected(self, net):
        with pytest.raises(ValueError):
            net.allgatherv_ring_time([10.0, 10.0], 3)

    @pytest.mark.parametrize("field, value", [
        ("alpha", math.nan), ("alpha", math.inf), ("beta", math.inf),
        ("beta", math.nan), ("node_flops", math.nan),
        ("node_flops", math.inf)])
    def test_non_finite_parameter_rejected_naming_it(self, field, value):
        with pytest.raises(ValueError,
                           match=f"{field} must be finite, got {value}"):
            NetworkModel(**{field: value})


class TestPointToPoint:
    def test_transfer_time_formula(self, net):
        assert net.transfer_time(1000, n_messages=2) == pytest.approx(
            2 * 1e-6 + 1000 * 1e-9)

    def test_zero_bytes_still_pays_latency(self, net):
        assert net.transfer_time(0, n_messages=1) == pytest.approx(1e-6)

    def test_compute_time_formula(self, net):
        assert net.compute_time(2e9) == pytest.approx(2.0)


class TestAllreduce:
    def test_single_rank_is_free(self, net):
        assert net.allreduce_ring_time(1 << 20, 1) == 0.0
        assert net.allreduce_recursive_doubling_time(1 << 20, 1) == 0.0

    def test_ring_formula(self, net):
        # 2(p-1) steps, 2(p-1)/p of the buffer on the wire.
        p, nbytes = 4, 1024
        expected = 2 * 3 * 1e-6 + 2 * 3 / 4 * 1024 * 1e-9
        assert net.allreduce_ring_time(nbytes, p) == pytest.approx(expected)

    def test_recursive_doubling_formula(self, net):
        p, nbytes = 8, 1024
        expected = 3 * (1e-6 + 1024 * 1e-9)
        assert net.allreduce_recursive_doubling_time(nbytes, p) == \
            pytest.approx(expected)

    def test_ring_bandwidth_term_saturates_with_p(self, net):
        """The 2(p-1)/p volume factor approaches 2: large-p times converge."""
        big = NetworkModel(alpha=0.0, beta=1e-9)
        t64 = big.allreduce_ring_time(1 << 20, 64)
        t128 = big.allreduce_ring_time(1 << 20, 128)
        assert t128 / t64 < 1.02

    def test_recursive_doubling_beats_ring_for_small_messages(self, net):
        """Latency-bound regime: fewer rounds wins."""
        p = 16
        assert (net.allreduce_recursive_doubling_time(8, p)
                < net.allreduce_ring_time(8, p))

    def test_ring_beats_recursive_doubling_for_large_messages(self, net):
        p = 16
        nbytes = 100 << 20
        assert (net.allreduce_ring_time(nbytes, p)
                < net.allreduce_recursive_doubling_time(nbytes, p))


class TestAllgather:
    def test_single_rank_is_free(self, net):
        assert net.allgatherv_ring_time([123.0], 1) == 0.0
        assert net.allgatherv_bruck_time([456.0], 1) == 0.0

    def test_ring_formula_equal_blocks(self, net):
        p, block = 4, 1000.0
        expected = 3 * 1e-6 + 3 * 1000 * 1e-9
        assert net.allgatherv_ring_time([block] * p, p) == pytest.approx(expected)

    def test_variable_blocks_critical_path(self, net):
        """The busiest rank receives total minus its own (smallest) block."""
        blocks = [100.0, 200.0, 700.0]
        expected = 2 * 1e-6 + (1000 - 100) * 1e-9
        assert net.allgatherv_ring_time(blocks, 3) == pytest.approx(expected)

    def test_bruck_fewer_latency_steps(self, net):
        p = 16
        blocks = [10.0] * p
        ring = net.allgatherv_ring_time(blocks, p)
        bruck = net.allgatherv_bruck_time(blocks, p)
        assert bruck < ring  # 4 rounds vs 15 rounds of latency

    def test_total_volume_grows_with_p(self, net):
        """Unlike allreduce, allgather volume is linear in p (paper's pivot)."""
        block = 1 << 16
        times = [net.allgatherv_ring_time([float(block)] * p, p)
                 for p in (2, 4, 8, 16)]
        ratios = [b / a for a, b in zip(times, times[1:])]
        assert all(r > 1.8 for r in ratios)


class TestBroadcast:
    def test_single_rank_is_free(self, net):
        assert net.broadcast_time(1 << 20, 1) == 0.0

    def test_binomial_rounds(self, net):
        expected = math.ceil(math.log2(5)) * (1e-6 + 100 * 1e-9)
        assert net.broadcast_time(100, 5) == pytest.approx(expected)


def test_default_network_is_valid():
    assert DEFAULT_NETWORK.alpha > 0
    assert DEFAULT_NETWORK.transfer_time(1024) > 0


def test_no_duck_typing_on_networks_in_source():
    """One class prices collectives, so nothing probes a network's type
    with ``getattr``/``hasattr``."""
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("getattr", "hasattr")):
                target = ast.unparse(node.args[0])
                if "net" in target or path.name == "network.py":
                    offenders.append(f"{path.name}:{node.lineno} {target}")
    assert offenders == []
