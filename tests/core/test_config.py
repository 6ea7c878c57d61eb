"""Unit tests for SystemConfig geometry and validation."""

import pytest
from hypothesis import given, strategies as st

from repro.core.config import KB, SystemConfig


class TestValidation:
    def test_default_config_is_the_paper_base(self):
        config = SystemConfig()
        assert config.clusters == 4
        assert config.line_size == 16
        assert config.memory_latency == 100
        assert config.banks_per_processor == 4

    def test_rejects_zero_clusters(self):
        with pytest.raises(ValueError):
            SystemConfig(clusters=0)

    def test_rejects_zero_processors(self):
        with pytest.raises(ValueError):
            SystemConfig(processors_per_cluster=0)

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ValueError):
            SystemConfig(line_size=24)

    def test_rejects_non_power_of_two_scc(self):
        with pytest.raises(ValueError):
            SystemConfig(scc_size=3 * KB)

    def test_rejects_more_banks_than_lines(self):
        # 512 B SCC = 32 lines; 8 processors x 4 banks = 32 banks is fine,
        # but 16 processors x 4 = 64 banks is not.
        SystemConfig(scc_size=512, processors_per_cluster=8)
        with pytest.raises(ValueError):
            SystemConfig(scc_size=512, processors_per_cluster=16)

    def test_rejects_bus_occupancy_above_latency(self):
        with pytest.raises(ValueError):
            SystemConfig(memory_latency=50, bus_occupancy=51)

    def test_with_updates_revalidates(self):
        config = SystemConfig()
        with pytest.raises(ValueError):
            config.with_updates(line_size=10)

    def test_with_updates_returns_new_instance(self):
        config = SystemConfig()
        bigger = config.with_updates(scc_size=128 * KB)
        assert bigger.scc_size == 128 * KB
        assert config.scc_size == 64 * KB


class TestGeometry:
    def test_total_processors(self):
        config = SystemConfig(clusters=4, processors_per_cluster=8)
        assert config.total_processors == 32

    def test_num_banks_is_four_per_processor(self):
        config = SystemConfig(processors_per_cluster=2)
        assert config.num_banks == 8

    def test_scc_lines(self):
        config = SystemConfig(scc_size=4 * KB, line_size=16)
        assert config.scc_lines == 256

    def test_line_of_strips_offset(self):
        config = SystemConfig()
        assert config.line_of(0x0) == 0
        assert config.line_of(0xF) == 0
        assert config.line_of(0x10) == 1

    def test_banks_interleave_on_consecutive_lines(self):
        """Section 2.1: consecutive cache lines live in consecutive banks."""
        config = SystemConfig(processors_per_cluster=2)  # 8 banks
        banks = [config.bank_of(line * config.line_size)
                 for line in range(16)]
        assert banks == [0, 1, 2, 3, 4, 5, 6, 7] * 2

    def test_cluster_assignment_is_contiguous(self):
        config = SystemConfig(clusters=4, processors_per_cluster=2)
        assert [config.cluster_of(p) for p in range(8)] == \
            [0, 0, 1, 1, 2, 2, 3, 3]

    def test_port_assignment(self):
        config = SystemConfig(clusters=2, processors_per_cluster=4)
        assert [config.port_of(p) for p in range(8)] == \
            [0, 1, 2, 3, 0, 1, 2, 3]

    def test_cluster_of_rejects_bad_ids(self):
        config = SystemConfig(clusters=2, processors_per_cluster=2)
        with pytest.raises(ValueError):
            config.cluster_of(4)
        with pytest.raises(ValueError):
            config.cluster_of(-1)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_every_address_maps_to_a_valid_bank(self, addr):
        config = SystemConfig(processors_per_cluster=4)
        assert 0 <= config.bank_of(addr) < config.num_banks

    @given(procs=st.sampled_from([1, 2, 4, 8]),
           size_kb=st.sampled_from([4, 8, 16, 32, 64, 128, 256, 512]))
    def test_paper_design_space_is_constructible(self, procs, size_kb):
        config = SystemConfig.paper_parallel(procs, size_kb * KB)
        assert config.clusters == 4
        assert config.lines_per_bank * config.num_banks == config.scc_lines


class TestPresets:
    def test_multiprogramming_preset_is_single_cluster(self):
        config = SystemConfig.paper_multiprogramming(4, 64 * KB)
        assert config.clusters == 1
        assert config.model_icache

    def test_paper_ladder_unscaled(self):
        from repro.experiments.spec import PAPER_LADDER
        assert PAPER_LADDER == tuple(
            k * KB for k in (4, 8, 16, 32, 64, 128, 256, 512))

    def test_paper_ladder_scaled(self):
        """Both profiles simulate each paper rung at 1/8 of its size."""
        from repro.experiments.spec import PROFILES, SweepSpec
        for profile in ("quick", "paper"):
            configs = SweepSpec.multiprogramming(PROFILES[profile]).configs()
            assert configs[(1, 4 * KB)].scc_size == 512
            assert configs[(1, 512 * KB)].scc_size == 64 * KB
