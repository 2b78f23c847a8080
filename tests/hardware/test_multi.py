"""Multi-lane (coarse-grained parallel) pipeline tests."""

from __future__ import annotations

import pytest

from repro.errors import HardwareConfigError, SimulationError
from repro.hardware import HardwareConfig
from repro.hardware.multi import MultiLanePipeline
from repro.partition import profile_table
from repro.workloads import band_matrix, random_matrix

CONFIG = HardwareConfig(partition_size=16)


def profiles_for(density: float = 0.2, n: int = 256, seed: int = 0):
    return profile_table(random_matrix(n, density, seed=seed), 16)


class TestDispatch:
    def test_every_partition_assigned_once(self):
        profiles = profiles_for()
        result = MultiLanePipeline(CONFIG, "csr", 4).run(profiles)
        seen = [
            index
            for assignment in result.assignments
            for index in assignment.partition_indices
        ]
        assert sorted(seen) == list(range(len(profiles)))

    def test_single_lane_matches_totals(self):
        profiles = profiles_for()
        result = MultiLanePipeline(CONFIG, "coo", 1).run(profiles)
        assert result.n_lanes == 1
        assert len(result.assignments) == 1
        assert result.compute_makespan == result.assignments[0].compute_cycles

    def test_lanes_balanced(self):
        """LPT keeps the imbalance small on many similar partitions."""
        profiles = profiles_for(density=0.3)
        result = MultiLanePipeline(CONFIG, "csr", 4).run(profiles)
        assert result.load_imbalance < 1.2

    def test_empty_profiles(self):
        result = MultiLanePipeline(CONFIG, "csr", 4).run([])
        assert result.total_cycles == 0
        assert result.load_imbalance == 1.0

    def test_validation(self):
        with pytest.raises(HardwareConfigError):
            MultiLanePipeline(CONFIG, "csr", 0)
        wrong = profile_table(random_matrix(64, 0.1, seed=1), 8)
        with pytest.raises(SimulationError):
            MultiLanePipeline(CONFIG, "csr", 2).run(wrong)


class TestScaling:
    def test_compute_bound_format_scales(self):
        """CSC's decompressor is the bottleneck: lanes multiply it."""
        profiles = profiles_for(density=0.3)
        single = MultiLanePipeline(CONFIG, "csc", 1).run(profiles)
        quad = MultiLanePipeline(CONFIG, "csc", 4).run(profiles)
        assert quad.speedup_over(single) > 3.0

    def test_memory_bound_format_hits_the_wall(self):
        """Dense saturates the shared bus: extra lanes buy little."""
        profiles = profiles_for(density=0.3)
        single = MultiLanePipeline(CONFIG, "dense", 1).run(profiles)
        quad = MultiLanePipeline(CONFIG, "dense", 4).run(profiles)
        assert quad.speedup_over(single) < 1.6
        assert quad.bound == "memory"

    def test_speedup_monotone_until_saturation(self):
        profiles = profiles_for(density=0.3)
        totals = [
            MultiLanePipeline(CONFIG, "csr", lanes).run(profiles)
            .total_cycles
            for lanes in (1, 2, 4, 8)
        ]
        assert all(a >= b for a, b in zip(totals, totals[1:]))

    def test_bound_flips_with_lanes(self):
        """Adding lanes turns a compute-bound format memory-bound."""
        profiles = profiles_for(density=0.3)
        one = MultiLanePipeline(CONFIG, "csc", 1).run(profiles)
        many = MultiLanePipeline(CONFIG, "csc", 64).run(profiles)
        assert one.bound == "compute"
        assert many.bound == "memory"

    def test_total_never_below_memory_serialization(self):
        profiles = profiles_for()
        for name in ("dense", "csr", "csc", "coo"):
            result = MultiLanePipeline(CONFIG, name, 8).run(profiles)
            assert result.total_cycles >= result.total_memory_cycles


class TestResources:
    def test_resources_scale_linearly_with_lanes(self):
        single = MultiLanePipeline(CONFIG, "csr", 1).resources()
        quad = MultiLanePipeline(CONFIG, "csr", 4).resources()
        assert quad.bram_18k == 4 * single.bram_18k
        assert quad.ff == 4 * single.ff
        assert quad.lut == 4 * single.lut

    def test_device_capacity_limits_lanes(self):
        """The xq7z020 cannot hold many dense 32x32 lanes."""
        config = HardwareConfig(partition_size=32)
        quad = MultiLanePipeline(config, "dense", 8).resources()
        assert not quad.fits_device
