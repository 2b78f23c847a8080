"""Every consumer of per-partition stage costs reads the same numbers.

:meth:`StreamingPipeline.stage_costs` owns each partition's memory
stage (AXI transfer plus, with ``integrity_check``, the CRC stage) and
compute stage.  The multi-lane model, the partition-order scheduler
and the event trace must agree with :meth:`StreamingPipeline.run`
partition by partition, with the CRC stage on and off, and one lane
must total exactly what the streaming pipeline does.
"""

from __future__ import annotations

import pytest

from repro.core.dse import explore
from repro.hardware import HardwareConfig
from repro.hardware.decompressors import MODELED_FORMATS, VARIANT_FORMATS
from repro.hardware.multi import MultiLanePipeline
from repro.hardware.pipeline import StreamingPipeline
from repro.hardware.schedule import partition_costs
from repro.hardware.trace import trace_pipeline
from repro.partition import profile_table
from repro.workloads import random_matrix

ALL_MODELS = tuple(MODELED_FORMATS) + tuple(VARIANT_FORMATS)
MATRIX = random_matrix(128, 0.05, seed=1)


@pytest.mark.parametrize("integrity_check", (False, True))
@pytest.mark.parametrize("p", (8, 16, 32))
@pytest.mark.parametrize("format_name", ALL_MODELS)
def test_consumers_agree_with_run(format_name, p, integrity_check):
    config = HardwareConfig(
        partition_size=p, integrity_check=integrity_check
    )
    table = profile_table(MATRIX, p, block_size=config.block_size)
    result = StreamingPipeline(config, format_name).run(table)
    memory = result.memory_per_partition.tolist()
    compute = result.compute.total_cycles.tolist()

    costs = partition_costs(config, format_name, table)
    assert [c.index for c in costs] == list(range(len(memory)))
    assert [c.memory_cycles for c in costs] == memory
    assert [c.compute_cycles for c in costs] == compute

    lanes = MultiLanePipeline(config, format_name, 1).run(table)
    (assignment,) = lanes.assignments
    assert assignment.memory_cycles == sum(memory)
    assert assignment.compute_cycles == sum(compute)
    assert lanes.total_memory_cycles == result.memory_cycles
    # one lane is the streaming pipeline, fill and drain included
    assert lanes.total_cycles == result.total_cycles

    trace = trace_pipeline(config, format_name, table)
    assert [i.duration for i in trace.memory] == memory
    assert [i.duration for i in trace.compute] == compute


def test_crc_stage_bounds_multi_lane_dense():
    """Dense is memory-bound: a second lane cannot hide the CRC stage,
    and the DSE reads both lane counts from one timing model."""
    matrix = random_matrix(256, 0.05, seed=1)
    config = HardwareConfig(partition_size=16, integrity_check=True)
    single = StreamingPipeline(config, "dense").run(
        profile_table(matrix, 16, block_size=config.block_size)
    )
    totals = {
        point.n_lanes: point.metrics["total_cycles"]
        for point in explore(
            matrix,
            formats=("dense",),
            partition_sizes=(16,),
            lane_counts=(1, 2),
            base_config=config,
        )
    }
    assert totals[2] >= single.memory_cycles
    assert totals == {1: 68_888, 2: 68_888}
