"""Parallel inference runtime (paper Sect. 4.3): segmentation, knapsack
workload balancing, and the thread-parallel E-step."""

from .knapsack import Allocation, allocate_segments, solve_knapsack
from .runner import ParallelEStepRunner, ParallelStats
from .scheduler import (
    Schedule,
    WorkloadModel,
    build_schedule,
    measure_workload_model,
    partition_ranges,
)
from .segmentation import DataSegment, build_segments, segment_users_by_topic

__all__ = [
    "Allocation",
    "DataSegment",
    "ParallelEStepRunner",
    "ParallelStats",
    "Schedule",
    "WorkloadModel",
    "allocate_segments",
    "build_schedule",
    "build_segments",
    "measure_workload_model",
    "partition_ranges",
    "segment_users_by_topic",
    "solve_knapsack",
]
