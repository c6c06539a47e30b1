"""Experiment harnesses: Section 4 penalty measurement and Section 6 runs."""

from repro.measure.bus_analysis import BusLoadEstimate, estimate_bus_load
from repro.measure.intervening import InterveningExperiment, InterveningResult
from repro.measure.penalty import PenaltyExperiment, PenaltyResult, PenaltyTable
from repro.measure.runner import (
    MixComparison,
    relative_response_times,
    run_mix,
)
from repro.measure.workloads import MIXES, WorkloadMix, make_jobs

__all__ = [
    "BusLoadEstimate",
    "InterveningExperiment",
    "InterveningResult",
    "MIXES",
    "MixComparison",
    "PenaltyExperiment",
    "PenaltyResult",
    "PenaltyTable",
    "WorkloadMix",
    "estimate_bus_load",
    "make_jobs",
    "relative_response_times",
    "run_mix",
]
