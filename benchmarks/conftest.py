"""Shared fixtures for the benchmark suite.

Policy-comparison results are cached per (mix, policy set, replications)
so that the Figure 5, Table 3, Figure 6 and Figure 8-13 benchmarks do not
redo each other's simulation work.
"""

from __future__ import annotations

import functools
import os
import typing

import pytest

from repro.core.policies import (
    DYN_AFF,
    DYN_AFF_DELAY,
    DYN_AFF_NOPRI,
    DYNAMIC,
    EQUIPARTITION,
)
from repro.measure.runner import MixComparison
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.cells import mix_comparison

#: Replications per (mix, policy) in the benchmark suite.  The paper ran
#: to 1% confidence half-widths; 3 replications keeps the full suite in
#: the minutes range while the trends are far larger than the noise.
REPLICATIONS = 3

#: Worker processes used for the sweep fan-out.  Parallel results are
#: identical to serial ones (cells are seeded deterministically and
#: committed in order), so this only changes the wall clock; set
#: ``REPRO_BENCH_WORKERS=4`` on a multicore box to speed the suite up.
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))

_POLICY_SETS = {
    "dynamic": (EQUIPARTITION, DYNAMIC, DYN_AFF, DYN_AFF_DELAY),
    "nopri": (EQUIPARTITION, DYN_AFF, DYN_AFF_NOPRI),
}


@functools.lru_cache(maxsize=None)
def cached_comparison(mix_id: int, policy_set: str) -> MixComparison:
    """Run (once per session) a mix under a named policy set."""
    spec = SweepSpec(
        name=f"bench-{policy_set}",
        kind="mix",
        mixes=(mix_id,),
        policies=tuple(p.name for p in _POLICY_SETS[policy_set]),
        seeds=REPLICATIONS,
    )
    sweep = run_sweep(spec, workers=WORKERS)
    return mix_comparison(spec, sweep.payloads, mix_id)


@pytest.fixture
def comparison_factory() -> typing.Callable[[int, str], MixComparison]:
    """Factory fixture returning cached mix comparisons."""
    return cached_comparison


def run_once(benchmark, func, *args, **kwargs):
    """Run an expensive experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
