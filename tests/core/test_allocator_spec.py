"""Differential test: the incremental allocator against the rescanning spec.

Each case runs the same workload twice, once with the runtime
:class:`~repro.core.allocator.Allocator` and once with
:class:`tests.core.allocator_spec.SpecAllocator` patched in, and
requires the same ``PolicyDecision`` at every step (rule, job, cpu,
reason, and the credits and allocations it weighed), then the same
whole trace.  The spec rescans processors and workers for every
answer, so any drift in the runtime's counters or cpu-id masks changes
a decision here.
"""

from __future__ import annotations

import contextlib
import dataclasses
import typing
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings

import repro.core.system as system_module
from repro.core.policies import POLICIES
from repro.obs import Tracer
from repro.obs.records import PolicyDecision
from repro.workloads.opensys import built_in_scenarios, run_scenario
from tests.core.allocator_spec import SpecAllocator
from tests.core.strategies import DisruptedWorkload, disrupted_workloads

SCENARIO_NAMES = ("steady", "bursty", "cancellations", "failures")
SEEDS = (0, 1)
P = 8


@contextlib.contextmanager
def spec_allocator():
    """Every SchedulingSystem built inside uses the spec allocator."""
    with mock.patch.object(system_module, "Allocator", SpecAllocator):
        yield


def assert_same_decisions(fast: typing.Sequence, spec: typing.Sequence) -> None:
    fast_decisions = [r for r in fast if isinstance(r, PolicyDecision)]
    spec_decisions = [r for r in spec if isinstance(r, PolicyDecision)]
    for index, (got, want) in enumerate(zip(fast_decisions, spec_decisions)):
        assert got == want, f"decision {index} differs"
    assert len(fast_decisions) == len(spec_decisions)
    assert list(fast) == list(spec)


def scenario_traces(scenario_name, policy, seed):
    """(runtime trace, spec trace) of one lite opensys scenario run."""
    scenario = built_in_scenarios(lite=True, n_processors=P)[scenario_name]
    traces = []
    for allocator in (contextlib.nullcontext(), spec_allocator()):
        tracer = Tracer()
        with allocator:
            run_scenario(scenario, policy, seed=seed, n_processors=P, tracer=tracer)
        traces.append(tracer.records)
    return traces


@pytest.mark.parametrize("policy", list(POLICIES), ids=str)
@pytest.mark.parametrize("scenario_name", SCENARIO_NAMES)
def test_oracle_matrix_decisions_match_spec(scenario_name, policy):
    for seed in SEEDS:
        fast, spec = scenario_traces(scenario_name, POLICIES[policy], seed)
        assert any(isinstance(r, PolicyDecision) for r in fast)
        assert_same_decisions(fast, spec)


@pytest.mark.parametrize("policy", ["Dyn-Aff", "Dyn-Aff-NoPri", "Dyn-Aff-Delay"])
def test_history_ablation_decisions_match_spec(policy):
    """Depth-3 histories: the only runs in which rule A.1 fires."""
    deeper = dataclasses.replace(POLICIES[policy], name=f"{policy}-H3", history_depth=3)
    rules = set()
    for scenario_name in ("steady", "failures"):
        fast, spec = scenario_traces(scenario_name, deeper, 0)
        assert_same_decisions(fast, spec)
        rules.update(r.rule for r in fast if isinstance(r, PolicyDecision))
    assert "A.1" in rules


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(disrupted_workloads())
def test_generated_workloads_decisions_match_spec(workload: DisruptedWorkload):
    fast = Tracer()
    workload.build(tracer=fast).run()
    spec = Tracer()
    with spec_allocator():
        system = workload.build(tracer=spec)
        assert isinstance(system.allocator, SpecAllocator)
        system.run()
    assert_same_decisions(fast.records, spec.records)
