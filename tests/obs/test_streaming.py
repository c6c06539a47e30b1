"""Metrics differential: the live registry == the record-derived referee.

The live :class:`~repro.obs.metrics.MetricsRegistry` sites in ``core/``
are the one producer of scheduling metrics.  The referee
(:class:`tests.obs.metrics_referee.StreamingMetrics`) rebuilds the same
catalog from the trace records alone, and its snapshot must be
*bit-identical* (JSON-equal with exact floats) to the live run's.  The
differential runs over the full open-system oracle matrix — 5 policies
x 4 scenarios x 3 seeds — so every disruption kind (cancellations,
failures, recoveries, flushes) reaches both sides.
"""

import json

import pytest

from repro.core.policies import (
    DYN_AFF,
    DYN_AFF_DELAY,
    DYN_AFF_NOPRI,
    DYNAMIC,
    EQUIPARTITION,
)
from repro.obs import MetricsRegistry, Tracer
from repro.obs.records import CacheBatch, JobCancelled
from repro.workloads.opensys import built_in_scenarios, run_scenario
from tests.obs.metrics_referee import StreamingMetrics, derive_metrics

ALL_POLICIES = [EQUIPARTITION, DYNAMIC, DYN_AFF, DYN_AFF_DELAY, DYN_AFF_NOPRI]
SCENARIO_NAMES = ("steady", "bursty", "cancellations", "failures")
SEEDS = (0, 1, 2)
P = 8


def _traced_run(scenario_name, policy, seed):
    scenario = built_in_scenarios(lite=True, n_processors=P)[scenario_name]
    tracer = Tracer()
    metrics = MetricsRegistry()
    result = run_scenario(
        scenario, policy, seed=seed, n_processors=P,
        tracer=tracer, metrics=metrics,
    )
    return tracer.records, metrics, result


class TestStreamingDifferential:
    """The referee and the live registry agree on every oracle-matrix cell."""

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
    @pytest.mark.parametrize("scenario_name", SCENARIO_NAMES)
    def test_cell_streaming_matches_batch(self, scenario_name, policy):
        for seed in SEEDS:
            records, live_metrics, _ = _traced_run(scenario_name, policy, seed)
            derived = derive_metrics(records)
            assert (
                json.dumps(derived.snapshot(), sort_keys=True)
                == json.dumps(live_metrics.snapshot(), sort_keys=True)
            ), (scenario_name, policy.name, seed)

    def test_matrix_exercises_disruption_records(self):
        """The differential isn't vacuous: disruption kinds do stream."""
        records, _, result = _traced_run("cancellations", DYN_AFF, 0)
        assert any(isinstance(r, JobCancelled) for r in records)
        assert result.n_cancelled > 0


class TestStreamingMetricsScope:
    def test_cache_batches_carry_no_metrics(self):
        """CacheBatch is a measurement record; the referee must ignore it."""
        streaming = StreamingMetrics()
        streaming.feed(CacheBatch(time=0.0, cpu=0, owner="A", n=8, hits=4))
        snap = streaming.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}
