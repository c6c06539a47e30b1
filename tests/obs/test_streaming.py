"""Metrics fold from a stored trace: the file's fold == the payload's.

A scheduling cell's ``metrics`` snapshot is folded from the run's
in-memory records (:func:`repro.obs.metrics.metrics_from_records`); a
sweep with ``store_traces`` writes the same records to the cell's
columnar ``trace.rct``.  Folding the records streamed back from that
file must give the payload's snapshot *bit for bit* (JSON-equal with
exact floats), so a stored trace is enough to recompute a cell's
metrics.  The check runs over the full open-system oracle matrix — 5
policies x 4 scenarios x 3 seeds — whose snapshots
``test_metrics_digests.py`` pins, so every disruption kind
(cancellations, failures, recoveries, flushes) reaches the fold.
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
from repro.obs import Tracer, metrics_from_records
from repro.obs.records import CacheBatch, JobCancelled
from repro.obs.store import iter_trace_file
from repro.sweep import ResultCache, SweepSpec, run_sweep
from repro.workloads.opensys import built_in_scenarios, run_scenario

ALL_POLICIES = [EQUIPARTITION, DYNAMIC, DYN_AFF, DYN_AFF_DELAY, DYN_AFF_NOPRI]
SCENARIO_NAMES = ("steady", "bursty", "cancellations", "failures")
SEEDS = (0, 1, 2)
P = 8


class TestStreamingDifferential:
    """The stored trace's fold and the payload agree on every matrix cell."""

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
    @pytest.mark.parametrize("scenario_name", SCENARIO_NAMES)
    def test_cell_streaming_matches_batch(self, scenario_name, policy, tmp_path):
        spec = SweepSpec(
            name="streaming", kind="opensys", scenarios=(scenario_name,),
            policies=(policy.name,), seeds=SEEDS, lite=True, n_processors=P,
            store_traces=True,
        )
        cache = ResultCache(str(tmp_path))
        sweep = run_sweep(spec, cache=cache, collect_metrics=True)
        for outcome in sweep.outcomes:
            streamed = metrics_from_records(iter_trace_file(cache.trace_path(outcome.key)))
            assert (
                json.dumps(streamed.snapshot(), sort_keys=True)
                == json.dumps(outcome.payload["metrics"], sort_keys=True)
            ), outcome.cell.label

    def test_matrix_exercises_disruption_records(self):
        """The matrix isn't vacuous: disruption kinds do stream."""
        scenario = built_in_scenarios(lite=True, n_processors=P)["cancellations"]
        tracer = Tracer()
        result = run_scenario(scenario, DYN_AFF, seed=0, n_processors=P, tracer=tracer)
        assert any(isinstance(r, JobCancelled) for r in tracer.records)
        assert result.n_cancelled > 0


class TestStreamingMetricsScope:
    def test_cache_batches_carry_no_metrics(self):
        """CacheBatch is a measurement record; the fold must ignore it."""
        snap = metrics_from_records(
            [CacheBatch(time=0.0, cpu=0, owner="A", n=8, hits=4)]
        ).snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}
