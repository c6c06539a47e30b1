"""Trace diffing: self-diffs are clean, parallel runs diverge nowhere,
and the Equipartition vs Dyn-Aff gap lands in the affinity buckets.
"""

import pytest

from repro.core.policies import DYN_AFF, EQUIPARTITION
from repro.engine.parallel import map_items
from repro.measure.runner import run_mix
from repro.obs import Tracer
from repro.obs.analysis import BUCKETS, diff_traces
from repro.obs.store import write_jsonl
from repro.reporting.obs_export import stream_trace


def _traced_jsonl(mix, policy, seed, path):
    """Write one traced run to ``path`` as JSONL; returns the path."""
    tracer = Tracer()
    run_mix(mix, policy, seed=seed, tracer=tracer)
    write_jsonl(str(path), tracer.records)
    return path


def _read_back(path):
    """Parse a JSONL trace the way commands do: from a file, frame-checked."""
    return list(stream_trace(str(path)))


def _replicated_trace(job):
    """Module-level so it pickles into ProcessPoolExecutor workers."""
    replication, path = job
    return _traced_jsonl(1, DYN_AFF, replication, path)


class TestSelfDiff:
    def test_identical_traces_diff_clean(self, tmp_path):
        records = _read_back(_traced_jsonl(1, DYN_AFF, 0, tmp_path / "a.jsonl"))
        diff = diff_traces(records, records, label_a="x", label_b="y")
        assert diff.identical
        assert diff.first_divergence is None
        assert diff.first_divergent_decision is None
        assert diff.credit_differences == {}
        assert diff.mean_response_delta == 0.0
        assert diff.makespan_delta == 0.0
        for entry in diff.job_deltas.values():
            assert entry["response_time_delta"] == 0.0
            assert all(entry["buckets"][b] == 0.0 for b in BUCKETS)
        assert diff.decision_rule_counts_a == diff.decision_rule_counts_b

    def test_seed_change_diverges(self, tmp_path):
        trace_a = _read_back(_traced_jsonl(1, DYN_AFF, 0, tmp_path / "a.jsonl"))
        trace_b = _read_back(_traced_jsonl(1, DYN_AFF, 1, tmp_path / "b.jsonl"))
        diff = diff_traces(trace_a, trace_b)
        assert not diff.identical
        assert diff.first_divergence is not None


class TestParallelDeterminism:
    """Satellite (d): serial and workers=2 runs diverge nowhere."""

    def test_worker_count_never_changes_the_trace(self, tmp_path):
        serial = map_items(
            _replicated_trace, [(r, tmp_path / f"serial-{r}.jsonl") for r in (0, 1)],
            workers=1,
        )
        parallel = map_items(
            _replicated_trace, [(r, tmp_path / f"parallel-{r}.jsonl") for r in (0, 1)],
            workers=2,
        )
        for r, (path_a, path_b) in enumerate(zip(serial, parallel)):
            diff = diff_traces(
                _read_back(path_a),
                _read_back(path_b),
                label_a=f"serial r{r}",
                label_b=f"workers=2 r{r}",
            )
            assert diff.identical, (
                f"replication {r} diverged at record "
                f"{diff.first_divergence.index if diff.first_divergence else '?'}"
            )
            assert diff.first_divergence is None


class TestPolicyGapAttribution:
    """Acceptance: the Equi vs Dyn-Aff gap is *explained*, not just stated."""

    @pytest.fixture(scope="class")
    def diff(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("gap")
        trace_a = _read_back(_traced_jsonl(5, EQUIPARTITION, 0, directory / "a.jsonl"))
        trace_b = _read_back(_traced_jsonl(5, DYN_AFF, 0, directory / "b.jsonl"))
        return diff_traces(trace_a, trace_b, label_a="Equipartition", label_b="Dyn-Aff")

    def test_per_job_buckets_sum_to_response_delta(self, diff):
        assert not diff.identical
        for job, entry in diff.job_deltas.items():
            total = sum(entry["buckets"][b] for b in BUCKETS)
            assert total == pytest.approx(entry["response_time_delta"], abs=1e-9), job

    def test_compute_is_policy_invariant_in_machine_totals(self, diff):
        """Both policies execute the same service demand; the CPU-second
        compute totals must agree to float-replay precision while the
        response-time gap lands in the affinity buckets."""
        compute_delta = diff.totals_b["compute"] - diff.totals_a["compute"]
        assert abs(compute_delta) < 1e-6

    def test_gap_lands_in_reload_and_idle(self, diff):
        """Dyn-Aff pays reload penalty for its migrations but reclaims far
        more held-idle time — the paper's Section 6 story in buckets.  (On
        Table 2 mixes every job always holds a processor, so processor-wait
        is zero and the gap is carried by reload/switch/idle.)"""
        reload_delta = diff.totals_b["reload"] - diff.totals_a["reload"]
        idle_delta = diff.totals_b["idle"] - diff.totals_a["idle"]
        assert reload_delta > 0
        assert idle_delta < 0
        assert abs(idle_delta) > reload_delta  # the trade pays off

    def test_bucket_deltas_account_for_the_whole_gap(self, diff):
        """Conservation across the diff: the totals deltas sum to the
        makespan delta times P (16 processors on Table 2 mixes)."""
        total_delta = sum(
            diff.totals_b[b] - diff.totals_a[b] for b in BUCKETS
        )
        assert total_delta == pytest.approx(diff.makespan_delta * 16, rel=1e-9)

    def test_first_divergent_decision_reported(self, diff):
        assert diff.first_divergent_decision is not None
        assert diff.decision_rule_counts_a != diff.decision_rule_counts_b
