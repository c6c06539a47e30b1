"""The tiny deterministic run behind the golden-file tests.

Regenerate the committed goldens after an intentional behavior change::

    PYTHONPATH=src python tests/obs/golden_run.py

The run is small on purpose (two 2-thread jobs on 2 processors) so the
golden trace stays reviewable in a diff.
"""

from repro.core.policies import DYN_AFF
from repro.core.system import SchedulingSystem
from repro.obs import Tracer, metrics_from_records
from tests.core.helpers import chain_job, flat_job


def golden_run():
    """Returns (trace records, metrics snapshot) of the canonical tiny run."""
    tracer = Tracer()
    jobs = [flat_job("A", 2, 0.5, 2), chain_job("B", 2, 0.5)]
    SchedulingSystem(jobs, DYN_AFF, n_processors=2, seed=0, tracer=tracer).run()
    return tracer.records, metrics_from_records(tracer.records).snapshot()


if __name__ == "__main__":
    import pathlib

    from repro.obs.store import write_jsonl
    from repro.reporting.obs_export import snapshot_to_json

    here = pathlib.Path(__file__).parent / "golden"
    records, snapshot = golden_run()
    write_jsonl(str(here / "trace.jsonl"), records)
    (here / "metrics.json").write_text(snapshot_to_json(snapshot), encoding="utf-8")
    print(f"wrote {len(records)} records and the metrics snapshot to {here}")
