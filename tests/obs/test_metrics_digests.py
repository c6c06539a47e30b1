"""Pinned sha256 digests of the metrics snapshots sweep cells produce.

Each entry of ``tests/data/metrics_digests.json`` is the sha256 of
``canonical_json(payload["metrics"])`` for one ``run_cell(cell,
collect_metrics=True)`` call.  Three sets are pinned:

* the open-system oracle matrix: 4 lite scenarios x 5 policies x seeds
  0-2 at P=8, so every disruption kind (cancellations, failures,
  recoveries, flushes) reaches the scheduling catalog;
* Table 2 mix 5 at seed 0 under Section 8's two time-sharing policies
  (the run queue, quantum expiries and preemptions);
* one Table 1 cell (the ``penalty/*`` instruments).

Any change to which metric is counted, in what order floats are summed,
or what the snapshot looks like changes a digest.

Regenerate (only after an intended change to the catalog)::

    PYTHONPATH=src python -m tests.obs.test_metrics_digests
"""

import hashlib
import json
import os

import pytest

from repro.core.policies import TIME_SHARING, TIME_SHARING_AFFINITY
from repro.sweep.cells import run_cell
from repro.sweep.spec import SweepSpec, canonical_json, mix_cell, table1_cell

DIGESTS_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "data", "metrics_digests.json"
)

ORACLE = SweepSpec(
    name="metrics-oracle",
    kind="opensys",
    scenarios=("steady", "bursty", "cancellations", "failures"),
    policies=("Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-Delay", "Dyn-Aff-NoPri"),
    seeds=(0, 1, 2),
    lite=True,
    n_processors=8,
)

TABLE1_APPS = ("MATRIX", "MVA", "GRAVITY")

CELLS = (
    ORACLE.expand()
    + tuple(
        mix_cell(5, policy.name, 0)
        for policy in (TIME_SHARING, TIME_SHARING_AFFINITY)
    )
    + (table1_cell("MVA", 0.1, TABLE1_APPS, 32, 0, None),)
)


def metrics_digest(cell) -> str:
    snapshot = run_cell(cell, collect_metrics=True)["metrics"]
    return hashlib.sha256(canonical_json(snapshot).encode("utf-8")).hexdigest()


def load_digests():
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_digests_cover_every_cell():
    assert sorted(load_digests()) == sorted(cell.label for cell in CELLS)


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell.label)
def test_metrics_digest(cell):
    assert metrics_digest(cell) == load_digests()[cell.label]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(
            {cell.label: metrics_digest(cell) for cell in CELLS},
            handle, indent=2, sort_keys=True,
        )
        handle.write("\n")
