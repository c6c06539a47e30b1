"""Golden digests of every job graph the experiments build.

For the MVA, MATRIX and GRAVITY jobs of Table 2 mix 6 (seeds 0 and 7),
three lite open-system jobs (one per template shape) and the jobs of
``tests/data/sample.swf``, the sha256 of each graph array is pinned in
``tests/data/graph_digests.json``: service times (by ``repr``, so every
bit counts), successor lists, predecessor counts, phase labels and data
groups.  A change to graph construction that moves a random draw, an
edge or a label fails here before it can move a table.

Regenerate the file (only for an intended change) with::

    PYTHONPATH=src python -m tests.threads.test_graph_goldens
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import typing

import pytest

from repro.engine.rng import RngRegistry
from repro.machine.params import SEQUENT_SYMMETRY
from repro.measure.workloads import make_jobs
from repro.threads.graph import ThreadGraph
from repro.workloads.opensys.jobsource import lite_source
from repro.workloads.opensys.swf import SwfScenario

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")
GOLDEN_PATH = os.path.join(DATA, "graph_digests.json")
SAMPLE_SWF = os.path.join(DATA, "sample.swf")

ARRAYS = ("service_times", "successors", "n_predecessors", "phases", "data_groups")
#: lite stream indices whose jobs are CHAIN, PHASE and FLAT under seed 0
LITE_INDICES = (0, 1, 5)


@functools.lru_cache(maxsize=None)
def graphs() -> typing.Dict[str, ThreadGraph]:
    """Every pinned graph, by a stable key."""
    out: typing.Dict[str, ThreadGraph] = {}
    for seed in (0, 7):
        for job in make_jobs(6, RngRegistry(seed)):
            out[f"mix6/seed{seed}/{job.name}"] = job.graph
    source = lite_source()
    for index in LITE_INDICES:
        job = source.make_job(index, RngRegistry(0), 16, SEQUENT_SYMMETRY)
        out[f"lite/seed0/{job.name}"] = job.graph
    for job in SwfScenario.from_file(SAMPLE_SWF).instantiate(0).jobs:
        out[f"swf/{job.name}"] = job.graph
    return out


def digests(graph: ThreadGraph) -> typing.Dict[str, str]:
    return {
        name: hashlib.sha256(repr(list(getattr(graph, name))).encode()).hexdigest()
        for name in ARRAYS
    }


def load_goldens() -> typing.Dict[str, typing.Dict[str, str]]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_every_graph():
    assert sorted(load_goldens()) == sorted(graphs())


@pytest.mark.parametrize("key", sorted(graphs()))
def test_graph_arrays_match_golden(key):
    assert digests(graphs()[key]) == load_goldens()[key]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(
            {key: digests(graph) for key, graph in sorted(graphs().items())},
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")
