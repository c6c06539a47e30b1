"""Pinned sha256 digests of Section 8 time-sharing runs.

Each entry of ``tests/data/timesharing_digests.json`` is the sha256 of
``canonical_json(system_result_to_dict(result))`` with ``seed`` removed,
for one run under ``TimeSharing`` or ``TimeSharing-Aff``.  Two sets are
pinned:

* Table 2 mixes 1-6 at seeds 0 and 7 (24 runs, ~18 s on a 2-vCPU host);
  the suite checks mixes 1-3 at both seeds and mix 5 at seed 0;
* every scenario of ``tests/core/test_timesharing.py`` at the default
  settings, all checked by the suite.

Any change to which worker runs where, for how long, or at what cost
changes a digest.  Compare every entry, the 24 mix runs included::

    PYTHONPATH=src python -m tests.core.test_timesharing_digests --check

Regenerate (only after an intended behaviour change)::

    PYTHONPATH=src python -m tests.core.test_timesharing_digests
"""

import hashlib
import json
import os
import sys

import pytest

from repro.core.policies import TIME_SHARING, TIME_SHARING_AFFINITY
from repro.core.system import SchedulingSystem
from repro.measure.runner import run_mix
from repro.sweep.cells import system_result_to_dict
from repro.sweep.spec import canonical_json
from tests.core.helpers import chain_job, flat_job, phased_job

DIGESTS_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "data", "timesharing_digests.json"
)

POLICIES = {policy.name: policy for policy in (TIME_SHARING, TIME_SHARING_AFFINITY)}
MIXES = (1, 2, 3, 4, 5, 6)
SEEDS = (0, 7)
#: the mix runs the suite checks (the rest only under --check)
TIER1_MIX_RUNS = {(1, 0), (1, 7), (2, 0), (2, 7), (3, 0), (3, 7), (5, 0)}

#: scenario -> (jobs factory, processors, seed), as in test_timesharing.py
SCENARIOS = {
    "single_job": (lambda: [flat_job("J", 8, 0.5, workers=4)], 4, 0),
    "work_conserved": (
        lambda: [flat_job("A", 8, 0.5, workers=4), flat_job("B", 8, 0.5, workers=4)],
        4, 0,
    ),
    "chain_quantum": (lambda: [chain_job("J", 2, 0.35)], 1, 0),
    "quantum_expiry": (
        lambda: [flat_job("L", 2, 1.0, workers=2), flat_job("C", 2, 1.0, workers=2)],
        2, 0,
    ),
    "rotation": (
        lambda: [flat_job(f"J{i}", 4, 0.5, workers=2) for i in range(4)], 2, 0,
    ),
    "low_affinity": (
        lambda: [flat_job(f"J{i}", 8, 0.7 + 0.2 * i, workers=3) for i in range(3)],
        4, 0,
    ),
    "affinity_pair": (
        lambda: [phased_job("A", 6, 8, 0.05, workers=4), flat_job("B", 8, 2.0, workers=4)],
        4, 3,
    ),
    "aging": (
        lambda: [flat_job("HOG", 16, 2.0, workers=4), flat_job("VICTIM", 8, 0.5, workers=4)],
        4, 0,
    ),
}


def result_digest(result) -> str:
    """sha256 of a result's canonical JSON form, ``seed`` left out."""
    payload = system_result_to_dict(result)
    del payload["seed"]
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def run_mix_digest(mix: int, policy_name: str, seed: int) -> str:
    return result_digest(run_mix(mix, POLICIES[policy_name], seed=seed))


def run_scenario_digest(scenario: str, policy_name: str) -> str:
    factory, n_processors, seed = SCENARIOS[scenario]
    return result_digest(
        SchedulingSystem(
            factory(), POLICIES[policy_name], n_processors=n_processors, seed=seed
        ).run()
    )


def mix_key(mix: int, policy_name: str, seed: int) -> str:
    return f"mix{mix}/{policy_name}/seed{seed}"


def scenario_key(scenario: str, policy_name: str) -> str:
    return f"scenario/{scenario}/{policy_name}"


def all_entries():
    """key -> zero-argument digest function, for every pinned run."""
    entries = {}
    for name in POLICIES:
        for mix in MIXES:
            for seed in SEEDS:
                entries[mix_key(mix, name, seed)] = (
                    lambda m=mix, n=name, s=seed: run_mix_digest(m, n, s)
                )
        for scenario in SCENARIOS:
            entries[scenario_key(scenario, name)] = (
                lambda sc=scenario, n=name: run_scenario_digest(sc, n)
            )
    return entries


def load_digests():
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_digests_cover_every_run():
    assert sorted(load_digests()) == sorted(all_entries())


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("mix,seed", sorted(TIER1_MIX_RUNS))
def test_mix_digest(mix, seed, policy_name):
    assert run_mix_digest(mix, policy_name, seed) == load_digests()[
        mix_key(mix, policy_name, seed)
    ]


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_scenario_digest(scenario, policy_name):
    assert run_scenario_digest(scenario, policy_name) == load_digests()[
        scenario_key(scenario, policy_name)
    ]


if __name__ == "__main__":  # pragma: no cover - check/regeneration helper
    computed = {key: digest() for key, digest in sorted(all_entries().items())}
    if "--check" in sys.argv[1:]:
        pinned = load_digests()
        bad = sorted(k for k in computed if pinned.get(k) != computed[k])
        print(f"{len(computed) - len(bad)}/{len(computed)} digests match")
        for key in bad:
            print(f"MISMATCH {key}")
        sys.exit(1 if bad else 0)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(computed, handle, indent=2, sort_keys=True)
        handle.write("\n")
