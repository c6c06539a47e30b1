"""Pinned sha256 digests of full decision traces.

One seed-0 run of Table 2 mix 5 per policy, traced with every record
kind on (``PolicyDecision``, ``Dispatch``, ``AllocationChange`` ...) and
written with :func:`repro.obs.store.write_jsonl`.  Any change to which processor
goes to which job, when, and why changes the digest.  Regenerate only
after an intentional behaviour change::

    PYTHONPATH=src python -c "from tests.core.test_decision_goldens import \\
        trace_digest; from repro.core.policies import POLICIES; \\
        [print(n, *trace_digest(p)) for n, p in POLICIES.items()]"
"""

import hashlib
import os
import tempfile

import pytest

from repro.core.policies import POLICIES
from repro.measure.runner import run_mix
from repro.obs import Tracer
from repro.obs.store import write_jsonl

#: policy -> (sha256 of the JSONL trace, record count)
GOLDEN = {
    "Equipartition": (
        "64d084f49566e09c0e372d8eb1ada0ffb9dca065fbb0ecbc26c5fd79afb40677", 2924),
    "Dynamic": (
        "11b139b36715b78c81496451dbda76c72077cd7a1fc73723e01b703034dca5b2", 18688),
    "Dyn-Aff": (
        "ec7b6659076ba3ea1ef74a2ac2b6183508ccb7f58783ceac909abd6d46a68c45", 18894),
    "Dyn-Aff-NoPri": (
        "7436ecb1dc19c9ea30c189ad93f84578d505c0c716ceb85c20c89bb1c9bc1b9c", 14901),
    "Dyn-Aff-Delay": (
        "4c517fd5aeb731af5044db078d8f188c43a47e6e780f64af68ee1b9d570a5d96", 7360),
}


def trace_digest(policy):
    """(sha256 hex, record count) of one traced seed-0 mix 5 run."""
    tracer = Tracer()
    run_mix(5, policy, seed=0, tracer=tracer)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "trace.jsonl")
        write_jsonl(path, tracer.records)
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
    return digest, len(tracer.records)


def test_golden_covers_every_policy():
    assert set(GOLDEN) == set(POLICIES)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_mix5_trace_digest(name):
    assert trace_digest(POLICIES[name]) == GOLDEN[name]
