"""Resume correctness: a hard-killed sweep, resumed, matches an
uninterrupted one bit-for-bit.

The victim process runs in a subprocess (SIGKILL cannot be trapped, so
it must not be the test process) with ``shard_size=1`` and an
``on_commit`` hook that kills the process after the first shard lands.
The victim leads its own process group and the hook kills the whole
group, so its pool workers die with it instead of running on, orphaned,
in the cache directory the resume step then writes into.
Resume is just running the same spec again: cached cells are skipped,
the rest recompute, and the assembled payloads must be byte-identical
to a never-interrupted run in a separate cache.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.sweep import ResultCache, SweepSpec
from repro.sweep.executor import run_sweep, sweep_status
from repro.sweep.spec import canonical_json

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")

VICTIM = """\
import json, os, signal, sys

from repro.sweep import ResultCache, spec_from_dict
from repro.sweep.executor import run_sweep

spec = spec_from_dict(json.loads(sys.argv[1]))
cache = ResultCache(sys.argv[2])
workers = int(sys.argv[3])

def kamikaze(index, payloads):
    os.killpg(0, signal.SIGKILL)

run_sweep(spec, cache=cache, workers=workers, shard_size=1,
          on_commit=kamikaze)
raise SystemExit("unreachable: the sweep should have been killed")
"""


ORPHANER = """\
import json, multiprocessing, os, signal, sys

from repro.sweep import ResultCache, spec_from_dict
from repro.sweep.executor import run_sweep

spec = spec_from_dict(json.loads(sys.argv[1]))

def kill_only_the_parent(index, payloads):
    with open(sys.argv[3], "w") as fh:
        fh.write(" ".join(str(p.pid) for p in multiprocessing.active_children()))
    os.kill(os.getpid(), signal.SIGKILL)

run_sweep(spec, cache=ResultCache(sys.argv[2]), workers=2, shard_size=1,
          on_commit=kill_only_the_parent, progress=True)
raise SystemExit("unreachable: the sweep should have been killed")
"""


def _spec():
    return SweepSpec(
        name="t",
        kind="opensys",
        scenarios=("steady",),
        policies=("Equipartition", "Dyn-Aff"),
        seeds=(0, 1),
        n_processors=4,
        lite=True,
    )


def _bytes(result):
    return [canonical_json(o.payload) for o in result.outcomes]


def _kill_mid_sweep(cache_dir, workers):
    env = dict(os.environ, PYTHONPATH=SRC)
    # No pipes: a worker that outlived the victim would inherit them and
    # keep a capture-based wait from ever seeing EOF.
    proc = subprocess.run(
        [sys.executable, "-c", VICTIM,
         json.dumps(_spec().to_dict()), str(cache_dir), str(workers)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=120, start_new_session=True,
    )
    assert proc.returncode == -signal.SIGKILL


@pytest.mark.parametrize("workers", [1, 2])
def test_killed_then_resumed_matches_uninterrupted(tmp_path, workers):
    interrupted = ResultCache(str(tmp_path / "interrupted"))
    _kill_mid_sweep(interrupted.root, workers)

    status = sweep_status(_spec(), interrupted)
    assert status.n_cached >= 1, "kill landed before any cell was cached"
    if workers == 1:
        # Serial commits: exactly the first shard's cell survived.
        assert status.n_cached == 1

    resumed = run_sweep(_spec(), cache=interrupted, workers=workers)
    assert resumed.n_hits >= 1
    assert resumed.n_hits + resumed.n_computed == 4

    uninterrupted = run_sweep(
        _spec(), cache=ResultCache(str(tmp_path / "clean")), workers=workers
    )
    assert _bytes(resumed) == _bytes(uninterrupted)

    # And the caches themselves converged to the same result bytes.
    for outcome_a, outcome_b in zip(resumed.outcomes, uninterrupted.outcomes):
        path_a = os.path.join(interrupted.cell_dir(outcome_a.key), "result.json")
        path_b = os.path.join(
            ResultCache(str(tmp_path / "clean")).cell_dir(outcome_b.key),
            "result.json",
        )
        with open(path_a, "rb") as fh_a, open(path_b, "rb") as fh_b:
            assert fh_a.read() == fh_b.read()


def test_journal_survives_the_kill(tmp_path):
    cache = ResultCache(str(tmp_path))
    _kill_mid_sweep(cache.root, 1)
    journal = os.path.join(cache.root, "sweeps", "t", "journal.jsonl")
    with open(journal, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    # fsync-per-line: every line present is complete; the run_start and
    # the first committed cell made it, run_end never did.
    assert lines[0]["event"] == "run_start"
    assert any(line["event"] == "cell_done" for line in lines)
    assert all(line["event"] != "run_end" for line in lines)


def _running(pid):
    """Is ``pid`` a live process (an exited, unreaped one is not)?"""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


def test_workers_exit_when_only_their_parent_is_killed(tmp_path):
    pids_file = tmp_path / "children.pids"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", ORPHANER, json.dumps(_spec().to_dict()),
         str(tmp_path / "cache"), str(pids_file)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=120, start_new_session=True,
    )
    assert proc.returncode == -signal.SIGKILL
    children = [int(pid) for pid in pids_file.read_text().split()]
    assert len(children) == 2  # the two pool workers
    deadline = time.monotonic() + 10
    try:
        while any(map(_running, children)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in children if _running(pid)]
    finally:
        for pid in children:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
