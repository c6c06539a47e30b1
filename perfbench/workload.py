"""One benchmark workload run, in its own process.

Usage::

    python3 perfbench/workload.py --workload closed-mix --seed 0 [--trace] [--smoke]

Builds the workload's :class:`~repro.sweep.SweepSpec` from the seed,
runs it through ``repro.sweep.run_sweep`` (``workers=1``, a fresh cache
directory under ``.perfbench-tmp/`` that is deleted afterwards),
assembles and renders the paper artifact, and checks every cell.  The
last stdout line is one JSON object: the timings, the cell and artifact
sha256 digests, every failed check, and with ``--trace`` the per-layer
snapshot of :class:`layers.LayerTracer`.  ``--smoke`` shrinks every
axis for a quick check of the same code path; it checks structure only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import typing

import layers

#: Setup marks (``time.monotonic``, comparable across processes): the
#: interpreter is up, then ``repro`` and numpy are imported, then the
#: first ``run_sweep`` call.
T_INTERPRETER = time.monotonic()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TMP_DIR = os.path.join(ROOT, ".perfbench-tmp")
DIGESTS_PATH = os.path.join(HERE, "digests.json")

POLICIES = ("Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-Delay", "Dyn-Aff-NoPri")
SCENARIOS = ("steady", "bursty", "cancellations", "failures")


def make_spec(workload: str, seed: int, smoke: bool = False):
    from repro.sweep import SweepSpec

    name = f"perfbench-{workload}"
    if workload == "closed-mix":
        return SweepSpec(
            name=name, kind="mix", mixes=(6,) if smoke else (5, 6),
            policies=POLICIES[:4] if smoke else POLICIES,
            seeds=(seed,), n_processors=16,
        )
    if workload == "penalty":
        return SweepSpec(
            name=name, kind="table1", scale=16, backend="numpy", seeds=(seed,),
            apps=("MVA",) if smoke else (), quanta=(0.025,) if smoke else (),
        )
    if workload == "opensys-traced":
        return SweepSpec(
            name=name, kind="opensys", lite=True, utilization=0.8,
            store_traces=True, scenarios=SCENARIOS, policies=POLICIES,
            seeds=(seed,) if smoke else tuple(range(seed, seed + 5)),
            n_processors=16,
        )
    raise ValueError(f"unknown workload {workload!r}")


def sha256_json(payload: typing.Any) -> str:
    from repro.sweep.spec import canonical_json

    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


class BackendGuard:
    """Records the engine of every cache and generator the run builds."""

    def __init__(self) -> None:
        self.engines: typing.Set[str] = set()

    def install(self) -> None:
        from repro.apps.reference import ReferenceGenerator
        from repro.machine.cache import SetAssociativeCache

        for cls in (ReferenceGenerator, SetAssociativeCache):
            self._hook(cls)

    def _hook(self, cls: type) -> None:
        init = cls.__init__
        engines = self.engines

        def guarded_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            engines.add(f"{cls.__name__}:{obj.backend_name}")

        cls.__init__ = guarded_init


# ---------------------------------------------------------------------- #
# structural checks: seed-independent properties of each cell


def _positive(x: float) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x > 0


def check_mix_cell(cell, payload) -> typing.List[str]:
    from repro.measure.workloads import MIXES

    config = cell.config
    system = payload["data"]["system"]
    problems = []
    if system["policy"] != config["policy"]:
        problems.append(f"policy {system['policy']!r} != {config['policy']!r}")
    jobs = system["jobs"]
    if len(jobs) != MIXES[config["mix"]].n_jobs:
        problems.append(f"{len(jobs)} jobs finished, mix has {MIXES[config['mix']].n_jobs}")
    if system["cancelled"]:
        problems.append("closed mix reported cancelled jobs")
    for name, job in jobs.items():
        if not (_positive(job["response_time"]) and _positive(job["work"])):
            problems.append(f"job {name}: non-positive response time or work")
        if not 0.0 <= job["pct_affinity"] <= 100.0:
            problems.append(f"job {name}: pct_affinity {job['pct_affinity']} outside [0, 100]")
        if job["response_time"] > system["makespan"] * (1 + 1e-12):
            problems.append(f"job {name}: response time beyond the makespan")
    return problems


def check_penalty_cell(cell, payload) -> typing.List[str]:
    config = cell.config
    result = payload["data"]["penalty"]
    problems = []
    if result["app"] != config["app"] or result["q_s"] != config["q_s"]:
        problems.append("result names another (app, quantum) than its cell")
    if sorted(result["multiprog"]) != sorted(config["partners"]):
        problems.append("multiprogrammed regimes do not match the partners")
    runs = [("stationary", result["stationary"]), ("migrating", result["migrating"])]
    runs += [(f"multiprog/{k}", v) for k, v in result["multiprog"].items()]
    for regime, run in runs:
        if not _positive(run["response_time"]) or run["n_switches"] < 1:
            problems.append(f"{regime}: empty run")
        if not 0.0 <= run["hit_rate"] <= 1.0:
            problems.append(f"{regime}: hit rate {run['hit_rate']} outside [0, 1]")
    return problems


def check_opensys_cell(cell, payload, cache, key) -> typing.List[str]:
    # Module attributes are looked up at call time, so a traced run times
    # these reads through the layer wrappers.
    from repro.obs import invariants, replay
    from repro.obs.store import format as store_format
    from repro.sweep.cells import opensys_result_from_dict

    result = payload["data"]["opensys"]
    problems = []
    if result["n_completed"] + result["n_cancelled"] != result["n_jobs"]:
        problems.append("completed + cancelled != jobs")
    times = result["response_times"]
    if times != sorted(times) or not all(_positive(t) for t in times):
        problems.append("response times not positive and sorted")
    if payload.get("metrics") is None:
        problems.append("no metrics snapshot")
    records = list(store_format.iter_columnar(cache.trace_path(key)))
    if not records:
        problems.append("empty trace")
    violations = invariants.check_trace(records)
    if violations:
        problems.append(f"{len(violations)} invariant violations, first: {violations[0]}")
    mismatches = replay.verify_replay(records, opensys_result_from_dict(result).system)
    if mismatches:
        problems.append(f"replay mismatch: {mismatches[0]}")
    return problems


def render_artifact(workload: str, spec, payloads) -> str:
    from repro.reporting import opensys_report, tables
    from repro.sweep import cells

    if workload == "closed-mix":
        parts = []
        for mix_id in spec.mixes:
            comparison = cells.mix_comparison(spec, payloads, mix_id)
            parts.append(tables.render_relative_rt_table(comparison))
            parts.append(tables.render_table3(comparison))
        return "\n\n".join(parts) + "\n"
    if workload == "penalty":
        return tables.render_table1(cells.penalty_table(spec, payloads)) + "\n"
    return opensys_report.render_matrix_table(cells.matrix_comparison(spec, payloads)) + "\n"


def artifact_problems(workload: str, spec, text: str) -> typing.List[str]:
    names = {
        "closed-mix": spec.policies,
        "penalty": spec.apps,
        "opensys-traced": spec.scenarios + spec.policies,
    }[workload]
    return [f"artifact does not mention {n!r}" for n in names if n not in text]


# ---------------------------------------------------------------------- #


def run(
    workload: str, seed: int, trace: bool, smoke: bool, setup_only: bool = False
) -> typing.Dict[str, typing.Any]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import numpy
    except ImportError:
        if workload == "penalty":
            raise SystemExit("penalty needs numpy: refusing to measure the scalar engine")
        numpy = None
    from repro.sweep import ResultCache, run_sweep
    from repro.sweep.cache import RESULT_SCHEMA

    tracer = None
    if trace:
        tracer = layers.LayerTracer()
        tracer.install()
    guard = BackendGuard()
    guard.install()
    t_imported = time.monotonic()

    spec = make_spec(workload, seed, smoke)
    cells = spec.expand()
    os.makedirs(TMP_DIR, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_DIR)
    try:
        cache = ResultCache(cache_dir)
        t_first_call = time.monotonic()
        if setup_only:
            return {"setup_marks": [T_INTERPRETER, t_imported, t_first_call]}
        start = time.perf_counter()
        # One shard per cell, so each cell's commit time is a split.
        splits: typing.List[float] = []
        sweep = run_sweep(
            spec, cache=cache, workers=1, shard_size=1,
            collect_metrics=workload == "opensys-traced",
            on_commit=lambda _index, _payloads: splits.append(time.perf_counter()),
        )
        payloads = sweep.payloads
        text = render_artifact(workload, spec, payloads)
        failures: typing.List[typing.Tuple[str, str]] = []
        if sweep.n_computed != len(cells):
            failures.append(("sweep", f"{sweep.n_hits} cells served from a fresh cache"))
        cell_digests = {}
        for outcome in sweep.outcomes:
            cell, payload = outcome.cell, outcome.payload
            cell_digests[cell.label] = sha256_json(payload)
            problems = []
            if (payload.get("schema"), payload.get("kind"), payload.get("cell")) != (
                RESULT_SCHEMA, cell.kind, cell.config
            ):
                problems.append("payload header does not match its cell")
            elif workload == "closed-mix":
                problems = check_mix_cell(cell, payload)
            elif workload == "penalty":
                problems = check_penalty_cell(cell, payload)
            else:
                problems = check_opensys_cell(cell, payload, cache, outcome.key)
            failures.extend((cell.label, p) for p in problems)
        artifact_digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        artifact_failures = artifact_problems(workload, spec, text)
        reference = None if smoke else load_reference(workload, seed)
        if reference is not None:
            for label, digest in cell_digests.items():
                if reference["cells"].get(label) != digest:
                    failures.append((label, "payload sha256 differs from the reference digest"))
            if reference["artifact"] != artifact_digest:
                artifact_failures.append("artifact sha256 differs from the reference digest")
        end = time.perf_counter()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    if workload == "penalty":
        wrong = sorted(e for e in guard.engines if not e.endswith(":numpy"))
        if wrong or not guard.engines:
            raise SystemExit(f"penalty ran off the numpy engine: {wrong or 'no engines built'}")

    out = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "setup_marks": [T_INTERPRETER, t_imported, t_first_call],
        "wall_s": end - start,
        # Per-cell segments of wall_s; the last one renders and checks.
        "segments_s": [b - a for a, b in zip([start] + splits, splits + [end])],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cells": len(cells),
        "failures": failures,
        "artifact_failures": artifact_failures,
        "cell_digests": cell_digests,
        "artifact_digest": artifact_digest,
        "reference": reference is not None,
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__ if numpy is not None else None,
        },
    }
    if tracer is not None:
        out["layers"] = tracer.snapshot()
        out["missing_targets"] = tracer.missing
    return out


def load_reference(workload: str, seed: int) -> typing.Optional[typing.Dict[str, typing.Any]]:
    with open(DIGESTS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def record_reference(result: typing.Dict[str, typing.Any]) -> None:
    if result["failures"] or result["artifact_failures"]:
        raise SystemExit("refusing to record digests of a run that failed its checks")
    with open(DIGESTS_PATH, "r", encoding="utf-8") as fh:
        digests = json.load(fh)
    digests.setdefault(result["workload"], {})[str(result["seed"])] = {
        "artifact": result["artifact_digest"],
        "cells": result["cell_digests"],
    }
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=layers.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop at the first run_sweep call (a setup_s sample)")
    parser.add_argument("--record", action="store_true",
                        help="store this run's digests as the seed's reference")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.trace, args.smoke, args.setup_only)
    if args.record:
        record_reference(result)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
