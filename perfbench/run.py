"""The repository benchmark: three workloads, timed end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload closed-mix --seed 0 --seconds 40 --trace 0

Each workload run is one fresh process (``perfbench/workload.py``) with
``REPRO_BACKEND`` cleared; this script starts them one after another
for ``--seconds`` and reports medians (times as sums of per-segment
medians, see :func:`typical`).

* ``--trace 0`` reports the end-to-end metrics: ``wall_s`` (first
  ``run_sweep`` call until the artifact is rendered and checked),
  ``setup_s`` (process start until that call) and ``peak_rss_mb``.
* ``--trace 1`` alternates untraced and traced processes and reports the
  per-layer metrics of ``perfbench/layers.py``, each layer's share of
  traced wall time, and ``trace_overhead`` (traced / untraced
  ``wall_s``).  The traced digests must equal the untraced ones.

Every cell is checked (see ``workload.py``); for the seeds in
``perfbench/digests.json`` the payload and artifact sha256 digests must
also match.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import typing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402  (benchmark-local module)

#: One workload process may not run longer than this.
CHILD_TIMEOUT_S = 120.0
#: Extra processes per untraced run that stop at the first run_sweep
#: call: more setup_s samples for its median at little cost.
SETUP_ONLY_SAMPLES = 5


class BenchError(RuntimeError):
    """A run that cannot produce a result (exit non-zero, print none)."""


def spawn(workload: str, seed: int, *flags: str) -> typing.Dict[str, typing.Any]:
    """Run one workload process; returns its result plus its setup segments."""
    env = dict(os.environ)
    env.pop("REPRO_BACKEND", None)
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", workload, "--seed", str(seed), *flags]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} process exceeded {CHILD_TIMEOUT_S:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} process exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    marks = [started] + result["setup_marks"]
    result["setup_segments_s"] = [b - a for a, b in zip(marks, marks[1:])]
    return result


def repro_cache_state() -> typing.Optional[int]:
    try:
        return os.stat(os.path.join(ROOT, ".repro-cache")).st_mtime_ns
    except FileNotFoundError:
        return None


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Start workload processes one after another for ``seconds``.

    Returns the untraced results, the traced results, and the
    ``setup_s`` segments of every untraced process.
    """
    plain: typing.List[dict] = []
    traced: typing.List[dict] = []
    start = last = time.monotonic()
    # Start another process (or pair) only if one more like the last
    # still ends within ``seconds``.
    while not plain or 2 * time.monotonic() - last - start <= seconds:
        last = time.monotonic()
        plain.append(spawn(workload, seed))
        if trace:
            traced.append(spawn(workload, seed, "--trace"))
    setups = [r["setup_segments_s"] for r in plain]
    if not trace:
        setups += [spawn(workload, seed, "--setup-only")["setup_segments_s"]
                   for _ in range(SETUP_ONLY_SAMPLES)]
    return plain, traced, setups


def median(values: typing.Iterable[float]) -> float:
    return statistics.median(list(values))


def typical(segments: typing.List[typing.List[float]]) -> float:
    """A time as the sum over its aligned segments of each one's median.

    Every process of a run goes through the same steps (start-up,
    imports, spec; then the same cells in the same order), so each
    process's time splits into aligned segments.  Taking the median
    segment by segment keeps a transient slowdown of the host, which
    hits one segment of one process, out of the result.
    """
    return sum(median(column) for column in zip(*segments))


def end_to_end_metrics(
    plain: typing.List[dict], setups: typing.List[typing.List[float]]
) -> typing.Dict[str, typing.Tuple[float, str]]:
    return {
        "wall_s": (typical([r["segments_s"] for r in plain]), "s"),
        "setup_s": (typical(setups), "s"),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in plain), "MB"),
    }


def per_layer_metrics(plain: typing.List[dict], traced: typing.List[dict]):
    snapshots = [r["layers"] for r in traced]
    out: typing.Dict[str, typing.Tuple[float, str]] = {}
    for name, unit in layers.per_layer_metric_names():
        if name.startswith("share."):
            layer = name[len("share."):]
            value = median(
                layers.layer_self_seconds(s)[layer] / r["wall_s"]
                for s, r in zip(snapshots, traced)
            )
        elif name == "trace_overhead":
            value = (typical([r["segments_s"] for r in traced])
                     / typical([r["segments_s"] for r in plain]))
        else:
            value = median(s[name] for s in snapshots)
        out[name] = (value, unit)
    return out


def correctness(runs: typing.List[dict]) -> typing.List[str]:
    """Every failed check across ``runs``, one line each."""
    problems = []
    for r in runs:
        kind = "traced" if r["trace"] else "untraced"
        problems += [f"{kind} cell {label}: {reason}" for label, reason in r["failures"]]
        problems += [f"{kind} artifact: {reason}" for reason in r["artifact_failures"]]
    first = runs[0]
    for r in runs[1:]:
        if (r["cell_digests"], r["artifact_digest"]) != (first["cell_digests"], first["artifact_digest"]):
            kind = "a traced" if r["trace"] else "an untraced"
            problems.append(f"{kind} process produced other digests than the first process")
    return problems


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=layers.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no src/repro under {ROOT}: nothing to measure", file=sys.stderr)
        return 2

    cache_before = repro_cache_state()
    try:
        plain, traced, setups = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench-tmp"))
        except OSError:
            pass
    problems = correctness(plain + traced)
    if repro_cache_state() != cache_before:
        problems.append("the run touched .repro-cache")

    env = plain[0]["env"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} untraced + {len(traced)} traced processes, "
          f"{len(setups)} setup_s samples; "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']}")
    if plain[0]["reference"]:
        print(f"seed {args.seed}: payload and artifact digests checked against perfbench/digests.json")
    else:
        print(f"seed {args.seed}: no reference digests, structural checks only")
    attempted = sum(r["cells"] for r in plain + traced)
    failed = sum(len({label for label, _ in r["failures"]}) for r in plain + traced)
    print(f"fail_frac = {failed}/{attempted} = {failed / attempted:g}")
    for line in problems:
        print(f"FAIL {line}")
    for metric in traced[0]["missing_targets"] if traced else ():
        print(f"note: {metric} is not in the program; its calls and self_s read 0")

    if args.trace:
        metrics = per_layer_metrics(plain, traced)
    else:
        metrics = end_to_end_metrics(plain, setups)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
