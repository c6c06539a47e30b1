"""Self-profiling: a wall-clock span timer with a null fast path.

Where the tracer and metrics registry observe the *simulated* machine,
the span profiler observes the *simulator*: real (monotonic) seconds
spent inside the run loop, the cache batch path, policy decisions, and
replication workers.  The design copies the Tracer's cost discipline —
instrumented code holds an optional profiler and guards with::

    prof = self.profiler
    if prof is not None and prof.enabled:
        prof.push("cache/access_batch")
        ...
        prof.pop()

so the disabled path is one attribute load and branch per operation
(benchmarked by ``test_profiler_disabled_overhead`` in
``benchmarks/bench_simulator_performance.py``, CI guard at 5%).

Spans nest: ``pop`` charges the elapsed time to the span's name
*inclusively* and to its *exclusive* time net of child spans, so the
aggregate table answers "where does the wall clock actually go" at both
granularities.  Snapshots are schema-tagged plain dicts that merge like
metrics snapshots (calls/times add, max combines) — per-replication
profiles from worker processes travel home the same way metrics do.
Unlike metrics, profile *values* are wall-clock measurements and are
inherently nondeterministic; only the snapshot *shape* is stable.
"""

from __future__ import annotations

import time
import typing

#: Profile snapshot schema identifier, bumped on incompatible changes.
PROFILE_SCHEMA = "repro.profile/1"


class SpanProfiler:
    """Aggregates named wall-clock spans into inclusive/exclusive totals.

    Args:
        clock: a monotonic ``() -> float`` seconds source; injectable for
            deterministic tests (defaults to :func:`time.perf_counter`).
    """

    #: guard checked by instrumented code before doing any timing work
    enabled: bool = True

    def __init__(self, clock: typing.Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        #: open spans: [name, start, child_inclusive_seconds]
        self._stack: typing.List[typing.List[typing.Any]] = []
        #: name -> [calls, inclusive_s, exclusive_s, max_s]
        self._spans: typing.Dict[str, typing.List[float]] = {}

    # -- recording ------------------------------------------------------- #

    def push(self, name: str) -> None:
        """Open a span called ``name`` at the current clock reading."""
        self._stack.append([name, self._clock(), 0.0])

    def pop(self) -> None:
        """Close the innermost open span and charge its elapsed time.

        A directly recursive span double-counts inclusive time (each
        level charges its full duration); exclusive time stays exact.
        """
        name, start, child = self._stack.pop()
        duration = self._clock() - start
        if self._stack:
            self._stack[-1][2] += duration
        agg = self._spans.get(name)
        if agg is None:
            agg = self._spans[name] = [0, 0.0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        if duration > agg[3]:
            agg[3] = duration

    # -- snapshots ------------------------------------------------------- #

    def snapshot(self) -> typing.Dict[str, typing.Any]:
        """The aggregate table as a plain, schema-tagged, mergeable dict.

        Raises:
            RuntimeError: if spans are still open (the table would be
                missing their time and could never merge consistently).
        """
        if self._stack:
            open_names = [frame[0] for frame in self._stack]
            raise RuntimeError(f"snapshot with open spans: {open_names}")
        return {
            "schema": PROFILE_SCHEMA,
            "spans": {
                name: {
                    "calls": int(agg[0]),
                    "inclusive_s": agg[1],
                    "exclusive_s": agg[2],
                    "max_s": agg[3],
                }
                for name, agg in sorted(self._spans.items())
            },
        }

    def merge_snapshot(self, snapshot: typing.Mapping[str, typing.Any]) -> None:
        """Fold another profiler's snapshot into this one.

        Raises:
            ValueError: on a schema mismatch or malformed snapshot.
        """
        validate_profile(snapshot)
        for name, data in snapshot["spans"].items():
            agg = self._spans.get(name)
            if agg is None:
                agg = self._spans[name] = [0, 0.0, 0.0, 0.0]
            agg[0] += data["calls"]
            agg[1] += data["inclusive_s"]
            agg[2] += data["exclusive_s"]
            if data["max_s"] > agg[3]:
                agg[3] = data["max_s"]

    @classmethod
    def merged(
        cls, snapshots: typing.Iterable[typing.Mapping[str, typing.Any]]
    ) -> typing.Dict[str, typing.Any]:
        """Merge ``snapshots`` into one snapshot dict."""
        profiler = cls()
        for snapshot in snapshots:
            profiler.merge_snapshot(snapshot)
        return profiler.snapshot()


class NullSpanProfiler(SpanProfiler):
    """A profiler that measures nothing and costs (almost) nothing.

    ``enabled`` is False so guarded call sites skip the clock reads
    entirely; ``push``/``pop`` are no-ops for anything that calls them
    unconditionally.
    """

    enabled = False

    def push(self, name: str) -> None:
        pass

    def pop(self) -> None:
        pass


def validate_profile(snapshot: typing.Mapping[str, typing.Any]) -> None:
    """Check that a profile snapshot is structurally valid.

    Raises:
        ValueError: describing the first problem found.
    """
    if not isinstance(snapshot, typing.Mapping):
        raise ValueError("profile snapshot must be a mapping")
    if snapshot.get("schema") != PROFILE_SCHEMA:
        raise ValueError(
            f"unknown profile schema {snapshot.get('schema')!r}; "
            f"expected {PROFILE_SCHEMA!r}"
        )
    spans = snapshot.get("spans")
    if not isinstance(spans, typing.Mapping):
        raise ValueError("profile section 'spans' missing or not a mapping")
    for name, data in spans.items():
        if not isinstance(data, typing.Mapping):
            raise ValueError(f"span {name!r} is not a mapping")
        for key in ("calls", "inclusive_s", "exclusive_s", "max_s"):
            if key not in data:
                raise ValueError(f"span {name!r} is missing {key!r}")
        if data["calls"] < 0 or data["inclusive_s"] < 0 or data["max_s"] < 0:
            raise ValueError(f"span {name!r} has negative totals")
