"""Per-layer timing from outside the program: wrap public functions, time spans.

:data:`TARGETS` is the benchmark's layer map: every public function it
times, the layer it belongs to, and the workloads on which the layer is
predicted to do work (``moves_on``).  :class:`LayerTracer` installs a
timing wrapper on each target before a workload builds its objects, so
methods bound later (``draw = gen.next_blocks_array``) bind the wrapper,
and it rebinds every module attribute that imported a wrapped function
by name (``numpy_backend.next_blocks_spec``), so no call escapes.

Self time is a span's duration minus the spans of wrapped functions it
called, kept with a span stack; the layer shares in the report are sums
of self time over traced wall time.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
import typing

CLOSED = "closed-mix"
PENALTY = "penalty"
OPENSYS = "opensys-traced"
WORKLOADS = (CLOSED, PENALTY, OPENSYS)
SCHED = (CLOSED, OPENSYS)


class Target(typing.NamedTuple):
    layer: str
    module: str
    attr: str  # "fn" or "Class.method"
    moves_on: typing.Tuple[str, ...]  # workloads where calls must be nonzero
    iterator: bool = False  # a generator function: time each next()

    @property
    def metric(self) -> str:
        return f"{self.layer}.{self.attr}"


TARGETS: typing.Tuple[Target, ...] = (
    Target("engine", "repro.engine.queue", "EventQueue.push", SCHED),
    Target("engine", "repro.engine.queue", "EventQueue.pop", SCHED),
    # Self time is the dispatch loop itself: the handlers below are its
    # wrapped children.
    Target("engine", "repro.engine.simulator", "Simulator.run", SCHED),
    Target("core.allocator", "repro.core.allocator", "Allocator.new_work", SCHED),
    Target("core.allocator", "repro.core.allocator", "Allocator.processor_available", SCHED),
    Target("core.allocator", "repro.core.allocator", "Allocator.allocation", SCHED),
    Target("core.allocator", "repro.core.allocator", "Allocator.free_processors", SCHED),
    Target("core.allocator", "repro.core.allocator", "Allocator.willing_processors", SCHED),
    Target("core.allocator", "repro.core.allocator", "Allocator.rebalance_equipartition", SCHED),
    Target("core.system", "repro.core.system", "SchedulingSystem.grant_processor", SCHED),
    Target("core.system", "repro.core.system", "SchedulingSystem.preempt_processor", SCHED),
    Target("core.system", "repro.core.system", "SchedulingSystem.release_processor", SCHED),
    Target("core.system", "repro.core.system", "SchedulingSystem.cancel_job", (OPENSYS,)),
    Target("core.system", "repro.core.system", "SchedulingSystem.fail_processor", (OPENSYS,)),
    Target("core.system", "repro.core.system", "SchedulingSystem.recover_processor", (OPENSYS,)),
    # The two event handlers that carry the rest of the system's own code.
    Target("core.system", "repro.core.system", "SchedulingSystem._on_thread_complete", SCHED),
    Target("core.system", "repro.core.system", "SchedulingSystem._dispatch", SCHED),
    Target("threads.job", "repro.threads.job", "Job.demand", SCHED),
    Target("threads.job", "repro.threads.job", "Job.additional_request", SCHED),
    Target("threads.job", "repro.threads.job", "Job.dispatchable_workers", SCHED),
    Target("threads.job", "repro.threads.job", "Job.select_worker", SCHED),
    Target("threads.job", "repro.threads.job", "Job.take_ready_thread", SCHED),
    Target("machine.footprint", "repro.machine.footprint", "FootprintModel.reload_penalty", SCHED),
    Target("machine.footprint", "repro.machine.footprint", "FootprintModel.note_run", SCHED),
    Target("measure.workloads", "repro.measure.workloads", "make_jobs", (CLOSED,)),
    Target("apps", "repro.apps.mva", "MvaSpec.build_graph", (CLOSED,)),
    Target("apps", "repro.apps.matrix", "MatrixSpec.build_graph", (CLOSED,)),
    Target("apps", "repro.apps.gravity", "GravitySpec.build_graph", (CLOSED,)),
    Target("machine.cache", "repro.machine.cache", "SetAssociativeCache.access_batch", (PENALTY,)),
    Target("apps.refgen", "repro.apps.reference", "ReferenceGenerator.next_blocks_array", (PENALTY,)),
    Target("apps.refgen", "repro.apps.refgen.scalar", "next_blocks_spec", (PENALTY,)),
    Target("measure.penalty", "repro.measure.penalty", "PenaltyExperiment.measure", (PENALTY,)),
    Target("workloads.opensys", "repro.workloads.opensys.scenario", "Scenario.instantiate", (OPENSYS,)),
    Target("workloads.opensys", "repro.workloads.opensys.scenario", "run_scenario", (OPENSYS,)),
    Target("obs", "repro.obs.tracer", "Tracer.emit", (OPENSYS,)),
    Target("obs", "repro.obs.store.format", "write_columnar", (OPENSYS,)),
    Target("obs", "repro.obs.store.format", "iter_columnar", (OPENSYS,), iterator=True),
    Target("obs", "repro.obs.invariants", "check_trace", (OPENSYS,)),
    Target("obs", "repro.obs.replay", "verify_replay", (OPENSYS,)),
    Target("obs", "repro.obs.metrics", "MetricsRegistry.counter", (OPENSYS,)),
    Target("obs", "repro.obs.metrics", "MetricsRegistry.histogram", (OPENSYS,)),
    Target("sweep", "repro.sweep.cells", "run_cell", WORKLOADS),
    Target("sweep", "repro.sweep.cache", "ResultCache.store", WORKLOADS),
    Target("sweep", "repro.sweep.cache", "ResultCache.load", WORKLOADS),
    Target("sweep", "repro.sweep.cache", "code_fingerprint", WORKLOADS),
    Target("sweep", "repro.sweep.cells", "mix_comparison", (CLOSED,)),
    Target("sweep", "repro.sweep.cells", "penalty_table", (PENALTY,)),
    Target("sweep", "repro.sweep.cells", "matrix_comparison", (OPENSYS,)),
    Target("reporting", "repro.reporting.tables", "render_relative_rt_table", (CLOSED,)),
    Target("reporting", "repro.reporting.tables", "render_table3", (CLOSED,)),
    Target("reporting", "repro.reporting.tables", "render_table1", (PENALTY,)),
    Target("reporting", "repro.reporting.opensys_report", "render_matrix_table", (OPENSYS,)),
)

LAYERS: typing.Tuple[str, ...] = tuple(dict.fromkeys(t.layer for t in TARGETS))

#: Counts and ratios derived from arguments and return values.
DERIVED: typing.Tuple[str, ...] = (
    "engine.events",
    "machine.cache.accesses",
    "machine.cache.hit_ratio",
    "apps.refgen.touches",
    "apps.refgen.scalar_share",
    "obs.records",
    "obs.store.bytes",
    "obs.bytes_per_record",
)

#: Layers the table predicts do no work at all off their own workloads.
ZERO_OFF_WORKLOAD = ("obs", "apps.refgen", "machine.cache")


def per_layer_metric_names() -> typing.List[typing.Tuple[str, str]]:
    """(name, unit) of every per-layer metric a traced run reports."""
    names: typing.List[typing.Tuple[str, str]] = []
    for target in TARGETS:
        names.append((f"{target.metric}.calls", "count"))
        names.append((f"{target.metric}.self_s", "s"))
    units = {"machine.cache.hit_ratio": "ratio", "apps.refgen.scalar_share": "ratio",
             "obs.store.bytes": "bytes", "obs.bytes_per_record": "bytes"}
    names.extend((name, units.get(name, "count")) for name in DERIVED)
    names.extend((f"share.{layer}", "ratio") for layer in LAYERS)
    names.append(("trace_overhead", "ratio"))
    return names


class LayerTracer:
    """Installs timing wrappers on :data:`TARGETS` and accumulates spans."""

    def __init__(self) -> None:
        #: metric prefix -> [calls, self seconds]
        self.stats: typing.Dict[str, typing.List[float]] = {}
        self.counts: typing.Dict[str, float] = {
            "engine.events": 0, "cache.hits": 0, "cache.accesses": 0,
            "refgen.touches": 0, "refgen.scalar_touches": 0,
            "obs.store.bytes": 0, "obs.written": 0,
        }
        #: targets not found in the program (metrics stay at zero)
        self.missing: typing.List[str] = []
        # The bottom entry absorbs spans that run outside any other span.
        self._stack: typing.List[float] = [0.0]

    # -- installing ------------------------------------------------------ #

    def install(self) -> None:
        hooks = self._after_hooks()
        for target in TARGETS:
            self.stats[target.metric] = [0, 0.0]
            owner_name, _, name = target.attr.rpartition(".")
            try:
                module = importlib.import_module(target.module)
            except ModuleNotFoundError:
                module = None
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(name) if owner is not None else None
            if original is None:
                # Renamed or removed by a later change: report zero calls
                # rather than lose every other layer's numbers.
                self.missing.append(target.metric)
                continue
            wrapper = self._wrap(target, original, hooks.get(target.metric))
            setattr(owner, name, wrapper)
            if not owner_name:
                self._rebind_by_name(original, wrapper)

    @staticmethod
    def _rebind_by_name(original: object, wrapper: object) -> None:
        """Replace every ``from m import fn`` copy of ``original``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _wrap(
        self, target: Target, fn: typing.Callable, after: typing.Optional[typing.Callable]
    ) -> typing.Callable:
        """Time ``fn``; ``after(args, result)`` derives counts from a call."""
        stat = self.stats[target.metric]
        stack = self._stack
        clock = time.perf_counter

        if target.iterator:
            def steps(it: typing.Iterator) -> typing.Iterator:
                while True:
                    stack.append(0.0)
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        span = clock() - start
                        stat[1] += span - stack.pop()
                        stack[-1] += span
                    yield item

            def iter_wrapper(*args, **kwargs):
                stat[0] += 1
                return steps(iter(fn(*args, **kwargs)))

            return iter_wrapper

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stat[0] += 1
                stat[1] += span - stack.pop()
                stack[-1] += span
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_hooks(self) -> typing.Dict[str, typing.Callable]:
        counts = self.counts

        def run_end(args, _result):
            # One Simulator per SchedulingSystem, run once per cell.
            counts["engine.events"] += args[0].events_fired

        def access_batch(args, hits):
            counts["cache.hits"] += hits
            counts["cache.accesses"] += len(args[2])

        def touches(args, blocks):
            counts["refgen.touches"] += len(blocks)

        def scalar_touches(args, blocks):
            counts["refgen.scalar_touches"] += len(blocks)

        def written(args, count):
            counts["obs.store.bytes"] += os.path.getsize(args[0])
            counts["obs.written"] += count

        return {
            "engine.Simulator.run": run_end,
            "machine.cache.SetAssociativeCache.access_batch": access_batch,
            "apps.refgen.ReferenceGenerator.next_blocks_array": touches,
            "apps.refgen.next_blocks_spec": scalar_touches,
            "obs.write_columnar": written,
        }

    # -- reporting -------------------------------------------------------- #

    def snapshot(self) -> typing.Dict[str, float]:
        """Raw per-target calls/self_s plus the derived counts and ratios."""
        out: typing.Dict[str, float] = {}
        for target in TARGETS:
            calls, self_s = self.stats[target.metric]
            out[f"{target.metric}.calls"] = calls
            out[f"{target.metric}.self_s"] = self_s
        c = self.counts
        out["engine.events"] = c["engine.events"]
        out["machine.cache.accesses"] = c["cache.accesses"]
        out["machine.cache.hit_ratio"] = _ratio(c["cache.hits"], c["cache.accesses"])
        out["apps.refgen.touches"] = c["refgen.touches"]
        out["apps.refgen.scalar_share"] = _ratio(c["refgen.scalar_touches"], c["refgen.touches"])
        out["obs.records"] = out["obs.Tracer.emit.calls"]
        out["obs.store.bytes"] = c["obs.store.bytes"]
        out["obs.bytes_per_record"] = _ratio(c["obs.store.bytes"], c["obs.written"])
        return out


def layer_self_seconds(snapshot: typing.Mapping[str, float]) -> typing.Dict[str, float]:
    """Sum of self time per layer."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for target in TARGETS:
        totals[target.layer] += snapshot[f"{target.metric}.self_s"]
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
