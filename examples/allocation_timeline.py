#!/usr/bin/env python3
"""Visualize processor allocation over time as an ASCII Gantt chart.

Runs workload #5 (1 MATRIX + 1 GRAVITY) under three policies, traces
each run, and renders who owned each processor when from the trace's
``AllocationChange`` records.  The charts make the policies' characters
directly visible:

* Equipartition — two static bands;
* Dyn-Aff — MATRIX's band breathes as GRAVITY's barrier phases come and
  go, but tasks keep returning to the same processors;
* Dyn-Aff-NoPri — MATRIX floods the machine and GRAVITY is squeezed into
  a sliver (the unfairness of Figure 6).

Run:  python examples/allocation_timeline.py
"""

from repro import DYN_AFF, DYN_AFF_NOPRI, EQUIPARTITION
from repro.core.system import SchedulingSystem
from repro.engine.rng import RngRegistry
from repro.measure.workloads import make_jobs
from repro.obs import Tracer
from repro.reporting.timeline import render_gantt


def main() -> None:
    for policy in (EQUIPARTITION, DYN_AFF, DYN_AFF_NOPRI):
        rng = RngRegistry(1)
        jobs = make_jobs(5, rng.spawn("workload"))
        tracer = Tracer()
        system = SchedulingSystem(
            jobs,
            policy,
            n_processors=16,
            seed=1,
            rng=rng.spawn(f"system/{policy.name}"),
            tracer=tracer,
        )
        result = system.run()
        print(f"=== {policy.name} ===")
        print(render_gantt(tracer.records, width=72))
        for name, metrics in sorted(result.jobs.items()):
            print(f"  {name:8s} finished at {metrics.response_time:6.1f} s")
        print()


if __name__ == "__main__":
    main()
