"""Open-system workloads: stochastic arrivals, disruptions, SWF replay.

The layer that takes the simulator beyond the paper's closed mixes:

* :mod:`~repro.workloads.opensys.arrivals` — Poisson / bursty / diurnal
  arrival processes with utilization targeting;
* :mod:`~repro.workloads.opensys.jobsource` — job sampling from the real
  app specs or fast synthetic templates;
* :mod:`~repro.workloads.opensys.disruptions` — job cancellations and
  CPU failure/recovery timelines;
* :mod:`~repro.workloads.opensys.swf` — Standard Workload Format trace
  ingestion and replay;
* :mod:`~repro.workloads.opensys.scenario` — the :class:`Scenario`
  recipe, the one-cell runner, the matrix summary types, and the four
  built-in scenario shapes.

Everything is driven by named rng substreams and pre-sampled timelines,
so a scenario instance is a pure function of (name, seed, machine size):
identical across policies, worker counts, and backends.  The
(policy × scenario × seed) matrix runs as a sweep
(:mod:`repro.sweep`, kinds ``opensys`` and ``swf``); on the command line
it is ``repro opensys``.
"""

from repro.workloads.opensys.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
)
from repro.workloads.opensys.disruptions import (
    CancellationProcess,
    CpuOutage,
    FailureProcess,
)
from repro.workloads.opensys.jobsource import (
    AppJobSource,
    JobSource,
    JobTemplate,
    TemplateJobSource,
    lite_source,
)
from repro.workloads.opensys.scenario import (
    CellSummary,
    MatrixComparison,
    OpenSystemResult,
    Scenario,
    ScenarioInstance,
    built_in_scenarios,
    quantile,
    run_scenario,
)
from repro.workloads.opensys.swf import (
    SwfFormatError,
    SwfJob,
    SwfScenario,
    load_swf,
    parse_swf,
)

__all__ = [
    "AppJobSource",
    "ArrivalProcess",
    "BurstyArrivals",
    "CancellationProcess",
    "CellSummary",
    "CpuOutage",
    "DiurnalArrivals",
    "FailureProcess",
    "JobSource",
    "JobTemplate",
    "MatrixComparison",
    "OpenSystemResult",
    "PoissonArrivals",
    "Scenario",
    "ScenarioInstance",
    "SwfFormatError",
    "SwfJob",
    "SwfScenario",
    "TemplateJobSource",
    "built_in_scenarios",
    "lite_source",
    "load_swf",
    "parse_swf",
    "quantile",
    "run_scenario",
]
