"""The six workload mixes of Table 2.

========  ====  ====  ====  ====  ====  ====
app        #1    #2    #3    #4    #5    #6
========  ====  ====  ====  ====  ====  ====
MVA         2     1     1     0     0     1
MATRIX      0     1     0     0     1     1
GRAVITY     0     0     1     2     1     1
========  ====  ====  ====  ====  ====  ====

Workload #1 is a light load; #2 pairs dynamically-changing parallelism
(MVA) with massive constant parallelism (MATRIX); #3 and #4 are moderate
loads needing more frequent reallocation; #5 and #6 are reasonably heavy
loads with quickly changing parallelisms.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.apps import APPLICATIONS, AppSpec
from repro.engine.rng import RngRegistry
from repro.machine.params import SEQUENT_SYMMETRY, MachineSpec
from repro.threads.job import Job


@dataclasses.dataclass(frozen=True)
class WorkloadMix:
    """A named multiset of applications."""

    mix_id: int
    copies: typing.Mapping[str, int]
    note: str = ""

    @property
    def n_jobs(self) -> int:
        """Total job count."""
        return sum(self.copies.values())


#: Table 2, verbatim.
MIXES: typing.Dict[int, WorkloadMix] = {
    1: WorkloadMix(1, {"MVA": 2, "MATRIX": 0, "GRAVITY": 0}, "light load"),
    2: WorkloadMix(2, {"MVA": 1, "MATRIX": 1, "GRAVITY": 0}, "changing vs massive parallelism"),
    3: WorkloadMix(3, {"MVA": 1, "MATRIX": 0, "GRAVITY": 1}, "moderate load"),
    4: WorkloadMix(4, {"MVA": 0, "MATRIX": 0, "GRAVITY": 2}, "moderate load"),
    5: WorkloadMix(5, {"MVA": 0, "MATRIX": 1, "GRAVITY": 1}, "heavy, quickly changing"),
    6: WorkloadMix(6, {"MVA": 1, "MATRIX": 1, "GRAVITY": 1}, "heavy, quickly changing"),
}


def make_jobs(
    mix: typing.Union[int, WorkloadMix],
    rng: RngRegistry,
    n_processors: int = 16,
    machine: MachineSpec = SEQUENT_SYMMETRY,
    applications: typing.Optional[typing.Mapping[str, AppSpec]] = None,
) -> typing.List[Job]:
    """Instantiate the jobs of a mix.

    Job names follow the paper's convention: the bare application name for
    the first copy, ``NAME-1`` etc. for additional copies.
    """
    if isinstance(mix, int):
        mix = MIXES[mix]
    apps = applications if applications is not None else APPLICATIONS
    jobs: typing.List[Job] = []
    for app_name in ("MVA", "MATRIX", "GRAVITY"):
        copies = mix.copies.get(app_name, 0)
        if copies and app_name not in apps:
            raise KeyError(f"unknown application {app_name!r}")
        for instance in range(copies):
            spec = apps[app_name]
            job_rng = rng.stream(f"job/{app_name}/{instance}")
            jobs.append(
                spec.make_job(
                    job_rng,
                    instance=instance,
                    n_processors=n_processors,
                    machine=machine,
                )
            )
    if not jobs:
        raise ValueError(f"mix {mix.mix_id} contains no jobs")
    return jobs
