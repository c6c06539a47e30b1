"""Standard Workload Format (SWF) ingestion.

SWF is the archive format of real cluster traces
(https://www.cs.huji.ac.il/labs/parallel/workload/): one job per line,
18 whitespace-separated numeric fields, ``;`` comment lines.  We consume
the fields the simulator can honor:

===== ======================= ==========================================
field SWF name                mapped to
===== ======================= ==========================================
1     job number              job identity (``SWF-<id>``)
2     submit time (s)         arrival time (normalized to first = 0)
4     run time (s)            per-thread service time
5     allocated processors    thread/worker count (field 8, *requested*,
                              is the fallback when allocation is -1)
11    status                  1 = completed; 0/5 = killed/cancelled,
                              replayed as a mid-run cancellation
===== ======================= ==========================================

Parsing is strict where silence would corrupt an experiment: bytes that
are not UTF-8, negative runtimes, out-of-order submit times, truncated
lines, and non-numeric or non-finite (``nan``, ``inf``, overflowing)
fields all raise :class:`SwfFormatError` carrying the file and the
1-based line number.  (Real archives use ``-1`` for *unknown* runtimes;
an unknown runtime cannot be simulated, so it is an error here rather
than a silent skip.)

:class:`SwfScenario` adapts a parsed trace to the scenario interface:
each job becomes a flat graph of ``p`` threads of the scaled runtime run
by ``p`` workers (a rigid job — exactly how SWF jobs held their
processors), and killed/cancelled jobs (status 0/5) get a cancellation
event halfway through their recorded runtime.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import typing

from repro.machine.footprint import FootprintCurve
from repro.machine.params import SEQUENT_SYMMETRY, MachineSpec
from repro.threads.graph import ThreadGraph
from repro.threads.job import Job

#: SWF prescribes exactly 18 fields per job line.
N_FIELDS = 18

#: SWF status codes replayed as cancellations (0 = failed, 5 = cancelled).
CANCELLED_STATUSES = (0, 5)

#: Working-set law for replayed jobs: SWF records carry no cache
#: information, so every job gets a moderate footprint (a few thousand
#: lines, built within a second) — enough for affinity to matter without
#: dominating the replay.
SWF_CURVE = FootprintCurve(w_max=4000.0, tau=0.5)


class SwfFormatError(ValueError):
    """A malformed SWF line, with its source and 1-based line number."""

    def __init__(self, source: str, line_no: int, message: str) -> None:
        self.source = source
        self.line_no = line_no
        self.message = message
        super().__init__(f"{source}:{line_no}: {message}")

    def __reduce__(self) -> typing.Tuple[typing.Any, ...]:
        # A sweep's pool worker sends the error to the parent by pickle.
        return type(self), (self.source, self.line_no, self.message)


@dataclasses.dataclass(frozen=True)
class SwfJob:
    """One parsed SWF job record (times in trace seconds)."""

    job_id: int
    submit_s: float
    run_s: float
    n_procs: int
    status: int
    line_no: int


def parse_swf(text: str, source: str = "<swf>") -> typing.List[SwfJob]:
    """Parse SWF ``text`` into job records.

    Raises:
        SwfFormatError: on truncated lines, non-numeric or non-finite
            fields, negative
            submit/run times, missing processor counts, duplicate job
            ids, or submit times that go backwards.
    """
    jobs: typing.List[SwfJob] = []
    seen_ids: typing.Set[int] = set()
    last_submit: typing.Optional[float] = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        fields = line.split()
        if len(fields) < N_FIELDS:
            raise SwfFormatError(
                source,
                line_no,
                f"truncated record: expected {N_FIELDS} fields, got {len(fields)}",
            )
        try:
            values = [float(field) for field in fields[:N_FIELDS]]
        except ValueError:
            raise SwfFormatError(source, line_no, f"non-numeric field in {line!r}")
        for index, value in enumerate(values):
            if not math.isfinite(value):
                raise SwfFormatError(
                    source,
                    line_no,
                    f"non-finite field {index + 1}: {fields[index]!r}",
                )
        job_id = int(values[0])
        submit = values[1]
        run = values[3]
        allocated = int(values[4])
        requested = int(values[7])
        status = int(values[10])
        if submit < 0:
            raise SwfFormatError(source, line_no, f"negative submit time {submit}")
        if run < 0:
            raise SwfFormatError(
                source, line_no, f"negative runtime {run} (unknown runtimes "
                "cannot be replayed)"
            )
        if last_submit is not None and submit < last_submit:
            raise SwfFormatError(
                source,
                line_no,
                f"submit time {submit} before previous {last_submit} "
                "(SWF requires non-decreasing submit order)",
            )
        n_procs = allocated if allocated > 0 else requested
        if n_procs <= 0:
            raise SwfFormatError(
                source, line_no, "no usable processor count (fields 5 and 8 both <= 0)"
            )
        if job_id in seen_ids:
            raise SwfFormatError(source, line_no, f"duplicate job id {job_id}")
        seen_ids.add(job_id)
        last_submit = submit
        jobs.append(
            SwfJob(
                job_id=job_id,
                submit_s=submit,
                run_s=run,
                n_procs=n_procs,
                status=status,
                line_no=line_no,
            )
        )
    return jobs


def _decode_swf(raw: bytes, source: str) -> str:
    """``raw`` as UTF-8 text, or a :class:`SwfFormatError` naming the line
    of the first undecodable byte."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SwfFormatError(
            source,
            raw.count(b"\n", 0, exc.start) + 1,
            f"byte 0x{raw[exc.start]:02x} is not UTF-8 text",
        ) from None


def load_swf(path: str) -> typing.List[SwfJob]:
    """Parse the SWF file at ``path``."""
    with open(path, "rb") as handle:
        return parse_swf(_decode_swf(handle.read(), path), source=path)


@dataclasses.dataclass(frozen=True)
class SwfScenario:
    """A parsed SWF trace adapted to the scenario-instantiation interface.

    ``time_scale`` divides submit times and ``work_scale`` divides
    runtimes, so hour-scale archive traces can replay in simulated
    seconds.  ``max_jobs`` truncates the trace (0 = all jobs).
    """

    name: str
    jobs: typing.Tuple[SwfJob, ...]
    time_scale: float = 1.0
    work_scale: float = 1.0
    max_jobs: int = 0

    def __post_init__(self) -> None:
        if not self.jobs:
            raise ValueError("an SWF scenario needs at least one job")
        if self.time_scale <= 0 or self.work_scale <= 0:
            raise ValueError("time_scale and work_scale must be positive")
        if self.max_jobs < 0:
            raise ValueError("max_jobs must be non-negative")

    @classmethod
    def from_file(
        cls,
        path: str,
        time_scale: float = 1.0,
        work_scale: float = 1.0,
        max_jobs: int = 0,
        sha256: typing.Optional[str] = None,
    ) -> "SwfScenario":
        """Load ``path`` and wrap it as a scenario named after the file.

        With ``sha256``, the bytes read must hash to it, or a
        ``ValueError`` naming the file is raised: a caller that keyed
        results by the trace's content never parses a different one.
        """
        with open(path, "rb") as handle:
            raw = handle.read()
        if sha256 is not None:
            actual = hashlib.sha256(raw).hexdigest()
            if actual != sha256:
                raise ValueError(
                    f"{path}: SWF trace changed since it was keyed "
                    f"(sha256 {actual}, expected {sha256})"
                )
        return cls(
            name=f"swf:{os.path.basename(path)}",
            jobs=tuple(parse_swf(_decode_swf(raw, path), source=path)),
            time_scale=time_scale,
            work_scale=work_scale,
            max_jobs=max_jobs,
        )

    def instantiate(
        self,
        seed: int,
        n_processors: int = 16,
        machine: MachineSpec = SEQUENT_SYMMETRY,
    ) -> "ScenarioInstance":
        """Build the replay: jobs, arrivals, and status-derived cancellations.

        The trace is data, so ``seed`` only namespaces the instance (no
        randomness is drawn) — every seed replays the identical workload.
        """
        from repro.workloads.opensys.scenario import ScenarioInstance

        records = list(self.jobs)
        if self.max_jobs:
            records = records[: self.max_jobs]
        base = records[0].submit_s
        jobs: typing.List[Job] = []
        arrivals: typing.List[float] = []
        cancellations: typing.List[typing.Tuple[int, float]] = []
        for index, record in enumerate(records):
            arrival = (record.submit_s - base) / self.time_scale
            service = record.run_s / self.work_scale
            p = max(1, min(record.n_procs, n_processors))
            graph = ThreadGraph(f"SWF-{record.job_id}")
            for _ in range(p):
                graph.add_thread(service)
            jobs.append(
                Job(f"SWF-{record.job_id}", graph, SWF_CURVE, max_workers=p)
            )
            arrivals.append(arrival)
            if record.status in CANCELLED_STATUSES and service > 0:
                cancellations.append((index, arrival + 0.5 * service))
        return ScenarioInstance(
            name=self.name,
            seed=seed,
            jobs=tuple(jobs),
            arrival_times=tuple(arrivals),
            cancellations=tuple(cancellations),
            outages=(),
        )
