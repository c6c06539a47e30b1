"""Declarative sweep specs: named axes expanding to deterministic cells.

A :class:`SweepSpec` names *axes* — policies, workload mixes or
open-system scenarios or an SWF trace or measured applications, seeds,
machine size, engine backend — and :meth:`SweepSpec.expand` multiplies
them into a stable, deterministically ordered tuple of
:class:`SweepCell` work units.  Every reproduction target in this
repository (Table 1, Figures 5/6, Table 4, Figures 8-13, the
open-system matrix, an SWF replay) is one such spec; the executor in
:mod:`repro.sweep.executor` runs any of them through the same
content-addressed cache.

A cell is pure data: its canonical (key-sorted, compact) JSON config is
what the cache key hashes, so two specs that overlap — ``repro table4``
re-asking for a (mix, policy, seed) triple ``repro fig5`` already
computed — share the cached result.

Specs load from TOML (Python 3.11+) or JSON files; see :func:`load_spec`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import typing

from repro.core.policies import POLICIES, TIME_SHARING, TIME_SHARING_AFFINITY
from repro.measure.workloads import MIXES

#: Sweep spec schema identifier, part of every cell's cache key.
SPEC_SCHEMA = "repro.sweep.spec/1"

#: The cell kinds the executor knows how to run.
CELL_KINDS = ("mix", "opensys", "swf", "table1")

#: Names of the built-in open-system scenarios.  Hardcoded rather than
#: imported so this module stays a leaf that never loads the simulator;
#: a test pins the two lists together.
OPENSYS_SCENARIOS = ("steady", "bursty", "cancellations", "failures")

#: The Table 1 applications and rescheduling quanta (paper defaults).
TABLE1_APPS = ("MATRIX", "MVA", "GRAVITY")
TABLE1_QUANTA_S = (0.025, 0.100, 0.400)


def normalize_seeds(
    seeds: typing.Union[int, typing.Sequence[int]],
    base_seed: int = 0,
) -> typing.Tuple[int, ...]:
    """The one shared seed-axis validator (CLI flags and spec files).

    ``seeds`` is either a *count* (``3`` -> ``base_seed .. base_seed+2``)
    or an explicit seed list.  Duplicate seeds are rejected, not deduped:
    a duplicated seed silently runs the identical simulation twice and
    double-weights it in every pooled statistic — and in the result
    cache the two cells would collide on one key anyway.

    Raises:
        ValueError: on a non-positive count, an empty list, a non-integer
            entry, or duplicates (named in the message).
    """
    if isinstance(seeds, bool):
        raise ValueError(f"seeds must be a count or a list of ints, got {seeds!r}")
    if isinstance(seeds, int):
        if seeds < 1:
            raise ValueError(f"need at least one seed, got count {seeds}")
        return tuple(base_seed + r for r in range(seeds))
    values: typing.List[int] = []
    for value in seeds:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"seed {value!r} is not an integer")
        values.append(value)
    if not values:
        raise ValueError("need at least one seed, got an empty list")
    seen: typing.Set[int] = set()
    duplicates = sorted({v for v in values if v in seen or seen.add(v)})  # type: ignore[func-returns-value]
    if duplicates:
        raise ValueError(
            f"duplicate seeds {duplicates}: each seed runs the identical "
            "simulation, so repeating one double-counts its results "
            "(and collides in the result cache)"
        )
    return tuple(values)


def parse_seeds_arg(text: str) -> typing.Union[int, typing.Tuple[int, ...]]:
    """Parse a CLI ``--seeds`` value: a count, or a comma-separated list.

    ``"3"`` means three seeds starting at the base seed; ``"1,2,5"``
    means exactly those seeds; a trailing comma (``"5,"``) forces a
    one-element explicit list.  Validation of duplicates happens in
    :func:`normalize_seeds`, shared with every other entry point.
    """
    text = text.strip()
    if "," not in text:
        return int(text)
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError(f"no seeds in {text!r}")
    return tuple(int(p) for p in parts)


def canonical_json(payload: typing.Any) -> str:
    """Key-sorted, compact JSON — the hashing/equality form of a config."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def file_sha256(path: str) -> str:
    """Hex sha256 of a file's bytes (the content identity of an SWF cell)."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def policy_named(name: str, kind: str) -> typing.Any:
    """The policy a cell of ``kind`` runs under the display name ``name``:
    one of the paper's five (:data:`~repro.core.policies.POLICIES`), or,
    for ``mix`` cells only, one of Section 8's two time-sharing policies.

    Raises:
        ValueError: naming the policy, if ``kind`` does not run it.
    """
    time_sharing = {p.name: p for p in (TIME_SHARING, TIME_SHARING_AFFINITY)}
    if name in time_sharing and kind != "mix":
        raise ValueError(
            f"policy {name!r} is time sharing, which only 'mix' sweeps run"
        )
    policy = POLICIES.get(name) or time_sharing.get(name)
    if policy is None:
        raise ValueError(f"unknown policy {name!r}; expected one of {sorted(POLICIES)}")
    return policy


@dataclasses.dataclass(frozen=True, order=True)
class SweepCell:
    """One unit of sweep work: a kind plus its canonical config.

    The config is stored as canonical JSON so cells are hashable,
    orderable, and picklable; :attr:`config` parses it back on demand.
    Equality of two cells is byte-equality of their canonical form —
    exactly the identity the content-addressed cache keys on.
    """

    kind: str
    config_json: str

    @classmethod
    def make(cls, kind: str, config: typing.Mapping[str, typing.Any]) -> "SweepCell":
        if kind not in CELL_KINDS:
            raise ValueError(f"unknown cell kind {kind!r}; expected one of {CELL_KINDS}")
        return cls(kind=kind, config_json=canonical_json(dict(config)))

    @property
    def config(self) -> typing.Dict[str, typing.Any]:
        """The cell's parameters as a plain dict."""
        return json.loads(self.config_json)

    @property
    def seed(self) -> int:
        return self.config.get("seed", 0)

    @property
    def label(self) -> str:
        """Short human-readable identity (progress lines, journal)."""
        c = self.config
        if self.kind == "mix":
            return f"mix{c['mix']}/{c['policy']}/seed{c['seed']}"
        if self.kind == "opensys":
            return f"{c['scenario']}/{c['policy']}/seed{c['seed']}"
        if self.kind == "swf":
            name = os.path.basename(c["swf"])
            return f"swf:{name}/{c['policy']}/seed{c['seed']}"
        return f"table1/{c['app']}/q{c['q_s']:g}/seed{c['seed']}"


# The one place each of these config layouts is written, so a spec, an
# assembler and a traced CLI run all key the same cell the same way.


def mix_cell(mix: int, policy: str, seed: int, n_processors: int = 16) -> SweepCell:
    """Table 2 mix ``mix`` under ``policy`` on ``n_processors`` CPUs."""
    return SweepCell.make("mix", {
        "mix": mix, "policy": policy, "seed": seed, "n_processors": n_processors,
    })


def table1_cell(
    app: str, q_s: float, partners: typing.Sequence[str], scale: int, seed: int,
    backend: typing.Optional[str],
) -> SweepCell:
    """Table 1's penalties for ``app`` at quantum ``q_s``."""
    return SweepCell.make("table1", {
        "app": app, "q_s": q_s, "partners": list(partners), "scale": scale,
        "seed": seed, "backend": backend,
    })


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep: named axes over one cell kind.

    Axis fields are interpreted per ``kind``:

    * ``"mix"`` — ``mixes`` (Table 2 ids) x ``policies`` x ``seeds`` on
      ``n_processors`` CPUs;
    * ``"opensys"`` — ``scenarios`` (built-in names) x ``policies`` x
      ``seeds``, with ``lite``/``utilization`` shaping the scenario set;
    * ``"swf"`` — ``policies`` x ``seeds`` replaying the Standard Workload
      Format trace at path ``swf``, with ``time_scale``/``work_scale``
      dividing its submit times/runtimes and ``max_jobs`` truncating it
      (0 = every job).  Each cell also carries the file's sha256, taken
      at expansion, so an edited trace keys new cells;
    * ``"table1"`` — ``apps`` x ``quanta`` x ``seeds`` single-processor
      penalty measurements at fidelity ``scale``.

    ``backend`` (``None``/``"scalar"``/``"numpy"``) picks the cache and
    reference-generator engines for ``table1`` cells (the only kind that
    touches them) and is part of those cells' identity.  ``None`` means
    "numpy when it imports, else scalar", resolved at run time, so the
    key does not name the engine that ran: safe, because both engines
    give byte-identical payloads.  ``store_traces`` additionally
    persists each computed cell's full trace as a columnar
    ``trace.rct`` in its cache entry.
    """

    name: str
    kind: str
    policies: typing.Tuple[str, ...] = ()
    seeds: typing.Tuple[int, ...] = (0,)
    n_processors: int = 16
    backend: typing.Optional[str] = None
    store_traces: bool = False
    # mix axes
    mixes: typing.Tuple[int, ...] = ()
    # opensys axes
    scenarios: typing.Tuple[str, ...] = ()
    lite: bool = False
    utilization: float = 0.5
    # swf axes
    swf: typing.Optional[str] = None
    time_scale: float = 1.0
    work_scale: float = 1.0
    max_jobs: int = 0
    # table1 axes
    apps: typing.Tuple[str, ...] = ()
    quanta: typing.Tuple[float, ...] = ()
    scale: int = 16

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a sweep spec needs a name")
        if self.kind not in CELL_KINDS:
            raise ValueError(
                f"unknown sweep kind {self.kind!r}; expected one of {CELL_KINDS}"
            )
        object.__setattr__(self, "seeds", normalize_seeds(self.seeds))
        for axis in ("policies", "mixes", "scenarios", "apps", "quanta"):
            values = getattr(self, axis)
            if len(set(values)) != len(values):
                raise ValueError(
                    f"duplicate entries in {axis} {list(values)}: repeated "
                    "axis values would run identical cells twice"
                )
        if self.n_processors < 1:
            raise ValueError("n_processors must be positive")
        if self.backend not in (None, "scalar", "numpy"):
            raise ValueError(
                f"backend must be 'scalar', 'numpy', or omitted, got {self.backend!r}"
            )
        if self.kind in ("mix", "opensys", "swf"):
            if not self.policies:
                raise ValueError(f"a {self.kind!r} sweep needs at least one policy")
            for policy in self.policies:
                policy_named(policy, self.kind)
        if self.kind == "mix":
            if not self.mixes:
                raise ValueError("a 'mix' sweep needs at least one mix id")
            for mix in self.mixes:
                if mix not in MIXES:
                    raise ValueError(
                        f"unknown mix {mix!r}; expected one of {sorted(MIXES)}"
                    )
        elif self.kind == "opensys":
            if not self.scenarios:
                raise ValueError("an 'opensys' sweep needs at least one scenario")
            for scenario in self.scenarios:
                if scenario not in OPENSYS_SCENARIOS:
                    raise ValueError(
                        f"unknown scenario {scenario!r}; expected one of "
                        f"{list(OPENSYS_SCENARIOS)}"
                    )
            if not 0 < self.utilization < 1:
                raise ValueError("utilization must be in (0, 1)")
        elif self.kind == "swf":
            if not self.swf:
                raise ValueError("an 'swf' sweep needs the trace path in swf")
            for field in ("time_scale", "work_scale"):
                value = float(getattr(self, field))
                if not 0 < value < float("inf"):
                    raise ValueError(f"{field} must be a positive number")
                object.__setattr__(self, field, value)
            if self.max_jobs < 0:
                raise ValueError("max_jobs must be non-negative")
        elif self.kind == "table1":
            apps = self.apps or TABLE1_APPS
            object.__setattr__(self, "apps", tuple(apps))
            for app in self.apps:
                if app not in TABLE1_APPS:
                    raise ValueError(
                        f"unknown application {app!r}; expected one of "
                        f"{list(TABLE1_APPS)}"
                    )
            quanta = self.quanta or TABLE1_QUANTA_S
            object.__setattr__(self, "quanta", tuple(float(q) for q in quanta))
            for q_s in self.quanta:
                if not (math.isfinite(q_s) and q_s > 0):
                    raise ValueError(
                        f"quanta must be positive and finite; got {q_s!r}"
                    )
            if self.scale < 1:
                raise ValueError("scale must be at least 1")

    # ------------------------------------------------------------------ #

    def expand(self) -> typing.Tuple[SweepCell, ...]:
        """The spec's full cell list, in stable declaration order.

        Order is (primary axis, policy-or-quantum, seed) exactly as the
        axes were declared — never sorted, never dependent on dict or
        set iteration — so the same spec always yields the same list and
        journals/commit indices are comparable across runs.
        """
        cells: typing.List[SweepCell] = []
        if self.kind == "mix":
            for mix in self.mixes:
                for policy in self.policies:
                    for seed in self.seeds:
                        cells.append(mix_cell(mix, policy, seed, self.n_processors))
        elif self.kind == "opensys":
            for scenario in self.scenarios:
                for policy in self.policies:
                    for seed in self.seeds:
                        cells.append(SweepCell.make("opensys", {
                            "scenario": scenario,
                            "policy": policy,
                            "seed": seed,
                            "n_processors": self.n_processors,
                            "lite": self.lite,
                            "utilization": self.utilization,
                        }))
        elif self.kind == "swf":
            digest = file_sha256(typing.cast(str, self.swf))
            for policy in self.policies:
                for seed in self.seeds:
                    cells.append(SweepCell.make("swf", {
                        "swf": self.swf,
                        "sha256": digest,
                        "time_scale": self.time_scale,
                        "work_scale": self.work_scale,
                        "max_jobs": self.max_jobs,
                        "policy": policy,
                        "seed": seed,
                        "n_processors": self.n_processors,
                    }))
        else:  # table1
            for app in self.apps:
                for q_s in self.quanta:
                    for seed in self.seeds:
                        cells.append(table1_cell(
                            app, q_s, self.apps, self.scale, seed, self.backend
                        ))
        return tuple(cells)

    def to_dict(self) -> typing.Dict[str, typing.Any]:
        """Schema-tagged plain-dict form (the on-disk spec layout)."""
        out: typing.Dict[str, typing.Any] = {
            "schema": SPEC_SCHEMA,
            "name": self.name,
            "kind": self.kind,
            "seeds": list(self.seeds),
            "n_processors": self.n_processors,
            "backend": self.backend,
            "store_traces": self.store_traces,
        }
        if self.kind in ("mix", "opensys", "swf"):
            out["policies"] = list(self.policies)
        if self.kind == "mix":
            out["mixes"] = list(self.mixes)
        elif self.kind == "opensys":
            out["scenarios"] = list(self.scenarios)
            out["lite"] = self.lite
            out["utilization"] = self.utilization
        elif self.kind == "swf":
            out["swf"] = self.swf
            out["time_scale"] = self.time_scale
            out["work_scale"] = self.work_scale
            out["max_jobs"] = self.max_jobs
        else:
            out["apps"] = list(self.apps)
            out["quanta"] = list(self.quanta)
            out["scale"] = self.scale
        return out


#: Fields accepted by the on-disk spec form (beyond schema/name/kind).
_SPEC_FIELDS = {
    "policies", "seeds", "n_processors", "backend", "store_traces",
    "mixes", "scenarios", "lite", "utilization", "swf", "time_scale",
    "work_scale", "max_jobs", "apps", "quanta", "scale",
}

#: Scalar spec fields and the JSON/TOML types each accepts.  ``bool`` is
#: an ``int`` subclass, so it is excluded from the numeric fields by hand:
#: ``n_processors = true`` must not mean one processor.
_SCALAR_TYPES: typing.Dict[str, typing.Tuple[str, typing.Tuple[type, ...]]] = {
    "n_processors": ("an integer", (int,)),
    "scale": ("an integer", (int,)),
    "max_jobs": ("an integer", (int,)),
    "lite": ("a boolean", (bool,)),
    "store_traces": ("a boolean", (bool,)),
    "utilization": ("a number", (int, float)),
    "time_scale": ("a number", (int, float)),
    "work_scale": ("a number", (int, float)),
    "backend": ("a string", (str, type(None))),
    "swf": ("a string", (str,)),
}


def spec_from_dict(
    data: typing.Mapping[str, typing.Any], source: str = "spec"
) -> SweepSpec:
    """Build a validated :class:`SweepSpec` from a parsed spec document.

    Raises:
        ValueError: naming ``source`` and the offending field, for every
            way a document can be wrong (unknown keys included, so a
            typoed axis name cannot silently produce an empty sweep).
    """
    if not isinstance(data, typing.Mapping):
        raise ValueError(f"{source}: spec document must be a table/object")
    schema = data.get("schema", SPEC_SCHEMA)
    if schema != SPEC_SCHEMA:
        raise ValueError(
            f"{source}: unknown spec schema {schema!r}; "
            f"this loader understands {SPEC_SCHEMA!r}"
        )
    unknown = set(data) - _SPEC_FIELDS - {"schema", "name", "kind"}
    if unknown:
        raise ValueError(
            f"{source}: unknown spec field(s) {sorted(unknown)}; "
            f"accepted: {sorted(_SPEC_FIELDS)}"
        )
    kwargs: typing.Dict[str, typing.Any] = {}
    for field in ("policies", "mixes", "scenarios", "apps", "quanta", "seeds"):
        if field in data:
            value = data[field]
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{source}: {field} must be a list")
            kwargs[field] = tuple(value)
    for field, (expected, types) in _SCALAR_TYPES.items():
        if field not in data:
            continue
        value = data[field]
        is_bool = isinstance(value, bool)
        if not isinstance(value, types) or (is_bool and bool not in types):
            raise ValueError(
                f"{source}: {field} must be {expected}, got {value!r}"
            )
        kwargs[field] = value
    try:
        return SweepSpec(
            name=str(data.get("name", "")),
            kind=str(data.get("kind", "")),
            **kwargs,
        )
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{source}: {exc}") from exc


def load_spec(path: str) -> SweepSpec:
    """Load a sweep spec from a ``.toml`` or ``.json`` file.

    TOML needs Python 3.11+ (stdlib ``tomllib``); on older interpreters
    the error says so and points at the JSON form, which always works.

    Raises:
        ValueError: unreadable file, unparseable document, or any spec
            validation failure — always naming the path.
    """
    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError as exc:  # Python < 3.11
            raise ValueError(
                f"{path}: TOML specs need Python 3.11+ (stdlib tomllib); "
                "use the equivalent JSON spec instead"
            ) from exc
        try:
            with open(path, "rb") as fh:
                data = tomllib.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read sweep spec {path!r}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc})") from exc
        except tomllib.TOMLDecodeError as exc:
            raise ValueError(f"{path}: not valid TOML ({exc})") from exc
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read sweep spec {path!r}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc})") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    return spec_from_dict(data, source=path)
