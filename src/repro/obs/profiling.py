"""Self-profiling: a cell's wall clock, folded by ``repro`` module.

Where the tracer and metrics observe the *simulated* machine, the
profile observes the *simulator*.  :func:`profile_call` runs one call
under :class:`cProfile.Profile` and folds its per-function statistics
into one row per ``repro`` module (``core.allocator``, ``engine.queue``,
``machine.cache``, ...) and one :data:`EXTERNAL` row for all code
outside the package: the standard library, C builtins and numpy, even
when ``repro`` code calls them.  A row holds the primitive call count
and the self seconds of its module's functions, so the rows of a
snapshot sum to its profiled time (``wall_s``) and no code carries
hand-placed timers.

Snapshots are schema-tagged plain dicts that merge like metrics
snapshots (calls and seconds add), so per-cell profiles from worker
processes travel home the same way metrics do.  Seconds are wall-clock
measurements, inflated by cProfile's per-call cost and never
reproducible; call counts are deterministic.  ``cProfile`` is imported
only when a call is profiled.
"""

from __future__ import annotations

import gc
import os
import time
import typing

#: Profile snapshot schema identifier, bumped on incompatible changes.
PROFILE_SCHEMA = "repro.profile/2"

#: The row of every function outside the ``repro`` package.
EXTERNAL = "<external>"

#: The package directory, with a trailing separator.
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + os.sep

T = typing.TypeVar("T")


def profile_call(
    fn: typing.Callable[..., T], *args: typing.Any
) -> typing.Tuple[T, typing.Dict[str, typing.Any]]:
    """``fn(*args)`` and the profile snapshot of that call.

    Garbage left by earlier work is collected first, so none of its
    finalizers runs, and counts, inside the profile.
    """
    import cProfile

    gc.collect()
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    try:
        result = fn(*args)
    finally:
        profile.disable()
        wall_s = time.perf_counter() - start
    return result, fold_stats(profile.getstats(), wall_s)


def fold_stats(
    entries: typing.Iterable[typing.Any], wall_s: float
) -> typing.Dict[str, typing.Any]:
    """Fold ``cProfile.Profile.getstats()`` entries into a snapshot."""
    rows: typing.Dict[str, typing.List[float]] = {}
    for entry in entries:
        code = entry.code
        module = module_of(code if isinstance(code, str) else code.co_filename)
        row = rows.get(module)
        if row is None:
            row = rows[module] = [0, 0.0]
        row[0] += entry.callcount - entry.reccallcount
        row[1] += entry.inlinetime
    return _snapshot(rows, wall_s)


def module_of(filename: str) -> str:
    """The row of code in ``filename``: its dotted module path below
    ``repro`` (``repro`` itself for the package's ``__init__``), or
    :data:`EXTERNAL`."""
    path = os.path.abspath(filename)
    if not (path.startswith(_PACKAGE_DIR) and path.endswith(".py")):
        return EXTERNAL
    parts = path[len(_PACKAGE_DIR):-3].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) or "repro"


def merge_profiles(
    snapshots: typing.Iterable[typing.Mapping[str, typing.Any]]
) -> typing.Dict[str, typing.Any]:
    """Add ``snapshots`` up, in the order given, into one snapshot.

    Raises:
        ValueError: on a schema mismatch or malformed snapshot.
    """
    rows: typing.Dict[str, typing.List[float]] = {}
    wall_s = 0.0
    for snapshot in snapshots:
        validate_profile(snapshot)
        wall_s += snapshot["wall_s"]
        for module, data in snapshot["modules"].items():
            row = rows.get(module)
            if row is None:
                row = rows[module] = [0, 0.0]
            row[0] += data["calls"]
            row[1] += data["self_s"]
    return _snapshot(rows, wall_s)


def _snapshot(
    rows: typing.Mapping[str, typing.Sequence[float]], wall_s: float
) -> typing.Dict[str, typing.Any]:
    return {
        "schema": PROFILE_SCHEMA,
        "wall_s": wall_s,
        "modules": {
            module: {"calls": int(row[0]), "self_s": row[1]}
            for module, row in sorted(rows.items())
        },
    }


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
    wall_s = snapshot.get("wall_s")
    if not isinstance(wall_s, (int, float)) or wall_s < 0:
        raise ValueError("profile 'wall_s' missing or negative")
    modules = snapshot.get("modules")
    if not isinstance(modules, typing.Mapping):
        raise ValueError("profile section 'modules' missing or not a mapping")
    for name, data in modules.items():
        if not isinstance(data, typing.Mapping):
            raise ValueError(f"module row {name!r} is not a mapping")
        for key in ("calls", "self_s"):
            if key not in data:
                raise ValueError(f"module row {name!r} is missing {key!r}")
        if data["calls"] < 0 or data["self_s"] < 0:
            raise ValueError(f"module row {name!r} has negative totals")
