"""Declarative sweep orchestration over a content-addressed result cache.

Layers: :mod:`repro.sweep.spec` (what to run), :mod:`repro.sweep.cache`
(where results live and how they are keyed), :mod:`repro.sweep.cells`
(how one cell runs and serializes), :mod:`repro.sweep.executor` (the
resumable sharded driver).

Only the leaf ``spec``/``cache`` symbols are imported eagerly.
:mod:`repro.sweep.cells` (the cell runner and every cell kind's
drivers) and :mod:`repro.sweep.executor` (the sharded driver, which
imports the cell runner) load lazily (PEP 562), on first use of a name
they define (``run_cell``, ``run_sweep``, ...).  That is all the
deferral saves: ``import repro`` already loads the scheduling simulator,
so importing this package to parse a spec does too.
"""

from __future__ import annotations

import typing

from repro.sweep.cache import DEFAULT_CACHE_DIR, ResultCache, cell_key, code_fingerprint
from repro.sweep.spec import (
    SweepCell,
    SweepSpec,
    load_spec,
    normalize_seeds,
    parse_seeds_arg,
    spec_from_dict,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "SweepCell",
    "SweepSpec",
    "cell_key",
    "code_fingerprint",
    "load_spec",
    "normalize_seeds",
    "parse_seeds_arg",
    "run_sweep",
    "spec_from_dict",
    "sweep_clean",
    "sweep_status",
]

_LAZY = {
    "run_sweep": "repro.sweep.executor",
    "sweep_status": "repro.sweep.executor",
    "sweep_clean": "repro.sweep.executor",
    "CellOutcome": "repro.sweep.executor",
    "SweepResult": "repro.sweep.executor",
    "SweepStatus": "repro.sweep.executor",
    "WorkerLostError": "repro.sweep.executor",
    "run_cell": "repro.sweep.cells",
}


def __getattr__(name: str) -> typing.Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
