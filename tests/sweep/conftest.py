"""Fixtures shared by the sweep tests."""

import os

import pytest


@pytest.fixture
def dying_worker(monkeypatch):
    """Make the process that runs the cell ``steady/Equipartition/seed0``
    exit at once.  Pool workers see the patch only when forked."""
    import multiprocessing

    import repro.sweep.executor as executor

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("patching a pool worker needs the fork start method")
    run_cell = executor.run_cell

    def run_or_die(cell, **kwargs):
        if cell.label == "steady/Equipartition/seed0":
            os._exit(1)
        return run_cell(cell, **kwargs)

    monkeypatch.setattr(executor, "run_cell", run_or_die)
    return monkeypatch
