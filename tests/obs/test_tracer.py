"""The column-native tracer: rows on emission, records only on read."""

import pytest

from repro.obs import Tracer
from repro.obs.records import RECORD_KINDS
from repro.obs.store import write_columnar
from repro.sweep import SweepSpec
from repro.sweep.cells import run_cell

#: Both cells between them emit every kind a scheduling run emits.
_CELLS = SweepSpec(
    name="t", kind="opensys", scenarios=("failures", "cancellations"),
    policies=("Dyn-Aff",), seeds=(0,), lite=True, n_processors=16,
).expand()


@pytest.fixture
def built(monkeypatch):
    """The record classes of every record built from here on."""
    classes = []
    for cls in RECORD_KINDS.values():
        def counting(self, *args, _init=cls.__init__, **kwargs):
            classes.append(type(self))
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return classes


def test_traced_cells_build_records_only_when_read(tmp_path, built):
    kinds = set()
    for cell in _CELLS:
        tracer = Tracer()
        run_cell(cell, collect_metrics=True, tracer=tracer)
        write_columnar(str(tmp_path / "t.rct"), tracer)
        assert built == [], f"{cell.label} built records before a read"
        records = tracer.records
        assert len(built) == len(tracer) == len(records)
        kinds.update(record.kind for record in records)
        built.clear()
    assert kinds == set(RECORD_KINDS) - {"cache_batch", "engine_event"}


@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_tracer_and_its_records_store_the_same_bytes(tmp_path, chunk):
    tracer = Tracer(capture_engine_events=True)
    run_cell(_CELLS[0], tracer=tracer)
    from_rows, from_records = tmp_path / "rows.rct", tmp_path / "records.rct"
    assert write_columnar(str(from_rows), tracer, chunk_records=chunk) == len(tracer)
    write_columnar(str(from_records), tracer.records, chunk_records=chunk)
    assert from_rows.read_bytes() == from_records.read_bytes()


def test_unregistered_kind_leaves_the_trace_as_it_was():
    tracer = Tracer()
    with pytest.raises(KeyError):
        tracer.emit(Tracer, 0.0)
    assert len(tracer) == 0 and tracer.records == []
