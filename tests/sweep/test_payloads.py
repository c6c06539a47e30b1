"""Per-kind payload round trips.

For every cell kind, the result a cell returns survives its plain form
going through ``json.dumps``/``json.loads``: the ``*_from_dict`` inverse
of :func:`~repro.reporting.export.to_plain` rebuilds an equal result,
which renders the same text.  Cache hits and traced CLI runs both read
their results back this way.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import JobMetrics, SystemResult
from repro.measure.penalty import PenaltyResult, PenaltyTable, RegimeRun
from repro.reporting.export import to_plain
from repro.reporting.opensys_report import render_matrix_table
from repro.reporting.tables import render_section8, render_table1
from repro.sweep.cells import (
    opensys_result_from_dict,
    penalty_result_from_dict,
    system_result_from_dict,
)
from repro.workloads.opensys.scenario import (
    CellSummary,
    MatrixComparison,
    OpenSystemResult,
)

names = st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ-0123456789", min_size=1,
                max_size=10)
reals = st.floats(min_value=0.0, max_value=1e6)
counts = st.integers(min_value=0, max_value=10**6)

job_lists = st.lists(
    st.builds(
        JobMetrics, name=names, response_time=reals, work=reals, waste=reals,
        n_reallocations=counts, pct_affinity=st.floats(0.0, 100.0),
        cache_penalty_total=reals, switch_overhead_total=reals,
        average_allocation=reals,
    ),
    max_size=4,
    unique_by=lambda m: m.name,
)
system_results = st.builds(
    SystemResult, policy=names, n_processors=st.integers(1, 64), seed=counts,
    makespan=reals, jobs=job_lists.map(lambda jobs: {m.name: m for m in jobs}),
    cancelled=st.dictionaries(names, reals, max_size=3),
)


def opensys_results(scenarios):
    return st.builds(
        OpenSystemResult, scenario=scenarios, policy=names, seed=counts,
        n_processors=st.integers(1, 64), makespan=reals, n_jobs=counts,
        n_completed=counts, n_cancelled=counts,
        response_times=st.lists(reals, max_size=8).map(
            lambda times: tuple(sorted(times))
        ),
        total_work=reals, total_reallocations=counts, n_failures=counts,
        system=system_results,
    )


regimes = st.builds(
    RegimeRun, response_time=reals, n_switches=counts,
    hit_rate=st.floats(0.0, 1.0),
)
penalty_results = st.builds(
    PenaltyResult, app=names, q_s=st.floats(1e-3, 1.0), stationary=regimes,
    migrating=regimes,
    multiprog=st.dictionaries(names, regimes, min_size=1, max_size=3),
)


def _through_json(from_dict, result):
    plain = to_plain(result)
    # JSON-plain already: loading the dump changes nothing.
    assert json.loads(json.dumps(plain)) == plain
    return from_dict(json.loads(json.dumps(plain)))


def _render_matrix(result):
    key = (result.scenario, result.policy)
    return render_matrix_table(MatrixComparison(
        seeds=(result.seed,), scenarios=(result.scenario,),
        policies=(result.policy,), results={key: (result,)},
        cells={key: CellSummary.from_results([result])}, metrics={},
    ))


@settings(max_examples=50, deadline=None)
@given(system_results)
def test_mix_result_round_trips(result):
    back = _through_json(system_result_from_dict, result)
    assert back == result
    assert render_section8(5, {"P": back}) == render_section8(5, {"P": result})


@pytest.mark.parametrize("scenarios", [
    names,  # opensys cells name a built-in scenario
    names.map(lambda name: f"swf:{name}.swf"),  # swf cells name the trace file
], ids=["opensys", "swf"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_open_system_result_round_trips(scenarios, data):
    result = data.draw(opensys_results(scenarios))
    back = _through_json(opensys_result_from_dict, result)
    assert back == result
    assert _render_matrix(back) == _render_matrix(result)


@settings(max_examples=50, deadline=None)
@given(penalty_results)
def test_table1_result_round_trips(result):
    back = _through_json(penalty_result_from_dict, result)
    assert back == result

    def render(r):
        return render_table1(PenaltyTable(
            results={(r.app, r.q_s): r}, partner_names=tuple(r.multiprog)
        ))

    assert render(back) == render(result)
