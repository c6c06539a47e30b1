"""Thread dependence graphs: readiness, profiles, invariants."""

import typing

import pytest
from hypothesis import given, settings, strategies as st

from repro.threads.graph import ThreadGraph
from tests.core.helpers import critical_path


def diamond() -> ThreadGraph:
    """a -> (b, c) -> d."""
    g = ThreadGraph("diamond")
    a = g.add_thread(1.0)
    b = g.add_thread(2.0)
    c = g.add_thread(3.0)
    d = g.add_thread(1.0)
    g.add_dependency(a, b)
    g.add_dependency(a, c)
    g.add_dependency(b, d)
    g.add_dependency(c, d)
    return g


class TestConstruction:
    def test_add_thread_returns_sequential_ids(self):
        g = ThreadGraph()
        assert [g.add_thread(1.0) for _ in range(3)] == [0, 1, 2]

    def test_negative_service_rejected(self):
        with pytest.raises(ValueError):
            ThreadGraph().add_thread(-1.0)

    def test_self_dependency_rejected(self):
        g = ThreadGraph()
        t = g.add_thread(1.0)
        with pytest.raises(ValueError):
            g.add_dependency(t, t)

    def test_unknown_thread_rejected(self):
        g = ThreadGraph()
        g.add_thread(1.0)
        with pytest.raises(IndexError):
            g.add_dependency(0, 7)

    def test_total_work(self):
        assert diamond().total_work() == pytest.approx(7.0)


class TestReadiness:
    def test_initially_ready_are_roots(self):
        assert diamond().initially_ready() == [0]

    def test_completion_unblocks_successors(self):
        g = diamond()
        assert sorted(g.complete(0)) == [1, 2]

    def test_join_waits_for_all_predecessors(self):
        g = diamond()
        g.complete(0)
        assert g.complete(1) == []
        assert g.complete(2) == [3]

    def test_double_completion_raises(self):
        g = diamond()
        g.complete(0)
        with pytest.raises(RuntimeError):
            g.complete(0)

    def test_all_done(self):
        g = diamond()
        for tid in (0, 1, 2, 3):
            assert not g.all_done
            g.complete(tid)
        assert g.all_done

    def test_reset_restores_initial_state(self):
        g = diamond()
        g.complete(0)
        g.reset()
        assert g.n_completed == 0
        assert g.initially_ready() == [0]
        assert sorted(g.complete(0)) == [1, 2]


class TestAnalysis:
    def test_validate_acyclic_passes_dag(self):
        diamond().validate_acyclic()

    def test_validate_acyclic_catches_cycle(self):
        g = ThreadGraph("cyclic")
        a = g.add_thread(1.0)
        b = g.add_thread(1.0)
        g.add_dependency(a, b)
        g.add_dependency(b, a)
        with pytest.raises(ValueError):
            g.validate_acyclic()

    def test_critical_path_diamond(self):
        # a(1) -> c(3) -> d(1) = 5
        assert critical_path(diamond()) == pytest.approx(5.0)

    def test_critical_path_chain(self):
        g = ThreadGraph()
        ids = [g.add_thread(2.0) for _ in range(4)]
        for a, b in zip(ids, ids[1:]):
            g.add_dependency(a, b)
        assert critical_path(g) == pytest.approx(8.0)

    def test_critical_path_empty(self):
        assert critical_path(ThreadGraph()) == 0.0


class TestParallelismProfile:
    def test_flat_fan_runs_at_machine_width(self):
        g = ThreadGraph()
        for _ in range(8):
            g.add_thread(1.0)
        profile = g.parallelism_profile(4)
        assert profile.execution_time == pytest.approx(2.0)
        assert profile.time_at_level[4] == pytest.approx(1.0)
        assert profile.average_demand == pytest.approx(4.0)

    def test_chain_runs_at_level_one(self):
        g = ThreadGraph()
        ids = [g.add_thread(1.0) for _ in range(3)]
        for a, b in zip(ids, ids[1:]):
            g.add_dependency(a, b)
        profile = g.parallelism_profile(4)
        assert profile.time_at_level == {1: pytest.approx(1.0)}
        assert profile.execution_time == pytest.approx(3.0)

    def test_fractions_sum_to_one(self):
        profile = diamond().parallelism_profile(16)
        assert sum(profile.time_at_level.values()) == pytest.approx(1.0)

    def test_profile_restores_graph(self):
        g = diamond()
        g.parallelism_profile(4)
        assert g.n_completed == 0

    def test_fewer_processors_never_faster(self):
        g = diamond()
        wide = g.parallelism_profile(16).execution_time
        narrow = g.parallelism_profile(1).execution_time
        assert narrow >= wide

    def test_single_processor_time_is_total_work(self):
        g = diamond()
        assert g.parallelism_profile(1).execution_time == pytest.approx(g.total_work())

    def test_invalid_processors(self):
        with pytest.raises(ValueError):
            diamond().parallelism_profile(0)

    def test_max_parallelism_diamond(self):
        assert diamond().max_parallelism() == 2


@st.composite
def random_dag(draw):
    """A random DAG with edges only from lower to higher ids (acyclic)."""
    n = draw(st.integers(min_value=1, max_value=25))
    g = ThreadGraph("random")
    for _ in range(n):
        g.add_thread(draw(st.floats(min_value=0.01, max_value=5.0)))
    for after in range(1, n):
        for before in range(after):
            if draw(st.booleans()) and draw(st.integers(0, 3)) == 0:
                g.add_dependency(before, after)
    return g


@settings(max_examples=40, deadline=None)
@given(random_dag())
def test_property_greedy_schedule_completes_everything(graph):
    """Any forward-edge DAG list-schedules to completion with sane bounds."""
    graph.validate_acyclic()
    profile = graph.parallelism_profile(4)
    lower = max(critical_path(graph), graph.total_work() / 4)
    assert profile.execution_time >= lower - 1e-9
    assert profile.execution_time <= graph.total_work() + 1e-9
    assert sum(profile.time_at_level.values()) == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(random_dag())
def test_property_completion_order_covers_all(graph):
    """Repeated complete() over ready sets touches every thread exactly once."""
    ready = list(graph.initially_ready())
    done = 0
    while ready:
        tid = ready.pop()
        ready.extend(graph.complete(tid))
        done += 1
    assert done == graph.n_threads
    assert graph.all_done


class TestNonFiniteService:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_add_thread_rejects(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ThreadGraph().add_thread(bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_add_fan_rejects_and_leaves_graph_unchanged(self, bad):
        g = ThreadGraph()
        root = g.add_thread(1.0)
        with pytest.raises(ValueError):
            g.add_fan(root, [1.0, bad, 2.0])
        assert g.n_threads == 1
        assert g.successors == [[]]

    def test_add_join_rejects(self):
        g = ThreadGraph()
        root = g.add_thread(1.0)
        with pytest.raises(ValueError, match="finite"):
            g.add_join([root], float("nan"))
        assert g.n_threads == 1


class TestBulkBuilders:
    def test_fan_after_a_thread(self):
        g = ThreadGraph()
        root = g.add_thread(1.0)
        fan = g.add_fan(root, [2.0, 3.0], phase="p", data_groups=[4, None])
        assert list(fan) == [1, 2]
        assert g.successors[root] == [1, 2]
        assert g.n_predecessors == [0, 1, 1]
        assert g.phases == ["", "p", "p"]
        assert g.data_groups == [None, 4, None]

    def test_fan_without_predecessor_is_ready(self):
        g = ThreadGraph()
        g.add_fan(None, [1.0, 1.0])
        assert g.initially_ready() == [0, 1]

    def test_fan_rejects_unknown_or_negative_predecessor(self):
        g = ThreadGraph()
        g.add_thread(1.0)
        for bad in (1, -1):
            with pytest.raises(IndexError):
                g.add_fan(bad, [1.0])
        assert g.n_threads == 1

    def test_fan_rejects_mismatched_data_groups(self):
        g = ThreadGraph()
        with pytest.raises(ValueError, match="data_groups"):
            g.add_fan(None, [1.0, 1.0], data_groups=[0])
        assert g.n_threads == 0

    def test_join_waits_for_all(self):
        g = ThreadGraph()
        fan = g.add_fan(None, [1.0, 1.0, 1.0])
        join = g.add_join(fan, 0.5, phase="barrier")
        assert g.phases[join] == "barrier"
        assert g.complete(0) == [] and g.complete(1) == []
        assert g.complete(2) == [join]

    def test_join_rejects_unknown_or_negative_predecessor(self):
        g = ThreadGraph()
        g.add_thread(1.0)
        for bad in ([0, 1], [-1]):
            with pytest.raises(IndexError):
                g.add_join(bad)
        assert g.n_threads == 1


class TestTidBounds:
    @pytest.mark.parametrize("tid", [-1, 4, 99])
    def test_complete_rejects_out_of_range(self, tid):
        g = diamond()
        with pytest.raises(IndexError):
            g.complete(tid)
        assert g.n_completed == 0


_services = st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=6)


@st.composite
def fan_join_shapes(draw):
    """Steps of fans (after one thread or none) and joins (after a multiset)."""
    steps = []
    n = 0
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        if n and draw(st.booleans()):
            before = draw(st.lists(st.integers(0, n - 1), max_size=5))
            steps.append(("join", before, draw(_services)[0], f"j{len(steps)}"))
            n += 1
        else:
            before = draw(st.none() | st.integers(0, n - 1)) if n else None
            services = draw(_services)
            groups = draw(
                st.none()
                | st.lists(
                    st.none() | st.integers(0, 3),
                    min_size=len(services),
                    max_size=len(services),
                )
            )
            steps.append(("fan", before, services, f"f{len(steps)}", groups))
            n += len(services)
    return steps


def build_bulk(steps) -> ThreadGraph:
    g = ThreadGraph("bulk")
    for step in steps:
        if step[0] == "fan":
            _, before, services, phase, groups = step
            g.add_fan(before, services, phase, groups)
        else:
            _, before, service, phase = step
            g.add_join(before, service, phase)
    return g


def build_single(steps) -> ThreadGraph:
    g = ThreadGraph("single")
    for step in steps:
        if step[0] == "fan":
            _, before, services, phase, groups = step
            for index, service in enumerate(services):
                group = None if groups is None else groups[index]
                tid = g.add_thread(service, phase=phase, data_group=group)
                if before is not None:
                    g.add_dependency(before, tid)
        else:
            _, before, service, phase = step
            join = g.add_thread(service, phase=phase)
            for tid in before:
                g.add_dependency(tid, join)
    return g


@settings(max_examples=100, deadline=None)
@given(fan_join_shapes())
def test_property_bulk_builders_equal_single_builders(steps):
    """add_fan/add_join build exactly the graph add_thread/add_dependency do."""
    bulk, single = build_bulk(steps), build_single(steps)
    for name in ("service_times", "successors", "n_predecessors", "phases", "data_groups"):
        assert list(getattr(bulk, name)) == list(getattr(single, name)), name
    assert bulk.initially_ready() == single.initially_ready()
    assert critical_path(bulk) == critical_path(single)
    for n_processors in (1, 3):
        assert bulk.parallelism_profile(n_processors) == single.parallelism_profile(
            n_processors
        )
    ready_bulk, ready_single = bulk.initially_ready(), single.initially_ready()
    while ready_bulk:
        assert ready_bulk == ready_single
        tid = ready_bulk.pop(0)
        ready_single.pop(0)
        ready_bulk.extend(bulk.complete(tid))
        ready_single.extend(single.complete(tid))
    assert bulk.all_done and single.all_done


class TestForwardFlag:
    """``forward`` lets ``validate_acyclic`` skip its pass; only when safe."""

    @staticmethod
    def spy_on_full_pass(monkeypatch) -> typing.List[ThreadGraph]:
        calls: typing.List[ThreadGraph] = []
        full_pass = ThreadGraph._topological_order

        def spy(graph):
            calls.append(graph)
            return full_pass(graph)

        monkeypatch.setattr(ThreadGraph, "_topological_order", spy)
        return calls

    def test_bulk_builders_keep_the_graph_forward(self, monkeypatch):
        g = ThreadGraph()
        fan = g.add_fan(None, [1.0, 1.0])
        g.add_fan(g.add_join(fan), [1.0])
        calls = self.spy_on_full_pass(monkeypatch)
        assert g.forward
        g.validate_acyclic()
        assert calls == []

    def test_back_edge_closing_a_cycle_still_raises(self):
        g = ThreadGraph("cyclic")
        fan = g.add_fan(None, [1.0, 1.0])
        join = g.add_join(fan)
        g.add_dependency(join, fan[0])  # fan[0] -> join -> fan[0]
        assert not g.forward
        with pytest.raises(ValueError, match="cycle"):
            g.validate_acyclic()

    def test_backward_acyclic_edge_takes_the_full_pass(self, monkeypatch):
        g = ThreadGraph()
        first = g.add_thread(1.0)
        second = g.add_thread(1.0)
        g.add_dependency(second, first)
        calls = self.spy_on_full_pass(monkeypatch)
        assert not g.forward
        g.validate_acyclic()
        assert calls == [g]
        assert g.initially_ready() == [second]


@st.composite
def graphs_with_extra_edges(draw):
    """Fan/join steps, then any edges between distinct existing threads."""
    g = build_bulk(draw(fan_join_shapes()))
    tids = st.integers(0, g.n_threads - 1)
    edges = draw(st.lists(st.tuples(tids, tids).filter(lambda e: e[0] != e[1]), max_size=12))
    for before, after in edges:
        g.add_dependency(before, after)
    return g


@settings(max_examples=150, deadline=None)
@given(graphs_with_extra_edges())
def test_property_forward_flag_agrees_with_topological_order(graph):
    """``forward`` is exactly "every edge runs to a higher id", and never
    hides a cycle the full pass finds."""
    edges = [(u, v) for u, succs in enumerate(graph.successors) for v in succs]
    assert graph.forward == all(u < v for u, v in edges)
    try:
        graph._topological_order()
    except ValueError:
        acyclic = False
    else:
        acyclic = True
    assert acyclic or not graph.forward
    if acyclic:
        graph.validate_acyclic()
    else:
        with pytest.raises(ValueError):
            graph.validate_acyclic()
