"""The Section 4 penalty experiment (fast, coarse-scale versions)."""

import gc
import typing
import weakref

import pytest

from repro.apps import GRAVITY, MATRIX, MVA
from repro.apps.base import AppSpec
from repro.apps.reference import ReferenceGenerator
from repro.apps.refgen import numpy_available
from repro.engine.rng import RngRegistry
from repro.machine.processor import Processor
from repro.measure.penalty import PAPER_QUANTA_S, PenaltyExperiment, RegimeRun

#: Aggressive fidelity reduction keeps these tests fast; the benchmark
#: suite runs the calibrated scale-16 version.
FAST_SCALE = 64
BACKENDS = ("scalar", "numpy") if numpy_available() else ("scalar",)


@pytest.fixture(scope="module")
def experiment():
    return PenaltyExperiment(scale=FAST_SCALE, n_switches_target=15, min_run_s=0.5)


@pytest.fixture(scope="module")
def mva_result(experiment):
    return experiment.measure(MVA, 0.05, partners=(MATRIX,))


class TestRegimes:
    def test_migrating_slower_than_stationary(self, mva_result):
        assert mva_result.migrating.response_time > mva_result.stationary.response_time

    def test_multiprog_between_stationary_and_migrating(self, mva_result):
        multi = mva_result.multiprog["MATRIX"].response_time
        assert mva_result.stationary.response_time < multi
        assert multi < mva_result.migrating.response_time * 1.05

    def test_switch_counts_positive(self, mva_result):
        assert mva_result.stationary.n_switches >= 10
        assert mva_result.migrating.n_switches >= 10

    def test_hit_rate_ordering(self, mva_result):
        """Flushing depresses the hit rate below the stationary baseline."""
        assert mva_result.migrating.hit_rate < mva_result.stationary.hit_rate


class TestPenalties:
    def test_p_na_positive(self, mva_result):
        assert mva_result.p_na_s > 0

    def test_p_a_positive_and_below_p_na(self, mva_result):
        p_a = mva_result.p_a_s("MATRIX")
        assert 0 < p_a < mva_result.p_na_s

    def test_p_na_bounded_by_full_fill(self, experiment, mva_result):
        machine = experiment.machine
        full_fill_s = machine.cache_lines * machine.miss_time_s
        assert mva_result.p_na_s <= full_fill_s * 1.2

    def test_unit_conversion(self, mva_result):
        assert mva_result.p_na_us == pytest.approx(mva_result.p_na_s * 1e6)

    def test_penalty_grows_with_q(self, experiment):
        small = experiment.measure(MVA, 0.025, partners=())
        large = experiment.measure(MVA, 0.2, partners=())
        assert large.p_na_s > small.p_na_s


class TestTable1Harness:
    def test_table_covers_apps_and_quanta(self, experiment):
        table = experiment.table1((MVA, MATRIX), quanta=(0.025, 0.05))
        assert table.apps() == ["MVA", "MATRIX"]
        assert table.quanta() == [0.025, 0.05]
        result = table.result("MVA", 0.05)
        assert set(result.multiprog) == {"MVA", "MATRIX"}

    def test_paper_quanta_constants(self):
        assert PAPER_QUANTA_S == (0.025, 0.100, 0.400)

    def test_invalid_q(self, experiment):
        with pytest.raises(ValueError):
            experiment.measure(MVA, 0.0, partners=())

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_non_finite_or_negative_q_named(self, experiment, bad):
        """Regression: nan and inf died deep in the loop with a raw
        ValueError/OverflowError from math.ceil/int."""
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            experiment.measure(MVA, bad, partners=())

    def test_invalid_switch_target(self):
        with pytest.raises(ValueError):
            PenaltyExperiment(n_switches_target=1)


def _scalar_run_regime(
    experiment: PenaltyExperiment,
    app: AppSpec,
    q_s: float,
    regime: str,
    partner: typing.Optional[AppSpec],
    n_touches: int,
) -> RegimeRun:
    """The pre-batching regime driver, one Processor.touch per touch.

    Kept as an executable specification for the production chunked
    driver: identical RNG derivation, identical reference streams,
    touch-by-touch slice accounting.
    """
    rng = RngRegistry(experiment.seed).spawn(f"{app.name}/q{q_s:g}")
    app_ref = app.reference.reduced(experiment.scale)
    gen = ReferenceGenerator(app_ref, rng.stream("app"))
    partner_gen = partner_ref = None
    if partner is not None:
        partner_ref = partner.reference.reduced(experiment.scale)
        partner_gen = ReferenceGenerator(partner_ref, rng.stream("partner"))
    proc = Processor(0, experiment.machine)
    response_time = 0.0
    slice_left = q_s
    switches = 0
    for _ in range(n_touches):
        cost = proc.touch("measured", gen.next_block(), app_ref.refs_per_touch)
        response_time += cost
        slice_left -= cost
        if slice_left <= 0.0:
            switches += 1
            slice_left = q_s
            if regime == "migrating":
                proc.flush_cache()
            elif regime == "multiprog":
                budget = q_s
                while budget > 0.0:
                    budget -= proc.touch(
                        "partner", partner_gen.next_block(), partner_ref.refs_per_touch
                    )
    return RegimeRun(
        response_time=response_time,
        n_switches=switches,
        hit_rate=proc.cache.stats.hit_rate,
    )


class TestChunkedDriverEquivalence:
    """The chunked production driver against the scalar specification."""

    #: offset past a whole millisecond so no sum of touch costs (all
    #: multiples of 0.125 us) can tie exactly with the slice budget —
    #: the one case where summation order may shift a switch by a touch.
    Q_S = 0.0501003

    @pytest.mark.parametrize("regime,partner", [
        ("stationary", None),
        ("migrating", None),
        ("multiprog", MATRIX),
    ])
    def test_matches_scalar_loop(self, regime, partner):
        exp = PenaltyExperiment(scale=FAST_SCALE, n_switches_target=10, min_run_s=0.4)
        n_touches = exp._touch_count(MVA, self.Q_S)
        scalar = _scalar_run_regime(exp, MVA, self.Q_S, regime, partner, n_touches)
        stream = exp._measured_stream(MVA, self.Q_S, n_touches)
        chunked = exp._run_regime(MVA, self.Q_S, regime, partner, n_touches, stream)
        assert chunked.n_switches == scalar.n_switches
        assert chunked.response_time == pytest.approx(scalar.response_time, rel=1e-9)
        assert chunked.hit_rate == pytest.approx(scalar.hit_rate, rel=1e-12)


class TestReadAhead:
    """The regime drivers read each stream through a BlockReader."""

    Q_S = 0.05

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_measured_stream_stops_at_n_touches(self, monkeypatch, backend):
        # Keyed by the generator itself: holding it keeps a freed
        # generator's id from being reused by the next one.
        pulled: typing.Dict[ReferenceGenerator, typing.List] = {}
        for name in ("next_blocks", "next_blocks_array"):
            draw = getattr(ReferenceGenerator, name)

            def counted(gen, n, draw=draw):
                pulled.setdefault(gen, [gen.spec, 0])[1] += n
                return draw(gen, n)

            monkeypatch.setattr(ReferenceGenerator, name, counted)
        exp = PenaltyExperiment(
            scale=FAST_SCALE, n_switches_target=10, min_run_s=0.4, backend=backend
        )
        n_touches = exp._touch_count(MVA, self.Q_S)
        stream = exp._measured_stream(MVA, self.Q_S, n_touches)
        exp._run_regime(MVA, self.Q_S, "multiprog", MATRIX, n_touches, stream)
        by_spec = {spec: n for spec, n in pulled.values()}
        assert len(by_spec) == 2
        assert by_spec[MVA.reference.reduced(FAST_SCALE)] == n_touches
        assert by_spec[MATRIX.reference.reduced(FAST_SCALE)] > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_no_generator_survives_measure(self, monkeypatch, backend):
        """Reference counting alone frees every generator a measurement
        builds, so dead generators never wait for the cyclic collector."""
        built: typing.List[weakref.ref] = []
        init = ReferenceGenerator.__init__

        def recording_init(gen, *args, **kwargs):
            init(gen, *args, **kwargs)
            built.append(weakref.ref(gen))

        monkeypatch.setattr(ReferenceGenerator, "__init__", recording_init)
        exp = PenaltyExperiment(
            scale=FAST_SCALE, n_switches_target=10, min_run_s=0.4, backend=backend
        )
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            exp.measure(MVA, self.Q_S, partners=(MATRIX,))
            # the measured stream, drawn once for every regime, and
            # multiprog's partner
            assert len(built) == 2
            assert [ref() for ref in built] == [None] * 2
        finally:
            if was_enabled:
                gc.enable()


class TestScaleInvariance:
    def test_penalties_stable_across_fidelity(self):
        """Scale-32 and scale-64 agree on P^NA within 40%.

        (The reduction preserves time quantities by construction; residual
        differences are sampling noise in the smaller cache.)
        """
        coarse = PenaltyExperiment(scale=64, n_switches_target=15, min_run_s=0.5)
        fine = PenaltyExperiment(scale=32, n_switches_target=15, min_run_s=0.5)
        p_coarse = coarse.measure(GRAVITY, 0.05, partners=()).p_na_s
        p_fine = fine.measure(GRAVITY, 0.05, partners=()).p_na_s
        assert p_coarse == pytest.approx(p_fine, rel=0.4)

    @pytest.mark.slow
    def test_full_fidelity_matches_default_scale(self):
        """Scale 1 (the real 4096-line cache, no reduction) agrees with the
        default scale 16 on both P^NA and P^A.

        This is the run the batched hot path makes feasible: it plays
        every touch against the full-size cache.  The tolerance absorbs
        sampling noise between the two cache geometries.
        """
        full = PenaltyExperiment(scale=1, n_switches_target=20, min_run_s=1.0)
        default = PenaltyExperiment(scale=16, n_switches_target=20, min_run_s=1.0)
        r_full = full.measure(MVA, 0.1, partners=(MATRIX,))
        r_default = default.measure(MVA, 0.1, partners=(MATRIX,))
        assert r_full.p_na_s == pytest.approx(r_default.p_na_s, rel=0.35)
        assert r_full.p_a_s("MATRIX") == pytest.approx(
            r_default.p_a_s("MATRIX"), rel=0.35
        )
        # Affinity ordering is preserved at every fidelity.
        assert 0 < r_full.p_a_s("MATRIX") < r_full.p_na_s
