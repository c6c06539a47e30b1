"""Penalty vs intervening-task count and the survival-ratio fit."""

import pytest

from repro.apps import GRAVITY, MATRIX, MVA
from repro.measure.intervening import InterveningExperiment, InterveningResult


@pytest.fixture(scope="module")
def result():
    experiment = InterveningExperiment(scale=32, n_switches_target=20)
    return experiment.measure(MVA, MATRIX, q_s=0.05, max_intervening=4)


class TestMeasurement:
    def test_zero_interveners_zero_penalty(self, result):
        assert result.penalty_by_k[0] == 0.0

    def test_penalty_grows_with_interveners(self, result):
        penalties = [result.penalty_by_k[k] for k in sorted(result.penalty_by_k)]
        assert penalties == sorted(penalties)

    def test_penalty_bounded_by_full_flush(self, result):
        for k, penalty in result.penalty_by_k.items():
            assert penalty <= result.p_na_s * 1.1, k

    def test_survival_decreases(self, result):
        survivals = [result.survival_after(k) for k in sorted(result.penalty_by_k)]
        assert survivals[0] == 1.0
        assert all(a >= b for a, b in zip(survivals, survivals[1:]))

    def test_sigma_fit_in_unit_interval(self, result):
        sigma = result.fitted_sigma()
        assert 0.0 < sigma < 1.0

    def test_single_intervener_ejects_something(self, result):
        assert result.survival_after(1) < 0.95

    def test_invalid_max_intervening(self):
        experiment = InterveningExperiment(scale=64)
        with pytest.raises(ValueError):
            experiment.measure(MVA, MATRIX, max_intervening=0)

    @pytest.mark.parametrize("bad", [0.0, -0.1, float("nan"), float("inf")])
    def test_invalid_q(self, bad):
        """Regression: a non-positive Q used to be accepted silently."""
        experiment = InterveningExperiment(scale=64)
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            experiment.measure(MVA, MATRIX, q_s=bad)


class TestQDependence:
    def test_survival_shrinks_with_q(self):
        """The paper's core disagreement with S&L, quantified: at short
        (time-sharing) intervals a footprint largely survives one
        intervening task; at space-sharing intervals it largely dies."""
        experiment = InterveningExperiment(scale=32, n_switches_target=15)
        short = experiment.measure(MVA, GRAVITY, q_s=0.025, max_intervening=2)
        long_q = experiment.measure(MVA, GRAVITY, q_s=0.400, max_intervening=2)
        assert short.survival_after(1) > long_q.survival_after(1) + 0.2


class TestFitEdgeCases:
    def test_sigma_zero_when_nothing_survives(self):
        result = InterveningResult(
            app="X", q_s=0.1,
            penalty_by_k={0: 0.0, 1: 1e-3, 2: 1e-3},
            p_na_s=1e-3,
        )
        assert result.fitted_sigma() == 0.0

    def test_sigma_exact_for_pure_geometric(self):
        sigma = 0.5
        p_na = 2e-3
        penalties = {k: p_na * (1 - sigma ** k) for k in range(4)}
        result = InterveningResult(app="X", q_s=0.1, penalty_by_k=penalties, p_na_s=p_na)
        assert result.fitted_sigma() == pytest.approx(sigma, rel=1e-6)

    def test_zero_pna_means_full_survival(self):
        result = InterveningResult(app="X", q_s=0.1, penalty_by_k={0: 0.0, 1: 0.0}, p_na_s=0.0)
        assert result.survival_after(1) == 1.0
