import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spt.detection import (DetectionParams, DetectionPerformance, detection_performance,
                           roc_sweep, sample_observable)


class TestMoments:
    def test_sampler_reproduces_vacuum_moments(self):
        obs = sample_observable(90, 0.0, n_samples=100_000, seed=12)
        se_mean = np.sqrt(90.0 / len(obs))
        assert obs.mean() == pytest.approx(90.0, abs=4 * se_mean)
        se_var = 90.0 * np.sqrt(2.0 / len(obs)) * 2
        assert obs.var(ddof=1) == pytest.approx(90.0, abs=4 * se_var)

    def test_sampler_reproduces_signal_mean(self):
        obs = sample_observable(90, 200.0, n_samples=50_000, seed=4)
        assert obs.mean() == pytest.approx(490.0, rel=0.01)

    @pytest.mark.parametrize("seed", [-2**63 - 1, 2**63, 2**64])
    def test_sampler_seed_outside_64_bits_is_value_error(self, seed):
        with pytest.raises(ValueError, match="seed must be in"):
            sample_observable(3, 0.0, n_samples=10, seed=seed)

    def test_sampler_stream_is_philox_seed_zero(self):
        # the sampler draws from Philox keyed by (seed, 0)
        rng = np.random.Generator(np.random.Philox(key=[12, 0]))
        g = (rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))) / np.sqrt(2.0)
        assert np.array_equal(sample_observable(3, 0.0, n_samples=5, seed=12),
                              np.sum(np.abs(g) ** 2, axis=1))


class TestPerformance:
    def test_paper_operating_points(self):
        perf = detection_performance(DetectionParams(gain=200, modes=90, zeta=2))
        assert perf.efficiency == pytest.approx(0.954, abs=1e-3)
        assert perf.dark_probability == pytest.approx(0.0228, abs=1e-4)
        perf2 = detection_performance(DetectionParams(gain=1000, modes=600, zeta=3))
        assert perf2.efficiency == pytest.approx(0.964, abs=1e-3)
        assert perf2.dark_probability == pytest.approx(0.00135, abs=2e-5)

    def test_zero_threshold(self):
        perf = detection_performance(DetectionParams(gain=200, modes=90, zeta=0))
        assert perf.efficiency == 1.0
        assert perf.dark_probability == pytest.approx(0.5)

    @given(z1=st.floats(0.0, 3.0), dz=st.floats(0.1, 2.0),
           gain=st.floats(10.0, 2000.0), modes=st.integers(2, 800))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_threshold(self, z1, dz, gain, modes):
        p1 = detection_performance(DetectionParams(gain=gain, modes=modes, zeta=z1))
        p2 = detection_performance(DetectionParams(gain=gain, modes=modes, zeta=z1 + dz))
        assert p2.efficiency < p1.efficiency
        assert p2.dark_probability < p1.dark_probability

    def test_efficiency_to_one_at_large_gain(self):
        effs = [detection_performance(DetectionParams(gain=g, modes=90, zeta=2)).efficiency
                for g in (10, 100, 1000, 1e6)]
        assert all(np.diff(effs) > 0)
        assert effs[-1] > 0.99999

    def test_empirical_model(self):
        # counts concentrated far above the threshold give unit efficiency
        hist = {40: 10, 60: 5}
        p = DetectionParams(gain=50, modes=90, zeta=2,
                            signal_model="empirical_histogram", histogram=hist)
        assert detection_performance(p).efficiency == 1.0
        # half the weight below: threshold 2 sqrt(90) ~ 19: counts 5 -> 2*5 = 10 < 19
        hist2 = {5: 10, 60: 10}
        p2 = DetectionParams(gain=50, modes=90, zeta=2,
                             signal_model="empirical_histogram", histogram=hist2)
        assert detection_performance(p2).efficiency == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            DetectionParams(gain=-1, modes=90, zeta=2)
        with pytest.raises(ValueError):
            DetectionParams(gain=1, modes=0, zeta=2)
        with pytest.raises(ValueError):
            DetectionParams(gain=1, modes=9, zeta=2, signal_model="empirical_histogram")
        with pytest.raises(ValueError):
            DetectionPerformance(efficiency=1.2, dark_probability=0.0)

    @pytest.mark.parametrize("name", ["gain", "zeta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_value_is_refused(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
            DetectionParams(**{"gain": 1.0, "modes": 9, "zeta": 2.0, name: value})


def test_roc_rows():
    rows = roc_sweep(200, 90, [0.0, 2.0])
    assert rows[0][1] == 1.0
    assert rows[1][1] == pytest.approx(0.954, abs=1e-3)
    assert rows[1][2] == pytest.approx(0.0228, abs=1e-4)
