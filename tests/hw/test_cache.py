"""LLC interference model (§3.2 noisy neighbour mechanism)."""

import numpy as np
import pytest

from repro.config import CacheProfile, DEFAULT_CACHE
from repro.errors import ConfigError
from repro.hw.cache import LLCModel
from repro.sim import Environment, RngRegistry


@pytest.fixture
def llc():
    env = Environment()
    rng = RngRegistry(1).stream("llc")
    return LLCModel(env, size_bytes=15 * 1024 * 1024, profile=DEFAULT_CACHE,
                    rng=rng)


class TestOccupancy:
    def test_no_pressure_when_fits(self, llc):
        llc.occupy(10 * 1024 * 1024)
        assert llc.pressure == 0.0

    def test_pressure_grows_past_capacity(self, llc):
        llc.occupy(int(22.5 * 1024 * 1024))
        assert llc.pressure == pytest.approx(0.5)

    def test_pressure_capped_at_one(self, llc):
        llc.occupy(200 * 1024 * 1024)
        assert llc.pressure == 1.0

    def test_release_restores(self, llc):
        token = llc.occupy(100 * 1024 * 1024)
        assert llc.pressure > 0
        llc.release(token)
        assert llc.pressure == 0.0

    def test_size_must_be_positive(self):
        env = Environment()
        with pytest.raises(ConfigError):
            LLCModel(env, 0, DEFAULT_CACHE, RngRegistry(0).stream("x"))


class TestPenalty:
    def test_unit_penalty_without_contention(self, llc):
        assert llc.penalty(1.0) == 1.0

    def test_zero_intensity_never_penalized(self, llc):
        llc.occupy(100 * 1024 * 1024)
        assert llc.penalty(0.0) == 1.0

    def test_intensity_must_be_fraction(self, llc):
        with pytest.raises(ConfigError):
            llc.penalty(1.5)

    def test_mean_penalty_matches_profile(self, llc):
        llc.occupy(30 * 1024 * 1024)  # pressure == 1
        draws = [llc.penalty(1.0) for _ in range(4000)]
        expected = llc.expected_penalty(1.0)
        assert np.mean(draws) == pytest.approx(expected, rel=0.15)

    def test_penalty_has_heavy_tail(self, llc):
        llc.occupy(30 * 1024 * 1024)
        draws = np.array([llc.penalty(1.0) for _ in range(4000)])
        assert np.percentile(draws, 99) > 4 * np.mean(draws)

    def test_aggressor_penalty_is_mild(self, llc):
        llc.occupy(30 * 1024 * 1024)
        assert llc.aggressor_penalty() == pytest.approx(
            DEFAULT_CACHE.aggressor_slowdown)

    def test_aggressor_unaffected_without_pressure(self, llc):
        assert llc.aggressor_penalty() == 1.0
