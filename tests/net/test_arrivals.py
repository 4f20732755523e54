"""Arrival processes."""

import pytest

from repro.errors import NetworkError, ConfigError
from repro.net.arrivals import OnOffBurst, TraceReplay
from repro.sim import RngRegistry


class TestOnOffBurst:
    def test_long_run_rate_matches_formula(self):
        proc = OnOffBurst(1.0, on_mean_us=100.0, off_mean_us=300.0,
                          rng=RngRegistry(2))
        total = sum(proc.next_gap() for _ in range(20000))
        measured = 20000 / total
        assert measured == pytest.approx(proc.mean_rate, rel=0.1)

    def test_burstier_than_poisson(self):
        """Same mean rate, far higher inter-arrival variability (CV^2)."""
        import numpy as np

        burst = OnOffBurst(1.0, 100.0, 300.0, rng=RngRegistry(3))
        # the open-loop generator's own Poisson draw at the same rate
        rng = RngRegistry(3)
        burst_gaps = np.array([burst.next_gap() for _ in range(5000)])
        pois_gaps = np.array([rng.exponential("poisson", 1.0 / burst.mean_rate)
                              for _ in range(5000)])

        def cv2(gaps):
            return gaps.var() / gaps.mean() ** 2

        assert cv2(burst_gaps) > 10 * cv2(pois_gaps)  # Poisson CV^2 == 1

    def test_parameters_validated(self):
        with pytest.raises(ConfigError):
            OnOffBurst(0, 1, 1, RngRegistry(0))


class TestTraceReplay:
    def test_replays_gaps_and_loops(self):
        proc = TraceReplay([0.0, 5.0, 7.0])
        assert [proc.next_gap() for _ in range(4)] == [5.0, 2.0, 5.0, 2.0]

    def test_validation(self):
        with pytest.raises(ConfigError):
            TraceReplay([1.0])
        with pytest.raises(ConfigError):
            TraceReplay([5.0, 1.0])


class TestTraceFromFile:
    def test_npy_round_trip(self, tmp_path):
        import numpy as np

        path = str(tmp_path / "trace.npy")
        np.save(path, np.array([0.0, 5.0, 7.0]))
        proc = TraceReplay.from_file(path)
        assert [proc.next_gap() for _ in range(4)] == [5.0, 2.0, 5.0, 2.0]

    def test_csv_with_header_and_extra_columns(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("timestamp_us,flow\n0.0,a\n5.0,b\n7.0,a\n")
        proc = TraceReplay.from_file(str(path))
        assert [proc.next_gap() for _ in range(3)] == [5.0, 2.0, 5.0]

    def test_bare_text_one_per_line(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("1.5\n2.5\n10.0\n")
        proc = TraceReplay.from_file(str(path))
        assert proc.next_gap() == 1.0

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            TraceReplay.from_file("/nonexistent/trace.csv")

    def test_unparsable_row_after_data(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0\n2.0\noops\n")
        with pytest.raises(ConfigError):
            TraceReplay.from_file(str(path))

    def test_too_short(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("header\n1.0\n")
        with pytest.raises(ConfigError):
            TraceReplay.from_file(str(path))

    def test_npy_rejects_2d(self, tmp_path):
        import numpy as np

        path = str(tmp_path / "grid.npy")
        np.save(path, np.zeros((2, 2)))
        with pytest.raises(ConfigError):
            TraceReplay.from_file(path)


class TestGeneratorIntegration:
    def test_open_loop_with_custom_arrivals(self):
        from repro import Testbed
        from repro.net import Address, OpenLoopGenerator

        tb = Testbed()
        client = tb.client("10.0.1.1")
        gen = OpenLoopGenerator(tb.env, client, Address("10.9.9.9", 1),
                                payload_fn=lambda i: b"x",
                                arrivals=TraceReplay([0.0, 100.0]))
        tb.run(until=10000)
        assert gen.offered == pytest.approx(100, abs=3)

    def test_open_loop_requires_rate_or_arrivals(self):
        from repro import Testbed
        from repro.net import Address, OpenLoopGenerator

        tb = Testbed()
        client = tb.client("10.0.1.1")
        with pytest.raises(NetworkError):
            OpenLoopGenerator(tb.env, client, Address("10.9.9.9", 1),
                              payload_fn=lambda i: b"x")
